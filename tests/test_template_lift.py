"""Template parsing, mnemonic classification, lifting to the IR, and the
semantics-preservation property of the simplifying expression constructors."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ric.chunks import load_chunk_records
from ric.constraints import derive_interface
from ric.errors import OutOfScope, UnknownMnemonic, WidthError
from ric.expr import (
    BinOp,
    Cast,
    Const,
    Extract,
    Ite,
    Load,
    ReadLoc,
    Reg,
    UnOp,
    _fold_binop,
    _ones,
    _to_signed,
    mk_binop,
    mk_cast,
    mk_extract,
    mk_ite,
    mk_unop,
)
from ric.lift import lift
from ric.oracle import MachineState, compile_expr
from ric.template import classify_mnemonic, parse_template


def chunk(template, outputs=(), inputs=(), clobbers=()):
    return load_chunk_records(
        [
            {
                "template": template,
                "outputs": [{"constraint": c, "expr_text": e} for c, e in outputs],
                "inputs": [{"constraint": c, "expr_text": e} for c, e in inputs],
                "clobbers": list(clobbers),
            }
        ]
    )[0]


# ---------------------------------------------------------------------------
# Mnemonics


@pytest.mark.parametrize(
    "word,expect",
    [
        ("movl", ("mov", "l")),
        ("mov", ("mov", "")),
        ("addb", ("add", "b")),
        ("leal", ("lea", "l")),
        ("bswapl", ("bswap", "l")),
        ("cmpxchg8b", ("cmpxchg8b", "")),
        ("setz", ("setz", "")),
        ("cmovz", ("cmovz", "")),
        ("jnz", ("jnz", "")),
        ("movzbl", ("movz", "bl")),
        ("movswl", ("movs", "wl")),
        ("pxor", ("pxor", "")),
    ],
)
def test_classify_mnemonic(word, expect):
    assert classify_mnemonic(word) == expect


@pytest.mark.parametrize("word", ["fldl", "rdtsc", "int3", "sysenter", "divss"])
def test_unknown_mnemonics(word):
    with pytest.raises(UnknownMnemonic):
        classify_mnemonic(word)


# ---------------------------------------------------------------------------
# Template structure


def test_tokens_and_escaped_percent():
    from ric.template import RegT, TokenRef

    c = chunk("movl %%eax, %0", [("=r", "y")])
    parsed = parse_template(c.template, c)
    (ins,) = parsed.instrs
    assert isinstance(ins.operands[0], RegT) and ins.operands[0].parent == "eax"
    assert isinstance(ins.operands[1], TokenRef) and ins.operands[1].ref == 0


def test_malformed_immediate_is_package_error():
    from ric.errors import RicError

    c = chunk("andl $100%%2, %0", [("+r", "y")])
    with pytest.raises(RicError):
        parse_template(c.template, c)


def test_local_labels():
    c = chunk("movl $4, %0\n1: decl %0\njnz 1b", [("=r", "n")], clobbers=["cc"])
    parsed = parse_template(c.template, c)
    # three instructions; the jump resolves to the labeled one
    assert len(parsed.instrs) == 3


def test_semicolon_separated_statements():
    c = chunk("nop; nop ; nop")
    parsed = parse_template(c.template, c)
    assert len(parsed.instrs) == 3


def test_prefix_lock():
    c = chunk("lock; cmpxchgl %3, %0",
              [("+m", "*(p)"), ("=a", "prev")], [("a", "old"), ("r", "new")],
              ["cc"])
    parsed = parse_template(c.template, c)
    (ins,) = parsed.instrs
    assert "lock" in ins.prefixes


def test_size_modifiers_parse():
    parsed = parse_template("movb %b0, %%al; movw %w[x], %%ax; movl %k1, %%eax")
    assert [ins.operands[0].modifier for ins in parsed.instrs] == ["b", "w", "k"]


@pytest.mark.parametrize("operand", ["%h0", "%h[x]", "%c1", "(%h0)", "4(%%eax,%P1)"])
def test_other_template_modifiers_are_out_of_scope(operand):
    with pytest.raises(OutOfScope, match="unsupported template modifier"):
        parse_template(f"movl {operand}, %%edx")


# ---------------------------------------------------------------------------
# Lifting


def lift_chunk(c):
    fi = derive_interface(c)
    return lift(parse_template(c.template, c), fi)


def test_lift_kinds():
    c = chunk("movl %1, %0", [("=a", "y")], [("m", "*(p)")])
    kinds = derive_interface(c).kinds
    assert kinds[0] == "fixed" and kinds[1] == "mem"


def test_lift_mov_token_to_token():
    c = chunk("movl %1, %0", [("=r", "y")], [("r", "x")])
    prog = lift_chunk(c)
    assert derive_interface(c).kinds == {0: "var", 1: "var"}
    assert len(prog.instrs) >= 1


def test_lift_flags_for_add():
    c = chunk("addl %1, %0", [("+r", "y")], [("r", "x")], ["cc"])
    prog = lift_chunk(c)
    from ric.expr import Flag
    from ric.lift import Assign

    flag_writes = {
        i.lhs.name
        for i in prog.instrs
        if isinstance(i, Assign) and isinstance(i.lhs, Flag)
    }
    assert {"z", "c", "s", "o"} <= flag_writes


def test_lift_sib_addressing():
    c = chunk("leal 8(%1,%2,4), %0", [("=r", "a")], [("r", "b"), ("r", "i")])
    prog = lift_chunk(c)
    assert prog.instrs  # lifts without error


# ---------------------------------------------------------------------------
# Simplifier semantics property


_REGS = [Reg("eax", 32), Reg("ebx", 32), Reg("ecx", 32)]
_ARITH = ["add", "sub", "mul", "and", "or", "xor", "shl", "shr", "sar"]
_CMPS = ["eq", "ne", "ult", "slt", "ugt", "sgt"]
_DIVS = ["udiv", "urem", "sdiv", "srem"]


# ---------------------------------------------------------------------------
# References: a tree-walking evaluator, and a rebuild of an expression
# through the simplifying constructors


def simplify(e):
    """Rebuild the expression through the simplifying constructors."""
    if isinstance(e, (Const, ReadLoc)):
        return e
    if isinstance(e, Load):
        return Load(simplify(e.addr), e.size)
    if isinstance(e, UnOp):
        return mk_unop(e.op, simplify(e.e))
    if isinstance(e, Cast):
        return mk_cast(e.kind, e.width, simplify(e.e))
    if isinstance(e, Extract):
        return mk_extract(e.hi, e.lo, simplify(e.e))
    if isinstance(e, BinOp):
        return mk_binop(e.op, simplify(e.a), simplify(e.b))
    if isinstance(e, Ite):
        return mk_ite(simplify(e.c), simplify(e.a), simplify(e.b))
    raise WidthError(f"not an expression: {e!r}")


def eval_expr(e, get_loc, load_mem):
    """Evaluate to an unsigned int. `get_loc(loc)` and `load_mem(addr, size)`
    supply location values and memory bytes."""
    if isinstance(e, Const):
        return e.value
    if isinstance(e, ReadLoc):
        return get_loc(e.loc) & _ones(e.width)
    if isinstance(e, Load):
        addr = eval_expr(e.addr, get_loc, load_mem)
        return load_mem(addr, e.size)
    if isinstance(e, UnOp):
        v = eval_expr(e.e, get_loc, load_mem)
        return (~v if e.op == "not" else -v) & _ones(e.width)
    if isinstance(e, Cast):
        v = eval_expr(e.e, get_loc, load_mem)
        if e.kind == "sext":
            v = _to_signed(v, e.e.width)
        return v & _ones(e.width)
    if isinstance(e, Extract):
        v = eval_expr(e.e, get_loc, load_mem)
        return (v >> e.lo) & _ones(e.width)
    if isinstance(e, BinOp):
        a = Const(eval_expr(e.a, get_loc, load_mem), e.a.width)
        b = Const(eval_expr(e.b, get_loc, load_mem), e.b.width)
        return _fold_binop(e.op, a, b).value
    if isinstance(e, Ite):
        c = eval_expr(e.c, get_loc, load_mem)
        return eval_expr(e.a if c else e.b, get_loc, load_mem)
    raise WidthError(f"not an expression: {e!r}")


def _exprs(ops=_ARITH, casts=False):
    leaves = st.one_of(
        st.integers(0, 2**32 - 1).map(lambda v: Const(v, 32)),
        st.sampled_from(_REGS).map(ReadLoc),
    )

    def extend(children):
        return st.one_of(
            st.tuples(st.sampled_from(ops), children, children).map(
                lambda t: BinOp(t[0], t[1], t[2])
            ),
            st.tuples(st.sampled_from(["not", "neg"]), children).map(
                lambda t: UnOp(t[0], t[1])
            ),
            st.tuples(
                st.sampled_from(_CMPS), children, children, children, children
            ).map(lambda t: Ite(BinOp(t[0], t[1], t[2]), t[3], t[4])),
            st.tuples(st.integers(0, 30), children).map(
                lambda t: BinOp(
                    "concat", Const(0, 31 - t[0]), Extract(t[0], 0, t[1])
                )
            ),
            children.map(lambda e: Load(e, 4)),
        )

    def extend_with_casts(children):
        # the high half of a 64-bit cast: zero, or the sign for sext
        return st.one_of(
            extend(children),
            st.tuples(st.sampled_from(["zext", "sext"]), children).map(
                lambda t: Extract(63, 32, Cast(t[0], 64, t[1]))
            ),
        )

    return st.recursive(
        leaves, extend_with_casts if casts else extend, max_leaves=12
    )


def _env(seed):
    vals = {r: (seed * (i + 17) * 2654435761) & 0xFFFFFFFF for i, r in enumerate(_REGS)}

    def get_loc(loc):
        return vals.get(loc, 0)

    def load_mem(addr, size):
        return (addr * 2246822519 + size * 97) & ((1 << (size * 8)) - 1)

    return get_loc, load_mem


@settings(max_examples=250, deadline=None)
@given(_exprs(), st.integers(1, 2**16))
def test_simplify_preserves_semantics(e, seed):
    get_loc, load_mem = _env(seed)
    mask = (1 << e.width) - 1
    before = eval_expr(e, get_loc, load_mem) & mask
    s = simplify(e)
    assert s.width == e.width
    after = eval_expr(s, get_loc, load_mem) & mask
    assert before == after


def _env_state(seed):
    """A machine state that reads registers and memory as _env does."""
    get_loc, load_mem = _env(seed)
    s = MachineState(0)
    s.regs.update({r.name: get_loc(r) for r in _REGS})
    s.load = load_mem
    return s


# an ite whose value overflows its width: the shr operand must be masked
_WIDE_ITE = BinOp(
    "shr",
    Ite(
        BinOp("ne", ReadLoc(_REGS[0]), ReadLoc(_REGS[0])),
        Const(0xFF, 8),
        Const(0x1FF, 16),
    ),
    Const(1, 8),
)


def _agree(e, seed):
    get_loc, load_mem = _env(seed)
    return compile_expr(e)(_env_state(seed)) == eval_expr(e, get_loc, load_mem)


@settings(max_examples=200, deadline=None)
@given(_exprs(_ARITH + _DIVS, casts=True), st.integers(1, 2**16))
def test_compiled_expr_matches_eval_expr(e, seed):
    assert _agree(e, seed)


@settings(max_examples=500, deadline=None)
@given(
    st.sampled_from(_ARITH + _DIVS + _CMPS + ["concat"]),
    _exprs(),
    _exprs(),
    st.integers(1, 2**16),
)
def test_compiled_binop_matches_eval_expr(op, a, b, seed):
    assert _agree(BinOp(op, a, b), seed)


def test_compiled_expr_masks_an_overflowing_ite():
    get_loc, load_mem = _env(1)
    assert eval_expr(_WIDE_ITE, get_loc, load_mem) == 0x7F
    assert _agree(_WIDE_ITE, 1)
