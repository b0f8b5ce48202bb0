"""The oracle runs each chunk's program compiled once, with every token
reading the operand that the state binds to it. The reference here binds
the other way: it substitutes the operands into the program and compiles
the result per assignment. Both must leave the same state, take the same
steps, or raise the same exception."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ric import oracle, pool
from ric.checker import check_chunk
from ric.chunks import extract_chunks
from ric.cli import run
from ric.constraints import ImmOperand, MemOperand, RegOperand, TokenAssignment
from ric.errors import MissingToken, RicError
from ric.expr import (
    Assign,
    BinOp,
    Branch,
    Cast,
    Const,
    Extract,
    IRProgram,
    Ite,
    Load,
    ReadLoc,
    Reg,
    StoreLhs,
    Token,
    TokenAddr,
    UnOp,
    format_instr,
    mk_binop,
    mk_cast,
    mk_extract,
    mk_ite,
    mk_unop,
)
from ric.oracle import (
    GP,
    OracleRun,
    TrialConfig,
    bind_assignment,
    compile_program,
    exec_program,
    random_state,
)

BUDGET = 20_000  # steps per execution; a longer run ends in StepLimit on both sides


def substitute(prog, assignment):
    """Replace token locations by concrete operands: a register or an
    immediate directly, a memory operand by its address expression."""

    def addr_of(pos):
        op = assignment[pos] if pos in assignment else None
        if op is None:
            raise MissingToken(f"%{pos} not covered by the assignment")
        if isinstance(op, MemOperand):
            parts = []
            if op.base:
                parts.append(ReadLoc(Reg(op.base, 32)))
            if op.index:
                parts.append(mk_binop("mul", ReadLoc(Reg(op.index, 32)), Const(op.scale, 32)))
            if op.disp or not parts:
                parts.append(Const(op.disp, 32))
            e = parts[0]
            for p in parts[1:]:
                e = mk_binop("add", e, p)
            return e
        raise MissingToken(f"%{pos} is not a memory operand")

    def sub_expr(e):
        if isinstance(e, ReadLoc):
            loc = e.loc
            if isinstance(loc, Token):
                if loc.index not in assignment:
                    raise MissingToken(f"%{loc.index} not covered by the assignment")
                op = assignment[loc.index]
                if isinstance(op, RegOperand):
                    return ReadLoc(Reg(op.reg, 32))
                if isinstance(op, ImmOperand):
                    return Const(op.value, 32)
                # a memory operand bound to a register-like use: its value
                return Load(addr_of(loc.index), 4)
            if isinstance(loc, TokenAddr):
                return addr_of(loc.index)
            return e
        if isinstance(e, Const):
            return e
        if isinstance(e, Load):
            return Load(sub_expr(e.addr), e.size)
        if isinstance(e, BinOp):
            return mk_binop(e.op, sub_expr(e.a), sub_expr(e.b))
        if isinstance(e, UnOp):
            return mk_unop(e.op, sub_expr(e.e))
        if isinstance(e, Cast):
            return mk_cast(e.kind, e.width, sub_expr(e.e))
        if isinstance(e, Extract):
            return mk_extract(e.hi, e.lo, sub_expr(e.e))
        if isinstance(e, Ite):
            return mk_ite(sub_expr(e.c), sub_expr(e.a), sub_expr(e.b))
        raise MissingToken(f"cannot substitute in {e!r}")

    out = []
    for ins in prog.instrs:
        if isinstance(ins, Assign):
            rhs = sub_expr(ins.rhs)
            lhs = ins.lhs
            if isinstance(lhs, StoreLhs):
                out.append(Assign(StoreLhs(sub_expr(lhs.addr), lhs.size), rhs))
            elif isinstance(lhs, Token):
                op = assignment[lhs.index] if lhs.index in assignment else None
                if op is None:
                    raise MissingToken(f"%{lhs.index} not covered by the assignment")
                if isinstance(op, RegOperand):
                    out.append(Assign(Reg(op.reg, 32), rhs))
                elif isinstance(op, MemOperand):
                    out.append(Assign(StoreLhs(addr_of(lhs.index), 4), rhs))
                else:
                    raise MissingToken(f"%{lhs.index} bound to an immediate is written")
            else:
                out.append(Assign(lhs, rhs))
        elif isinstance(ins, Branch):
            out.append(Branch(sub_expr(ins.cond), ins.then_target, ins.else_target))
        else:
            out.append(ins)
    return IRProgram(out, dict(prog.labels))


CFG = TrialConfig(trials=20, seed=0)


@pytest.fixture(scope="module")
def runs(corpus_chunks, corpus_results):
    """The OracleRun of every runnable corpus chunk."""
    out = [OracleRun(corpus_results[c.context.file], CFG) for c in corpus_chunks]
    return [r for r in out if not r.unrunnable]


def _outcome(execute, state):
    """(steps or the exception's type, registers, flags, wide registers,
    stored bytes) after execute(state)."""
    try:
        steps = execute(state)
    except RicError as e:
        return type(e).__name__
    return steps, state.regs, state.flags, state.wide, state.stored


# an immediate anywhere in (and past) the 32-bit range, negative ones too
_IMMEDIATES = st.one_of(st.integers(0, 2), st.integers(-(2**33), 2**33))
_FREE = st.sampled_from(GP[:-1])  # esp is the stack pointer
_MEMORY = st.builds(
    MemOperand,
    base=st.none() | _FREE,
    index=st.none() | _FREE,
    scale=st.sampled_from((1, 2, 4, 8)),
    disp=st.integers(-64, 64),
)
# any operand for a token used as a value, whatever its constraint allows:
# the corpus binds no immediate, and no memory operand to such a token
_OPERANDS = st.one_of(
    st.builds(RegOperand, st.sampled_from(GP)), st.builds(ImmOperand, _IMMEDIATES), _MEMORY
)
# bits above 32 in every register: a token read must mask them away
_HIGH_BITS = st.sampled_from((0, 1 << 32, 0xFFFF_FFFF << 32))


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_compiled_once_matches_substituted(runs, data):
    assert len(runs) == 63
    high = data.draw(_HIGH_BITS, label="high")
    for run in runs:
        mapping = dict(data.draw(st.sampled_from(run.assignments)).mapping)
        if data.draw(st.booleans(), label="any operands"):
            for p in run.tokens:
                mapping[p] = data.draw(_MEMORY if p in run.addressed else _OPERANDS)
        assignment = TokenAssignment(mapping)
        rng = random.Random(data.draw(st.integers(0, 2**32)))
        binding = bind_assignment(run.fi, assignment, rng, CFG, run.anchors)
        if binding is None:
            continue
        state = random_state(rng, CFG, binding, run.fi)
        for r in GP:
            state.regs[r] |= high

        def substituted(s):
            return exec_program(compile_program(substitute(run.prog, mapping)), s, BUDGET)

        def bound(s):
            s.operands = run.operands(assignment)
            return exec_program(run.code, s, BUDGET)

        want = _outcome(substituted, state.copy())
        listing = [format_instr(ins) for ins in run.prog.instrs]
        assert _outcome(bound, state.copy()) == want, (listing, mapping)


def test_uncovered_token_raises_before_running():
    """Even a token in a branch never taken: the whole program's tokens
    are checked before the first step."""
    src = (
        "int f(int x, int y) {\n"
        '  asm ("testl %0, %0; jz 1f; movl %1, %0; 1:" : "+r" (x) : "r" (y) : "cc");\n'
        "}\n"
    )
    (chunk,), _ = extract_chunks(src, "f.c")
    run1 = OracleRun(check_chunk(chunk), CFG)
    assert run1.tokens == [0, 1]
    state = oracle.MachineState(CFG.sandbox_size)
    state.regs["eax"] = 0  # %0 = 0: the branch skips the read of %1
    before = dict(state.regs)
    with pytest.raises(MissingToken, match="%1 not covered"):
        run1.run_one(TokenAssignment({0: RegOperand("eax")}), state)
    assert state.regs == before and run1.steps_left == oracle.STEP_BUDGET
    with pytest.raises(MissingToken, match="%0 bound to an immediate is written"):
        run1.run_one(TokenAssignment({0: ImmOperand(1), 1: RegOperand("ebx")}), state)


@pytest.mark.parametrize("trials", ["20", "100"])
def test_oracle_compiles_each_runnable_chunk_once(runs, monkeypatch, tmp_path, trials):
    compiled = []

    def counted(prog):
        compiled.append(prog)
        return compile_program(prog)

    monkeypatch.setattr(oracle, "compile_program", counted)
    # one worker: the calls of a forked worker never reach `compiled`
    monkeypatch.setattr(pool, "workers", lambda count: 1)
    out = tmp_path / "oracle.json"
    args = ["oracle", "--chunks", "corpus/corpus.json", "--trials", trials, "--out", str(out)]
    assert run(args) == 1
    assert len(compiled) == len(runs) == 63
    assert len({id(p) for p in compiled}) == 63
