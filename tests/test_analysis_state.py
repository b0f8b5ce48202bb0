"""One analysis state: the forward pass is the only address evaluator,
and `ric oracle` runs on the checker's result."""

import collections
import json
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ric import checker, constraints, lift, pool, report
from ric.checker import ForwardPass, Havoc, Region, check_chunk, init_read, make_classifier
from ric.chunks import load_chunk_records
from ric.cli import run
from ric.expr import (
    Assign,
    BinOp,
    Branch,
    Cast,
    Const,
    Expr,
    Extract,
    Flag,
    Ite,
    Load,
    ReadLoc,
    Reg,
    StoreLhs,
    Token,
    TokenAddr,
    UnOp,
    _to_signed,
    format_loc,
    mk_binop,
    mk_cast,
    mk_extract,
    mk_ite,
    mk_unop,
)
from ric.value import fields

CORPUS = Path(__file__).resolve().parent.parent / "corpus" / "corpus.json"

# Memory accesses at points whose in-state is not the one the forward
# pass first met: loop heads, where the back edge joins a new state in,
# and points no path reaches.
BRANCHY = load_chunk_records(
    [
        {
            "template": "1: movl $0,(%1); addl $4,%1; decl %2; jnz 1b",
            "outputs": [
                {"constraint": "+m", "expr_text": "*p"},
                {"constraint": "+D", "expr_text": "p"},
                {"constraint": "+c", "expr_text": "n"},
            ],
            "clobbers": ["cc"],
        },
        {
            "template": "1: movl (%1),%%eax; addl %%eax,%0; addl $4,%1; decl %2; jnz 1b",
            "outputs": [
                {"constraint": "+r", "expr_text": "s"},
                {"constraint": "+S", "expr_text": "p"},
                {"constraint": "+c", "expr_text": "n"},
            ],
            "clobbers": ["cc", "eax"],
        },
        {
            # the store is unreachable until the back edge reaches it
            "template": "jmp 2f; 1: movl $0,(%0); 2: addl $4,%0; decl %1; jnz 1b",
            "outputs": [
                {"constraint": "+r", "expr_text": "p"},
                {"constraint": "+r", "expr_text": "n"},
            ],
            "clobbers": ["cc", "memory"],
        },
        {
            "template": "jmp 1f; movl %1,(%0); 1: nop",
            "inputs": [
                {"constraint": "r", "expr_text": "p"},
                {"constraint": "r", "expr_text": "v"},
            ],
            "clobbers": ["memory"],
        },
    ]
)


def _reference_region(classify, state, addr, size):
    """The address evaluator the backward pass had of its own: addr
    evaluated against the forward in-state of its point, then
    classified; all of memory at a point the forward pass never
    reached."""
    if state is None:
        return Region("whole", None, 0, size)

    def ev(e):
        if isinstance(e, Const):
            return e
        if isinstance(e, ReadLoc):
            return state.get(e.loc, checker.init_read(e.loc))
        if isinstance(e, Load):
            return Load(ev(e.addr), e.size)
        if isinstance(e, UnOp):
            return mk_unop(e.op, ev(e.e))
        if isinstance(e, Cast):
            return mk_cast(e.kind, e.width, ev(e.e))
        if isinstance(e, Extract):
            return mk_extract(e.hi, e.lo, ev(e.e))
        if isinstance(e, BinOp):
            return mk_binop(e.op, ev(e.a), ev(e.b))
        if isinstance(e, Ite):
            return mk_ite(ev(e.c), ev(e.a), ev(e.b))
        return e

    return classify(ev(addr), size)


def _loads(e):
    if isinstance(e, Load):
        yield e
    for name in fields(e):
        child = getattr(e, name)
        if isinstance(child, Expr):
            yield from _loads(child)


def _accesses(ins):
    """(IR node, address) of every load and store of an instruction."""
    if isinstance(ins, Branch):
        return [(e, e.addr) for e in _loads(ins.cond)]
    if not isinstance(ins, Assign):
        return []
    out = [(e, e.addr) for e in _loads(ins.rhs)]
    if isinstance(ins.lhs, StoreLhs):
        out += [(e, e.addr) for e in _loads(ins.lhs.addr)]
        out.append((ins.lhs, ins.lhs.addr))
    return out


def test_recorded_regions_match_the_reference_evaluator(corpus_chunks):
    """Each access at a reached point has one record, with the region the
    reference evaluator finds from the point's final in-state; the
    events are those records in program order, so every event's region
    is the one `fwd.region` gives its node."""
    kinds = collections.Counter()
    for c in list(corpus_chunks) + BRANCHY:
        result = check_chunk(c)
        if result.prog is None:
            continue
        classify = make_classifier(result.fi, result.anchors)
        fwd = ForwardPass(result.prog, classify)
        fwd.run()
        reached = set()
        for i, ins in enumerate(result.prog.instrs):
            for node, addr in _accesses(ins):
                want = _reference_region(classify, fwd.in_states[i], addr, node.size)
                assert fwd.region(i, node) == want, (c.template, i, node)
                if fwd.in_states[i] is not None:
                    reached.add((i, node))
                kinds[want.kind] += 1
        assert set(fwd.accesses) == reached, c.template
        assert fwd.events == sorted(fwd.accesses.values(), key=lambda ev: ev.point)
        for (i, node), ev in fwd.accesses.items():
            assert ev.point == i and ev.region == fwd.region(i, node), (c.template, i, node)
    assert set(kinds) == {"cell", "stack", "tokptr", "whole"} and sum(kinds.values()) > 30


def _flattened_region(classify, addr, size):
    """The region of addr as found by flattening every sum in it and
    adding up its constants, which the classifier once did."""
    terms, c, todo = [], 0, [addr]
    while todo:
        x = todo.pop()
        if isinstance(x, Const):
            c += _to_signed(x.value, x.width)
        elif isinstance(x, BinOp) and x.op == "add":
            todo += [x.a, x.b]
        else:
            terms.append(x)
    if len(terms) != 1:
        return Region("whole", None, 0, size)
    return classify(BinOp("add", terms[0], Const(c, 32)) if c else terms[0], size)


# eax is pinned to a token, so a sum over it may name a pointer region
_PINNED = constraints.derive_interface(
    load_chunk_records([{"template": "", "inputs": [{"constraint": "a", "expr_text": "q"}]}])[0]
)
_BASES = st.sampled_from(
    [TokenAddr(0), Token(1, 32), Reg("esp", 32), Reg("eax", 32), Reg("ebx", 32)]
).map(ReadLoc)


@st.composite
def _sums(draw):
    """One or two base reads and a few constants, joined by add and sub
    in a random order and grouping."""
    leaves = [draw(_BASES)] + draw(
        st.lists(st.integers(-(2**31), 2**31 - 1).map(lambda v: Const(v, 32)), max_size=4)
    )
    if draw(st.booleans()):
        leaves.append(draw(_BASES))
    leaves = draw(st.permutations(leaves))
    while len(leaves) > 1:
        i = draw(st.integers(0, len(leaves) - 2))
        leaves[i : i + 2] = [BinOp(draw(st.sampled_from(["add", "sub"])), *leaves[i : i + 2])]
    return leaves[0]


@settings(max_examples=400, deadline=None)
@given(_sums(), st.sampled_from([1, 2, 4, 8]))
def test_sums_built_by_mk_binop_classify_as_flattened(addr, size):
    """mk_binop keeps a sum's constants in one right operand, so the
    classifier needs no flattening."""
    classify = make_classifier(_PINNED, ())
    want = _reference_region(
        lambda a, n: _flattened_region(classify, a, n), {}, addr, size
    )
    assert _reference_region(classify, {}, addr, size) == want


def test_back_edge_targets_read_the_joined_state():
    """At a loop head the one record of an access comes from the
    in-state joined along the back edge, and a store first reached along
    a back edge has its record too."""
    result = check_chunk(BRANCHY[0])
    store = result.prog.instrs[0].lhs
    fwd = ForwardPass(result.prog, make_classifier(result.fi, result.anchors))
    fwd.run()
    assert fwd.region(0, store) == Region("whole", None, 0, 4)
    assert [ev.region for ev in fwd.events if ev.point == 0] == [Region("whole", None, 0, 4)]
    assert fwd.events == result.mem_events
    reached_late = check_chunk(BRANCHY[2])
    assert [(ev.kind, ev.region) for ev in reached_late.mem_events] == [
        ("store", Region("whole", None, 0, 4))
    ]


def _chunk(template, outputs=(), inputs=()):
    return load_chunk_records(
        [
            {
                "template": template,
                "outputs": [{"constraint": c, "expr_text": e} for c, e in outputs],
                "inputs": [{"constraint": c, "expr_text": e} for c, e in inputs],
            }
        ]
    )[0]


# findings no corpus chunk reaches, one per kind of memory place; each
# reads as it did when regions were tuples
MEMORY_FINDINGS = {
    # two stores to one cell are two regions, and one finding
    "cell byte then word": (
        _chunk("movb $1, %b0; movl $2, %0", inputs=[("m", "*q")]),
        [("ReadOnlyInputClobbered", "%0", 0, "memory entry %0 declared read-only is written")],
    ),
    "cell word then byte": (
        _chunk("movl $2, %0; movb $1, %b0", inputs=[("m", "*q")]),
        [("ReadOnlyInputClobbered", "%0", 0, "memory entry %0 declared read-only is written")],
    ),
    "stack write": (
        _chunk("pushl %0", inputs=[("r", "x")]),
        [
            ("UnboundRegisterClobbered", "esp", 0, "register esp is written"),
            ("UnboundMemoryWrite", "memory", 1, 'stack write at esp-4 without "memory"'),
        ],
    ),
    "store through a pointer token": (
        _chunk("movl $1, (%0)", inputs=[("r", "p")]),
        [("UnboundMemoryWrite", "memory", 0, 'store through %0+0 without "memory"')],
    ),
    # a byte below or past the bytes an anchored entry names is outside them
    "store below an anchored output": (
        _chunk("movl %1, 3(%2)", outputs=[("=m", "*(p + 4)")], inputs=[("r", "y"), ("r", "p")]),
        [
            ("UnboundMemoryRead", "%0", 0, "write-only memory entry %0 read at entry"),
            ("UnboundMemoryWrite", "memory", 1, 'store through %2+3 without "memory"'),
            ("NonWrittenWriteOnlyOutput", "%0", 2, "output %0 is never written"),
        ],
    ),
    # bytes an anchored input names are its cell, however they are reached
    "store through an anchored input's pointer": (
        _chunk("movl $1, (%0)", inputs=[("r", "p"), ("m", "*p")]),
        [("ReadOnlyInputClobbered", "%1", 0, "memory entry %1 declared read-only is written")],
    ),
    "load past an anchored input": (
        _chunk("movl 5(%1), %0", outputs=[("=r", "x")], inputs=[("r", "p"), ("m", "*(p + 4)")]),
        [("UnboundMemoryRead", "memory", 0, 'load through %1+5 without "memory" or m-entry')],
    ),
    "unplaced store": (
        _chunk("movl $1, (%0,%1)", inputs=[("r", "p"), ("r", "i")]),
        [("UnboundMemoryWrite", "memory", 1, 'memory written without "memory" clobber')],
    ),
    # the byte store overlaps the saved word, so the pop reads no
    # known value and ebx is not restored
    "stack slot partly overwritten": (
        _chunk("pushl %%ebx; movb $0, 3(%%esp); popl %%ebx"),
        [("UnboundRegisterClobbered", "ebx", 6, "register ebx is written")],
    ),
    "never-written stack slot": (
        _chunk("movl -4(%%esp), %0", outputs=[("=r", "x")]),
        [("UnboundMemoryRead", "memory", 0, "read of never-written stack slot esp-4")],
    ),
}


@pytest.mark.parametrize("name", sorted(MEMORY_FINDINGS))
def test_memory_findings_are_pinned(name):
    c, want = MEMORY_FINDINGS[name]
    result = check_chunk(c)
    got = [(i.category, format_loc(i.location), i.point, i.details) for i in result.issues]
    assert got == want


def test_every_memory_place_is_a_region(corpus_results):
    probes = [check_chunk(c) for c, _ in MEMORY_FINDINGS.values()]
    kinds = set()
    for result in list(corpus_results.values()) + probes:
        places = [ev.region for ev in result.mem_events] + list(result.entry_regions)
        places += [loc for loc in result.writes if not isinstance(loc, (Reg, Flag, Token))]
        assert all(isinstance(r, Region) for r in places), result.chunk.template
        kinds |= {r.kind for r in places}
    assert kinds == {"cell", "stack", "tokptr", "whole"}


def _havoc_tags(state):
    return {
        v.loc.tag for v in state.values() if isinstance(v, ReadLoc) and isinstance(v.loc, Havoc)
    }


def test_merge_point_and_exit_join_alike():
    """The exit state is the in-state of the lifter's one Halt, joined
    there as at any merge point: a location the incoming states disagree
    on becomes a havoc tagged ("join", point, its name)."""
    c = load_chunk_records(
        [
            {
                "template": "testl %1, %1; jz 1f; movl $1, %0; 1: addl $2, %0",
                "outputs": [{"constraint": "+r", "expr_text": "x"}],
                "inputs": [{"constraint": "r", "expr_text": "y"}],
                "clobbers": ["cc"],
            }
        ]
    )[0]
    result = check_chunk(c)
    fwd = ForwardPass(result.prog, make_classifier(result.fi, result.anchors))
    fwd.run()
    label = next(i for i, state in enumerate(fwd.in_states) if _havoc_tags(state))
    assert _havoc_tags(fwd.in_states[label]) == {("join", label, "%0")}
    assert fwd.exit_state is fwd.in_states[-1]


class _Counted(ForwardPass):
    """A forward pass that counts its steps at each point."""

    def __init__(self, prog, classify):
        super().__init__(prog, classify)
        self.steps = collections.Counter()

    def step(self, i, state, mem):
        self.steps[i] += 1
        return super().step(i, state, mem)


def _counted(c):
    """The counted forward pass of c; None if c does not lift."""
    result = check_chunk(c)
    if result.prog is None:
        return None
    fwd = _Counted(result.prog, make_classifier(result.fi, result.anchors))
    fwd.run()
    return fwd


def _has_back_edge(prog):
    return any(s <= i for i in range(len(prog.instrs)) for s in prog.successors(i))


# two nested loops, each with a push, a store through a pointer and a
# register swap, so registers, stack slots and memory all change per trip
NESTED = load_chunk_records(
    [
        {
            "template": "2: movl %2, %%ecx; 1: pushl %%ecx; addl %%ecx, (%0); "
            "movl (%%esp), %%eax; xchgl %%eax, %%ebx; decl %%ecx; jnz 1b; "
            "decl %1; jnz 2b; movl (%0,%%eax,4), %%edx",
            "outputs": [
                {"constraint": "+r", "expr_text": "p"},
                {"constraint": "+r", "expr_text": "n"},
            ],
            "inputs": [{"constraint": "r", "expr_text": "m"}],
            "clobbers": ["cc", "eax", "ebx", "ecx", "edx", "memory"],
        }
    ]
)[0]


def test_forward_pass_steps_to_a_fixpoint(corpus_chunks):
    """Loop-free code steps each reached point once; loops step again
    until no in-state changes, which a deterministic havoc per join point
    and location makes happen within a few trips."""
    loop_free = 0
    for c in corpus_chunks:
        fwd = _counted(c)
        if fwd is None or _has_back_edge(fwd.prog):
            continue
        reached = {i for i, state in enumerate(fwd.in_states) if state is not None}
        assert fwd.steps == dict.fromkeys(reached, 1), c.template
        loop_free += 1
    assert loop_free >= 60
    for c in [NESTED] + BRANCHY[:3]:
        fwd = _counted(c)
        assert _has_back_edge(fwd.prog)
        # NESTED takes 96 steps for its 37 IR instructions
        assert sum(fwd.steps.values()) <= 3 * len(fwd.prog.instrs), c.template
        # a fixpoint: stepping any reached point again changes no in-state
        for i, state in enumerate(fwd.in_states):
            if state is not None:
                out = fwd.step(i, state, fwd.in_mems[i])
                assert not any(fwd.merge(s, *out) for s in fwd.prog.successors(i)), (c.template, i)
    # joining the same two states twice at one point gives the same
    # havoc node, and a location one side lacks reads its entry value
    eax, ebx, ecx = (Reg(name, 32) for name in ("eax", "ebx", "ecx"))
    a, b = {eax: Const(1, 32), ebx: Const(2, 32), ecx: init_read(ecx)}, {eax: Const(1, 32)}
    joined = fwd.join(a, b, ("join", 5))
    assert joined[eax] == Const(1, 32) and joined[ecx] == init_read(ecx)
    assert _havoc_tags(joined) == {("join", 5, "ebx")}
    assert fwd.join(a, b, ("join", 5))[ebx] is joined[ebx]


def test_no_address_is_evaluated_after_the_forward_pass(corpus_chunks, monkeypatch):
    finished = []
    run_pass, evaluate = ForwardPass.run, ForwardPass.eval
    make = checker.make_classifier

    def watched_run(self):
        finished.clear()
        run_pass(self)
        finished.append(self)

    def watched_eval(self, *args):
        assert not finished, "an expression was evaluated after the forward pass"
        return evaluate(self, *args)

    def watched_classifier(fi, anchors):
        classify = make(fi, anchors)

        def call(addr, size):
            assert not finished, "an address was classified after the forward pass"
            return classify(addr, size)

        return call

    monkeypatch.setattr(ForwardPass, "run", watched_run)
    monkeypatch.setattr(ForwardPass, "eval", watched_eval)
    monkeypatch.setattr(checker, "make_classifier", watched_classifier)
    for c in list(corpus_chunks) + BRANCHY:
        check_chunk(c)


def test_oracle_derives_parses_and_lifts_once_per_chunk(corpus_chunks, monkeypatch, tmp_path):
    """`ric oracle` checks each chunk once and runs the oracle on that
    result; pattern tags read the result's parse."""
    derived = collections.Counter()  # chunk id -> derive_interface calls
    calls = collections.Counter()
    tagging = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            if name == "parse_template" and tagging:
                calls["parse_template in classify_pattern"] += 1
            if name == "derive_interface":
                derived[args[0].span.file] += 1
            return fn(*args, **kwargs)

        return wrapper

    targets = {
        "derive_interface": constraints.derive_interface,
        "parse_template": lift.parse_template,
        "lift": lift.lift,
        "build_anchors": checker.build_anchors,
    }
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "ric"]
    for module in modules:
        for name, fn in targets.items():
            if getattr(module, name, None) is fn:
                monkeypatch.setattr(module, name, counted(name, fn))
    classify_pattern = report.classify_pattern

    def tagged(issue, result):
        tagging.append(issue)
        try:
            return classify_pattern(issue, result)
        finally:
            tagging.pop()

    monkeypatch.setattr(report, "classify_pattern", tagged)
    # one worker: the calls of a forked worker never reach these counters
    monkeypatch.setattr(pool, "workers", lambda count: 1)
    out = tmp_path / "oracle.json"
    run(["oracle", "--chunks", str(CORPUS), "--trials", "1", "--out", str(out)])

    n = len(corpus_chunks)
    assert len(derived) == n and set(derived.values()) == {1}
    for name in ("parse_template", "lift", "build_anchors"):
        assert 0 < calls[name] <= n, name
    assert calls["parse_template in classify_pattern"] == 0
    assert '"P3"' in out.read_text()  # a stack issue got its tag


def test_patch_and_refine_read_the_check_result(monkeypatch, tmp_path):
    """In `ric patch` and `ric refine`, every interface is derived and
    every anchor built by the checker's analysis; the patcher and the
    refiner read the check result instead of deriving it again."""
    from ric import patcher, refiner  # so their bindings are wrapped too

    sys.path.insert(0, str(CORPUS.parent.parent / "perfbench"))
    try:
        import gen
    finally:
        sys.path.remove(str(CORPUS.parent.parent / "perfbench"))
    source = tmp_path / "big.c"
    source.write_text(gen.generate(json.loads(CORPUS.read_text()), 300, 0).text)

    analyze = checker._analyze.__code__
    callers = collections.Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            code = sys._getframe(1).f_code
            callers[name, "_analyze" if code is analyze else code.co_name] += 1
            return fn(*args, **kwargs)

        return wrapper

    targets = {
        "derive_interface": constraints.derive_interface,
        "build_anchors": checker.build_anchors,
    }
    for module in (checker, constraints, patcher, refiner):
        for name, fn in targets.items():
            if getattr(module, name, None) is fn:
                monkeypatch.setattr(module, name, counted(name, fn))
    out = str(tmp_path / "report.json")
    for args in (
        ["patch", "--chunks", str(CORPUS)],
        ["refine", "--chunks", str(CORPUS)],
        ["patch", "--in-place", str(source)],
        ["refine", "--in-place", str(source)],
    ):
        run([*args, "--out", out])
    assert set(callers) == {("derive_interface", "_analyze"), ("build_anchors", "_analyze")}
