"""One analysis state: the forward pass is the only address evaluator,
and `ric oracle` runs on the checker's result."""

import collections
import json
import sys
from pathlib import Path

from ric import checker, constraints, lift, report, template
from ric.checker import ForwardPass, Havoc, check_chunk, init_read, make_classifier
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
    Ite,
    Load,
    ReadLoc,
    Reg,
    StoreLhs,
    UnOp,
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


def _reference_region(classify, state, addr):
    """The address evaluator the backward pass had of its own: addr
    evaluated against the forward in-state of its point, then
    classified; ("whole",) at a point the forward pass never reached."""
    if state is None:
        return ("whole",)

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

    return classify(ev(addr))


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
    kinds = collections.Counter()
    for c in list(corpus_chunks) + BRANCHY:
        result = check_chunk(c)
        if result.prog is None:
            continue
        classify = make_classifier(result.fi)
        fwd = ForwardPass(result.prog, classify)
        fwd.run()
        for i, ins in enumerate(result.prog.instrs):
            for node, addr in _accesses(ins):
                want = _reference_region(classify, fwd.in_states[i], addr)
                assert fwd.region(i, node) == want, (c.template, i, node)
                kinds[want[0]] += 1
    assert set(kinds) == {"cell", "stack", "tokptr", "whole"} and sum(kinds.values()) > 30


def test_back_edge_targets_read_the_joined_state():
    """At a loop head the recorded region comes from the in-state joined
    along the back edge, while the events keep the first pass."""
    result = check_chunk(BRANCHY[0])
    store = result.prog.instrs[0].lhs
    fwd = ForwardPass(result.prog, make_classifier(result.fi))
    fwd.run()
    assert fwd.region(0, store) == ("whole",)
    assert [ev.region for ev in fwd.events if ev.point == 0] == [("tokptr", 1, 0)]
    assert fwd.events == result.mem_events
    # a store first reached along a back edge has a region but no event
    reached_late = check_chunk(BRANCHY[2])
    assert reached_late.mem_events == []


def _havoc_tags(state):
    return {
        v.loc.tag[0] for v in state.values() if isinstance(v, ReadLoc) and isinstance(v.loc, Havoc)
    }


def test_merge_point_and_exit_join_alike():
    """A merge point and the exit join states the same way: a location
    the two disagree on becomes a havoc tagged with the join's tag and
    its name, and a location one side lacks reads its entry value."""
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
    fwd = ForwardPass(result.prog, make_classifier(result.fi))
    fwd.run()
    label = next(i for i, state in enumerate(fwd.in_states) if _havoc_tags(state))
    assert _havoc_tags(fwd.in_states[label]) == {("join", label, "%0")}
    eax, ebx, ecx = (Reg(name, 32) for name in ("eax", "ebx", "ecx"))
    joined = fwd.join(
        {eax: Const(1, 32), ebx: Const(2, 32), ecx: init_read(ecx)}, {eax: Const(1, 32)}, ("exit",)
    )
    assert joined[eax] == Const(1, 32) and joined[ecx] == init_read(ecx)
    assert _havoc_tags(joined) == {("exit", "ebx")}


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

    def watched_classifier(fi):
        classify = make(fi)

        def call(addr):
            assert not finished, "an address was classified after the forward pass"
            return classify(addr)

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
                derived[args[0].context.file] += 1
            return fn(*args, **kwargs)

        return wrapper

    targets = {
        "derive_interface": constraints.derive_interface,
        "parse_template": template.parse_template,
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
