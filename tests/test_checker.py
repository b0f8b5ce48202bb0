"""Compliance checker: findings, the two precision optimizations, and
corpus-label agreement."""

import time

import pytest

from ric.checker import CheckOptions, check_chunk
from ric.chunks import load_chunk_records
from ric.constraints import derive_interface
from ric.edits import DropMemoryKeyword
from ric.expr import BinOp, ReadLoc, Reg, Token, _same_graph, clear_nodes, mk_binop
from ric.oracle import TrialConfig, oracle_check
from ric.refiner import refine_interface
from ric.report import classify_pattern, severity_policy

from conftest import chunks_with_tag


def chunk(template, outputs=(), inputs=(), clobbers=()):
    return load_chunk_records(
        [
            {
                "template": template,
                "outputs": [
                    {"constraint": c, "expr_text": e, "size_bytes": s}
                    for c, e, s in outputs
                ],
                "inputs": [
                    {"constraint": c, "expr_text": e, "size_bytes": s}
                    for c, e, s in inputs
                ],
                "clobbers": list(clobbers),
            }
        ]
    )[0]


def findings(result):
    out = []
    for i in result.issues:
        tag = classify_pattern(i, result)
        out.append((i.category, severity_policy(i), tag.tag if tag else None))
    return sorted(out, key=lambda t: (t[0], t[1], t[2] or ""))


# ---------------------------------------------------------------------------
# Motivating example


def test_motivating_example_findings(corpus_by_id):
    result = check_chunk(corpus_by_id["paper/cas8_x86.c"])
    assert result.verdict == "issues"
    cats = sorted(i.category for i in result.issues)
    assert cats == ["FlagClobbered", "ReadOnlyInputClobbered", "Unicity"]
    roc = next(i for i in result.issues if i.category == "ReadOnlyInputClobbered")
    assert isinstance(roc.location, Reg) and roc.location.name == "edx"
    uni = next(i for i in result.issues if i.category == "Unicity")
    assert "ebx" in f"{uni.location} {uni.details}"
    # the saved/restored scratch registers raise no frame-write alarm
    for i in result.issues:
        if i.category in ("UnboundRegisterClobbered", "ReadOnlyInputClobbered"):
            assert getattr(i.location, "name", None) not in ("ebx", "esi", "edi")


def test_motivating_example_interface(corpus_by_id):
    fi = derive_interface(corpus_by_id["paper/cas8_x86.c"])
    assert fi.b_o == frozenset({0, 1})
    assert fi.b_i == frozenset({2, 3, 5, 6})
    assert fi.unified == {4: 1}
    assert fi.s_c == frozenset()
    assert fi.f is False
    assert fi.fixed == {1: "eax", 3: "edx", 4: "eax", 5: "ecx", 6: "edi"}


# ---------------------------------------------------------------------------
# Corpus-label agreement (taxonomy + severity + patterns)


def test_corpus_labels_match(corpus_chunks, corpus_labels):
    for c in corpus_chunks:
        label = corpus_labels[c.context.file]
        result = check_chunk(c)
        assert result.verdict == label["verdict"], c.context.file
        want = sorted(
            ((i["category"], i["severity"], i["pattern"]) for i in label["issues"]),
            key=lambda t: (t[0], t[1], t[2] or ""),
        )
        assert findings(result) == want, c.context.file


def test_corpus_covers_all_categories_and_patterns(corpus_labels):
    cats = set()
    pats = set()
    for label in corpus_labels.values():
        for i in label["issues"]:
            cats.add(i["category"])
            if i["pattern"]:
                pats.add(i["pattern"])
    assert cats == {
        "FlagClobbered",
        "ReadOnlyInputClobbered",
        "UnboundRegisterClobbered",
        "UnboundMemoryWrite",
        "UnboundMemoryRead",
        "NonWrittenWriteOnlyOutput",
        "UnboundRegisterRead",
        "Unicity",
    }
    assert pats == {"P1", "P2", "P3", "P4", "P5", "P6"}


def test_severity_is_benign_iff_flags(corpus_chunks):
    for c in corpus_chunks:
        for i in check_chunk(c).issues:
            assert (severity_policy(i) == "benign") == (i.category == "FlagClobbered")


# ---------------------------------------------------------------------------
# Optimization ablation


NO_PROP = CheckOptions(expression_propagation=False)
NO_BITS = CheckOptions(bit_liveness=False)


def test_restore_idioms_need_propagation(corpus_by_id, corpus_labels):
    suite = chunks_with_tag(corpus_by_id, corpus_labels, "restore-idiom")
    assert len(suite) >= 5
    for c in suite:
        assert check_chunk(c).verdict == "compliant", c.context.file
        coarse = check_chunk(c, NO_PROP)
        frame_write_cats = {"ReadOnlyInputClobbered", "UnboundRegisterClobbered"}
        assert any(i.category in frame_write_cats for i in coarse.issues), c.context.file


def test_subregister_writes_need_bit_liveness(corpus_by_id, corpus_labels):
    suite = chunks_with_tag(corpus_by_id, corpus_labels, "subregister")
    assert len(suite) >= 5
    for c in suite:
        assert check_chunk(c).verdict == "compliant", c.context.file
        coarse = check_chunk(c, NO_BITS)
        frame_read_cats = {"UnboundRegisterRead", "UnboundMemoryRead"}
        assert any(i.category in frame_read_cats for i in coarse.issues), c.context.file


def test_optimizations_only_remove_alarms(corpus_chunks):
    """Disabling either optimization never removes a finding."""
    for c in corpus_chunks:
        precise = check_chunk(c)
        if precise.verdict in ("error", "out_of_scope"):
            continue
        precise_keys = {(i.category, str(i.location)) for i in precise.issues}
        for opts in (NO_PROP, NO_BITS):
            coarse = check_chunk(c, opts)
            coarse_keys = {(i.category, str(i.location)) for i in coarse.issues}
            assert precise_keys <= coarse_keys, c.context.file


# ---------------------------------------------------------------------------
# Specific behaviors


def test_issue_dedup():
    # edx written at two points: one finding
    c = chunk("movl %0, %%edx\naddl %0, %%edx", [], [("r", "x", 4)], ["cc"])
    result = check_chunk(c)
    locs = [
        (i.category, str(i.location))
        for i in result.issues
        if i.category == "UnboundRegisterClobbered"
    ]
    assert len(locs) == 1


def test_stack_scratch_exempt_when_esp_restored():
    c = chunk("pushl %1\npopl %0", [("=r", "y", 4)], [("r", "x", 4)])
    assert check_chunk(c).verdict == "compliant"


@pytest.mark.parametrize("clobbers", [[], ["memory"]])
def test_saved_register_is_not_read_with_or_without_memory(clobbers):
    """A register saved on the stack and restored is not an input, even
    when "memory" makes all of memory live at exit: with esp restored, a
    stack slot is demanded only by a later load of the slot itself."""
    c = chunk(
        "pushl %%ebx; movl %1, %%ebx; movl %%ebx, %0; popl %%ebx",
        [("=a", "x", 4)],
        [("r", "y", 4)],
        clobbers,
    )
    result = check_chunk(c)
    assert result.verdict == "compliant", result.issues
    for prop in ("frame_write", "frame_read", "unicity"):
        v = oracle_check(c, prop, TrialConfig(trials=50, seed=0))
        assert v.verdict == "pass", (prop, v.reason)
    want = [DropMemoryKeyword()] if clobbers else []
    assert refine_interface(result).edits == want


@pytest.mark.parametrize(
    "template, outputs, inputs",
    [
        ("addl $1,%0; addl $2,%1", [("+r", "a", 4), ("+r", "b", 4)], []),
        ("addl $1,%0; addl $2,%1", [("+r", "a", 4), ("+c", "b", 4)], []),
        ("subl $1,%0; sbbl $0,%1", [("+r", "a", 4), ("+r", "b", 4)], []),
        ("movl $2, %1; addl %2, %0", [("=r", "a", 4), ("=c", "b", 4)], [("0", "x", 4)]),
    ],
    ids=["two-r", "r-and-c", "sub-sbb", "matched-input"],
)
def test_two_outputs_are_never_one_register(template, outputs, inputs):
    """Writing one output cannot affect another, or an input matched to
    another: GCC gives distinct outputs distinct registers, as the
    oracle's assignments do."""
    c = chunk(template, outputs, inputs, ["cc"])
    assert check_chunk(c).verdict == "compliant"
    for prop in ("frame_write", "frame_read", "unicity"):
        v = oracle_check(c, prop, TrialConfig(trials=200, seed=0))
        assert v.verdict == "pass", (prop, v.reason)


@pytest.mark.parametrize("constraint", ["+m", "+rm"])
def test_register_output_may_share_a_memory_outputs_address(constraint):
    """A memory output's address may use any register, an output's too:
    writing that output first moves the address, as the oracle sees. An
    output that may be a register or memory is paired the same way."""
    c = chunk("movl $0, %0; addl $1, %1", [("=r", "x", 4), (constraint, "*p", 4)], [], ["cc"])
    assert [(i.category, i.location) for i in check_chunk(c).issues] == [
        ("Unicity", Token(0, 32))
    ]
    assert oracle_check(c, "unicity", TrialConfig(trials=100, seed=0)).verdict == "violation"


@pytest.mark.parametrize("clobbers", [[], ["memory"]], ids=["", "memory"])
@pytest.mark.parametrize(
    "template, inputs",
    [
        # an index off esp: the load's address is not classified, so it
        # may read the saved slot (with %1 == 0, %0 is ebx's entry value)
        ("pushl %%ebx; movl (%%esp,%1), %0; popl %%ebx", [("r", "i", 4)]),
        # a narrower reload of the saved slot
        ("pushl %%ebx; movb (%%esp), %0; popl %%ebx", []),
        ("pushl %%ebx; movb 1(%%esp), %0; popl %%ebx", []),
    ],
    ids=["index-off-esp", "low-byte", "second-byte"],
)
def test_reloaded_saved_register_is_read(template, inputs, clobbers):
    """A stack slot below a restored esp is demanded by any later load
    that may read it, so reloading a saved register reads its entry
    value, with or without "memory"; the push wrote the reloaded bytes,
    so they are no read of a never-written slot."""
    c = chunk(template, [("=q", "x", 4)], inputs, clobbers)
    result = check_chunk(c)
    assert any(
        i.category == "UnboundRegisterRead" and getattr(i.location, "name", "") == "ebx"
        for i in result.issues
    ), result.issues
    assert not any("never-written stack slot" in i.details for i in result.issues)


def test_push_without_pop_flags_esp():
    c = chunk("pushl %0", [], [("r", "x", 4)])
    result = check_chunk(c)
    assert result.verdict == "issues"
    assert any(
        i.category == "UnboundRegisterClobbered"
        and getattr(i.location, "name", "") == "esp"
        for i in result.issues
    )


def test_anchored_output_written_through_pointer():
    c = chunk(
        "movl %1, (%2)\nmovl %1, 4(%2)",
        [("=m", "*(dst)", 8)],
        [("r", "v", 4), ("r", "dst", 4)],
    )
    assert check_chunk(c).verdict == "compliant"


def test_anchored_output_not_covered_still_flags():
    c = chunk(
        "movl %1, 4(%2)",
        [("=m", "*(dst)", 4)],
        [("r", "v", 4), ("r", "dst", 4)],
    )
    result = check_chunk(c)
    cats = {i.category for i in result.issues}
    assert "NonWrittenWriteOnlyOutput" in cats
    assert "UnboundMemoryWrite" in cats  # the store lands outside the entry


def test_anchored_input_allows_loads():
    c = chunk(
        "movl (%1), %0",
        [("=r", "v", 4)],
        [("r", "p", 4), ("m", "*(p)", 4)],
    )
    assert check_chunk(c).verdict == "compliant"


def test_benign_only_is_still_issues_verdict():
    c = chunk("addl %1, %0", [("+r", "x", 4)], [("r", "y", 4)])
    result = check_chunk(c)
    assert result.verdict == "issues"
    assert all(i.category == "FlagClobbered" for i in result.issues)


def _leas(reg, n):
    return "; ".join([f"leal ({reg},{reg}), {reg}"] * n)


@pytest.mark.parametrize(
    "c",
    [
        chunk(_leas("%0", 40), [("+r", "x", 4)]),
        chunk(
            "\n".join(["leal (%0,%1), %0", "leal (%0,%1), %1"] * 20),
            [("+r", "x", 4), ("+r", "y", 4)],
        ),
        chunk(_leas("%0", 600), [("+r", "x", 4)]),
        chunk(_leas("%0", 5000), [("+r", "x", 4)]),
        # the two arms build equal values, which the join compares
        chunk(
            f"testl %1,%1; jz 1f; {_leas('%0', 24)}; jmp 2f; 1: {_leas('%0', 24)}; 2:",
            [("+r", "x", 4)],
            [("r", "y", 4)],
            ["cc"],
        ),
        # the load's address is a sum with 2**24 paths to its leaves
        chunk(
            f"{_leas('%1', 24)}; movl (%1), %0",
            [("=r", "x", 4), ("+r", "p", 4)],
            clobbers=["memory"],
        ),
    ],
    ids=[
        "one-register-40",
        "two-registers-40",
        "one-register-600",
        "one-register-5000",
        "join-24",
        "address-24",
    ],
)
def test_chained_leas_check_in_linear_time(c):
    # each lea makes a register the sum of values that share subtrees; a
    # width query, hash, comparison or address walk that visited every
    # path would visit about 2**24 nodes or more here, and one that took
    # a frame per operand level would run out of stack on 5 000 leas
    start = time.perf_counter()
    result = check_chunk(c)
    assert time.perf_counter() - start < 2.0
    assert result.verdict == "compliant"


def test_deep_shared_values_hash_and_compare_in_constant_time():
    def chain():
        e = ReadLoc(Reg("eax", 32))
        for _ in range(24):
            e = mk_binop("add", e, e)
        return e

    a, b = chain(), chain()
    start = time.perf_counter()
    assert hash(a) == hash(b)
    assert a == b
    assert time.perf_counter() - start < 1e-3


def test_equal_values_of_two_analyses_compare_in_linear_time():
    # equal nodes built on either side of clear_nodes() are two objects,
    # so == compares them field by field; a comparison that walked every
    # path of the shared sums would visit about 2**24 nodes here
    def chain(reg):
        e = ReadLoc(Reg(reg, 32))
        for _ in range(24):
            e = BinOp("add", e, e)
        return e

    a = chain("eax")
    clear_nodes()
    b, c = chain("eax"), chain("ebx")
    assert a is not b
    start = time.perf_counter()
    assert a == b
    assert time.perf_counter() - start < 1e-3
    # chains that differ in their one leaf differ, by hash and by fields
    assert a != c and not _same_graph(a, c)


def test_error_verdict_on_bad_token_reference():
    c = chunk("movl %5, %0", [("=r", "y", 4)])
    result = check_chunk(c)
    assert result.verdict == "error"
    assert result.details


def test_symbolic_displacement_is_an_error_naming_the_symbol():
    for operand, symbol in (
        ("foo(%%eax)", "foo"),
        ("foo+4(%%eax,%%ebx,4)", "foo"),
        (".Ltab+8", ".Ltab"),
    ):
        c = chunk(f"movl {operand}, %0", [("=r", "y", 4)], clobbers=["eax", "ebx"])
        result = check_chunk(c)
        assert result.verdict == "error", operand
        assert result.details == (
            f"template: symbolic displacement {symbol!r} in {operand!r}:"
            " global symbol addresses are out of scope"
        )
    # an operand with one % is no symbol
    c = chunk("movl %eax, %0", [("=r", "y", 4)])
    assert check_chunk(c).details == "template: malformed integer literal '%eax'"
    # integer displacements still parse
    c = chunk("movl 0x10(%1), %0", [("=r", "y", 4)], [("r", "p", 4)], clobbers=["memory"])
    assert check_chunk(c).verdict == "compliant"


def test_out_of_scope_verdict(corpus_by_id):
    result = check_chunk(corpus_by_id["oos/fld.c"])
    assert result.verdict == "out_of_scope"
    assert result.issues == []


def test_checker_is_deterministic(corpus_chunks):
    for c in corpus_chunks:
        a = check_chunk(c)
        b = check_chunk(c)
        assert a.verdict == b.verdict
        assert [
            (i.category, str(i.location), i.point, i.details) for i in a.issues
        ] == [(i.category, str(i.location), i.point, i.details) for i in b.issues]


def test_write_only_output_read_at_entry():
    c = chunk("addl %1, %0", [("=r", "y", 4)], [("r", "x", 4)], ["cc"])
    result = check_chunk(c)
    assert any(
        i.category == "UnboundRegisterRead" and isinstance(i.location, Token)
        for i in result.issues
    )
