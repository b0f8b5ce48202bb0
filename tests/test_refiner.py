"""Interface refinement: dead-entry drops, memory-to-entry rewrites, and the
guarded-acceptance invariant (every refinement re-checks compliant)."""

import pytest

from ric.checker import check_chunk
from ric.edits import (
    DropClobber,
    DropInput,
    DropMemoryKeyword,
    EntrySpan,
    MemoryToEntries,
)
from ric.refiner import refine_interface


def refine(chunk):
    return refine_interface(check_chunk(chunk))


def test_dead_input_dropped(corpus_by_id):
    c = corpus_by_id["refine/dead_input.c"]
    rr = refine(c)
    assert rr.edits == [DropInput(2)]
    assert [e.expr_text for e in rr.refined.inputs] == ["x"]
    assert check_chunk(rr.refined).verdict == "compliant"


def test_dead_clobber_dropped(corpus_by_id):
    rr = refine(corpus_by_id["refine/dead_clobber.c"])
    assert rr.edits == [DropClobber("edx")]
    assert rr.refined.clobbers == ()
    assert check_chunk(rr.refined).verdict == "compliant"


def test_dead_cc_clobber_dropped(corpus_by_id):
    rr = refine(corpus_by_id["refine/dead_cc.c"])
    assert rr.edits == [DropClobber("cc")]
    assert check_chunk(rr.refined).verdict == "compliant"


def test_live_entries_kept():
    # cc is really written and the input really read: nothing to drop
    from ric.chunks import load_chunk_records

    c = load_chunk_records(
        [
            {
                "template": "addl %1, %0",
                "outputs": [{"constraint": "+r", "expr_text": "x", "size_bytes": 4}],
                "inputs": [{"constraint": "r", "expr_text": "y", "size_bytes": 4}],
                "clobbers": ["cc"],
            }
        ]
    )[0]
    rr = refine(c)
    assert rr.edits == []


def test_memory_load_becomes_input_entry(corpus_by_id):
    rr = refine(corpus_by_id["refine/mem_load.c"])
    mte = next(e for e in rr.edits if isinstance(e, MemoryToEntries))
    assert mte.spans == (EntrySpan(base=1, mode="in", offset=0, length=8),)
    assert DropMemoryKeyword() in rr.edits
    assert "memory" not in rr.refined.clobbers
    added = rr.refined.inputs[-1]
    assert added.constraint == "m" and added.size_bytes == 8
    assert check_chunk(rr.refined).verdict == "compliant"


def test_memory_store_becomes_output_entry(corpus_by_id):
    rr = refine(corpus_by_id["refine/mem_store.c"])
    mte = next(e for e in rr.edits if isinstance(e, MemoryToEntries))
    (span,) = mte.spans
    assert span.mode == "out" and span.offset == 0 and span.length == 8
    assert "memory" not in rr.refined.clobbers
    added = rr.refined.outputs[-1]
    assert added.constraint == "=m"
    assert check_chunk(rr.refined).verdict == "compliant"


def test_memory_inout_becomes_plus_m(corpus_by_id):
    rr = refine(corpus_by_id["refine/mem_inout.c"])
    mte = next(e for e in rr.edits if isinstance(e, MemoryToEntries))
    (span,) = mte.spans
    assert span.mode == "inout" and span.length == 4
    added = rr.refined.outputs[-1]
    assert added.constraint == "+m"
    assert "memory" not in rr.refined.clobbers
    assert check_chunk(rr.refined).verdict == "compliant"


def test_undue_memory_clobber_dropped(corpus_by_id):
    rr = refine(corpus_by_id["refine/undue_memory.c"])
    assert rr.edits == [DropMemoryKeyword()]
    assert "memory" not in rr.refined.clobbers
    assert check_chunk(rr.refined).verdict == "compliant"


def test_non_compliant_chunk_fails(corpus_by_id):
    rr = refine(corpus_by_id["bad/flags.c"])
    assert rr.edits == [] and rr.refined is corpus_by_id["bad/flags.c"]


def test_guarded_acceptance_over_corpus(corpus_chunks, corpus_results):
    """Every accepted refinement leaves the chunk compliant, and no
    edits leave it as it is."""
    for c in corpus_chunks:
        result = corpus_results[c.span.file]
        if result.verdict != "compliant":
            continue
        rr = refine_interface(result)
        assert check_chunk(rr.refined).verdict == "compliant", c.span.file
        if not rr.edits:
            assert rr.refined is c or rr.refined == c


def test_refinement_is_deterministic(corpus_by_id):
    c = corpus_by_id["refine/mem_load.c"]
    a = refine(c)
    b = refine(c)
    assert [repr(e) for e in a.edits] == [repr(e) for e in b.edits]


def _chunk(template, outputs, inputs, clobbers):
    from ric.chunks import load_chunk_records

    return load_chunk_records(
        [
            {
                "template": template,
                "outputs": [{"constraint": c, "expr_text": e} for c, e in outputs],
                "inputs": [{"constraint": c, "expr_text": e} for c, e in inputs],
                "clobbers": clobbers,
            }
        ]
    )[0]


# what replaces "memory" follows the region of each memory event
MEMORY_EVENTS = {
    # the cell of an "m" entry is declared already
    "cell": (("movl $1, %0", [("=m", "*q")], []), [DropMemoryKeyword()]),
    # so are the bytes an anchored entry names, reached through its
    # pointer: no second entry names them
    "cell through an anchored input's pointer": (
        ("movl (%1), %0", [("=r", "x")], [("r", "p"), ("m", "*p")]),
        [DropMemoryKeyword()],
    ),
    "cell through an anchored output's pointer": (
        ("movl $1, (%1)", [("=m", "*p")], [("r", "p")]),
        [DropMemoryKeyword()],
    ),
    # a stack slot is private scratch when esp is restored
    "stack": (("pushl %1; popl %0", [("=r", "x")], [("r", "y")]), [DropMemoryKeyword()]),
    # an address of two registers is no pointer token plus an offset
    "whole": (("movl (%1,%2), %0", [("=r", "x")], [("r", "p"), ("r", "i")]), []),
}


@pytest.mark.parametrize("region", sorted(MEMORY_EVENTS))
def test_memory_refinement_follows_the_event_regions(region):
    (template, outputs, inputs), edits = MEMORY_EVENTS[region]
    result = check_chunk(_chunk(template, outputs, inputs, ["memory"]))
    assert {ev.region.kind for ev in result.mem_events} == {region.split()[0]}
    assert refine_interface(result).edits == edits


@pytest.mark.parametrize("offset, dropped", [(0, True), (1, False), (7, False), (8, True)])
def test_anchored_input_is_used_when_the_bytes_read_overlap_it(offset, dropped):
    """"m"(*(p + 4)) names bytes 4..7 behind p: a 4-byte load at p+1 or
    p+7 overlaps them, one at p+0 or p+8 only touches them."""
    inputs = [("r", "p"), ("m", "*(p + 4)")]
    result = check_chunk(_chunk(f"movl {offset}(%1), %0", [("=r", "x")], inputs, ["memory"]))
    assert (DropInput(2) in refine_interface(result).edits) == dropped


def test_anchored_memory_input_is_used_without_a_recheck(monkeypatch):
    """An "m" input anchored to a pointer whose bytes are read is
    load-bearing: the refiner reads that off the result's anchors and
    does not try dropping it."""
    from ric import edits

    inputs = [("r", "p"), ("m", "*(p + 4)")]
    result = check_chunk(_chunk("movl 4(%1), %0", [("=r", "x")], inputs, []))
    assert [(a.entry, a.base, a.offset) for a in result.anchors] == [(2, 1, 4)]
    rechecks = []
    monkeypatch.setattr(edits, "check_chunk", lambda *a, **k: rechecks.append(a))
    assert refine_interface(result).edits == [] and rechecks == []
