"""The per-command memo of check_chunk: a chunk that shares an interface
key with an earlier one gets that result rebound to it, and every report
built from it equals the one built from a fresh analysis."""

import json
import re
import sys

from hypothesis import given, settings
from hypothesis import strategies as st

from ric import checker
from ric.checker import CheckOptions, check_chunk, interface_key
from ric.chunks import load_chunk_records, render
from ric.cli import run
from ric.patcher import synthesize_patches, verify_patch
from ric.refiner import refine_interface
from ric.report import chunk_report, edit_to_json
from ric.value import replace

from conftest import CORPUS, ROOT

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
CHUNKS = load_chunk_records(json.loads(CORPUS.read_text(encoding="utf-8")), str(CORPUS))


def report(result):
    out = chunk_report(result)
    del out["timings"]
    return out


def outputs(chunk, memo):
    """What check, patch and refine report for the chunk, timings aside."""
    result = check_chunk(chunk, memo=memo)
    out = report(result)
    if result.verdict == "issues":
        pr = synthesize_patches(result, result.issues, memo)
        out["patch"] = (
            [edit_to_json(e) for e in pr.edits],
            [(i.category, str(i.location)) for i in pr.unresolved],
            pr.renumber_map,
            render(pr.patched),
            verify_patch(pr),
        )
    elif result.verdict == "compliant":
        rr = refine_interface(result, memo=memo)
        out["refine"] = (
            [edit_to_json(e) for e in rr.edits],
            [edit_to_json(e) for e in rr.suggestions],
            render(rr.refined),
        )
    return out


def renamed(chunk, suffix):
    def entry(e):
        return replace(e, expr_text=_IDENT.sub(lambda m: f"{m.group(0)}_{suffix}", e.expr_text))

    return replace(
        chunk,
        outputs=tuple(map(entry, chunk.outputs)),
        inputs=tuple(map(entry, chunk.inputs)),
    )


def _with_entry(chunk, i, **changes):
    entries = list(chunk.entries)
    entries[i] = replace(entries[i], **changes)
    k = len(chunk.outputs)
    return replace(chunk, outputs=tuple(entries[:k]), inputs=tuple(entries[k:]))


@st.composite
def perturbed(draw, chunk):
    """The chunk with one component of its interface key changed."""
    entries = chunk.entries
    kinds = ["template", "clobbers"]
    if entries:
        kinds += ["constraint", "size", "name", "split", "anchor"]
    kind = draw(st.sampled_from(kinds))
    if kind == "template":
        extra = draw(st.sampled_from(["nop", "incl %%eax", "movl $0, %0", "addl %0, %0"]))
        return replace(chunk, template=chunk.template + "\n" + extra)
    if kind == "clobbers":
        name = draw(st.sampled_from(["cc", "memory", "eax", "edx", "ebx"]))
        if name in chunk.clobbers:
            return replace(chunk, clobbers=tuple(c for c in chunk.clobbers if c != name))
        return replace(chunk, clobbers=chunk.clobbers + (name,))
    i = draw(st.integers(0, len(entries) - 1))
    if kind == "constraint":
        new = draw(st.sampled_from(["r", "=r", "+r", "=&r", "a", "=a", "q", "m", "=m", "+m", "g", "i", "0"]))
        return _with_entry(chunk, i, constraint=new)
    if kind == "size":
        return _with_entry(chunk, i, size_bytes=draw(st.sampled_from([1, 2, 4, 8])))
    if kind == "name":
        return _with_entry(chunk, i, name=draw(st.sampled_from([None, "nm", "other"])))
    if kind == "split":
        k = draw(st.integers(0, len(entries)))
        return replace(chunk, outputs=entries[:k], inputs=entries[k:])
    # anchor: point an entry at another entry's expression, or at nothing
    j = draw(st.integers(0, len(entries) - 1))
    base = entries[j].expr_text.strip()
    text = draw(
        st.sampled_from([f"*({base})", f"*({base} + 4)", f"*({base} + 8)", "*(q_fresh + 4)", "q_fresh"])
    )
    return _with_entry(chunk, i, expr_text=text)


@st.composite
def cases(draw):
    chunk = draw(st.sampled_from(CHUNKS))
    if draw(st.booleans()):
        return chunk, renamed(chunk, draw(st.integers(0, 999))), True
    return chunk, draw(perturbed(chunk)), False


@settings(max_examples=300, deadline=None)
@given(cases(), st.sampled_from([None, True, False]), st.integers(1, 1000))
def test_memo_outputs_equal_fresh_analysis(case, single_function, line):
    first, chunk, is_rename = case
    # the span and context are not in the key; reports take them from
    # the chunk checked, so a rebound result must too
    chunk = replace(
        chunk,
        span=replace(chunk.span, line=line),
        context=replace(chunk.context, line=line, single_chunk_function=single_function),
    )
    if is_rename:
        assert interface_key(chunk, CheckOptions()) == interface_key(first, CheckOptions())
    memo = {}
    outputs(first, memo)
    assert outputs(chunk, memo) == outputs(chunk, None)


def test_memo_hit_is_rebound_and_times_only_the_lookup():
    first = CHUNKS[0]
    second = replace(renamed(first, 7), span=replace(first.span, line=999))
    memo = {}
    a = check_chunk(first, memo=memo)
    b = check_chunk(second, memo=memo)
    assert len(memo) == 1 and a.chunk is first and b.chunk is second
    assert b.issues == a.issues and b.verdict == a.verdict
    assert set(a.timings) >= {"lift_ms", "forward_ms", "total_ms"}
    assert set(b.timings) == {"total_ms"}


def test_anchor_base_is_part_of_the_key():
    (a, b) = load_chunk_records(
        [
            {
                "template": "movl $0, 4(%1)",
                "outputs": [{"constraint": "=m", "expr_text": "*(p + 4)"}],
                "inputs": [{"constraint": "r", "expr_text": base}],
            }
            for base in ("p", "q")
        ]
    )
    assert interface_key(a, CheckOptions()) != interface_key(b, CheckOptions())
    memo = {}
    check_chunk(a, memo=memo)
    assert check_chunk(b, memo=memo).issues == check_chunk(b).issues != check_chunk(a).issues


NAMED = load_chunk_records(
    [
        {
            "template": "movl %[src], %[dst]",
            "outputs": [{"name": "dst", "constraint": "=r", "expr_text": "x"}],
            "inputs": [{"name": "src", "constraint": "r", "expr_text": "y"}],
        }
    ]
)


def test_memo_sees_every_size_and_name_change():
    """Few size changes and no name change on the corpus alone change a
    report, so each one is tried here rather than sampled."""
    for first in CHUNKS + NAMED:
        for i, e in enumerate(first.entries):
            changed = [_with_entry(first, i, size_bytes=s) for s in (1, 2, 4, 8)]
            changed += [_with_entry(first, i, name=n) for n in (None, "dst", "src")]
            for chunk in changed:
                memo = {}
                check_chunk(first, memo=memo)
                assert report(check_chunk(chunk, memo=memo)) == report(check_chunk(chunk))


def test_check_analyzes_each_distinct_interface_once(tmp_path, monkeypatch):
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import gen
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    records = json.loads(CORPUS.read_text(encoding="utf-8"))
    source = tmp_path / "big.c"
    source.write_text(gen.generate(records, 3000, 0).text, encoding="utf-8")

    calls = []
    analyze = checker._analyze

    def counted(chunk, opts):
        calls.append(interface_key(chunk, opts))
        return analyze(chunk, opts)

    monkeypatch.setattr(checker, "_analyze", counted)
    out = tmp_path / "report.json"
    run(["check", "--out", str(out), str(source)])
    assert len(json.loads(out.read_text())["chunks"]) == 3000
    assert len(calls) == len(set(calls)) == 54


def test_memo_keys_on_the_options():
    memo = {}
    for chunk in CHUNKS:
        for opts in (CheckOptions(), CheckOptions(False, True), CheckOptions(True, False)):
            want = report(check_chunk(chunk, opts))
            assert report(check_chunk(chunk, opts, memo)) == want, chunk.context.file
