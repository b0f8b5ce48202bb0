"""Report structure: per-issue JSON, summary buckets, the JSON writer and
the text view."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ric import cli
from ric.checker import check_chunk
from ric.report import (
    build_report,
    build_summary,
    chunk_report,
    classify_pattern,
    issue_to_json,
    json_text,
    render_text,
    severity_policy,
)


def report_for(c, extra=None):
    return chunk_report(check_chunk(c), extra)


def test_issue_json_fields(corpus_by_id):
    c = corpus_by_id["paper/cas8_x86.c"]
    result = check_chunk(c)
    flag = next(i for i in result.issues if i.category == "FlagClobbered")
    j = issue_to_json(flag, result)
    assert j["severity"] == "benign" and j["pattern"] == "P1"
    assert set(j) == {"category", "severity", "pattern", "location", "point", "details"}


def test_pattern_tags_match_labels(corpus_chunks, corpus_labels):
    for c in corpus_chunks:
        want = sorted(
            (i["category"], i["pattern"])
            for i in corpus_labels[c.span.file]["issues"]
        )
        got = []
        result = check_chunk(c)
        for issue in result.issues:
            tag = classify_pattern(issue, result)
            got.append((issue.category, tag.tag if tag else None))
        assert sorted(got) == want, c.span.file


def test_chunk_report_has_no_timings_by_default(corpus_by_id, monkeypatch):
    monkeypatch.delenv("RIC_TIMINGS", raising=False)
    rep = report_for(corpus_by_id["ok/nop.c"])
    assert rep["timings"] is None
    monkeypatch.setenv("RIC_TIMINGS", "1")
    rep = report_for(corpus_by_id["ok/nop.c"])
    assert isinstance(rep["timings"], dict) and rep["timings"]


def test_chunk_report_timings_include_the_forward_pass(corpus_by_id, monkeypatch):
    c = corpus_by_id["paper/cas8_x86.c"]
    monkeypatch.delenv("RIC_TIMINGS", raising=False)
    assert report_for(c)["timings"] is None
    monkeypatch.setenv("RIC_TIMINGS", "1")
    timings = report_for(c)["timings"]
    assert set(timings) == {
        "lift_ms", "forward_ms", "frame_write_ms", "frame_read_ms", "unicity_ms", "total_ms"
    }
    assert all(v >= 0 for v in timings.values())


def test_summary_buckets(corpus_chunks, corpus_labels):
    reps = [report_for(c) for c in corpus_chunks]
    s = build_summary(reps)
    assert s["chunks"] == len(corpus_chunks)
    verdicts = [lab["verdict"] for lab in corpus_labels.values()]
    assert s["totals"]["compliant"] == verdicts.count("compliant")
    assert s["totals"]["out_of_scope"] == verdicts.count("out_of_scope")
    assert s["totals"]["error"] == verdicts.count("error")
    benign_only = sum(
        1
        for lab in corpus_labels.values()
        if lab["verdict"] == "issues"
        and all(i["severity"] == "benign" for i in lab["issues"])
    )
    assert s["totals"]["benign_only"] == benign_only
    assert (
        s["totals"]["serious"]
        == verdicts.count("issues") - benign_only
    )
    assert s["by_severity"]["serious"] > 0 and s["by_severity"]["benign"] > 0
    assert set(s["by_pattern"]) == {"P1", "P2", "P3", "P4", "P5", "P6"}


def test_report_envelope(corpus_chunks):
    rep = build_report([report_for(c) for c in corpus_chunks[:3]])
    assert rep["schema"] == 1
    assert len(rep["chunks"]) == 3
    assert rep["summary"]["chunks"] == 3


def test_render_text_plain(corpus_by_id, monkeypatch):
    monkeypatch.delenv("RIC_COLOR", raising=False)
    rep = build_report(
        [report_for(corpus_by_id["paper/cas8_x86.c"]), report_for(corpus_by_id["ok/nop.c"])]
    )
    text = render_text(rep)
    assert "\x1b[" not in text
    assert "paper/cas8_x86.c:1: issues" in text
    assert "ok/nop.c:1: compliant" in text
    assert "serious: ReadOnlyInputClobbered" in text
    assert text.rstrip().splitlines()[-1].startswith("summary: 2 chunks, 1 compliant")


def test_render_text_color(corpus_by_id, monkeypatch):
    monkeypatch.setenv("RIC_COLOR", "1")
    rep = build_report([report_for(corpus_by_id["paper/cas8_x86.c"])])
    text = render_text(rep)
    assert "\x1b[31m" in text  # serious issues painted red


def test_severity_policy_consistency(corpus_chunks):
    for c in corpus_chunks:
        for i in check_chunk(c).issues:
            assert severity_policy(i) in ("benign", "serious")


# ---------------------------------------------------------------------------
# The JSON writer against json.dumps


def _dumps(value):
    return json.dumps(value, indent=2, sort_keys=True)


@pytest.mark.parametrize("timings", ["0", "1"])
@pytest.mark.parametrize(
    "command", [["check"], ["patch"], ["refine"], ["oracle", "--trials", "2"]], ids=lambda c: c[0]
)
def test_json_text_writes_corpus_reports_as_json_dumps(command, timings, monkeypatch, tmp_path):
    monkeypatch.setenv("RIC_TIMINGS", timings)
    written = []

    def spy(report):
        written.append(report)
        return json_text(report)

    monkeypatch.setattr(cli, "json_text", spy)
    out = tmp_path / "report.json"
    cli.run(command + ["--chunks", "corpus/corpus.json", "--out", str(out)])
    (report,) = written
    assert out.read_text(encoding="utf-8") == _dumps(report) + "\n"


@pytest.mark.parametrize(
    "value",
    [
        {},
        [],
        (),
        {"a": {}, "b": [], "c": [[]], "d": [{}], "e": {"f": {"g": ()}}},
        "",
        "é and 日本",
        "\U0001f600",
        "\udcff byte",
        'a"b\\c\n\t\x00\x1f\x7f',
        True,
        False,
        None,
        0,
        -1,
        2**70,
        1.5,
        0.1,
        -0.0,
        1e300,
        5e-324,
        float("nan"),
        float("inf"),
        float("-inf"),
        [1, "x", None, True, 2.5, {"k": (1, 2)}],
        {"b": 1, "a": 2, "A": 3, "é": 4, "": 5, "\udcff": 6},
    ],
)
def test_json_text_edge_values(value):
    assert json_text(value) == _dumps(value)


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.tuples(inner, inner)
    | st.dictionaries(st.text(max_size=3), inner, max_size=4),
    max_leaves=20,
)


@settings(max_examples=200, deadline=None)
@given(_JSON)
def test_json_text_matches_json_dumps(value):
    assert json_text(value) == _dumps(value)


@pytest.mark.parametrize("value", [{1: "a"}, {None: 1}, {1, 2}, b"x", object(), [1, {2}]])
def test_json_text_rejects_other_types(value):
    with pytest.raises(TypeError):
        json_text(value)
