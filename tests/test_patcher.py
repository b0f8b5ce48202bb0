"""Patch synthesis: edit shapes, renumbering, verification, minimality."""

import difflib
import json
import os
import re
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ric.checker import check_chunk
from ric.chunks import load_chunk_records, render
from ric.cli import run
from ric.edits import (
    AddClobber,
    AddInput,
    AddOutput,
    MarkEarlyClobber,
    PromoteToReadWrite,
    SetMemoryClobber,
)
from ric.patcher import (
    PatchResult,
    render_diff,
    synthesize_patches,
    verify_patch,
)
from ric.value import replace

from conftest import CORPUS, ROOT, parse_c_text


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


def patch(c):
    result = check_chunk(c)
    assert result.verdict == "issues"
    return synthesize_patches(result, result.issues)


# ---------------------------------------------------------------------------
# Motivating example round-trip


def test_motivating_patch_shape(corpus_by_id):
    pr = patch(corpus_by_id["paper/cas8_x86.c"])
    kinds = {type(e).__name__ for e in pr.edits}
    assert kinds == {"AddOutput", "AddClobber"}
    out = next(e for e in pr.edits if isinstance(e, AddOutput))
    assert out.constraint == "=d"
    assert out.matched_input == 3  # the old edx input position
    clobbers = {e.name for e in pr.edits if isinstance(e, AddClobber)}
    assert clobbers == {"ebx", "cc"}
    assert pr.unresolved == []
    # matched input now names the dummy output via a digit constraint
    matched = next(e for e in pr.patched.inputs if e.constraint.isdigit())
    assert pr.patched.outputs[int(matched.constraint)].expr_text.startswith("_ric_dummy")


def test_patch_whose_interface_does_not_derive_is_unsatisfiable():
    c = chunk("addl %1, %0", [("+r", "x", 4)], [("c", "n", 4)], ["ecx", "cc"])
    assert check_chunk(c).fi is None  # clobber ecx overlaps operand 1
    v = verify_patch(PatchResult(c, [], [], {}, check=check_chunk(c)))
    assert v == {"framing_ok": False, "fully_compliant": False, "interface_satisfiable": False}


def test_motivating_patch_verifies(corpus_by_id):
    pr = patch(corpus_by_id["paper/cas8_x86.c"])
    v = verify_patch(pr)
    assert v == {
        "framing_ok": True,
        "fully_compliant": True,
        "interface_satisfiable": True,
    }
    assert check_chunk(pr.patched).verdict == "compliant"


# ---------------------------------------------------------------------------
# Individual edit shapes


def test_flag_clobber_patch():
    c = chunk("addl %1, %0", [("+r", "x", 4)], [("r", "y", 4)])
    pr = patch(c)
    assert pr.edits == [AddClobber("cc")]
    assert "cc" in pr.patched.clobbers
    assert check_chunk(pr.patched).verdict == "compliant"


def test_register_clobber_patch():
    c = chunk("movl %0, %%ecx", [], [("r", "v", 4)])
    pr = patch(c)
    assert pr.edits == [AddClobber("ecx")]
    assert check_chunk(pr.patched).verdict == "compliant"


def test_memory_clobber_patch():
    c = chunk("movl %0, (%1)", [], [("r", "v", 4), ("r", "p", 4)])
    pr = patch(c)
    assert SetMemoryClobber() in pr.edits
    assert "memory" in pr.patched.clobbers
    assert check_chunk(pr.patched).verdict == "compliant"


def test_promote_read_only_token_input():
    c = chunk("incl %0", [], [("r", "x", 4)], ["cc"])
    pr = patch(c)
    assert PromoteToReadWrite(0) in pr.edits
    assert pr.patched.outputs[0].constraint == "+r"
    assert check_chunk(pr.patched).verdict == "compliant"


def test_promote_renumbers_template():
    c = chunk(
        "movl %0, %1\nincl %1",
        [],
        [("r", "x", 4), ("r", "z", 4)],
        ["cc"],
    )
    pr = patch(c)
    assert PromoteToReadWrite(1) in pr.edits
    # the promoted entry becomes output %0; the remaining input shifts to %1
    assert pr.patched.template == "movl %1, %0\nincl %0"
    assert [e.constraint for e in pr.patched.outputs] == ["+r"]
    assert [e.expr_text for e in pr.patched.outputs] == ["z"]
    assert [e.expr_text for e in pr.patched.inputs] == ["x"]
    assert check_chunk(pr.patched).verdict == "compliant"


def test_early_clobber_patch_for_unicity():
    c = chunk("movl $5, %0\naddl %1, %0", [("=r", "x", 4)], [("r", "y", 4)], ["cc"])
    pr = patch(c)
    assert MarkEarlyClobber(0) in pr.edits
    assert pr.patched.outputs[0].constraint == "=&r"
    assert check_chunk(pr.patched).verdict == "compliant"


def test_add_input_for_output_old_value():
    c = chunk("addl %1, %0", [("=r", "y", 4)], [("r", "x", 4)], ["cc"])
    pr = patch(c)
    assert any(isinstance(e, AddInput) for e in pr.edits)
    new_in = pr.patched.inputs[-1]
    assert new_in.constraint.isdigit()
    assert new_in.expr_text == "y"
    assert check_chunk(pr.patched).verdict == "compliant"


def test_unresolved_hard_register_read():
    c = chunk("movl %%edx, %0", [("=r", "x", 4)])
    pr = patch(c)
    assert pr.unresolved
    assert all(i.category == "UnboundRegisterRead" for i in pr.unresolved)


@pytest.mark.parametrize("constraint", ["=r", "=a"])
def test_never_written_output_reads_its_entry_value(constraint):
    """A write-only output the template never writes keeps its entry
    value; whether the read is of its token or of the register it is
    pinned to, the patch reads that value in."""
    pr = patch(chunk("nop", [(constraint, "x", 4)]))
    assert pr.edits == [AddInput("0", "x")]
    assert pr.unresolved == []
    assert render(pr.patched) == f'asm ("nop" : "{constraint}" (x) : "0" (x))'
    assert verify_patch(pr) == {
        "framing_ok": True,
        "fully_compliant": True,
        "interface_satisfiable": True,
    }


def test_never_written_output_without_an_added_input_is_unresolved():
    """With "memory" clobbered no read of the m-entry is reported, and a
    matching digit on a memory output does not allow a register, so no
    input is added: the entry turns read-write instead."""
    result = check_chunk(chunk("nop", [("=m", "x", 4)], [], ["memory"]))
    assert [i.category for i in result.issues] == ["NonWrittenWriteOnlyOutput"]
    pr = synthesize_patches(result, result.issues)
    assert pr.edits == [PromoteToReadWrite(0)]
    assert pr.unresolved == []
    assert render(pr.patched) == 'asm ("nop" : "+m" (x) :  : "memory")'
    assert verify_patch(pr)["fully_compliant"]


# one patch each for statements where a fixed edit per finding failed:
# a clobber that overlaps the dummy output, and "memory" for an m-entry
SEARCHED = {
    "dummy-output-not-clobber": (
        chunk("movl $0, %%ecx; addl %%ecx, %0", [("+r", "x", 4)], [("c", "n", 4)]),
        'asm ("movl $0, %%ecx; addl %%ecx, %0" : "+r" (x), "=c" (_ric_dummy0)'
        ' : "1" (n) : "cc")',
    ),
    "read-write-m-entry": (chunk("nop", [("=m", "x", 4)]), 'asm ("nop" : "+m" (x))'),
    "read-write-m-entry-two-nops": (
        chunk("nop; nop", [("=m", "x", 4)]), 'asm ("nop; nop" : "+m" (x))'
    ),
    # the UnboundMemoryRead (point 0) comes before the never-written
    # output (the last point): "+m" is preferred to "memory" there too
    "read-write-m-entry-before-memory": (
        chunk("movl $0, %%ecx; movl $1, %%ecx", [("=m", "x", 4)], [], ["ecx"]),
        'asm ("movl $0, %%ecx; movl $1, %%ecx" : "+m" (x) :  : "ecx")',
    ),
}


@pytest.mark.parametrize("name", SEARCHED)
def test_edit_kept_only_when_its_recheck_improves(name):
    c, statement = SEARCHED[name]
    pr = patch(c)
    assert render(pr.patched) == statement
    assert pr.unresolved == []
    assert verify_patch(pr)["fully_compliant"]


def test_candidate_that_adds_a_finding_is_not_kept():
    """Each kept edit leaves strictly fewer findings than before it; an
    edit whose re-check does not derive is dropped, not applied."""
    c, _ = SEARCHED["dummy-output-not-clobber"]
    result = check_chunk(c)
    assert [i.category for i in result.issues] == [
        "ReadOnlyInputClobbered", "Unicity", "FlagClobbered"
    ]
    pr = synthesize_patches(result, result.issues)
    assert pr.edits == [AddOutput("=c", "_ric_dummy0", 1), AddClobber("cc")]
    assert AddClobber("ecx") not in pr.edits


def test_unresolved_are_the_findings_left_after_the_search():
    c = chunk("movl %%edx, %0; incl %0", [("=r", "x", 4)])
    result = check_chunk(c)
    pr = synthesize_patches(result, result.issues)
    assert pr.edits == [AddClobber("cc")]
    assert [(i.category, str(i.location)) for i in pr.unresolved] == [
        ("UnboundRegisterRead", "Reg(name='edx', width=32)")
    ]
    assert [i.category for i in pr.check.issues] == ["UnboundRegisterRead"]


def test_fully_compliant_patches_pass_the_oracle(corpus_chunks):
    """Every patch verification calls fully compliant, on the corpus and
    on the searched statements, passes all three oracle properties."""
    from ric.oracle import OracleRun, TrialConfig, oracle_check

    cfg = TrialConfig(trials=100, seed=0)
    passed = []
    for c in list(corpus_chunks) + [c for c, _ in SEARCHED.values()]:
        result = check_chunk(c)
        if result.verdict != "issues":
            continue
        pr = synthesize_patches(result, result.issues)
        if not verify_patch(pr)["fully_compliant"]:
            continue
        run = OracleRun(pr.check, cfg)
        for prop in ("frame_write", "frame_read", "unicity"):
            v = oracle_check(run, prop)
            assert v.verdict == "pass", (c.span.file, prop, v.reason)
        passed.append(c)
    assert len(passed) >= 15


# ---------------------------------------------------------------------------
# Corpus-level guarantees


def test_framing_guarantee_on_corpus(corpus_chunks):
    """When everything is resolvable, the patch removes all framing issues."""
    for c in corpus_chunks:
        result = check_chunk(c)
        if result.verdict != "issues":
            continue
        pr = synthesize_patches(result, result.issues)
        if pr.unresolved:
            continue
        v = verify_patch(pr)
        assert v["framing_ok"], c.span.file
        assert v["interface_satisfiable"], c.span.file


def test_patch_minimality_on_corpus(corpus_chunks):
    """Dropping the issues behind any one edit leaves the chunk non-compliant."""
    for c in corpus_chunks:
        result = check_chunk(c)
        if result.verdict != "issues" or len(result.issues) < 2:
            continue
        full = synthesize_patches(result, result.issues)
        if full.unresolved:
            continue
        full_edits = [repr(e) for e in full.edits]
        for k in range(len(result.issues)):
            reduced = [i for j, i in enumerate(result.issues) if j != k]
            pr = synthesize_patches(result, reduced)
            if [repr(e) for e in pr.edits] == full_edits:
                continue  # another issue demands the same edit
            assert check_chunk(pr.patched).verdict != "compliant", (
                c.span.file,
                result.issues[k],
            )


# ---------------------------------------------------------------------------
# Source diffs


def test_render_diff_roundtrip():
    src = 'int f(int x) {\n  asm ("addl %1, %0" : "+r" (x) : "r" (x));\n  return x;\n}\n'
    (c,), _ = parse_c_text(src, "f.c")
    result = check_chunk(c)
    pr = synthesize_patches(result, result.issues)
    diff = _diff(src, pr)
    assert diff.startswith("--- a/f.c")
    assert '"cc"' in diff


def test_patched_statement_renders():
    c = chunk("addl %1, %0", [("+r", "x", 4)], [("r", "y", 4)])
    pr = patch(c)
    text = render(pr.patched)
    assert text.endswith(': "cc")')


# ---------------------------------------------------------------------------
# A patch's diff is its statement's own hunk

_STMT = 'asm ("addl %1, %0" : "+r" (x) : "r" (y));'
_STMT_MULTILINE = 'asm ("addl %1, %0"\n      : "+r" (x)\n      : "r" (y));'


_NO_NEWLINE = "\\ No newline at end of file\n"


def _lines(text):
    """The lines of a text, each ending at a \\n or at the text's end, as
    git reads them: \\r, \\f and the other breaks str.splitlines knows
    are inside a line."""
    return re.findall(r"[^\n]*\n|[^\n]+", text)


def _full_file_diff(source, pr):
    """difflib over every line of the old and new file, with git's
    marker after a line that has no line break: the same bytes as the
    statement's hunk wherever difflib pairs each unchanged line near the
    statement with itself."""
    span = pr.patched.span
    new_source = source[: span.byte_start] + render(pr.patched) + source[span.byte_end :]
    diff = difflib.unified_diff(
        _lines(source), _lines(new_source), fromfile=f"a/{span.file}", tofile=f"b/{span.file}"
    )
    return "".join(line if line.endswith("\n") else line + "\n" + _NO_NEWLINE for line in diff)


def _diff(source, pr):
    """The diff of a patch: its statement's span replaced by the
    statement's rendered text, as `ric patch` makes it."""
    return render_diff(source, pr.patched.span, render(pr.patched))


def _patch_nth(source, k):
    chunks, _ = parse_c_text(source, "f.c")
    c = chunks[k]
    result = check_chunk(c)
    return synthesize_patches(result, result.issues)


def _apply_hunks(source, diff):
    """Apply a unified diff to source, one line list to another."""
    old = _lines(source)
    out = []
    done = 0
    lines = _lines(diff)[2:]
    # git's marker: the line before it has no line break
    lines = [
        line[:-1] if after == _NO_NEWLINE else line
        for line, after in zip(lines, lines[1:] + [""])
        if line != _NO_NEWLINE
    ]
    for line in lines:
        if line.startswith("@@"):
            start, length = re.match(r"@@ -(\d+)(?:,(\d+))?", line).groups()
            start = int(start) - (length != "0")
            out += old[done:start]
            done = start
        elif line[0] in " -":
            assert old[done] == line[1:]
            done += 1
            if line[0] == " ":
                out.append(line[1:])
        else:
            out.append(line[1:])
    return "".join(out + old[done:])


def _line_of(source, offset):
    """The line holding offset, counted from 0."""
    return source.count("\n", 0, offset)


def _assert_statement_hunk(source, pr, diff):
    """The diff is one hunk whose old side holds the statement's lines
    and at most three lines before and after them, and applying it gives
    the patched source."""
    span = pr.patched.span
    headers = [line for line in _lines(diff) if line.startswith("@@")]
    assert len(headers) == 1, diff
    start, length = re.match(r"@@ -(\d+)(?:,(\d+))?", headers[0]).groups()
    start, end = int(start) - 1, int(start) - 1 + int(length or 1)  # old lines [start, end)
    lines = _lines(source)
    first = _line_of(source, span.byte_start)
    last = min(_line_of(source, span.byte_end), len(lines) - 1)
    assert first - 3 <= start <= first
    assert last < end <= last + 4
    patched = source[: span.byte_start] + render(pr.patched) + source[span.byte_end :]
    assert _apply_hunks(source, diff) == patched


_DIFF_CASES = {
    "line-1": (f"{_STMT}\nint a;\nint b;\nint c;\nint d;\n", 0),
    "line-2": (f"int a;\n  {_STMT}\nint b;\nint c;\nint d;\nint e;\n", 0),
    "last-line": (f"int a;\nint b;\nint c;\nint d;\nint e;\n{_STMT}\n", 0),
    "last-line-no-newline": (f"int a;\nint b;\nint c;\nint d;\nint e;\n{_STMT}", 0),
    "crlf": (f"int a;\r\nint b;\r\n\r\n  {_STMT}\r\n}}\r\nint c;\r\n", 0),
    "form-feeds": (f"\x0c\nint a;\x0cint b;\n\x0c{_STMT}\x0c\nint c;\n", 0),
    "lone-cr": (f"int a;\rint b;\r  {_STMT}\rint c;\rint d;\r", 0),
    "mid-line": (f"int a; {_STMT} int b;\nint c;\n", 0),
    # copies of the statement: whole-file difflib may pair the patched one
    # with a copy
    "copies-first": ("".join(f"  {_STMT}\n" for _ in range(5)), 0),
    "copies-middle": ("".join(f"  {_STMT}\n" for _ in range(5)), 2),
    "copy-after-context": (
        "".join(f"  {_STMT}\n" for _ in range(5)) + f"x\n}}\n}}\n  {_STMT}\n", 0
    ),
    "copy-far": (
        f"z\n  {_STMT}\nz\n  {_STMT}\n" + "".join(f"int u{i};\n" for i in range(9)), 0
    ),
    # the patched statement's new text is already in the file
    "new-text-present": (f'z\n  {_STMT}\nz\n  {_STMT[:-2]} : "cc");\nz\nx\n', 0),
    # in a file of 200 lines or more whole-file difflib ignores lines that
    # occur in more than 1% of it, "}" here
    "ignored-tail": (
        "".join(f"int v{i};\n}}\n" for i in range(150)) + f"  {_STMT}\n}}\n}}\n", 0
    ),
    "kept-tail": (
        "".join(f"int v{i};\n}}\n" for i in range(150)) + f"  {_STMT}\nint w;\n}}\n", 0
    ),
    "ignored-head": (
        "}\n" * 150 + f"  {_STMT}\n" + "".join(f"int u{i};\n" for i in range(60)), 0
    ),
    "copy-with-shared-neighbours": (
        f"y\nz\n  {_STMT}\n"
        + "".join(f"int v{i};\n}}\n" for i in range(100))
        + f"y\nz\n  {_STMT}\n}}\n}}\nint w;\n}}\n",
        0,
    ),
    # operand text over many lines: the new text repeats a line (and
    # moves it), or keeps most of a long statement's lines
    "repeated-new-lines": (
        "".join(f"int v{i};\n" for i in range(200))
        + '  asm ("movl %0, %1\\nincl %1" : : "r" (q\nr), "r" (z\n+\n+\n+\n+\n1) : "cc");\n'
        + "int w;\n",
        0,
    ),
    "long-statement": (
        "".join(f"int v{i};\n" for i in range(800))
        + '}\n}\n}\n  asm ("addl %1, %0" : "+r" (x'
        + "".join(f"\n+ a{i}" for i in range(200))
        + ') : "r" (y));\n}\n}\n}\n',
        0,
    ),
    # unchanged operand lines between the statement's two changed lines
    "unchanged-lines-inside": (
        'int a;\n  asm ("incl %0; addl %1, %0" : : "r" (x), "r" (y'
        + "\n+" * 9
        + "\n1));\nint b;\n",
        0,
    ),
    "multiline-copied-lines": (
        "".join(f"int v{i};\n}}\n" for i in range(110))
        + f"  {_STMT_MULTILINE}\n}}\nint w;\n}}\n"
        + _STMT_MULTILINE.split("\n", 1)[1]
        + "\n}\n"
        + "".join(f"int u{i};\n}}\n" for i in range(10)),
        0,
    ),
}

# the cases where whole-file difflib pairs every line near the statement
# with itself (in copies-middle it pairs the patched line with a copy)
_LOCAL_IN_WHOLE_FILE = {
    "line-1", "line-2", "last-line", "last-line-no-newline", "crlf", "form-feeds",
    "lone-cr", "mid-line", "copy-far", "kept-tail", "ignored-head",
}


@pytest.mark.parametrize("name", _DIFF_CASES)
def test_render_diff_matches_full_file_diff(name):
    """The statement's own hunk on every case; where whole-file difflib
    keeps the lines near the statement in place, the same bytes."""
    source, k = _DIFF_CASES[name]
    pr = _patch_nth(source, k)
    diff = _diff(source, pr)
    _assert_statement_hunk(source, pr, diff)
    if name in _LOCAL_IN_WHOLE_FILE:
        assert diff == _full_file_diff(source, pr)


def test_a_last_line_without_a_line_break_gets_gits_marker():
    source, k = _DIFF_CASES["last-line-no-newline"]
    assert _diff(source, _patch_nth(source, k)) == (
        "--- a/f.c\n+++ b/f.c\n@@ -3,4 +3,4 @@\n int c;\n int d;\n int e;\n"
        f"-{_STMT}\n{_NO_NEWLINE}"
        f'+{_STMT[:-2]} : "cc");\n{_NO_NEWLINE}'
    )


def _assert_git_applies(directory, diff):
    """`git apply --check`, run in directory, which holds the diffed
    file, takes the diff; skipped where git cannot run."""
    # no repository above directory changes where git looks for the file
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(directory.parent)}
    try:
        done = subprocess.run(
            ["git", "apply", "--check", "-"],
            input=diff.encode(), cwd=directory, env=env, capture_output=True,
        )
    except OSError as e:
        pytest.skip(f"git cannot run: {e}")
    assert done.returncode == 0, (done.stderr.decode(), diff)


@pytest.mark.parametrize("name", _DIFF_CASES)
def test_git_applies_each_diff_case(tmp_path, name):
    """git takes the diff of every case: lines end at \\n only, so a form
    feed or a lone \\r stays inside its line, and the context after the
    statement is always in the hunk."""
    source, k = _DIFF_CASES[name]
    (tmp_path / "f.c").write_text(source, encoding="utf-8", newline="")
    _assert_git_applies(tmp_path, _diff(source, _patch_nth(source, k)))


def test_git_applies_the_diffs(tmp_path, monkeypatch):
    """git takes every diff of `ric patch` on the 800-statement file of
    seed 0."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import gen
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    records = json.loads(CORPUS.read_text(encoding="utf-8"))
    (tmp_path / "big.c").write_text(gen.generate(records, 800, 0).text, encoding="utf-8")
    monkeypatch.chdir(tmp_path)  # so the diffs name big.c as git finds it
    run(["patch", "--out", "report.json", "big.c"])
    diffs = [
        r["patch"]["diff"]
        for r in json.loads((tmp_path / "report.json").read_text())["chunks"]
        if "diff" in r.get("patch", {})
    ]
    assert len(diffs) > 100
    for diff in diffs:
        _assert_git_applies(tmp_path, diff)


def test_render_diff_span_ending_a_line():
    """A span that takes in the line break after the statement (a source
    edited since the scan) joins the patched statement to the next line."""
    source = f"int a;\n  {_STMT}\nint b;\nint c;\n"
    pr = _patch_nth(source, 0)
    span = pr.patched.span
    stale = replace(span, byte_end=source.index("\n", span.byte_end) + 1)
    pr = replace(pr, patched=replace(pr.patched, span=stale))
    diff = _diff(source, pr)
    _assert_statement_hunk(source, pr, diff)
    assert f'-  {_STMT}\n-int b;\n+  {_STMT[:-2]} : "cc")int b;\n' in diff


def test_render_diff_multiline_hunk_applies():
    source = f"int f(void)\n{{\n  {_STMT_MULTILINE}\n  return x;\n}}\n"
    pr = _patch_nth(source, 0)
    _assert_statement_hunk(source, pr, _diff(source, pr))


_DIFF_LINES = st.sampled_from(
    [
        "}\n", "\n", "{\n", "int x;\n", "  return 0;\n", "/* c */\n", "\x0c\n", "a\rb\n",
        "\r\n", f"  {_STMT}\n", f"{_STMT}\n", f"  {_STMT_MULTILINE}\n", f"x = 1; {_STMT} y = 2;\n",
    ]
)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.one_of(_DIFF_LINES, st.integers(0, 60).map(lambda i: f"int v{i};\n")), max_size=30
    ),
    st.sampled_from([f"  {_STMT}\n", f"  {_STMT_MULTILINE}\n"]),
    st.integers(0, 30),
    st.integers(0, 10),
    st.sampled_from(["\n", "\r\n", ""]),
    st.sampled_from([0, 100, 120]),
    st.integers(0, 30),
)
def test_render_diff_equals_full_file_diff(lines, statement, at, k, end, padding, pad_at):
    """The statement's own hunk, on files with repeated statements and
    on files long enough (padding) for whole-file difflib to ignore
    popular lines."""
    lines.insert(min(at, len(lines)), statement)
    pad = [line for i in range(padding) for line in (f"int w{i};\n", "}\n")]
    lines[pad_at:pad_at] = pad
    source = "".join(lines).replace("\n", "\r\n") if end == "\r\n" else "".join(lines)
    if not end:
        source = source[:-1]
    chunks, _ = parse_c_text(source, "f.c")
    pr = _patch_nth(source, k % len(chunks))
    _assert_statement_hunk(source, pr, _diff(source, pr))


def test_patch_diffs_on_a_generated_file_are_statement_hunks(tmp_path):
    """On the 800-statement file of seed 1, whole-file difflib pairs the
    "}" and blank lines around the last statement elsewhere; its hunk
    still changes only the statement's line, and every diff of the run
    is one hunk that applies to the source."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import gen
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    records = json.loads(CORPUS.read_text(encoding="utf-8"))
    generated = gen.generate(records, 800, 1)
    source = tmp_path / "big.c"
    source.write_text(generated.text, encoding="utf-8")
    out = tmp_path / "report.json"
    run(["patch", "--out", str(out), str(source)])
    patches = {
        r["span"]["line"]: r["patch"]
        for r in json.loads(out.read_text())["chunks"]
        if "diff" in r.get("patch", {})
    }
    assert len(patches) > 100
    lines = generated.text.splitlines(keepends=True)
    for line, p in patches.items():  # one statement per line, indented by four
        patched = lines[: line - 1] + [f"    {p['statement']};\n"] + lines[line:]
        assert p["diff"].count("\n@@ ") == 1
        assert _apply_hunks(generated.text, p["diff"]) == "".join(patched)
    last = patches[max(generated.manifest)]["diff"].splitlines()[3:]
    assert [line[0] for line in last].count("-") == 1
    assert [line[0] for line in last].count("+") == 1


def _patched_file(functions):
    """A C file with one statement per function, every fourth a copy of
    the same text, and each statement's patch adding "cc"."""
    source = "".join(
        f"/* function {k} */\nvoid f{k}(void)\n{{\n    "
        + ('asm ("movl $0, %%eax")' if k % 4 == 0 else f'asm ("incl %0" : "+r" (x{k}))')
        + ";\n}\n\n"
        for k in range(functions)
    )
    chunks, _ = parse_c_text(source, "f.c")
    patches = [
        PatchResult(replace(c, clobbers=c.clobbers + ("cc",)), [AddClobber("cc")], [], {})
        for c in chunks
    ]
    return source, patches


def test_diff_time_grows_linearly():
    """The diffs of 8x the patches in an 8x larger file take under 20x
    the time; diffing the whole file per patch takes about 64x."""
    timings = []
    for functions in (50, 400):
        source, patches = _patched_file(functions)
        assert all(_diff(source, pr).count("\n@@ ") == 1 for pr in patches)
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            for pr in patches:
                _diff(source, pr)
            best = min(best, time.perf_counter() - start)
        timings.append(best)
    assert timings[1] / timings[0] < 20, timings
