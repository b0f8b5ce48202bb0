"""Command-line driver: exit codes, output formats, in-place rewriting, and
report reproducibility."""

import argparse
import hashlib
import json
import subprocess
import sys

import pytest

from ric import cli
from ric.cli import run

from conftest import CORPUS, ROOT

FAULTY_SRC = (
    "int f(int x, int y) {\n"
    '  asm ("addl %1, %0" : "+r" (x) : "r" (y));\n'
    "  return x;\n"
    "}\n"
)
CLEAN_SRC = (
    "int g(int x, int y) {\n"
    '  asm ("movl %1, %0" : "=r" (x) : "r" (y));\n'
    "  return x;\n"
    "}\n"
)
OOS_SRC = (
    "void h(double *p) {\n"
    '  asm ("fldl (%0)" : : "r" (p) : "memory");\n'
    "}\n"
)
REFINABLE_SRC = (
    "int r(int x, int y, int dead) {\n"
    '  asm ("movl %1, %0" : "=r" (x) : "r" (y), "r" (dead));\n'
    "  return x;\n"
    "}\n"
)


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def run_json(args, tmp_path):
    out = tmp_path / "report.json"
    code = run(args + ["--out", str(out)])
    return code, json.loads(out.read_text())


# ---------------------------------------------------------------------------
# Exit codes


def test_exit_zero_on_compliant(tmp_path):
    code, rep = run_json(["check", write(tmp_path, "g.c", CLEAN_SRC)], tmp_path)
    assert code == 0
    assert rep["chunks"][0]["verdict"] == "compliant"


def test_exit_one_on_issues(tmp_path):
    code, rep = run_json(["check", write(tmp_path, "f.c", FAULTY_SRC)], tmp_path)
    assert code == 1
    assert rep["chunks"][0]["issues"]


# %h names the high byte of a register (%dh for %edx), which is not
# lifted. Read as %0, the statement, which writes all 16 bits of x,
# would look like a serious UnboundRegisterRead.
HIGH_BYTE = {
    "numbered": ("movb $0, %b0; movb $1, %h0", None),
    "named": ("movb $0, %b[x]; movb $1, %h[x]", "x"),
}


@pytest.mark.parametrize("form", sorted(HIGH_BYTE))
def test_unsupported_template_modifier_is_out_of_scope(tmp_path, form):
    template, name = HIGH_BYTE[form]
    output = {"constraint": "=q", "expr_text": "x", "size_bytes": 2, "name": name}
    record = {"template": template, "outputs": [output], "inputs": [], "clobbers": []}
    path = write(tmp_path, "h.json", json.dumps([record]))
    code, rep = run_json(["check", "--chunks", path], tmp_path)
    (entry,) = rep["chunks"]
    assert code == 3 and entry["verdict"] == "out_of_scope" and entry["issues"] == []
    assert entry["details"].startswith("unsupported template modifier %h in '%h")
    code, rep = run_json(["oracle", "--trials", "5", "--chunks", path], tmp_path)
    assert code == 3
    for prop in rep["chunks"][0]["oracle"].values():
        assert prop["verdict"] == "inconclusive"
        assert prop["reason"].startswith("out of scope: unsupported template modifier %h")


def test_exit_three_on_out_of_scope_only(tmp_path):
    code, rep = run_json(["check", write(tmp_path, "h.c", OOS_SRC)], tmp_path)
    assert code == 3
    assert rep["chunks"][0]["verdict"] == "out_of_scope"


def test_bad_hex_escape_is_reported_not_a_crash(tmp_path, capsys):
    path = write(tmp_path, "x.c", 'void f(void) { asm ("nop\\xg"); }\n' + CLEAN_SRC)
    code, rep = run_json(["check", path], tmp_path)
    assert code == 1
    assert [c["verdict"] for c in rep["chunks"]] == ["error", "compliant"]
    assert rep["chunks"][0]["details"] == "\\x used with no following hex digits"
    assert capsys.readouterr().err == f"ric: {path}:1: \\x used with no following hex digits\n"


def test_unparsable_statement_is_an_error_entry(tmp_path, capsys):
    path = write(tmp_path, "a.c", 'void f(long long x)\n{\n  asm ("" : "+A"(x));\n}\n')
    for command in ("check", "patch", "refine", "oracle"):
        code, rep = run_json([command, path], tmp_path)
        assert code == 1, command
        assert rep["chunks"] == [
            {
                "span": {"file": path, "line": 3, "column": 3},
                "verdict": "error",
                "issues": [],
                "timings": None,
                "details": "unsupported constraint character 'A'",
            }
        ]
        assert rep["summary"]["totals"]["error"] == 1
        err = capsys.readouterr().err
        assert err == f"ric: {path}:3: unsupported constraint character 'A'\n", command


def test_text_summary_counts_errors(tmp_path, capsys):
    path = write(tmp_path, "a.c", 'void f(long long x)\n{\n  asm ("" : "+A"(x));\n}\n')
    assert run(["check", "--format", "text", path]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == (
        "summary: 1 chunks, 0 compliant, 0 benign-only, 0 serious, 0 out of scope, 1 error"
    )


# 1 200 chained leas, which once exhausted the interpreter's recursion
# limit in the checker; the statement after them is clean
LEA_CHAIN_SRC = (
    "void f(int x, int y) {\n"
    '  asm ("' + "; ".join(["leal (%0,%0), %0"] * 1200) + '" : "+r" (x));\n'
    '  asm ("addl %1, %0" : "+r" (x) : "r" (y) : "cc");\n'
    "}\n"
)


def test_one_chunk_crash_is_an_error_entry(tmp_path, monkeypatch, capsys):
    from ric import checker

    path = write(tmp_path, "lea.c", LEA_CHAIN_SRC)
    for command in ("check", "patch", "refine", "oracle"):
        trials = ["--trials", "5"] if command == "oracle" else []
        code, rep = run_json([command, *trials, path], tmp_path)
        assert code == 0, command
        assert [c["verdict"] for c in rep["chunks"]] == ["compliant"] * 2, command

    analyze = checker._analyze

    def crash_on_the_leas(chunk, opts):
        if "leal" in chunk.template:
            raise RecursionError("maximum recursion depth exceeded")
        return analyze(chunk, opts)

    monkeypatch.setattr(checker, "_analyze", crash_on_the_leas)
    for command in ("check", "patch", "refine", "oracle"):
        trials = ["--trials", "5"] if command == "oracle" else []
        code, rep = run_json([command, *trials, path], tmp_path)
        assert code == 1, command
        crashed, clean = rep["chunks"]
        assert crashed["verdict"] == "error" and crashed["issues"] == [], command
        assert crashed["details"].startswith("internal error: RecursionError: "), command
        assert clean["verdict"] == "compliant", command
        assert rep["summary"]["totals"]["error"] == 1, command
        assert "lea.c:2: internal error: RecursionError: " in capsys.readouterr().err


WRONG_COUNTS_SRC = (
    "int f(int x, int y) {\n"
    '  asm ("movl %0" : "=r" (x));\n'
    '  asm ("notl %0, %%eax" : "+r" (x) : : "eax");\n'
    '  asm ("mull %%ecx, %0" : "+a" (x) : "c" (y) : "edx", "cc");\n'
    "  return x;\n"
    "}\n"
)


def test_wrong_operand_counts_are_error_entries(tmp_path, capsys):
    code, rep = run_json(["check", write(tmp_path, "n.c", WRONG_COUNTS_SRC)], tmp_path)
    assert code == 1
    assert [(c["verdict"], c["details"]) for c in rep["chunks"]] == [
        ("error", "template: movl takes 2 operand(s), not 1"),
        ("error", "template: notl takes 1 operand(s), not 2"),
        ("error", "template: mull takes 1 operand(s), not 2"),
    ]
    assert "internal error" not in capsys.readouterr().err


def test_ric_error_in_one_chunk_still_ends_the_run(tmp_path, monkeypatch, capsys):
    from ric import cli
    from ric.errors import RicError

    def broken(chunk, **kwargs):
        raise RicError("broken analysis")

    monkeypatch.setattr(cli, "check_chunk", broken)
    assert run(["check", write(tmp_path, "g.c", CLEAN_SRC)]) == 2
    assert "ric: error: broken analysis" in capsys.readouterr().err


def test_oracle_violation_on_a_compliant_chunk_sets_the_exit_code():
    from ric.cli import _exit_code

    def entry(verdict, issues, oracle):
        props = ("frame_write", "frame_read", "unicity")
        return {"verdict": verdict, "issues": issues, "oracle": dict(zip(props, oracle))}

    passes = [{"verdict": "pass"}] * 3
    refuted = [{"verdict": "pass"}, {"verdict": "violation"}, {"verdict": "inconclusive"}]
    assert _exit_code([entry("compliant", [], passes)]) == 0
    assert _exit_code([entry("compliant", [], refuted)]) == 1
    assert _exit_code([entry("issues", [{}], refuted)]) == 1


def test_oracle_exits_one_on_the_memory_output_address_gap(tmp_path):
    # the checker calls this compliant (the m output's address may use
    # %0's register, which is written first), the oracle refutes it
    src = 'void f(int x, int *p) {\n  asm ("movl $0, %0; movl $1, %1" : "=r" (x), "=m" (*p));\n}\n'
    code, rep = run_json(["oracle", "--trials", "100", write(tmp_path, "gap.c", src)], tmp_path)
    entry = rep["chunks"][0]
    assert entry["verdict"] == "compliant"
    assert {p["verdict"] for p in entry["oracle"].values()} == {"violation"}
    assert code == 1


def test_exit_two_on_bad_usage(tmp_path, capsys):
    assert run(["check", str(tmp_path / "missing.c")]) == 2
    assert run(["frobnicate"]) == 2
    capsys.readouterr()
    # an option of another command
    path = write(tmp_path, "g.c", CLEAN_SRC)
    for argv, option in [
        (["check", "--trials", "5"], "--trials"),
        (["oracle", "--in-place"], "--in-place"),
    ]:
        assert run([*argv, path]) == 2, argv
        assert f"unrecognized arguments: {option}" in capsys.readouterr().err, argv


# the options each command reads, and takes: 16 in all
OPTIONS = {
    "check": {"--format", "--out", "--chunks"},
    "patch": {"--format", "--out", "--chunks", "--in-place"},
    "refine": {"--format", "--out", "--chunks", "--in-place"},
    "oracle": {"--format", "--out", "--chunks", "--seed", "--trials"},
}


def test_each_command_takes_only_the_options_it_reads():
    (commands,) = [a for a in cli._parser()._actions if isinstance(a, argparse._SubParsersAction)]
    got = {}
    for name, sub in commands.choices.items():
        got[name] = {o for a in sub._actions for o in a.option_strings} - {"-h", "--help"}
        assert [a.dest for a in sub._actions if not a.option_strings] == ["files"], name
    assert got == OPTIONS
    assert sum(map(len, got.values())) == 16


@pytest.mark.parametrize(
    "option, value",
    [("--trials", "-5"), ("--trials", "0")],
)
def test_trial_count_and_cap_below_one_are_bad_usage(tmp_path, capsys, option, value):
    """Not a pass of -5 trials, nor an inconclusive verdict of none."""
    assert run(["oracle", option, value, write(tmp_path, "g.c", CLEAN_SRC)]) == 2
    assert f"argument {option}" in capsys.readouterr().err
    script = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_corpus.py"), "--oracle", option, value],
        capture_output=True, text=True,
    )
    assert script.returncode == 2 and f"argument {option}" in script.stderr


# ---------------------------------------------------------------------------
# Formats and outputs


def test_json_schema_and_stdout(tmp_path, capsys):
    code = run(["check", write(tmp_path, "g.c", CLEAN_SRC)])
    out = capsys.readouterr().out
    rep = json.loads(out)
    assert code == 0 and rep["schema"] == 1
    assert {"chunks", "schema", "summary"} == set(rep)


def test_text_format(tmp_path, capsys):
    run(["check", "--format", "text", write(tmp_path, "f.c", FAULTY_SRC)])
    out = capsys.readouterr().out
    assert "f.c:2: issues" in out
    assert out.rstrip().splitlines()[-1].startswith("summary:")


def test_chunk_file_input(tmp_path):
    code, rep = run_json(["check", "--chunks", "corpus/corpus.json"], tmp_path)
    assert code == 1  # the corpus includes faulty chunks on purpose
    assert rep["summary"]["chunks"] >= 60


# ---------------------------------------------------------------------------
# Patch / refine round trips


def test_patch_reports_edits_and_diff(tmp_path):
    path = write(tmp_path, "f.c", FAULTY_SRC)
    code, rep = run_json(["patch", path], tmp_path)
    assert code == 1
    patch = rep["chunks"][0]["patch"]
    assert patch["verification"]["fully_compliant"] is True
    assert patch["unresolved"] == []
    assert patch["diff"].startswith("--- a/")


def test_patch_in_place_round_trip(tmp_path):
    path = write(tmp_path, "f.c", FAULTY_SRC)
    code, _ = run_json(["patch", "--in-place", path], tmp_path)
    assert code == 1  # reports the pre-patch findings
    patched = open(path).read()
    assert '"cc"' in patched
    code, rep = run_json(["check", path], tmp_path)
    assert code == 0
    assert rep["chunks"][0]["verdict"] == "compliant"


def test_patch_in_place_file_named_twice(tmp_path):
    path = write(tmp_path, "f.c", FAULTY_SRC + FAULTY_SRC)
    run_json(["patch", "--in-place", path], tmp_path)
    once = open(path).read()
    write(tmp_path, "f.c", FAULTY_SRC + FAULTY_SRC)
    run_json(["patch", "--in-place", path, path], tmp_path)
    assert open(path).read() == once
    assert once.count('"cc"') == 2


QUALIFIER_SPELLINGS_SRC = (
    "int q(int x) {\n"
    '  asm __volatile ("incl %0" : "+r" (x));\n'
    '  asm __inline ("incl %0" : "+r" (x));\n'
    '  asm __inline__ ("nop");\n'
    '  __asm volatile ("incl %0" : "+r" (x) : : "cc");\n'
    "  return x;\n"
    "}\n"
)


def test_every_gcc_qualifier_spelling_is_scanned(tmp_path):
    path = write(tmp_path, "q.c", QUALIFIER_SPELLINGS_SRC)
    code, rep = run_json(["check", path], tmp_path)
    assert code == 1
    assert [c["span"]["line"] for c in rep["chunks"]] == [2, 3, 4, 5]
    assert [c["verdict"] for c in rep["chunks"]] == ["issues", "issues", "compliant", "compliant"]
    run_json(["patch", "--in-place", path], tmp_path)
    lines = open(path).read().splitlines()
    assert lines[1] == '  asm volatile ("incl %0" : "+r" (x) :  : "cc");'
    assert lines[2] == '  asm inline ("incl %0" : "+r" (x) :  : "cc");'
    assert lines[3:5] == QUALIFIER_SPELLINGS_SRC.splitlines()[3:5]


MULTILINE_SRC = (
    "int m(int x, int y) {\n"
    "  int z = x;\n"
    '  asm ("addl %1, %0"\n'
    '       : "+r" (x)\n'
    '       : "r" (y));\n'
    '  asm ("movl %1, %0" : "=r" (z) : "r" (y));\n'
    "  return x + z;\n"
    "}\n"
)


def test_patch_in_place_keeps_crlf_line_ends(tmp_path):
    lf = tmp_path / "lf.c"
    crlf = tmp_path / "crlf.c"
    lf.write_bytes(MULTILINE_SRC.encode())
    crlf.write_bytes(MULTILINE_SRC.replace("\n", "\r\n").encode())
    _, lf_rep = run_json(["patch", "--in-place", str(lf)], tmp_path)
    _, crlf_rep = run_json(["patch", "--in-place", str(crlf)], tmp_path)
    spans = [(c["span"]["line"], c["span"]["column"]) for c in crlf_rep["chunks"]]
    assert spans == [(c["span"]["line"], c["span"]["column"]) for c in lf_rep["chunks"]]
    assert spans == [(3, 3), (6, 3)]
    patched = lf.read_bytes().decode()
    assert patched != MULTILINE_SRC and patched.count("asm") == 2
    assert crlf.read_bytes().decode() == patched.replace("\n", "\r\n")


def test_line_comment_in_lone_cr_file_hides_no_statement(tmp_path):
    path = tmp_path / "cr.c"
    path.write_bytes(
        b'int f(int x)\r{\r  // note\r  asm ("incl %0" : "+r" (x));\r  return x;\r}\r'
    )
    code, rep = run_json(["check", str(path)], tmp_path)
    assert code == 1
    assert [c["issues"][0]["category"] for c in rep["chunks"]] == ["FlagClobbered"]


def test_lone_cr_file_reports_the_line_gcc_gives(tmp_path):
    path = tmp_path / "cr.c"
    path.write_bytes(
        b'int f(int x)\r{\r  // note\r  asm ("incl %0" : "+r" (x));\r  return x;\r}\r'
    )
    _, rep = run_json(["check", str(path)], tmp_path)
    assert [(c["span"]["line"], c["span"]["column"]) for c in rep["chunks"]] == [(4, 3)]


def test_refine_in_place_round_trip(tmp_path):
    path = write(tmp_path, "r.c", REFINABLE_SRC)
    code, rep = run_json(["refine", "--in-place", path], tmp_path)
    assert code == 0
    edits = rep["chunks"][0]["refinements"]["edits"]
    assert any(e["edit"] == "DropInput" for e in edits)
    refined = open(path).read()
    assert "dead" not in refined.split("asm")[1].split(";")[0]
    code, rep = run_json(["check", path], tmp_path)
    assert code == 0 and rep["chunks"][0]["verdict"] == "compliant"


def _assert_gcc_assembles(path):
    """`gcc -m32 -c` takes the file; skipped where gcc cannot compile
    i386 code at all."""
    obj = path.with_suffix(".o")
    empty = path.with_name("empty.c")
    empty.write_text("")
    try:
        probe = subprocess.run(["gcc", "-m32", "-c", "-o", str(obj), str(empty)], capture_output=True)
    except OSError as e:
        pytest.skip(f"gcc cannot run: {e}")
    if probe.returncode:
        pytest.skip(f"gcc -m32 cannot compile: {probe.stderr.decode()}")
    done = subprocess.run(["gcc", "-m32", "-c", "-o", str(obj), str(path)], capture_output=True)
    assert done.returncode == 0, done.stderr.decode()


def test_refine_in_place_keeps_a_statement_without_operands_extended(tmp_path):
    """Both clobbers go, and the rewritten statement keeps a colon: as
    basic asm, GCC would read %%eax as a register named %eax."""
    path = write(
        tmp_path, "r.c",
        'void f(void) {\n  asm volatile ("movl %%eax, %%eax" : : : "cc", "memory");\n}\n',
    )
    code, rep = run_json(["refine", "--in-place", path], tmp_path)
    assert code == 0
    assert open(path).read().splitlines()[1] == '  asm volatile ("movl %%eax, %%eax" : );'
    _assert_gcc_assembles(tmp_path / "r.c")


SIZED_SRC = (
    "char s(char x, char y) {\n"
    '  asm ("movb %1, %0; addb $1, %0" : "=q" (y /* size:1 */) : "q" (x /* size:1 */));\n'
    "  return y;\n"
    "}\n"
)
WIDE_READ_SRC = (
    "int w(int *p) {\n"
    "  int s;\n"
    '  asm ("movl (%1), %0\\nxorl 4(%1), %0" : "=&r" (s) : "r" (p) : "cc", "memory");\n'
    "  return s;\n"
    "}\n"
)


def test_patch_in_place_keeps_size_notes(tmp_path):
    path = write(tmp_path, "s.c", SIZED_SRC)
    _, rep = run_json(["patch", "--in-place", path], tmp_path)
    assert rep["chunks"][0]["patch"]["verification"]["fully_compliant"]
    patched = open(path).read()
    assert '"=q" (y /* size:1 */) : "q" (x /* size:1 */) : "cc"' in patched
    code, rep = run_json(["check", path], tmp_path)
    assert code == 0 and rep["chunks"][0]["verdict"] == "compliant"


def test_refine_in_place_keeps_the_size_of_a_memory_entry(tmp_path):
    path = write(tmp_path, "w.c", WIDE_READ_SRC)
    run_json(["refine", "--in-place", path], tmp_path)
    assert '"m" (*(p) /* size:8 */)' in open(path).read()
    code, rep = run_json(["check", path], tmp_path)
    assert code == 0 and rep["chunks"][0]["verdict"] == "compliant"


def test_oracle_command(tmp_path):
    code, rep = run_json(
        ["oracle", "--trials", "50", write(tmp_path, "f.c", FAULTY_SRC)], tmp_path
    )
    assert code == 1
    oracle = rep["chunks"][0]["oracle"]
    assert oracle["frame_write"]["verdict"] == "violation"
    assert "witness" in oracle["frame_write"]


def test_oracle_property_times_only_under_ric_timings(tmp_path, monkeypatch):
    args = ["oracle", "--trials", "5", write(tmp_path, "g.c", CLEAN_SRC)]
    monkeypatch.delenv("RIC_TIMINGS", raising=False)
    _, rep = run_json(args, tmp_path)
    assert all("ms" not in entry for entry in rep["chunks"][0]["oracle"].values())
    monkeypatch.setenv("RIC_TIMINGS", "1")
    _, rep = run_json(args, tmp_path)
    entries = rep["chunks"][0]["oracle"].values()
    assert len(entries) == 3 and all(entry["ms"] >= 0 for entry in entries)


# ---------------------------------------------------------------------------
# Text view of patch, refine and oracle entries


def _no_reprs(out):
    assert "{'" not in out and "[{" not in out


def test_patch_text_has_a_line_per_edit(tmp_path, capsys):
    run(["patch", "--format", "text", write(tmp_path, "f.c", FAULTY_SRC)])
    out = capsys.readouterr().out
    _no_reprs(out)
    assert "  patch edit: AddClobber name=cc\n" in out
    assert (
        "  patch verification: framing_ok yes, fully_compliant yes,"
        " interface_satisfiable yes\n" in out
    )
    assert '  patch statement: asm ("addl %1, %0" : "+r" (x) : "r" (y) : "cc")\n' in out


def test_refine_text_has_a_line_per_edit(tmp_path, capsys):
    run(["refine", "--format", "text", write(tmp_path, "r.c", REFINABLE_SRC)])
    out = capsys.readouterr().out
    _no_reprs(out)
    assert "  refine edit: DropInput position=2\n" in out
    assert '  refine statement: asm ("movl %1, %0" : "=r" (x) : "r" (y))\n' in out


def test_refine_text_spans(capsys):
    run(["refine", "--format", "text", "--chunks", "corpus/corpus.json"])
    out = capsys.readouterr().out
    _no_reprs(out)
    assert "  refine edit: MemoryToEntries spans=in %1[0:4] suggestion_only=False\n" in out


def test_oracle_text_has_a_line_per_property(tmp_path, capsys):
    run(["oracle", "--trials", "50", "--format", "text", write(tmp_path, "f.c", FAULTY_SRC)])
    out = capsys.readouterr().out
    _no_reprs(out)
    lines = [line for line in out.splitlines() if line.startswith("  oracle ")]
    assert [line.split(":")[0] for line in lines] == [
        "  oracle frame_write",
        "  oracle frame_read",
        "  oracle unicity",
    ]
    assert lines[0].startswith("  oracle frame_write: violation (")
    assert " at flag:" in lines[0] and " under %0=%" in lines[0]


# ---------------------------------------------------------------------------
# Sources that are not UTF-8

LATIN1_SRC = b"/* caf\xe9 */\n" + CLEAN_SRC.encode()
# a statement holding a Latin-1 byte itself, in an operand's character
# literal (a comment in an operand is dropped, as GCC does)
LATIN1_STMT = b'  asm ("addl %1, %0" : "+r" (x) : "r" (y + \'\xff\'));\n'


def test_check_reads_a_latin1_file(tmp_path):
    path = tmp_path / "l.c"
    path.write_bytes(LATIN1_SRC)
    code, rep = run_json(["check", str(path)], tmp_path)
    assert code == 0
    assert [c["verdict"] for c in rep["chunks"]] == ["compliant"]


def test_patch_in_place_keeps_latin1_bytes(tmp_path, capsys):
    path = tmp_path / "l.c"
    before = LATIN1_SRC + b"int f(int x, int y) {\n" + LATIN1_STMT + b"}\n"
    path.write_bytes(before)
    assert run(["patch", "--in-place", "--format", "text", str(path)]) == 1
    out = capsys.readouterr().out
    statement = 'asm ("addl %1, %0" : "+r" (x) : "r" (y + \'\\xff\') : "cc")'
    assert f"  patch statement: {statement}\n" in out
    patched = b'  asm ("addl %1, %0" : "+r" (x) : "r" (y + \'\xff\') : "cc");\n'
    assert path.read_bytes() == before.replace(LATIN1_STMT, patched)


# ---------------------------------------------------------------------------
# Reproducibility


def test_reports_are_byte_identical_across_runs(tmp_path, monkeypatch):
    monkeypatch.delenv("RIC_TIMINGS", raising=False)
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert run(["check", "--chunks", "corpus/corpus.json", "--out", str(a)]) == 1
    assert run(["check", "--chunks", "corpus/corpus.json", "--out", str(b)]) == 1
    assert a.read_bytes() == b.read_bytes()


# sha256 of the report of `ric <command> --chunks corpus/corpus.json`, as
# TRIAL_STREAM_SHA256 pins the oracle's: a change to one is a change of
# what ric reports on the corpus, reviewed as one
REPORT_SHA256 = {
    "check": "bb8f0dd5c6acb376f477e31e3c928c96f77827c4f51402df6ebc4a6cd8763974",
    "patch": "1bfd6fe685f7fdbbbf99681975224b773929733ce83c3804b142817f95596305",
    "refine": "b5d0af8f2c9e7788cfd8b5dfe462de44ff57f095399feff3c7724a3a05a9235b",
}


@pytest.mark.parametrize("command", sorted(REPORT_SHA256))
def test_corpus_reports_are_pinned(command, tmp_path, monkeypatch):
    monkeypatch.delenv("RIC_TIMINGS", raising=False)
    out = tmp_path / f"{command}.json"
    assert run([command, "--chunks", str(CORPUS), "--out", str(out)]) == 1
    assert "internal error" not in out.read_text()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == REPORT_SHA256[command]
