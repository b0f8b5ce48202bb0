"""Statement shapes (chunks.statement_shape) and the reuse that all four
commands build on them: two bodies with one shape parse and check to
report entries that differ only in the span, so a statement whose shape
was seen before is neither parsed nor analysed, its patch or refinement
is the first one's renamed, and its oracle verdicts are the first
one's."""

import json
import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ric import checker, chunks, oracle, pool
from ric.checker import check_chunk
from ric.chunks import SourceSpan, load_chunk_records, statement_shape
from ric.cli import run
from ric.errors import BadConstraintChar, MalformedInterface
from ric.report import build_report, chunk_report, json_text

from conftest import CORPUS, ROOT, parse_c_text

CHUNKS = load_chunk_records(json.loads(CORPUS.read_text(encoding="utf-8")), str(CORPUS))
_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def generated(count, seed):
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import gen
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    records = json.loads(CORPUS.read_text(encoding="utf-8"))
    return gen.generate(records, count, seed).text


def run_check(tmp_path, source):
    path = tmp_path / "s.c"
    path.write_text(source, encoding="utf-8")
    out = tmp_path / "report.json"
    code = run(["check", "--out", str(out), str(path)])
    return code, out.read_text(encoding="utf-8")


# ---------------------------------------------------------------------------
# Bodies built from corpus chunks
#
# A body is a list of pieces: ("lit", text) is written as it is, and
# ("code", label) and ("verb", label) write the identifier that a
# renaming gives the label, in code or inside a comment or a bracketed
# name, where the shape keeps it verbatim.

CODE_NAMES = st.from_regex(r"[a-z]{1,3}_[0-9]{1,2}", fullmatch=True)
COMMENT_WORDS = st.sampled_from(["size", "sz", "note"])
BRACKET_NAMES = st.sampled_from(["nm", "dst", "src", "v_1"])
BLANKS = st.sampled_from(["", " ", "  ", "\n    ", "\t"])


def _c_string(text):
    text = text.replace("\\", "\\\\").replace('"', '\\"')
    return '"' + text.replace("\n", "\\n").replace("\r", "\\r") + '"'


def _expr_pieces(text):
    pieces = []
    last = 0
    for m in _IDENT.finditer(text):
        pieces += [("lit", text[last : m.start()]), ("code", m.group())]
        last = m.end()
    return pieces + [("lit", text[last:])]


@st.composite
def decorated(draw, expr, others):
    """The pieces of an operand expression, in one of the forms C code
    gives them; others are the other entries' expressions."""
    other = _expr_pieces(draw(st.sampled_from(others))) if others else expr
    kind = draw(
        st.sampled_from(
            ["plain", "anchor", "deref", "cast", "sizeof", "hex", "char", "string",
             "index", "subscript"]
        )
    )
    if kind == "anchor":
        k = draw(st.sampled_from(["0", "4", "8"]))
        return [("lit", "*(")] + other + [("lit", f" + {k})")]
    if kind == "deref":
        return [("lit", "*")] + other
    if kind == "cast":
        return [("lit", "(unsigned)")] + expr
    if kind == "sizeof":
        return expr + [("lit", " + sizeof(int)")]
    if kind == "hex":
        return expr + [("lit", " + 0x10")]
    if kind == "char":
        return expr + [("lit", " + 'p'")]
    if kind == "string":
        return [("lit", 'sizeof "p_1 x" + ')] + expr
    if kind == "index":
        return expr + [("lit", "[2]")]
    if kind == "subscript":
        # [name] keeps its identifier verbatim, as a bracketed name
        return expr + [("lit", "[")] + [("verb", label) for _, label in other[1:2]] + [("lit", "]")]
    return expr


@st.composite
def entry_pieces(draw, entry, others):
    pieces = []
    if draw(st.booleans()):
        pieces += [("lit", "[" + draw(BLANKS)), ("verb", "name" + str(entry.position))]
        pieces += [("lit", draw(BLANKS) + "] ")]
    pieces.append(("lit", f'"{entry.constraint}"{draw(BLANKS)}('))
    pieces += draw(decorated(_expr_pieces(entry.expr_text), others))
    size = entry.size_bytes if entry.size_bytes != 4 else draw(st.sampled_from([4, 1, 3]))
    if entry.size_bytes != 4 or draw(st.booleans()):
        pieces += [("lit", " /* "), ("verb", "comment"), ("lit", f":{size} */")]
    return pieces + [("lit", ")")]


@st.composite
def bodies(draw):
    chunk = draw(st.sampled_from(CHUNKS))
    texts = [e.expr_text for e in chunk.entries]
    pieces = [("lit", _c_string(chunk.template))]
    for section in (chunk.outputs, chunk.inputs):
        pieces.append(("lit", draw(BLANKS) + ":" + draw(BLANKS)))
        for i, e in enumerate(section):
            if i:
                pieces.append(("lit", "," + draw(BLANKS)))
            others = [t for t in texts if t != e.expr_text]
            pieces += draw(entry_pieces(e, others))
    if chunk.clobbers:
        clobbers = ", ".join(_c_string(c) for c in chunk.clobbers)
        pieces.append(("lit", " : " + clobbers))
    return pieces


@st.composite
def renamings(draw, pieces):
    """The names of a body's identifier pieces in two bodies: in the
    first a one-to-one renaming of the labels, in the second another one,
    which may keep the first's verbatim names, and in which a few code
    pieces may be written as some other name."""
    labels = sorted({(kind, label) for kind, label in pieces if kind != "lit"})

    def one_to_one():
        codes = [label for kind, label in labels if kind == "code"]
        names = draw(st.lists(CODE_NAMES, min_size=len(codes), max_size=len(codes), unique=True))
        out = dict(zip(codes, names))
        for kind, label in labels:
            if kind == "verb" and label not in out:
                out[label] = draw(COMMENT_WORDS if label == "comment" else BRACKET_NAMES)
        return out

    first = one_to_one()
    if "comment" in first and draw(st.booleans()):
        first["comment"] = "size"  # most comments are size notes
    second = one_to_one()
    if draw(st.booleans()):
        second.update((label, first[label]) for kind, label in labels if kind == "verb")
    names_a, names_b = [], []
    for kind, label in pieces:
        if kind == "lit":
            continue
        names_a.append(first[label])
        name = second[label]
        if kind == "code" and draw(st.integers(0, 9)) == 0:
            name = draw(st.sampled_from(sorted(set(first.values()) | {"q_fresh"})))
        names_b.append(name)
    return names_a, names_b


def render_body(pieces, names):
    """The body text, the i-th identifier piece written as names[i]."""
    out = []
    it = iter(names)
    for kind, text in pieces:
        out.append(text if kind == "lit" else next(it))
    return "".join(out)


def first_occurrences(names):
    seen = {}
    return [seen.setdefault(n, len(seen)) for n in names]


SPAN_A = SourceSpan("a.c", 1, 3, 0, 0)
SPAN_B = SourceSpan("b.c", 7, 5, 0, 0)


def entry(body, span):
    """The report entry of the body, span and timings aside; or the
    class of its parse error."""
    try:
        chunk = chunks.parse_asm_statement(body, span)
    except (MalformedInterface, BadConstraintChar) as e:
        return type(e).__name__
    out = chunk_report(check_chunk(chunk))
    del out["span"], out["timings"]
    return out


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_bodies_of_one_shape_report_alike(data):
    pieces = data.draw(bodies())
    names_a, names_b = data.draw(renamings(pieces))
    a = render_body(pieces, names_a)
    b = render_body(pieces, names_b)
    kinds = [kind for kind, _ in pieces if kind != "lit"]
    verbatim_same = all(x == y for k, x, y in zip(kinds, names_a, names_b) if k == "verb")
    code_a = [x for k, x in zip(kinds, names_a) if k == "code"]
    code_b = [y for k, y in zip(kinds, names_b) if k == "code"]
    same = verbatim_same and first_occurrences(code_a) == first_occurrences(code_b)
    assert (statement_shape(a)[0] == statement_shape(b)[0]) == same, (a, b)
    if same:
        assert entry(a, SPAN_A) == entry(b, SPAN_B), (a, b)


@pytest.mark.parametrize(
    "a, b",
    [
        # a rename that breaks an anchor: *(p + 4) no longer names %1
        (
            '"movl $0, 4(%1)" : "=m" (*(p + 4)) : "r" (p)',
            '"movl $0, 4(%1)" : "=m" (*(p + 4)) : "r" (q)',
        ),
        ('"movl $0, %0" : "=m" (*p) : "r" (p)', '"movl $0, %0" : "=m" (*p) : "r" (q)'),
        # an anchor's offset, and an anchor against a plain operand
        (
            '"movl $0, 4(%1)" : "=m" (*(p + 4)) : "r" (p)',
            '"movl $0, 4(%1)" : "=m" (*(p + 8)) : "r" (p)',
        ),
        ('"movl $0, %0" : "=m" (*(p)) : "r" (p)', '"movl $0, %0" : "=m" (p) : "r" (p)'),
        # bracketed names, with the blanks and comments the parser skips
        ('"movl %[a], %0" : "=r" (x) : [a] "r" (y)', '"movl %[a], %0" : "=r" (x) : [b] "r" (y)'),
        ('"" : [ /* c */ a // d\n ] "=r" (x)', '"" : [ /* c */ b // d\n ] "=r" (x)'),
        # a name against none, and two names swapped
        ('"movl %1, %0" : "=r" (x) : [a] "r" (y)', '"movl %1, %0" : "=r" (x) : "r" (y)'),
        (
            '"movl %[src], %[dst]" : [dst] "=r" (x) : [src] "r" (y)',
            '"movl %[src], %[dst]" : [src] "=r" (x) : [dst] "r" (y)',
        ),
        # a size note lives in a comment
        ('"" : "=q" (x /* size:1 */)', '"" : "=q" (x /* note:1 */)'),
        ('"" : "=q" (x // size:1\n)', '"" : "=q" (x // sz:1\n)'),
        # the size a note gives, and a note against none
        ('"" : "=q" (x /* size:1 */)', '"" : "=q" (x /* size:2 */)'),
        ('"" : "=q" (x /* size:1 */)', '"" : "=q" (x)'),
        # literals
        ('"incl %0" : "+r" (x)', '"decl %0" : "+r" (x)'),
        ('"" : : "r" (x + \'a\')', '"" : : "r" (x + \'b\')'),
        ('"" : : "r" ("a" + x)', '"" : : "r" ("b" + x)'),
    ],
)
def test_what_the_parser_or_checker_reads_changes_the_shape(a, b):
    assert statement_shape(a)[0] != statement_shape(b)[0]


def test_consistent_renamings_keep_the_shape():
    a = '"movl $0, 4(%1)" : "=m" (*(p + 4) /* size:4 */) : "r" (p), "r" (v[2] + 0x10)'
    b = '"movl $0, 4(%1)" : "=m" (*(ptr_9 + 4) /* size:4 */) : "r" (ptr_9), "r" (w[2] + 0x10)'
    assert statement_shape(a)[0] == statement_shape(b)[0]
    assert (statement_shape(a)[1], statement_shape(b)[1]) == (("p", "v"), ("ptr_9", "w"))


@pytest.mark.parametrize("eol", ["\n", "\r\n", " \t\n"])
def test_a_body_with_a_line_splice_has_no_shape(eol):
    assert statement_shape(f'"incl %0" : "+r" (f\\{eol}oo)') == (None, ())
    assert statement_shape('"incl %0\\n" : "+r" (foo)')[0] is not None


SPLICE_SRC = (
    "void f(int x, int *foo, int *bax) {\n"
    '  asm ("movl (%1), %0" : "=r" (x) : "r" (foo), "m" (*fo\\\no));\n'
    '  asm ("movl (%1), %0" : "=r" (x) : "r" (bax), "m" (*ba\\\nr));\n'
    "}\n"
)


def test_spliced_statements_are_checked_each(tmp_path):
    """The parser deletes the splice, so *fo\\o names the bytes "r" (foo)
    points to and *ba\\r names nothing: the first load is declared, the
    second is serious."""
    code, text = run_check(tmp_path, SPLICE_SRC)
    first, second = json.loads(text)["chunks"]
    assert first["verdict"] == "compliant" and second["verdict"] == "issues"
    assert [i["category"] for i in second["issues"]] == ["UnboundMemoryRead"]


# Statements of a few shapes, most of them twice: a cast whose qualifier
# word is one of the shape's names, one shape under asm, __asm__ and
# __asm with other qualifiers, inputs clobbered where the patch adds an
# output named _ric_dummy<n> that must differ from the operand text,
# refinements that write operand text, and a last statement with no
# line break after it.
PROBE_SRC = (
    "void f(int *p, const int *q, int x, int y, int z, int _ric_dummy0, int x_ric_dummy0z) {\n"
    '  asm volatile ("addl $1, %0" : "+r" (*(volatile int *)p));\n'
    '  asm volatile ("addl $1, %0" : "+r" (*(const int *)q));\n'
    '  asm ("addl %1, %0" : "+r" (x) : "r" (y));\n'
    '  __asm__ volatile ("addl %1, %0" : "+r" (y) : "r" (x));\n'
    '  __asm __inline ("addl %1, %0" : "+r" (p) : "r" (q));\n'
    '  asm ("incl %%eax" : : "a" (x) : "cc");\n'
    '  asm ("incl %%eax" : : "a" (_ric_dummy0) : "cc");\n'
    '  asm ("incl %%eax" : : "a" (y) : "cc");\n'
    '  asm ("incl %%eax" : : "a" (x_ric_dummy0z) : "cc");\n'
    '  asm volatile ("nop" : "=r" (*(volatile int *)p));\n'
    '  asm inline ("nop" : "=r" (*(const int *)q /* size:4 */));\n'
    '  asm ("movl %1, %0" : "=r" (x) : "r" (y), "r" (z));\n'
    '  asm ("movl %1, %0" : "=r" (y) : "r" (z), "r" (x));\n'
    '  asm ("movl (%1), %0" : "=r" (x /* p */) : "r" (p + sizeof "p") : "memory");\n'
    '  asm ("movl (%1), %0" : "=r" (y /* p */) : "r" (q + sizeof "p") : "memory");\n'
    '  asm ("movl $0, 4(%1)" : "=m" (*(p + 4)) : "r" (p));\n'
    '  asm ("movl $0, 4(%1)" : "=m" (*(q + 4)) : "r" (q));\n'
    "}\n"
    '  asm ("addl %1, %0" : "+r" (q) : "r" (p));'
)


def run_fixes(tmp_path, source, capsys):
    """`ric patch --in-place`, then `ric refine --in-place`, on source:
    each one's exit code, report, standard error and the file it leaves."""
    path = tmp_path / "s.c"
    path.write_bytes(source.encode())
    out = []
    for command in ("patch", "refine"):
        report = tmp_path / "report.json"
        code = run([command, "--in-place", "--out", str(report), str(path)])
        out.append((code, report.read_text(encoding="utf-8"), capsys.readouterr().err, path.read_bytes()))
    return out


def test_check_reports_as_without_reuse(tmp_path, monkeypatch, capsys):
    """The report of `ric check` on a generated file equals the one
    built from every statement's own parse and check. On that file and
    on the probe statements, `ric patch --in-place` and `ric refine
    --in-place` report and rewrite as they do when no statement has a
    shape, though they parse fewer statements."""
    monkeypatch.delenv("RIC_TIMINGS", raising=False)
    source = generated(400, 1)
    found, diagnostics = parse_c_text(source, str(tmp_path / "s.c"))
    assert not diagnostics
    fresh = build_report([chunk_report(check_chunk(c)) for c in found])
    code, text = run_check(tmp_path, source)
    assert text == json_text(fresh) + "\n"

    parse = chunks.parse_asm_statement
    parsed = []

    def counted_parse(*args):
        parsed.append(args[1].line)
        return parse(*args)

    monkeypatch.setattr(chunks, "parse_asm_statement", counted_parse)
    for source in (source, PROBE_SRC):
        reused = run_fixes(tmp_path, source, capsys)
        reused_parses = len(parsed)
        with monkeypatch.context() as m:
            m.setattr(chunks, "statement_shape", lambda raw: (None, ()))
            assert run_fixes(tmp_path, source, capsys) == reused
        assert reused_parses < len(parsed) - reused_parses
        parsed.clear()


def test_check_parses_and_analyzes_each_shape_once(tmp_path, monkeypatch):
    """`ric check` parses and analyses the first statement of each of
    the 54 shapes of the 3 000-statement file of seed 0, and no other,
    and `ric oracle` on one worker builds one OracleRun for each of
    them. On the 800-statement file, `ric patch --in-place` and `ric refine
    --in-place` parse only the first statement of each shape, diffs
    included, analyse it and re-check its candidate edits."""
    parsed = []
    analyzed = []
    parse, analyze = chunks.parse_asm_statement, checker._analyze

    def counted_parse(*args):
        parsed.append(args[1].line)
        return parse(*args)

    def counted_analyze(chunk, opts):
        analyzed.append(chunk.span.line)
        return analyze(chunk, opts)

    monkeypatch.setattr(chunks, "parse_asm_statement", counted_parse)
    monkeypatch.setattr(checker, "_analyze", counted_analyze)
    code, text = run_check(tmp_path, generated(3000, 0))
    assert len(json.loads(text)["chunks"]) == 3000
    assert len(parsed) == len(analyzed) == 54

    monkeypatch.setattr(pool, "workers", lambda count: 1)
    init = oracle.OracleRun.__init__
    built = []

    def counted_init(self, result, cfg):
        built.append(result.chunk.span.line)
        init(self, result, cfg)

    monkeypatch.setattr(oracle.OracleRun, "__init__", counted_init)
    out = tmp_path / "report.json"
    run(["oracle", "--trials", "1", "--out", str(out), str(tmp_path / "s.c")])
    assert len(json.loads(out.read_text())["chunks"]) == 3000
    assert len(built) == 54

    source = generated(800, 0)
    for command, most in (("patch", 66), ("refine", 64)):
        parsed.clear()
        analyzed.clear()
        path = tmp_path / "s.c"
        path.write_text(source, encoding="utf-8")
        out = tmp_path / "report.json"
        run([command, "--in-place", "--out", str(out), str(path)])
        assert len(json.loads(out.read_text())["chunks"]) == 800
        assert len(parsed) == 54, command
        assert len(analyzed) <= most, command


def test_reused_entries_time_only_the_lookup(tmp_path, monkeypatch):
    """A reused entry times only its shape and lookup, and its oracle
    properties carry no time, since no trial ran for them."""
    monkeypatch.setenv("RIC_TIMINGS", "1")
    source = "".join(
        f'void f{i}(int x{i}) {{ asm ("incl %0" : "+r" (x{i}) : : "cc"); }}\n' for i in range(3)
    )
    code, text = run_check(tmp_path, source)
    first, *rest = json.loads(text)["chunks"]
    assert set(first["timings"]) >= {"lift_ms", "forward_ms", "total_ms"}
    assert [set(e["timings"]) for e in rest] == [{"total_ms"}] * 2
    assert [e["span"]["line"] for e in rest] == [2, 3]

    out = tmp_path / "report.json"
    run(["oracle", "--trials", "2", "--out", str(out), str(tmp_path / "s.c")])
    first, *rest = json.loads(out.read_text())["chunks"]
    assert all("ms" in p for p in first["oracle"].values())
    assert [set(e["timings"]) for e in rest] == [{"total_ms"}] * 2
    untimed = {prop: {k: v for k, v in p.items() if k != "ms"} for prop, p in first["oracle"].items()}
    assert [e["oracle"] for e in rest] == [untimed] * 2


def test_statements_that_do_not_parse_are_not_reused(tmp_path, capsys):
    source = (
        'void f(int x) { asm ("incl %0" : "+A" (x)); }\n'
        'void g(int y) { asm ("incl %0" : "+A" (y)); }\n'
    )
    code, text = run_check(tmp_path, source)
    entries = json.loads(text)["chunks"]
    assert code == 1 and [e["verdict"] for e in entries] == ["error", "error"]
    assert [e["span"]["line"] for e in entries] == [1, 2]
    err = capsys.readouterr().err
    assert err.count("unsupported constraint character 'A'") == 2


def _crash_at(monkeypatch, file, line):
    """Make the check of the statement at file:line raise, as a checker
    defect would; the lines of the checks made, in this process."""
    analyze = checker._analyze
    calls = []

    def crashing(chunk, opts):
        calls.append(chunk.span.line)
        if chunk.span.file.endswith(file) and chunk.span.line == line:
            raise RecursionError("maximum recursion depth exceeded")
        return analyze(chunk, opts)

    monkeypatch.setattr(checker, "_analyze", crashing)
    return calls


def test_a_statement_whose_check_fails_is_not_reused(tmp_path, monkeypatch, capsys):
    """In every command, a first statement whose analysis fails is never
    reused: each later statement of its shape is parsed and analysed on
    its own. Standard error gives the lines of statements that do not
    parse first, then those of failed analyses, each in input order."""
    monkeypatch.setattr(pool, "workers", lambda count: 1)
    source = (
        'void f(int x) { asm ("incl %0" : "+r" (x) : : "cc"); }\n'
        'void g(int y) { asm ("incl %0" : "+r" (y) : : "cc"); }\n'
        'void h(int z) { asm ("incl %0" : "+A" (z)); }\n'
        'void k(int w) { asm ("incl %0" : "+r" (w) : : "cc"); }\n'
    )
    path = tmp_path / "s.c"
    out = tmp_path / "report.json"
    calls = _crash_at(monkeypatch, "s.c", 1)
    for command in ("check", "patch", "refine", "oracle"):
        calls.clear()
        path.write_text(source, encoding="utf-8")
        trials = ["--trials", "2"] if command == "oracle" else []
        assert run([command, *trials, "--out", str(out), str(path)]) == 1
        entries = json.loads(out.read_text(encoding="utf-8"))["chunks"]
        assert [e["verdict"] for e in entries] == ["error", "compliant", "error", "compliant"]
        assert entries[0]["details"].startswith("internal error: RecursionError")
        assert sorted(set(calls)) == [1, 2, 4], command
        first, second = capsys.readouterr().err.splitlines()
        assert first.endswith("s.c:3: unsupported constraint character 'A'")
        assert "s.c:1: internal error: RecursionError" in second


ORACLE_PROBE_SRC = (
    "void f(int *p, int *q, int x, int y, int _ric_dummy0) {\n"
    '  asm volatile ("addl %1, %0" : "+r" (x) : "r" (y));\n'
    '  __asm__ __inline ("addl %1, %0" : "+r" (y) : "r" (x));\n'
    '  asm ("incl %%eax" : : "a" (_ric_dummy0) : "cc");\n'
    '  asm ("incl %%eax" : : "a" (_ric_dummy0) : "cc");\n'
    '  asm ("movl $0, %0" : "=m" (*fo\\\no) : "r" (p));\n'
    '  asm ("movl $0, %0" : "=m" (*ba\\\nr) : "r" (q));\n'
    '  asm ("incl %0" : "+A" (x));\n'
    '  asm ("incl %0" : "+A" (y));\n'
    '  asm ("movl $0, (%1)" : "=m" (*p) : "r" (p));\n'
    '  asm ("movl $0, (%1)" : "=m" (*q) : "r" (q));\n'
    '  asm ("movl $0, (%1)" : "=m" (*p) : "r" (q));\n'
    "}\n"
)


def test_oracle_reports_as_without_reuse(tmp_path, monkeypatch, capsys):
    """`ric oracle` over ten generated files and a probe file reports,
    exits and writes standard error as it does when no statement has a
    shape. The probe holds one shape under other qualifiers, statements
    never reused (a _ric_dummy0 operand, a line splice, one that does
    not parse) and a first statement whose check fails."""
    monkeypatch.delenv("RIC_TIMINGS", raising=False)
    _crash_at(monkeypatch, "probe.c", 12)
    paths = []
    for seed in range(10):
        paths.append(tmp_path / f"g{seed}.c")
        paths[-1].write_text(generated(150, seed), encoding="utf-8")
    paths.append(tmp_path / "probe.c")
    paths[-1].write_text(ORACLE_PROBE_SRC, encoding="utf-8")
    argv = ["oracle", "--trials", "5", *map(str, paths)]

    def oracle_run():
        code = run(argv)
        out = capsys.readouterr()
        return code, out.out, out.err

    reused = oracle_run()
    with monkeypatch.context() as m:
        m.setattr(chunks, "statement_shape", lambda raw: (None, ()))
        assert oracle_run() == reused
    code, text, err = reused
    probe = [e for e in json.loads(text)["chunks"] if e["span"]["file"].endswith("probe.c")]
    assert [e["verdict"] for e in probe[6:]] == ["error"] * 3 + ["compliant", "issues"]
    assert "probe.c:12: internal error" in err.splitlines()[-1]
