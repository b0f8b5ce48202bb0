"""Extraction: scanning C text, parsing statements, chunk files, rendering."""

import json
import re
import time

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ric.chunks import (
    CONSTRAINT_CHARS,
    QUALIFIERS,
    ChunkAst,
    OperandEntry,
    ScannedStatement,
    SourceSpan,
    load_chunk_records,
    parse_asm_statement,
    render,
    scan_c_source,
)
from ric.checker import check_chunk
from ric.cli import run as cli_run
from ric.constraints import LETTER_TABLE
from ric.errors import (
    BadConstraintChar,
    MalformedInterface,
    SchemaViolation,
    UnterminatedStatement,
)

from conftest import parse_c_text


def scan(text):
    return scan_c_source(text, "t.c")[0]


def test_minimal_statement():
    stmts = scan('__asm__ volatile ("nop");')
    assert len(stmts) == 1
    assert stmts[0].body == '"nop"'
    assert "volatile" in stmts[0].qualifiers


def test_comment_and_string_exclusion():
    assert scan('/* asm("x") */ char*s="asm(\\"y\\")";') == []


def test_line_comment_exclusion():
    assert scan('// asm("x")\nint y;') == []


def test_unterminated_statement_recovers():
    stmts, diags = scan_c_source('asm ("a"  \n asm ("b");', "t.c")
    assert len(diags) == 1
    assert len(stmts) == 1 and stmts[0].body == '"b"'


def test_parse_one_entry():
    chunks, diags = parse_c_text('asm ("incl %0" : "+r" (x));', "t.c")
    assert not diags
    (c,) = chunks
    assert c.template == "incl %0"
    assert [e.constraint for e in c.outputs] == ["+r"]
    assert c.inputs == () and c.clobbers == ()


def test_parse_empty_template_clobbers():
    chunks, _ = parse_c_text('asm ("" : : : "cc");', "t.c")
    (c,) = chunks
    assert c.template == "" and c.clobbers == ("cc",)


def test_string_concatenation_and_escapes():
    chunks, _ = parse_c_text('asm ("movl %1, %0\\n" "nop" : "=r"(y) : "r"(x));')
    (c,) = chunks
    assert c.template == "movl %1, %0\nnop"


def test_named_entries_and_size_notes():
    src = 'asm ("movb %[src], %[dst]" : [dst] "=q" (y /* size:1 */) : [src] "q" (x /* size:1 */));'
    chunks, diags = parse_c_text(src)
    assert not diags
    (c,) = chunks
    assert c.outputs[0].name == "dst" and c.outputs[0].size_bytes == 1
    assert c.inputs[0].name == "src" and c.inputs[0].size_bytes == 1


def test_positions_dense(corpus_chunks):
    for c in corpus_chunks:
        assert [e.position for e in c.entries] == list(range(len(c.entries)))


def test_malformed_entry_is_diagnostic_not_crash():
    chunks, diags = parse_c_text('asm ("nop" : "=r" x);')
    assert chunks == [] and [d["verdict"] for d in diags] == ["error"]


def test_constraint_alphabet_is_the_letter_table_and_the_modifiers():
    """The parser and the chunk-file loader take a constraint character
    exactly when it is a letter of constraints.LETTER_TABLE, a modifier
    (=+&%), a digit, or one of ,[]."""
    assert CONSTRAINT_CHARS == set(LETTER_TABLE) | set("=+&%0123456789,[]")
    span = SourceSpan("t.c", 1, 1, 0, 0)
    for c in map(chr, range(32, 127)):
        if c in '"\\':
            continue
        body = f'"" : : "{c}" (x)'
        record = [{"template": "", "inputs": [{"constraint": c}]}]
        if c in CONSTRAINT_CHARS:
            assert parse_asm_statement(body, span).inputs[0].constraint == c
            load_chunk_records(record)
        else:
            with pytest.raises(BadConstraintChar):
                parse_asm_statement(body, span)
            with pytest.raises(SchemaViolation):
                load_chunk_records(record)


def test_hex_escape_without_digits_is_diagnostic_not_crash():
    for src in ('asm ("nop\\xg");', 'asm ("nop\\x");', 'asm ("nop" : : : "\\xz");'):
        chunks, diags = parse_c_text(src)
        assert chunks == [] and [d["verdict"] for d in diags] == ["error"], src
        assert "\\x used with no following hex digits" in diags[0]["details"]
    (c,), _ = parse_c_text('asm ("nop\\x41\\x9z");')
    assert c.template == "nopA\x09z"


def _shape(src):
    """The one chunk of src, without its span."""
    chunks, diags = parse_c_text(src, "t.c")
    assert not diags, diags
    (c,) = chunks
    return c.qualifiers, c.template, c.outputs, c.inputs, c.clobbers


@pytest.mark.parametrize(
    "src, plain",
    [
        (
            'asm ("incl %0" /* bump: x */ : "+r" (x) : : "cc");',
            'asm ("incl %0" : "+r" (x) : : "cc");',
        ),
        ('asm ("incl %0" : "+r" (x) /* a, b */);', 'asm ("incl %0" : "+r" (x));'),
        (
            'asm ("addl %1, %0" : "+r" (x) : "r" (y) /* the (old) value */);',
            'asm ("addl %1, %0" : "+r" (x) : "r" (y));',
        ),
        ('asm ("incl %0" // c: d\n : "+r" (x));', 'asm ("incl %0" : "+r" (x));'),
        ('asm ("incl" /* "a" */ " %0" : "+r" (x));', 'asm ("incl %0" : "+r" (x));'),
        ('asm ("nop" : /* none: */ : "r" (x));', 'asm ("nop" : : "r" (x));'),
        ('asm ("nop" : : : "cc" /* , */, /* x */ "memory");', 'asm ("nop" : : : "cc", "memory");'),
        ('asm ("incl %0" : [v] /* ] */ "+r" (x /* ) */));', 'asm ("incl %0" : [v] "+r" (x));'),
    ],
)
def test_comment_inside_a_statement_is_ignored(src, plain):
    """As GCC removes comments before it parses, a comment anywhere in a
    statement separates nothing and leaves no text behind."""
    assert _shape(src) == _shape(plain)


def test_comment_markers_in_a_literal_are_text():
    (c,), _ = parse_c_text('asm ("/* x */ nop // y" : "=r" (a));')
    assert c.template == "/* x */ nop // y"


@pytest.mark.parametrize(
    "literal, decoded",
    [
        (r'"nop\012nop"', "nop\nnop"),
        (r'"a\101b"', "aAb"),
        (r'"x\fy"', "x\fy"),
        (r'"\a\b\v\?"', "\a\b\v?"),
        (r'"\0"', "\0"),
        (r'"\08"', "\x008"),
        (r'"\1234"', "S4"),
        (r'"\9\q"', "9q"),
        (r'"\x41\x9z\x414"', "A\tzA4"),
        (r'"\\012\"\'"', "\\012\"'"),
    ],
)
def test_escapes_decode_as_in_c(literal, decoded):
    """A backslash and one to three octal digits, or one of the simple
    escapes, decode as C gives them; a hex escape takes one or two
    digits."""
    (c,), diags = parse_c_text(f"asm ({literal});")
    assert not diags and c.template == decoded


def test_octal_newline_separates_instructions():
    (c,), _ = parse_c_text('asm ("nop\\012nop");')
    assert check_chunk(c).verdict == "compliant"


@pytest.mark.parametrize("note", ["/* size:3 */", "/* size:0 */", "/*size:16*/", "// size:5\n"])
def test_size_note_outside_1_2_4_8_is_a_diagnostic(note):
    chunks, diags = parse_c_text(f'asm ("movl %1, %0" : "=r" (x {note}) : "r" (y));', "t.c")
    assert chunks == [] and [d["verdict"] for d in diags] == ["error"]
    assert "is not 1, 2, 4 or 8" in diags[0]["details"]


@pytest.mark.parametrize("size", [1, 2, 4, 8])
def test_size_note_in_1_2_4_8_is_read(size):
    (c,), _ = parse_c_text(f'asm ("" : "=r" (x /* size:{size} */) : "r" (y // size:{size}\n));')
    assert [e.size_bytes for e in c.entries] == [size, size]
    assert [e.expr_text for e in c.entries] == ["x", "y"]


def test_render_writes_size_notes():
    (c,), _ = parse_c_text('asm ("" : "=q" (y /* size:1 */) : "m" (*p /* size:8 */), "r" (x));')
    assert render(c) == 'asm ("" : "=q" (y /* size:1 */) : "m" (*p /* size:8 */), "r" (x))'


@pytest.mark.parametrize(
    "template, text",
    [("nop", 'asm ("nop")'), ("movl %%eax, %%eax", 'asm ("movl %%eax, %%eax" : )')],
)
def test_render_keeps_a_template_with_percent_extended(template, text):
    """With no colon a statement is basic asm, where GCC reads %% as two
    characters, so a template that holds % keeps one colon."""
    (c,) = load_chunk_records([{"template": template}])
    assert render(c) == text


def test_schema_rejects_unknown_field():
    with pytest.raises(SchemaViolation):
        load_chunk_records([{"template": "nop", "bogus": 1}])


def test_schema_rejects_bad_size():
    with pytest.raises(SchemaViolation):
        load_chunk_records(
            [{"template": "nop", "outputs": [{"constraint": "=r", "size_bytes": 3}]}]
        )


def test_schema_minimal_record():
    (c,) = load_chunk_records([{"template": "nop"}])
    assert c.template == "nop" and c.entries == ()


def test_corpus_file_is_valid_json_and_loads(corpus_chunks, corpus_labels):
    assert len(corpus_chunks) >= 60
    ids = [c.span.file for c in corpus_chunks]
    assert len(set(ids)) == len(ids)
    assert set(ids) == set(corpus_labels)


def test_render_round_trip(corpus_chunks):
    for c in corpus_chunks:
        text = render(c)
        stmts, diags = scan_c_source(text + ";", "rt.c")
        assert not diags and len(stmts) == 1
        c2 = parse_asm_statement(stmts[0].body, stmts[0].span, stmts[0].qualifiers)
        assert c2.template == c.template
        assert [(e.constraint, e.expr_text, e.size_bytes) for e in c2.entries] == [
            (e.constraint, e.expr_text, e.size_bytes) for e in c.entries
        ]
        assert c2.clobbers == c.clobbers


@settings(max_examples=200, deadline=None)
@given(st.text(st.sampled_from(["\r", "\n", '"', "\\", "\t", "a", "%", "0", " ", ";"])))
def test_render_round_trips_escaped_templates(template):
    (c,) = load_chunk_records(
        [{"template": template, "outputs": [{"constraint": "=r", "expr_text": "x"}]}]
    )
    text = render(c)
    assert "\r" not in text and "\n" not in text  # a C string literal cannot span lines
    chunks, diags = parse_c_text(text + ";")
    assert not diags and [c2.template for c2 in chunks] == [template]


_FILLERS = st.sampled_from(
    [
        "/* asm(\"ghost\") */",
        "// asm(\"ghost\")\n",
        'const char *s = "asm(\\"ghost\\")";',
        "int x;",
        "\n\n",
        "char c = ')';",
    ]
)


@settings(max_examples=60, deadline=None)
@given(st.lists(_FILLERS, max_size=6), st.lists(_FILLERS, max_size=6))
def test_scanner_injection_property(prefix, suffix):
    """Comments/strings around a statement never change what is found."""
    stmt = 'asm ("incl %0" : "+r" (x));'
    text = "".join(prefix) + stmt + "".join(suffix)
    stmts, diags = scan_c_source(text, "t.c")
    assert not diags
    assert len(stmts) == 1
    assert stmts[0].body == '"incl %0" : "+r" (x)'
    span = stmts[0].span
    assert text[span.byte_start : span.byte_end].startswith("asm")


def test_corpus_json_matches_loader(corpus_chunks):
    with open("corpus/corpus.json", encoding="utf-8") as f:
        raw = json.load(f)
    assert len(raw) == len(corpus_chunks)


# ---------------------------------------------------------------------------
# The one-pass scanner against the character-by-character reference


def _reference_skip_lexical(text, i, n):
    c = text[i]
    if c == "/" and i + 1 < n:
        if text[i + 1] == "/":
            j = i + 2
            while j < n and text[j] not in "\r\n":
                # a backslash splices the line end after it, across blanks
                if text[j] == "\\":
                    k = j + 1
                    while k < n and text[k] in " \t\f\v":
                        k += 1
                    if text.startswith("\n", k):
                        j = k + 1
                        continue
                    if text.startswith("\r\n", k):
                        j = k + 2
                        continue
                j += 1
            return min(j + 1, n)
        if text[i + 1] == "*":
            j = text.find("*/", i + 2)
            return n if j < 0 else j + 2
    if c in "\"'":
        j = i + 1
        while j < n:
            if text[j] == "\\":
                j += 2
                continue
            if text[j] == c:
                return j + 1
            j += 1
        return n
    return None


def _reference_scan(text, file):
    """Steps through the text one character at a time and counts lines
    from byte 0 for every statement: quadratic, but plainly right."""
    keyword = re.compile(r"\b(?:asm|__asm__|__asm)\b")
    ident = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
    statements, diagnostics = [], []
    n = len(text)
    i = 0
    while i < n:
        skipped = _reference_skip_lexical(text, i, n)
        if skipped is not None:
            i = skipped
            continue
        m = keyword.match(text, i)
        if not m:
            i += 1
            continue
        start = i
        j = m.end()
        quals = set()
        while True:
            while j < n and text[j].isspace():
                j += 1
            qm = ident.match(text, j)
            word = qm.group(0) if qm else None
            if word in QUALIFIERS:
                quals.add("volatile" if word == "__volatile__" else word)
                j = qm.end()
            else:
                break
        if j >= n or text[j] != "(":
            i = m.end()
            continue
        depth = 0
        k = j
        closed = False
        while k < n:
            skipped = _reference_skip_lexical(text, k, n)
            if skipped is not None:
                k = skipped
                continue
            if text[k] == "(":
                depth += 1
            elif text[k] == ")":
                depth -= 1
                if depth == 0:
                    closed = True
                    break
            k += 1
        # \r\n, a lone \r and \n each end a line, as for GCC
        ends = [m.end() for m in re.finditer(r"\r\n|\r|\n", text[:start])]
        line = len(ends) + 1
        col = start - (ends[-1] if ends else 0) + 1
        if not closed:
            diagnostics.append(UnterminatedStatement(SourceSpan(file, line, col, start, n)))
            i = j + 1
            continue
        span = SourceSpan(file, line, col, start, k + 1)
        statements.append(ScannedStatement(span, frozenset(quals), text[j + 1 : k]))
        i = k + 1
    return statements, diagnostics


_SCAN_FRAGMENTS = st.sampled_from(
    [
        "asm", "__asm__", "__asm", "__asm__ __volatile__", "asm volatile",
        "asm inline goto", "__asm volatile", "volatile",
        "myasm", "asm_x", "x",
        '"nop"', '"r" (x)', " : ", ", ", ";", "(", ")", " ", "\n", "\r\n", "\r", "\x0c", "\t",
        "/* asm ( */", "// asm (\n", '"asm ("', '"))("', "/* ) */", "/", "*",
        '"\\""', "'\\''", "')'", "'('", "\\",
        '"', "'", "/*", "//", "asm (",
    ]
)


def _scan_view(result):
    statements, diagnostics = result
    return (
        [(s.span, s.qualifiers, s.body) for s in statements],
        [(type(d).__name__, str(d), d.span) for d in diagnostics],
    )


@settings(max_examples=400, deadline=None)
@given(st.lists(_SCAN_FRAGMENTS, max_size=30))
@example(["asm (", "')'", ")", ";", "asm (", "'('", ")"])
@example(["asm (", '"))("', " : ", "/* ) */", "// asm (\n", ")", "\r\n", "asm"])
@example(["//", "\\", "\r\n", "asm (", ")", "\\", "\n", "//", "\\", "\\", "\n", "asm (", ")"])
@example(["//", "\\", " ", "\t", "\n", "asm (", ")", "//", "\\", " ", "\r\n", "asm (", ")"])
def test_scanner_matches_reference(fragments):
    """Same statements (spans with line, column and bytes; qualifiers;
    body) and the same diagnostics as the character-by-character scan,
    including unterminated statements, comments and strings at the end."""
    text = "".join(fragments)
    assert _scan_view(scan_c_source(text, "t.c")) == _scan_view(_reference_scan(text, "t.c"))


def test_scanner_counts_lone_cr_as_a_line_end():
    text = 'int a;\r\n\x0c asm ("nop");\rasm ("nop");\n  asm ("nop");'
    spans = [s.span for s in scan(text)]
    assert [(s.line, s.column) for s in spans] == [(2, 3), (3, 1), (4, 3)]
    assert _scan_view(scan_c_source(text, "t.c")) == _scan_view(_reference_scan(text, "t.c"))


def test_line_comment_ends_at_a_lone_cr():
    # GCC ends a // comment at a lone \r as at \n; the statement after
    # it is no part of the comment
    text = 'int f(int x)\r{\r  // note\r  asm ("incl %0" : "+r" (x));\r  return x;\r}\r'
    assert [s.body for s in scan(text)] == ['"incl %0" : "+r" (x)']
    chunks, diagnostics = parse_c_text(text, "cr.c")
    assert [c.template for c in chunks] == ["incl %0"] and not diagnostics


# GCC splices a line across blanks between the backslash and the line end
_SPLICE_EOLS = ["\n", "\r\n", " \n", "\t\x0c\x0b \r\n"]


@pytest.mark.parametrize("eol", _SPLICE_EOLS)
def test_line_comment_goes_on_past_a_spliced_line_end(eol):
    # C deletes the backslash-newline first, so the statement is part of
    # the comment and GCC never sees it
    text = f"int f(int x) {{{eol}  // note \\{eol}  asm (\"bogus %0\" : \"+r\" (x));{eol}}}{eol}"
    assert scan(text) == []


SPLICED = (
    "#define INC(x) asm (\"incl %0\" \\{eol}"
    "    : \"+r\" (x) \\{eol}"
    "    : : \"cc\"){eol}"
    "int f(int x) {{ asm (\"addl %1, \\{eol}%0\" : \"+r\" (x) : \"r\" (x)); return x; }}{eol}"
)


@pytest.mark.parametrize("eol", _SPLICE_EOLS)
def test_line_splices_are_deleted_before_parsing(eol):
    text = SPLICED.format(eol=eol)
    chunks, diagnostics = parse_c_text(text, "m.c")
    assert not diagnostics
    first, second = chunks
    assert (first.template, first.clobbers) == ("incl %0", ("cc",))
    assert [(e.constraint, e.expr_text) for e in first.outputs] == [("+r", "x")]
    assert (first.span.line, second.span.line) == (1, 4)
    assert text[first.span.byte_start : first.span.byte_end].endswith(': : "cc")')
    # inside a string literal a splice stands for nothing
    assert second.template == "addl %1, %0"
    assert [e.expr_text for e in second.inputs] == ["x"]


def test_in_place_patch_replaces_the_whole_spliced_statement(tmp_path):
    src = tmp_path / "m.c"
    src.write_text(
        "#define ADD(x, y) asm (\"addl %1, %0\" \\\n"
        "    : \"+r\" (x) \\\n"
        "    : \"r\" (y))\n"
        "int g;\n",
        encoding="utf-8",
    )
    cli_run(["patch", "--in-place", "--out", str(tmp_path / "p.json"), str(src)])
    assert src.read_text(encoding="utf-8") == (
        '#define ADD(x, y) asm ("addl %1, %0" : "+r" (x) : "r" (y) : "cc")\nint g;\n'
    )


# ---------------------------------------------------------------------------
# The parser on the scanner's marks against the character-by-character
# reference: it splits a body on ':' and each section on ',' one character
# at a time, and knows no comment and no octal or \a-style escape.

_REFERENCE_ESCAPES = {"n": "\n", "t": "\t", "r": "\r", "0": "\0", "\\": "\\", '"': '"', "'": "'"}
_REFERENCE_NAMED = re.compile(r"^\[\s*([A-Za-z_][A-Za-z0-9_]*)\s*\]\s*")


def _reference_split_top(text, sep):
    """Split on sep at paren/bracket depth 0, outside string literals."""
    parts = []
    depth = 0
    cur = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c in "\"'":
            j = _reference_skip_lexical(text, i, n)
            cur.append(text[i:j])
            i = j
            continue
        if c in "([":
            depth += 1
        elif c in ")]":
            depth -= 1
        if c == sep and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(c)
        i += 1
    parts.append("".join(cur))
    return parts


def _reference_decode_strings(text):
    out = []
    i = 0
    n = len(text)
    seen = False
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c != '"':
            raise MalformedInterface("expected string literal")
        i += 1
        while i < n and text[i] != '"':
            if text[i] == "\\" and i + 1 < n:
                nxt = text[i + 1]
                if nxt == "x":
                    m = re.match(r"[0-9a-fA-F]{1,2}", text[i + 2 :])
                    if m is None:
                        raise MalformedInterface("\\x used with no following hex digits")
                    out.append(chr(int(m.group(0), 16)))
                    i += 2 + m.end()
                    continue
                out.append(_REFERENCE_ESCAPES.get(nxt, nxt))
                i += 2
                continue
            out.append(text[i])
            i += 1
        if i >= n:
            raise MalformedInterface("unterminated string")
        i += 1
        seen = True
    if not seen:
        raise MalformedInterface("missing template string")
    return "".join(out)


def _reference_parse_entry(text, position):
    text = text.strip()
    if not text:
        raise MalformedInterface("empty operand entry")
    name = None
    m = _REFERENCE_NAMED.match(text)
    if m:
        name = m.group(1)
        text = text[m.end() :]
    if not text.startswith('"'):
        raise MalformedInterface("entry missing constraint")
    end = text.find('"', 1)
    if end < 0:
        raise MalformedInterface("unterminated constraint")
    constraint = text[1:end]
    for c in constraint:
        if c not in CONSTRAINT_CHARS:
            raise BadConstraintChar(f"unsupported constraint character {c!r}")
    rest = text[end + 1 :].strip()
    if not (rest.startswith("(") and rest.endswith(")")):
        raise MalformedInterface("entry missing ( expr )")
    return OperandEntry(constraint, rest[1:-1].strip(), position, 4, name)


def _reference_parse_section(text, start_pos):
    if not text.strip():
        return ()
    entries = []
    for part in _reference_split_top(text, ","):
        entries.append(_reference_parse_entry(part, start_pos + len(entries)))
    return tuple(entries)


def _reference_parse(raw, span, qualifiers=frozenset()):
    sections = _reference_split_top(raw, ":")
    if len(sections) > 4:
        raise MalformedInterface("too many ':' sections")
    template = _reference_decode_strings(sections[0])
    outputs = _reference_parse_section(sections[1], 0) if len(sections) > 1 else ()
    inputs = _reference_parse_section(sections[2], len(outputs)) if len(sections) > 2 else ()
    clobbers = ()
    if len(sections) > 3 and sections[3].strip():
        clobbers = tuple(
            _reference_decode_strings(p)
            for p in _reference_split_top(sections[3], ",")
            if p.strip()
        )
    return ChunkAst(span, frozenset(qualifiers), template, outputs, inputs, clobbers)


# Balanced in parentheses and quotes, so each body is one the scanner
# hands over whole; no comment, and no octal or \a-style escape.
_BODY_FRAGMENTS = st.sampled_from(
    [
        '"nop"', '"incl %0"', '"addl %1, %0"', '"movl %1, %0\\n\\t"', '"a:b,c"', '"(("',
        '"\\x41"', '"\\x4g"', '"\\xg"', '"\\\\x"', '"\\\\"', '"\\""', '"\\q"', '"a/b"',
        '"=r"', '"+r"', '"r"', '"=&q"', '"m"', '"r,m"', '"cc"', '"memory"', '"!"', '""',
        "(x)", "(*p)", "(a[1])", "(f(x, y))", "((x))", "(a ? b : c)", "(')')", '(",")',
        "(x / 2)", "()", "[n]", "[ n ]", "[1x]", "[", "]", "x", "'c'", "':'", "','",
        " : ", ":", ", ", ",", " ", "\n", "\t",
    ]
)
# Bodies shaped as statements: a template, then sections of entries or
# clobbers, each part of which may be missing or malformed.
_ENTRY = st.tuples(
    st.sampled_from(["", "[n] ", "[ v ]", "[1x] ", "[a, b] ", "[a:b] ", "["]),
    st.sampled_from(['"=r"', '"+r"', '"r"', '"=&q"', '"m"', '"r,m"', '"!"', '""', "", "x"]),
    st.sampled_from(
        [" (x)", "(*p)", " (a[1])", "(f(x, y))", "((x))", "(a ? b : c)", "(')')",
         '(",")', "(x / 2)", "()", " x", "", "(y) z", "(a[1:2])"]
    ),
).map("".join)
_SECTION = st.one_of(
    st.lists(_ENTRY, max_size=3).map(", ".join),
    st.lists(st.sampled_from(['"cc"', '"memory"', '"\\xz"', '"a" "b"', "x", ""]), max_size=3).map(
        ", ".join
    ),
)
_TEMPLATE = st.lists(
    st.sampled_from(['"nop"', '"incl %0"', '"a:b,c"', '"\\x41"', '"\\xg"', '"\\t"', "x", "'c'"]),
    max_size=2,
).map(" ".join)
_BODIES = st.one_of(
    st.lists(_BODY_FRAGMENTS, max_size=16).map("".join),
    st.tuples(_TEMPLATE, st.lists(_SECTION, max_size=4)).map(lambda t: " : ".join([t[0], *t[1]])),
)


def _outcome(parse, *args):
    try:
        return parse(*args)
    except (MalformedInterface, BadConstraintChar) as e:
        return type(e).__name__, str(e)


@settings(max_examples=500, deadline=None)
@given(_BODIES)
@example('"addl %1, %0" : "+r" (x) : "r" (y) : "cc"')
@example('"nop" : [:"=r" (a ? b : c)], "r" (x)')
@example('"nop" : [a, b] "=r" (x), [n] : , ')
@example('"nop" : "=r" (x) : [n]')
def test_parser_matches_reference(body):
    """The same chunk, or the same diagnostic class and message, as the
    character-by-character parser: from the scanner's marks and from
    the body alone."""
    (st_,), diags = scan_c_source(f"asm volatile ({body});", "t.c")
    assume(st_.body == body and not diags)
    want = _outcome(_reference_parse, body, st_.span, st_.qualifiers)
    assert _outcome(parse_asm_statement, body, st_.span, st_.qualifiers, st_.marks) == want
    assert _outcome(parse_asm_statement, body, st_.span, st_.qualifiers) == want


def _c_file(statements):
    """A C file with one asm statement per function, between comments and
    strings the scanner must skip."""
    out = []
    for k in range(statements):
        out += [
            f'/* function {k}: asm ("not code") */\n',
            f'static const char *s{k} = "asm (\\"\\")";\n',
            f"void f{k}(int x, int y)\n",
            "{\n",
            f'    asm volatile ("addl %1, %0" : "+r" (x) : "r" (y + {k}));\n',
            "}\n",
            "\n",
        ]
    return "".join(out)


def _best_of_3(fn):
    times = []
    for _ in range(3):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


def test_scan_time_grows_linearly():
    """8x the statements in an 8x larger file take under 20x the time; a
    scan that counts lines from byte 0 per statement takes about 55x."""
    small, large = _c_file(500), _c_file(4000)
    assert len(scan(large)) == 4000
    ratio = _best_of_3(lambda: scan(large)) / _best_of_3(lambda: scan(small))
    assert ratio < 20, ratio
