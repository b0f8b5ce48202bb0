"""Locating and parsing extended inline assembly statements.

The scanner is lexical only: it tracks comments, string and character
literals, and parenthesis depth. While it finds where a statement ends
it records where the body's top-level ':' and ',' are, so the parser
slices sections and entries without scanning the body again. Statement
bodies are parsed into structured chunks; the C expressions bound to
operands are kept as opaque text.
"""

from __future__ import annotations

import json
import re

from .constraints import LETTER_TABLE
from .errors import (
    BadConstraintChar,
    MalformedInterface,
    SchemaViolation,
    UnterminatedStatement,
)
from .value import Record, replace

# each spelling GCC takes for an asm qualifier, and the qualifier it is
QUALIFIERS = {
    "volatile": "volatile",
    "__volatile": "volatile",
    "__volatile__": "volatile",
    "inline": "inline",
    "__inline": "inline",
    "__inline__": "inline",
    "goto": "goto",
}


class SourceSpan(Record):
    file: str
    line: int
    column: int
    byte_start: int
    byte_end: int


class OperandEntry(Record):
    constraint: str
    expr_text: str
    position: int
    size_bytes: int = 4
    name: str = None


class ChunkAst(Record):
    span: SourceSpan
    qualifiers: frozenset
    template: str
    outputs: tuple
    inputs: tuple
    clobbers: tuple
    # a chunk file's context may say whether the chunk is the whole body
    # of its function; report pattern P4 reads it
    single_chunk_function: bool = None

    @property
    def entries(self):
        return self.outputs + self.inputs


class ScannedStatement(Record):
    span: SourceSpan
    qualifiers: frozenset
    body: str
    marks: tuple = None  # offsets in body of its top-level ':' and ','


# ---------------------------------------------------------------------------
# Scanner

# The one lexical grammar of comments and literals, which the scanner
# and the parser share: a // comment, which ends after \n or, as for
# GCC, a lone \r, and goes on past a line end spliced by a backslash
# (see _SPLICE); a /* */ comment; a string and a character literal, in
# which a backslash escapes any character. One that does not end runs to
# the end of the text.
_COMMENT = (
    r"//[^\\\r\n]*(?:\\(?:[ \t\f\v]*\r?\n)?[^\\\r\n]*)*[\r\n]?"
    r"|/\*[^*]*(?:\*(?!/)[^*]*)*(?:\*/)?"
)
_LEXICAL = _COMMENT + r'|"[^"\\]*(?:\\.[^"\\]*)*"?' + r"|'[^'\\]*(?:\\.[^'\\]*)*'?"
# Every alternative starts with a literal character, so that a search
# skips the text in between without trying a match at each character.
# Outside a statement: a comment or literal, or an asm keyword.
_SCAN_STOP = re.compile(_LEXICAL + r"|a(?<=\ba)sm\b|_(?<=\b_)_asm(?:__)?\b", re.S)
# Inside a statement's parentheses: a comment or literal, or a character
# that nests or separates.
_BODY_STOP = re.compile(_LEXICAL + r"|\(|\)|\[|\]|:|,", re.S)
_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
# a line splice: C deletes a backslash before a line end, with the line
# end, before it tokenizes; as for GCC, blanks may come between the two
_SPLICE = re.compile(r"\\[ \t\f\v]*\r?\n")


def _statement_end(text, body_start):
    """Scan a statement body from body_start, just past its '('. Return
    the index of the ')' that ends the statement, or None if the text
    ends first, and the offsets from body_start of the body's top-level
    ':' and ',': those at parenthesis/bracket depth one, outside
    comments and literals. Parentheses alone decide where it ends."""
    parens = depth = 1
    marks = []
    for m in _BODY_STOP.finditer(text, body_start):
        c = m.group()
        if c == ")":
            parens -= 1
            if parens == 0:
                return m.start(), tuple(marks)
            depth -= 1
        elif c == "(":
            parens += 1
            depth += 1
        elif c == ":" or c == ",":
            if depth == 1:
                marks.append(m.start() - body_start)
        elif c == "[":
            depth += 1
        elif c == "]":
            depth -= 1
    return None, ()


def scan_c_source(text, file="<input>"):
    """Return (statements, diagnostics). Each statement is a
    ScannedStatement whose body is the text between the outer parens."""
    statements = []
    diagnostics = []
    n = len(text)
    # statement starts only increase, so lines are counted once, from
    # the previous start up to the next
    line, line_start, counted = 1, 0, 0
    i = 0
    while True:
        m = _SCAN_STOP.search(text, i)
        if m is None:
            break
        start = m.start()
        if text[start] in "/\"'":
            i = m.end()
            continue
        j = m.end()
        quals = set()
        while True:
            while j < n and text[j].isspace():
                j += 1
            qm = _IDENT.match(text, j)
            word = qm.group(0) if qm else None
            if word in QUALIFIERS:
                quals.add(QUALIFIERS[word])
                j = qm.end()
            else:
                break
        if j >= n or text[j] != "(":
            i = m.end()
            continue
        body_start = j + 1
        k, marks = _statement_end(text, body_start)
        # as for GCC, \n, \r\n and a lone \r each end a line
        ends = (
            text.count("\n", counted, start)
            + text.count("\r", counted, start)
            - text.count("\r\n", counted, start)
        )
        if ends:
            line += ends
            line_start = 1 + max(
                text.rfind("\n", counted, start), text.rfind("\r", counted, start)
            )
        counted = start
        col = start - line_start + 1
        if k is None:
            diagnostics.append(
                UnterminatedStatement(SourceSpan(file, line, col, start, n))
            )
            i = body_start
            continue
        span = SourceSpan(file, line, col, start, k + 1)
        statements.append(
            ScannedStatement(span, frozenset(quals), text[body_start:k], marks)
        )
        i = k + 1
    return statements, diagnostics


# ---------------------------------------------------------------------------
# Statement parsing

# a backslash before any other character, such as \\ or \", stands for it
_ESCAPES = {"a": "\a", "b": "\b", "f": "\f", "n": "\n", "r": "\r", "t": "\t", "v": "\v"}
_ESCAPE = re.compile(r"\\(?:([0-7]{1,3})|x([0-9a-fA-F]{0,2})|(.))", re.S)
# a string literal after blanks; an empty group 2 means it does not end
_STRING = re.compile(r'\s*"([^"\\]*(?:\\.[^"\\]*)*)("?)', re.S)


def _escape(m):
    octal, hexa, other = m.groups()
    if other is not None:
        return _ESCAPES.get(other, other)
    if octal:
        return chr(int(octal, 8))
    if hexa:
        return chr(int(hexa, 16))
    raise MalformedInterface("\\x used with no following hex digits")


def _decode_strings(text):
    """Concatenate adjacent C string literals with escape processing;
    text holds no comment."""
    out = []
    pos = 0
    while True:
        m = _STRING.match(text, pos)
        if m is None:
            break
        body, closed = m.groups()
        if "\\" in body:
            body = _ESCAPE.sub(_escape, body)
        out.append(body)
        if not closed:
            raise MalformedInterface("unterminated string")
        pos = m.end()
    if text[pos:].strip():
        raise MalformedInterface("expected string literal")
    if not out:
        raise MalformedInterface("missing template string")
    return "".join(out)


CONSTRAINT_CHARS = set(LETTER_TABLE) | set("=+&%0123456789,[]")
_SIZE_NOTE = re.compile(r"/\*\s*size:(\d+)\s*\*/|//\s*size:(\d+)")
# [name] "constraint" rest: every part may be missing, and an empty
# group 3 means the constraint does not end
_ENTRY = re.compile(
    r'\s*(?:\[\s*([A-Za-z_][A-Za-z0-9_]*)\s*\]\s*)?(?:"([^"]*)("?))?\s*(.*?)\s*\Z', re.S
)


def _uncomment(text):
    """text with each comment replaced by a space, as C does, and the
    first size note among its comments (a match of _SIZE_NOTE, or None)."""
    if "/" not in text:
        return text, None
    out = []
    note = None
    last = 0
    for m in _BODY_STOP.finditer(text):
        s = m.group()
        if s[0] == "/":
            out += (text[last : m.start()], " ")
            last = m.end()
            if note is None:
                note = _SIZE_NOTE.match(s)
    out.append(text[last:])
    return "".join(out), note


def _parse_entry(text, note, position):
    size = 4
    if note:
        size = int(note.group(1) or note.group(2))
        if size not in (1, 2, 4, 8):
            raise MalformedInterface(f"size note size:{size} is not 1, 2, 4 or 8")
    name, constraint, closed, rest = _ENTRY.match(text).groups()
    if constraint is None:
        what = "entry missing constraint" if name or rest else "empty operand entry"
        raise MalformedInterface(what)
    if not closed:
        raise MalformedInterface("unterminated constraint")
    for c in constraint:
        if c not in CONSTRAINT_CHARS:
            raise BadConstraintChar(f"unsupported constraint character {c!r}")
    if not (rest.startswith("(") and rest.endswith(")")):
        raise MalformedInterface("entry missing ( expr )")
    return OperandEntry(constraint, rest[1:-1].strip(), position, size, name)


def _parse_section(parts, position):
    """The operand entries of a section, given as its top-level
    comma-separated parts; a blank section has none."""
    parts = [_uncomment(p) for p in parts]
    if len(parts) == 1 and not parts[0][0].strip():
        return ()
    return tuple([_parse_entry(text, note, position + i) for i, (text, note) in enumerate(parts)])


def parse_asm_statement(raw, span, qualifiers=frozenset(), marks=None):
    """The chunk of a statement body, the text between its parentheses.
    marks are the offsets of the body's top-level ':' and ',' as the
    scanner records them; without them, or when the body holds a line
    splice, the body is scanned here, with its splices deleted."""
    if _has_splice(raw):
        raw, marks = _SPLICE.sub("", raw), None
    if marks is None:
        end, marks = _statement_end(raw + ")", 0)
        if end != len(raw):
            raise MalformedInterface("unbalanced statement body")
    sections = [[]]  # per section, its top-level comma-separated parts
    start = 0
    for k in marks:
        sections[-1].append(raw[start:k])
        if raw[k] == ":":
            sections.append([])
        start = k + 1
    sections[-1].append(raw[start:])
    if len(sections) > 4:
        raise MalformedInterface("too many ':' sections")
    template = _decode_strings(_uncomment(",".join(sections[0]))[0])
    outputs = _parse_section(sections[1], 0) if len(sections) > 1 else ()
    inputs = _parse_section(sections[2], len(outputs)) if len(sections) > 2 else ()
    clobbers = ()
    if len(sections) > 3:
        parts = [_uncomment(p)[0] for p in sections[3]]
        clobbers = tuple([_decode_strings(p) for p in parts if p.strip()])
    return ChunkAst(span, frozenset(qualifiers), template, outputs, inputs, clobbers)


def _has_splice(raw):
    return "\\" in raw and _SPLICE.search(raw) is not None


# A token of a statement's shape: kept verbatim (group 1), a comment or
# literal, a number, or a bracketed name with the blanks and comments
# the parser skips around it; or an identifier (group 2).
_SHAPE_TOKEN = re.compile(
    rf"({_LEXICAL}|\d\w*|\[(?:\s|{_COMMENT})*[A-Za-z_][A-Za-z0-9_]*(?:\s|{_COMMENT})*\])"
    r"|([A-Za-z_][A-Za-z0-9_]*)",
    re.S,
)


def statement_shape(raw):
    """The shape of a statement body, its tokens with each identifier
    replaced by the number of its first occurrence, as a tuple, and the
    identifiers in that order; (None, ()) if the body holds a line
    splice. Comments, literals, numbers, bracketed names, blanks and
    punctuation are kept verbatim.

    Two bodies with one shape parse alike, or fail alike, to chunks that
    differ only by a one-to-one renaming of the identifiers in operand
    expressions: templates, constraints and clobbers are literals, size
    notes are comments and names are bracketed, and the two tokenize at
    the same places, since the parser skips comments and literals by the
    same _LEXICAL. The checker reads operand expressions only through
    checker._anchor_refs, whose stripped-text equality and `*(p + k)` and
    `*p` forms such a renaming keeps, and report pattern P4 reads
    single_chunk_function, which no chunk of a C file sets. So their
    report entries differ only in the span. The parser deletes splices
    before it tokenizes, which can join two identifiers of the shape into
    one, so a body with a splice has none."""
    if _has_splice(raw):
        return None, ()
    parts = _SHAPE_TOKEN.split(raw)
    names = {}
    for i in range(2, len(parts), 3):
        name = parts[i]
        if name is not None:
            parts[i] = names.setdefault(name, len(names))
    return tuple(parts), tuple(names)


def rename(text, renaming):
    """text with each identifier that statement_shape numbers renamed as
    renaming maps it; comments and literals are left alone."""
    parts = _SHAPE_TOKEN.split(text)
    parts[2::3] = [renaming.get(name, name) for name in parts[2::3]]
    return "".join(filter(None, parts))


def rename_chunk(chunk, renaming, st):
    """The chunk of st, a statement of the shape of chunk's, its operand
    expressions renamed. A rendered statement is never renamed: its
    qualifiers have st's spelling, and `volatile` in a cast is a name."""
    entries = [replace(e, expr_text=rename(e.expr_text, renaming)) for e in chunk.entries]
    k = len(chunk.outputs)
    return replace(
        chunk, span=st.span, qualifiers=st.qualifiers, outputs=tuple(entries[:k]),
        inputs=tuple(entries[k:]),
    )


# ---------------------------------------------------------------------------
# Rendering (round-trip and patch output)


def _render_entry(e):
    name = f"[{e.name}] " if e.name else ""
    size = f" /* size:{e.size_bytes} */" if e.size_bytes != 4 else ""
    return f'{name}"{e.constraint}" ({e.expr_text}{size})'


def render(chunk):
    """Render a chunk back to C statement text. A template that holds %
    keeps at least one colon: with none the statement is basic asm, and
    GCC reads %% in it as two characters."""
    quals = "".join(
        f" {q}" for q in ("volatile", "inline", "goto") if q in chunk.qualifiers
    )
    template = chunk.template.replace("\\", "\\\\").replace('"', '\\"')
    template = template.replace("\n", "\\n").replace("\r", "\\r")
    sections = (
        ", ".join(map(_render_entry, chunk.outputs)),
        ", ".join(map(_render_entry, chunk.inputs)),
        ", ".join(f'"{c}"' for c in chunk.clobbers),
    )
    need = 3 if chunk.clobbers else 2 if chunk.inputs else 1 if chunk.outputs else 0
    if "%" in chunk.template:
        need = max(need, 1)
    return f'asm{quals} ("{template}"' + "".join(f" : {s}" for s in sections[:need]) + ")"


# ---------------------------------------------------------------------------
# Chunk files

_ENTRY_FIELDS = {"name", "constraint", "size_bytes", "expr_text"}
_RECORD_FIELDS = {"arch", "template", "outputs", "inputs", "clobbers", "qualifiers", "context"}
_CONTEXT_FIELDS = {"file", "line", "single_chunk_function"}


def _check_fields(obj, allowed, path):
    for key in obj:
        if key not in allowed:
            raise SchemaViolation(f"{path}.{key}", "unknown field")


def _load_entry(obj, path, position):
    if not isinstance(obj, dict):
        raise SchemaViolation(path, "entry must be an object")
    _check_fields(obj, _ENTRY_FIELDS, path)
    if "constraint" not in obj or not isinstance(obj["constraint"], str):
        raise SchemaViolation(f"{path}.constraint", "required string")
    size = obj.get("size_bytes", 4)
    if size not in (1, 2, 4, 8):
        raise SchemaViolation(f"{path}.size_bytes", f"invalid size {size}")
    for c in obj["constraint"]:
        if c not in CONSTRAINT_CHARS:
            raise SchemaViolation(f"{path}.constraint", f"bad character {c!r}")
    return OperandEntry(
        obj["constraint"],
        obj.get("expr_text", f"op{position}"),
        position,
        size,
        obj.get("name"),
    )


def load_chunk_records(records, file="<chunks>"):
    if not isinstance(records, list):
        raise SchemaViolation("$", "top level must be an array")
    chunks = []
    for idx, rec in enumerate(records):
        path = f"$[{idx}]"
        if not isinstance(rec, dict):
            raise SchemaViolation(path, "record must be an object")
        _check_fields(rec, _RECORD_FIELDS, path)
        if rec.get("arch", "i386") != "i386":
            raise SchemaViolation(f"{path}.arch", f"unsupported arch {rec.get('arch')!r}")
        if not isinstance(rec.get("template"), str):
            raise SchemaViolation(f"{path}.template", "required string")
        outputs = tuple(
            _load_entry(o, f"{path}.outputs[{i}]", i)
            for i, o in enumerate(rec.get("outputs", []))
        )
        inputs = tuple(
            _load_entry(o, f"{path}.inputs[{i}]", len(outputs) + i)
            for i, o in enumerate(rec.get("inputs", []))
        )
        clobbers = rec.get("clobbers", [])
        if not all(isinstance(c, str) for c in clobbers):
            raise SchemaViolation(f"{path}.clobbers", "must be strings")
        quals = rec.get("qualifiers", [])
        if not all(q in ("volatile", "inline", "goto") for q in quals):
            raise SchemaViolation(f"{path}.qualifiers", f"invalid qualifier in {quals}")
        ctx = rec.get("context", {})
        if not isinstance(ctx, dict):
            raise SchemaViolation(f"{path}.context", "must be an object")
        _check_fields(ctx, _CONTEXT_FIELDS, f"{path}.context")
        span = SourceSpan(ctx.get("file", file), ctx.get("line", idx + 1), 1, 0, 0)
        chunks.append(
            ChunkAst(
                span,
                frozenset(quals),
                rec["template"],
                outputs,
                inputs,
                tuple(clobbers),
                ctx.get("single_chunk_function"),
            )
        )
    return chunks


def load_chunk_file(path):
    with open(path, encoding="utf-8") as f:
        try:
            records = json.load(f)
        except json.JSONDecodeError as e:
            raise SchemaViolation("$", f"invalid JSON: {e}") from None
    return load_chunk_records(records, file=str(path))
