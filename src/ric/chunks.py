"""Locating and parsing extended inline assembly statements.

The scanner is lexical only: it tracks comments, string and character
literals, and parenthesis depth. Statement bodies are parsed into
structured chunks; the C expressions bound to operands are kept as
opaque text.
"""

from __future__ import annotations

import json
import re

from .errors import (
    BadConstraintChar,
    MalformedInterface,
    SchemaViolation,
    UnterminatedStatement,
)
from .value import Record

QUALIFIERS = ("volatile", "inline", "goto", "__volatile__")


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


class ChunkContext(Record):
    file: str = None
    line: int = None
    single_chunk_function: bool = None
    notes: str = ""


class ChunkAst(Record):
    span: SourceSpan
    qualifiers: frozenset
    template: str
    outputs: tuple
    inputs: tuple
    clobbers: tuple
    context: ChunkContext = ChunkContext()

    @property
    def entries(self):
        return self.outputs + self.inputs


class ScannedStatement(Record):
    span: SourceSpan
    qualifiers: frozenset
    body: str


# ---------------------------------------------------------------------------
# Scanner

_ASM_KEYWORD = r"\b(?:asm|__asm__|__asm)\b"
# Points of interest outside a statement: a comment or literal to skip,
# or an asm keyword. Everything between two of them is plain C text.
_SCAN_STOP = re.compile(r"//|/\*|[\"']|" + _ASM_KEYWORD)
# Points of interest inside a statement's parentheses.
_PAREN_STOP = re.compile(r"[()\"'/]")
_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
# A // comment ends at a line end; as for GCC, a lone \r is one too.
_LINE_END = re.compile(r"[\r\n]")


def _skip_lexical(text, i, n):
    """If a comment or literal starts at i, return the index just past it."""
    c = text[i]
    if c == "/" and i + 1 < n:
        if text[i + 1] == "/":
            m = _LINE_END.search(text, i)
            return n if m is None else m.end()
        if text[i + 1] == "*":
            j = text.find("*/", i + 2)
            return n if j < 0 else j + 2
    if c in "\"'":
        q = c
        j = i + 1
        while j < n:
            if text[j] == "\\":
                j += 2
                continue
            if text[j] == q:
                return j + 1
            j += 1
        return n
    return None


def _close_paren(text, j, n):
    """Index of the ')' that closes the '(' at j, or None at end of text."""
    depth = 0
    k = j
    while True:
        m = _PAREN_STOP.search(text, k)
        if m is None:
            return None
        k = m.start()
        c = text[k]
        if c == "(":
            depth += 1
        elif c == ")":
            depth -= 1
            if depth == 0:
                return k
        else:
            skipped = _skip_lexical(text, k, n)
            if skipped is not None:
                k = skipped
                continue
        k += 1


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
            i = _skip_lexical(text, start, n)
            continue
        j = m.end()
        quals = set()
        while True:
            while j < n and text[j].isspace():
                j += 1
            qm = _IDENT.match(text, j)
            word = qm.group(0) if qm else None
            if word in QUALIFIERS:
                quals.add("volatile" if word == "__volatile__" else word)
                j = qm.end()
            else:
                break
        if j >= n or text[j] != "(":
            i = m.end()
            continue
        body_start = j + 1
        k = _close_paren(text, j, n)
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
        statements.append(ScannedStatement(span, frozenset(quals), text[body_start:k]))
        i = k + 1
    return statements, diagnostics


# ---------------------------------------------------------------------------
# Statement parsing

_ESCAPES = {
    "n": "\n",
    "t": "\t",
    "r": "\r",
    "0": "\0",
    "\\": "\\",
    '"': '"',
    "'": "'",
}


def _split_top(text, sep):
    """Split on sep at paren/bracket depth 0, outside string literals."""
    parts = []
    depth = 0
    cur = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c in "\"'":
            j = _skip_lexical(text, i, n)
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


def _decode_strings(text, span):
    """Concatenate adjacent C string literals with escape processing."""
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
            raise MalformedInterface(f"{span.file}:{span.line}: expected string literal")
        i += 1
        while i < n and text[i] != '"':
            if text[i] == "\\" and i + 1 < n:
                nxt = text[i + 1]
                if nxt == "x":
                    m = re.match(r"[0-9a-fA-F]{1,2}", text[i + 2 :])
                    if m is None:
                        raise MalformedInterface(
                            f"{span.file}:{span.line}: \\x used with no following hex digits"
                        )
                    out.append(chr(int(m.group(0), 16)))
                    i += 2 + m.end()
                    continue
                out.append(_ESCAPES.get(nxt, nxt))
                i += 2
                continue
            out.append(text[i])
            i += 1
        if i >= n:
            raise MalformedInterface(f"{span.file}:{span.line}: unterminated string")
        i += 1
        seen = True
    if not seen:
        raise MalformedInterface(f"{span.file}:{span.line}: missing template string")
    return "".join(out)


CONSTRAINT_CHARS = set("=+&%abcdSDUqQrRinpmg0123456789,[]")
_SIZE_NOTE = re.compile(r"/\*\s*size:(\d+)\s*\*/|//\s*size:(\d+)")
_NAMED = re.compile(r"^\[\s*([A-Za-z_][A-Za-z0-9_]*)\s*\]\s*")


def _parse_entry(text, position, span):
    size = 4
    note = _SIZE_NOTE.search(text)
    if note:
        size = int(note.group(1) or note.group(2))
        text = _SIZE_NOTE.sub("", text)
    text = text.strip()
    if not text:
        raise MalformedInterface(f"{span.file}:{span.line}: empty operand entry")
    name = None
    m = _NAMED.match(text)
    if m:
        name = m.group(1)
        text = text[m.end() :]
    if not text.startswith('"'):
        raise MalformedInterface(f"{span.file}:{span.line}: entry missing constraint")
    end = text.find('"', 1)
    if end < 0:
        raise MalformedInterface(f"{span.file}:{span.line}: unterminated constraint")
    constraint = text[1:end]
    for c in constraint:
        if c not in CONSTRAINT_CHARS:
            raise BadConstraintChar(f"unsupported constraint character {c!r}")
    rest = text[end + 1 :].strip()
    if not (rest.startswith("(") and rest.endswith(")")):
        raise MalformedInterface(f"{span.file}:{span.line}: entry missing ( expr )")
    expr = rest[1:-1].strip()
    return OperandEntry(constraint, expr, position, size, name)


def _parse_section(text, start_pos, span):
    text = text.strip()
    if not text:
        return ()
    entries = []
    for part in _split_top(text, ","):
        entries.append(_parse_entry(part, start_pos + len(entries), span))
    return tuple(entries)


def parse_asm_statement(raw, span, qualifiers=frozenset()):
    sections = _split_top(raw, ":")
    if len(sections) > 4:
        raise MalformedInterface(f"{span.file}:{span.line}: too many ':' sections")
    template = _decode_strings(sections[0], span)
    outputs = _parse_section(sections[1], 0, span) if len(sections) > 1 else ()
    inputs = (
        _parse_section(sections[2], len(outputs), span) if len(sections) > 2 else ()
    )
    clobbers = ()
    if len(sections) > 3 and sections[3].strip():
        clobbers = tuple(
            _decode_strings(p, span) for p in _split_top(sections[3], ",") if p.strip()
        )
    context = ChunkContext(span.file, span.line)
    return ChunkAst(span, frozenset(qualifiers), template, outputs, inputs, clobbers, context)


def extract_chunks(text, file="<input>"):
    """scan + parse; returns (chunks, diagnostics). Each diagnostic is
    an error whose `span` is the statement's."""
    statements, diagnostics = scan_c_source(text, file)
    chunks = []
    for st in statements:
        try:
            chunks.append(parse_asm_statement(st.body, st.span, st.qualifiers))
        except (MalformedInterface, BadConstraintChar) as e:
            e.span = st.span
            diagnostics.append(e)
    return chunks, diagnostics


# ---------------------------------------------------------------------------
# Rendering (round-trip and patch output)


def _render_entry(e):
    name = f"[{e.name}] " if e.name else ""
    return f'{name}"{e.constraint}" ({e.expr_text})'


def render(chunk):
    """Render a chunk back to C statement text."""
    quals = "".join(
        f" {q}" for q in ("volatile", "inline", "goto") if q in chunk.qualifiers
    )
    template = chunk.template.replace("\\", "\\\\").replace('"', '\\"')
    template = template.replace("\n", "\\n").replace("\r", "\\r")
    parts = [f'"{template}"']
    need = 0
    if chunk.clobbers:
        need = 3
    elif chunk.inputs:
        need = 2
    elif chunk.outputs:
        need = 1
    if need >= 1:
        parts.append(" : " + ", ".join(_render_entry(e) for e in chunk.outputs))
    if need >= 2:
        parts.append(" : " + ", ".join(_render_entry(e) for e in chunk.inputs))
    if need >= 3:
        parts.append(" : " + ", ".join(f'"{c}"' for c in chunk.clobbers))
    return f"asm{quals} ({''.join(parts)})"


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
        srcfile = ctx.get("file", file)
        line = ctx.get("line", idx + 1)
        span = SourceSpan(srcfile, line, 1, 0, 0)
        context = ChunkContext(
            file=srcfile,
            line=line,
            single_chunk_function=ctx.get("single_chunk_function"),
        )
        chunks.append(
            ChunkAst(
                span,
                frozenset(quals),
                rec["template"],
                outputs,
                inputs,
                tuple(clobbers),
                context,
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
