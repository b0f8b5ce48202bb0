"""Seeded synthetic C files built from the labelled corpus.

Each statement is a corpus chunk rendered as C text, with every C
identifier in its operand expressions renamed consistently for that
statement (``p`` becomes ``p_17`` everywhere, so ``*(p + k)`` anchors
still name the pointer operand). Statements sit one per line inside
filler functions, between comments and string literals that contain
``asm``-like text the scanner has to skip. The manifest maps each
statement's line to its corpus id, whose ``labels.json`` entry is the
expected answer.

The renderer here is the benchmark's own, so a change to ``ric``'s
rendering cannot change the inputs.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

FILLER = (
    '/* asm volatile ("movl %%eax, %%ebx" : : : "ebx") in a comment */',
    '// __asm__ ("cli"); is only a comment',
    'static const char *text_{k} = "asm (\\"nop\\") and \\"__asm__(\\"";',
    "static int helper_{k}(int x) {{ return x * {k} + (x >> 3); }}",
    "static const char quote_{k} = '\"';",
    "/* unbalanced ( and ) in a comment: asm ( */",
    'static const char *paren_{k} = "((asm)";',
)


def eligible(records):
    """Chunks whose interface C text carries fully: every operand is
    4 bytes wide and the chunk has no single-chunk-function context."""
    out = []
    for rec in records:
        entries = rec.get("outputs", []) + rec.get("inputs", [])
        if any(e.get("size_bytes", 4) != 4 for e in entries):
            continue
        if rec.get("context", {}).get("single_chunk_function") is not None:
            continue
        out.append(rec)
    return out


def _c_string(text):
    text = text.replace("\\", "\\\\").replace('"', '\\"')
    return '"' + text.replace("\n", "\\n").replace("\t", "\\t") + '"'


def _entry(e, suffix):
    expr = _IDENT.sub(lambda m: f"{m.group(0)}_{suffix}", e.get("expr_text", "x"))
    return f'"{e["constraint"]}" ({expr})'


def render_statement(rec, suffix, keyword):
    """One-line C text of a corpus record, identifiers renamed."""
    outputs = rec.get("outputs", [])
    inputs = rec.get("inputs", [])
    clobbers = rec.get("clobbers", [])
    parts = [_c_string(rec["template"])]
    need = 3 if clobbers else 2 if inputs else 1 if outputs else 0
    if need >= 1:
        parts.append(", ".join(_entry(e, suffix) for e in outputs))
    if need >= 2:
        parts.append(", ".join(_entry(e, suffix) for e in inputs))
    if need >= 3:
        parts.append(", ".join(f'"{c}"' for c in clobbers))
    return f"{keyword} ({' : '.join(parts)})"


KEYWORDS = ("asm", "__asm__", "asm volatile", "__asm__ __volatile__")


def template_key(rec):
    """What makes two chunks the same work for the checker: template,
    constraints and clobbers."""
    entries = rec.get("outputs", []) + rec.get("inputs", [])
    constraints = [e["constraint"] for e in entries]
    return json.dumps([rec["template"], constraints, rec.get("clobbers", [])])


def repeat_share(items):
    """Share of items equal to an earlier item."""
    return 1 - len(set(items)) / len(items) if items else 0.0


@dataclass
class SyntheticFile:
    text: str
    manifest: dict  # line -> corpus id
    template_repeat_share: float
    text_repeat_share: float


def generate(records, n_statements, seed):
    """A C file of n_statements drawn from the eligible records in
    shuffled rounds that use each record once, so the seed changes the
    order, names and filler but the label mix only in the last round."""
    rng = random.Random(seed)
    pool = eligible(records)
    draws = []
    while len(draws) < n_statements:
        draws += rng.sample(pool, len(pool))
    draws = draws[:n_statements]
    lines = ["/* synthetic input: seed %d, %d statements */" % (seed, n_statements), ""]
    manifest = {}
    statements = []
    for k, rec in enumerate(draws):
        for _ in range(rng.randrange(1, 4)):
            lines.append(rng.choice(FILLER).format(k=k))
        stmt = render_statement(rec, k, rng.choice(KEYWORDS))
        lines.append(f"void stmt_{k}(void)")
        lines.append("{")
        manifest[len(lines) + 1] = rec["context"]["file"]
        statements.append(stmt)
        lines.append(f"    {stmt};")
        lines.append("}")
        lines.append("")
    return SyntheticFile(
        "\n".join(lines) + "\n",
        manifest,
        repeat_share([template_key(rec) for rec in draws]),
        repeat_share(statements),
    )
