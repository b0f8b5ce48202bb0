"""Interface edits that repair framing and unicity findings.

Each finding offers the edits that may answer it, most preferred
first. `edits.search` applies each on top of the edits kept so far and
keeps the first whose re-check derives and has fewer findings; the
findings left in the final re-check are unresolved.
"""

from __future__ import annotations

import array
import bisect
import functools
import itertools
import re

# enumerate_assignments is unused here but kept: perfbench/tracing.py
# wraps it by name in each module that imports it
from .constraints import enumerate_assignments, interface_satisfiable  # noqa: F401
from .edits import (
    AddClobber,
    AddInput,
    AddOutput,
    MarkEarlyClobber,
    PromoteToReadWrite,
    SetMemoryClobber,
    apply_edits,
    search,
)
from .expr import Reg, Token, format_loc
from .value import Record

REG_LETTER = {"eax": "a", "ebx": "b", "ecx": "c", "edx": "d", "esi": "S", "edi": "D"}


class PatchResult(Record, frozen=False):
    patched: object  # ChunkAst
    edits: list
    unresolved: list
    renumber_map: dict
    check: object = None  # CheckResult of patched


def _read_output(fi, loc):
    """The write-only output whose entry value an UnboundRegisterRead at
    loc reads: its token, or the register it is pinned to; else None."""
    if isinstance(loc, Token):
        return loc.index if loc.index in fi.b_o else None
    if isinstance(loc, Reg):
        return next((p for p in sorted(fi.b_o) if fi.fixed.get(p) == loc.name), None)
    return None


def _candidates(result, issues):
    """One group per finding: the edits that may answer it, each a
    one-edit alternative, most preferred first."""
    chunk, fi = result.chunk, result.fi
    outputs = {e.position: e for e in chunk.outputs}
    taken = " ".join(e.expr_text for e in chunk.entries)
    names = (f"_ric_dummy{n}" for n in itertools.count() if f"_ric_dummy{n}" not in taken)

    def read_in(p):
        return AddInput(str(p), outputs[p].expr_text)

    for issue in sorted(issues, key=lambda i: (i.point, i.category)):
        cat, loc = issue.category, issue.location
        edits = []
        if cat == "FlagClobbered":
            edits = [AddClobber("cc")]
        elif cat in ("UnboundRegisterClobbered", "Unicity") and isinstance(loc, Reg):
            edits = [AddClobber(loc.name)]
        elif cat == "ReadOnlyInputClobbered" and isinstance(loc, Token):
            edits = [PromoteToReadWrite(loc.index)]
        elif cat == "ReadOnlyInputClobbered" and isinstance(loc, Reg):
            letter = REG_LETTER.get(loc.name)
            pinned = [e.position for e in chunk.inputs if fi.fixed.get(e.position) == loc.name]
            if letter is None:
                edits = [AddClobber(loc.name)]
            elif pinned:
                edits = [AddOutput(f"={letter}", next(names), pinned[0])]
        elif cat == "UnboundMemoryRead" and isinstance(loc, Token) and loc.index in fi.b_o:
            # the entry value of a write-only memory output: "+m" says
            # it is read, so "memory" is only the fallback
            edits = [PromoteToReadWrite(loc.index), SetMemoryClobber()]
        elif cat in ("UnboundMemoryWrite", "UnboundMemoryRead"):
            edits = [SetMemoryClobber()]
        elif cat == "NonWrittenWriteOnlyOutput":
            # a matching digit on a memory output does not allow a register
            p = loc.index
            edits = [PromoteToReadWrite(p) if fi.kinds.get(p) == "mem" else read_in(p)]
        elif cat == "UnboundRegisterRead":
            # reading a register (or entry flags) before assigning it
            # cannot be expressed as an interface edit
            p = _read_output(fi, loc)
            edits = [] if p is None else [read_in(p)]
        elif cat == "Unicity" and isinstance(loc, Token) and loc.index in fi.b_o:
            if "&" not in outputs[loc.index].constraint:
                edits = [MarkEarlyClobber(loc.index)]
        yield [(e,) for e in edits]


def _fewer_findings(best, check):
    return check.verdict in ("compliant", "issues") and len(check.issues) < len(best.issues)


def _finding(issue, renumber=None):
    """An issue's category and location, its token renumbered if asked."""
    loc = issue.location
    if renumber and isinstance(loc, Token):
        loc = Token(renumber[loc.index], loc.width)
    return issue.category, format_loc(loc)


def synthesize_patches(result, issues):
    """The edits kept for the issues of a check result, its chunk with
    them applied, and the issues the final re-check still reports."""
    edits, check = search(result, _candidates(result, issues), _fewer_findings)
    patched, renumber = apply_edits(result.chunk, edits)
    left = {_finding(i) for i in check.issues}
    unresolved = [i for i in issues if _finding(i, renumber) in left]
    return PatchResult(patched, edits, unresolved, renumber, check)


FRAMING_CATEGORIES = (
    "FlagClobbered",
    "ReadOnlyInputClobbered",
    "UnboundRegisterClobbered",
    "UnboundMemoryWrite",
    "NonWrittenWriteOnlyOutput",
    "UnboundRegisterRead",
    "UnboundMemoryRead",
)


def verify_patch(pr):
    """What the re-check of the patched chunk says of it."""
    check = pr.check
    framing_ok = check.verdict in ("compliant", "issues") and not any(
        i.category in FRAMING_CATEGORIES for i in check.issues
    )
    return {
        "framing_ok": framing_ok,
        "fully_compliant": check.verdict == "compliant",
        # no interface means the patched constraints do not parse
        "interface_satisfiable": (
            check.fi is not None and interface_satisfiable(check.fi)
        ),
    }


_CONTEXT = 3  # lines of context on each side of a statement's hunk
_LINE = re.compile(r"[^\n]*\n|[^\n]+")


@functools.lru_cache(maxsize=1)
def line_table(text):
    """The lines of a source, each ending at a line feed or at the end of
    the source, and the offset where each starts (plus len(text)). Cached for
    the last source, which every patched statement of a file reuses;
    line_table.cache_clear() frees it."""
    lines = _LINE.findall(text)
    return lines, array.array("q", itertools.accumulate(map(len, lines), initial=0))


def _range(start, count):
    """A side of a hunk header, as diff writes it."""
    return f"{start + 1}" if count == 1 else f"{start + 1},{count}"


def render_diff(source, span, statement):
    """Unified diff of the source with statement in place of
    source[span.byte_start:span.byte_end], the edit `ric patch
    --in-place` writes: one hunk, the lines the span touches removed and
    their edited text added, with three lines of context on each side,
    numbered as in the whole file. Lines end at line feeds only, as git
    reads them. The span's lines run from the line holding its first byte
    to the line holding span.byte_end (the last line at the end of the
    source), so a span that takes in a line break joins the next line to
    it."""
    lines, starts = line_table(source)
    first = bisect.bisect_right(starts, span.byte_start) - 1
    last = min(bisect.bisect_right(starts, span.byte_end) - 1, len(lines) - 1)
    new = _LINE.findall(
        source[starts[first] : span.byte_start]
        + statement
        + source[span.byte_end : starts[last + 1]]
    )
    lo = max(first - _CONTEXT, 0)
    before, old = lines[lo:first], lines[first : last + 1]
    after = lines[last + 1 : last + 1 + _CONTEXT]
    old_range = _range(lo, len(before) + len(old) + len(after))
    new_range = _range(lo, len(before) + len(new) + len(after))
    return f"--- a/{span.file}\n+++ b/{span.file}\n@@ -{old_range} +{new_range} @@\n" + "".join(
        # git's marker follows a line with no line break
        mark + line if line.endswith("\n") else f"{mark}{line}\n\\ No newline at end of file\n"
        for mark, part in ((" ", before), ("-", old), ("+", new), (" ", after))
        for line in part
    )
