"""Interface edits that repair framing and unicity findings.

Each finding offers the edits that may answer it, most preferred
first. `edits.search` applies each on top of the edits kept so far and
keeps the first whose re-check derives and has fewer findings; the
findings left in the final re-check are unresolved.
"""

from __future__ import annotations

import array
import bisect
import difflib
import functools
import itertools
import re
from collections import Counter

from .chunks import render
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
from .errors import SpanStale
from .expr import Reg, Token, format_loc
from .value import Record

REG_LETTER = {"eax": "a", "ebx": "b", "ecx": "c", "edx": "d", "esi": "S", "edi": "D"}


class PatchResult(Record, frozen=False):
    patched: object  # ChunkAst
    edits: list
    unresolved: list
    renumber_map: dict
    original: object = None
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


def synthesize_patches(result, issues, memo=None):
    """The edits kept for the issues of a check result, its chunk with
    them applied, and the issues the final re-check still reports. memo
    is passed on to check_chunk for the re-checks."""
    edits, check = search(result, _candidates(result, issues), _fewer_findings, memo)
    patched, renumber = apply_edits(result.chunk, edits)
    left = {_finding(i) for i in check.issues}
    unresolved = [i for i in issues if _finding(i, renumber) in left]
    return PatchResult(patched, edits, unresolved, renumber, result.chunk, check)


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


_CONTEXT = 3  # difflib.unified_diff's default context lines
_AUTOJUNK_MIN = 200  # difflib ignores popular lines in sequences this long
_HUNK_HEADER = re.compile(r"@@ -(\d+)(\S*) \+(\d+)(\S*) @@")


@functools.lru_cache(maxsize=1)
def line_table(text):
    """The lines of a source as str.splitlines(keepends=True) gives them,
    the offset where each starts (plus len(text)), how often each occurs,
    and where the repeated ones occur. Cached for the last source, which
    every patched statement of a file reuses; line_table.cache_clear()
    frees it."""
    lines = text.splitlines(keepends=True)
    counts = Counter(lines)
    copies = {}
    for i, line in enumerate(lines):
        if counts[line] > 1:
            copies.setdefault(line, []).append(i)
    starts = array.array("q", itertools.accumulate(map(len, lines), initial=0))
    return lines, starts, counts, copies


def _hunk_local(lines, counts, copies, first, last, new):
    """Whether diffing lines[first:last+1] -> new plus context gives the
    same hunks as difflib's diff of the whole file.

    difflib.SequenceMatcher takes the longest run of equal lines first,
    the earliest on a tie, and extends it over equal neighbours. In a
    sequence of 200 lines or more its search for runs ignores the lines
    that occur more than 1% + 1 times ("autojunk"). The unchanged lines
    around the change pair with themselves, as in the small diff, unless:

    - the small diff is itself long enough for autojunk;
    - a new line also occurs outside the change, or is ignored;
    - a changed line occurs outside the change, other than as the one
      old line replaced by one new line, with no copy in the context after;
    - the text after the change has no run of kept lines longer than the
      run through the old line and a later copy.

    A run through an earlier copy loses to the copy's own run, and the
    text before the change pairs from the start of the file even when
    autojunk leaves no run in it."""
    old = lines[first : last + 1]
    if len(new) + 2 * _CONTEXT >= _AUTOJUNK_MIN:
        return False
    in_old = Counter(old)
    if any(counts[line] != in_old[line] for line in new):
        return False
    copied = any(counts[line] != count for line, count in in_old.items())
    if copied and (len(old) != 1 or len(new) != 1):
        return False
    n = len(lines) - len(old) + len(new)
    ntest = n // 100 + 1 if n >= _AUTOJUNK_MIN else n
    if max(Counter(new).values()) > ntest:
        return False

    def kept(i):  # the new file has line i at most ntest times
        return counts[lines[i]] - in_old[lines[i]] <= ntest

    longest = 0  # longest run of kept equal lines through the old line and a later copy
    for d in copies.get(old[0], ()):
        if d <= first:
            continue
        if d <= last + _CONTEXT:
            return False
        back = 0
        while (
            back < first
            and lines[first - back - 1] == lines[d - back - 1] and kept(first - back - 1)
        ):
            back += 1
        ahead = 0
        while (
            d + ahead + 1 < len(lines)
            and lines[first + ahead + 1] == lines[d + ahead + 1] and kept(first + ahead + 1)
        ):
            ahead += 1
        longest = max(longest, back + 1 + ahead)
    run = 0
    for i in range(last + 1, len(lines)):
        run = run + 1 if kept(i) else 0
        if run > longest:
            return True
    return last + 1 == len(lines)


def _shift_hunk_header(line, offset):
    m = _HUNK_HEADER.match(line)
    return f"@@ -{int(m[1]) + offset}{m[2]} +{int(m[3]) + offset}{m[4]} @@{line[m.end():]}"


def render_diff(original_source, pr):
    """Unified diff of the source with the patched statement in place of
    the original, byte-identical to difflib over the whole file. Only the
    changed lines and their context are diffed when that gives the same
    hunks; the line table is built once per source."""
    span = pr.patched.span
    if span.byte_end <= span.byte_start or span.byte_end > len(original_source):
        raise SpanStale(f"{span.file}: span out of range")
    original = pr.original
    snippet = original_source[span.byte_start : span.byte_end]
    if original is not None:
        from .chunks import extract_chunks

        found, _ = extract_chunks(snippet, span.file)
        if len(found) != 1 or found[0].template != original.template:
            raise SpanStale(f"{span.file}:{span.line}: source changed since scan")
    if not pr.edits:
        return ""
    replacement = render(pr.patched)
    lines, starts, counts, copies = line_table(original_source)
    first = bisect.bisect_right(starts, span.byte_start) - 1
    last = bisect.bisect_right(starts, span.byte_end - 1) - 1
    end = starts[last + 1]
    new = (
        original_source[starts[first] : span.byte_start]
        + replacement
        + original_source[span.byte_end : end]
    ).splitlines(keepends=True)
    # a span that ends a line leaves the new text to run on into the next
    clean_end = span.byte_end < end or end == len(original_source)
    if clean_end and _hunk_local(lines, counts, copies, first, last, new):
        lo = max(first - _CONTEXT, 0)
        hi = min(last + 1 + _CONTEXT, len(lines))
        a = lines[lo:hi]
        b = lines[lo:first] + new + lines[last + 1 : hi]
    else:
        lo = 0
        a = lines
        b = (
            original_source[: span.byte_start] + replacement + original_source[span.byte_end :]
        ).splitlines(keepends=True)
    diff = difflib.unified_diff(a, b, fromfile=f"a/{span.file}", tofile=f"b/{span.file}")
    return "".join(
        _shift_hunk_header(line, lo) if lo and line.startswith("@@") else line for line in diff
    )
