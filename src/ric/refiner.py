"""Interface refinement: drop dead declarations, replace a blanket
"memory" clobber with precise "m"-class entries when every access
resolves to a pointer token plus constant offset.

All refinements are guarded: `edits.search` keeps an edit only if the
rewritten chunk re-checks compliant.
"""

from __future__ import annotations

from .edits import (
    DropClobber,
    DropInput,
    DropMemoryKeyword,
    EntrySpan,
    MemoryToEntries,
    search,
)
from .expr import Flag, Reg, Token
from .value import Record


class RefineResult(Record, frozen=False):
    edits: list
    refined: object  # ChunkAst


# ---------------------------------------------------------------------------
# Memory access classification


def memory_to_m_entries(result):
    """The m-entries that declare the memory accesses a compliant
    result leaves undeclared, with no spans when there are none, or
    None when an access is not a pointer token plus a constant offset.
    The cell of an m-class entry is declared already, and a stack slot
    is private scratch when the stack pointer is restored."""
    by_base = {}  # pointer token -> [(kind, offset, size)]
    for ev in result.mem_events:
        r = ev.region
        if r.kind == "cell" or (r.kind == "stack" and result.esp_restored):
            continue
        if r.kind != "tokptr":
            return None
        by_base.setdefault(r.p, []).append((ev.kind, r.off, r.size))
    spans = []
    for base, here in sorted(by_base.items()):
        ops = {kind for kind, _, _ in here}
        mode = "inout" if ops == {"load", "store"} else ("out" if "store" in ops else "in")
        covered = set()
        for _, off, size in here:
            covered.update(range(off, off + size))
        # maximal contiguous runs, chunked to the 8-byte entry limit
        run_start = None
        prev = None
        for b in sorted(covered) + [None]:
            if run_start is not None and (b is None or b != prev + 1):
                length = prev + 1 - run_start
                off = run_start
                while length > 0:
                    sz = next(s for s in (8, 4, 2, 1) if s <= length)
                    spans.append(EntrySpan(base, mode, off, sz))
                    off += sz
                    length -= sz
                run_start = None
            if b is not None and run_start is None:
                run_start = b
            prev = b if b is not None else prev
    return MemoryToEntries(tuple(spans))


# ---------------------------------------------------------------------------
# The refinement driver


def _token_used(result, p):
    fi = result.fi
    for loc, mask in result.entry_live.items():
        if isinstance(loc, Token) and loc.index == p and mask:
            return True
        if isinstance(loc, Reg) and fi.fixed.get(p) == loc.name and mask:
            return True
    # a load inside an anchored entry's bytes reads its cell; one that
    # straddles their edge stays a region behind the pointer base, and
    # makes the entry load-bearing too
    anchors = [a for a in result.anchors if a.entry == p]
    return any(
        r.p == p
        or any(r.p == a.base and a.offset - r.size < r.off < a.offset + a.size for a in anchors)
        for r in result.entry_regions
    )


def _clobber_written(result, name):
    if name == "cc":
        return any(isinstance(loc, Flag) for loc in result.writes)
    return any(isinstance(loc, Reg) and loc.name == name for loc in result.writes)


def _candidates(result):
    """One group per refinement: its edits as the one alternative."""
    chunk, fi = result.chunk, result.fi
    for e in chunk.inputs:
        if e.position in fi.b_i and not _token_used(result, e.position):
            yield [(DropInput(e.position),)]
    for name in chunk.clobbers:
        if name != "memory" and not _clobber_written(result, name):
            yield [(DropClobber(name),)]
    if not fi.f:
        edit = memory_to_m_entries(result)
        if edit is not None:
            yield [(*([edit] if edit.spans else []), DropMemoryKeyword())]


def _still_compliant(best, check):
    return check.verdict == "compliant"


def refine_interface(result):
    """Compute guarded refinements for a compliant check result: dead
    inputs and clobbers dropped, and "memory" made precise. A result
    that is not compliant gets none."""
    if result.verdict != "compliant" or result.fi is None:
        return RefineResult([], result.chunk)
    edits, check = search(result, _candidates(result), _still_compliant)
    return RefineResult(edits, check.chunk)
