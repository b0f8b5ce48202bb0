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


class Failure(Record):
    reason: str


class RefineOptions(Record, frozen=False):
    refine_inputs: bool = True
    refine_clobbers: bool = True
    refine_memory: bool = True


class RefineResult(Record, frozen=False):
    edits: list
    suggestions: list
    refined: object  # ChunkAst
    failure: Failure = None


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
        region = ev.region
        if region[0] == "cell" or (region[0] == "stack" and result.esp_restored):
            continue
        if region[0] != "tokptr":
            return None
        by_base.setdefault(region[1], []).append((ev.kind, region[2], ev.size))
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
    for (b, _off, _size) in result.entry_regions:
        if b == p:
            return True
    # an m-class anchor whose pointer base has live covered regions is
    # load-bearing even though the cell itself is read through the base
    for a in result.anchors:
        if a.entry != p:
            continue
        for (b, off, size) in result.entry_regions:
            if b == a.base and off < a.offset + a.size and a.offset < off + size:
                return True
    return False


def _clobber_written(result, name):
    if name == "cc":
        return any(isinstance(loc, Flag) for loc in result.writes)
    return any(isinstance(loc, Reg) and loc.name == name for loc in result.writes)


def _candidates(result, options):
    """One group per refinement: its edits as the one alternative."""
    chunk, fi = result.chunk, result.fi
    if options.refine_inputs:
        for e in chunk.inputs:
            if e.position in fi.b_i and not _token_used(result, e.position):
                yield [(DropInput(e.position),)]
    if options.refine_clobbers:
        for name in chunk.clobbers:
            if name != "memory" and not _clobber_written(result, name):
                yield [(DropClobber(name),)]
    if options.refine_memory and not fi.f:
        edit = memory_to_m_entries(result)
        if edit is not None:
            yield [(*([edit] if edit.spans else []), DropMemoryKeyword())]


def _still_compliant(best, check):
    return check.verdict == "compliant"


def refine_interface(result, options=None, memo=None):
    """Compute guarded refinements for a compliant check result. memo
    is passed on to check_chunk for the re-checks."""
    options = options or RefineOptions()
    if result.verdict != "compliant" or result.fi is None:
        return RefineResult([], [], result.chunk, Failure("chunk is not compliant"))
    edits, check = search(result, _candidates(result, options), _still_compliant, memo)
    return RefineResult(edits, [], check.chunk)
