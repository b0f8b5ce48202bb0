"""Interface refinement: drop dead declarations, replace a blanket
"memory" clobber with precise "m"-class entries when every access
resolves to a pointer token plus constant offset.

All refinements are guarded: an edit is kept only if the rewritten
chunk re-checks compliant.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .checker import check_chunk
from .chunks import OperandEntry
from .errors import RicError
from .expr import Flag, Reg, Token
from .template import renumber_matches, renumber_template


@dataclass(frozen=True)
class DropInput:
    position: int


@dataclass(frozen=True)
class DropClobber:
    name: str


@dataclass(frozen=True)
class DropMemoryKeyword:
    pass


@dataclass(frozen=True)
class EntrySpan:
    base: int  # pointer token position
    mode: str  # in | out | inout
    offset: int
    length: int


@dataclass(frozen=True)
class MemoryToEntries:
    spans: tuple  # of EntrySpan
    # stays in the report schema, as RefineResult.suggestions does;
    # every access resolves to a token, so no edit is suggestion-only
    suggestion_only: bool = False


@dataclass(frozen=True)
class Failure:
    reason: str


@dataclass
class RefineOptions:
    refine_inputs: bool = True
    refine_clobbers: bool = True
    refine_memory: bool = True


@dataclass
class RefineResult:
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
# Chunk rewriting


def _rebuild(chunk, drop_inputs=frozenset(), drop_clobbers=frozenset(),
             drop_memory=False, add_entries=()):
    """Rebuild the chunk with consistent renumbering. add_entries is a
    sequence of (section, constraint, expr_text, size_bytes) with
    section in {'out','in'}."""
    outputs = list(chunk.outputs)
    renumber = {e.position: e.position for e in outputs}
    next_pos = len(outputs)
    for section, constraint, expr_text, size in add_entries:
        if section == "out":
            outputs.append(OperandEntry(constraint, expr_text, next_pos, size))
            next_pos += 1
    inputs = []
    for e in chunk.inputs:
        if e.position in drop_inputs:
            continue
        renumber[e.position] = next_pos
        inputs.append(replace(e, position=next_pos))
        next_pos += 1
    for section, constraint, expr_text, size in add_entries:
        if section == "in":
            inputs.append(OperandEntry(constraint, expr_text, next_pos, size))
            next_pos += 1
    clobbers = tuple(
        c for c in chunk.clobbers
        if c not in drop_clobbers and not (drop_memory and c == "memory")
    )
    template = renumber_template(chunk.template, renumber)
    return replace(
        chunk,
        template=template,
        outputs=tuple(renumber_matches(e, renumber) for e in outputs),
        inputs=tuple(renumber_matches(e, renumber) for e in inputs),
        clobbers=clobbers,
    )


def _entries_for_spans(chunk, spans):
    by_pos = {e.position: e for e in chunk.entries}
    adds = []
    for s in spans:
        base_entry = by_pos.get(s.base)
        if base_entry is None:
            return None
        expr = base_entry.expr_text.strip()
        text = f"*({expr})" if s.offset == 0 else f"*({expr} + {s.offset})"
        if s.mode == "in":
            adds.append(("in", "m", text, s.length))
        elif s.mode == "out":
            adds.append(("out", "=m", text, s.length))
        else:
            adds.append(("out", "+m", text, s.length))
    return adds


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


def refine_interface(result, options=None, memo=None):
    """Compute guarded refinements for a compliant check result. memo
    is passed on to check_chunk for the re-checks."""
    options = options or RefineOptions()
    chunk = result.chunk
    if result.verdict != "compliant" or result.fi is None:
        return RefineResult([], [], chunk, Failure("chunk is not compliant"))
    fi = result.fi

    accepted_inputs = set()
    accepted_clobbers = set()
    accepted_memory = False
    accepted_adds = []
    edits = []

    def current(extra_inputs=frozenset(), extra_clobbers=frozenset(),
                memory=None, adds=None):
        return _rebuild(
            chunk,
            drop_inputs=accepted_inputs | set(extra_inputs),
            drop_clobbers=accepted_clobbers | set(extra_clobbers),
            drop_memory=accepted_memory if memory is None else memory,
            add_entries=tuple(accepted_adds if adds is None else adds),
        )

    def still_compliant(candidate):
        try:
            return check_chunk(candidate, memo=memo).verdict == "compliant"
        except RicError:
            return False

    if options.refine_inputs:
        for e in chunk.inputs:
            p = e.position
            if p not in fi.b_i or _token_used(result, p):
                continue
            if still_compliant(current(extra_inputs={p})):
                accepted_inputs.add(p)
                edits.append(DropInput(p))

    if options.refine_clobbers:
        for name in chunk.clobbers:
            if name == "memory" or _clobber_written(result, name):
                continue
            if still_compliant(current(extra_clobbers={name})):
                accepted_clobbers.add(name)
                edits.append(DropClobber(name))

    if options.refine_memory and not fi.f:
        edit = memory_to_m_entries(result)
        adds = None if edit is None else _entries_for_spans(chunk, edit.spans)
        if adds is not None and still_compliant(current(memory=True, adds=adds)):
            accepted_memory = True
            accepted_adds = adds
            if edit.spans:
                edits.append(edit)
            edits.append(DropMemoryKeyword())

    return RefineResult(edits, [], current())
