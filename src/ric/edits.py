"""Interface edits, the one function that applies them, and the one
search that decides which of them to keep.

A patch or a refinement is a list of edits against one chunk: every
operand position an edit names is a position in that chunk.
`apply_edits` builds the edited chunk with one renumbering rule. The
original outputs keep their positions, new outputs come next in edit
order, then the surviving inputs in their order, then new inputs in
edit order, and the template's %N tokens are renamed to match.
Constraints are never renumbered: in a chunk whose interface derives,
every matching digit names an output, and no edit moves an output.
"""

from __future__ import annotations

from .checker import check_chunk
from .chunks import OperandEntry
from .errors import RicError
from .template import renumber_template
from .value import Record, replace

# ---------------------------------------------------------------------------
# Patch edits


class AddOutput(Record):
    constraint: str
    lvalue: str
    matched_input: int = None


class AddInput(Record):
    constraint: str
    source: str


class AddClobber(Record):
    name: str


class SetMemoryClobber(Record):
    pass


class MarkEarlyClobber(Record):
    token: int


class PromoteToReadWrite(Record):
    token: int


# ---------------------------------------------------------------------------
# Refinement edits


class DropInput(Record):
    position: int


class DropClobber(Record):
    name: str


class DropMemoryKeyword(Record):
    pass


class EntrySpan(Record):
    base: int  # pointer token position
    mode: str  # in | out | inout
    offset: int
    length: int


class MemoryToEntries(Record):
    spans: tuple  # of EntrySpan
    # stays in the report schema, as RefineResult.suggestions does;
    # every access resolves to a token, so no edit is suggestion-only
    suggestion_only: bool = False


# ---------------------------------------------------------------------------
# Applying edits


def apply_edits(chunk, edits):
    """The chunk with the edits applied, and the map from the position
    of each operand that stays to its new position."""
    by_pos = {e.position: e for e in chunk.entries}
    outputs = list(chunk.outputs)
    renumber = {e.position: e.position for e in outputs}
    removed = set()  # input positions that leave the input list
    matched = {}  # input position -> the new output it now matches
    new_inputs = []  # (constraint, expr_text, size_bytes)
    clobbers = list(chunk.clobbers)

    def add_output(constraint, expr_text, size, name=None):
        outputs.append(OperandEntry(constraint, expr_text, len(outputs), size, name))
        return len(outputs) - 1

    for edit in edits:
        if isinstance(edit, PromoteToReadWrite):
            e = by_pos[edit.token]
            if e.position < len(chunk.outputs):  # "=" becomes "+" in place
                outputs[e.position] = replace(e, constraint="+" + e.constraint[1:])
                continue
            mode = "+" + e.constraint.lstrip("=+&%")
            renumber[e.position] = add_output(mode, e.expr_text, e.size_bytes, e.name)
            removed.add(e.position)
        elif isinstance(edit, AddOutput):
            matched[edit.matched_input] = add_output(edit.constraint, edit.lvalue, 4)
        elif isinstance(edit, AddInput):
            size = by_pos[int(edit.constraint)].size_bytes
            new_inputs.append((edit.constraint, edit.source, size))
        elif isinstance(edit, MarkEarlyClobber):
            e = outputs[renumber[edit.token]]
            outputs[e.position] = replace(e, constraint=e.constraint[0] + "&" + e.constraint[1:])
        elif isinstance(edit, AddClobber):
            clobbers.append(edit.name)
        elif isinstance(edit, SetMemoryClobber):
            clobbers.append("memory")
        elif isinstance(edit, DropInput):
            removed.add(edit.position)
        elif isinstance(edit, DropClobber):
            clobbers = [c for c in clobbers if c != edit.name]
        elif isinstance(edit, DropMemoryKeyword):
            clobbers = [c for c in clobbers if c != "memory"]
        elif isinstance(edit, MemoryToEntries):
            for s in edit.spans:
                expr = by_pos[s.base].expr_text.strip()
                text = f"*({expr})" if s.offset == 0 else f"*({expr} + {s.offset})"
                if s.mode == "in":
                    new_inputs.append(("m", text, s.length))
                else:
                    add_output("=m" if s.mode == "out" else "+m", text, s.length)

    inputs = []
    for e in chunk.inputs:
        if e.position in removed:
            continue
        renumber[e.position] = pos = len(outputs) + len(inputs)
        constraint = str(matched[e.position]) if e.position in matched else e.constraint
        inputs.append(replace(e, constraint=constraint, position=pos))
    for constraint, expr_text, size in new_inputs:
        inputs.append(OperandEntry(constraint, expr_text, len(outputs) + len(inputs), size))
    edited = replace(
        chunk,
        template=renumber_template(chunk.template, renumber),
        outputs=tuple(outputs),
        inputs=tuple(inputs),
        clobbers=tuple(clobbers),
    )
    return edited, renumber


# ---------------------------------------------------------------------------
# Keeping edits

# the order in which a patch or a refinement lists its edits
_KINDS = (
    PromoteToReadWrite, AddOutput, AddInput, MarkEarlyClobber, AddClobber, SetMemoryClobber,
    DropInput, DropClobber, MemoryToEntries, DropMemoryKeyword,
)


def _kind_order(edit):
    return _KINDS.index(type(edit)), getattr(edit, "token", 0)


def search(result, groups, goal, memo=None):
    """The edits kept for a check result's chunk, in kind order, and the
    re-check of the chunk with them.

    groups holds one entry per finding or refinement candidate, each a
    list of alternative edit tuples, most preferred first. Each
    alternative is applied with the edits kept so far and re-checked
    through memo. The first for which goal(best, check) holds is kept,
    where best is the re-check of the edits kept before (result at
    first). An alternative that is kept already ends its group."""
    kept, best = [], result
    for group in groups:
        for alt in group:
            if all(e in kept for e in alt):
                break
            edits = sorted(kept + list(alt), key=_kind_order)
            try:
                check = check_chunk(apply_edits(result.chunk, edits)[0], memo=memo)
            except RicError:
                continue
            if goal(best, check):
                kept, best = edits, check
                break
    return kept, best
