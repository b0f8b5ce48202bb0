"""apply_edits: one renumbering rule for every patch and refinement edit;
search: one rule for which edits are kept.

The expected statements are those the patcher and the refiner built
when each rebuilt statements by hand, with a size note on each entry
that is not 4 bytes wide."""

import pytest

from ric.checker import check_chunk
from ric.chunks import load_chunk_records, render
from ric.edits import (
    AddClobber,
    AddInput,
    AddOutput,
    DropClobber,
    DropInput,
    DropMemoryKeyword,
    EntrySpan,
    MarkEarlyClobber,
    MemoryToEntries,
    PromoteToReadWrite,
    SetMemoryClobber,
    apply_edits,
    search,
)


def chunk(template, outputs=(), inputs=(), clobbers=()):
    return load_chunk_records(
        [
            {
                "template": template,
                "outputs": [
                    {"constraint": c, "expr_text": e, "size_bytes": s}
                    for c, e, s in outputs
                ],
                "inputs": [
                    {"constraint": c, "expr_text": e, "size_bytes": s}
                    for c, e, s in inputs
                ],
                "clobbers": list(clobbers),
            }
        ]
    )[0]


def entries(c):
    return [(e.constraint, e.expr_text, e.position, e.size_bytes) for e in c.entries]


# 2-byte operands, so a new entry's size shows where it came from
PATCH_BASE = chunk(
    "movw %w1, %w0; addw %w2, %w0", [("=r", "x", 2)], [("r", "y", 2), ("c", "n", 2)], ["cc"]
)
REFINE_BASE = chunk(
    "movl %2, %0", [("=r", "x", 4)], [("r", "y", 4), ("r", " p ", 4)], ["cc", "edx", "memory"]
)

ONE_EDIT = {
    "promote": (
        PATCH_BASE,
        PromoteToReadWrite(2),
        'asm ("movw %w2, %w0; addw %w1, %w0" : "=r" (x /* size:2 */), "+c" (n /* size:2 */)'
        ' : "r" (y /* size:2 */) : "cc")',
        [("=r", "x", 0, 2), ("+c", "n", 1, 2), ("r", "y", 2, 2)],
    ),
    "promote-output": (
        PATCH_BASE,
        PromoteToReadWrite(0),
        'asm ("movw %w1, %w0; addw %w2, %w0" : "+r" (x /* size:2 */) : "r" (y /* size:2 */),'
        ' "c" (n /* size:2 */) : "cc")',
        [("+r", "x", 0, 2), ("r", "y", 1, 2), ("c", "n", 2, 2)],
    ),
    "dummy-output": (
        PATCH_BASE,
        AddOutput("=c", "_ric_dummy0", 2),
        'asm ("movw %w2, %w0; addw %w3, %w0" : "=r" (x /* size:2 */), "=c" (_ric_dummy0)'
        ' : "r" (y /* size:2 */), "1" (n /* size:2 */) : "cc")',
        [("=r", "x", 0, 2), ("=c", "_ric_dummy0", 1, 4), ("r", "y", 2, 2), ("1", "n", 3, 2)],
    ),
    "add-input": (
        PATCH_BASE,
        AddInput("0", "x"),
        'asm ("movw %w1, %w0; addw %w2, %w0" : "=r" (x /* size:2 */) : "r" (y /* size:2 */),'
        ' "c" (n /* size:2 */), "0" (x /* size:2 */) : "cc")',
        [("=r", "x", 0, 2), ("r", "y", 1, 2), ("c", "n", 2, 2), ("0", "x", 3, 2)],
    ),
    "early-clobber": (
        PATCH_BASE,
        MarkEarlyClobber(0),
        'asm ("movw %w1, %w0; addw %w2, %w0" : "=&r" (x /* size:2 */) : "r" (y /* size:2 */),'
        ' "c" (n /* size:2 */) : "cc")',
        [("=&r", "x", 0, 2), ("r", "y", 1, 2), ("c", "n", 2, 2)],
    ),
    "add-clobber": (
        PATCH_BASE,
        AddClobber("edx"),
        'asm ("movw %w1, %w0; addw %w2, %w0" : "=r" (x /* size:2 */) : "r" (y /* size:2 */),'
        ' "c" (n /* size:2 */) : "cc", "edx")',
        entries(PATCH_BASE),
    ),
    "set-memory": (
        PATCH_BASE,
        SetMemoryClobber(),
        'asm ("movw %w1, %w0; addw %w2, %w0" : "=r" (x /* size:2 */) : "r" (y /* size:2 */),'
        ' "c" (n /* size:2 */) : "cc", "memory")',
        entries(PATCH_BASE),
    ),
    "drop-input": (
        REFINE_BASE,
        DropInput(1),
        'asm ("movl %1, %0" : "=r" (x) : "r" ( p ) : "cc", "edx", "memory")',
        [("=r", "x", 0, 4), ("r", " p ", 1, 4)],
    ),
    "drop-clobber": (
        REFINE_BASE,
        DropClobber("edx"),
        'asm ("movl %2, %0" : "=r" (x) : "r" (y), "r" ( p ) : "cc", "memory")',
        entries(REFINE_BASE),
    ),
    "drop-memory": (
        REFINE_BASE,
        DropMemoryKeyword(),
        'asm ("movl %2, %0" : "=r" (x) : "r" (y), "r" ( p ) : "cc", "edx")',
        entries(REFINE_BASE),
    ),
    "memory-to-entries": (
        REFINE_BASE,
        MemoryToEntries(
            (EntrySpan(2, "in", 0, 4), EntrySpan(2, "out", 4, 4), EntrySpan(2, "inout", 8, 8))
        ),
        'asm ("movl %4, %0" : "=r" (x), "=m" (*(p + 4)), "+m" (*(p + 8) /* size:8 */)'
        ' : "r" (y), "r" ( p ), "m" (*(p)) : "cc", "edx", "memory")',
        [
            ("=r", "x", 0, 4),
            ("=m", "*(p + 4)", 1, 4),
            ("+m", "*(p + 8)", 2, 8),
            ("r", "y", 3, 4),
            ("r", " p ", 4, 4),
            ("m", "*(p)", 5, 4),
        ],
    ),
}


@pytest.mark.parametrize("name", ONE_EDIT)
def test_each_edit_kind(name):
    base, edit, statement, want = ONE_EDIT[name]
    edited, _ = apply_edits(base, [edit])
    assert render(edited) == statement
    assert entries(edited) == want


def test_no_edits_leave_the_statement():
    for base in (PATCH_BASE, REFINE_BASE):
        edited, renumber = apply_edits(base, [])
        assert render(edited) == render(base) and entries(edited) == entries(base)
        assert renumber == {e.position: e.position for e in base.entries}


def test_combined_patch():
    """A promotion, a dummy output, an added input and an early clobber,
    in the order the patcher emits them."""
    edits = [
        PromoteToReadWrite(1),
        AddOutput("=c", "_ric_dummy0", 2),
        AddInput("0", "x"),
        MarkEarlyClobber(0),
    ]
    edited, renumber = apply_edits(PATCH_BASE, edits)
    assert render(edited) == (
        'asm ("movw %w1, %w0; addw %w3, %w0" : "=&r" (x /* size:2 */), "+r" (y /* size:2 */),'
        ' "=c" (_ric_dummy0)'
        ' : "2" (n /* size:2 */), "0" (x /* size:2 */) : "cc")'
    )
    assert entries(edited) == [
        ("=&r", "x", 0, 2),
        ("+r", "y", 1, 2),
        ("=c", "_ric_dummy0", 2, 4),
        ("2", "n", 3, 2),
        ("0", "x", 4, 2),
    ]
    assert renumber == {0: 0, 1: 1, 2: 3}


def test_matching_digit_after_a_dropped_input_keeps_its_digit():
    """Outputs never move, so a matching digit needs no renumbering even
    when the input carrying it moves down."""
    base = chunk(
        "movl (%3), %0; addl %2, %0",
        [("=r", "x", 4)],
        [("r", "y", 4), ("0", "z", 4), ("r", "p", 4)],
        ["cc"],
    )
    edited, renumber = apply_edits(
        base, [DropInput(1), MemoryToEntries((EntrySpan(3, "in", 0, 4),))]
    )
    assert render(edited) == (
        'asm ("movl (%2), %0; addl %1, %0" : "=r" (x) : "0" (z), "r" (p), "m" (*(p)) : "cc")'
    )
    assert entries(edited) == [
        ("=r", "x", 0, 4),
        ("0", "z", 1, 4),
        ("r", "p", 2, 4),
        ("m", "*(p)", 3, 4),
    ]
    assert renumber == {0: 0, 2: 1, 3: 2}


def test_positions_name_the_original_chunk():
    """Every edit names positions of the chunk it is applied to, whatever
    came before it in the list."""
    edited, _ = apply_edits(PATCH_BASE, [PromoteToReadWrite(1), DropInput(2), AddInput("0", "x")])
    assert entries(edited) == [("=r", "x", 0, 2), ("+r", "y", 1, 2), ("0", "x", 2, 2)]


def _fewer(best, check):
    return check.verdict != "error" and len(check.issues) < len(best.issues)


def test_search_keeps_the_first_alternative_that_meets_the_goal():
    c = chunk("incl %0", [], [("r", "x", 4)])
    result = check_chunk(c)
    groups = [
        [(AddClobber("edx"),), (AddClobber("cc"),)],  # edx: no finding goes
        [(PromoteToReadWrite(0),), (SetMemoryClobber(),)],
        [(AddClobber("cc"),)],  # kept already: not tried again
    ]
    edits, check = search(result, groups, _fewer)
    assert edits == [PromoteToReadWrite(0), AddClobber("cc")]
    assert check.verdict == "compliant"
    assert render(check.chunk) == render(apply_edits(c, edits)[0])


def test_search_keeps_nothing_when_no_alternative_meets_the_goal():
    c = chunk("movl %%edx, %0", [("=r", "x", 4)])
    result = check_chunk(c)
    edits, check = search(result, [[(AddClobber("edx"),)], []], _fewer)
    assert edits == [] and check is result
