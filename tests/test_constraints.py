"""Constraint parsing, the i386 letter table, interface derivation, and
token-assignment enumeration."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ric.chunks import load_chunk_records
from ric.constraints import (
    ImmediateInt,
    MemoryRef,
    RegisterSet,
    UnionClass,
    assignment_valid,
    derive_interface,
    enumerate_assignments,
    eval_letter,
    parse_constraint,
)
from ric.errors import ClobberOverlap, MalformedInterface, ModeMissing, UnknownLetter


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


# ---------------------------------------------------------------------------
# Letter table


LETTER_EXPECT = {
    "a": {"eax"},
    "b": {"ebx"},
    "c": {"ecx"},
    "d": {"edx"},
    "S": {"esi"},
    "D": {"edi"},
    "U": {"eax", "ecx", "edx"},
    "q": {"eax", "ebx", "ecx", "edx"},
    "Q": {"eax", "ebx", "ecx", "edx"},
    "r": {"eax", "ebx", "ecx", "edx", "esi", "edi", "ebp"},
    "R": {"eax", "ebx", "ecx", "edx", "esi", "edi", "ebp"},
}


@pytest.mark.parametrize("letter,regs", sorted(LETTER_EXPECT.items()))
def test_register_letters(letter, regs):
    cls = eval_letter(letter)
    assert isinstance(cls, RegisterSet)
    assert set(cls.registers) == regs


@pytest.mark.parametrize("letter", ["i", "n"])
def test_immediate_letters(letter):
    assert isinstance(eval_letter(letter), ImmediateInt)


def test_memory_letters():
    m = eval_letter("m")
    p = eval_letter("p")
    assert isinstance(m, MemoryRef) and m.deref
    assert isinstance(p, MemoryRef) and not p.deref


def test_g_is_union_of_i_r_m():
    g = eval_letter("g")
    assert isinstance(g, UnionClass)
    kinds = {type(m) for m in g.members}
    assert kinds == {ImmediateInt, RegisterSet, MemoryRef}
    (rs,) = [m for m in g.members if isinstance(m, RegisterSet)]
    assert set(rs.registers) == LETTER_EXPECT["r"]


def test_unknown_letter():
    with pytest.raises(UnknownLetter):
        eval_letter("x")


# ---------------------------------------------------------------------------
# Constraint strings


def test_parse_output_writeonly():
    spec = parse_constraint("=a", is_output=True)
    assert spec.mode == "output_writeonly"
    assert [[l.char for l in alt] for alt in spec.alternatives] == [["a"]]


def test_parse_alternatives():
    spec = parse_constraint("rm,r", is_output=False)
    assert len(spec.alternatives) == 2
    assert [l.char for l in spec.alternatives[0]] == ["r", "m"]


def test_parse_early_clobber():
    spec = parse_constraint("=&q", is_output=True)
    assert spec.mode == "output_writeonly" and spec.early_clobber


def test_parse_matching_digit():
    spec = parse_constraint("0", is_output=False)
    (alt,) = spec.alternatives
    assert alt[0].ref == 0


def test_output_without_mode_rejected():
    with pytest.raises(ModeMissing):
        parse_constraint("r", is_output=True)


# ---------------------------------------------------------------------------
# Interface derivation


def test_memory_flag():
    c = chunk("nop", clobbers=["memory"])
    assert derive_interface(c).f is False
    c = chunk("nop")
    assert derive_interface(c).f is True


def test_unification_same_fixed_register():
    c = chunk(
        "lock; cmpxchgl %3, %0",
        outputs=[("+m", "*(p)", 4), ("=a", "prev", 4)],
        inputs=[("a", "old", 4), ("r", "new", 4)],
        clobbers=["cc"],
    )
    fi = derive_interface(c)
    assert fi.unified == {2: 1}
    assert fi.canonical(2) == 1
    assert 1 in fi.effective_inputs


def test_clobber_overlap_is_rejected():
    c = chunk("nop", outputs=[("=a", "x", 4)], clobbers=["eax"])
    with pytest.raises(ClobberOverlap):
        derive_interface(c)


def test_early_clobber_tracked():
    c = chunk("movl %1, %0", outputs=[("=&r", "y", 4)], inputs=[("r", "x", 4)])
    fi = derive_interface(c)
    assert fi.early_clobber == {0}


# ---------------------------------------------------------------------------
# Assignment enumeration


def test_enumeration_excludes_clobbered_registers():
    c = chunk("movl %0, %0", inputs=[("r", "x", 4)], clobbers=["ebx", "esi"])
    fi = derive_interface(c)
    aset = enumerate_assignments(fi)
    regs = {t[0].reg for t in aset.assignments}
    assert regs and "ebx" not in regs and "esi" not in regs


def test_outputs_never_immediate_and_distinct():
    c = chunk(
        "movl %2, %0\nmovl %2, %1",
        outputs=[("=r", "a", 4), ("=r", "b", 4)],
        inputs=[("g", "x", 4)],
    )
    fi = derive_interface(c)
    aset = enumerate_assignments(fi, cap=4096)
    assert aset.satisfiable
    for t in aset.assignments:
        assert t[0] != t[1]


def test_enumeration_revalidates(corpus_chunks):
    """Every enumerated assignment passes the independent validity check."""
    for c in corpus_chunks:
        try:
            fi = derive_interface(c)
        except MalformedInterface:
            continue
        aset = enumerate_assignments(fi, cap=128)
        for t in aset.assignments:
            assert assignment_valid(fi, t), (c.span.file, t.mapping)


def test_unsatisfiable_interface():
    # the only register in the class is clobbered
    c = chunk("movl %0, %0", inputs=[("a", "x", 4)], clobbers=["cc"])
    fi = derive_interface(c)
    assert enumerate_assignments(fi).satisfiable
    c = chunk("nop", inputs=[("a", "x", 4)], clobbers=["ecx"])
    fi = derive_interface(c)
    assert enumerate_assignments(fi).satisfiable  # eax is still free


def test_truncation_flag():
    c = chunk(
        "nop",
        inputs=[("r", "x", 4), ("r", "y", 4), ("r", "z", 4)],
    )
    fi = derive_interface(c)
    aset = enumerate_assignments(fi, cap=8)
    assert aset.truncated and len(aset.assignments) == 8


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(LETTER_EXPECT) + ["i", "m", "g"]))
def test_single_letter_enumeration_stays_in_class(letter):
    c = chunk("nop", inputs=[(letter, "x", 4)])
    fi = derive_interface(c)
    for t in enumerate_assignments(fi, cap=64).assignments:
        assert assignment_valid(fi, t)


def test_token_kinds():
    """A token is a 'fixed' register, an 'mem' cell only when every
    alternative is "m", or else a register 'var'."""
    c = chunk(
        "",
        [("=a", "x", 4), ("=m", "*p", 4), ("=r", "y", 4)],
        [("g", "z", 4), ("m,0", "w", 4), ("mr", "v", 4), ("p", "u", 4), ("2", "t", 4)],
    )
    assert derive_interface(c).kinds == {
        0: "fixed", 1: "mem", 2: "var", 3: "var", 4: "var", 5: "var", 6: "var", 7: "var"
    }
