"""The records' base: value semantics as a frozen dataclass gives them."""

import pytest

from ric.chunks import OperandEntry, SourceSpan
from ric.checker import CheckResult
from ric.edits import EntrySpan, MemoryToEntries
from ric.expr import Const, Expr, IRProgram, Reg, Temp, Token
from ric.report import edit_to_json
from ric.value import asdict, fields, replace

RECORDS = [
    (Token(3), (3, 32)),
    (Temp(3), (3, 32)),
    (Reg("eax", 8), ("eax", 8)),
    (Const(0x1FF, 8), (0xFF, 8)),
    (SourceSpan("f.c", 4, 2, 10, 40), ("f.c", 4, 2, 10, 40)),
    (OperandEntry("=r", "x", 0), ("=r", "x", 0, 4, None)),
]
IDS = [type(r).__name__ for r, _ in RECORDS]


@pytest.mark.parametrize("record,values", RECORDS, ids=IDS)
def test_hash_is_the_field_tuples(record, values):
    assert tuple(getattr(record, f) for f in fields(record)) == values
    assert hash(record) == hash(values)
    rebuilt = type(record)(*values)
    assert record == rebuilt
    # equal expression nodes built since the last analysis began are one
    # object
    assert (type(record)(*values) is rebuilt) == isinstance(record, Expr)


def test_equal_fields_of_different_classes_are_unequal():
    assert Token(3) != Temp(3)
    assert len({Token(3), Temp(3)}) == 2
    assert Token(3) == Token(3, 32) == Token(index=3)


@pytest.mark.parametrize("record,values", RECORDS, ids=IDS)
def test_frozen(record, values):
    name = fields(record)[0]
    with pytest.raises(AttributeError):
        setattr(record, name, values[0])
    with pytest.raises(AttributeError):
        delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1


@pytest.mark.parametrize("record,values", RECORDS, ids=IDS)
def test_replace_copies_with_the_changes(record, values):
    same = replace(record)
    assert type(same) is type(record) and same == record
    name = fields(record)[-1]
    changed = replace(record, **{name: values[-1]})
    assert type(changed) is type(record) and changed == record
    with pytest.raises(TypeError):
        replace(record, nope=1)


def test_replace_runs_the_constructor():
    assert replace(Const(1, 32), value=0x1FF, width=8) == Const(0xFF, 8)


@pytest.mark.parametrize(
    "record,text",
    [
        (Token(3), "Token(index=3, width=32)"),
        (Reg("eax", 8), "Reg(name='eax', width=8)"),
        (Const(0x1FF, 8), "Const(value=255, width=8)"),
        (OperandEntry("=r", "x", 0), "OperandEntry(constraint='=r', expr_text='x', position=0, size_bytes=4, name=None)"),
    ],
)
def test_repr_names_each_field(record, text):
    assert repr(record) == text


def test_mutable_records_take_fresh_defaults_and_no_hash():
    a, b = IRProgram(), IRProgram()
    a.instrs.append("x")
    assert b.instrs == [] and b.labels == {}
    r = CheckResult(chunk=None, verdict="error")
    r.verdict = "issues"
    assert r.verdict == "issues" and r.issues == []
    with pytest.raises(TypeError):
        hash(r)


def test_defaults_fill_the_fields_not_given():
    assert OperandEntry("=r", "x", 0, 1) == OperandEntry("=r", "x", 0, 1, None)
    assert OperandEntry("=r", "x", 0, name="y") == OperandEntry("=r", "x", 0, 4, "y")


def test_missing_and_unknown_arguments_are_errors():
    with pytest.raises(TypeError):
        Token()
    with pytest.raises(TypeError):
        Token(1, 32, 5)
    with pytest.raises(TypeError):
        Token(1, size=4)


def test_asdict_turns_nested_records_into_dicts():
    edit = MemoryToEntries((EntrySpan(1, "in", 0, 4),))
    assert asdict(edit) == {
        "spans": ({"base": 1, "mode": "in", "offset": 0, "length": 4},),
        "suggestion_only": False,
    }
    assert edit_to_json(edit)["edit"] == "MemoryToEntries"
