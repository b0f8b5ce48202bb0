"""Side-effect-free bitvector IR: locations, expressions, instructions.

Expressions are immutable trees over 32-bit (and narrower/wider) bitvectors.
Programs are flat instruction lists with string labels; conditional writes
are expressed with if-then-else expressions so that most chunks stay
straight-line.
"""

from __future__ import annotations

from .errors import WidthError
from .value import Record, factory

GP_REGS = ("eax", "ebx", "ecx", "edx", "esi", "edi", "ebp", "esp")
MMX_REGS = tuple(f"mm{i}" for i in range(8))
XMM_REGS = tuple(f"xmm{i}" for i in range(8))


# ---------------------------------------------------------------------------
# Locations


class Reg(Record):
    name: str
    width: int = 32


class Flag(Record):
    name: str

    @property
    def width(self):
        return 1


class Token(Record):
    """A template token treated as a first-class variable location."""

    index: int
    width: int = 32


class TokenAddr(Record):
    """The address of a memory-class token's cell."""

    index: int

    @property
    def width(self):
        return 32


class MemoryWhole(Record):
    """All of memory squashed into a single dataflow fact."""

    @property
    def width(self):
        return 1


class StackSlot(Record):
    """Scratch cell at a fixed negative offset from the initial stack pointer."""

    offset: int  # positive k for address esp0 - k
    size: int  # bytes

    @property
    def width(self):
        return self.size * 8


class Temp(Record):
    """Lifter-internal scratch variable, not an architectural location."""

    index: int
    width: int = 32


Location = object  # union of the classes above; kept informal


def reg(name):
    if name in GP_REGS:
        return Reg(name, 32)
    if name in MMX_REGS:
        return Reg(name, 64)
    if name in XMM_REGS:
        return Reg(name, 128)
    raise ValueError(f"not a register: {name}")


# ---------------------------------------------------------------------------
# Expressions

CMP_OPS = frozenset({"eq", "ne", "ugt", "ult", "sgt", "slt"})
SHIFT_OPS = frozenset({"shl", "shr", "sar"})
COMMUTATIVE = frozenset({"add", "mul", "and", "or", "xor", "eq", "ne"})


class Expr(Record):
    __slots__ = ()


class Const(Expr):
    value: int
    width: int

    def __init__(self, value, width):
        super().__init__(value & ((1 << width) - 1), width)


class ReadLoc(Expr):
    loc: Location

    @property
    def width(self):
        return self.loc.width


class Load(Expr):
    addr: Expr
    size: int  # bytes

    @property
    def width(self):
        return self.size * 8


class UnOp(Expr):
    op: str  # 'not' | 'neg'
    e: Expr

    @property
    def width(self):
        return self.e.width


class Cast(Expr):
    kind: str  # 'zext' | 'sext'
    width: int
    e: Expr


class Extract(Expr):
    hi: int
    lo: int
    e: Expr

    @property
    def width(self):
        return self.hi - self.lo + 1


class BinOp(Expr):
    op: str
    a: Expr
    b: Expr

    @property
    def width(self):
        if self.op in CMP_OPS:
            return 1
        if self.op == "concat":
            return self.a.width + self.b.width
        return self.a.width


class Ite(Expr):
    c: Expr
    a: Expr
    b: Expr

    @property
    def width(self):
        return self.a.width


def const(value, width):
    return Const(value, width)


def read(loc):
    return ReadLoc(loc)


TRUE = Const(1, 1)
FALSE = Const(0, 1)


# ---------------------------------------------------------------------------
# Width validation


def validate_expr(e):
    """Raise WidthError if the expression breaks the width discipline."""
    if isinstance(e, Const):
        if e.width <= 0:
            raise WidthError(f"const width {e.width}")
    elif isinstance(e, ReadLoc):
        if e.loc.width is None or e.loc.width <= 0:
            raise WidthError(f"unreadable location {e.loc}")
    elif isinstance(e, Load):
        validate_expr(e.addr)
        if e.addr.width != 32:
            raise WidthError("load address must be 32-bit")
        if e.size not in (1, 2, 4, 8, 16):
            raise WidthError(f"load size {e.size}")
    elif isinstance(e, UnOp):
        validate_expr(e.e)
        if e.op not in ("not", "neg"):
            raise WidthError(f"unop {e.op}")
    elif isinstance(e, Cast):
        validate_expr(e.e)
        if e.width < e.e.width:
            raise WidthError(f"{e.kind} to narrower width")
    elif isinstance(e, Extract):
        validate_expr(e.e)
        if not (0 <= e.lo <= e.hi < e.e.width):
            raise WidthError(f"extract {e.hi}..{e.lo} of width {e.e.width}")
    elif isinstance(e, BinOp):
        validate_expr(e.a)
        validate_expr(e.b)
        if e.op in SHIFT_OPS:
            pass  # shift amount width is free
        elif e.op == "concat":
            pass
        elif e.a.width != e.b.width:
            raise WidthError(f"{e.op} widths {e.a.width} vs {e.b.width}")
    elif isinstance(e, Ite):
        validate_expr(e.c)
        validate_expr(e.a)
        validate_expr(e.b)
        if e.c.width != 1:
            raise WidthError("ite condition must be 1-bit")
        if e.a.width != e.b.width:
            raise WidthError("ite arm widths differ")
    else:
        raise WidthError(f"not an expression: {e!r}")
    return e


# ---------------------------------------------------------------------------
# Simplification (smart constructors applying a fixed rewrite set)


def _ones(width):
    return (1 << width) - 1


def _to_signed(v, w):
    v &= _ones(w)
    return v - (1 << w) if v >> (w - 1) else v


def mk_unop(op, e):
    if isinstance(e, Const):
        if op == "not":
            return Const(~e.value, e.width)
        return Const(-e.value, e.width)
    if isinstance(e, UnOp) and e.op == op:  # double negation
        return e.e
    return UnOp(op, e)


def mk_cast(kind, width, e):
    if e.width == width:
        return e
    if isinstance(e, Const):
        if kind == "zext":
            return Const(e.value, width)
        return Const(_to_signed(e.value, e.width), width)
    if isinstance(e, Cast) and e.kind == kind == "zext":
        return Cast("zext", width, e.e)
    return Cast(kind, width, e)


def mk_extract(hi, lo, e):
    if lo == 0 and hi == e.width - 1:
        return e
    if isinstance(e, Const):
        return Const(e.value >> lo, hi - lo + 1)
    if isinstance(e, Extract):
        return mk_extract(e.lo + hi, e.lo + lo, e.e)
    if isinstance(e, Cast) and e.kind == "zext":
        if hi < e.e.width:
            return mk_extract(hi, lo, e.e)
        if lo >= e.e.width:
            return Const(0, hi - lo + 1)
    if isinstance(e, BinOp) and e.op == "concat":
        wb = e.b.width
        if hi < wb:
            return mk_extract(hi, lo, e.b)
        if lo >= wb:
            return mk_extract(hi - wb, lo - wb, e.a)
    return Extract(hi, lo, e)


def _fold_binop(op, a, b):
    w = 1 if op in CMP_OPS else (a.width + b.width if op == "concat" else a.width)
    x, y = a.value, b.value
    if op == "add":
        return Const(x + y, w)
    if op == "sub":
        return Const(x - y, w)
    if op == "mul":
        return Const(x * y, w)
    if op == "udiv":
        return Const(x // y if y else _ones(w), w)
    if op == "urem":
        return Const(x % y if y else x, w)
    if op == "sdiv":
        sx, sy = _to_signed(x, a.width), _to_signed(y, a.width)
        return Const(int(sx / sy) if sy else _ones(w), w)
    if op == "srem":
        sx, sy = _to_signed(x, a.width), _to_signed(y, a.width)
        return Const(sx - sy * int(sx / sy) if sy else x, w)
    if op == "and":
        return Const(x & y, w)
    if op == "or":
        return Const(x | y, w)
    if op == "xor":
        return Const(x ^ y, w)
    if op == "shl":
        return Const(x << min(y, 256), w)
    if op == "shr":
        return Const(x >> min(y, 256), w)
    if op == "sar":
        return Const(_to_signed(x, a.width) >> min(y, 256), w)
    if op == "eq":
        return Const(int(x == y), 1)
    if op == "ne":
        return Const(int(x != y), 1)
    if op == "ugt":
        return Const(int(x > y), 1)
    if op == "ult":
        return Const(int(x < y), 1)
    if op == "sgt":
        return Const(int(_to_signed(x, a.width) > _to_signed(y, a.width)), 1)
    if op == "slt":
        return Const(int(_to_signed(x, a.width) < _to_signed(y, a.width)), 1)
    if op == "concat":
        return Const((x << b.width) | y, w)
    raise WidthError(f"unknown binop {op}")


def mk_binop(op, a, b):
    if isinstance(a, Const) and isinstance(b, Const):
        return _fold_binop(op, a, b)
    if op in COMMUTATIVE and isinstance(a, Const) and not isinstance(b, Const):
        a, b = b, a
    w = a.width
    # subtraction normalizes to addition of a negated constant
    if op == "sub":
        if isinstance(b, Const):
            return mk_binop("add", a, Const(-b.value, w))
        if a == b:
            return Const(0, w)
    if op == "add":
        if isinstance(b, Const) and b.value == 0:
            return a
        if isinstance(b, Const) and isinstance(a, BinOp) and a.op == "add" and isinstance(a.b, Const):
            return mk_binop("add", a.a, Const(a.b.value + b.value, w))
    if op == "xor":
        if isinstance(b, Const) and b.value == 0:
            return a
        if a == b:
            return Const(0, w)
        if isinstance(a, BinOp) and a.op == "xor":
            if a.b == b:
                return a.a
            if a.a == b:
                return a.b
    if op == "and":
        if isinstance(b, Const):
            if b.value == _ones(w):
                return a
            if b.value == 0:
                return Const(0, w)
        if a == b:
            return a
    if op == "or":
        if isinstance(b, Const):
            if b.value == 0:
                return a
            if b.value == _ones(w):
                return Const(_ones(w), w)
        if a == b:
            return a
    if op == "mul":
        if isinstance(b, Const):
            if b.value == 1:
                return a
            if b.value == 0:
                return Const(0, w)
    if op in SHIFT_OPS and isinstance(b, Const) and b.value == 0:
        return a
    if op == "eq" and a == b:
        return TRUE
    if op == "ne" and a == b:
        return FALSE
    if op == "concat":
        if (
            isinstance(a, Extract)
            and isinstance(b, Extract)
            and a.e == b.e
            and a.lo == b.hi + 1
        ):
            return mk_extract(a.hi, b.lo, a.e)
        if isinstance(a, Const) and a.value == 0:
            return mk_cast("zext", a.width + b.width, b)
    return BinOp(op, a, b)


def mk_ite(c, a, b):
    if isinstance(c, Const):
        return a if c.value else b
    if a == b:
        return a
    return Ite(c, a, b)


# ---------------------------------------------------------------------------
# Instructions and programs


class StoreLhs(Record):
    addr: Expr
    size: int  # bytes


class Assign(Record):
    lhs: object  # Location or StoreLhs
    rhs: Expr


class Goto(Record):
    target: str


class Branch(Record):
    cond: Expr
    then_target: str
    else_target: str


class Halt(Record):
    pass


class IRProgram(Record, frozen=False):
    instrs: list = factory(list)
    labels: dict = factory(dict)

    def resolve(self, label):
        try:
            return self.labels[label]
        except KeyError:
            raise WidthError(f"unresolved label {label!r}") from None

    def successors(self, i):
        ins = self.instrs[i]
        if isinstance(ins, Halt):
            return []
        if isinstance(ins, Goto):
            return [self.resolve(ins.target)]
        if isinstance(ins, Branch):
            return [self.resolve(ins.then_target), self.resolve(ins.else_target)]
        return [i + 1] if i + 1 < len(self.instrs) else []

    def has_back_edge(self):
        return any(s <= i for i in range(len(self.instrs)) for s in self.successors(i))

    def validate(self):
        for i, ins in enumerate(self.instrs):
            if isinstance(ins, Assign):
                validate_expr(ins.rhs)
                if isinstance(ins.lhs, StoreLhs):
                    validate_expr(ins.lhs.addr)
                    if ins.lhs.size * 8 != ins.rhs.width:
                        raise WidthError(f"store width mismatch at {i}")
                elif ins.lhs.width != ins.rhs.width:
                    raise WidthError(
                        f"assign width mismatch at {i}: "
                        f"{ins.lhs} <- width {ins.rhs.width}"
                    )
            elif isinstance(ins, Branch):
                validate_expr(ins.cond)
                if ins.cond.width != 1:
                    raise WidthError(f"branch condition width at {i}")
                self.resolve(ins.then_target)
                self.resolve(ins.else_target)
            elif isinstance(ins, Goto):
                self.resolve(ins.target)
        return self


def format_expr(e):
    if isinstance(e, Const):
        return f"{e.value:#x}<{e.width}>"
    if isinstance(e, ReadLoc):
        return format_loc(e.loc)
    if isinstance(e, Load):
        return f"@[{format_expr(e.addr)}]{e.size}"
    if isinstance(e, UnOp):
        return f"({e.op} {format_expr(e.e)})"
    if isinstance(e, Cast):
        return f"({e.kind}{e.width} {format_expr(e.e)})"
    if isinstance(e, Extract):
        return f"{format_expr(e.e)}{{{e.hi}..{e.lo}}}"
    if isinstance(e, BinOp):
        return f"({format_expr(e.a)} {e.op} {format_expr(e.b)})"
    if isinstance(e, Ite):
        return f"({format_expr(e.c)} ? {format_expr(e.a)} : {format_expr(e.b)})"
    return repr(e)


def format_loc(loc):
    if isinstance(loc, Reg):
        return loc.name
    if isinstance(loc, Flag):
        return f"flag:{loc.name}"
    if isinstance(loc, Token):
        return f"%{loc.index}"
    if isinstance(loc, TokenAddr):
        return f"&{loc.index}"
    if isinstance(loc, MemoryWhole):
        return "memory"
    if isinstance(loc, StackSlot):
        return f"stack[-{loc.offset}]{loc.size}"
    if isinstance(loc, Temp):
        return f"t{loc.index}"
    return repr(loc)


def format_instr(ins):
    if isinstance(ins, Assign):
        if isinstance(ins.lhs, StoreLhs):
            lhs = f"@[{format_expr(ins.lhs.addr)}]{ins.lhs.size}"
        else:
            lhs = format_loc(ins.lhs)
        return f"{lhs} <- {format_expr(ins.rhs)}"
    if isinstance(ins, Goto):
        return f"goto {ins.target}"
    if isinstance(ins, Branch):
        return f"if {format_expr(ins.cond)} goto {ins.then_target} else {ins.else_target}"
    if isinstance(ins, Halt):
        return "halt"
    return repr(ins)
