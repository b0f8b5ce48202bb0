"""Side-effect-free bitvector IR: locations, expressions, instructions.

Expressions are immutable trees over 32-bit (and narrower/wider) bitvectors.
Programs are flat instruction lists with string labels; conditional writes
are expressed with if-then-else expressions so that most chunks stay
straight-line.
"""

from __future__ import annotations

import operator

from .errors import WidthError
from .value import Record, _bind, factory

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
#
# A node settles its width, validity and hash when built, so no walk
# re-derives them over a shared DAG: the constructor raises WidthError
# for a node that breaks the width discipline. Equal nodes built since
# clear_nodes() are one object (hash-consing: Filliatre & Conchon,
# 2006), so == is an identity test there; older nodes compare by fields.

SHIFT_OPS = frozenset({"shl", "shr", "sar"})
COMMUTATIVE = frozenset({"add", "mul", "and", "or", "xor", "eq", "ne"})

_nodes = {}  # (class, hash of the fields) -> the last node built with them


def clear_nodes():
    """Forget the nodes built so far; each analysis starts with this."""
    _nodes.clear()


class Expr(Record):
    # width shadows the field of that name that Const and Cast keep in
    # their __dict__, and holds the same value
    __slots__ = ("width", "_hash")

    def __new__(cls, *args, **kwargs):
        if kwargs or len(args) != len(cls._fields):
            args = tuple(_bind(cls, args, kwargs))
        h = hash(args)
        key = (cls, h)
        node = _nodes.get(key)
        if node is None or tuple(node.__dict__.values()) != args:
            width = cls._width(*args)
            node = object.__new__(cls)
            node.__dict__.update(zip(cls._fields, args))
            _set_width(node, width)
            _set_hash(node, h)
            _nodes[key] = node
        return node

    # __new__ built the node; object.__init__ ignores the arguments
    __init__ = object.__init__

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._hash == other._hash and _same_graph(self, other)

    def __hash__(self):
        return self._hash


_set_width, _set_hash = Expr.width.__set__, Expr._hash.__set__


def _same_graph(a, b):
    """Field-by-field equality of two nodes of one class, visiting each
    pair of nodes once: equal graphs of different analyses share
    subgraphs, and a walk of their paths would take exponential time.
    A pair is marked before its fields are compared, which is sound
    since any difference makes the whole answer false."""
    seen = set()
    pairs = [(a, b)]
    while pairs:
        x, y = pairs.pop()
        if x is y:
            continue
        if not isinstance(x, Expr):
            if x != y:
                return False
            continue
        if x.__class__ is not y.__class__ or x._hash != y._hash:
            return False
        if (id(x), id(y)) not in seen:
            seen.add((id(x), id(y)))
            pairs.extend(zip(x.__dict__.values(), y.__dict__.values()))
    return True


class Const(Expr):
    value: int
    width: int

    def __new__(cls, value, width):
        return Expr.__new__(cls, value & ((1 << width) - 1), width)

    @staticmethod
    def _width(value, width):
        if width <= 0:
            raise WidthError(f"const width {width}")
        return width


class ReadLoc(Expr):
    loc: Location

    @staticmethod
    def _width(loc):
        if loc.width is None or loc.width <= 0:
            raise WidthError(f"unreadable location {loc}")
        return loc.width


class Load(Expr):
    addr: Expr
    size: int  # bytes

    @staticmethod
    def _width(addr, size):
        if addr.width != 32:
            raise WidthError("load address must be 32-bit")
        if size not in (1, 2, 4, 8, 16):
            raise WidthError(f"load size {size}")
        return size * 8


class UnOp(Expr):
    op: str  # a key of UNOPS
    e: Expr

    @staticmethod
    def _width(op, e):
        if op not in UNOPS:
            raise WidthError(f"unop {op}")
        return e.width


class Cast(Expr):
    kind: str  # 'zext' | 'sext'
    width: int
    e: Expr

    @staticmethod
    def _width(kind, width, e):
        if width < e.width:
            raise WidthError(f"{kind} to narrower width")
        return width


class Extract(Expr):
    hi: int
    lo: int
    e: Expr

    @staticmethod
    def _width(hi, lo, e):
        if not (0 <= lo <= hi < e.width):
            raise WidthError(f"extract {hi}..{lo} of width {e.width}")
        return hi - lo + 1


class BinOp(Expr):
    op: str  # a key of BINOPS
    a: Expr
    b: Expr

    @staticmethod
    def _width(op, a, b):
        if op not in BINOPS:
            raise WidthError(f"unknown binop {op}")
        rule, equal, _ = BINOPS[op]
        if equal and a.width != b.width:
            raise WidthError(f"{op} widths {a.width} vs {b.width}")
        if rule == ONE_BIT:
            return 1
        if rule == SUM_WIDTH:
            return a.width + b.width
        return a.width


class Ite(Expr):
    c: Expr
    a: Expr
    b: Expr

    @staticmethod
    def _width(c, a, b):
        if c.width != 1:
            raise WidthError("ite condition must be 1-bit")
        if a.width != b.width:
            raise WidthError("ite arm widths differ")
        return a.width


# ---------------------------------------------------------------------------
# Operators
#
# The one definition of each operator, which folding, width validation
# and the oracle's compiled closures all read. A value function takes
# unsigned operands, each within its own width, and returns an integer
# that the caller masks to the result width. A binary operator's value
# entry binds the operand widths once and returns that function, most
# often a builtin of the operator module.


def _ones(width):
    return (1 << width) - 1


def _to_signed(v, w):
    v &= _ones(w)
    return v - (1 << w) if v >> (w - 1) else v


# Width rules, which BinOp._width applies: the first operand's width,
# one bit, or the sum of both operands' widths.
FIRST_WIDTH, ONE_BIT, SUM_WIDTH = "first", "bit", "sum"


def _sar(wa, wb):
    return lambda x, y: _to_signed(x, wa) >> min(y, 256)


def _concat(wa, wb):
    return lambda x, y: (x << wb) | y


def _shift(shift):
    """A shift whose count is capped at 256, a cap that a count of at
    most 8 bits never reaches."""
    return lambda wa, wb: shift if wb <= 8 else (lambda x, y: shift(x, min(y, 256)))


# op -> (width rule, whether the operands must have equal widths,
# value: (wa, wb) -> f(x, y)); a shift count past 256 shifts every bit
# of any operand out
BINOPS = {
    "add": (FIRST_WIDTH, True, lambda wa, wb: operator.add),
    "sub": (FIRST_WIDTH, True, lambda wa, wb: operator.sub),
    "mul": (FIRST_WIDTH, True, lambda wa, wb: operator.mul),
    "and": (FIRST_WIDTH, True, lambda wa, wb: operator.and_),
    "or": (FIRST_WIDTH, True, lambda wa, wb: operator.or_),
    "xor": (FIRST_WIDTH, True, lambda wa, wb: operator.xor),
    "shl": (FIRST_WIDTH, False, _shift(operator.lshift)),
    "shr": (FIRST_WIDTH, False, _shift(operator.rshift)),
    "sar": (FIRST_WIDTH, False, _sar),
    "eq": (ONE_BIT, True, lambda wa, wb: operator.eq),
    "ne": (ONE_BIT, True, lambda wa, wb: operator.ne),
    "concat": (SUM_WIDTH, False, _concat),
}

# op -> value f(x); a unary operator keeps its operand's width
UNOPS = {
    "not": operator.invert,
    "neg": operator.neg,
}


# ---------------------------------------------------------------------------
# Simplification (smart constructors applying a fixed rewrite set)


def mk_unop(op, e):
    if isinstance(e, Const):
        return Const(UNOPS[op](e.value), e.width)
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
    width = BinOp._width(op, a, b)
    value = BINOPS[op][2](a.width, b.width)
    return Const(value(a.value, b.value), width)


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
        return Const(1, 1)
    if op == "ne" and a == b:
        return Const(0, 1)
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

    def validate(self):
        for i, ins in enumerate(self.instrs):
            if isinstance(ins, Assign):
                if isinstance(ins.lhs, StoreLhs):
                    if ins.lhs.size * 8 != ins.rhs.width:
                        raise WidthError(f"store width mismatch at {i}")
                elif ins.lhs.width != ins.rhs.width:
                    raise WidthError(
                        f"assign width mismatch at {i}: "
                        f"{ins.lhs} <- width {ins.rhs.width}"
                    )
            elif isinstance(ins, Branch):
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
