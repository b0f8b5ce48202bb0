"""The instruction table, and parsing and lifting template instructions
to the bitvector IR. Each row of `INSTRUCTIONS` holds a mnemonic's size
suffixes, operand counts and lifting rule; the parser and the lifter
both read it.

Tokens become first-class locations: a token pinned to one register by
its constraint lifts to that hard register, a register-class token
becomes a 32-bit token variable, and a memory-class token is accessed
through loads/stores at its cell address. Sub-register operands lift to
read-modify-write over the full 32-bit parent, which is what makes
bit-level liveness meaningful.
"""

from __future__ import annotations

import re

from .errors import BadTokenRef, MalformedInterface, UnknownMnemonic
from .expr import (
    Assign,
    Branch,
    Const,
    Flag,
    Goto,
    Halt,
    IRProgram,
    Load,
    ReadLoc,
    Reg,
    StoreLhs,
    Temp,
    Token,
    TokenAddr,
    mk_binop,
    mk_cast,
    mk_extract,
    mk_ite,
    mk_unop,
    reg,
)
from .template import (
    ImmT,
    LabelRef,
    MemT,
    ParsedTemplate,
    RegT,
    TemplateInstr,
    TokenRef,
    parse_operands,
    token_refs,
)
from .value import Record

MOD_WIDTHS = {"b": 8, "w": 16, "k": 32}


# ---------------------------------------------------------------------------
# Operand accessors


class Lifter:
    def __init__(self, parsed, fi):
        self.parsed = parsed
        self.fi = fi
        self.instrs = []
        self.labels = {}
        self.ntemp = 0

    def emit(self, ins):
        self.instrs.append(ins)

    def fresh(self, width):
        self.ntemp += 1
        return Temp(self.ntemp, width)

    def snap(self, e):
        """Bind an expression to a fresh temp and return its read."""
        if isinstance(e, (Const, ReadLoc)):
            return e
        t = self.fresh(e.width)
        self.emit(Assign(t, e))
        return ReadLoc(t)

    # -- locations ---------------------------------------------------------

    def _resolve_token(self, ref):
        if isinstance(ref.ref, str):
            if ref.ref not in self.fi.names:
                raise BadTokenRef(f"%[{ref.ref}] has no interface entry")
            pos = self.fi.names[ref.ref]
        else:
            pos = ref.ref
            if pos not in self.fi.constraints:
                raise BadTokenRef(f"%{pos} has no interface entry")
        return pos

    def _token_loc(self, pos):
        """Where token pos lives: its pinned register, the address of its
        cell for a memory token, or else the token variable."""
        kind = self.fi.kinds[pos]
        if kind == "fixed":
            return Reg(self.fi.fixed[pos], 32)
        if kind == "mem":
            return TokenAddr(pos)
        return Token(pos, 32)

    def _token_access(self, ref, instr_width):
        pos = self._resolve_token(ref)
        size_bits = min(self.fi.sizes[pos] * 8, 32)
        width = MOD_WIDTHS.get(ref.modifier) or instr_width or size_bits
        loc = self._token_loc(pos)
        if isinstance(loc, TokenAddr):
            cell_bits = self.fi.sizes[pos] * 8
            return CellAccess(self, pos, min(width, cell_bits) if instr_width else cell_bits)
        return SliceAccess(self, loc, 0, min(width, 32))

    def access(self, op, instr_width):
        if isinstance(op, RegT):
            return SliceAccess(self, reg(op.parent), op.lo, op.width)
        if isinstance(op, TokenRef):
            return self._token_access(op, instr_width)
        if isinstance(op, ImmT):
            return ImmAccess(op.value, instr_width or 32)
        if isinstance(op, MemT):
            return MemAccess(self, self.address(op), (instr_width or 32) // 8)
        raise MalformedInterface(f"operand {op!r} not addressable here")

    def _address_loc(self, op):
        """The location of an address's base or index register."""
        if isinstance(op, TokenRef):
            return self._token_loc(self._resolve_token(op))
        return Reg(op.parent, 32)

    def address(self, op):
        parts = []
        if op.disp:
            parts.append(Const(op.disp, 32))
        if op.base is not None:
            parts.append(ReadLoc(self._address_loc(op.base)))
        if op.index is not None:
            idx = ReadLoc(self._address_loc(op.index))
            parts.append(mk_binop("mul", idx, Const(op.scale, 32)))
        if not parts:
            return Const(0, 32)
        e = parts[0]
        for p in parts[1:]:
            e = mk_binop("add", e, p)
        return e


class SliceAccess:
    """A bit slice [lo, lo+width) of a register or token variable."""

    def __init__(self, lifter, loc, lo, width):
        self.lifter = lifter
        self.loc = loc
        self.lo = lo
        self.width = width

    def read(self):
        return mk_extract(self.lo + self.width - 1, self.lo, ReadLoc(self.loc))

    def write(self, e):
        full = self.loc.width
        if self.lo == 0 and self.width == full:
            self.lifter.emit(Assign(self.loc, e))
            return
        cur = ReadLoc(self.loc)
        out = e
        if self.lo > 0:
            out = mk_binop("concat", out, mk_extract(self.lo - 1, 0, cur))
        hi = self.lo + self.width
        if hi < full:
            out = mk_binop("concat", mk_extract(full - 1, hi, cur), out)
        self.lifter.emit(Assign(self.loc, out))


class CellAccess:
    """A memory-class token's cell, addressed through TokenAddr."""

    def __init__(self, lifter, pos, width):
        self.lifter = lifter
        self.pos = pos
        self.width = width

    def read(self):
        return Load(ReadLoc(TokenAddr(self.pos)), self.width // 8)

    def write(self, e):
        self.lifter.emit(Assign(StoreLhs(ReadLoc(TokenAddr(self.pos)), self.width // 8), e))


class MemAccess:
    def __init__(self, lifter, addr, size):
        self.lifter = lifter
        self.addr = lifter.snap(addr)
        self.width = size * 8
        self.size = size

    def read(self):
        return Load(self.addr, self.size)

    def write(self, e):
        self.lifter.emit(Assign(StoreLhs(self.addr, self.size), e))


class ImmAccess:
    def __init__(self, value, width):
        self.width = width
        self.value = value

    def read(self):
        return Const(self.value, self.width)

    def write(self, e):
        raise MalformedInterface("immediate used as a destination")


def coerce(e, width):
    if e.width == width:
        return e
    if e.width > width:
        return mk_extract(width - 1, 0, e)
    return mk_cast("zext", width, e)


# ---------------------------------------------------------------------------
# Flags and conditions

F_Z, F_C, F_S, F_O, F_P, F_A = (Flag(n) for n in ("z", "c", "s", "o", "p", "a"))


def _msb(e):
    return mk_extract(e.width - 1, e.width - 1, e)


def _lsb(e):
    return mk_extract(0, 0, e)


def _parity(e):
    low = mk_extract(7, 0, e) if e.width > 8 else e
    acc = _lsb(low)
    for i in range(1, 8):
        acc = mk_binop("xor", acc, mk_extract(i, i, low))
    return mk_unop("not", acc)


def _flag(f):
    return lambda: ReadLoc(f)


def _invert(cond):
    return lambda: mk_unop("not", cond())


def _both(op, x, y):
    return lambda: mk_binop(op, x(), y())


_ZF, _CF, _SF, _OF, _PF = (_flag(f) for f in (F_Z, F_C, F_S, F_O, F_P))
_A, _BE = _both("and", _invert(_CF), _invert(_ZF)), _both("or", _CF, _ZF)
_GE, _L = _both("eq", _SF, _OF), _both("ne", _SF, _OF)
_G, _LE = _both("and", _invert(_ZF), _GE), _both("or", _ZF, _L)

# condition code -> a function that builds only that condition's 1-bit value
CONDITIONS = {
    "e": _ZF, "z": _ZF, "ne": _invert(_ZF), "nz": _invert(_ZF),
    "a": _A, "nbe": _A, "ae": _invert(_CF), "nb": _invert(_CF), "nc": _invert(_CF),
    "b": _CF, "c": _CF, "nae": _CF, "be": _BE, "na": _BE,
    "g": _G, "nle": _G, "ge": _GE, "nl": _GE, "l": _L, "nge": _L, "le": _LE, "ng": _LE,
    "s": _SF, "ns": _invert(_SF), "o": _OF, "no": _invert(_OF), "p": _PF, "np": _invert(_PF),
}


def _set_zsp(lf, res, aux):
    lf.emit(Assign(F_Z, mk_binop("eq", res, Const(0, res.width))))
    lf.emit(Assign(F_S, _msb(res)))
    lf.emit(Assign(F_P, _parity(res)))
    lf.emit(Assign(F_A, aux))


def _overflow(a, b, res, subtract):
    """The sign bit of a±b's signed overflow, given its result."""
    if subtract:
        ovf = mk_binop("and", mk_binop("xor", a, b), mk_binop("xor", a, res))
    else:
        ovf = mk_binop("and", mk_binop("xor", a, res), mk_binop("xor", b, res))
    return _msb(ovf)


def _add_like(lf, a, b, cin, subtract):
    """Emit flags and return the result expression for a±b(±carry)."""
    w = a.width
    wa = mk_cast("zext", w + 1, a)
    wb = mk_cast("zext", w + 1, b)
    wc = mk_cast("zext", w + 1, cin) if cin is not None else Const(0, w + 1)
    op = "sub" if subtract else "add"
    wide = lf.snap(mk_binop(op, mk_binop(op, wa, wb), wc))
    res = lf.snap(mk_extract(w - 1, 0, wide))
    lf.emit(Assign(F_C, mk_extract(w, w, wide)))
    lf.emit(Assign(F_O, _overflow(a, b, res, subtract)))
    aux = mk_extract(4, 4, mk_binop("xor", mk_binop("xor", a, b), res)) if w > 4 else Const(0, 1)
    _set_zsp(lf, res, aux)
    return res


# ---------------------------------------------------------------------------
# Lifting rules: rule(lf, ins, w, tidx) emits the IR of instruction ins,
# number tidx of the template, whose operand width is w


def _pair(lf, ins, w):
    return lf.access(ins.operands[0], w), lf.access(ins.operands[1], w)


def _jump(cond):
    def rule(lf, ins, w, tidx):
        (op,) = ins.operands
        if not isinstance(op, LabelRef):
            raise MalformedInterface(f"{ins.mnemonic} needs a label operand")
        target = f"T{lf.parsed.resolve_label(op.name, tidx)}"
        if cond is None:
            lf.emit(Goto(target))
        else:
            lf.emit(Branch(cond(), target, f"T{tidx + 1}"))

    return rule


def _set(cond):
    def rule(lf, ins, w, tidx):
        dst = lf.access(ins.operands[0], 8)
        dst.write(mk_cast("zext", dst.width, cond()))

    return rule


def _cmov(cond):
    def rule(lf, ins, w, tidx):
        src, dst = _pair(lf, ins, w)
        dst.write(mk_ite(cond(), coerce(src.read(), dst.width), dst.read()))

    return rule


def _move(width=None, op=None):
    """mov, or a SIMD move of `width` bits; with op, dst <- src op dst."""

    def rule(lf, ins, w, tidx):
        src, dst = _pair(lf, ins, width or w)
        value = coerce(src.read(), dst.width)
        dst.write(value if op is None else mk_binop(op, value, dst.read()))

    return rule


def _extend(kind):
    def rule(lf, ins, w, tidx):
        ws, wd = SUFFIX_WIDTHS[ins.suffix[0]], SUFFIX_WIDTHS[ins.suffix[1]]
        src, dst = lf.access(ins.operands[0], ws), lf.access(ins.operands[1], wd)
        dst.write(mk_cast(kind, dst.width, coerce(src.read(), ws)))

    return rule


def _lea(lf, ins, w, tidx):
    ops = ins.operands
    if not isinstance(ops[0], MemT):
        raise MalformedInterface("lea needs a memory source")
    dst = lf.access(ops[1], w)
    dst.write(coerce(lf.address(ops[0]), dst.width))


def _xchg(lf, ins, w, tidx):
    a, b = _pair(lf, ins, w)
    ta, tb = lf.fresh(a.width), lf.fresh(b.width)
    lf.emit(Assign(ta, a.read()))
    lf.emit(Assign(tb, b.read()))
    a.write(coerce(ReadLoc(tb), a.width))
    b.write(coerce(ReadLoc(ta), b.width))


def _arith(subtract, carry=False, write=True):
    """add, adc, sub, sbb and cmp: dst ± src (± CF)."""

    def rule(lf, ins, w, tidx):
        src, dst = _pair(lf, ins, w)
        a = lf.snap(dst.read())
        b = lf.snap(coerce(src.read(), a.width))
        cin = mk_cast("zext", 1, ReadLoc(F_C)) if carry else None
        res = _add_like(lf, a, b, cin, subtract)
        if write:
            dst.write(res)

    return rule


def _logic(op, write=True):
    """and, or, xor and test: dst op src, with CF, OF and AF cleared."""

    def rule(lf, ins, w, tidx):
        src, dst = _pair(lf, ins, w)
        a = dst.read()
        b = coerce(src.read(), a.width)
        res = lf.snap(mk_binop(op, a, b))
        _set_zsp(lf, res, Const(0, 1))
        lf.emit(Assign(F_C, Const(0, 1)))
        lf.emit(Assign(F_O, Const(0, 1)))
        if write:
            dst.write(res)

    return rule


def _step(op):
    """inc and dec: dst op 1, with CF kept."""

    def rule(lf, ins, w, tidx):
        dst = lf.access(ins.operands[0], w)
        a = lf.snap(dst.read())
        one = Const(1, a.width)
        res = lf.snap(mk_binop(op, a, one))
        lf.emit(Assign(F_O, _overflow(a, one, res, op == "sub")))
        aux = mk_extract(4, 4, mk_binop("xor", mk_binop("xor", a, one), res))
        _set_zsp(lf, res, aux)
        dst.write(res)

    return rule


def _neg(lf, ins, w, tidx):
    dst = lf.access(ins.operands[0], w)
    a = lf.snap(dst.read())
    res = lf.snap(mk_unop("neg", a))
    lf.emit(Assign(F_C, mk_binop("ne", a, Const(0, a.width))))
    lf.emit(Assign(F_O, _msb(mk_binop("and", a, res))))
    aux = mk_extract(4, 4, mk_binop("xor", a, res))
    _set_zsp(lf, res, aux)
    dst.write(res)


def _not(lf, ins, w, tidx):
    dst = lf.access(ins.operands[0], w)
    dst.write(mk_unop("not", dst.read()))


def _shift(op):
    """shl/sal, shr, sar, rol and ror by an immediate, a register or 1;
    a count of 0 after masking to 5 bits leaves the flags as they were."""

    def rule(lf, ins, w, tidx):
        ops = ins.operands
        if len(ops) == 1:
            cnt_e = Const(1, w)
            dst = lf.access(ops[0], w)
        else:
            cnt_src = lf.access(ops[0], 8 if isinstance(ops[0], RegT) else w)
            dst = lf.access(ops[1], w)
            cnt_e = coerce(cnt_src.read(), w)
        a = lf.snap(dst.read())
        cnt = lf.snap(mk_binop("and", cnt_e, Const(31, w)))
        zero = mk_binop("eq", cnt, Const(0, w))
        wc = Const(w, w)
        if op in ("rol", "ror"):
            # an 8- or 16-bit rotate turns by the masked count mod its width
            rot = cnt if w == 32 else mk_binop("and", cnt, Const(w - 1, w))
            inv = mk_binop("and", mk_binop("sub", wc, rot), Const(w - 1, w))
            if op == "rol":
                res = lf.snap(mk_binop("or", mk_binop("shl", a, rot), mk_binop("shr", a, inv)))
                cout = _lsb(res)
                onew = mk_binop("xor", _msb(res), cout)
            else:
                res = lf.snap(mk_binop("or", mk_binop("shr", a, rot), mk_binop("shl", a, inv)))
                cout = _msb(res)
                onew = mk_binop("xor", cout, mk_extract(w - 2, w - 2, res))
            lf.emit(Assign(F_C, mk_ite(zero, ReadLoc(F_C), cout)))
            lf.emit(Assign(F_O, mk_ite(zero, ReadLoc(F_O), onew)))
            dst.write(res)
            return
        res = lf.snap(mk_binop(op, a, cnt))
        if op == "shl":
            cout = _lsb(mk_binop("shr", a, mk_binop("sub", wc, cnt)))
            onew = mk_binop("xor", _msb(res), cout)
        else:
            cout = _lsb(mk_binop(op, a, mk_binop("sub", cnt, Const(1, w))))
            onew = _msb(a) if op == "shr" else Const(0, 1)
        lf.emit(Assign(F_C, mk_ite(zero, ReadLoc(F_C), cout)))
        lf.emit(Assign(F_O, mk_ite(zero, ReadLoc(F_O), onew)))
        lf.emit(Assign(F_Z, mk_ite(zero, ReadLoc(F_Z), mk_binop("eq", res, Const(0, w)))))
        lf.emit(Assign(F_S, mk_ite(zero, ReadLoc(F_S), _msb(res))))
        lf.emit(Assign(F_P, mk_ite(zero, ReadLoc(F_P), _parity(res))))
        lf.emit(Assign(F_A, mk_ite(zero, ReadLoc(F_A), Const(0, 1))))
        dst.write(res)

    return rule


def _multiply(kind):
    """mul (kind zext) and imul (sext) into edx:eax, and imul's two- and
    three-operand forms, truncated to the destination."""

    def rule(lf, ins, w, tidx):
        ops = ins.operands
        if kind == "sext" and len(ops) >= 2:
            if len(ops) == 3:
                a = coerce(lf.access(ops[0], w).read(), w)
                b = lf.access(ops[1], w).read()
                dst = lf.access(ops[2], w)
            else:
                a = lf.access(ops[0], w).read()
                dst = lf.access(ops[1], w)
                b = dst.read()
            wide = lf.snap(mk_binop("mul", mk_cast("sext", 2 * w, a), mk_cast("sext", 2 * w, b)))
            res = lf.snap(mk_extract(w - 1, 0, wide))
            ovf = lf.snap(mk_binop("ne", wide, mk_cast("sext", 2 * w, res)))
            lf.emit(Assign(F_C, ovf))
            lf.emit(Assign(F_O, ovf))
            _set_zsp(lf, res, Const(0, 1))
            dst.write(res)
            return
        src = lf.access(ops[0], w)
        if w == 8:
            acc = SliceAccess(lf, Reg("eax", 32), 0, 8)
            wide = lf.snap(mk_binop("mul", mk_cast(kind, 16, acc.read()), mk_cast(kind, 16, src.read())))
            SliceAccess(lf, Reg("eax", 32), 0, 16).write(wide)
            hi = mk_extract(15, 8, wide)
        else:
            acc = SliceAccess(lf, Reg("eax", 32), 0, w)
            wide = lf.snap(mk_binop("mul", mk_cast(kind, 2 * w, acc.read()), mk_cast(kind, 2 * w, coerce(src.read(), w))))
            acc.write(mk_extract(w - 1, 0, wide))
            hi = mk_extract(2 * w - 1, w, wide)
            SliceAccess(lf, Reg("edx", 32), 0, w).write(hi)
        if kind == "zext":
            spill = mk_binop("ne", hi, Const(0, hi.width))
        else:
            spill = mk_binop("ne", mk_cast("sext", 2 * w, mk_extract(w - 1, 0, wide)), wide)
        spill = lf.snap(spill)
        lf.emit(Assign(F_C, spill))
        lf.emit(Assign(F_O, spill))
        _set_zsp(lf, mk_extract(w - 1, 0, wide), Const(0, 1))

    return rule


def _bswap(lf, ins, w, tidx):
    dst = lf.access(ins.operands[0], 32)
    a = lf.snap(dst.read())
    b0, b1, b2, b3 = (mk_extract(i + 7, i, a) for i in (0, 8, 16, 24))
    dst.write(mk_binop("concat", mk_binop("concat", b0, b1), mk_binop("concat", b2, b3)))


def _push(lf, ins, w, tidx):
    w = 32 if ins.suffix != "w" else 16
    src = lf.access(ins.operands[0], w)
    t = lf.snap(coerce(src.read(), w))
    esp = Reg("esp", 32)
    lf.emit(Assign(esp, mk_binop("sub", ReadLoc(esp), Const(w // 8, 32))))
    lf.emit(Assign(StoreLhs(ReadLoc(esp), w // 8), t))


def _pop(lf, ins, w, tidx):
    w = 32 if ins.suffix != "w" else 16
    dst = lf.access(ins.operands[0], w)
    esp = Reg("esp", 32)
    t = lf.fresh(w)
    lf.emit(Assign(t, Load(ReadLoc(esp), w // 8)))
    lf.emit(Assign(esp, mk_binop("add", ReadLoc(esp), Const(w // 8, 32))))
    dst.write(coerce(ReadLoc(t), dst.width))


def _cmpxchg(lf, ins, w, tidx):
    src, dst = _pair(lf, ins, w)
    acc = SliceAccess(lf, Reg("eax", 32), 0, w)
    old = lf.snap(dst.read())
    a = lf.snap(acc.read())
    _add_like(lf, a, old, None, subtract=True)  # cmp eax, dst
    z = ReadLoc(F_Z)
    dst.write(mk_ite(z, coerce(src.read(), w), old))
    acc.write(mk_ite(z, a, old))


def _cmpxchg8b(lf, ins, w, tidx):
    dst = lf.access(ins.operands[0], 64)
    if dst.width != 64:
        raise MalformedInterface("cmpxchg8b needs a 64-bit operand")
    old = lf.snap(dst.read())
    eax, edx, ebx, ecx = (Reg(r, 32) for r in ("eax", "edx", "ebx", "ecx"))
    pair = mk_binop("concat", ReadLoc(edx), ReadLoc(eax))
    lf.emit(Assign(F_Z, mk_binop("eq", pair, old)))
    z = ReadLoc(F_Z)
    dst.write(mk_ite(z, mk_binop("concat", ReadLoc(ecx), ReadLoc(ebx)), old))
    lf.emit(Assign(edx, mk_ite(z, ReadLoc(edx), mk_extract(63, 32, old))))
    lf.emit(Assign(eax, mk_ite(z, ReadLoc(eax), mk_extract(31, 0, old))))


# ---------------------------------------------------------------------------
# The instruction table


class Instruction(Record):
    rule: object  # rule(lf, ins, w, tidx), as above
    suffixes: frozenset  # the size suffixes the mnemonic takes
    operands: tuple = (2, 2)  # the fewest and the most operands it takes


SUFFIX_WIDTHS = {"b": 8, "w": 16, "l": 32}
SIZED = frozenset(("", "b", "w", "l"))
NO_BYTE = frozenset(("", "w", "l"))  # as --32 rejects pushb, popb and leab
LONG = frozenset(("", "l"))
BARE = frozenset(("",))
ONE = (1, 1)

INSTRUCTIONS = {
    "nop": Instruction(lambda lf, ins, w, tidx: None, BARE, (0, 1)),
    "jmp": Instruction(_jump(None), BARE, ONE),
    "mov": Instruction(_move(), SIZED),
    "movd": Instruction(_move(32), BARE),
    "movq": Instruction(_move(64), BARE),
    "movaps": Instruction(_move(128), BARE),
    "movdqa": Instruction(_move(128), BARE),
    "movdqu": Instruction(_move(128), BARE),
    "pxor": Instruction(_move(64, "xor"), BARE),
    "movz": Instruction(_extend("zext"), frozenset(("bw", "bl", "wl"))),
    "movs": Instruction(_extend("sext"), frozenset(("bw", "bl", "wl"))),
    "lea": Instruction(_lea, NO_BYTE),
    "xchg": Instruction(_xchg, SIZED),
    "add": Instruction(_arith(False), SIZED),
    "adc": Instruction(_arith(False, carry=True), SIZED),
    "sub": Instruction(_arith(True), SIZED),
    "sbb": Instruction(_arith(True, carry=True), SIZED),
    "cmp": Instruction(_arith(True, write=False), SIZED),
    "and": Instruction(_logic("and"), SIZED),
    "or": Instruction(_logic("or"), SIZED),
    "xor": Instruction(_logic("xor"), SIZED),
    "test": Instruction(_logic("and", write=False), SIZED),
    "inc": Instruction(_step("add"), SIZED, ONE),
    "dec": Instruction(_step("sub"), SIZED, ONE),
    "neg": Instruction(_neg, SIZED, ONE),
    "not": Instruction(_not, SIZED, ONE),
    "shl": Instruction(_shift("shl"), SIZED, (1, 2)),
    "sal": Instruction(_shift("shl"), SIZED, (1, 2)),
    "shr": Instruction(_shift("shr"), SIZED, (1, 2)),
    "sar": Instruction(_shift("sar"), SIZED, (1, 2)),
    "rol": Instruction(_shift("rol"), SIZED, (1, 2)),
    "ror": Instruction(_shift("ror"), SIZED, (1, 2)),
    "mul": Instruction(_multiply("zext"), SIZED, ONE),
    "imul": Instruction(_multiply("sext"), SIZED, (1, 3)),
    "bswap": Instruction(_bswap, LONG, ONE),
    "push": Instruction(_push, NO_BYTE, ONE),
    "pop": Instruction(_pop, NO_BYTE, ONE),
    "cmpxchg": Instruction(_cmpxchg, SIZED),
    "cmpxchg8b": Instruction(_cmpxchg8b, BARE, ONE),
}
INSTRUCTIONS.update(
    (family + cc, Instruction(rule(cond), suffixes, operands))
    for cc, cond in CONDITIONS.items()
    for family, rule, suffixes, operands in (
        ("set", _set, BARE, ONE), ("cmov", _cmov, LONG, (2, 2)),
        ("j", _jump, BARE, ONE),
    )
)


def classify_mnemonic(word):
    """Return (mnemonic, suffix) or raise UnknownMnemonic."""
    for cut in (0, 1, 2):
        mnemonic, suffix = word[: len(word) - cut], word[len(word) - cut :]
        row = INSTRUCTIONS.get(mnemonic)
        if row is not None and suffix in row.suffixes:
            return mnemonic, suffix
    raise UnknownMnemonic(word)


_LABEL_DEF = re.compile(r"^([A-Za-z_0-9.]+):\s*")


def parse_template(template, chunk=None):
    """Parse the template into instructions plus a label table.

    When a chunk is given, named/numbered token references are checked
    against its operand entries.
    """
    instrs, label_defs = [], []
    pending_prefixes = set()
    for raw in re.split(r"[;\n]", template):
        stmt = raw.strip()
        while True:
            m = _LABEL_DEF.match(stmt)
            if not m:
                break
            label_defs.append((m.group(1), len(instrs)))
            stmt = stmt[m.end():]
        if not stmt:
            continue
        words = stmt.split(None, 1)
        if words[0].lower() == "lock":
            pending_prefixes.add("lock")
            if len(words) == 1:
                continue
            stmt = words[1]
            words = stmt.split(None, 1)
        mnemonic, suffix = classify_mnemonic(words[0].lower())
        operands = parse_operands(words[1] if len(words) > 1 else "")
        instrs.append(
            TemplateInstr(mnemonic, suffix, operands, frozenset(pending_prefixes), stmt)
        )
        pending_prefixes = set()

    if chunk is not None:
        positions = {e.position for e in chunk.entries}
        names = {e.name for e in chunk.entries if e.name}
        for ref in token_refs(instrs):
            if isinstance(ref.ref, int) and ref.ref not in positions:
                raise BadTokenRef(f"%{ref.ref} has no interface entry")
            if isinstance(ref.ref, str) and ref.ref not in names:
                raise BadTokenRef(f"%[{ref.ref}] has no interface entry")
    return ParsedTemplate(tuple(instrs), tuple(label_defs))


def uses_push_pop(pt):
    return any(ins.mnemonic in ("push", "pop") for ins in pt.instrs)


def lift(parsed, fi):
    lf = Lifter(parsed, fi)
    for tidx, ins in enumerate(parsed.instrs):
        lf.labels[f"T{tidx}"] = len(lf.instrs)
        row = INSTRUCTIONS[ins.mnemonic]
        fewest, most = row.operands
        if not fewest <= len(ins.operands) <= most:
            takes = fewest if fewest == most else f"{fewest} to {most}"
            raise MalformedInterface(
                f"{ins.mnemonic}{ins.suffix} takes {takes} operand(s), not {len(ins.operands)}"
            )
        row.rule(lf, ins, _instr_width(lf, ins), tidx)
    lf.labels[f"T{len(parsed.instrs)}"] = len(lf.instrs)
    lf.emit(Halt())
    return IRProgram(lf.instrs, lf.labels).validate()


def _instr_width(lf, ins):
    if ins.suffix in SUFFIX_WIDTHS:
        return SUFFIX_WIDTHS[ins.suffix]
    for op in reversed(ins.operands):
        if isinstance(op, RegT):
            return op.width
        if isinstance(op, TokenRef):
            if op.modifier in MOD_WIDTHS:
                return MOD_WIDTHS[op.modifier]
            return min(lf.fi.sizes[lf._resolve_token(op)] * 8, 32)
    return 32
