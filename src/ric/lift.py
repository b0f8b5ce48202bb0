"""Lifting template instructions to the bitvector IR.

Tokens become first-class locations: a token pinned to one register by
its constraint lifts to that hard register, a register-class token
becomes a 32-bit token variable, and a memory-class token is accessed
through loads/stores at its cell address. Sub-register operands lift to
read-modify-write over the full 32-bit parent, which is what makes
bit-level liveness meaningful.
"""

from __future__ import annotations

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
from .template import ImmT, LabelRef, MemT, RegT, TokenRef

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
# Flags

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


def _cond(cc):
    z, c, s, o, p = (ReadLoc(f) for f in (F_Z, F_C, F_S, F_O, F_P))
    table = {
        "e": z, "z": z,
        "ne": mk_unop("not", z), "nz": mk_unop("not", z),
        "a": mk_binop("and", mk_unop("not", c), mk_unop("not", z)),
        "nbe": mk_binop("and", mk_unop("not", c), mk_unop("not", z)),
        "ae": mk_unop("not", c), "nb": mk_unop("not", c), "nc": mk_unop("not", c),
        "b": c, "c": c, "nae": c,
        "be": mk_binop("or", c, z), "na": mk_binop("or", c, z),
        "g": mk_binop("and", mk_unop("not", z), mk_binop("eq", s, o)),
        "nle": mk_binop("and", mk_unop("not", z), mk_binop("eq", s, o)),
        "ge": mk_binop("eq", s, o), "nl": mk_binop("eq", s, o),
        "l": mk_binop("ne", s, o), "nge": mk_binop("ne", s, o),
        "le": mk_binop("or", z, mk_binop("ne", s, o)),
        "ng": mk_binop("or", z, mk_binop("ne", s, o)),
        "s": s, "ns": mk_unop("not", s),
        "o": o, "no": mk_unop("not", o),
        "p": p, "np": mk_unop("not", p),
    }
    return table[cc]


SUFFIX_WIDTHS = {"b": 8, "w": 16, "l": 32}

SHIFTS = {"shl", "sal", "shr", "sar", "rol", "ror"}
SIMD_MOVES = {"movq": 64, "movd": 32, "movaps": 128, "movdqa": 128, "movdqu": 128}


def lift(parsed, fi):
    lf = Lifter(parsed, fi)
    label_at = {}
    for name, tidx in parsed.label_defs:
        label_at.setdefault(tidx, []).append(name)

    for tidx, ins in enumerate(parsed.instrs):
        lf.labels[f"T{tidx}"] = len(lf.instrs)
        _lift_instr(lf, ins, tidx)
    lf.labels[f"T{len(parsed.instrs)}"] = len(lf.instrs)
    lf.emit(Halt())
    prog = IRProgram(lf.instrs, lf.labels)
    prog.validate()
    return prog


def _instr_width(lf, ins):
    if ins.suffix in SUFFIX_WIDTHS:
        return SUFFIX_WIDTHS[ins.suffix]
    for op in reversed(ins.operands):
        if isinstance(op, RegT):
            return op.width
        if isinstance(op, TokenRef):
            if op.modifier in MOD_WIDTHS:
                return MOD_WIDTHS[op.modifier]
            pos = lf._resolve_token(op)
            return min(lf.fi.sizes[pos] * 8, 32)
    return 32


def _set_zsp(lf, res, with_aux=None):
    lf.emit(Assign(F_Z, mk_binop("eq", res, Const(0, res.width))))
    lf.emit(Assign(F_S, _msb(res)))
    lf.emit(Assign(F_P, _parity(res)))
    if with_aux is not None:
        lf.emit(Assign(F_A, with_aux))


def _logic_flags(lf, res):
    _set_zsp(lf, res, with_aux=Const(0, 1))
    lf.emit(Assign(F_C, Const(0, 1)))
    lf.emit(Assign(F_O, Const(0, 1)))


def _add_like(lf, a, b, cin, subtract):
    """Emit flags and return the result expression for a±b(±carry)."""
    w = a.width
    wa = mk_cast("zext", w + 1, a)
    wb = mk_cast("zext", w + 1, b)
    wc = mk_cast("zext", w + 1, cin) if cin is not None else Const(0, w + 1)
    if subtract:
        wide = mk_binop("sub", mk_binop("sub", wa, wb), wc)
    else:
        wide = mk_binop("add", mk_binop("add", wa, wb), wc)
    wide = lf.snap(wide)
    res = lf.snap(mk_extract(w - 1, 0, wide))
    lf.emit(Assign(F_C, mk_extract(w, w, wide)))
    if subtract:
        ovf = mk_binop("and", mk_binop("xor", a, b), mk_binop("xor", a, res))
    else:
        ovf = mk_binop("and", mk_binop("xor", a, res), mk_binop("xor", b, res))
    lf.emit(Assign(F_O, _msb(ovf)))
    aux = mk_extract(4, 4, mk_binop("xor", mk_binop("xor", a, b), res)) if w > 4 else Const(0, 1)
    _set_zsp(lf, res, with_aux=aux)
    return res


def _lift_instr(lf, ins, tidx):
    m = ins.mnemonic
    ops = ins.operands

    if m == "nop":
        return

    if m in ("jmp",) or (m[0] == "j" and m != "jmp"):
        if len(ops) != 1 or not isinstance(ops[0], LabelRef):
            raise MalformedInterface(f"{m} needs a label operand")
        target_t = lf.parsed.resolve_label(ops[0].name, tidx)
        if m == "jmp":
            lf.emit(Goto(f"T{target_t}"))
        else:
            lf.emit(Branch(_cond(m[1:]), f"T{target_t}", f"T{tidx + 1}"))
        return

    if m.startswith("set"):
        dst = lf.access(ops[0], 8)
        dst.write(mk_cast("zext", dst.width, _cond(m[3:])))
        return

    if m.startswith("cmov"):
        w = _instr_width(lf, ins)
        src, dst = lf.access(ops[0], w), lf.access(ops[1], w)
        dst.write(mk_ite(_cond(m[4:]), coerce(src.read(), dst.width), dst.read()))
        return

    if m in SIMD_MOVES:
        w = SIMD_MOVES[m]
        src, dst = lf.access(ops[0], w), lf.access(ops[1], w)
        dst.write(coerce(src.read(), dst.width))
        return

    if m == "pxor":
        src, dst = lf.access(ops[0], 64), lf.access(ops[1], 64)
        dst.write(mk_binop("xor", coerce(src.read(), dst.width), dst.read()))
        return

    if m in ("movz", "movs"):
        ws, wd = SUFFIX_WIDTHS[ins.suffix[0]], SUFFIX_WIDTHS[ins.suffix[1]]
        src, dst = lf.access(ops[0], ws), lf.access(ops[1], wd)
        kind = "zext" if m == "movz" else "sext"
        dst.write(mk_cast(kind, dst.width, coerce(src.read(), ws)))
        return

    w = _instr_width(lf, ins)

    if m == "lea":
        if not isinstance(ops[0], MemT):
            raise MalformedInterface("lea needs a memory source")
        dst = lf.access(ops[1], w)
        dst.write(coerce(lf.address(ops[0]), dst.width))
        return

    if m == "mov":
        src, dst = lf.access(ops[0], w), lf.access(ops[1], w)
        dst.write(coerce(src.read(), dst.width))
        return

    if m == "xchg":
        a, b = lf.access(ops[0], w), lf.access(ops[1], w)
        ta = lf.fresh(a.width)
        tb = lf.fresh(b.width)
        lf.emit(Assign(ta, a.read()))
        lf.emit(Assign(tb, b.read()))
        a.write(coerce(ReadLoc(tb), a.width))
        b.write(coerce(ReadLoc(ta), b.width))
        return

    if m in ("add", "adc", "sub", "sbb", "cmp"):
        src, dst = lf.access(ops[0], w), lf.access(ops[1], w)
        a = lf.snap(dst.read())
        b = lf.snap(coerce(src.read(), a.width))
        cin = mk_cast("zext", 1, ReadLoc(F_C)) if m in ("adc", "sbb") else None
        res = _add_like(lf, a, b, cin, subtract=m in ("sub", "sbb", "cmp"))
        if m != "cmp":
            dst.write(res)
        return

    if m in ("and", "or", "xor", "test"):
        src, dst = lf.access(ops[0], w), lf.access(ops[1], w)
        a = dst.read()
        b = coerce(src.read(), a.width)
        res = lf.snap(mk_binop("xor" if m == "xor" else ("and" if m in ("and", "test") else "or"), a, b))
        _logic_flags(lf, res)
        if m != "test":
            dst.write(res)
        return

    if m in ("inc", "dec"):
        dst = lf.access(ops[0], w)
        a = lf.snap(dst.read())
        one = Const(1, a.width)
        res = lf.snap(mk_binop("sub" if m == "dec" else "add", a, one))
        if m == "inc":
            ovf = mk_binop("and", mk_binop("xor", a, res), mk_binop("xor", one, res))
        else:
            ovf = mk_binop("and", mk_binop("xor", a, one), mk_binop("xor", a, res))
        lf.emit(Assign(F_O, _msb(ovf)))
        aux = mk_extract(4, 4, mk_binop("xor", mk_binop("xor", a, one), res))
        _set_zsp(lf, res, with_aux=aux)
        dst.write(res)
        return

    if m == "neg":
        dst = lf.access(ops[0], w)
        a = lf.snap(dst.read())
        res = lf.snap(mk_unop("neg", a))
        lf.emit(Assign(F_C, mk_binop("ne", a, Const(0, a.width))))
        lf.emit(Assign(F_O, _msb(mk_binop("and", a, res))))
        aux = mk_extract(4, 4, mk_binop("xor", a, res))
        _set_zsp(lf, res, with_aux=aux)
        dst.write(res)
        return

    if m == "not":
        dst = lf.access(ops[0], w)
        dst.write(mk_unop("not", dst.read()))
        return

    if m in SHIFTS:
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
        inv = mk_binop("and", mk_binop("sub", wc, cnt), Const(31, w))
        base = m if m != "sal" else "shl"
        if base in ("shl", "shr", "sar"):
            res = lf.snap(mk_binop(base, a, cnt))
            if base == "shl":
                cout = _lsb(mk_binop("shr", a, mk_binop("sub", wc, cnt)))
                onew = mk_binop("xor", _msb(ReadLoc(res.loc) if isinstance(res, ReadLoc) else res), cout)
            else:
                cout = _lsb(mk_binop(base, a, mk_binop("sub", cnt, Const(1, w))))
                onew = _msb(a) if base == "shr" else Const(0, 1)
            lf.emit(Assign(F_C, mk_ite(zero, ReadLoc(F_C), cout)))
            lf.emit(Assign(F_O, mk_ite(zero, ReadLoc(F_O), onew)))
            lf.emit(Assign(F_Z, mk_ite(zero, ReadLoc(F_Z), mk_binop("eq", res, Const(0, w)))))
            lf.emit(Assign(F_S, mk_ite(zero, ReadLoc(F_S), _msb(res))))
            lf.emit(Assign(F_P, mk_ite(zero, ReadLoc(F_P), _parity(res))))
            lf.emit(Assign(F_A, mk_ite(zero, ReadLoc(F_A), Const(0, 1))))
            dst.write(res)
        else:  # rol / ror
            if base == "rol":
                res = lf.snap(mk_binop("or", mk_binop("shl", a, cnt), mk_binop("shr", a, inv)))
                cout = _lsb(res)
            else:
                res = lf.snap(mk_binop("or", mk_binop("shr", a, cnt), mk_binop("shl", a, inv)))
                cout = _msb(res)
            lf.emit(Assign(F_C, mk_ite(zero, ReadLoc(F_C), cout)))
            lf.emit(Assign(F_O, mk_ite(zero, ReadLoc(F_O), mk_binop("xor", _msb(res), cout))))
            dst.write(res)
        return

    if m in ("mul", "imul"):
        if m == "imul" and len(ops) >= 2:
            w = _instr_width(lf, ins)
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
            ovf = mk_binop("ne", wide, mk_cast("sext", 2 * w, res))
            ovf = lf.snap(ovf)
            lf.emit(Assign(F_C, ovf))
            lf.emit(Assign(F_O, ovf))
            _set_zsp(lf, res, with_aux=Const(0, 1))
            dst.write(res)
            return
        src = lf.access(ops[0], w)
        kind = "zext" if m == "mul" else "sext"
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
        spill = mk_binop("ne", hi, Const(0, hi.width)) if m == "mul" else mk_binop(
            "ne", mk_cast("sext", 2 * w if w != 8 else 16, mk_extract(w - 1, 0, wide)), wide
        )
        spill = lf.snap(spill)
        lf.emit(Assign(F_C, spill))
        lf.emit(Assign(F_O, spill))
        _set_zsp(lf, mk_extract(w - 1, 0, wide), with_aux=Const(0, 1))
        return

    if m == "bswap":
        dst = lf.access(ops[0], 32)
        a = lf.snap(dst.read())
        b0 = mk_extract(7, 0, a)
        b1 = mk_extract(15, 8, a)
        b2 = mk_extract(23, 16, a)
        b3 = mk_extract(31, 24, a)
        dst.write(mk_binop("concat", mk_binop("concat", b0, b1), mk_binop("concat", b2, b3)))
        return

    if m == "push":
        w = 32 if ins.suffix != "w" else 16
        src = lf.access(ops[0], w)
        t = lf.snap(coerce(src.read(), w))
        esp = Reg("esp", 32)
        lf.emit(Assign(esp, mk_binop("sub", ReadLoc(esp), Const(w // 8, 32))))
        lf.emit(Assign(StoreLhs(ReadLoc(esp), w // 8), t))
        return

    if m == "pop":
        w = 32 if ins.suffix != "w" else 16
        dst = lf.access(ops[0], w)
        esp = Reg("esp", 32)
        t = lf.fresh(w)
        lf.emit(Assign(t, Load(ReadLoc(esp), w // 8)))
        lf.emit(Assign(esp, mk_binop("add", ReadLoc(esp), Const(w // 8, 32))))
        dst.write(coerce(ReadLoc(t), dst.width))
        return

    if m == "cmpxchg":
        src, dst = lf.access(ops[0], w), lf.access(ops[1], w)
        acc = SliceAccess(lf, Reg("eax", 32), 0, w)
        old = lf.snap(dst.read())
        a = lf.snap(acc.read())
        _add_like(lf, a, old, None, subtract=True)  # cmp eax, dst
        z = ReadLoc(F_Z)
        dst.write(mk_ite(z, coerce(src.read(), w), old))
        acc.write(mk_ite(z, a, old))
        return

    if m == "cmpxchg8b":
        dst = lf.access(ops[0], 64)
        if dst.width != 64:
            raise MalformedInterface("cmpxchg8b needs a 64-bit operand")
        old = lf.snap(dst.read())
        eax, edx = Reg("eax", 32), Reg("edx", 32)
        ebx, ecx = Reg("ebx", 32), Reg("ecx", 32)
        pair = mk_binop("concat", ReadLoc(edx), ReadLoc(eax))
        lf.emit(Assign(F_Z, mk_binop("eq", pair, old)))
        z = ReadLoc(F_Z)
        dst.write(mk_ite(z, mk_binop("concat", ReadLoc(ecx), ReadLoc(ebx)), old))
        lf.emit(Assign(edx, mk_ite(z, ReadLoc(edx), mk_extract(63, 32, old))))
        lf.emit(Assign(eax, mk_ite(z, ReadLoc(eax), mk_extract(31, 0, old))))
        return

    raise UnknownMnemonic(m)
