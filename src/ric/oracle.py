"""Differential oracle: concrete IR execution over randomized states.

The oracle enumerates token assignments, binds memory operands to
disjoint sandbox slots (shared per token across the two sides of a
differential pair), executes the program, and compares observable
results. A pass is testimony within the trial budget and the
per-property step budget, not a proof.

A chunk's program is compiled once into Python closures (Feeley &
Lapalme, "Using closures for code generation", 1987) that compute
each expression's value with the operator meanings of the IR's
operator tables (`expr.BINOPS`, `expr.UNOPS`), which constant folding
also reads; each token reads the operand that the state binds to it at
run time. The tests check them against a tree-walking reference
evaluator.
"""

from __future__ import annotations

import random

from .checker import check_chunk
from .constraints import (
    ImmOperand,
    MemOperand,
    RegOperand,
    enumerate_assignments,
    format_operand,
)
from .errors import MissingToken, OutOfSandbox, OutOfScope, RicError, StepLimit, WidthError
from .expr import (
    BINOPS,
    GP_REGS,
    MMX_REGS,
    UNOPS,
    XMM_REGS,
    Assign,
    BinOp,
    Branch,
    Cast,
    Const,
    Expr,
    Extract,
    Flag,
    Goto,
    Halt,
    IRProgram,
    Ite,
    Load,
    ReadLoc,
    Reg,
    StoreLhs,
    Temp,
    Token,
    TokenAddr,
    UnOp,
    _ones,
    _to_signed,
    format_loc,
)
from .template import template_tokens
from .value import Record

SANDBOX_BASE = 0x10000
STEP_BUDGET = 10**6  # IR steps per (chunk, property), across all trials
# frame-write trials whose draws and run frame-read takes over; the
# rest it draws again, so the oracle's memory does not grow with --trials
REUSED_TRIALS = 100

GP = GP_REGS
FLAG_NAMES = ("z", "c", "s", "o", "p", "a")
WIDE = MMX_REGS + XMM_REGS


class TrialConfig(Record, frozen=False):
    trials: int = 100
    seed: int = 0
    assignment_cap: int = 256
    sandbox_size: int = 65536


# ---------------------------------------------------------------------------
# Sandbox byte sources: read(off, size) is bytes off..off+size-1 as a
# little-endian integer.


class IntBytes:
    """The bytes of an integer, byte i being bits 8i..8i+7."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    def read(self, off, size):
        return (self.value >> (8 * off)) & ((1 << (8 * size)) - 1)


_ZEROS = IntBytes(0)


_GAMMA = 0x9E3779B97F4A7C15  # SplitMix64's counter increment
_M64 = (1 << 64) - 1


class PageBytes:
    """Bytes that are a pure function of (key, offset). The 8-byte word
    w, bytes 8w..8w+7 little-endian, is SplitMix64's output w + 1 from
    seed `key` (Steele, Lea & Flood, OOPSLA 2014): its mixer applied to
    the counter key + (w + 1) * gamma. A 64-byte page is computed when
    first read and kept, so copies of a state sharing the source share
    its pages."""

    __slots__ = ("key", "pages")

    def __init__(self, key):
        self.key, self.pages = key, {}

    def page(self, p):
        """Bytes 64p..64p+63 as a little-endian integer."""
        value = self.pages.get(p)
        if value is None:
            value = 0
            x = self.key + 8 * p * _GAMMA
            for shift in range(0, 512, 64):
                x += _GAMMA
                z = x & _M64
                z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
                z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
                value |= (z ^ (z >> 31)) << shift
            self.pages[p] = value
        return value

    def read(self, off, size):
        first, last = off >> 6, (off + size - 1) >> 6
        value = self.page(first)
        for p in range(first + 1, last + 1):
            value |= self.page(p) << (512 * (p - first))
        return (value >> (8 * (off & 63))) & ((1 << (8 * size)) - 1)


class MachineState:
    """Registers, flags and a sandbox of `size` bytes at SANDBOX_BASE.

    The sandbox is a byte source `mem`, never written, under `stored`, a
    sparse map from offset to each byte written since. Copies share the
    source, so a copy costs only the overlay. An integer assigned to
    `mem` stands for its bytes, byte i being bits 8i..8i+7. `operands`
    maps each token to the Operand bound to it while a program runs.
    """

    def __init__(self, sandbox_size):
        self.regs = {r: 0 for r in GP}
        self.wide = {r: 0 for r in WIDE}
        self.flags = {f: 0 for f in FLAG_NAMES}
        self.size = sandbox_size
        self._mem = _ZEROS
        self.stored = {}
        self.temps = {}
        self.operands = {}

    @property
    def mem(self):
        return self._mem

    @mem.setter
    def mem(self, source):
        self._mem = IntBytes(source) if isinstance(source, int) else source

    def copy(self):
        m = MachineState.__new__(MachineState)
        m.regs = dict(self.regs)
        m.wide = dict(self.wide)
        m.flags = dict(self.flags)
        m.copy_memory(self)
        m.temps = {}
        m.operands = {}
        return m

    def copy_memory(self, other):
        """Give this sandbox the bytes of other's."""
        self.size, self._mem, self.stored = other.size, other._mem, dict(other.stored)

    def _offset(self, addr, size):
        off = addr - SANDBOX_BASE
        if off < 0 or off + size > self.size:
            raise OutOfSandbox(addr)
        return off

    def to_bytes(self):
        buf = bytearray(self._mem.read(0, self.size).to_bytes(self.size, "little"))
        for off, b in self.stored.items():
            buf[off] = b
        return buf

    def load(self, addr, size):
        off = self._offset(addr, size)
        stored = self.stored
        window = None
        value = 0
        for i in range(off + size - 1, off - 1, -1):
            b = stored.get(i)
            if b is None:
                if window is None:
                    window = self._mem.read(off, size)
                b = (window >> (8 * (i - off))) & 0xFF
            value = (value << 8) | b
        return value

    def store(self, addr, size, value):
        off = self._offset(addr, size)
        stored = self.stored
        for i in range(off, off + size):
            stored[i] = value & 0xFF
            value >>= 8


# ---------------------------------------------------------------------------
# Operands bound at run time

_M32 = 0xFFFFFFFF


class Operand:
    """The operand bound to a token, as functions of the state: its value,
    its address (a memory operand's) and a store to it (not an
    immediate's). A register is the 32-bit register, an immediate a
    32-bit constant, and a memory operand the 4 bytes at its address."""

    __slots__ = ("read", "addr", "write")

    def __init__(self, op):
        self.addr = self.write = None
        if isinstance(op, ImmOperand):
            v = op.value & _M32
            self.read = lambda s: v
        elif isinstance(op, RegOperand):
            r = op.reg

            def write_reg(s, v):
                s.regs[r] = v & _M32

            self.read, self.write = lambda s: s.regs[r] & _M32, write_reg
        else:
            # a missing base or index reads as 0: regs has no key None
            base, index, scale, disp = op.base, op.index, op.scale, op.disp
            addr = self.addr = lambda s: (
                s.regs.get(base, 0) + s.regs.get(index, 0) * scale + disp
            ) & _M32
            self.read = lambda s: s.load(addr(s), 4)
            self.write = lambda s, v: s.store(addr(s), 4, v)


def program_tokens(prog):
    """(tokens, addressed, written): the tokens the program uses, those
    whose cell address it reads, and those it writes."""
    tokens, addressed, written = set(), set(), set()
    todo = []
    for ins in prog.instrs:
        if isinstance(ins, Assign):
            todo.append(ins.rhs)
            if isinstance(ins.lhs, StoreLhs):
                todo.append(ins.lhs.addr)
            elif isinstance(ins.lhs, Token):
                written.add(ins.lhs.index)
        elif isinstance(ins, Branch):
            todo.append(ins.cond)
    while todo:
        e = todo.pop()
        if isinstance(e, ReadLoc):
            if isinstance(e.loc, TokenAddr):
                addressed.add(e.loc.index)
            elif isinstance(e.loc, Token):
                tokens.add(e.loc.index)
        else:
            todo.extend(v for v in vars(e).values() if isinstance(v, Expr))
    return tokens | addressed | written, addressed, written


# ---------------------------------------------------------------------------
# Compiling programs to closures
#
# An expression compiles to a function of the machine state; an
# instruction to a function that runs it and returns the next pc.


def _temp_key(t):
    """Temps keyed by their fields: a tuple hashes faster than the
    record."""
    return (t.index, t.width)


def _compile_read(loc, m):
    if isinstance(loc, Reg):
        name = loc.name
        if name in GP:
            return lambda s: s.regs[name] & m
        return lambda s: s.wide[name] & m
    if isinstance(loc, Flag):
        name = loc.name
        return lambda s: s.flags[name] & m
    if isinstance(loc, Temp):
        key = _temp_key(loc)
        return lambda s: s.temps[key] & m
    if isinstance(loc, Token):
        p = loc.index
        return lambda s: s.operands[p].read(s)
    if isinstance(loc, TokenAddr):
        p = loc.index
        return lambda s: s.operands[p].addr(s)

    def unbound(s):
        raise RicError(f"unbound location {format_loc(loc)} in concrete execution")

    return unbound


def compile_expr(e):
    """A function of the machine state returning the value of e."""
    if isinstance(e, Const):
        v = e.value
        return lambda s: v
    if isinstance(e, ReadLoc):
        return _compile_read(e.loc, _ones(e.width))
    if isinstance(e, Load):
        fa, size = compile_expr(e.addr), e.size
        return lambda s: s.load(fa(s), size)
    if isinstance(e, UnOp):
        fn, f, m = UNOPS[e.op], compile_expr(e.e), _ones(e.width)
        return lambda s: fn(f(s)) & m
    if isinstance(e, Cast):
        f, m, w = compile_expr(e.e), _ones(e.width), e.e.width
        if e.kind == "sext":
            return lambda s: _to_signed(f(s), w) & m
        return lambda s: f(s) & m
    if isinstance(e, Extract):
        f, lo, m = compile_expr(e.e), e.lo, _ones(e.width)
        return lambda s: (f(s) >> lo) & m
    if isinstance(e, BinOp):
        fn, m = BINOPS[e.op][2](e.a.width, e.b.width), _ones(e.width)
        fa, fb = compile_expr(e.a), compile_expr(e.b)
        return lambda s: fn(fa(s), fb(s)) & m
    if isinstance(e, Ite):
        fc, fa, fb = compile_expr(e.c), compile_expr(e.a), compile_expr(e.b)
        return lambda s: fa(s) if fc(s) else fb(s)

    def bad(s):
        raise WidthError(f"not an expression: {e!r}")

    return bad


def _compile_write(loc, f, nxt):
    """Run `loc <- f`, masked to the location's width, and go to nxt."""
    if isinstance(loc, Reg) and loc.name in GP:
        name = loc.name

        def write_reg(s):
            s.regs[name] = f(s) & 0xFFFFFFFF
            return nxt

        return write_reg
    if isinstance(loc, Reg):
        name, m = loc.name, _ones(loc.width)

        def write_wide(s):
            s.wide[name] = f(s) & m
            return nxt

        return write_wide
    if isinstance(loc, Flag):
        name = loc.name

        def write_flag(s):
            s.flags[name] = f(s) & 1
            return nxt

        return write_flag
    if isinstance(loc, Temp):
        key, m = _temp_key(loc), _ones(loc.width)

        def write_temp(s):
            s.temps[key] = f(s) & m
            return nxt

        return write_temp
    if isinstance(loc, Token):
        p = loc.index

        def write_token(s):
            s.operands[p].write(s, f(s))
            return nxt

        return write_token

    def unwritable(s):
        f(s)
        raise RicError(f"cannot write location {format_loc(loc)}")

    return unwritable


def _compile_instr(prog, i):
    ins, nxt = prog.instrs[i], i + 1
    if isinstance(ins, Halt):
        end = len(prog.instrs)
        return lambda s: end
    if isinstance(ins, Assign):
        f = compile_expr(ins.rhs)
        if not isinstance(ins.lhs, StoreLhs):
            return _compile_write(ins.lhs, f, nxt)
        fa, size = compile_expr(ins.lhs.addr), ins.lhs.size

        def store(s):
            v = f(s)
            s.store(fa(s), size, v)
            return nxt

        return store
    if isinstance(ins, Goto):
        target = prog.resolve(ins.target)
        return lambda s: target
    if isinstance(ins, Branch):
        fc = compile_expr(ins.cond)
        then, other = prog.resolve(ins.then_target), prog.resolve(ins.else_target)
        return lambda s: then if fc(s) else other
    return lambda s: nxt


def compile_program(prog):
    """One closure per instruction; each runs it on a state and returns
    the next pc. Labels resolve here: lift validated them."""
    return tuple(_compile_instr(prog, i) for i in range(len(prog.instrs)))


def exec_program(prog, state, budget=STEP_BUDGET):
    """Small-step execution to Halt of an IRProgram or its compiled form;
    mutates state. Returns the number of steps taken and raises StepLimit
    on the step past `budget`."""
    code = compile_program(prog) if isinstance(prog, IRProgram) else prog
    pc, steps, n = 0, 0, len(code)
    while pc < n:
        steps += 1
        if steps > budget:
            raise StepLimit(f"step budget of {budget} steps exceeded")
        pc = code[pc](state)
    return steps


# ---------------------------------------------------------------------------
# Binding assignments into states


class Binding(Record, frozen=False):
    """Concrete placement of one assignment's memory operands."""

    pins: dict  # register -> required value
    cells: dict  # token -> concrete cell address


def _slot(i):
    return SANDBOX_BASE + 0x800 + i * 64


class _Skip(Exception):
    """Trial cannot be set up under this assignment; try another."""


def bind_assignment(fi, assignment, rng, cfg, anchors=()):
    """Pin base/index registers so each memory operand resolves to its
    token's sandbox slot. Entries anchored to a pointer token are placed
    at that token's value plus their declared offset instead. Returns
    None when the pins conflict."""
    b = Binding({}, {})
    anchored = {a.entry: a for a in anchors}
    region_of = {}
    for j, base in enumerate(sorted({a.base for a in anchors})):
        region_of[base] = SANDBOX_BASE + 0x4000 + j * 256
    for a in anchors:
        region = region_of[a.base]
        if a.offset < 0 or a.offset + a.size > 256:
            return None
        op = assignment[a.base]
        if not isinstance(op, RegOperand):
            return None
        if op.reg in b.pins and b.pins[op.reg] != region:
            return None
        b.pins[op.reg] = region
        b.cells[a.entry] = region + a.offset
    mem_tokens = sorted(
        p
        for p, op in assignment.items()
        if isinstance(op, MemOperand) and p not in anchored
    )
    for i, p in enumerate(mem_tokens):
        op = assignment[p]
        canon = fi.canonical(p)
        if canon != p and canon in b.cells:
            b.cells[p] = b.cells[canon]
            continue
        idx_part = 0
        if op.index:
            if op.index in b.pins:
                idx_val = b.pins[op.index]
            else:
                idx_val = rng.randrange(0, 8) * 4
                b.pins[op.index] = idx_val
            idx_part = (idx_val * op.scale) & 0xFFFFFFFF
        slot = _slot(i)
        if op.base in b.pins:
            addr = (b.pins[op.base] + op.disp + idx_part) & 0xFFFFFFFF
            if not (SANDBOX_BASE <= addr and addr + 16 <= SANDBOX_BASE + cfg.sandbox_size):
                return None
            b.cells[p] = addr
        else:
            if op.base is None:
                b.cells[p] = slot
                continue
            b.pins[op.base] = (slot - op.disp - idx_part) & 0xFFFFFFFF
            b.cells[p] = slot
    return b


POOL_SIZE = 4


def random_state(rng, cfg, binding, fi=None, esp_base=None):
    """Fresh randomized state. Register values and token-cell contents
    are drawn from a small per-state pool of sandbox addresses, so that
    equality-dependent control flow (cmp, cmpxchg) is actually exercised
    within the trial budget.

    Each draw below is `rng.randrange(0, n)` or `rng.choice(seq)` (n =
    len(seq)) as CPython makes it: k = n.bit_length() bits from
    `getrandbits`, drawn again while the result is n or more. In order:
    the pool, a pool entry for each of GP (esp's is drawn and then
    replaced), 64 bits for each of WIDE, a bit for each flag, esp's slot
    unless esp_base is given, the sandbox key, and a pool entry for each
    4-byte piece of each token cell."""
    getrandbits = rng.getrandbits
    size = cfg.sandbox_size
    data_lo = SANDBOX_BASE + 0x1000
    slots = (size - 0x2800) // 8  # 8-byte slots from data_lo to size - 0x1800
    if slots <= 0:
        raise ValueError(f"a sandbox of {size} bytes has no data area")
    k = slots.bit_length()
    pool = []
    for _ in range(POOL_SIZE):
        r = getrandbits(k)
        while r >= slots:
            r = getrandbits(k)
        pool.append(data_lo + r * 8)
    regs = {}
    for name in GP:
        r = getrandbits(3)
        while r >= 4:
            r = getrandbits(3)
        regs[name] = pool[r]
    m = MachineState.__new__(MachineState)
    m.regs = regs
    m.wide = {name: getrandbits(64) for name in WIDE}
    m.flags = {name: getrandbits(1) for name in FLAG_NAMES}
    if esp_base is None:
        r = getrandbits(5)
        while r >= 16:
            r = getrandbits(5)
        esp_base = SANDBOX_BASE + size - 0x400 - r * 4
    regs["esp"] = esp_base
    m.size, m._mem, m.temps, m.operands = size, PageBytes(getrandbits(64)), {}, {}
    m.stored = stored = {}
    if fi is not None:
        sizes = fi.sizes
        for p, addr in binding.cells.items():
            cell = sizes.get(p, 4)
            for piece in range(0, cell, 4):
                r = getrandbits(3)
                while r >= 4:
                    r = getrandbits(3)
                n = min(4, cell - piece)
                off = addr + piece - SANDBOX_BASE
                if off < 0 or off + n > size:
                    raise OutOfSandbox(addr + piece)
                value = pool[r]
                for i in range(off, off + n):
                    stored[i] = value & 0xFF
                    value >>= 8
    regs.update(binding.pins)
    return m


def token_value(state, fi, assignment, binding, p):
    """F_eval of one token at its declared width."""
    op = assignment[p]
    bits = fi.sizes.get(p, 4) * 8
    if isinstance(op, ImmOperand):
        return op.value & ((1 << bits) - 1)
    if isinstance(op, RegOperand):
        return state.regs[op.reg] & ((1 << min(bits, 32)) - 1)
    return state.load(binding.cells[p], fi.sizes.get(p, 4))


class Witness(Record, frozen=False):
    property: str
    location: str
    assignment: dict
    assignment2: dict = None
    detail: str = ""

    def to_json(self):
        out = {
            "property": self.property,
            "location": self.location,
            "assignment": self.assignment,
            "detail": self.detail,
        }
        if self.assignment2 is not None:
            out["assignment2"] = self.assignment2
        return out


class OracleVerdict(Record, frozen=False):
    verdict: str  # pass | violation | inconclusive
    witness: Witness = None
    trials_run: int = 0
    reason: str = ""


def _fmt_assignment(a):
    return {f"%{p}": format_operand(op) for p, op in sorted(a.items())}


def _scratch_range(m_in, m_out):
    """Bytes below the entry stack pointer are scratch when esp is
    restored, mirroring the checker's stack-slot exemption."""
    if m_out.regs["esp"] != m_in.regs["esp"]:
        return None
    lo = max(m_in.regs["esp"] - 128, SANDBOX_BASE)
    return (lo - SANDBOX_BASE, m_in.regs["esp"] - SANDBOX_BASE)


def _mem_equal(m1, m2, exempt_ranges):
    """Offset of the first byte outside the exempt ranges where the two
    sandboxes differ, or None. Sandboxes sharing their byte source can
    differ only at stored offsets."""
    if m1.size != m2.size:
        raise RicError(f"cannot compare sandboxes of {m1.size} and {m2.size} bytes")
    if m1.mem is m2.mem:
        offsets = sorted(m1.stored.keys() | m2.stored.keys())
        differing = (
            i
            for i in offsets
            if m1.load(SANDBOX_BASE + i, 1) != m2.load(SANDBOX_BASE + i, 1)
        )
    else:
        a, b = m1.to_bytes(), m2.to_bytes()
        differing = (i for i in range(m1.size) if a[i] != b[i])
    for i in differing:
        if not any(lo <= i < hi for lo, hi in exempt_ranges):
            return i
    return None


def _per_assignment(cache, assignment, make):
    """make(assignment), made once per assignment object. The cache
    keeps the assignment, so no other object can take its id."""
    hit = cache.get(id(assignment))
    if hit is None:
        hit = cache[id(assignment)] = (assignment, make(assignment))
    return hit[1]


class OracleRun:
    """What the oracle shares across the three properties of a chunk:
    the interface, lifted program and anchors of the chunk's
    CheckResult, the assignment set, and the program, compiled once.
    `unrunnable` is the reason every property is inconclusive, or
    empty.

    What a trial would otherwise recompute is made once per chunk: the
    sorted input and output tokens, and, per assignment drawn, its
    operands' Operands, its assignable registers, and its Binding when
    binding it draws nothing. A trial then costs its draws and its
    execution.

    `executed` maps a trial number below REUSED_TRIALS to what
    frame-write drew and ran in that trial: its generator after the
    draws, the assignment, the binding, the entry state, the final state
    and the step count.
    Frame-read draws and runs the same prefix in the same trial, so it
    takes the record over (and drops it) instead."""

    def __init__(self, result, cfg):
        self.cfg = cfg
        self.unrunnable = ""
        self.steps_left = STEP_BUDGET
        self.fi, self.prog = result.fi, result.prog
        self.anchors = result.anchors
        self._operands, self._assignable, self._bindings = {}, {}, {}
        self.executed = {}
        if isinstance(result.error, OutOfScope):
            self.unrunnable = f"out of scope: {result.error}"
            return
        if result.error is not None:
            self.unrunnable = str(result.error)
            return
        refs = template_tokens(result.parsed)
        collapse = frozenset(a.entry for a in self.anchors if a.entry not in refs)
        aset = enumerate_assignments(self.fi, cap=cfg.assignment_cap, collapse=collapse)
        tokens, self.addressed, self.written = program_tokens(self.prog)
        self.tokens = sorted(tokens)
        # the assembler rejects a write to an immediate operand, so no
        # compiler can realize such an assignment
        self.assignments = [
            a
            for a in aset.assignments
            if not any(isinstance(a.mapping.get(p), ImmOperand) for p in self.written)
        ]
        self.truncated = aset.truncated
        if not self.assignments:
            self.unrunnable = "no valid token assignment"
            return
        self.code = compile_program(self.prog)
        self.inputs = sorted(self.fi.b_i | set(self.fi.unified))
        self.outputs = sorted(self.fi.b_o)

    def bind(self, assignment, rng):
        hit = self._bindings.get(id(assignment))
        if hit is not None:
            b = hit[1]
        else:
            b = bind_assignment(self.fi, assignment, rng, self.cfg, self.anchors)
            if not any(
                isinstance(op, MemOperand) and op.index for op in assignment.mapping.values()
            ):
                # binding draws only index registers' values: without
                # one, every trial binds this assignment alike
                self._bindings[id(assignment)] = (assignment, b)
        if b is None:
            raise _Skip
        return b

    def operands(self, assignment):
        """The Operand of each token of the program. Raises MissingToken,
        before anything runs, unless the assignment binds every token
        to an operand that can serve it."""
        return _per_assignment(self._operands, assignment, self._make_operands)

    def assignable(self, assignment):
        """The registers the interface lets the program change."""
        return _per_assignment(self._assignable, assignment, self._make_assignable)

    def _make_assignable(self, assignment):
        regs = set(self.fi.s_c)
        for p in self.fi.b_o:
            op = assignment[p]
            if isinstance(op, RegOperand):
                regs.add(op.reg)
        return regs

    def _make_operands(self, assignment):
        out = {}
        for p in self.tokens:
            op = assignment.mapping.get(p)
            if op is None:
                raise MissingToken(f"%{p} not covered by the assignment")
            if p in self.addressed and not isinstance(op, MemOperand):
                raise MissingToken(f"%{p} is not a memory operand")
            if p in self.written and isinstance(op, ImmOperand):
                raise MissingToken(f"%{p} bound to an immediate is written")
            out[p] = Operand(op)
        return out

    def run_one(self, assignment, state):
        """Execute under the assignment on state within what is left of
        the step budget."""
        state.operands = self.operands(assignment)
        self.steps_left -= exec_program(self.code, state, self.steps_left)
        return state

    def charge(self, steps):
        """Take a run of `steps` steps made earlier from the step budget,
        raising StepLimit where running it again would."""
        if steps > self.steps_left:
            raise StepLimit(f"step budget of {self.steps_left} steps exceeded")
        self.steps_left -= steps


def oracle_check(chunk, prop, cfg=None, run=None):
    """Verdict of one property. Pass `run`, the chunk's OracleRun, to
    check several properties on one derivation; its cfg then applies."""
    run = run or OracleRun(check_chunk(chunk), cfg or TrialConfig())
    cfg = run.cfg
    if run.unrunnable:
        return OracleVerdict("inconclusive", reason=run.unrunnable)

    checker = {
        "frame_write": _check_frame_write,
        "frame_read": _check_frame_read,
        "unicity": _check_unicity,
    }[prop]

    run.steps_left = STEP_BUDGET
    bad_trials = 0
    for trial in range(cfg.trials):
        try:
            witness = checker(run, trial, cfg)
        except StepLimit:
            return OracleVerdict(
                "inconclusive",
                reason=f"step budget of {STEP_BUDGET} steps used up after "
                f"{trial} of {cfg.trials} trials",
                trials_run=trial,
            )
        except (OutOfSandbox, _Skip):
            bad_trials += 1
            continue
        if witness is not None:
            return OracleVerdict("violation", witness, trials_run=trial + 1)
    if bad_trials == cfg.trials:
        return OracleVerdict(
            "inconclusive", reason="no executable trial", trials_run=cfg.trials
        )
    if run.truncated:
        return OracleVerdict(
            "inconclusive",
            reason="assignment set truncated at cap",
            trials_run=cfg.trials,
        )
    return OracleVerdict("pass", trials_run=cfg.trials)


def _trial_rng(cfg, trial):
    """The generator of one trial: its seed depends only on the run's
    seed and the trial number."""
    return random.Random((cfg.seed << 20) ^ (trial * 2654435761 % 2**31))


def _output_cell_ranges(fi, assignment, binding):
    ranges = []
    for p in fi.b_o:
        if isinstance(assignment[p], MemOperand):
            a = binding.cells[p] - SANDBOX_BASE
            ranges.append((a, a + fi.sizes.get(p, 4)))
    return ranges


def _check_frame_write(run, trial, cfg):
    fi = run.fi
    rng = _trial_rng(cfg, trial)
    assignment = rng.choice(run.assignments)
    binding = run.bind(assignment, rng)
    m_in = random_state(rng, cfg, binding, fi)
    steps_left = run.steps_left
    m_out = run.run_one(assignment, m_in.copy())
    if trial < REUSED_TRIALS:
        run.executed[trial] = (rng, assignment, binding, m_in, m_out, steps_left - run.steps_left)

    assignable = run.assignable(assignment)
    for r in GP:
        if r in assignable or r == "esp":
            continue
        if m_out.regs[r] != m_in.regs[r]:
            return Witness("frame_write", r, _fmt_assignment(assignment.mapping),
                           detail=f"{r}: {m_in.regs[r]:#x} -> {m_out.regs[r]:#x}")
    if m_out.regs["esp"] != m_in.regs["esp"] and "esp" not in assignable:
        return Witness("frame_write", "esp", _fmt_assignment(assignment.mapping),
                       detail=f"esp: {m_in.regs['esp']:#x} -> {m_out.regs['esp']:#x}")
    for r in WIDE:
        if r in assignable:
            continue
        if m_out.wide[r] != m_in.wide[r]:
            return Witness("frame_write", r, _fmt_assignment(assignment.mapping),
                           detail=f"{r} changed")
    if "cc" not in fi.s_c:
        for f in FLAG_NAMES:
            if m_out.flags[f] != m_in.flags[f]:
                return Witness("frame_write", f"flag:{f}", _fmt_assignment(assignment.mapping),
                               detail=f"flag {f} changed")
    if fi.f:
        exempt = _output_cell_ranges(fi, assignment, binding)
        scratch = _scratch_range(m_in, m_out)
        if scratch:
            exempt.append(scratch)
        bad = _mem_equal(m_in, m_out, exempt)
        if bad is not None:
            return Witness(
                "frame_write",
                "memory",
                _fmt_assignment(assignment.mapping),
                detail=f"byte at {SANDBOX_BASE + bad:#x} changed",
            )
    return None


def _equalize_inputs(run, assignment, binding, m_src, m_dst, assignment2=None, binding2=None):
    """Copy input-token evaluations from m_src into m_dst. Returns False
    on a pin conflict."""
    fi = run.fi
    a2 = assignment2 or assignment
    b2 = binding2 or binding
    wanted = [(p, token_value(m_src, fi, assignment, binding, p)) for p in run.inputs]
    for p, val in wanted:
        op = a2[p]
        if isinstance(op, ImmOperand):
            if (op.value & ((1 << fi.sizes.get(p, 4) * 8) - 1)) != val:
                return False
            continue
        if isinstance(op, RegOperand):
            if op.reg in b2.pins and b2.pins[op.reg] != val:
                return False
            m_dst.regs[op.reg] = val & 0xFFFFFFFF
            continue
        m_dst.store(b2.cells[p], fi.sizes.get(p, 4), val)
    # inputs sharing a register or overlapping cells must agree, or the
    # pair is not realizable
    for p, want in wanted:
        if token_value(m_dst, fi, a2, b2, p) != want:
            return False
    return True


def _check_frame_read(run, trial, cfg):
    """Frame-write's trial of the same number drew the same assignment,
    binding and first state, and ran them: its record, when there is
    one, stands for those draws and the first run. Sharing m1 with it is
    safe: copy_memory copies the stored bytes, and only m2 is written."""
    fi = run.fi
    executed = run.executed.pop(trial, None)
    if executed is None:
        rng = _trial_rng(cfg, trial)
        assignment = rng.choice(run.assignments)
        binding = run.bind(assignment, rng)
        m1 = random_state(rng, cfg, binding, fi)
    else:
        rng, assignment, binding, m1, o1, steps = executed
    m2 = random_state(rng, cfg, binding, fi, esp_base=m1.regs["esp"])
    if not fi.f:
        m2.copy_memory(m1)
    if not _equalize_inputs(run, assignment, binding, m1, m2):
        raise _Skip

    if executed is None:
        o1 = run.run_one(assignment, m1.copy())
    else:
        run.charge(steps)
    o2 = run.run_one(assignment, m2.copy())
    return _compare_outputs(
        run, "frame_read", assignment, binding, assignment, binding, m1, m2, o1, o2
    )


def _compare_outputs(run, prop, a1, b1, a2, b2, m1, m2, o1, o2):
    fi = run.fi
    for p in run.outputs:
        v1 = token_value(o1, fi, a1, b1, p)
        v2 = token_value(o2, fi, a2, b2, p)
        if v1 != v2:
            return Witness(
                prop,
                f"%{p}",
                _fmt_assignment(a1.mapping),
                assignment2=_fmt_assignment(a2.mapping) if a2 is not a1 else None,
                detail=f"output %{p}: {v1:#x} vs {v2:#x}",
            )
    if not fi.f:
        exempt = []
        s1 = _scratch_range(m1, o1)
        s2 = _scratch_range(m2, o2)
        if s1 and s2 and s1 == s2:
            exempt.append(s1)
        bad = _mem_equal(o1, o2, exempt)
        if bad is not None:
            return Witness(
                prop,
                "memory",
                _fmt_assignment(a1.mapping),
                assignment2=_fmt_assignment(a2.mapping) if a2 is not a1 else None,
                detail=f"memory differs at {SANDBOX_BASE + bad:#x}",
            )
    return None


def _check_unicity(run, trial, cfg):
    fi = run.fi
    rng = _trial_rng(cfg, trial)
    a1 = rng.choice(run.assignments)
    a2 = rng.choice(run.assignments)
    # immediates cannot be equalized across the pair; require equality
    for p in run.inputs:
        o1, o2 = a1[p], a2[p]
        if isinstance(o1, ImmOperand) != isinstance(o2, ImmOperand):
            raise _Skip
        if isinstance(o1, ImmOperand) and o1.value != o2.value:
            raise _Skip
    b1 = run.bind(a1, rng)
    b2 = run.bind(a2, rng)
    m1 = random_state(rng, cfg, b1, fi)
    m2 = random_state(rng, cfg, b2, fi, esp_base=m1.regs["esp"])
    if not fi.f:
        # the memory-equality clause of input equivalence
        m2.copy_memory(m1)
    if not _equalize_inputs(run, a1, b1, m1, m2, assignment2=a2, binding2=b2):
        raise _Skip
    if not fi.f and _mem_equal(m1, m2, []) is not None:
        raise _Skip
    o1 = run.run_one(a1, m1.copy())
    o2 = run.run_one(a2, m2.copy())
    return _compare_outputs(run, "unicity", a1, b1, a2, b2, m1, m2, o1, o2)
