"""Compliance analyses: frame-write, frame-read, and unicity.

Three passes over the lifted IR:
 - a forward symbolic pass tracking each location's value as an
   expression over entry-state symbols, with store-to-load forwarding
   for stack scratch slots and token cells; it also classifies every
   memory access (token cell, stack slot, pointer-token region, or
   unresolved whole-memory) and records the region of each load and
   store, which the other two passes read,
 - a backward liveness pass over per-location bitsets seeded with the
   declared output widths,
 - a unicity pass checking every interface-visible write against the
   locations still live after it, using the abstract operand domains.

Memory is a single dataflow fact except where an access provably hits
a token cell or a stack scratch slot.
"""

from __future__ import annotations

import re
import time

from .constraints import DirectLoc, IndirectLoc, abstract_domain, derive_interface
from .errors import OutOfScope, RicError
from .expr import (
    Assign,
    BinOp,
    Branch,
    Cast,
    Const,
    Extract,
    Flag,
    Goto,
    Halt,
    Ite,
    Load,
    MemoryWhole,
    ReadLoc,
    Reg,
    StackSlot,
    StoreLhs,
    Temp,
    Token,
    TokenAddr,
    UnOp,
    format_loc,
    mk_binop,
    mk_cast,
    mk_extract,
    mk_ite,
    mk_unop,
)
from .lift import lift
from .template import parse_template
from .value import Record, factory, replace


def severity_of(category):
    return "benign" if category == "FlagClobbered" else "serious"


class Issue(Record):
    category: str
    location: object
    point: int
    details: str = ""

    @property
    def severity(self):
        return severity_of(self.category)


class CheckOptions(Record, frozen=False):
    expression_propagation: bool = True
    bit_liveness: bool = True


class CheckResult(Record, frozen=False):
    chunk: object
    verdict: str  # compliant | issues | out_of_scope | error
    issues: list = factory(list)
    fi: object = None
    prog: object = None
    parsed: object = None
    anchors: tuple = ()
    entry_live: dict = factory(dict)
    entry_regions: frozenset = frozenset()
    writes: dict = factory(dict)  # loc -> first write point
    mem_events: list = factory(list)
    esp_restored: bool = False
    timings: dict = factory(dict)
    details: str = ""
    error: RicError = None  # what ended the analysis before the passes


# ---------------------------------------------------------------------------
# Symbols of the entry state


class Init(Record):
    loc: object

    @property
    def width(self):
        return self.loc.width


class Havoc(Record):
    tag: object
    width: int


def init_read(loc):
    return ReadLoc(Init(loc))


# ---------------------------------------------------------------------------
# Memory access classification


class MemEvent(Record):
    point: int
    kind: str  # 'load' | 'store'
    region: tuple  # ('cell',p,off) ('stack',off) ('tokptr',p,off) ('whole',)
    size: int
    addr: object


def _flatten_add(e):
    terms = []
    const = 0

    def walk(x):
        nonlocal const
        if isinstance(x, Const):
            v = x.value
            if v >> (x.width - 1):
                v -= 1 << x.width
            const += v
        elif isinstance(x, BinOp) and x.op == "add":
            walk(x.a)
            walk(x.b)
        else:
            terms.append(x)

    walk(e)
    return terms, const


def make_classifier(fi):
    reg_to_input = {}
    for p, r in fi.fixed.items():
        reg_to_input.setdefault(r, p)

    def classify(addr):
        terms, c = _flatten_add(addr)
        if len(terms) != 1:
            return ("whole",)
        t = terms[0]
        if isinstance(t, ReadLoc) and isinstance(t.loc, Init):
            base = t.loc.loc
            if isinstance(base, TokenAddr):
                return ("cell", base.index, c)
            if isinstance(base, Token):
                return ("tokptr", base.index, c)
            if isinstance(base, Reg):
                if base.name == "esp":
                    return ("stack", -c) if c < 0 else ("whole",)
                if base.name in reg_to_input:
                    return ("tokptr", reg_to_input[base.name], c)
        return ("whole",)

    return classify


# ---------------------------------------------------------------------------
# Forward symbolic pass


class MemModel:
    def __init__(self):
        self.cells = {}  # (p, off, size) -> expr
        self.stack = {}  # (off, size) -> expr
        self.cell_written = set()  # (p, byte)
        self.stack_written = set()  # byte offsets (positive, below entry esp)
        self.wild = False
        self.any_store = False

    def copy(self):
        m = MemModel()
        m.cells = dict(self.cells)
        m.stack = dict(self.stack)
        m.cell_written = set(self.cell_written)
        m.stack_written = set(self.stack_written)
        m.wild = self.wild
        m.any_store = self.any_store
        return m

    def join(self, other):
        m = MemModel()
        m.cells = {k: v for k, v in self.cells.items() if other.cells.get(k) == v}
        m.stack = {k: v for k, v in self.stack.items() if other.stack.get(k) == v}
        m.cell_written = self.cell_written | other.cell_written
        m.stack_written = self.stack_written | other.stack_written
        m.wild = self.wild or other.wild
        m.any_store = self.any_store or other.any_store
        return m

    def load(self, region, size, addr, havoc):
        if region[0] == "cell":
            _, p, off = region
            key = (p, off, size)
            if key in self.cells:
                return self.cells[key]
            touched = {(p, off + i) for i in range(size)}
            if self.wild or touched & self.cell_written:
                return havoc()
            return Load(addr, size)
        if region[0] == "stack":
            off = region[1]
            key = (off, size)
            if key in self.stack:
                return self.stack[key]
            touched = {off - i for i in range(size)}
            if self.wild or touched & self.stack_written:
                return havoc()
            return Load(addr, size)
        if self.any_store or self.wild:
            return havoc()
        return Load(addr, size)

    def store(self, region, size, value):
        self.any_store = True
        if region[0] == "cell":
            _, p, off = region
            touched = {(p, off + i) for i in range(size)}
            self.cells = {
                k: v
                for k, v in self.cells.items()
                if not ({(k[0], k[1] + i) for i in range(k[2])} & touched)
            }
            self.cells[(p, off, size)] = value
            self.cell_written |= touched
            return
        if region[0] == "stack":
            off = region[1]
            touched = {off - i for i in range(size)}
            self.stack = {
                k: v
                for k, v in self.stack.items()
                if not ({k[0] - i for i in range(k[1])} & touched)
            }
            self.stack[(off, size)] = value
            self.stack_written |= touched
            return
        self.wild = True
        self.cells = {}
        self.stack = {}


class ForwardPass:
    def __init__(self, prog, classify):
        self.prog = prog
        self.classify = classify
        self.nhavoc = 0
        self.events = []
        self.regions = {}  # (point, Load or StoreLhs) -> classified region
        self.in_states = [None] * len(prog.instrs)
        self.in_mems = [None] * len(prog.instrs)
        self.exit_state = None
        self.exit_mem = None

    def havoc(self, width, tag):
        self.nhavoc += 1
        return ReadLoc(Havoc((tag, self.nhavoc), width))

    def join(self, a, b, tag):
        """The join of two register states: a location the two disagree
        on becomes a havoc tagged tag + (its name,)."""
        joined = {}
        for k in set(a) | set(b):
            x = a.get(k, init_read(k))
            y = b.get(k, init_read(k))
            joined[k] = x if x == y else self.havoc(k.width, (*tag, format_loc(k)))
        return joined

    def region(self, point, node):
        """The region classified for the load or store node at point;
        ("whole",) at a point the pass never reached."""
        return self.regions.get((point, node), ("whole",))

    def access(self, point, node, kind, addr):
        """Classify and record a memory access; returns its region."""
        region = self.classify(addr)
        self.events.append(MemEvent(point, kind, region, node.size, addr))
        self.regions[point, node] = region
        return region

    def eval(self, e, state, mem, point):
        if isinstance(e, Const):
            return e
        if isinstance(e, ReadLoc):
            return state.get(e.loc, init_read(e.loc))
        if isinstance(e, Load):
            addr = self.eval(e.addr, state, mem, point)
            region = self.access(point, e, "load", addr)
            return mem.load(region, e.size, addr, lambda: self.havoc(e.size * 8, point))
        if isinstance(e, UnOp):
            return mk_unop(e.op, self.eval(e.e, state, mem, point))
        if isinstance(e, Cast):
            return mk_cast(e.kind, e.width, self.eval(e.e, state, mem, point))
        if isinstance(e, Extract):
            return mk_extract(e.hi, e.lo, self.eval(e.e, state, mem, point))
        if isinstance(e, BinOp):
            return mk_binop(
                e.op,
                self.eval(e.a, state, mem, point),
                self.eval(e.b, state, mem, point),
            )
        if isinstance(e, Ite):
            return mk_ite(
                self.eval(e.c, state, mem, point),
                self.eval(e.a, state, mem, point),
                self.eval(e.b, state, mem, point),
            )
        raise RicError(f"cannot evaluate {e!r}")

    def step(self, i, state, mem):
        """Evaluate instruction i on (state, mem), recording its memory
        accesses; returns the state and memory after it."""
        ins = self.prog.instrs[i]
        if isinstance(ins, Branch):
            self.eval(ins.cond, state, mem, i)
        if not isinstance(ins, Assign):
            return state, mem
        val = self.eval(ins.rhs, state, mem, i)
        out_state = dict(state)
        out_mem = mem.copy()
        if isinstance(ins.lhs, StoreLhs):
            addr = self.eval(ins.lhs.addr, state, mem, i)
            out_mem.store(self.access(i, ins.lhs, "store", addr), ins.lhs.size, val)
        else:
            out_state[ins.lhs] = val
        return out_state, out_mem

    def run(self):
        prog = self.prog
        n = len(prog.instrs)
        if n == 0:
            self.exit_state, self.exit_mem = {}, MemModel()
            return
        self.in_states[0] = {}
        self.in_mems[0] = MemModel()

        def merge(i, state, mem):
            if self.in_states[i] is None:
                self.in_states[i] = dict(state)
                self.in_mems[i] = mem.copy()
            else:
                self.in_states[i] = self.join(self.in_states[i], state, ("join", i))
                self.in_mems[i] = self.in_mems[i].join(mem)

        back_targets = set()
        for i in range(n):
            state = self.in_states[i]
            mem = self.in_mems[i]
            if state is None:
                continue  # unreachable
            if isinstance(prog.instrs[i], Halt):
                if self.exit_state is None:
                    self.exit_state, self.exit_mem = dict(state), mem.copy()
                else:
                    self.exit_state = self.join(self.exit_state, state, ("exit",))
                    self.exit_mem = self.exit_mem.join(mem)
                continue
            out_state, out_mem = self.step(i, state, mem)
            for s in prog.successors(i):
                if s <= i:
                    back_targets.add(s)
                merge(s, out_state, out_mem)
        # a back edge joins into a point already passed: classify its
        # accesses again against the joined in-state; events keep the
        # first pass
        events, self.events = self.events, []
        for i in sorted(back_targets):
            self.step(i, self.in_states[i], self.in_mems[i])
        self.events = events
        if self.exit_state is None:
            self.exit_state, self.exit_mem = {}, MemModel()


# ---------------------------------------------------------------------------
# Backward bit-level liveness


def _ones(w):
    return (1 << w) - 1


def _ceil_mask(mask):
    return _ones(mask.bit_length()) if mask else 0


class LiveSet:
    __slots__ = ("masks", "regions")

    def __init__(self, masks=None, regions=None):
        self.masks = dict(masks or {})
        self.regions = set(regions or ())

    def copy(self):
        return LiveSet(self.masks, self.regions)

    def get(self, loc):
        return self.masks.get(loc, 0)

    def add(self, loc, mask):
        if mask:
            self.masks[loc] = self.masks.get(loc, 0) | mask

    def union(self, other):
        out = self.copy()
        for k, v in other.masks.items():
            out.add(k, v)
        out.regions |= other.regions
        return out

    def __eq__(self, other):
        return self.masks == other.masks and self.regions == other.regions


class AnyStackSlot(Record):
    """Liveness fact: a later load of unclassified address may read any
    stack slot."""


class BackwardPass:
    def __init__(self, prog, region, fi, coarse, esp_restored):
        self.prog = prog
        self.region = region  # ForwardPass.region
        self.fi = fi
        self.coarse = coarse
        # a stack slot below a restored entry esp is private scratch: the
        # "memory" clobber's live MemoryWhole does not demand what was
        # stored there, only a later load that may read the slot does
        self.esp_restored = esp_restored

    def demand(self, e, mask, point, acc):
        if not mask:
            return
        if self.coarse:
            mask = _ones(e.width)
        if isinstance(e, Const):
            return
        if isinstance(e, ReadLoc):
            loc = e.loc
            if isinstance(loc, (Init, Havoc)):
                return
            if isinstance(loc, TokenAddr):
                return  # cell addresses are interface constants
            acc.add(self._canon(loc), mask & _ones(loc.width))
            return
        if isinstance(e, Load):
            self._demand_region(self.region(point, e), e.size, mask, acc)
            self.demand(e.addr, _ones(32), point, acc)
            return
        if isinstance(e, UnOp):
            m = mask if e.op == "not" else _ceil_mask(mask)
            self.demand(e.e, m, point, acc)
            return
        if isinstance(e, Cast):
            wi = e.e.width
            m = mask & _ones(wi)
            if e.kind == "sext" and mask >> wi:
                m |= 1 << (wi - 1)
            self.demand(e.e, m, point, acc)
            return
        if isinstance(e, Extract):
            self.demand(e.e, (mask & _ones(e.width)) << e.lo, point, acc)
            return
        if isinstance(e, BinOp):
            op = e.op
            if op in ("and", "or", "xor"):
                self.demand(e.a, mask, point, acc)
                self.demand(e.b, mask, point, acc)
            elif op in ("add", "sub", "mul"):
                m = _ceil_mask(mask)
                self.demand(e.a, m, point, acc)
                self.demand(e.b, m, point, acc)
            elif op == "concat":
                wb = e.b.width
                self.demand(e.b, mask & _ones(wb), point, acc)
                self.demand(e.a, mask >> wb, point, acc)
            elif op in ("shl", "shr", "sar"):
                if isinstance(e.b, Const):
                    c = e.b.value
                    w = e.a.width
                    if op == "shl":
                        m = (mask >> c) & _ones(w)
                    else:
                        m = (mask << c) & _ones(w)
                        if op == "sar":
                            m |= 1 << (w - 1)
                    self.demand(e.a, m, point, acc)
                else:
                    self.demand(e.a, _ones(e.a.width), point, acc)
                    self.demand(e.b, _ones(e.b.width), point, acc)
            else:  # comparisons, divisions: every bit matters
                self.demand(e.a, _ones(e.a.width), point, acc)
                self.demand(e.b, _ones(e.b.width), point, acc)
            return
        if isinstance(e, Ite):
            self.demand(e.c, 1, point, acc)
            self.demand(e.a, mask, point, acc)
            self.demand(e.b, mask, point, acc)
            return
        raise RicError(f"cannot demand {e!r}")

    def _canon(self, loc):
        if isinstance(loc, Token):
            mem = self.fi.kinds.get(loc.index) == "mem"
            return Token(loc.index, self.fi.sizes.get(loc.index, 4) * 8 if mem else 32)
        return loc

    def _demand_region(self, region, size, mask, acc):
        if self.coarse:
            mask = _ones(size * 8)
        if region[0] == "cell":
            _, p, off = region
            cell = self._canon(Token(p, 32))
            acc.add(cell, (mask & _ones(size * 8)) << (off * 8) & _ones(cell.width))
            return
        if region[0] == "stack":
            acc.add(StackSlot(region[1], size), mask & _ones(size * 8))
            return
        if region[0] == "tokptr":
            acc.regions.add((region[1], region[2], size))
            return
        acc.add(MemoryWhole(), 1)
        acc.add(AnyStackSlot(), 1)

    @staticmethod
    def _stack_demand(offset, size, live):
        """The bits of a store to the stack slot at esp0 - offset that a
        live slot overlapping it, or a load of any slot, reads later."""
        if live.get(AnyStackSlot()):
            return _ones(size * 8)
        rmask = 0
        for loc, mask in live.masks.items():
            if isinstance(loc, StackSlot):
                shift = 8 * (offset - loc.offset)
                rmask |= mask << shift if shift >= 0 else mask >> -shift
        return rmask & _ones(size * 8)

    def _kill_region(self, region, size, live):
        out = live.copy()
        if region[0] == "cell":
            _, p, off = region
            cell = self._canon(Token(p, 32))
            kill = _ones(size * 8) << (off * 8)
            if cell in out.masks:
                out.masks[cell] &= ~kill
                if not out.masks[cell]:
                    del out.masks[cell]
        elif region[0] == "stack":
            # clear the stored bytes of every live slot they overlap
            for loc in [l for l in out.masks if isinstance(l, StackSlot)]:
                shift = 8 * (loc.offset - region[1])
                kill = _ones(size * 8)
                kill = kill << shift if shift >= 0 else kill >> -shift
                out.masks[loc] &= ~kill
                if not out.masks[loc]:
                    del out.masks[loc]
        elif region[0] == "tokptr":
            _, p, off = region
            lo, hi = off, off + size
            kept = set()
            for bp, boff, bsize in out.regions:
                if bp != p:
                    kept.add((bp, boff, bsize))
                    continue
                a, b = boff, boff + bsize
                if a < lo:
                    kept.add((bp, a, min(b, lo) - a))
                if b > hi:
                    kept.add((bp, max(a, hi), b - max(a, hi)))
            out.regions = kept
        return out

    def transfer(self, i, live_out):
        ins = self.prog.instrs[i]
        if isinstance(ins, Goto):
            return live_out
        if isinstance(ins, Branch):
            out = live_out.copy()
            self.demand(ins.cond, 1, i, out)
            return out
        if not isinstance(ins, Assign):
            return live_out
        if isinstance(ins.lhs, StoreLhs):
            region = self.region(i, ins.lhs)
            size = ins.lhs.size
            if region[0] == "cell":
                _, p, off = region
                cell = self._canon(Token(p, 32))
                rmask = (live_out.get(cell) >> (off * 8)) & _ones(size * 8)
            elif region[0] == "stack":
                rmask = self._stack_demand(region[1], size, live_out)
            elif region[0] == "tokptr":
                rmask = _ones(size * 8) if (
                    any(r[0] == region[1] for r in live_out.regions)
                    or live_out.get(MemoryWhole())
                ) else 0
            else:
                rmask = _ones(size * 8) if live_out.get(MemoryWhole()) else 0
            if live_out.get(MemoryWhole()) and not (region[0] == "stack" and self.esp_restored):
                rmask = _ones(size * 8)
            out = self._kill_region(region, size, live_out)
            if rmask:
                self.demand(ins.rhs, rmask, i, out)
                self.demand(ins.lhs.addr, _ones(32), i, out)
            return out
        loc = self._canon(ins.lhs)
        mask = live_out.get(loc)
        out = live_out.copy()
        out.masks.pop(loc, None)
        if mask:
            self.demand(ins.rhs, mask, i, out)
        return out

    def run(self, seed):
        prog = self.prog
        n = len(prog.instrs)
        live_in = [LiveSet() for _ in range(n)]
        live_out = [LiveSet() for _ in range(n)]
        changed = True
        while changed:
            changed = False
            for i in range(n - 1, -1, -1):
                ins = prog.instrs[i]
                if isinstance(ins, Halt):
                    lo = seed.copy()
                else:
                    lo = LiveSet()
                    for s in prog.successors(i):
                        lo = lo.union(live_in[s])
                li = self.transfer(i, lo)
                if not (lo == live_out[i] and li == live_in[i]):
                    live_out[i] = lo
                    live_in[i] = li
                    changed = True
        return live_in, live_out


# ---------------------------------------------------------------------------
# Anchored memory entries

_ANCHOR_RE = re.compile(r"^\*\(\s*(.+?)\s*(?:\+\s*(\d+)\s*)?\)$|^\*\s*([A-Za-z_][A-Za-z0-9_]*)$")


class Anchor(Record):
    entry: int  # the m-class entry's own position
    base: int  # pointer token position
    offset: int
    size: int
    is_input: bool
    is_output: bool


def _anchor_refs(chunk):
    """Per entry, (position of the first entry whose expression is ptr,
    k) if the entry's expression is *(ptr + k) or *ptr, else None. This
    is all the checker reads of the operand expressions."""
    by_text = {}
    for e in chunk.entries:
        by_text.setdefault(e.expr_text.strip(), e.position)
    refs = []
    for e in chunk.entries:
        m = _ANCHOR_RE.match(e.expr_text.strip())
        if m:
            inner = (m.group(1) or m.group(3)).strip()
            refs.append((by_text.get(inner), int(m.group(2)) if m.group(2) else 0))
        else:
            refs.append(None)
    return tuple(refs)


def build_anchors(chunk, fi):
    """Map m-class entries of the form "m"(*(ptr + k)) to the token
    holding ptr, so refined interfaces re-check cleanly."""
    anchors = []
    for e, ref in zip(chunk.entries, _anchor_refs(chunk)):
        if fi.kinds.get(e.position) != "mem" or ref is None:
            continue
        base, off = ref
        if base is None or base == e.position or fi.kinds.get(base) == "mem":
            continue
        spec = fi.constraints[e.position]
        anchors.append(
            Anchor(
                e.position,
                base,
                off,
                e.size_bytes,
                spec.mode in ("input", "output_readwrite"),
                e.position in fi.b_o,
            )
        )
    return anchors


def _anchored(anchors, p, off, size, want_output):
    for a in anchors:
        if a.base != p:
            continue
        if not (a.is_output if want_output else a.is_input):
            continue
        if a.offset <= off and off + size <= a.offset + a.size:
            return True
    return False


# ---------------------------------------------------------------------------
# The three analyses


def _first_writes(events, prog):
    writes = {}

    def note(loc, i):
        writes.setdefault(loc, i)

    for i, ins in enumerate(prog.instrs):
        if isinstance(ins, Assign) and not isinstance(ins.lhs, StoreLhs):
            if not isinstance(ins.lhs, Temp):
                note(ins.lhs, i)
    for ev in events:
        if ev.kind != "store":
            continue
        if ev.region[0] == "cell":
            note(("cell", ev.region[1]), ev.point)
        elif ev.region[0] == "stack":
            note(StackSlot(ev.region[1], ev.size), ev.point)
        elif ev.region[0] == "tokptr":
            note(("tokptr", ev.region[1], ev.region[2], ev.size), ev.point)
        else:
            note(MemoryWhole(), ev.point)
    return writes


def analyze_frame_write(fi, prog, fwd, anchors, opts):
    issues = []
    writes = _first_writes(fwd.events, prog)
    prop = opts.expression_propagation

    def restored(loc):
        if not prop:
            return False
        val = fwd.exit_state.get(loc)
        return val is None or val == init_read(loc)

    esp = Reg("esp", 32)
    esp_restored = restored(esp)

    out_fixed = {fi.fixed[p] for p in fi.fixed if fi.canonical(p) in fi.b_o or p in fi.b_o}
    in_fixed = {fi.fixed[p] for p in fi.fixed} - out_fixed

    flag_points = [i for loc, i in writes.items() if isinstance(loc, Flag)]
    if flag_points and "cc" not in fi.s_c:
        unrestored = [
            loc for loc in writes if isinstance(loc, Flag) and not restored(loc)
        ]
        if unrestored:
            issues.append(
                Issue(
                    "FlagClobbered",
                    Flag("cc"),
                    min(writes[l] for l in unrestored),
                    "condition flags changed without a \"cc\" clobber",
                )
            )

    for loc, point in sorted(writes.items(), key=lambda kv: kv[1]):
        if isinstance(loc, Flag):
            continue
        if isinstance(loc, Reg):
            r = loc.name
            if r in fi.s_c or r in out_fixed:
                continue
            if restored(loc):
                continue
            cat = "ReadOnlyInputClobbered" if r in in_fixed else "UnboundRegisterClobbered"
            issues.append(Issue(cat, loc, point, f"register {r} is written"))
            continue
        if isinstance(loc, Token):
            c = fi.canonical(loc.index)
            if c in fi.b_o or restored(loc):
                continue
            issues.append(
                Issue(
                    "ReadOnlyInputClobbered",
                    loc,
                    point,
                    f"read-only token %{loc.index} is written",
                )
            )
            continue
        if isinstance(loc, tuple) and loc[0] == "cell":
            p = loc[1]
            if p in fi.b_o or not fi.f:
                continue
            issues.append(
                Issue(
                    "ReadOnlyInputClobbered",
                    Token(p, fi.sizes.get(p, 4) * 8),
                    point,
                    f"memory entry %{p} declared read-only is written",
                )
            )
            continue
        if isinstance(loc, StackSlot):
            if not fi.f:
                continue
            if prop and esp_restored:
                continue  # scratch below the entry stack pointer
            issues.append(
                Issue(
                    "UnboundMemoryWrite",
                    MemoryWhole(),
                    point,
                    f"stack write at esp-{loc.offset} without \"memory\"",
                )
            )
            continue
        if isinstance(loc, tuple) and loc[0] == "tokptr":
            _, p, off, size = loc
            if not fi.f or _anchored(anchors, p, off, size, want_output=True):
                continue
            issues.append(
                Issue(
                    "UnboundMemoryWrite",
                    MemoryWhole(),
                    point,
                    f"store through %{p}+{off} without \"memory\"",
                )
            )
            continue
        if isinstance(loc, MemoryWhole):
            if not fi.f:
                continue
            issues.append(
                Issue(
                    "UnboundMemoryWrite",
                    MemoryWhole(),
                    point,
                    "memory written without \"memory\" clobber",
                )
            )
    return issues, writes, esp_restored


def _seed_liveness(fi, coarse, anchors=()):
    seed = LiveSet()
    for p in sorted(fi.b_o):
        bits = min(fi.sizes.get(p, 4) * 8, 32)
        kind = fi.kinds.get(p)
        if kind == "fixed":
            seed.add(Reg(fi.fixed[p], 32), _ones(32) if coarse else _ones(bits))
        elif kind == "mem":
            anchor = next(
                (a for a in anchors if a.is_output and a.entry == p), None
            )
            if anchor is not None:
                # the entry aliases a region behind another token; demand
                # those bytes so stores through the pointer satisfy it
                seed.regions.add((anchor.base, anchor.offset, anchor.size))
                continue
            w = fi.sizes.get(p, 4) * 8
            seed.add(Token(p, w), _ones(w))
        else:
            seed.add(Token(p, 32), _ones(32) if coarse else _ones(bits))
    if not fi.f:
        seed.add(MemoryWhole(), 1)
    return seed


def analyze_frame_read(fi, prog, fwd, anchors, writes, esp_restored, opts):
    bwd = BackwardPass(prog, fwd.region, fi, not opts.bit_liveness, esp_restored)
    seed = _seed_liveness(fi, coarse=not opts.bit_liveness, anchors=anchors)
    live_in, live_out = bwd.run(seed)
    entry = live_in[0] if prog.instrs else seed
    issues = []
    eff = fi.effective_inputs
    allowed_regs = {fi.fixed[p] for p in fi.fixed if p in eff or fi.canonical(p) in eff}

    for loc in sorted(entry.masks, key=format_loc):
        mask = entry.masks[loc]
        if not mask or isinstance(loc, Temp):
            continue
        if isinstance(loc, Reg):
            if loc.name == "esp" or loc.name in allowed_regs:
                continue
            issues.append(
                Issue(
                    "UnboundRegisterRead",
                    loc,
                    0,
                    f"register {loc.name} read at entry (live bits {mask:#x})",
                )
            )
        elif isinstance(loc, Flag):
            issues.append(
                Issue("UnboundRegisterRead", loc, 0, f"flag {loc.name} read at entry")
            )
        elif isinstance(loc, Token):
            p = loc.index
            if fi.canonical(p) in eff or p in eff:
                continue
            if fi.kinds.get(p) == "mem":
                if not fi.f:
                    continue
                issues.append(
                    Issue(
                        "UnboundMemoryRead",
                        loc,
                        0,
                        f"write-only memory entry %{p} read at entry",
                    )
                )
            else:
                issues.append(
                    Issue(
                        "UnboundRegisterRead",
                        loc,
                        0,
                        f"write-only token %{p} read at entry",
                    )
                )
        elif isinstance(loc, StackSlot):
            issues.append(
                Issue(
                    "UnboundMemoryRead",
                    MemoryWhole(),
                    0,
                    f"read of never-written stack slot esp-{loc.offset}",
                )
            )
        elif isinstance(loc, MemoryWhole):
            if fi.f:
                issues.append(
                    Issue(
                        "UnboundMemoryRead",
                        MemoryWhole(),
                        0,
                        "memory read without \"memory\" clobber or m-entry",
                    )
                )
    for p, off, size in sorted(entry.regions):
        if not fi.f:
            continue
        if _anchored(anchors, p, off, size, want_output=False):
            continue
        owner = next(
            (
                a
                for a in anchors
                if a.is_output
                and a.base == p
                and a.offset <= off
                and off + size <= a.offset + a.size
            ),
            None,
        )
        if owner is not None:
            issues.append(
                Issue(
                    "UnboundMemoryRead",
                    Token(owner.entry, owner.size * 8),
                    0,
                    f"write-only memory entry %{owner.entry} read at entry",
                )
            )
            continue
        issues.append(
            Issue(
                "UnboundMemoryRead",
                MemoryWhole(),
                0,
                f"load through %{p}+{off} without \"memory\" or m-entry",
            )
        )

    # write-only outputs that are never written
    for p in sorted(fi.b_o):
        if p in fi.effective_inputs:
            continue
        kind = fi.kinds.get(p)
        if kind == "fixed":
            written = Reg(fi.fixed[p], 32) in writes
        elif kind == "mem":
            written = ("cell", p) in writes
            if not written:
                # a store through a pointer token covered by this entry's
                # anchor counts as writing the entry
                my_anchors = [a for a in anchors if a.is_output and a.entry == p]
                for k in writes:
                    if isinstance(k, tuple) and k[0] == "tokptr":
                        for a in my_anchors:
                            if (
                                a.base == k[1]
                                and a.offset <= k[2]
                                and k[2] + k[3] <= a.offset + a.size
                            ):
                                written = True
        else:
            written = Token(p, 32) in writes
        if not written:
            issues.append(
                Issue(
                    "NonWrittenWriteOnlyOutput",
                    Token(p, 32),
                    max(len(prog.instrs) - 1, 0),
                    f"output %{p} is never written",
                )
            )
    return issues, live_in, live_out


def _related(dl, dlp):
    """The abstract impact relation over location descriptions."""
    for d in dl:
        if isinstance(d, DirectLoc):
            for dp in dlp:
                if isinstance(dp, DirectLoc) and dp.reg == d.reg:
                    return True
                if isinstance(dp, IndirectLoc) and dp.reg == d.reg:
                    return True
    return False


def _holds_output(fi, loc):
    """Whether loc holds an output: an output's token, an input matched
    to one, or a register pinned to an output."""
    if isinstance(loc, Token):
        return fi.canonical(loc.index) in fi.b_o
    return isinstance(loc, Reg) and any(fi.fixed.get(p) == loc.name for p in fi.b_o)


def analyze_unicity(fi, prog, live_out, domains):
    issues = []

    def dom(loc):
        if isinstance(loc, Reg) and loc.width == 32:
            return frozenset({DirectLoc(loc.name)})
        if isinstance(loc, Token):
            return domains.get(loc.index, frozenset())
        return frozenset()

    def in_clobbers(loc):
        if isinstance(loc, Reg):
            return loc.name in fi.s_c
        if isinstance(loc, Flag):
            return "cc" in fi.s_c
        return False

    # Stores are skipped: a store's region can only be the cell of an
    # m-class token, whose domain holds only IndirectLocs, and _related
    # needs a DirectLoc on the written side.
    for i, ins in enumerate(prog.instrs):
        if not isinstance(ins, Assign):
            continue
        l = ins.lhs
        if not isinstance(l, (Reg, Token)):
            continue
        if isinstance(l, Reg) and l.width != 32:
            continue  # wide SIMD registers have no abstract pairs
        dl = dom(l)
        if not dl or in_clobbers(l):
            continue
        for lp in sorted(live_out[i].masks, key=format_loc):
            if not live_out[i].masks[lp]:
                continue
            if lp == l or isinstance(lp, (Temp, MemoryWhole, StackSlot, Flag)):
                continue
            dlp = dom(lp)
            if not dlp or in_clobbers(lp):
                continue
            if _holds_output(fi, l) and _holds_output(fi, lp):
                # two outputs never share a register, but one output's
                # register may address the other's memory
                dlp = frozenset(d for d in dlp if isinstance(d, IndirectLoc))
            if not _related(dl, dlp):
                continue
            if (
                isinstance(l, Token)
                and isinstance(lp, Token)
                and l.index in fi.early_clobber
            ):
                continue
            issues.append(
                Issue(
                    "Unicity",
                    l,
                    i,
                    f"write to {format_loc(l)} may affect live {format_loc(lp)}",
                )
            )
    return issues


# ---------------------------------------------------------------------------
# Pipeline


def interface_key(chunk, opts):
    """Everything the analysis reads of a chunk and its options. Chunks
    that differ only in the names inside their operand expressions
    share a key, and their analyses differ only in the chunk."""
    return (
        chunk.template,
        tuple(chunk.clobbers),
        len(chunk.outputs),
        tuple((e.constraint, e.position, e.size_bytes, e.name) for e in chunk.entries),
        _anchor_refs(chunk),
        opts.expression_propagation,
        opts.bit_liveness,
    )


def check_chunk(chunk, opts=None, memo=None):
    """Check one chunk. memo, a dict kept for one command, maps each
    interface_key to the first result with that key; a later chunk with
    the key gets a copy of that result rebound to it, whose timings hold
    only the lookup's total_ms. Callers must not mutate a result."""
    opts = opts or CheckOptions()
    if memo is None:
        return _analyze(chunk, opts)
    t0 = time.perf_counter()
    key = interface_key(chunk, opts)
    first = memo.get(key)
    if first is None:
        memo[key] = first = _analyze(chunk, opts)
        return first
    return replace(first, chunk=chunk, timings={"total_ms": (time.perf_counter() - t0) * 1000})


def _analyze(chunk, opts):
    t0 = time.perf_counter()
    result = CheckResult(chunk=chunk, verdict="error")
    stage = "interface"
    try:
        result.fi = fi = derive_interface(chunk)
        stage = "template"
        parsed = parse_template(chunk.template, chunk)
        prog = lift(parsed, fi)
    except RicError as e:
        result.error = e
        if isinstance(e, OutOfScope):
            result.verdict, result.details = "out_of_scope", str(e)
        else:
            result.details = f"{stage}: {e}"
        result.timings["total_ms"] = (time.perf_counter() - t0) * 1000
        return result
    result.parsed = parsed
    result.prog = prog
    result.anchors = anchors = tuple(build_anchors(chunk, fi))

    t1 = time.perf_counter()
    fwd = ForwardPass(prog, make_classifier(fi))
    fwd.run()
    result.mem_events = fwd.events
    t2 = time.perf_counter()

    loop_opts = opts
    if prog.has_back_edge():
        # restore proofs are unsound across joins widened at loop heads;
        # degrade to alarm-only behavior
        loop_opts = replace(opts, expression_propagation=False)

    fw_issues, writes, esp_restored = analyze_frame_write(
        fi, prog, fwd, anchors, loop_opts
    )
    result.writes = writes
    result.esp_restored = esp_restored
    t3 = time.perf_counter()

    fr_issues, live_in, live_out = analyze_frame_read(
        fi, prog, fwd, anchors, writes, esp_restored, opts
    )
    result.entry_live = dict(live_in[0].masks) if prog.instrs else {}
    result.entry_regions = frozenset(live_in[0].regions) if prog.instrs else frozenset()
    t4 = time.perf_counter()

    domains = abstract_domain(fi)
    un_issues = analyze_unicity(fi, prog, live_out, domains)
    t5 = time.perf_counter()

    seen = set()
    issues = []
    for issue in sorted(fw_issues + fr_issues + un_issues, key=lambda x: (x.point, x.category)):
        key = (issue.category, format_loc(issue.location))
        if key in seen:
            continue
        seen.add(key)
        issues.append(issue)
    result.issues = issues
    result.verdict = "compliant" if not issues else "issues"
    result.timings = {
        "lift_ms": (t1 - t0) * 1000,
        "forward_ms": (t2 - t1) * 1000,
        "frame_write_ms": (t3 - t2) * 1000,
        "frame_read_ms": (t4 - t3) * 1000,
        "unicity_ms": (t5 - t4) * 1000,
        "total_ms": (time.perf_counter() - t0) * 1000,
    }
    return result
