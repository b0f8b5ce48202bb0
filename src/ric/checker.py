"""Compliance analyses: frame-write, frame-read, and unicity.

Three passes over the lifted IR:
 - a forward symbolic pass, run to a fixpoint over loops, tracking each
   location's value as an expression over entry-state symbols, with
   store-to-load forwarding for stack scratch slots and token cells; it
   also classifies every memory access (token cell, stack slot,
   pointer-token region, or unresolved whole-memory) and keeps one
   record of each load and store, from its point's final in-state,
   which the other two passes read,
 - a backward liveness pass over per-location bitsets seeded with the
   declared output widths,
 - a unicity pass checking every interface-visible write against the
   locations still live after it, using the abstract operand domains.

Memory is a single dataflow fact except where an access provably hits
a token cell or a stack scratch slot.
"""

from __future__ import annotations

import heapq
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
    _ones,
    _to_signed,
    clear_nodes,
    format_loc,
    mk_binop,
    mk_cast,
    mk_extract,
    mk_ite,
    mk_unop,
)
from .lift import lift, parse_template
from .value import Record, factory, replace


class Issue(Record):
    category: str
    location: object
    point: int
    details: str = ""


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


class Region(Record):
    """Where a memory access lands: the cell of an m-class token p
    ("cell", reached through %p or, for an anchored entry, through its
    pointer), other bytes behind a pointer token p ("tokptr"), a stack slot
    ("stack") or a place the classifier cannot name ("whole"). off is a
    signed byte offset from the token's address, or from the entry esp
    for the stack (so it is negative there); size is the access size in
    bytes."""

    kind: str  # 'cell' | 'tokptr' | 'stack' | 'whole'
    p: int  # None for the stack and for all of memory
    off: int
    size: int


class MemEvent(Record):
    point: int
    kind: str  # 'load' | 'store'
    region: Region
    addr: object


def make_classifier(fi, anchors):
    """The classifier of the accesses of one chunk. The bytes an
    anchored entry names behind its pointer token are that entry's
    cell, so a place has one name however the template reaches it."""
    reg_to_input = {}
    for p, r in fi.fixed.items():
        reg_to_input.setdefault(r, p)
    by_base = {}
    for a in anchors:
        by_base.setdefault(a.base, []).append(a)

    def pointer(p, c, size):
        for a in by_base.get(p, ()):
            if a.offset <= c and c + size <= a.offset + a.size:
                return Region("cell", fi.canonical(a.entry), c - a.offset, size)
        return Region("tokptr", p, c, size)

    def classify(addr, size):
        """The region of a size-byte access at addr. mk_binop folds the
        constants of a sum into one right operand, so addr is a
        ReadLoc(Init) or its sum with a Const if it names a region."""
        c = 0
        if isinstance(addr, BinOp) and addr.op == "add" and isinstance(addr.b, Const):
            addr, c = addr.a, _to_signed(addr.b.value, addr.b.width)
        if isinstance(addr, ReadLoc) and isinstance(addr.loc, Init):
            base = addr.loc.loc
            if isinstance(base, TokenAddr):
                return Region("cell", fi.canonical(base.index), c, size)
            if isinstance(base, Token):
                return pointer(base.index, c, size)
            if isinstance(base, Reg):
                if base.name == "esp":
                    if c < 0:
                        return Region("stack", None, c, size)
                elif base.name in reg_to_input:
                    return pointer(reg_to_input[base.name], c, size)
        return Region("whole", None, 0, size)

    return classify


# ---------------------------------------------------------------------------
# Forward symbolic pass


def _bytes(region):
    """The bytes a cell or stack region covers, each as (token, offset);
    the token of a stack byte is None."""
    return {(region.p, region.off + i) for i in range(region.size)}


class MemModel:
    """Memory as the forward pass knows it: the last value stored to
    each cell or stack region still intact, the bytes of cells and the
    stack written so far, and whether a store went anywhere else."""

    def __init__(self):
        self.known = {}  # cell or stack Region -> expr
        self.written = set()  # (token or None, byte offset)
        self.wild = False
        self.any_store = False

    def copy(self):
        m = MemModel()
        m.known = dict(self.known)
        m.written = set(self.written)
        m.wild = self.wild
        m.any_store = self.any_store
        return m

    def join(self, other):
        m = MemModel()
        m.known = {k: v for k, v in self.known.items() if other.known.get(k) == v}
        m.written = self.written | other.written
        m.wild = self.wild or other.wild
        m.any_store = self.any_store or other.any_store
        return m

    def __eq__(self, other):
        return (self.known, self.written, self.wild, self.any_store) == (
            other.known,
            other.written,
            other.wild,
            other.any_store,
        )

    def load(self, region, addr, havoc):
        if region.kind in ("cell", "stack"):
            if region in self.known:
                return self.known[region]
            if self.wild or _bytes(region) & self.written:
                return havoc()
        elif self.any_store or self.wild:
            return havoc()
        return Load(addr, region.size)

    def store(self, region, value):
        self.any_store = True
        if region.kind in ("cell", "stack"):
            touched = _bytes(region)
            self.known = {k: v for k, v in self.known.items() if not (_bytes(k) & touched)}
            self.known[region] = value
            self.written |= touched
        else:
            self.wild = True
            self.known = {}


class ForwardPass:
    """Kildall's worklist over the lifted IR (Kildall, "A unified
    approach to global program optimization", POPL 1973): a point is
    stepped again whenever its in-state changes, until none does. Havoc
    tags name the join point or the load that made them, so a location
    at a join point changes at most twice (unset, a value, its havoc)
    and memory facts only shrink or grow; the pass ends."""

    def __init__(self, prog, classify):
        self.prog = prog
        self.classify = classify
        self.accesses = {}  # (point, Load or StoreLhs) -> MemEvent of the last visit
        self.events = []
        self.in_states = [None] * len(prog.instrs)
        self.in_mems = [None] * len(prog.instrs)
        self.exit_state = None

    def join(self, a, b, tag):
        """The join of two register states: a location the two disagree
        on becomes a havoc tagged tag + (its name,)."""
        joined = {}
        for k in set(a) | set(b):
            x = a.get(k, init_read(k))
            y = b.get(k, init_read(k))
            joined[k] = x if x == y else ReadLoc(Havoc((*tag, format_loc(k)), k.width))
        return joined

    def region(self, point, node):
        """The region classified for the load or store node at point;
        all of memory at a point the pass never reached."""
        ev = self.accesses.get((point, node))
        return ev.region if ev else Region("whole", None, 0, node.size)

    def access(self, point, node, kind, addr):
        """Classify and record a memory access; returns its region."""
        region = self.classify(addr, node.size)
        self.accesses[point, node] = MemEvent(point, kind, region, addr)
        return region

    def eval(self, e, state, mem, point):
        if isinstance(e, Const):
            return e
        if isinstance(e, ReadLoc):
            return state.get(e.loc) or init_read(e.loc)
        if isinstance(e, Load):
            addr = self.eval(e.addr, state, mem, point)
            region = self.access(point, e, "load", addr)
            return mem.load(region, addr, lambda: ReadLoc(Havoc((point, e), e.size * 8)))
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
            out_mem.store(self.access(i, ins.lhs, "store", addr), val)
        else:
            out_state[ins.lhs] = val
        return out_state, out_mem

    def merge(self, i, state, mem):
        """Join (state, mem) into the in-state of point i; whether that
        changed it."""
        old, old_mem = self.in_states[i], self.in_mems[i]
        if old is not None:
            state, mem = self.join(old, state, ("join", i)), old_mem.join(mem)
            if state == old and mem == old_mem:
                return False
        self.in_states[i], self.in_mems[i] = state, mem
        return True

    def run(self):
        """Step points smallest first until no in-state changes, so
        loop-free code steps each point once. The lifter's one Halt is
        the last point, and its in-state is the exit state."""
        self.merge(0, {}, MemModel())
        work = [0]
        while work:
            i = heapq.heappop(work)
            out_state, out_mem = self.step(i, self.in_states[i], self.in_mems[i])
            for s in self.prog.successors(i):
                if self.merge(s, out_state, out_mem) and s not in work:
                    heapq.heappush(work, s)
        self.events = sorted(self.accesses.values(), key=lambda ev: ev.point)
        self.exit_state = self.in_states[-1] or {}


# ---------------------------------------------------------------------------
# Backward bit-level liveness


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
            self._demand_region(self.region(point, e), mask, acc)
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
            else:  # comparisons and any operator not named above: every bit matters
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

    def _demand_region(self, region, mask, acc):
        mask = _ones(region.size * 8) if self.coarse else mask & _ones(region.size * 8)
        if region.kind == "cell":
            cell = self._canon(Token(region.p, 32))
            acc.add(cell, mask << (region.off * 8) & _ones(cell.width))
        elif region.kind == "stack":
            acc.add(StackSlot(-region.off, region.size), mask)
        elif region.kind == "tokptr":
            acc.regions.add(region)
        else:
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

    def _kill_region(self, region, live):
        out = live.copy()
        size = region.size
        if region.kind == "cell":
            cell = self._canon(Token(region.p, 32))
            kill = _ones(size * 8) << (region.off * 8)
            if cell in out.masks:
                out.masks[cell] &= ~kill
                if not out.masks[cell]:
                    del out.masks[cell]
        elif region.kind == "stack":
            # clear the stored bytes of every live slot they overlap
            for loc in [l for l in out.masks if isinstance(l, StackSlot)]:
                shift = 8 * (loc.offset + region.off)
                kill = _ones(size * 8)
                kill = kill << shift if shift >= 0 else kill >> -shift
                out.masks[loc] &= ~kill
                if not out.masks[loc]:
                    del out.masks[loc]
        elif region.kind == "tokptr":
            lo, hi = region.off, region.off + size
            kept = set()
            for r in out.regions:
                a, b = r.off, r.off + r.size
                if r.p != region.p:
                    kept.add(r)
                    continue
                if a < lo:
                    kept.add(Region("tokptr", r.p, a, min(b, lo) - a))
                if b > hi:
                    kept.add(Region("tokptr", r.p, max(a, hi), b - max(a, hi)))
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
            size = region.size
            if live_out.get(MemoryWhole()) and not (region.kind == "stack" and self.esp_restored):
                rmask = _ones(size * 8)
            elif region.kind == "cell":
                cell = self._canon(Token(region.p, 32))
                rmask = (live_out.get(cell) >> (region.off * 8)) & _ones(size * 8)
            elif region.kind == "stack":
                rmask = self._stack_demand(-region.off, size, live_out)
            elif region.kind == "tokptr" and any(r.p == region.p for r in live_out.regions):
                rmask = _ones(size * 8)
            else:
                rmask = 0
            out = self._kill_region(region, live_out)
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
        anchors.append(Anchor(e.position, base, off, e.size_bytes))
    return anchors


def _unify_anchored(fi, anchors):
    """fi with each input entry anchored to exactly the bytes of an
    output entry unified with that output, as a matching digit would
    unify it: the two name one place."""
    outputs = {(a.base, a.offset, a.size): a.entry for a in anchors if a.entry in fi.b_o}
    unified = {
        a.entry: outputs[a.base, a.offset, a.size]
        for a in anchors
        if a.entry in fi.b_i - fi.b_o and (a.base, a.offset, a.size) in outputs
    }
    if not unified:
        return fi
    return replace(fi, b_i=fi.b_i - set(unified), unified={**fi.unified, **unified})


# ---------------------------------------------------------------------------
# The three analyses


def _first_writes(events, prog):
    """The first point that writes each location, and each stored
    Region."""
    writes = {}
    for i, ins in enumerate(prog.instrs):
        if isinstance(ins, Assign) and not isinstance(ins.lhs, (StoreLhs, Temp)):
            writes.setdefault(ins.lhs, i)
    for ev in events:
        if ev.kind == "store":
            writes.setdefault(ev.region, ev.point)
    return writes


def analyze_frame_write(fi, prog, fwd, opts):
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
        if not isinstance(loc, Region) or not fi.f:
            continue
        if loc.kind == "cell":
            if loc.p not in fi.b_o:
                issues.append(
                    Issue(
                        "ReadOnlyInputClobbered",
                        Token(loc.p, fi.sizes.get(loc.p, 4) * 8),
                        point,
                        f"memory entry %{loc.p} declared read-only is written",
                    )
                )
            continue
        if loc.kind == "stack":
            if prop and esp_restored:
                continue  # scratch below the entry stack pointer
            details = f"stack write at esp{loc.off} without \"memory\""
        elif loc.kind == "tokptr":
            details = f"store through %{loc.p}+{loc.off} without \"memory\""
        else:
            details = "memory written without \"memory\" clobber"
        issues.append(Issue("UnboundMemoryWrite", MemoryWhole(), point, details))
    return issues, writes, esp_restored


def _seed_liveness(fi, coarse):
    seed = LiveSet()
    for p in sorted(fi.b_o):
        bits = min(fi.sizes.get(p, 4) * 8, 32)
        kind = fi.kinds.get(p)
        if kind == "fixed":
            seed.add(Reg(fi.fixed[p], 32), _ones(32) if coarse else _ones(bits))
        elif kind == "mem":
            w = fi.sizes.get(p, 4) * 8
            seed.add(Token(p, w), _ones(w))
        else:
            seed.add(Token(p, 32), _ones(32) if coarse else _ones(bits))
    if not fi.f:
        seed.add(MemoryWhole(), 1)
    return seed


def analyze_frame_read(fi, prog, fwd, writes, esp_restored, opts):
    bwd = BackwardPass(prog, fwd.region, fi, not opts.bit_liveness, esp_restored)
    live_in, live_out = bwd.run(_seed_liveness(fi, coarse=not opts.bit_liveness))
    entry = live_in[0]
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
    if fi.f:
        for r in sorted(entry.regions, key=lambda r: (r.p, r.off, r.size)):
            details = f"load through %{r.p}+{r.off} without \"memory\" or m-entry"
            issues.append(Issue("UnboundMemoryRead", MemoryWhole(), 0, details))

    # write-only outputs that are never written
    for p in sorted(fi.b_o):
        if p in fi.effective_inputs:
            continue
        kind = fi.kinds.get(p)
        if kind == "fixed":
            written = Reg(fi.fixed[p], 32) in writes
        elif kind == "mem":
            written = any(
                isinstance(loc, Region) and loc.kind == "cell" and loc.p == p for loc in writes
            )
        else:
            written = Token(p, 32) in writes
        if not written:
            issues.append(
                Issue(
                    "NonWrittenWriteOnlyOutput",
                    Token(p, 32),
                    len(prog.instrs) - 1,
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


def check_chunk(chunk, opts=None):
    """Check one chunk."""
    return _analyze(chunk, opts or CheckOptions())


def _analyze(chunk, opts):
    t0 = time.perf_counter()
    clear_nodes()
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
    result.fi = fi = _unify_anchored(fi, anchors)

    t1 = time.perf_counter()
    fwd = ForwardPass(prog, make_classifier(fi, anchors))
    fwd.run()
    result.mem_events = fwd.events
    t2 = time.perf_counter()

    fw_issues, writes, esp_restored = analyze_frame_write(fi, prog, fwd, opts)
    result.writes = writes
    result.esp_restored = esp_restored
    t3 = time.perf_counter()

    fr_issues, live_in, live_out = analyze_frame_read(
        fi, prog, fwd, writes, esp_restored, opts
    )
    result.entry_live = dict(live_in[0].masks)
    result.entry_regions = frozenset(live_in[0].regions)
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
