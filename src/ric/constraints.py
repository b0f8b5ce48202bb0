"""Constraint strings, formal interfaces, and token assignments.

Constraint letters evaluate to operand classes over the i386 register
file. An interface collects, per token, the class alternatives plus the
clobber set and the memory separation flag; assignments are concrete
choices filtered by the validity rules (assignable outputs, distinct
output locations, clobber-free, early-clobber exclusion).
"""

from __future__ import annotations

from .errors import (
    BadConstraintChar,
    ClobberOverlap,
    MalformedInterface,
    ModeMissing,
    UnknownLetter,
)
from .expr import GP_REGS, MMX_REGS, XMM_REGS
from .value import Record

R_SET = ("eax", "ebx", "ecx", "edx", "esi", "edi", "ebp")
Q_SET = ("eax", "ebx", "ecx", "edx")
ADDR_BASES = R_SET + ("esp",)  # plus the absent base, handled structurally
ADDR_INDICES = R_SET
ADDR_SCALES = (1, 2, 4, 8)


# ---------------------------------------------------------------------------
# Operand classes


class ImmediateInt(Record):
    pass


class RegisterSet(Record):
    registers: frozenset

    def __init__(self, registers):
        if not registers:
            raise MalformedInterface("empty register set")
        super().__init__(registers)


class MemoryRef(Record):
    """The x86 address family: base + scale*index + displacement."""

    deref: bool  # True for 'm' (*p), False for 'p'
    bases: tuple = ADDR_BASES
    indices: tuple = ADDR_INDICES
    scales: tuple = ADDR_SCALES


class UnionClass(Record):
    members: tuple


LETTER_TABLE = {
    "a": RegisterSet(frozenset({"eax"})),
    "b": RegisterSet(frozenset({"ebx"})),
    "c": RegisterSet(frozenset({"ecx"})),
    "d": RegisterSet(frozenset({"edx"})),
    "S": RegisterSet(frozenset({"esi"})),
    "D": RegisterSet(frozenset({"edi"})),
    "U": RegisterSet(frozenset({"eax", "ecx", "edx"})),
    "q": RegisterSet(frozenset(Q_SET)),
    "Q": RegisterSet(frozenset(Q_SET)),
    "r": RegisterSet(frozenset(R_SET)),
    "R": RegisterSet(frozenset(R_SET)),
    "i": ImmediateInt(),
    "n": ImmediateInt(),
    "p": MemoryRef(deref=False),
    "m": MemoryRef(deref=True),
}
LETTER_TABLE["g"] = UnionClass((LETTER_TABLE["i"], LETTER_TABLE["r"], LETTER_TABLE["m"]))


def eval_letter(c):
    try:
        return LETTER_TABLE[c]
    except KeyError:
        raise UnknownLetter(c) from None


# ---------------------------------------------------------------------------
# Constraint parsing


class Letter(Record):
    char: str


class Match(Record):
    ref: object  # int position or str name


class ConstraintSpec(Record):
    mode: str  # 'input' | 'output_writeonly' | 'output_readwrite'
    early_clobber: bool
    commutative: bool
    alternatives: tuple  # of tuples of Letter|Match


def parse_constraint(s, is_output):
    if not s:
        raise MalformedInterface("empty constraint")
    mode = "input"
    early = False
    commutative = False
    i = 0
    while i < len(s) and s[i] in "=+&%":
        c = s[i]
        if c == "=":
            mode = "output_writeonly"
        elif c == "+":
            mode = "output_readwrite"
        elif c == "&":
            early = True
        else:
            commutative = True
        i += 1
    if is_output and mode == "input":
        raise ModeMissing(f"output constraint {s!r} lacks '=' or '+'")
    if not is_output and mode != "input":
        raise MalformedInterface(f"input constraint {s!r} has an output modifier")
    body = s[i:]
    alternatives = []
    for alt in body.split(","):
        atoms = []
        j = 0
        while j < len(alt):
            c = alt[j]
            if c.isdigit():
                k = j
                while k < len(alt) and alt[k].isdigit():
                    k += 1
                if is_output:
                    raise MalformedInterface("matching constraint on an output")
                atoms.append(Match(int(alt[j:k])))
                j = k
            elif c == "[":
                k = alt.find("]", j)
                if k < 0:
                    raise MalformedInterface(f"unterminated match name in {s!r}")
                atoms.append(Match(alt[j + 1 : k]))
                j = k + 1
            elif c in LETTER_TABLE:
                atoms.append(Letter(c))
                j += 1
            elif c in "=+&%":
                raise BadConstraintChar(f"modifier {c!r} after constraint body")
            else:
                raise UnknownLetter(c)
        if not atoms:
            raise MalformedInterface(f"empty alternative in {s!r}")
        alternatives.append(tuple(atoms))
    return ConstraintSpec(mode, early, commutative, tuple(alternatives))


# ---------------------------------------------------------------------------
# Formal interface


class FormalInterface(Record):
    b_o: frozenset  # output token positions
    b_i: frozenset  # input token positions after unification
    s_c: frozenset  # clobber names; 'cc' stands for the flags register
    f: bool  # memory separation flag; False iff 'memory' clobbered
    constraints: dict  # position -> ConstraintSpec (unified inputs included)
    sizes: dict  # position -> bytes
    names: dict  # symbolic name -> position
    early_clobber: frozenset
    unified: dict  # original input position -> canonical output token
    fixed: dict  # position -> register forced by a singleton constraint
    kinds: dict  # position -> 'fixed' | 'mem' | 'var'

    @property
    def tokens(self):
        return frozenset(self.constraints)

    @property
    def effective_inputs(self):
        """B_I plus output tokens that absorbed a unified input."""
        return self.b_i | frozenset(self.unified.values())

    def canonical(self, position):
        return self.unified.get(position, position)


def _atoms_of(spec):
    for alt in spec.alternatives:
        yield from alt


def _forced_register(spec, specs):
    """Register forced by every alternative of the constraint, else None."""
    regs = set()
    for alt in spec.alternatives:
        for atom in alt:
            if isinstance(atom, Match):
                target = specs.get(atom.ref)
                if target is None:
                    return None
                sub = _forced_register(target, specs)
                if sub is None:
                    return None
                regs.add(sub)
            else:
                cls = eval_letter(atom.char)
                if not isinstance(cls, RegisterSet) or len(cls.registers) != 1:
                    return None
                regs.add(next(iter(cls.registers)))
    return regs.pop() if len(regs) == 1 else None


def _token_kind(p, spec, fixed):
    """'fixed' register, 'mem' cell, or register 'var'. Mixed-class
    constraints fall back to 'var'."""
    if p in fixed:
        return "fixed"
    classes = set()

    def collect(cls):
        if isinstance(cls, UnionClass):
            for m in cls.members:
                collect(m)
        else:
            deref = ":deref" if isinstance(cls, MemoryRef) and cls.deref else ""
            classes.add(type(cls).__name__ + deref)

    has_match = False
    for atom in _atoms_of(spec):
        if isinstance(atom, Match):
            has_match = True
        else:
            collect(eval_letter(atom.char))
    return "mem" if classes == {"MemoryRef:deref"} and not has_match else "var"


CLOBBER_NAMES = frozenset(GP_REGS) | frozenset(MMX_REGS) | frozenset(XMM_REGS) | {
    "cc",
    "memory",
    "st",
}


def derive_interface(chunk):
    specs = {}
    names = {}
    sizes = {}
    for entry in chunk.outputs:
        specs[entry.position] = parse_constraint(entry.constraint, is_output=True)
        sizes[entry.position] = entry.size_bytes
        if entry.name:
            names[entry.name] = entry.position
    for entry in chunk.inputs:
        specs[entry.position] = parse_constraint(entry.constraint, is_output=False)
        sizes[entry.position] = entry.size_bytes
        if entry.name:
            names[entry.name] = entry.position

    # resolve named matches to positions
    def resolve(spec):
        alts = []
        for alt in spec.alternatives:
            atoms = []
            for atom in alt:
                if isinstance(atom, Match) and isinstance(atom.ref, str):
                    if atom.ref not in names:
                        raise MalformedInterface(f"unknown match name {atom.ref!r}")
                    atom = Match(names[atom.ref])
                atoms.append(atom)
            alts.append(tuple(atoms))
        return ConstraintSpec(spec.mode, spec.early_clobber, spec.commutative, tuple(alts))

    specs = {p: resolve(s) for p, s in specs.items()}

    b_o = set()
    b_i = set()
    for p, spec in specs.items():
        if spec.mode == "input":
            b_i.add(p)
        else:
            b_o.add(p)
            if spec.mode == "output_readwrite":
                b_i.add(p)

    for p, spec in specs.items():
        for atom in _atoms_of(spec):
            if isinstance(atom, Match) and atom.ref not in b_o:
                raise MalformedInterface(
                    f"match constraint {atom.ref} does not name an output"
                )

    fixed = {}
    for p, spec in specs.items():
        r = _forced_register(spec, specs)
        if r is not None:
            fixed[p] = r

    s_c = set()
    for name in chunk.clobbers:
        if name not in CLOBBER_NAMES:
            raise MalformedInterface(f"unknown clobber {name!r}")
        if name == "memory":
            continue
        s_c.add(name)
    for p, r in fixed.items():
        if r in s_c:
            raise ClobberOverlap(f"clobber {r} overlaps operand {p}")
    f = "memory" not in chunk.clobbers

    # unification: explicit match, or input forced to the same register
    # as an output
    unified = {}
    for p in sorted(b_i - b_o):
        spec = specs[p]
        target = None
        for atom in _atoms_of(spec):
            if isinstance(atom, Match):
                target = atom.ref
        if target is None and p in fixed:
            for o in sorted(b_o):
                if fixed.get(o) == fixed[p]:
                    target = o
                    break
        if target is not None:
            unified[p] = target
            b_i.discard(p)

    early = frozenset(p for p, s in specs.items() if s.early_clobber)
    return FormalInterface(
        frozenset(b_o),
        frozenset(b_i),
        frozenset(s_c),
        f,
        specs,
        sizes,
        names,
        early,
        unified,
        fixed,
        {p: _token_kind(p, spec, fixed) for p, spec in specs.items()},
    )


# ---------------------------------------------------------------------------
# Concrete token assignments


class RegOperand(Record):
    reg: str


class ImmOperand(Record):
    value: int


class MemOperand(Record):
    base: str = None
    index: str = None
    scale: int = 1
    disp: int = 0

    def registers(self):
        return frozenset(r for r in (self.base, self.index) if r)


def operand_registers(op):
    if isinstance(op, RegOperand):
        return frozenset({op.reg})
    if isinstance(op, MemOperand):
        return op.registers()
    return frozenset()


def format_operand(op):
    if isinstance(op, RegOperand):
        return f"%{op.reg}"
    if isinstance(op, ImmOperand):
        return f"${op.value}"
    if isinstance(op, MemOperand):
        inner = op.base or ""
        if op.index:
            inner += f",{op.index},{op.scale}"
        return f"{op.disp if op.disp else ''}(%{inner})" if inner else f"{op.disp}"
    return repr(op)


class TokenAssignment(Record):
    mapping: dict  # position -> operand

    def __getitem__(self, token):
        return self.mapping[token]

    def __contains__(self, token):
        return token in self.mapping

    def items(self):
        return self.mapping.items()

    def key(self):
        return tuple(sorted(self.mapping.items(), key=lambda kv: kv[0]))

    def __hash__(self):
        return hash(self.key())

    def __eq__(self, other):
        return isinstance(other, TokenAssignment) and self.key() == other.key()


class AssignmentSet(Record, frozen=False):
    assignments: list
    truncated: bool = False

    @property
    def satisfiable(self):
        return bool(self.assignments)


IMM_SAMPLES = (0, 1, 2)
DISP_SAMPLES = (0, 4, -4, 0x1000)


def _class_options(cls, banned, specs_fixed):
    if isinstance(cls, UnionClass):
        out = []
        for m in cls.members:
            out.extend(_class_options(m, banned, specs_fixed))
        return out
    if isinstance(cls, ImmediateInt):
        return [ImmOperand(v) for v in IMM_SAMPLES]
    if isinstance(cls, RegisterSet):
        return [RegOperand(r) for r in GP_REGS if r in cls.registers and r not in banned]
    if isinstance(cls, MemoryRef):
        # mirror the abstract domain: bases drawn from the free registers
        bases = [r for r in R_SET if r not in banned and r not in specs_fixed]
        out = [MemOperand(base=b, disp=d) for d in DISP_SAMPLES for b in bases]
        out.extend(
            MemOperand(base=b, index=i, scale=s)
            for s in (1, 4)
            for b in bases
            for i in bases
            if i != b
        )
        return out
    raise MalformedInterface(f"cannot enumerate {cls!r}")


def _operand_location(op):
    """Identity used by the distinct-output-locations filter."""
    return op


def assignment_valid(fi, t):
    """Independent revalidation of the three validity filters."""
    locs = []
    for p in sorted(fi.b_o):
        op = t[p]
        if isinstance(op, ImmOperand):
            return False
        locs.append(_operand_location(op))
    if len(set(locs)) != len(locs):
        return False
    clobbered = fi.s_c - {"cc"}
    for p, op in t.items():
        if operand_registers(op) & clobbered:
            return False
    for p in fi.early_clobber:
        regs = operand_registers(t[p])
        for q, op in t.items():
            if fi.canonical(q) != fi.canonical(p) and operand_registers(op) & regs:
                return False
    for p, canon in fi.unified.items():
        if t[p] != t[canon]:
            return False
    return True


def enumerate_assignments(fi, cap=256, collapse=frozenset()):
    """Enumerate valid assignments up to cap. Positions in `collapse`
    (declaration-only memory entries whose placement is dictated by a
    pointer token) get a single register-free placeholder operand so the
    cap is spent on operands that matter."""
    banned = frozenset(fi.s_c - {"cc"})
    fixed_regs = frozenset(fi.fixed.values())
    positions = sorted(p for p in fi.constraints if p not in fi.unified)
    n_alts = max((len(fi.constraints[p].alternatives) for p in positions), default=1)

    results = []
    seen = set()
    truncated = False

    def emit(t):
        nonlocal truncated
        full = dict(t)
        for p, canon in fi.unified.items():
            full[p] = full[canon]
        ta = TokenAssignment(full)
        if ta in seen or not assignment_valid(fi, ta):
            return False
        seen.add(ta)
        if len(results) >= cap:
            truncated = True
            return True
        results.append(ta)
        return False

    def options_for(p, alt_idx, partial):
        if p in collapse:
            return [MemOperand(disp=0x7000 + 8 * p)]
        spec = fi.constraints[p]
        alt = spec.alternatives[min(alt_idx, len(spec.alternatives) - 1)]
        out = []
        for atom in alt:
            if isinstance(atom, Match):
                if atom.ref in partial:
                    out.append(partial[atom.ref])
            else:
                out.extend(_class_options(eval_letter(atom.char), banned, fixed_regs))
        return out

    for alt_idx in range(n_alts):
        if truncated:
            break

        def rec(i, partial):
            nonlocal truncated
            if truncated:
                return
            if i == len(positions):
                if emit(partial):
                    return
                # commutative '%' pairs: also try the swapped operand order
                for p in positions:
                    if fi.constraints[p].commutative and (p + 1) in partial:
                        swapped = dict(partial)
                        swapped[p], swapped[p + 1] = swapped[p + 1], swapped[p]
                        if emit(swapped):
                            return
                return
            p = positions[i]
            for op in options_for(p, alt_idx, partial):
                if truncated:
                    return
                partial[p] = op
                rec(i + 1, partial)
                del partial[p]

        rec(0, {})

    return AssignmentSet(results, truncated)


def interface_satisfiable(fi):
    """Whether some valid assignment exists: the first one found answers."""
    return enumerate_assignments(fi, cap=1).satisfiable


# ---------------------------------------------------------------------------
# Abstract locations


class Immediate(Record):
    pass


class DirectLoc(Record):
    reg: str


class IndirectLoc(Record):
    reg: str


def abstract_domain(fi):
    """Per-token over-approximation of the possible operand shapes.

    Indirect bases exclude clobbered registers and registers pinned to
    some token by a singleton constraint; the compiler cannot place a
    memory operand there without breaking that binding, and keeping
    them would drown unicity in alarms on every fixed-register chunk.
    """
    banned = frozenset(fi.s_c - {"cc"}) | frozenset(fi.fixed.values())
    indirect_bases = [r for r in GP_REGS if r not in banned]

    def of_class(cls):
        if isinstance(cls, UnionClass):
            out = set()
            for m in cls.members:
                out |= of_class(m)
            return out
        if isinstance(cls, ImmediateInt):
            return {Immediate()}
        if isinstance(cls, RegisterSet):
            return {DirectLoc(r) for r in cls.registers if r not in fi.s_c}
        if isinstance(cls, MemoryRef):
            return {IndirectLoc(r) for r in indirect_bases}
        raise MalformedInterface(f"cannot abstract class {cls!r}")

    domains = {}

    def of_token(p, seen):
        if p in domains:
            return domains[p]
        out = set()
        for atom in _atoms_of(fi.constraints[p]):
            if isinstance(atom, Match):
                if atom.ref not in seen:
                    out |= of_token(atom.ref, seen | {p})
            else:
                out |= of_class(eval_letter(atom.char))
        domains[p] = frozenset(out)
        return domains[p]

    for p in fi.constraints:
        of_token(p, frozenset())
    return domains
