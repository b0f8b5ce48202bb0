"""AT&T-syntax template parser with interface tokens as first-class operands."""

from __future__ import annotations

import re

from .errors import BadTokenRef, MalformedInterface, OutOfScope, UnknownMnemonic
from .value import Record

REG8 = {
    "al": ("eax", 0), "ah": ("eax", 8),
    "bl": ("ebx", 0), "bh": ("ebx", 8),
    "cl": ("ecx", 0), "ch": ("ecx", 8),
    "dl": ("edx", 0), "dh": ("edx", 8),
}
REG16 = {"ax": "eax", "bx": "ebx", "cx": "ecx", "dx": "edx",
         "si": "esi", "di": "edi", "bp": "ebp", "sp": "esp"}
REG32 = ("eax", "ebx", "ecx", "edx", "esi", "edi", "ebp", "esp")
WIDE = {f"mm{i}": 64 for i in range(8)}
WIDE.update({f"xmm{i}": 128 for i in range(8)})


class RegT(Record):
    parent: str  # 32-bit (or wide) register name
    lo: int  # low bit of the accessed slice
    width: int  # bits


class TokenRef(Record):
    ref: object  # int position or str name
    modifier: str = None  # size modifier b, w or k


class ImmT(Record):
    value: int


class MemT(Record):
    disp: int = 0
    base: object = None  # RegT | TokenRef | None
    index: object = None  # RegT | None
    scale: int = 1


class LabelRef(Record):
    name: str


class TemplateInstr(Record):
    mnemonic: str
    suffix: str  # '', 'b', 'w', 'l' or two-letter for movz/movs
    operands: tuple
    prefixes: frozenset = frozenset()
    raw: str = ""


class ParsedTemplate(Record):
    instrs: tuple
    label_defs: tuple  # (name, instruction index), in definition order

    def resolve_label(self, ref, from_index):
        """Resolve a label reference; numeric `1b`/`1f` refs pick the
        nearest definition in the given direction."""
        m = re.fullmatch(r"(\d+)([fb])", ref)
        if m:
            name, direction = m.group(1), m.group(2)
            if direction == "b":
                cands = [i for n, i in self.label_defs if n == name and i <= from_index]
                if cands:
                    return max(cands)
            else:
                cands = [i for n, i in self.label_defs if n == name and i > from_index]
                if cands:
                    return min(cands)
            raise MalformedInterface(f"unresolved local label {ref!r}")
        for name, i in self.label_defs:
            if name == ref:
                return i
        raise MalformedInterface(f"unresolved label {ref!r}")


CC_NAMES = (
    "nae", "nbe", "nge", "nle",
    "ae", "be", "ge", "le", "na", "nb", "nc", "ne", "ng", "nl",
    "no", "np", "ns", "nz",
    "a", "b", "c", "e", "g", "l", "o", "p", "s", "z",
)

BASE_MNEMONICS = {
    "mov", "lea", "xchg",
    "add", "adc", "sub", "sbb", "inc", "dec", "neg", "cmp",
    "and", "or", "xor", "not", "test",
    "shl", "sal", "shr", "sar", "rol", "ror",
    "mul", "imul", "bswap",
    "push", "pop",
    "cmpxchg", "cmpxchg8b",
    "jmp", "nop",
    # minimal SIMD moves, lifted as opaque wide-register effects
    "movq", "movd", "pxor", "movaps", "movdqa", "movdqu",
}
NO_SUFFIX = {"cmpxchg8b", "nop", "jmp",
             "movq", "movd", "pxor", "movaps", "movdqa", "movdqu"}


def classify_mnemonic(word):
    """Return (mnemonic, suffix) or raise UnknownMnemonic."""
    if word in BASE_MNEMONICS:
        return word, ""
    for family in ("set", "cmov", "j"):
        if word.startswith(family):
            rest = word[len(family):]
            for cc in CC_NAMES:
                if rest == cc:
                    return family + cc, ""
                if family == "cmov" and rest == cc + "l":
                    return family + cc, "l"
    for two in ("movz", "movs"):
        if word.startswith(two) and len(word) == 6:
            src, dst = word[4], word[5]
            if src in "bw" and dst in "wl" and src != dst:
                return two, src + dst
    if word[-1:] in "bwl" and word[:-1] in BASE_MNEMONICS and word[:-1] not in NO_SUFFIX:
        return word[:-1], word[-1]
    raise UnknownMnemonic(word)


_TOKEN_RE = re.compile(r"%([bwk]?)(\d+)|%([bwk]?)\[([A-Za-z_][A-Za-z0-9_]*)\]")
_MODIFIED_TOKEN = re.compile(r"%([A-Za-z])(?:\d+|\[[A-Za-z_][A-Za-z0-9_]*\])")
_LABEL_DEF = re.compile(r"^([A-Za-z_0-9.]+):\s*")


def renumber_template(template, renumber):
    """The template with each numbered token %[bwk]N renamed through the
    renumber map; %%N and named tokens are kept."""

    def sub(m):
        start = m.start()
        if m.group(2) is None or (start > 0 and template[start - 1] == "%"):
            return m.group(0)
        old = int(m.group(2))
        return f"%{m.group(1)}{renumber.get(old, old)}"

    return _TOKEN_RE.sub(sub, template)


def _parse_register(name):
    if name in REG32:
        return RegT(name, 0, 32)
    if name in REG16:
        return RegT(REG16[name], 0, 16)
    if name in REG8:
        parent, lo = REG8[name]
        return RegT(parent, lo, 8)
    if name in WIDE:
        return RegT(name, 0, WIDE[name])
    raise MalformedInterface(f"unknown register %{name}")


def _parse_int(text):
    try:
        return int(text, 0)
    except ValueError:
        raise BadTokenRef(f"malformed integer literal {text!r}") from None


_SYMBOL = re.compile(r"(?<![A-Za-z0-9_.%])[A-Za-z_.][A-Za-z0-9_.]*")


def _displacement(dtext, operand):
    """The integer displacement dtext of a memory operand. The address
    of a global symbol is not modelled, so a symbol in it is an error."""
    symbol = _SYMBOL.search(dtext)
    if symbol:
        raise MalformedInterface(
            f"symbolic displacement {symbol.group(0)!r} in {operand!r}:"
            " global symbol addresses are out of scope"
        )
    return _parse_int(dtext)


def _split_operands(text):
    parts = []
    depth = 0
    cur = []
    for c in text:
        if c == "(":
            depth += 1
        elif c == ")":
            depth -= 1
        if c == "," and depth == 0:
            parts.append("".join(cur).strip())
            cur = []
        else:
            cur.append(c)
    tail = "".join(cur).strip()
    if tail or parts:
        parts.append(tail)
    return parts


def _token_ref(text):
    """The token reference that text is, or None. Of GCC's operand
    modifiers only the sizes b, w and k are lifted; any other, such as
    %h0 (the high byte), is out of scope."""
    m = _TOKEN_RE.fullmatch(text)
    if m:
        mod = m.group(1) or m.group(3) or None
        ref = int(m.group(2)) if m.group(2) is not None else m.group(4)
        return TokenRef(ref, mod)
    m = _MODIFIED_TOKEN.fullmatch(text)
    if m:
        raise OutOfScope(f"unsupported template modifier %{m.group(1)} in {text!r}")
    return None


def _parse_mem_component(text):
    text = text.strip()
    if text.startswith("%%"):
        return _parse_register(text[2:])
    ref = _token_ref(text)
    if ref is not None:
        return ref
    raise MalformedInterface(f"bad address component {text!r}")


def _parse_operand(text):
    text = text.strip()
    if not text:
        raise MalformedInterface("empty operand")
    if text.startswith("$"):
        return ImmT(_parse_int(text[1:]))
    if text.startswith("%%"):
        return _parse_register(text[2:])
    ref = _token_ref(text)
    if ref is not None:
        return ref
    # memory operand disp(base,index,scale), or bare displacement
    paren = text.find("(")
    if paren >= 0 and text.endswith(")"):
        dtext = text[:paren].strip()
        disp = _displacement(dtext, text) if dtext else 0
        inner = text[paren + 1 : -1]
        comps = [c.strip() for c in inner.split(",")]
        base = _parse_mem_component(comps[0]) if comps[0] else None
        index = None
        scale = 1
        if len(comps) > 1 and comps[1]:
            index = _parse_mem_component(comps[1])
        if len(comps) > 2 and comps[2]:
            scale = _parse_int(comps[2])
        return MemT(disp, base, index, scale)
    if re.fullmatch(r"\d+[fb]", text) or re.fullmatch(r"[A-Za-z_.][A-Za-z0-9_.]*", text):
        return LabelRef(text)
    return MemT(disp=_displacement(text, text))


def parse_template(template, chunk=None):
    """Parse the template into instructions plus a label table.

    When a chunk is given, named/numbered token references are checked
    against its operand entries.
    """
    instrs = []
    label_defs = []
    pending_prefixes = set()
    statements = re.split(r"[;\n]", template)
    for raw in statements:
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
        word = words[0].lower()
        if word == "lock":
            pending_prefixes.add("lock")
            if len(words) > 1:
                stmt = words[1]
                words = stmt.split(None, 1)
                word = words[0].lower()
            else:
                continue
        mnemonic, suffix = classify_mnemonic(word)
        optext = words[1] if len(words) > 1 else ""
        operands = tuple(_parse_operand(o) for o in _split_operands(optext))
        instrs.append(
            TemplateInstr(mnemonic, suffix, operands, frozenset(pending_prefixes), stmt)
        )
        pending_prefixes = set()

    if chunk is not None:
        positions = {e.position for e in chunk.entries}
        names = {e.name for e in chunk.entries if e.name}
        for ins in instrs:
            for op in ins.operands:
                refs = []
                if isinstance(op, TokenRef):
                    refs.append(op)
                if isinstance(op, MemT):
                    if isinstance(op.base, TokenRef):
                        refs.append(op.base)
                for ref in refs:
                    if isinstance(ref.ref, int) and ref.ref not in positions:
                        raise BadTokenRef(f"%{ref.ref} has no interface entry")
                    if isinstance(ref.ref, str) and ref.ref not in names:
                        raise BadTokenRef(f"%[{ref.ref}] has no interface entry")
    return ParsedTemplate(tuple(instrs), tuple(label_defs))


def template_tokens(pt):
    """All token positions/names referenced by the template."""
    refs = set()
    for ins in pt.instrs:
        for op in ins.operands:
            if isinstance(op, TokenRef):
                refs.add(op.ref)
            if isinstance(op, MemT) and isinstance(op.base, TokenRef):
                refs.add(op.base.ref)
    return refs


def uses_push_pop(pt):
    return any(ins.mnemonic in ("push", "pop") for ins in pt.instrs)
