"""AT&T operand syntax of templates, with interface tokens as
first-class operands. Instruction words are classified in `lift`."""

from __future__ import annotations

import re

from .errors import BadTokenRef, MalformedInterface, OutOfScope
from .expr import reg
from .value import Record

REG8 = {
    "al": ("eax", 0), "ah": ("eax", 8),
    "bl": ("ebx", 0), "bh": ("ebx", 8),
    "cl": ("ecx", 0), "ch": ("ecx", 8),
    "dl": ("edx", 0), "dh": ("edx", 8),
}
REG16 = {"ax": "eax", "bx": "ebx", "cx": "ecx", "dx": "edx",
         "si": "esi", "di": "edi", "bp": "ebp", "sp": "esp"}


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
    suffix: str  # '', 'b', 'w', 'l', or source and destination sizes ('bl')
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


_TOKEN_RE = re.compile(r"%([bwk]?)(\d+)|%([bwk]?)\[([A-Za-z_][A-Za-z0-9_]*)\]")
_MODIFIED_TOKEN = re.compile(r"%([A-Za-z])(?:\d+|\[[A-Za-z_][A-Za-z0-9_]*\])")


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
    if name in REG16:
        return RegT(REG16[name], 0, 16)
    if name in REG8:
        parent, lo = REG8[name]
        return RegT(parent, lo, 8)
    try:
        return RegT(name, 0, reg(name).width)
    except ValueError:
        raise MalformedInterface(f"unknown register %{name}") from None


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


def parse_operands(text):
    """The operands of an instruction, from the text after its word."""
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
    return tuple(_parse_operand(o) for o in parts)


def token_refs(instrs):
    """Each token reference in the instructions' operands, memory bases
    included, in order."""
    for ins in instrs:
        for op in ins.operands:
            if isinstance(op, TokenRef):
                yield op
            elif isinstance(op, MemT) and isinstance(op.base, TokenRef):
                yield op.base


def template_tokens(pt):
    """All token positions/names referenced by the template."""
    return {ref.ref for ref in token_refs(pt.instrs)}
