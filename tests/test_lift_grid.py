"""A pinned grid of template instructions: every mnemonic ric lifts,
with each size suffix it takes and one it does not, over a fixed set of
operand kinds at 0-3 operands. Each template gives one line, its IR and
label table or its error's class and message, and the test pins the
SHA-256 of all lines, so a change to any lifting rule or to the parser
shows here.

Run this file as a script for the full grid, every operand tuple at 0-2
operands (0-3 for imul), which prints its size and digest; `--pinned`
takes the pinned grid instead, and `--lines` prints every line:

    PYTHONPATH=src python tests/test_lift_grid.py [--pinned] [--lines]
"""

import hashlib
import sys

from ric.chunks import load_chunk_records
from ric.constraints import derive_interface
from ric.expr import clear_nodes, format_instr
from ric.lift import INSTRUCTIONS, lift, parse_template

CC = (
    "a", "ae", "b", "be", "c", "e", "g", "ge", "l", "le", "na", "nae", "nb", "nbe",
    "nc", "ne", "ng", "nge", "nl", "nle", "no", "np", "ns", "nz", "o", "p", "s", "z",
)
SUFFIXED = (
    "mov", "lea", "xchg", "add", "adc", "sub", "sbb", "inc", "dec", "neg", "cmp",
    "and", "or", "xor", "not", "test", "shl", "sal", "shr", "sar", "rol", "ror",
    "mul", "imul", "bswap", "push", "pop", "cmpxchg",
)
BARE = ("cmpxchg8b", "nop", "jmp", "movq", "movd", "pxor", "movaps", "movdqa", "movdqu")


def _words():
    words = []
    for m in SUFFIXED:
        words += [m, m + "b", m + "w", m + "l", m + "q"]
    for m in BARE:
        words += [m, m + "l"]
    for cc in CC:
        words += ["set" + cc, "set" + cc + "b", "cmov" + cc, "cmov" + cc + "l",
                  "cmov" + cc + "b", "j" + cc, "j" + cc + "l"]
    for m in ("movz", "movs"):
        words += [m + s for s in ("", "bw", "bl", "wl", "wb", "ll")]
    return words


WORDS = _words()

# registers of each width, two immediates, tokens of each kind and
# size, two size modifiers, a memory operand with base and index, a label
KINDS = (
    "%%eax", "%%cx", "%%dl", "%%ah", "%%mm1", "%%xmm2", "$1", "$9",
    "%0", "%1", "%2", "%3", "%4", "%b0", "%w1", "4(%%esi,%%ecx,4)", "1b",
)
K = len(KINDS)

# %0 a 4-byte register variable, %1 pinned to eax, %2 a 4-byte memory
# cell, %3 a 1-byte q-class register, %4 an 8-byte memory cell
INTERFACE = {
    "template": "nop",
    "outputs": [
        {"constraint": "+r", "expr_text": "x"},
        {"constraint": "+a", "expr_text": "y"},
        {"constraint": "+m", "expr_text": "*p"},
        {"constraint": "+q", "expr_text": "c", "size_bytes": 1},
        {"constraint": "+m", "expr_text": "*q", "size_bytes": 8},
    ],
    "inputs": [],
    "clobbers": ["cc", "memory"],
}


def operand_tuples(word_index):
    """The pinned grid's operand tuples for one word: none, each kind
    alone, each kind first and last in a pair, and five triples."""
    off = word_index % (K - 1)
    yield ()
    for i in range(K):
        yield (KINDS[i],)
    for i in range(K):
        yield (KINDS[i], KINDS[(i + 1 + off) % K])
    for i in range(0, K, 4):
        yield (KINDS[i], KINDS[(i + 3) % K], KINDS[(i + 7) % K])


def full_operand_tuples(word):
    yield ()
    for a in KINDS:
        yield (a,)
    for a in KINDS:
        for b in KINDS:
            yield (a, b)
    if word.startswith("imul"):
        for a in KINDS:
            for b in KINDS:
                for c in KINDS:
                    yield (a, b, c)


def grid(full=False):
    for i, word in enumerate(WORDS):
        for ops in full_operand_tuples(word) if full else operand_tuples(i):
            yield f"1: {word} {', '.join(ops)}".rstrip()


def lifted_line(template, chunk, fi):
    """The template's IR and labels, or its error's class and message."""
    clear_nodes()
    try:
        prog = lift(parse_template(template, chunk), fi)
    except Exception as e:  # noqa: BLE001 - the class is part of the line
        return f"{template} => {type(e).__name__}: {e}"
    body = "; ".join(format_instr(ins) for ins in prog.instrs)
    labels = ",".join(f"{k}={v}" for k, v in sorted(prog.labels.items()))
    return f"{template} => {body} [{labels}]"


def grid_lines(full=False):
    (chunk,) = load_chunk_records([INTERFACE])
    fi = derive_interface(chunk)
    for template in grid(full):
        yield lifted_line(template, chunk, fi)


def grid_digest(full=False):
    h = hashlib.sha256()
    n = 0
    for line in grid_lines(full):
        h.update(line.encode() + b"\n")
        n += 1
    return n, h.hexdigest()


GRID_SIZE = 14640
GRID_SHA256 = "a503f4701d95cfcff877f59de5036cfa6ed9bf83e1704e03124cfacee325c6fb"


def test_grid_takes_every_row_with_each_suffix():
    for mnemonic, row in INSTRUCTIONS.items():
        for suffix in row.suffixes:
            assert mnemonic + suffix in WORDS, (mnemonic, suffix)


def test_pinned_grid_lifts_as_pinned():
    assert grid_digest() == (GRID_SIZE, GRID_SHA256)


if __name__ == "__main__":
    full = "--pinned" not in sys.argv[1:]
    if "--lines" in sys.argv[1:]:
        for line in grid_lines(full):
            print(line)
        sys.exit()
    size, digest = grid_digest(full)
    print(f"{'full' if full else 'pinned'} grid: {size} templates, sha256 {digest}")
