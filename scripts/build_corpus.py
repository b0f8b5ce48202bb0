#!/usr/bin/env python3
"""Regenerate the bundled corpus and its labels.

Every record carries a hand-written expectation (verdict plus the exact
multiset of findings with severity and pattern tag). The script checks
each chunk before writing, so the corpus and labels can never drift from
the analyzer silently: a mismatch aborts with a diff of expectations.

Usage: python3 scripts/build_corpus.py [--show]
  --show  print actual findings for mismatching chunks instead of aborting
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ric.checker import check_chunk
from ric.chunks import load_chunk_records
from ric.report import classify_pattern, severity_policy

RECORDS = []
LABELS = {}


def _entry(spec):
    constraint, expr = spec[0], spec[1]
    size = spec[2] if len(spec) > 2 else 4
    out = {"constraint": constraint, "expr_text": expr, "size_bytes": size}
    if len(spec) > 3 and spec[3]:
        out["name"] = spec[3]
    return out


def add(cid, template, outputs=(), inputs=(), clobbers=(), scf=None,
        verdict="compliant", issues=(), tags=()):
    context = {"file": cid, "line": 1}
    if scf is not None:
        context["single_chunk_function"] = scf
    RECORDS.append(
        {
            "arch": "i386",
            "template": template,
            "outputs": [_entry(o) for o in outputs],
            "inputs": [_entry(i) for i in inputs],
            "clobbers": list(clobbers),
            "context": context,
        }
    )
    LABELS[cid] = {
        "verdict": verdict,
        "issues": [
            {"category": c, "severity": s, "pattern": p} for c, s, p in issues
        ],
        "tags": list(tags),
    }


# ---------------------------------------------------------------------------
# Motivating example: 8-byte compare-and-swap with a PIC-safe ebx shuffle.

add(
    "paper/cas8_x86.c",
    "xchg %%ebx, %%edi\nlock; cmpxchg8b %0\nsetz %%al\nxchg %%ebx, %%edi",
    outputs=[("=m", "*addr", 8), ("=a", "result", 1)],
    inputs=[
        ("m", "*addr", 8),
        ("d", "old_val2"),
        ("a", "old_val1"),
        ("c", "new_val2"),
        ("D", "new_val1"),
    ],
    clobbers=["memory"],
    verdict="issues",
    issues=[
        ("FlagClobbered", "benign", "P1"),
        ("ReadOnlyInputClobbered", "serious", None),
        ("Unicity", "serious", "P2"),
    ],
    tags=["motivating"],
)

# ---------------------------------------------------------------------------
# Compliant chunks.

add("ok/nop.c", "nop")
add("ok/empty_cc.c", "", clobbers=["cc"])
add("ok/mov.c", "movl %1, %0", [("=r", "y")], [("r", "x")])
add("ok/inc.c", "incl %0", [("+r", "x")], clobbers=["cc"])
add("ok/add_match.c", "addl %2, %0", [("=r", "s")], [("0", "a"), ("r", "b")],
    clobbers=["cc"])
add("ok/xchg_fixed.c", "xchgl %%eax, %%ecx", [("+a", "x"), ("+c", "y")])
add("ok/load_anchored.c", "movl (%1), %0", [("=r", "v")],
    [("r", "p"), ("m", "*(p)")])
add("ok/store_anchored.c", "movl %1, (%2)", [("=m", "*(p)")],
    [("r", "v"), ("r", "p")])
add("ok/lea.c", "leal (%1,%2,4), %0", [("=r", "addr")], [("r", "b"), ("r", "i")])
add("ok/bswap.c", "bswap %0", [("+r", "x")])
add("ok/movzbl.c", "movzbl %b1, %0", [("=r", "wide")], [("q", "narrow", 1)])
add("ok/imul.c", "imull %1, %0", [("+r", "x")], [("r", "y")], clobbers=["cc"])
add("ok/shl.c", "shll $2, %0", [("+r", "x")], clobbers=["cc"])
add("ok/ror.c", "rorl $8, %0", [("+r", "x")], clobbers=["cc"])
add("ok/xor_self.c", "xorl %0, %0", [("+r", "z")], clobbers=["cc"])
add("ok/neg.c", "negl %0", [("+r", "x")], clobbers=["cc"])
add("ok/cmov.c", "testl %1, %1\ncmovz %2, %0", [("+r", "x")],
    [("r", "cond"), ("r", "alt")], clobbers=["cc"])
add("ok/count_loop.c", "movl $4, %0\n1: decl %0\njnz 1b", [("=r", "n")],
    clobbers=["cc"])
add("ok/mul.c", "mull %3", [("=a", "lo"), ("=d", "hi")],
    [("0", "x"), ("r", "y")], clobbers=["cc"])
add("ok/cmpxchg.c", "lock; cmpxchgl %3, %0",
    [("+m", "*(p)"), ("=a", "prev")], [("a", "old"), ("r", "new")],
    clobbers=["cc"])
add("ok/adc_chain.c", "addl %2, %0\nadcl %3, %1",
    [("+a", "lo"), ("+d", "hi")], [("c", "alo"), ("S", "ahi")],
    clobbers=["cc"])
add("ok/sbb_chain.c", "subl %2, %0\nsbbl %3, %1",
    [("+a", "lo"), ("+d", "hi")], [("c", "blo"), ("S", "bhi")],
    clobbers=["cc"])
add("ok/not.c", "notl %0", [("+r", "x")])
add("ok/sar.c", "sarl $1, %0", [("+r", "x")], clobbers=["cc"])
add("ok/push_pop_move.c", "pushl %1\npopl %0", [("=r", "y")], [("r", "x")])
add("ok/mov16.c", "movw %w1, %w0", [("=r", "y", 2)], [("r", "x", 2)])
add("ok/mov8.c", "movb %b1, %b0", [("=q", "y", 1)], [("q", "x", 1)])
add("ok/mmx_clobbered.c", "pxor %%mm1, %%mm1", clobbers=["mm1"])
add("ok/xmm_clobbered.c", "pxor %%xmm2, %%xmm2", clobbers=["xmm2"])
add("ok/mmx_roundtrip.c", "movd %1, %%mm0\nmovd %%mm0, %0",
    [("=r", "y")], [("r", "x")], clobbers=["mm0"])
add("ok/store_memory.c", "movl %0, (%1)", [], [("r", "v"), ("r", "p")],
    clobbers=["memory"])
add("ok/load_memory.c", "movl (%1), %0", [("=r", "v")], [("r", "p")],
    clobbers=["memory"], tags=["refine-memory-load-single"])

# ---------------------------------------------------------------------------
# One faulty chunk per finding category.

add("bad/flags.c", "addl %1, %0", [("+r", "x")], [("r", "y")],
    verdict="issues", issues=[("FlagClobbered", "benign", "P1")],
    tags=["pattern-P1"])
add("bad/input_clobbered.c", "incl %0", [], [("r", "x")], clobbers=["cc"],
    verdict="issues",
    issues=[("ReadOnlyInputClobbered", "serious", None)])
add("bad/reg_clobbered.c", "movl %0, %%ecx", [], [("r", "v")],
    verdict="issues",
    issues=[("UnboundRegisterClobbered", "serious", None)])
add("bad/mem_write.c", "movl %0, (%1)", [], [("r", "v"), ("r", "p")],
    verdict="issues",
    issues=[("UnboundMemoryWrite", "serious", None)])
add("bad/mem_read.c", "movl (%1), %0", [("=r", "v")], [("r", "p")],
    verdict="issues",
    issues=[("UnboundMemoryRead", "serious", None)])
add("bad/never_written.c", "nop", [("=r", "x")],
    verdict="issues",
    issues=[
        ("NonWrittenWriteOnlyOutput", "serious", None),
        ("UnboundRegisterRead", "serious", None),
    ])
add("bad/reg_read.c", "movl %%edx, %0", [("=r", "x")],
    verdict="issues",
    issues=[("UnboundRegisterRead", "serious", None)])
add("bad/unicity.c", "movl $5, %0\naddl %1, %0", [("=r", "x")], [("r", "y")],
    clobbers=["cc"],
    verdict="issues",
    issues=[("Unicity", "serious", None)])

# ---------------------------------------------------------------------------
# Recurrent-error pattern exemplars (P1 is bad/flags.c above).

add("pat/p2_ebx.c", "xorl %%ebx, %%ebx", clobbers=["cc"],
    verdict="issues",
    issues=[("UnboundRegisterClobbered", "serious", "P2")],
    tags=["pattern-P2"])
add("pat/p3_push.c", "pushl %0", [], [("r", "v")],
    verdict="issues",
    issues=[
        ("UnboundMemoryWrite", "serious", None),
        ("UnboundRegisterClobbered", "serious", "P3"),
    ],
    tags=["pattern-P3"])
add("pat/p4_private_mem.c", "movl %0, (%1)", [], [("r", "v"), ("r", "p")],
    scf=True,
    verdict="issues",
    issues=[("UnboundMemoryWrite", "serious", "P4")],
    tags=["pattern-P4"])
add("pat/p5_mmx.c", "pxor %%mm0, %%mm0",
    verdict="issues",
    issues=[("UnboundRegisterClobbered", "serious", "P5")],
    tags=["pattern-P5"])
add("pat/p6_xmm.c", "pxor %%xmm0, %%xmm0",
    verdict="issues",
    issues=[("UnboundRegisterClobbered", "serious", "P6")],
    tags=["pattern-P6"])

# ---------------------------------------------------------------------------
# Save/restore idioms: compliant only because expression propagation can
# prove the scratch register is restored before exit.

add("restore/xchg_ebx.c", "xchg %%ebx, %1\nmovl %%ebx, %0\nxchg %%ebx, %1",
    [("=U", "res")], [("S", "val")], tags=["restore-idiom"])
add("restore/push_pop_ebp.c",
    "pushl %%ebp\nmovl %1, %%ebp\naddl %%ebp, %0\npopl %%ebp",
    [("+q", "acc")], [("q", "x")], clobbers=["cc"], tags=["restore-idiom"])
add("restore/push_pop_edi.c",
    "pushl %%edi\nmovl %1, %%edi\nxorl %%edi, %0\npopl %%edi",
    [("+U", "acc")], [("U", "x")], clobbers=["cc"], tags=["restore-idiom"])
add("restore/push_pop_esi.c",
    "pushl %%esi\nmovl %1, %%esi\norl %%esi, %0\npopl %%esi",
    [("+U", "acc")], [("U", "x")], clobbers=["cc"], tags=["restore-idiom"])
add("restore/push_pop_two.c",
    "pushl %%ebp\npushl %%edi\nmovl %1, %%ebp\nmovl %1, %%edi\n"
    "addl %%ebp, %0\nsubl %%edi, %0\npopl %%edi\npopl %%ebp",
    [("+U", "acc")], [("U", "x")], clobbers=["cc"], tags=["restore-idiom"])

# ---------------------------------------------------------------------------
# Sub-register writes: compliant only because bit-level liveness knows
# the narrow output demands only its low bits.

add("subreg/setz.c", "cmpl %1, %2\nsetz %b0", [("=q", "eq", 1)],
    [("r", "a"), ("r", "b")], clobbers=["cc"], tags=["subregister"])
add("subreg/test_setz.c", "testl %1, %1\nsetz %b0", [("=q", "zero", 1)],
    [("r", "x")], clobbers=["cc"], tags=["subregister"])
add("subreg/test_sets.c", "testl %1, %1\nsets %b0", [("=q", "neg", 1)],
    [("r", "x")], clobbers=["cc"], tags=["subregister"])
add("subreg/movb.c", "movb %b1, %b0", [("=q", "y", 1)], [("q", "x", 1)],
    tags=["subregister"])
add("subreg/setz_and.c", "cmpl %1, %2\nsetz %b0\nandb $1, %b0",
    [("=q", "eq", 1)], [("r", "a"), ("r", "b")], clobbers=["cc"],
    tags=["subregister"])

# ---------------------------------------------------------------------------
# Refinement fixtures (all compliant; tags drive the refinement tests).

add("refine/dead_input.c", "movl %1, %0", [("=r", "y")],
    [("r", "x"), ("r", "unused")], tags=["refine-dead-input"])
add("refine/dead_clobber.c", "movl %1, %0", [("=r", "y")], [("r", "x")],
    clobbers=["edx"], tags=["refine-dead-clobber"])
add("refine/dead_cc.c", "movl %1, %0", [("=r", "y")], [("r", "x")],
    clobbers=["cc"], tags=["refine-dead-clobber"])
add("refine/mem_load.c", "movl (%1), %0\nxorl 4(%1), %0",
    [("=&r", "s")], [("r", "p")], clobbers=["cc", "memory"],
    tags=["refine-memory-load"])
add("refine/mem_store.c", "movl %0, (%1)\nmovl %0, 4(%1)", [],
    [("r", "v"), ("r", "dst")], clobbers=["memory"],
    tags=["refine-memory-store"])
add("refine/mem_inout.c", "movl (%0), %%eax\naddl $1, %%eax\nmovl %%eax, (%0)",
    [], [("r", "p")], clobbers=["eax", "memory", "cc"],
    tags=["refine-memory-inout"])
add("refine/undue_memory.c", "movl %1, %0", [("=r", "y")], [("r", "x")],
    clobbers=["memory"], tags=["refine-memory-drop"])

# ---------------------------------------------------------------------------
# Out of scope: floating-point instruction.

add("oos/fld.c", "fldl (%0)", [], [("r", "p")], clobbers=["memory"],
    verdict="out_of_scope", tags=["out-of-scope"])


# ---------------------------------------------------------------------------


def actual_findings(result):
    out = []
    for i in result.issues:
        tag = classify_pattern(i, result)
        out.append((i.category, severity_policy(i), tag.tag if tag else None))
    return sorted(out, key=lambda t: (t[0], t[1], t[2] or ""))


def main():
    show = "--show" in sys.argv[1:]
    chunks = load_chunk_records(RECORDS, file="corpus/corpus.json")
    bad = 0
    for chunk in chunks:
        cid = chunk.span.file
        label = LABELS[cid]
        result = check_chunk(chunk)
        got = actual_findings(result)
        want = sorted(
            ((i["category"], i["severity"], i["pattern"]) for i in label["issues"]),
            key=lambda t: (t[0], t[1], t[2] or ""),
        )
        if result.verdict != label["verdict"] or got != want:
            bad += 1
            print(f"MISMATCH {cid}")
            print(f"  want verdict={label['verdict']} issues={want}")
            print(f"  got  verdict={result.verdict} issues={got}")
            if result.verdict == "error":
                print(f"  details: {result.details}")
            if not show:
                sys.exit(1)
    if bad:
        sys.exit(1)

    root = Path(__file__).resolve().parent.parent / "corpus"
    root.mkdir(exist_ok=True)
    with open(root / "corpus.json", "w", encoding="utf-8") as f:
        json.dump(RECORDS, f, indent=2)
        f.write("\n")
    with open(root / "labels.json", "w", encoding="utf-8") as f:
        json.dump(LABELS, f, indent=2)
        f.write("\n")
    print(f"wrote {len(RECORDS)} chunks to {root}/corpus.json")


if __name__ == "__main__":
    main()
