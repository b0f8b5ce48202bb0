"""Acceptance gate: the ten end-to-end criteria the package must meet.

Each test prints a single PASS/FAIL line (bypassing capture so the lines
always appear in the run log) and then asserts."""

import json
import sys
import time

from ric.checker import CheckOptions, check_chunk
from ric.cli import run
from ric.constraints import RegisterSet, derive_interface, eval_letter
from ric.expr import Reg
from ric.edits import (
    AddClobber,
    AddOutput,
    DropClobber,
    DropInput,
    MemoryToEntries,
)
from ric.patcher import synthesize_patches, verify_patch
from ric.refiner import refine_interface
from ric.report import classify_pattern, severity_policy

from conftest import chunks_with_tag


def conclude(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    tail = f" ({detail})" if detail else ""
    print(f"criterion {number:2d} [{name}]: {status}{tail}", file=sys.__stdout__)
    assert ok, f"criterion {number} ({name}) failed {tail}"


def test_criterion_01_motivating_example(corpus_by_id):
    c = corpus_by_id["paper/cas8_x86.c"]
    t0 = time.perf_counter()
    result = check_chunk(c)
    elapsed = time.perf_counter() - t0
    serious = [i for i in result.issues if severity_policy(i) == "serious"]
    cats = sorted(i.category for i in serious)
    roc = [i for i in serious if i.category == "ReadOnlyInputClobbered"]
    uni = [i for i in serious if i.category == "Unicity"]
    ok = (
        cats == ["ReadOnlyInputClobbered", "Unicity"]
        and isinstance(roc[0].location, Reg)
        and roc[0].location.name == "edx"
        and "ebx" in f"{uni[0].location} {uni[0].details}"
        and "%0" in uni[0].details
        and not any(
            getattr(i.location, "name", None) in ("ebx", "esi", "edi")
            for i in serious
            if i.category in ("ReadOnlyInputClobbered", "UnboundRegisterClobbered")
        )
        and elapsed < 1.0
    )
    conclude(1, "motivating example", ok, f"{elapsed * 1000:.0f} ms")


def test_criterion_02_interface_fidelity(corpus_by_id):
    fi = derive_interface(corpus_by_id["paper/cas8_x86.c"])
    fixed = {p: fi.fixed[p] for p in (1, 3, 5, 6) if p in fi.fixed}
    ok = (
        fi.b_o == frozenset({0, 1})
        and fi.b_i == frozenset({2, 3, 5, 6})
        and fi.canonical(4) == 1
        and fi.s_c == frozenset()
        and fi.f is False
        and fixed == {1: "eax", 3: "edx", 5: "ecx", 6: "edi"}
    )
    conclude(2, "formal interface fidelity", ok)


def test_criterion_03_patch_round_trip(corpus_by_id):
    c = corpus_by_id["paper/cas8_x86.c"]
    result = check_chunk(c)
    pr = synthesize_patches(result, result.issues)
    dummy = [e for e in pr.edits if isinstance(e, AddOutput)]
    v = verify_patch(pr)
    ok = (
        len(dummy) == 1
        and dummy[0].constraint == "=d"
        and dummy[0].matched_input is not None
        and AddClobber("ebx") in pr.edits
        and pr.unresolved == []
        and v["framing_ok"] is True
        and v["fully_compliant"] is True
    )
    conclude(3, "patch round trip", ok)


def test_criterion_04_constraint_table():
    table = {
        "a": {"eax"},
        "b": {"ebx"},
        "c": {"ecx"},
        "d": {"edx"},
        "S": {"esi"},
        "D": {"edi"},
        "U": {"eax", "ecx", "edx"},
        "q": {"eax", "ebx", "ecx", "edx"},
        "Q": {"eax", "ebx", "ecx", "edx"},
        "r": {"eax", "ebx", "ecx", "edx", "esi", "edi", "ebp"},
        "R": {"eax", "ebx", "ecx", "edx", "esi", "edi", "ebp"},
    }
    ok = all(
        isinstance(eval_letter(l), RegisterSet)
        and set(eval_letter(l).registers) == regs
        for l, regs in table.items()
    )
    conclude(4, "constraint table", ok)


def test_criterion_05_checker_oracle_soundness(corpus_chunks, compliant_corpus_oracle):
    unsound = [
        key for key, v in compliant_corpus_oracle.verdicts.items() if v.verdict == "violation"
    ]
    elapsed = compliant_corpus_oracle.elapsed_s  # the oracle work alone
    ok = len(corpus_chunks) >= 60 and not unsound and elapsed < 60.0
    conclude(
        5,
        "checker-oracle soundness",
        ok,
        f"{len(corpus_chunks)} chunks, {elapsed:.1f} s, {len(unsound)} unsound",
    )


def test_criterion_06_ablation(corpus_by_id, corpus_labels):
    restore = chunks_with_tag(corpus_by_id, corpus_labels, "restore-idiom")
    subreg = chunks_with_tag(corpus_by_id, corpus_labels, "subregister")
    write_cats = {"ReadOnlyInputClobbered", "UnboundRegisterClobbered"}
    read_cats = {"UnboundRegisterRead", "UnboundMemoryRead"}
    ok = len(restore) >= 5 and len(subreg) >= 5
    for c in restore:
        coarse = check_chunk(c, CheckOptions(expression_propagation=False))
        ok = (
            ok
            and check_chunk(c).verdict == "compliant"
            and any(i.category in write_cats for i in coarse.issues)
        )
    for c in subreg:
        coarse = check_chunk(c, CheckOptions(bit_liveness=False))
        ok = (
            ok
            and check_chunk(c).verdict == "compliant"
            and any(i.category in read_cats for i in coarse.issues)
        )
    conclude(6, "precision ablation", ok, f"{len(restore)}+{len(subreg)} chunks")


def test_criterion_07_refinement(corpus_by_id):
    rr = refine_interface(check_chunk(corpus_by_id["refine/mem_load.c"]))
    mem_ok = (
        any(isinstance(e, MemoryToEntries) for e in rr.edits)
        and "memory" not in rr.refined.clobbers
        and check_chunk(rr.refined).verdict == "compliant"
    )
    di = refine_interface(check_chunk(corpus_by_id["refine/dead_input.c"]))
    dc = refine_interface(check_chunk(corpus_by_id["refine/dead_clobber.c"]))
    drops_ok = (
        len(di.edits) == 1
        and isinstance(di.edits[0], DropInput)
        and len(dc.edits) == 1
        and isinstance(dc.edits[0], DropClobber)
    )
    conclude(7, "interface refinement", mem_ok and drops_ok)


def test_criterion_08_throughput(corpus_chunks):
    t0 = time.perf_counter()
    for c in corpus_chunks:
        check_chunk(c)
    mean_ms = (time.perf_counter() - t0) / len(corpus_chunks) * 1000
    conclude(8, "throughput", mean_ms <= 100.0, f"{mean_ms:.1f} ms/chunk mean")


def test_criterion_09_taxonomy_and_severity(corpus_chunks, corpus_labels):
    cats, pats = set(), set()
    ok = True
    for c in corpus_chunks:
        label = corpus_labels[c.span.file]
        result = check_chunk(c)
        got = sorted(
            (
                i.category,
                severity_policy(i),
                (classify_pattern(i, result) or None) and classify_pattern(i, result).tag,
            )
            for i in result.issues
        )
        want = sorted(
            (i["category"], i["severity"], i["pattern"]) for i in label["issues"]
        )
        ok = ok and result.verdict == label["verdict"] and got == want
        for i in label["issues"]:
            cats.add(i["category"])
            if i["pattern"]:
                pats.add(i["pattern"])
    ok = ok and len(cats) == 8 and pats == {"P1", "P2", "P3", "P4", "P5", "P6"}
    conclude(9, "taxonomy and severity", ok, f"{len(cats)} categories, {len(pats)} patterns")


def test_criterion_10_determinism(tmp_path, monkeypatch):
    monkeypatch.delenv("RIC_TIMINGS", raising=False)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["check", "--chunks", "corpus/corpus.json"]
    run(args + ["--out", str(a)])
    run(args + ["--out", str(b)])
    same = a.read_bytes() == b.read_bytes()
    ok = same and json.loads(a.read_text())["schema"] == 1
    conclude(10, "deterministic reports", ok)
