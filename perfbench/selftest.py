#!/usr/bin/env python3
"""Self-test of the benchmark at tiny size.

Usage (from the repository root): python3 perfbench/selftest.py

Generates a few-statement C file, runs the label check and the metric
extraction on it, and asserts that a deliberately wrong label shows up
in ``failed_ratio``. Also checks that BENCHMARK.json names exactly the
metrics the benchmark prints. Exits 1 on the first failed assertion.
"""

from __future__ import annotations

import copy
import json
import shutil
import sys

import run
import tracing
from workloads import CfileCheck, CfileFix, OracleCorpus

WORK = run.ROOT / ".bench_selftest"


def expect(cond, what):
    if not cond:
        raise SystemExit(f"selftest: FAIL {what}")
    print(f"selftest: ok   {what}")


def main():
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    try:
        tiny = CfileCheck(run.ROOT, WORK, seed=3, statements=6)
        invocations = tiny.start_pass()
        outcomes = [run.run_child(inv.argv) for inv in invocations]
        check = tiny.check_pass(invocations, outcomes)
        expect((check.attempted, check.failed) == (6, 0), "6 statements match their labels")

        line = min(tiny.manifest)
        wrong = tiny.manifest[line]
        tiny.labels = copy.deepcopy(tiny.labels)
        label = tiny.labels[wrong]
        label["verdict"] = "issues" if label["verdict"] == "compliant" else "compliant"
        copies = sum(cid == wrong for cid in tiny.manifest.values())
        check = tiny.check_pass(invocations, outcomes)
        expect(check.failed == copies, f"a wrong label on {wrong} fails its {copies} statement(s)")

        result = run.untraced(tiny, WORK, seconds=0)
        passes = len(result.passes)
        expect(not result.problems and passes == run.MIN_PASSES, "set-up runs exit 0")
        expect(all(result.metrics[name] > 0 for name, _ in run.END_TO_END),
               "end-to-end metrics are positive")
        failed_ratio = result.row["failed_ratio"]
        expect(failed_ratio == f"{copies * passes}/{6 * passes}",
               f"failed_ratio {failed_ratio} reports the wrong label")

        fix = CfileFix(run.ROOT, WORK, seed=3, statements=6)
        _, check = run.run_pass(fix, run.run_child)
        expect((check.attempted, check.failed) == (12, 0), "patch and refine reports match")

        oracle = OracleCorpus(run.ROOT, WORK, seed=0, trials=2)
        _, check = run.run_pass(oracle, run.run_child)
        expect(check.failed == 0 and check.verdicts == 3 * oracle.statements,
               "oracle reports one verdict per chunk and property")

        result = run.traced(CfileCheck(run.ROOT, WORK, seed=3, statements=6), 0, seed=3)
        expect(result.metrics["checker.check.calls"] == 6,
               "traced run counts one check per statement")

        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        expect([(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END),
               "BENCHMARK.json end_to_end matches the printed metrics")
        expect([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
               == list(tracing.LAYER_METRICS),
               "BENCHMARK.json per_layer matches the traced metrics")
        expect([w["name"] for w in spec["workloads"]] == list(run.WORKLOADS),
               "BENCHMARK.json workloads match the benchmark's")
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
