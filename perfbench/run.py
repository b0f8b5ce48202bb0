#!/usr/bin/env python3
"""Benchmark of the ric command line, end to end and layer by layer.

Usage (from the repository root):

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

With ``--trace 0`` every workload runs through the real ``ric`` CLI as
child processes, one at a time, repeating whole passes for ``--seconds``
seconds (at least two), and reports the end-to-end metrics as medians
over passes. With ``--trace 1`` the same passes run in-process through
``ric.cli.run``, alternating untraced and traced, and the per-layer
metrics come from the traced ones (see tracing.py).

Every output is checked against ``corpus/labels.json``. The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit code is 1 when a
check failed and 2 when the repository's sources or corpus are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
from workloads import CORPUS, LABELS, WORKLOADS, Outcome  # noqa: E402

SETUP_RUNS = 9
MIN_PASSES = 2
TIMEOUT_S = 60
WORK = ".bench_work"
TRACES = ".bench_traces"

END_TO_END = (("setup_s", "s"), ("stmts_per_s", "1/s"), ("peak_rss_mb", "MB"))


def run_child(argv, timeout=TIMEOUT_S):
    """Run ``ric`` as a child process; wall time and peak RSS from wait4."""
    env = {k: v for k, v in os.environ.items() if k not in ("RIC_TIMINGS", "RIC_COLOR")}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
    )
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "ric.cli", *argv],
        cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
    )
    fd = os.pidfd_open(proc.pid)
    timed_out = True  # stays True if the wait is interrupted
    try:
        timed_out = not select.select([fd], [], [], timeout)[0]
    finally:
        if timed_out:
            proc.kill()
        _, status, usage = os.wait4(proc.pid, 0)
        os.close(fd)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Outcome(None if timed_out else proc.returncode, wall, usage.ru_maxrss / 1024)


class InProcess:
    """Run ``ric.cli.run`` in this process, traced when given a tracer."""

    def __init__(self, tracer=None):
        self.tracer = tracer

    def __call__(self, argv):
        from ric import cli

        if self.tracer:
            tracing.install_layers(self.tracer)
        start = time.perf_counter()
        try:
            code = cli.run(argv)
        except Exception:  # a crash is a failed invocation, not a benchmark error
            traceback.print_exc()
            code = -1
        finally:
            wall = time.perf_counter() - start
            if self.tracer:
                self.tracer.uninstall()
        return Outcome(code, wall)


def run_pass(workload, runner):
    invocations = workload.start_pass()
    outcomes = []
    for inv in invocations:
        outcomes.append(runner(inv.argv))
        if inv.after:
            inv.after()
    return outcomes, workload.check_pass(invocations, outcomes)


def until(seconds, step):
    """Call step() until `seconds` have passed, at least MIN_PASSES times."""
    results = []
    deadline = time.perf_counter() + seconds
    while len(results) < MIN_PASSES or time.perf_counter() < deadline:
        results.append(step())
    return results


class Setup:
    """Timed ``ric check`` runs on an empty C file: interpreter start plus
    ``import ric``. An untimed first run fills the bytecode cache."""

    def __init__(self, work):
        empty = work / "empty.c"
        empty.write_text("", encoding="utf-8")
        self.argv = ["check", "--out", str(work / "empty.json"), str(empty)]
        self.outcomes = []
        run_child(self.argv)

    def sample(self):
        self.outcomes.append(run_child(self.argv))

    def result(self):
        problems = [f"setup: exit {o.exit_code}, want 0" for o in self.outcomes if o.exit_code != 0]
        return statistics.median(o.wall_s for o in self.outcomes), problems


@dataclass
class Result:
    """One workload's metrics (name -> value), their units, every pass as
    (outcomes, check), set-up problems, and the extra cells of its row."""

    metrics: dict
    units: dict
    passes: list
    problems: list
    row: dict


def _ratio_text(ratios, name):
    if name not in ratios:
        return "-"
    count, base = ratios[name]
    return f"{count}/{base}"


def untraced(workload, work, seconds):
    setup = Setup(work)

    def step():
        # set-up samples spread over the run see the machine as the passes do
        setup.sample()
        return run_pass(workload, run_child)

    passes = until(seconds, step)
    while len(setup.outcomes) < SETUP_RUNS:
        setup.sample()
    setup_s, problems = setup.result()
    walls = [sum(o.wall_s for o in outcomes) for outcomes, _ in passes]
    metrics = {
        "setup_s": setup_s,
        "stmts_per_s": statistics.median(workload.statements / w for w in walls),
        "peak_rss_mb": statistics.median(max(o.peak_rss_mb for o in outs) for outs, _ in passes),
    }
    last = passes[-1][1]
    checks_per_s = statistics.median(last.verdicts / w for w in walls)
    row = {
        "oracle_checks_per_s": f"{checks_per_s:.1f} 1/s" if last.verdicts else "-",
        "failed_ratio": "{}/{}".format(
            sum(c.failed for _, c in passes), sum(c.attempted for _, c in passes)
        ),
        "oracle_conclusive_ratio": _ratio_text(last.ratios, "conclusive"),
        "oracle_confirmed_ratio": _ratio_text(last.ratios, "confirmed"),
    }
    return Result(metrics, dict(END_TO_END), passes, problems, row)


def traced(workload, seconds, seed):
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    from ric import cli

    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"perfbench: imported ric from {cli.__file__}, not from src/")
    plain, marked = [], []

    def step():
        plain.append(run_pass(workload, InProcess()))
        tracer = tracing.Tracer(run_id=len(marked))
        marked.append((run_pass(workload, InProcess(tracer)), tracer))

    until(seconds, step)
    per_pass = []
    for (outcomes, check), tracer in marked:
        m = tracing.pass_metrics(tracer)
        m["trace.wall_s"] = sum(o.wall_s for o in outcomes)
        for name in ("conclusive", "confirmed"):
            count, base = check.ratios.get(name, (0, 0))
            m[f"oracle.{name}_ratio"] = count / base if base else 0.0
        per_pass.append(m)
    untraced_wall = statistics.median(sum(o.wall_s for o in outs) for outs, _ in plain)
    metrics = {
        name: statistics.median(m[name] for m in per_pass)
        for name, _, _ in tracing.LAYER_METRICS
        if name != "trace.overhead_s"
    }
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - untraced_wall
    out = ROOT / TRACES / f"{workload.name}-seed{seed}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(
        json.dumps({
            "workload": workload.name,
            "seed": seed,
            "fields": ["name", "start", "end", "parent", "run"],
            "spans": [s for _, t in marked for s in t.spans],
            "counts": [dict(t.counts) for _, t in marked],
        }),
        encoding="utf-8",
    )
    units = {name: unit for name, unit, _ in tracing.LAYER_METRICS}
    return Result(metrics, units, plain + [p for p, _ in marked], [], {"traced": len(marked)})


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    missing = [p for p in (Path("src/ric/cli.py"), CORPUS, LABELS) if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: missing {', '.join(map(str, missing))} under {ROOT}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    work = ROOT / WORK
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    print(f"machine: python {platform.python_version()}, nproc {os.cpu_count()}")
    results = []
    try:
        for name in names:
            workload = WORKLOADS[name](ROOT, work, args.seed)
            print(f"inputs {name}: {json.dumps(workload.properties(), sort_keys=True)}")
            if args.trace:
                result = traced(workload, args.seconds, args.seed)
            else:
                result = untraced(workload, work, args.seconds)
            results.append((name, result))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = failed = 0
    problems = []
    for name, r in results:
        attempted += sum(c.attempted for _, c in r.passes)
        failed += sum(c.failed for _, c in r.passes)
        problems += [f"{name}: {p}" for p in r.problems]
        problems += [f"{name}: {p}" for _, c in r.passes for p in c.problems]
        cells = [f"{k}={v:.6g} {r.units[k]}" for k, v in r.metrics.items()]
        cells += [f"{k}={v}" for k, v in r.row.items()]
        print(f"{name:14s} passes={len(r.passes)} " + "  ".join(cells))
    for p in problems[:50]:
        print(f"perfbench: FAIL {p}", file=sys.stderr)
    correct = failed == 0 and not problems
    prefix = len(results) > 1
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            (f"{name}.{k}" if prefix else k): {"value": v, "unit": r.units[k]}
            for name, r in results
            for k, v in r.metrics.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
