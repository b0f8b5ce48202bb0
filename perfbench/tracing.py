"""Per-layer tracing of in-process ``ric`` runs.

Wrappers are installed around the module-level names each caller looks
up at call time (``ric.cli.check_chunk``, ``ric.patcher.check_chunk``,
...), so nothing under ``src/`` changes. Each wrapped call records a
span (name, start, end, parent, run id) and the counts a layer's ratios
need, in memory; the spans are written out when the benchmark ends.

A layer's self time is its spans' duration minus the time their direct
child spans cover. Time inside ``cli.run`` that no layer span covers is
reported as ``trace.uncovered_s``, so the layer self times plus it add
up to the traced wall.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from collections import Counter, defaultdict


class Tracer:
    """Spans and counts of one traced pass."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []  # [name, start, end, parent index or -1, run id]
        self.counts = Counter()
        self._stack = []
        self._installed = []

    def _wrap(self, name, fn, after=None, on_error=None):
        spans, stack, run_id = self.spans, self._stack, self.run_id

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, run_id]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as e:
                span[2] = time.perf_counter()
                stack.pop()
                if on_error:
                    on_error(self.counts, e)
                raise
            span[2] = time.perf_counter()
            stack.pop()
            if after:
                after(self.counts, result, args)
            return result

        return traced

    def install(self, owner, attr, name, after=None, on_error=None):
        """Replace owner.attr by a traced wrapper. A name the program no
        longer has is reported and skipped; its metrics then read 0."""
        original = owner.__dict__.get(attr)
        if original is None:
            print(f"perfbench: trace: {owner.__name__}.{attr} not found", file=sys.stderr)
            return
        self._installed.append((owner, attr, original))
        setattr(owner, attr, self._wrap(name, original, after, on_error))

    def uninstall(self):
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def self_times(self):
        covered = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        own = defaultdict(float)
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            own[name] += end - start - covered[idx]
        return own

    def durations_ms(self, name):
        return [(end - start) * 1000 for n, start, end, _, _ in self.spans if n == name]


def install_layers(tracer):
    """Wrap every layer boundary of the ric package."""
    from ric import checker, chunks, cli, constraints, oracle, patcher, refiner, report
    from ric.errors import OutOfSandbox, StepLimit

    def scanned(counts, result, args):
        counts["chunks.scan.bytes"] += len(args[0].encode("utf-8"))

    def enumerated(counts, result, args):
        counts["constraints.enumerate.truncated"] += bool(result.truncated)

    def checked(counts, result, args):
        counts["checker.check.errors"] += result.verdict == "error"

    def rechecked(counts, result, args):
        checked(counts, result, args)
        counts["refiner.rechecks"] += 1
        counts["refiner.accepted"] += result.verdict == "compliant"

    def verified(counts, result, args):
        counts["patcher.verified"] += bool(
            result["framing_ok"] and result["interface_satisfiable"]
        )

    def bind_failed(counts, error):
        counts["oracle.bind.fail"] += 1

    def exec_failed(counts, error):
        if isinstance(error, StepLimit):
            counts["oracle.exec.step_limit"] += 1
        elif isinstance(error, OutOfSandbox):
            counts["oracle.exec.out_of_sandbox"] += 1

    t = tracer
    t.install(cli, "run", "cli.run")
    t.install(cli, "_collect", "cli.collect")
    t.install(cli, "_emit", "cli.emit")
    t.install(cli, "load_chunk_file", "chunks.load")
    t.install(chunks, "scan_c_source", "chunks.scan", after=scanned)
    t.install(chunks, "parse_asm_statement", "chunks.parse")
    for module in (checker, patcher, constraints):
        t.install(module, "derive_interface", "constraints.derive")
    for module in (oracle, patcher):
        t.install(module, "enumerate_assignments", "constraints.enumerate", after=enumerated)
    for module in (checker, oracle, report):
        t.install(module, "parse_template", "template.parse")
    for module in (checker, oracle):
        t.install(module, "lift", "lift.lift")
    t.install(oracle, "substitute", "lift.substitute")
    t.install(cli, "check_chunk", "checker.check", after=checked)
    t.install(patcher, "check_chunk", "checker.check", after=checked)
    t.install(refiner, "check_chunk", "checker.check", after=rechecked)
    for module in (checker, refiner):
        t.install(module, "build_anchors", "checker.anchors")
    t.install(checker.ForwardPass, "run", "checker.forward")
    t.install(checker, "analyze_frame_write", "checker.frame_write")
    t.install(checker, "analyze_frame_read", "checker.frame_read")
    t.install(checker, "analyze_unicity", "checker.unicity")
    t.install(patcher, "synthesize_patches", "patcher.synthesize")
    t.install(patcher, "verify_patch", "patcher.verify", after=verified)
    t.install(patcher, "render_diff", "patcher.diff")
    t.install(refiner, "refine_interface", "refiner.refine")
    t.install(cli, "oracle_check", "oracle.check")
    t.install(oracle.OracleRun, "__init__", "oracle.run_init")
    t.install(oracle.OracleRun, "bind", "oracle.bind", on_error=bind_failed)
    t.install(oracle, "random_state", "oracle.random_state")
    t.install(oracle, "exec_program", "oracle.exec", on_error=exec_failed)
    t.install(cli, "chunk_report", "report.chunk")
    t.install(cli, "build_report", "report.build")


# (name, unit, better) of every per-layer metric, in report order.
LAYER_METRICS = (
    ("chunks.scan.self_s", "s", "lower"),
    ("chunks.scan.mb_per_s", "MB/s", "higher"),
    ("chunks.parse.self_s", "s", "lower"),
    ("chunks.parse.calls", "count", "lower"),
    ("chunks.load.self_s", "s", "lower"),
    ("constraints.derive.self_s", "s", "lower"),
    ("constraints.derive.calls", "count", "lower"),
    ("constraints.enumerate.self_s", "s", "lower"),
    ("constraints.enumerate.calls", "count", "lower"),
    ("constraints.enumerate.truncated", "count", "lower"),
    ("template.parse.self_s", "s", "lower"),
    ("template.parse.calls", "count", "lower"),
    ("lift.lift.self_s", "s", "lower"),
    ("lift.lift.calls", "count", "lower"),
    ("lift.substitute.self_s", "s", "lower"),
    ("lift.substitute.calls", "count", "lower"),
    ("checker.check.calls", "count", "lower"),
    ("checker.check.self_s", "s", "lower"),
    ("checker.check.ms_p50", "ms", "lower"),
    ("checker.check.ms_p99", "ms", "lower"),
    ("checker.check.errors", "count", "lower"),
    ("checker.anchors.self_s", "s", "lower"),
    ("checker.forward.self_s", "s", "lower"),
    ("checker.frame_write.self_s", "s", "lower"),
    ("checker.frame_read.self_s", "s", "lower"),
    ("checker.unicity.self_s", "s", "lower"),
    ("patcher.synthesize.self_s", "s", "lower"),
    ("patcher.verify.self_s", "s", "lower"),
    ("patcher.diff.self_s", "s", "lower"),
    ("patcher.diff.calls", "count", "lower"),
    ("patcher.verified_ratio", "ratio", "higher"),
    ("refiner.refine.self_s", "s", "lower"),
    ("refiner.rechecks", "count", "lower"),
    ("refiner.accept_ratio", "ratio", "higher"),
    ("oracle.check.self_s", "s", "lower"),
    ("oracle.check.ms_p50", "ms", "lower"),
    ("oracle.check.ms_p90", "ms", "lower"),
    ("oracle.run_init.self_s", "s", "lower"),
    ("oracle.bind.self_s", "s", "lower"),
    ("oracle.bind.fail", "count", "lower"),
    ("oracle.random_state.self_s", "s", "lower"),
    ("oracle.random_state.calls", "count", "lower"),
    ("oracle.exec.self_s", "s", "lower"),
    ("oracle.exec.calls", "count", "lower"),
    ("oracle.exec.step_limit", "count", "lower"),
    ("oracle.exec.out_of_sandbox", "count", "lower"),
    ("oracle.conclusive_ratio", "ratio", "higher"),
    ("oracle.confirmed_ratio", "ratio", "higher"),
    ("report.chunk.self_s", "s", "lower"),
    ("report.build.self_s", "s", "lower"),
    ("cli.collect.self_s", "s", "lower"),
    ("cli.emit.self_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.uncovered_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


def _quantile(values, q):
    """q-th percentile (1..99) by statistics.quantiles; 0 without data."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100)[q - 1]


def _ratio(count, base):
    return count / base if base else 0.0


def pass_metrics(tracer):
    """Per-layer metrics of one traced pass, except the ones that need
    the untraced runs or the report (trace.overhead_s and the oracle
    evidence ratios)."""
    own = tracer.self_times()
    calls = Counter(span[0] for span in tracer.spans)
    counts = tracer.counts
    m = {}
    for name, _, _ in LAYER_METRICS:
        layer, _, stat = name.rpartition(".")
        if stat == "self_s":
            m[name] = own.get(layer, 0.0)
        elif stat == "calls":
            m[name] = calls.get(layer, 0)
    m["chunks.scan.mb_per_s"] = _ratio(counts["chunks.scan.bytes"] / 1e6, own.get("chunks.scan", 0))
    m["constraints.enumerate.truncated"] = counts["constraints.enumerate.truncated"]
    check_ms = tracer.durations_ms("checker.check")
    m["checker.check.ms_p50"] = _quantile(check_ms, 50)
    m["checker.check.ms_p99"] = _quantile(check_ms, 99)
    m["checker.check.errors"] = counts["checker.check.errors"]
    m["patcher.verified_ratio"] = _ratio(counts["patcher.verified"], calls["patcher.verify"])
    m["refiner.rechecks"] = counts["refiner.rechecks"]
    m["refiner.accept_ratio"] = _ratio(counts["refiner.accepted"], counts["refiner.rechecks"])
    oracle_ms = tracer.durations_ms("oracle.check")
    m["oracle.check.ms_p50"] = _quantile(oracle_ms, 50)
    m["oracle.check.ms_p90"] = _quantile(oracle_ms, 90)
    m["oracle.bind.fail"] = counts["oracle.bind.fail"]
    m["oracle.exec.step_limit"] = counts["oracle.exec.step_limit"]
    m["oracle.exec.out_of_sandbox"] = counts["oracle.exec.out_of_sandbox"]
    m["trace.uncovered_s"] = own.get("cli.run", 0.0)
    return m
