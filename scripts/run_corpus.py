#!/usr/bin/env python3
"""Check every corpus chunk, compare against labels, and (optionally) run
the differential oracle over the compliant ones, on every CPU (ric.pool).

Usage: python3 scripts/run_corpus.py [--oracle] [--trials N] [--seed N]
"""

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from ric.checker import check_chunk  # noqa: E402
from ric.chunks import load_chunk_file  # noqa: E402
from ric.oracle import OracleRun, TrialConfig, oracle_check  # noqa: E402
from ric.pool import in_order  # noqa: E402
from ric.report import classify_pattern, severity_policy  # noqa: E402


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--corpus", default=str(ROOT / "corpus" / "corpus.json"))
    ap.add_argument("--labels", default=str(ROOT / "corpus" / "labels.json"))
    ap.add_argument("--oracle", action="store_true")
    ap.add_argument("--trials", type=int, default=100)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--assignment-cap", type=int, default=256)
    args = ap.parse_args()

    chunks = load_chunk_file(args.corpus)
    labels = json.loads(Path(args.labels).read_text())

    mismatches = 0
    t0 = time.perf_counter()
    results = {}
    for c in chunks:
        result = check_chunk(c)
        results[c.context.file] = result
        label = labels[c.context.file]
        got = sorted(
            (
                i.category,
                severity_policy(i),
                tag.tag if (tag := classify_pattern(i, result)) else None,
            )
            for i in result.issues
        )
        want = sorted(
            (i["category"], i["severity"], i["pattern"]) for i in label["issues"]
        )
        status = "ok"
        if result.verdict != label["verdict"] or got != want:
            status = "MISMATCH"
            mismatches += 1
        print(f"{c.context.file:32s} {result.verdict:12s} {len(result.issues)} issue(s) {status}")
    elapsed = time.perf_counter() - t0
    print(
        f"\nchecked {len(chunks)} chunks in {elapsed:.2f} s "
        f"({elapsed / len(chunks) * 1000:.1f} ms/chunk), {mismatches} label mismatch(es)"
    )

    if args.oracle:
        cfg = TrialConfig(
            trials=args.trials, seed=args.seed, assignment_cap=args.assignment_cap
        )
        compliant = [c for c in chunks if results[c.context.file].verdict == "compliant"]

        def refuted(i):
            """The 'UNSOUND' line of each property the oracle refutes on
            compliant chunk i."""
            c = compliant[i]
            run = OracleRun(results[c.context.file], cfg)
            lines = []
            for prop in ("frame_write", "frame_read", "unicity"):
                v = oracle_check(c, prop, cfg, run=run)
                if v.verdict == "violation":
                    lines.append(f"UNSOUND {c.context.file} {prop}: {v.witness.location}")
            return lines

        unsound = 0
        t0 = time.perf_counter()
        for lines in in_order(len(compliant), refuted):
            unsound += len(lines)
            for line in lines:
                print(line)
        print(
            f"oracle pass over compliant chunks in {time.perf_counter() - t0:.2f} s, "
            f"{unsound} checker-vs-oracle disagreement(s)"
        )
        if unsound:
            return 1
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
