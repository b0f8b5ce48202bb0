#!/usr/bin/env python3
"""Measure what the two precision optimizations buy on the corpus: alarm
counts with expression propagation and bit-level liveness toggled.

Usage: python3 scripts/ablation.py
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from ric.checker import CheckOptions, check_chunk  # noqa: E402
from ric.chunks import load_chunk_file  # noqa: E402

CONFIGS = [
    ("full precision", CheckOptions()),
    ("no expression propagation", CheckOptions(expression_propagation=False)),
    ("no bit-level liveness", CheckOptions(bit_liveness=False)),
    (
        "neither",
        CheckOptions(expression_propagation=False, bit_liveness=False),
    ),
]


def main():
    chunks = load_chunk_file(str(ROOT / "corpus" / "corpus.json"))
    baseline = {}
    for name, opts in CONFIGS:
        alarms = 0
        noisy = []
        for c in chunks:
            result = check_chunk(c, opts)
            if result.verdict in ("error", "out_of_scope"):
                continue
            keys = {(i.category, str(i.location)) for i in result.issues}
            alarms += len(keys)
            if name == "full precision":
                baseline[c.span.file] = keys
            elif keys - baseline[c.span.file]:
                noisy.append((c.span.file, len(keys - baseline[c.span.file])))
        extra = alarms - sum(len(v) for v in baseline.values())
        print(f"{name:28s} {alarms:4d} alarms ({extra:+d} vs full precision)")
        for f, n in noisy:
            print(f"    {f}: {n} extra alarm(s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
