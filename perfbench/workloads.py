"""The benchmark's workloads and the checks on their outputs.

Every output is checked against ``corpus/labels.json``, the hand-written
reference, never against ``ric`` itself. A statement counts as failed
when its reported verdict or its multiset of (category, severity,
pattern) differs from its label, when its invocation timed out or
exited with an unexpected code, or, on ``oracle-corpus``, when the
oracle reports a violation on a label-compliant chunk.

A workload hands out the invocations of one pass (``start_pass``) and
then checks their outcomes (``check_pass``); the caller runs and times
the invocations, as child processes or in-process.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import gen

CORPUS = Path("corpus") / "corpus.json"
LABELS = Path("corpus") / "labels.json"

# Property each issue category breaks (README, "What the checker reports").
PROPERTY_OF = {
    "FlagClobbered": "frame_write",
    "ReadOnlyInputClobbered": "frame_write",
    "UnboundRegisterClobbered": "frame_write",
    "UnboundMemoryWrite": "frame_write",
    "NonWrittenWriteOnlyOutput": "frame_write",
    "UnboundRegisterRead": "frame_read",
    "UnboundMemoryRead": "frame_read",
    "Unicity": "unicity",
}
PROPERTIES = ("frame_write", "frame_read", "unicity")

# Sizes at which one pass takes about 3 s on a 2-CPU machine, so a run
# of 30 s gets about ten passes. At 3000 statements the quadratic scan
# costs about as much as checking; 20 oracle trials give the same
# verdicts as 50 at seed 0 (175 of 192 conclusive, 13 of 15 confirmed).
CHECK_STATEMENTS = 3000
FIX_STATEMENTS = 800
ORACLE_TRIALS = 20


@dataclass
class Invocation:
    """One ``ric`` run: its arguments and the report it writes. ``after``
    runs untimed once the invocation has ended."""

    argv: list
    out: Path
    after: object = None


@dataclass
class Outcome:
    exit_code: int = None  # None: timed out
    wall_s: float = 0.0
    peak_rss_mb: float = 0.0


@dataclass
class PassCheck:
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    verdicts: int = 0  # oracle verdicts reported
    ratios: dict = field(default_factory=dict)  # name -> (count, base)

    def fail(self, count, problem):
        self.failed += count
        if len(self.problems) < 20:
            self.problems.append(problem)


def issue_key(issues):
    return sorted((i["category"], i["severity"], i["pattern"] or "") for i in issues)


def matches_label(report, label):
    return report["verdict"] == label["verdict"] and issue_key(report["issues"]) == issue_key(
        label["issues"]
    )


def expected_exit(verdicts):
    """The exit code the README documents for a report with these verdicts."""
    if "issues" in verdicts or "error" in verdicts:
        return 1
    if "out_of_scope" in verdicts:
        return 3
    return 0


def label_mix(ids, labels):
    mix = {"compliant": 0, "issues": 0, "out_of_scope": 0}
    for i in ids:
        mix[labels[i]["verdict"]] += 1
    return mix


def load_report(inv, outcome, allowed_exit, check, count):
    """The invocation's report, or None after charging `count` failures."""
    what = inv.argv[0]
    if outcome.exit_code is None:
        check.fail(count, f"{what}: timed out")
        return None
    if outcome.exit_code not in allowed_exit:
        check.fail(count, f"{what}: exit {outcome.exit_code}, want one of {sorted(allowed_exit)}")
        return None
    try:
        return json.loads(inv.out.read_text(encoding="utf-8"))
    except (OSError, ValueError) as e:
        check.fail(count, f"{what}: unreadable report: {e}")
        return None


def by_key(report, expected, key, check, what):
    """Report chunks by key(chunk); each expected key exactly once."""
    found = {}
    for c in report["chunks"]:
        k = key(c)
        if k not in expected or k in found:
            check.fail(1, f"{what}: unexpected or repeated statement {k}")
            continue
        found[k] = c
    missing = len(expected) - len(found)
    if missing:
        check.fail(missing, f"{what}: {missing} statement(s) not reported")
    return found


def _line(chunk):
    return chunk["span"]["line"]


class _Cfile:
    """A seeded synthetic C file and its manifest of expected labels."""

    def __init__(self, root, work, seed, statements):
        records = json.loads((root / CORPUS).read_text(encoding="utf-8"))
        self.labels = json.loads((root / LABELS).read_text(encoding="utf-8"))
        self.file = gen.generate(records, statements, seed)
        self.manifest = self.file.manifest
        self.statements = statements

    def properties(self):
        return {
            "input_bytes": len(self.file.text.encode("utf-8")),
            "statements": self.statements,
            "label_mix": label_mix(self.manifest.values(), self.labels),
            "template_repeat_share": round(self.file.template_repeat_share, 4),
            "text_repeat_share": round(self.file.text_repeat_share, 4),
        }

    def label_of(self, line):
        return self.labels[self.manifest[line]]

    def check_labels(self, found, lines, check, what):
        for line in lines:
            if line in found and not matches_label(found[line], self.label_of(line)):
                check.fail(1, f"{what}: line {line} ({self.manifest[line]}) differs from its label")

    def check_rewrite(self, before, after, replaced, check, what):
        """`after` must be `before` with exactly the statement lines in
        `replaced` (line -> statement text) substituted."""
        old = before.split("\n")
        new = after.split("\n")
        if len(old) != len(new):
            check.fail(len(self.manifest), f"{what}: rewrite has {len(new)} lines, want {len(old)}")
            return
        for idx, (a, b) in enumerate(zip(old, new)):
            line = idx + 1
            want = f"    {replaced[line]};" if line in replaced else a
            if b != want:
                check.fail(1, f"{what}: line {line} is not the reported statement")


class CfileCheck(_Cfile):
    name = "cfile-check"

    def __init__(self, root, work, seed, statements=CHECK_STATEMENTS):
        super().__init__(root, work, seed, statements)
        self.source = work / "cfile-check.c"
        self.source.write_text(self.file.text, encoding="utf-8")
        self.out = work / "check.json"
        self.first = None  # (bytes, chunks by line) of the first pass

    def start_pass(self):
        return [Invocation(["check", "--out", str(self.out), str(self.source)], self.out)]

    def check_pass(self, invocations, outcomes):
        check = PassCheck(attempted=self.statements)
        allowed = {expected_exit([self.label_of(line)["verdict"] for line in self.manifest])}
        report = load_report(invocations[0], outcomes[0], allowed, check, self.statements)
        if report is None:
            return check
        found = by_key(report, self.manifest, _line, check, "check")
        self.check_labels(found, self.manifest, check, "check")
        data = self.out.read_bytes()
        if self.first is None:
            self.first = (data, found)
        elif data != self.first[0]:
            differing = sum(c != self.first[1].get(line) for line, c in found.items())
            check.fail(max(differing, 1), "check: report bytes differ from the first pass")
        return check


class CfileFix(_Cfile):
    name = "cfile-fix"

    def __init__(self, root, work, seed, statements=FIX_STATEMENTS):
        super().__init__(root, work, seed, statements)
        self.target = work / "cfile-fix.c"
        self.patch_out = work / "patch.json"
        self.refine_out = work / "refine.json"
        self.after_patch = None

    def _snapshot(self):
        self.after_patch = self.target.read_text(encoding="utf-8")

    def start_pass(self):
        self.target.write_text(self.file.text, encoding="utf-8")
        self.after_patch = None
        return [
            Invocation(["patch", "--in-place", "--out", str(self.patch_out), str(self.target)],
                       self.patch_out, after=self._snapshot),
            Invocation(["refine", "--in-place", "--out", str(self.refine_out), str(self.target)],
                       self.refine_out),
        ]

    def check_pass(self, invocations, outcomes):
        n = self.statements
        check = PassCheck(attempted=2 * n)
        verdicts = [self.label_of(line)["verdict"] for line in self.manifest]
        patch = load_report(invocations[0], outcomes[0], {expected_exit(verdicts)}, check, n)
        if patch is None:
            check.fail(n, "refine: not checked without a patch report")
            return check
        found = by_key(patch, self.manifest, _line, check, "patch")
        self.check_labels(found, self.manifest, check, "patch")
        # ric applies a patch in place when it has edits and the edited
        # interface is satisfiable
        applied = {
            line: c["patch"]["statement"]
            for line, c in found.items()
            if c.get("patch") and c["patch"]["edits"]
            and c["patch"]["verification"]["interface_satisfiable"]
        }
        self.check_rewrite(self.file.text, self.after_patch or "", applied, check, "patch")

        # Patched statements have no label: refine's report on them is
        # only checked for a usable verdict, and its exit code may be 1.
        unchanged = [line for line in self.manifest if line not in applied]
        allowed = {expected_exit([self.label_of(line)["verdict"] for line in unchanged]), 1}
        refine = load_report(invocations[1], outcomes[1], allowed, check, n)
        if refine is None:
            return check
        found = by_key(refine, self.manifest, _line, check, "refine")
        self.check_labels(found, unchanged, check, "refine")
        for line in applied:
            if line in found and found[line]["verdict"] not in ("compliant", "issues"):
                check.fail(1, f"refine: patched line {line} has verdict {found[line]['verdict']}")
        refined = {
            line: c["refinements"]["statement"]
            for line, c in found.items()
            if c.get("refinements") and c["refinements"]["edits"]
        }
        final = self.target.read_text(encoding="utf-8")
        self.check_rewrite(self.after_patch or "", final, refined, check, "refine")
        return check


class OracleCorpus:
    name = "oracle-corpus"

    def __init__(self, root, work, seed, trials=ORACLE_TRIALS):
        self.chunks = root / CORPUS
        self.labels = json.loads((root / LABELS).read_text(encoding="utf-8"))
        self.records = json.loads(self.chunks.read_text(encoding="utf-8"))
        self.statements = len(self.records)
        self.seed = seed
        self.trials = trials
        self.out = work / "oracle.json"
        self.serious = sorted(
            {
                (cid, PROPERTY_OF[i["category"]])
                for cid, label in self.labels.items()
                for i in label["issues"]
                if i["severity"] == "serious"
            }
        )

    def properties(self):
        # a chunk's context names it, so text repeats are judged without it
        texts = [json.dumps({k: v for k, v in r.items() if k != "context"}, sort_keys=True)
                 for r in self.records]
        return {
            "input_bytes": self.chunks.stat().st_size,
            "statements": self.statements,
            "label_mix": label_mix((r["context"]["file"] for r in self.records), self.labels),
            "template_repeat_share": round(
                gen.repeat_share([gen.template_key(r) for r in self.records]), 4
            ),
            "text_repeat_share": round(gen.repeat_share(texts), 4),
            "trials": self.trials,
        }

    def start_pass(self):
        argv = ["oracle", "--chunks", str(self.chunks), "--seed", str(self.seed),
                "--trials", str(self.trials), "--out", str(self.out)]
        return [Invocation(argv, self.out)]

    def check_pass(self, invocations, outcomes):
        n = self.statements
        check = PassCheck(attempted=n)
        ids = {r["context"]["file"] for r in self.records}
        allowed = {expected_exit([self.labels[i]["verdict"] for i in ids])}
        report = load_report(invocations[0], outcomes[0], allowed, check, n)
        if report is None:
            return check
        found = by_key(report, ids, lambda c: c["span"]["file"], check, "oracle")
        verdicts = conclusive = 0
        for cid, c in found.items():
            label = self.labels[cid]
            oracle = c.get("oracle", {})
            if not matches_label(c, label):
                check.fail(1, f"oracle: {cid} differs from its label")
            elif label["verdict"] == "compliant" and any(
                v["verdict"] == "violation" for v in oracle.values()
            ):
                check.fail(1, f"oracle: violation on label-compliant {cid}")
            for prop in PROPERTIES:
                verdicts += 1
                conclusive += oracle.get(prop, {}).get("verdict") in ("pass", "violation")
        confirmed = sum(
            found.get(cid, {}).get("oracle", {}).get(prop, {}).get("verdict") == "violation"
            for cid, prop in self.serious
        )
        check.verdicts = verdicts
        check.ratios = {
            "conclusive": (conclusive, verdicts),
            "confirmed": (confirmed, len(self.serious)),
        }
        return check


WORKLOADS = {w.name: w for w in (CfileCheck, CfileFix, OracleCorpus)}
