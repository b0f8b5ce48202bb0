"""Severity policy, recurrent-error pattern tags, and report building."""

from __future__ import annotations

import os
from json.encoder import encode_basestring_ascii as _quote

from .expr import MMX_REGS, XMM_REGS, MemoryWhole, Reg, format_loc
from .lift import uses_push_pop
from .value import Record, asdict


class PatternTag(Record):
    tag: str  # 'P1'..'P6'
    rationale: str


def severity_policy(issue):
    return "benign" if issue.category == "FlagClobbered" else "serious"


def _loc_name(loc):
    if isinstance(loc, Reg):
        return loc.name
    return None


def classify_pattern(issue, result):
    """First matching recurrent-error pattern of an issue of the
    CheckResult, or None."""
    chunk = result.chunk
    loc = issue.location
    name = _loc_name(loc)
    if issue.category == "FlagClobbered":
        return PatternTag("P1", "condition flags clobbered without a cc clobber")
    if name == "ebx" or "ebx" in issue.details.split():
        return PatternTag("P2", "ebx written; reserved for PIC code")
    if name == "esp" and uses_push_pop(result.parsed):
        return PatternTag("P3", "stack pointer manipulated via push/pop")
    if (
        issue.category in ("UnboundMemoryWrite", "UnboundMemoryRead")
        or isinstance(loc, MemoryWhole)
    ) and chunk.single_chunk_function:
        return PatternTag("P4", "memory effects assumed private to a one-chunk function")
    if name in MMX_REGS:
        return PatternTag("P5", "MMX register affected without a clobber")
    if name in XMM_REGS:
        return PatternTag("P6", "XMM register affected without a clobber")
    return None


def issue_to_json(issue, result):
    tag = classify_pattern(issue, result)
    return {
        "category": issue.category,
        "severity": severity_policy(issue),
        "pattern": tag.tag if tag else None,
        "location": format_loc(issue.location),
        "point": issue.point,
        "details": issue.details,
    }


def timings_enabled():
    return os.environ.get("RIC_TIMINGS", "0") == "1"


def span_json(span):
    return {"file": span.file, "line": span.line, "column": span.column}


def chunk_report(result, extra=None):
    chunk = result.chunk
    out = {
        "span": span_json(chunk.span),
        "verdict": result.verdict,
        "issues": [issue_to_json(i, result) for i in result.issues],
        # wall-clock values vary run to run and would break byte-level
        # report reproducibility; opt in via RIC_TIMINGS=1
        "timings": (
            {k: round(v, 3) for k, v in result.timings.items()}
            if timings_enabled()
            else None
        ),
    }
    if result.details:
        out["details"] = result.details
    if extra:
        out.update(extra)
    return out


def diagnostic_report(diagnostic):
    """The entry of a statement that did not parse: verdict error."""
    return {
        "span": span_json(diagnostic.span),
        "verdict": "error",
        "issues": [],
        "timings": None,
        "details": str(diagnostic),
    }


def build_summary(chunk_reports):
    by_category = {}
    by_severity = {"benign": 0, "serious": 0}
    by_pattern = {}
    totals = {"compliant": 0, "benign_only": 0, "serious": 0, "out_of_scope": 0, "error": 0}
    for rep in chunk_reports:
        issues = rep["issues"]
        for i in issues:
            by_category[i["category"]] = by_category.get(i["category"], 0) + 1
            by_severity[i["severity"]] += 1
            if i["pattern"]:
                by_pattern[i["pattern"]] = by_pattern.get(i["pattern"], 0) + 1
        if rep["verdict"] == "compliant":
            totals["compliant"] += 1
        elif rep["verdict"] == "out_of_scope":
            totals["out_of_scope"] += 1
        elif rep["verdict"] == "error":
            totals["error"] += 1
        elif all(i["severity"] == "benign" for i in issues):
            totals["benign_only"] += 1
        else:
            totals["serious"] += 1
    return {
        "chunks": len(chunk_reports),
        "by_category": dict(sorted(by_category.items())),
        "by_severity": by_severity,
        "by_pattern": dict(sorted(by_pattern.items())),
        "totals": totals,
    }


def build_report(chunk_reports):
    return {
        "schema": 1,
        "chunks": chunk_reports,
        "summary": build_summary(chunk_reports),
    }


_INF = float("inf")


def json_text(value):
    """Exactly the text of json.dumps(value, indent=2, sort_keys=True),
    for dicts with str keys, lists, tuples, str, int, float, bool and
    None; anything else raises TypeError."""
    return _json(value, "\n")


def _json(value, newline):
    """value's JSON text, its nested lines starting with newline plus
    two spaces."""
    if isinstance(value, str):
        return _quote(value)
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = newline + "  "
        items = []
        for key in sorted(value):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            items.append(f"{_quote(key)}: {_json(value[key], inner)}")
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = newline + "  "
        items = [_json(v, inner) for v in value]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if value != value:
            return "NaN"
        if value == _INF:
            return "Infinity"
        if value == -_INF:
            return "-Infinity"
        return float.__repr__(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


# ---------------------------------------------------------------------------
# Text view (derived from the JSON structure)

_COLORS = {"serious": "\x1b[31m", "benign": "\x1b[33m", "ok": "\x1b[32m", "reset": "\x1b[0m"}


def _color_enabled():
    v = os.environ.get("RIC_COLOR")
    if v == "1":
        return True
    return False


def edit_to_json(edit):
    """The JSON of a patch or refinement edit: its class name and fields."""
    return {"edit": type(edit).__name__, **asdict(edit)}


def _edit_text(edit):
    """`Name key=value ...` of one edit's JSON."""
    args = []
    for key, value in sorted(edit.items()):
        if key == "spans":
            value = ",".join(
                f"{sp['mode']} %{sp['base']}[{sp['offset']}:{sp['offset'] + sp['length']}]"
                for sp in value
            )
        if key != "edit":
            args.append(f"{key}={value}")
    return " ".join([edit["edit"], *args])


def _edit_lines(name, entry):
    """One line per edit and unresolved finding of a patch or refinement
    entry, then its verification and statement."""
    lines = [f"  {name} edit: {_edit_text(e)}" for e in entry["edits"]]
    lines += [
        f"  {name} unresolved: {u['category']} at {u['location']}"
        for u in entry.get("unresolved", ())
    ]
    if "verification" in entry:
        checks = sorted(entry["verification"].items())
        verified = ", ".join(f"{key} {'yes' if ok else 'no'}" for key, ok in checks)
        lines.append(f"  {name} verification: {verified}")
    if entry["statement"] is not None:
        lines.append(f"  {name} statement: {entry['statement']}")
    return lines


def _assignment_text(assignment):
    return " ".join(f"{token}={op}" for token, op in sorted(assignment.items()))


def _oracle_lines(oracle):
    """One line per property of an oracle entry."""
    lines = []
    for prop, entry in oracle.items():
        line = f"  oracle {prop}: {entry['verdict']} ({entry['trials']} trials)"
        if "reason" in entry:
            line += f": {entry['reason']}"
        w = entry.get("witness")
        if w:
            line += f" at {w['location']}: {w['detail']}"
            line += f" under {_assignment_text(w['assignment'])}"
            if "assignment2" in w:
                line += f" vs {_assignment_text(w['assignment2'])}"
        lines.append(line)
    return lines


def render_text(report):
    color = _color_enabled()

    def paint(text, kind):
        if not color:
            return text
        return f"{_COLORS[kind]}{text}{_COLORS['reset']}"

    lines = []
    for rep in report["chunks"]:
        span = rep["span"]
        head = f"{span['file']}:{span['line']}: {rep['verdict']}"
        if rep["verdict"] == "compliant":
            head = paint(head, "ok")
        lines.append(head)
        for i in rep["issues"]:
            tag = f" [{i['pattern']}]" if i["pattern"] else ""
            line = (
                f"  {i['severity']}: {i['category']} at {i['location']}"
                f" (point {i['point']}){tag} {i['details']}"
            )
            lines.append(paint(line, i["severity"]))
        if rep.get("details"):
            lines.append(f"  note: {rep['details']}")
        if rep.get("patch"):
            lines += _edit_lines("patch", rep["patch"])
        if rep.get("refinements"):
            lines += _edit_lines("refine", rep["refinements"])
        if rep.get("oracle"):
            lines += _oracle_lines(rep["oracle"])
    s = report["summary"]
    lines.append(
        "summary: {chunks} chunks, {c} compliant, {b} benign-only, {s} serious,"
        " {o} out of scope, {e} error".format(
            chunks=s["chunks"],
            c=s["totals"]["compliant"],
            b=s["totals"]["benign_only"],
            s=s["totals"]["serious"],
            o=s["totals"]["out_of_scope"],
            e=s["totals"]["error"],
        )
    )
    return "\n".join(lines) + "\n"
