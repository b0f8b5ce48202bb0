"""Command-line driver: check, patch, refine, oracle. The patcher, the
refiner and the oracle are imported by the one command that uses each."""

from __future__ import annotations

import argparse
import sys
import time

from . import chunks
from .checker import CheckResult, check_chunk
from .chunks import load_chunk_file, render
from .errors import BadConstraintChar, MalformedInterface, RicError
from .expr import format_loc
from .report import (
    build_report, chunk_report, diagnostic_report, edit_to_json, json_text, render_text,
    span_json, timings_enabled,
)
from .value import replace


def positive_int(text):
    """An argparse type: an integer of 1 or more."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{value} is not 1 or more")
    return value


def _parser():
    """Each command takes only the options it reads: every command
    --format, --out and --chunks, patch and refine also --in-place, and
    oracle also --seed and --trials."""
    p = argparse.ArgumentParser(
        prog="ric", description="inline assembly interface compliance"
    )
    sub = p.add_subparsers(dest="command", required=True)
    for name in ("check", "patch", "refine", "oracle"):
        sp = sub.add_parser(name)
        sp.add_argument("--format", choices=("json", "text"), default="json")
        sp.add_argument("--out", default=None)
        sp.add_argument("--chunks", action="append", default=[], metavar="FILE.json")
        if name in ("patch", "refine"):
            sp.add_argument("--in-place", action="store_true", dest="in_place")
        if name == "oracle":
            sp.add_argument("--seed", type=int, default=0)
            sp.add_argument("--trials", type=positive_int, default=100)
        sp.add_argument("files", nargs="*")
    return p


def _read(args, unparsed):
    """Each input file in turn, as (path, text, statements): a C file's
    text and its scanned statements, in source order, then each chunk
    file's path, None and its chunks. Each statement the scanner finds
    unterminated is reported here as _parse reports one that does not
    parse: an entry in unparsed and a line on standard error."""
    for path in sorted(args.files):
        # newline="" keeps \r\n, so spans index the file's own text and
        # --in-place rewrites keep its line ends; a byte that is not
        # UTF-8 is kept as a lone surrogate and written back as itself
        with open(path, encoding="utf-8", errors="surrogateescape", newline="") as f:
            text = f.read()
        statements, diags = chunks.scan_c_source(text, path)
        for d in diags:
            _unparsed(path, d, unparsed)
        yield path, text, statements
    for path in sorted(args.chunks):
        yield path, None, load_chunk_file(path)


def _unparsed(path, diagnostic, unparsed):
    print(f"ric: {path}:{diagnostic.span.line}: {diagnostic}", file=sys.stderr)
    unparsed.append(diagnostic_report(diagnostic))


def _parse(path, st, unparsed):
    """The chunk of a scanned statement, or None if it does not parse."""
    try:
        return chunks.parse_asm_statement(st.body, st.span, st.qualifiers, st.marks)
    except (MalformedInterface, BadConstraintChar) as e:
        e.span = st.span
        _unparsed(path, e, unparsed)
        return None


def _exit_code(reports):
    verdicts = [r["verdict"] for r in reports]
    # a compliant chunk that the oracle refutes is a finding too
    refuted = any(
        p["verdict"] == "violation"
        for r in reports
        if r["verdict"] == "compliant"
        for p in r.get("oracle", {}).values()
    )
    if any(r["issues"] for r in reports) or "error" in verdicts or refuted:
        return 1
    if "out_of_scope" in verdicts:
        return 3
    return 0


def _finish(reports, unparsed, args):
    """Emit the report, with the unparsed statements in source order;
    returns the exit code."""
    reports = sorted(
        reports + unparsed,
        key=lambda r: (r["span"]["file"], r["span"]["line"], r["span"]["column"]),
    )
    _emit(build_report(reports), args)
    return _exit_code(reports)


def _emit(report, args):
    if args.format == "text":
        # a source byte that is not UTF-8 shows as \xNN
        text = render_text(report).encode(errors="surrogateescape")
        text = text.decode(errors="backslashreplace")
    else:
        text = json_text(report) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def _analysed(chunk, analyse):
    """(analyse(chunk), None): the chunk's report entry and what the
    command keeps of its work. An exception other than RicError gives an
    error entry, keeping nothing, and the line for standard error."""
    try:
        return analyse(chunk), None
    except RicError:
        raise
    except Exception as e:
        details = f"internal error: {type(e).__name__}: {e}"
        line = f"ric: {chunk.span.file}:{chunk.span.line}: {details}"
        return (chunk_report(CheckResult(chunk, "error", details=details)), None), line


def _each_statement(args, analyse, extend=None, rename=None, pooled=False):
    """The report entries of the input files' statements and chunks
    (_read), and of the statements that did not parse. analyse(chunk)
    gives a chunk's entry and what the command keeps of its work (None
    for nothing); extend(path, text, entry, kept) adds what it builds
    from that to the entry, text being None in a chunk file.

    Plan: only the first statement of each shape (chunks.statement_shape)
    is parsed, and each chunk of a chunk file is its own first. Never
    reused: a statement with no shape, one that does not parse, and one
    with a name holding "_ric_dummy", since the patcher picks such names.
    Analyse the first statements (_analysed), in worker processes if
    pooled (ric.pool). Assemble, in input order: a later statement gets
    its first one's entry with its own span, extended from rename(kept,
    renaming, st), renaming mapping the first one's names to its own; or,
    if the first one's analysis failed, its own analysis. So the lines of
    statements that do not parse come before those of failed analyses."""
    timed = timings_enabled()
    unparsed = []
    firsts = []  # (chunk, names) of each statement analysed
    shapes = {}  # statement shape -> index in firsts of its first statement
    plan = []  # (path, text, rows); a row (i, st, names, seconds) is a later
    # statement of firsts[i]'s shape and the time of its lookup, or with
    # st None firsts[i] itself
    for path, text, statements in _read(args, unparsed):
        rows = []
        for st in statements:
            chunk, names = st, ()  # a chunk file's chunk
            if text is not None:
                t0 = time.perf_counter()
                shape, names = chunks.statement_shape(st.body)
                if any("_ric_dummy" in name for name in names):
                    shape = None
                if shape in shapes:
                    # names are kept only where they rename kept work
                    names = names if rename else None
                    rows.append((shapes[shape], st, names, time.perf_counter() - t0))
                    continue
                chunk = _parse(path, st, unparsed)
                if chunk is None:
                    continue
                if shape is not None:
                    shapes[shape] = len(firsts)
            rows.append((len(firsts), None, None, None))
            firsts.append((chunk, names))
        plan.append((path, text if extend else None, rows))

    def one(i):
        return _analysed(firsts[i][0], analyse)

    if pooled:
        from .pool import in_order

        results = in_order(len(firsts), one)
    else:
        results = map(one, range(len(firsts)))
    done = []  # the result of each first statement's analysis, once given
    reports = []
    for path, text, rows in plan:
        for i, st, names, seconds in rows:
            if st is None:
                done.append(next(results))
            (entry, kept), line = done[i]
            if st is not None and line:
                chunk = _parse(path, st, unparsed)
                if chunk is None:
                    continue
                (entry, kept), line = _analysed(chunk, analyse)
            elif st is not None:
                entry = {**entry, "span": span_json(st.span)}
                if timed:  # nothing ran for the statement but its lookup
                    entry["timings"] = {"total_ms": round(seconds * 1000, 3)}
                    if "oracle" in entry:
                        entry["oracle"] = {
                            prop: {k: v for k, v in found.items() if k != "ms"}
                            for prop, found in entry["oracle"].items()
                        }
                if kept is not None:
                    kept = rename(kept, dict(zip(firsts[i][1], names)), st)
            if line:
                print(line, file=sys.stderr)
            if kept is not None:
                entry = extend(path, text, entry, kept)
            reports.append(entry)
    return reports, unparsed


def _cmd_check(args):
    return _finish(*_each_statement(args, lambda c: (chunk_report(check_chunk(c)), None)), args)


def _cmd_patch(args):
    from . import patcher

    rewrites = {}  # path -> its text and a list of (span, replacement)

    def analyse(chunk):
        result = check_chunk(chunk)
        if result.verdict != "issues":
            return chunk_report(result), None
        pr = patcher.synthesize_patches(result, result.issues)
        return chunk_report(result), (pr, patcher.verify_patch(pr))

    def extend(path, text, entry, kept):
        pr, verification = kept
        patch = {
            "edits": [edit_to_json(e) for e in pr.edits],
            "unresolved": [
                {"category": i.category, "location": format_loc(i.location)}
                for i in pr.unresolved
            ],
            "renumber_map": {str(k): v for k, v in sorted(pr.renumber_map.items())},
            "verification": verification,
            "statement": render(pr.patched),
        }
        if text is not None and pr.edits:
            edit = (pr.patched.span, patch["statement"])
            patch["diff"] = patcher.render_diff(text, *edit)
            if args.in_place and verification["interface_satisfiable"]:
                rewrites.setdefault(path, (text, []))[1].append(edit)
        return {**entry, "patch": patch}

    def rename(kept, renaming, st):
        pr, verification = kept
        # an added input's source and an added output's lvalue are the
        # only C text of an edit
        edits = [
            replace(e, **{f: chunks.rename(getattr(e, f), renaming)
                          for f in ("source", "lvalue") if hasattr(e, f)})
            for e in pr.edits
        ]
        pr = replace(pr, patched=chunks.rename_chunk(pr.patched, renaming, st), edits=edits)
        return pr, verification

    reports, unparsed = _each_statement(args, analyse, extend, rename)
    patcher.line_table.cache_clear()  # the report does not need the last file's lines
    _apply_rewrites(rewrites)
    return _finish(reports, unparsed, args)


def _cmd_refine(args):
    from . import refiner

    rewrites = {}

    def analyse(chunk):
        result = check_chunk(chunk)
        rr = refiner.refine_interface(result) if result.verdict == "compliant" else None
        return chunk_report(result), rr

    def extend(path, text, entry, rr):
        statement = render(rr.refined) if rr.edits else None
        if rr.edits and args.in_place and text is not None:
            rewrites.setdefault(path, (text, []))[1].append((rr.refined.span, statement))
        refinements = {
            "edits": [edit_to_json(e) for e in rr.edits],
            "suggestions": [],  # always empty; schema 2 drops it
            "statement": statement,
        }
        return {**entry, "refinements": refinements}

    def rename(rr, renaming, st):
        # a refinement's edits hold no C text
        refined = chunks.rename_chunk(rr.refined, renaming, st) if rr.edits else rr.refined
        return replace(rr, refined=refined)

    reports, unparsed = _each_statement(args, analyse, extend, rename)
    _apply_rewrites(rewrites)
    return _finish(reports, unparsed, args)


def oracle_check(run, prop):
    """ric.oracle.oracle_check, imported on the first call."""
    from .oracle import oracle_check

    return oracle_check(run, prop)


def _cmd_oracle(args):
    from .oracle import OracleRun, TrialConfig

    cfg = TrialConfig(trials=args.trials, seed=args.seed)
    timed = timings_enabled()

    def analyse(chunk):
        result = check_chunk(chunk)
        run = OracleRun(result, cfg)
        oracle = {}
        for prop in ("frame_write", "frame_read", "unicity"):
            t0 = time.perf_counter()
            verdict = oracle_check(run, prop)
            entry = {"verdict": verdict.verdict, "trials": verdict.trials_run}
            if verdict.reason:
                entry["reason"] = verdict.reason
            if verdict.witness:
                entry["witness"] = verdict.witness.to_json()
            if timed:
                entry["ms"] = round((time.perf_counter() - t0) * 1000, 3)
            oracle[prop] = entry
        return chunk_report(result, {"oracle": oracle}), None

    return _finish(*_each_statement(args, analyse, pooled=True), args)


def _apply_rewrites(rewrites):
    """Write each file with its (span, replacement) edits in place."""
    for path, (text, edits) in rewrites.items():
        pieces = []
        kept_from = 0
        for span, replacement in sorted(edits, key=lambda e: e[0].byte_start):
            if span.byte_start < kept_from:
                continue  # a file named twice on the command line
            pieces += (text[kept_from : span.byte_start], replacement)
            kept_from = span.byte_end
        pieces.append(text[kept_from:])
        with open(path, "w", encoding="utf-8", errors="surrogateescape", newline="") as f:
            f.write("".join(pieces))


def run(argv=None):
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    handler = {
        "check": _cmd_check,
        "patch": _cmd_patch,
        "refine": _cmd_refine,
        "oracle": _cmd_oracle,
    }[args.command]
    try:
        return handler(args)
    except (RicError, OSError) as e:
        print(f"ric: error: {e}", file=sys.stderr)
        return 2


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
