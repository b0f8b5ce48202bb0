"""Command-line driver: check, patch, refine, oracle. The patcher, the
refiner and the oracle are imported by the one command that uses each."""

from __future__ import annotations

import argparse
import sys
import time

from . import chunks
from .checker import CheckResult, check_chunk
from .chunks import load_chunk_file, render
from .errors import BadConstraintChar, MalformedInterface, RicError, SpanStale
from .expr import format_loc
from .report import (
    build_report, chunk_report, diagnostic_report, edit_to_json, json_text, render_text,
    span_json, timings_enabled,
)


def _parser():
    p = argparse.ArgumentParser(
        prog="ric", description="inline assembly interface compliance"
    )
    sub = p.add_subparsers(dest="command", required=True)
    for name in ("check", "patch", "refine", "oracle"):
        sp = sub.add_parser(name)
        sp.add_argument("--format", choices=("json", "text"), default="json")
        sp.add_argument("--out", default=None)
        sp.add_argument("--in-place", action="store_true", dest="in_place")
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--trials", type=int, default=100)
        sp.add_argument("--assignment-cap", type=int, default=256, dest="assignment_cap")
        sp.add_argument("--no-refine-inputs", action="store_true")
        sp.add_argument("--no-refine-clobbers", action="store_true")
        sp.add_argument("--no-refine-memory", action="store_true")
        sp.add_argument("--chunks", action="append", default=[], metavar="FILE.json")
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
    print(f"ric: {path}: {diagnostic}", file=sys.stderr)
    unparsed.append(diagnostic_report(diagnostic))


def _parse(path, st, unparsed):
    """The chunk of a scanned statement, or None if it does not parse."""
    try:
        return chunks.parse_asm_statement(st.body, st.span, st.qualifiers, st.marks)
    except (MalformedInterface, BadConstraintChar) as e:
        e.span = st.span
        _unparsed(path, e, unparsed)
        return None


def _collect(args):
    """Load all chunks, grouped per source file for in-place edits, and
    the report entries of the statements that did not parse."""
    sources = {}  # path -> source text of each C file
    per_file = []  # (path, chunk)
    unparsed = []
    for path, text, statements in _read(args, unparsed):
        if text is None:
            per_file += [(path, c) for c in statements]
            continue
        sources[path] = text
        for st in statements:
            chunk = _parse(path, st, unparsed)
            if chunk is not None:
                per_file.append((path, chunk))
    return sources, per_file, unparsed


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


def _analysed(path, chunk, analyse):
    """(analyse(path, chunk), None): the chunk's report entry. An
    exception other than RicError gives the chunk an error entry instead,
    with the line for standard error in place of None."""
    try:
        return analyse(path, chunk), None
    except RicError:
        raise
    except Exception as e:
        details = f"internal error: {type(e).__name__}: {e}"
        line = f"ric: {chunk.span.file}:{chunk.span.line}: {details}"
        return chunk_report(CheckResult(chunk, "error", details=details)), line


def _each_chunk(pairs, analyse, pooled=False):
    """The report entry analyse(path, chunk) of each chunk (_analysed):
    one that fails gets an error entry and a line on standard error, and
    the other chunks are still analysed. Pooled, the chunks are shared
    out among worker processes (ric.pool), and the lines come out in
    input order all the same."""

    def one(i):
        return _analysed(*pairs[i], analyse)

    if pooled:
        from .pool import in_order

        results = in_order(len(pairs), one)
    else:
        results = map(one, range(len(pairs)))
    reports = []
    for entry, line in results:
        if line:
            print(line, file=sys.stderr)
        reports.append(entry)
    return reports


def _cmd_check(args):
    """Check each statement as it is read. The first statement of each
    shape (chunks.statement_shape) is parsed and checked; a later one of
    that shape gets a copy of its report entry with its own span, since
    the two entries differ only there. A statement that does not parse,
    or whose check fails, is not reused."""
    memo = {}
    shapes = {}  # statement shape -> report entry of its first statement
    timed = timings_enabled()
    reports = []
    unparsed = []

    def analyse(path, chunk):
        return chunk_report(check_chunk(chunk, memo=memo))

    for path, text, statements in _read(args, unparsed):
        if text is None:
            reports += _each_chunk([(path, c) for c in statements], analyse)
            continue
        for st in statements:
            t0 = time.perf_counter()
            shape = chunks.statement_shape(st.body)
            entry = shapes.get(shape)
            if entry is not None:
                entry = {**entry, "span": span_json(st.span)}
                if timed:
                    entry["timings"] = {"total_ms": round((time.perf_counter() - t0) * 1000, 3)}
                reports.append(entry)
                continue
            chunk = _parse(path, st, unparsed)
            if chunk is None:
                continue
            entry, line = _analysed(path, chunk, analyse)
            if line:
                print(line, file=sys.stderr)
            elif shape is not None:
                shapes[shape] = entry
            reports.append(entry)
    return _finish(reports, unparsed, args)


def _cmd_patch(args):
    from . import patcher

    sources, pairs, unparsed = _collect(args)
    rewrites = {}  # path -> list of (span, replacement)
    memo = {}

    def analyse(path, chunk):
        result = check_chunk(chunk, memo=memo)
        extra = {}
        if result.verdict == "issues":
            pr = patcher.synthesize_patches(result, result.issues, memo)
            verification = patcher.verify_patch(pr)
            extra["patch"] = {
                "edits": [edit_to_json(e) for e in pr.edits],
                "unresolved": [
                    {"category": i.category, "location": format_loc(i.location)}
                    for i in pr.unresolved
                ],
                "renumber_map": {str(k): v for k, v in sorted(pr.renumber_map.items())},
                "verification": verification,
                "statement": render(pr.patched),
            }
            src = sources.get(path)
            if src is not None and pr.edits:
                try:
                    extra["patch"]["diff"] = patcher.render_diff(src, pr)
                except SpanStale as e:
                    extra["patch"]["diff_error"] = str(e)
                if args.in_place and verification["interface_satisfiable"]:
                    rewrites.setdefault(path, []).append(
                        (chunk.span, render(pr.patched))
                    )
        return chunk_report(result, extra)

    reports = _each_chunk(pairs, analyse)
    patcher.line_table.cache_clear()  # the report does not need the last file's lines
    if args.in_place:
        _apply_rewrites(sources, rewrites)
    return _finish(reports, unparsed, args)


def _cmd_refine(args):
    from . import refiner

    sources, pairs, unparsed = _collect(args)
    options = refiner.RefineOptions(
        refine_inputs=not args.no_refine_inputs,
        refine_clobbers=not args.no_refine_clobbers,
        refine_memory=not args.no_refine_memory,
    )
    rewrites = {}
    memo = {}

    def analyse(path, chunk):
        result = check_chunk(chunk, memo=memo)
        extra = {}
        if result.verdict == "compliant":
            rr = refiner.refine_interface(result, options, memo)
            extra["refinements"] = {
                "edits": [edit_to_json(e) for e in rr.edits],
                "suggestions": [edit_to_json(e) for e in rr.suggestions],
                "statement": render(rr.refined) if rr.edits else None,
            }
            if rr.edits and args.in_place and path in sources:
                rewrites.setdefault(path, []).append((chunk.span, render(rr.refined)))
        return chunk_report(result, extra)

    reports = _each_chunk(pairs, analyse)
    if args.in_place:
        _apply_rewrites(sources, rewrites)
    return _finish(reports, unparsed, args)


def oracle_check(chunk, prop, cfg, run):
    """ric.oracle.oracle_check, imported on the first call."""
    from .oracle import oracle_check

    return oracle_check(chunk, prop, cfg, run=run)


def _cmd_oracle(args):
    from .oracle import OracleRun, TrialConfig

    sources, pairs, unparsed = _collect(args)
    cfg = TrialConfig(
        trials=args.trials, seed=args.seed, assignment_cap=args.assignment_cap
    )
    timed = timings_enabled()

    def analyse(path, chunk):
        result = check_chunk(chunk)
        run = OracleRun(result, cfg)
        oracle = {}
        for prop in ("frame_write", "frame_read", "unicity"):
            t0 = time.perf_counter()
            verdict = oracle_check(chunk, prop, cfg, run=run)
            entry = {"verdict": verdict.verdict, "trials": verdict.trials_run}
            if verdict.reason:
                entry["reason"] = verdict.reason
            if verdict.witness:
                entry["witness"] = verdict.witness.to_json()
            if timed:
                entry["ms"] = round((time.perf_counter() - t0) * 1000, 3)
            oracle[prop] = entry
        return chunk_report(result, {"oracle": oracle})

    reports = _each_chunk(pairs, analyse, pooled=True)
    return _finish(reports, unparsed, args)


def _apply_rewrites(sources, rewrites):
    for path, edits in rewrites.items():
        text = sources[path]
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
