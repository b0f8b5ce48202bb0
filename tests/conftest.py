import json
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus" / "corpus.json"
LABELS = ROOT / "corpus" / "labels.json"


@pytest.fixture(scope="session")
def corpus_chunks():
    from ric.chunks import load_chunk_file

    return load_chunk_file(str(CORPUS))


@pytest.fixture(scope="session")
def corpus_labels():
    with open(LABELS, encoding="utf-8") as f:
        return json.load(f)


@pytest.fixture(scope="session")
def corpus_by_id(corpus_chunks):
    return {c.span.file: c for c in corpus_chunks}


@pytest.fixture(scope="session")
def corpus_results(corpus_chunks):
    from ric.checker import check_chunk

    return {c.span.file: check_chunk(c) for c in corpus_chunks}


@pytest.fixture(scope="session")
def compliant_corpus_oracle(corpus_chunks, corpus_results):
    """The oracle's verdict on each property of each chunk the checker
    calls compliant, at 100 trials, seed 0 and cap 256; `elapsed_s` is
    the wall time of that oracle work."""
    from ric.oracle import OracleRun, TrialConfig, oracle_check

    cfg = TrialConfig(trials=100, seed=0)
    t0 = time.perf_counter()
    verdicts = {}
    for c in corpus_chunks:
        result = corpus_results[c.span.file]
        if result.verdict != "compliant":
            continue
        run = OracleRun(result, cfg)
        for prop in ("frame_write", "frame_read", "unicity"):
            verdicts[c.span.file, prop] = oracle_check(run, prop)
    return SimpleNamespace(verdicts=verdicts, elapsed_s=time.perf_counter() - t0)


def parse_c_text(text, file="<input>"):
    """The asm statements of C text as `ric` reads them: scanned by
    `chunks.scan_c_source`, each then parsed by `cli._parse`. Returns the
    chunks and the report entry of each statement that did not scan or
    parse, as `ric` writes it to standard error and the report."""
    from ric import chunks, cli

    statements, diagnostics = chunks.scan_c_source(text, file)
    unparsed = []
    for d in diagnostics:
        cli._unparsed(file, d, unparsed)
    parsed = [cli._parse(file, st, unparsed) for st in statements]
    return [c for c in parsed if c is not None], unparsed


def chunks_with_tag(by_id, labels, tag):
    return [by_id[cid] for cid, lab in labels.items() if tag in lab["tags"]]
