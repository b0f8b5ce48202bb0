"""Sandbox pages: PageBytes against SplitMix64 words laid out in a
bytearray, and what one `ric oracle` run computes and keeps."""

import collections
import gc
import itertools
import json
import weakref

from hypothesis import example, given, settings
from hypothesis import strategies as st

from ric import oracle, pool
from ric.cli import run
from ric.oracle import SANDBOX_BASE, MachineState, PageBytes

from conftest import CORPUS

M64 = (1 << 64) - 1


def splitmix64(seed):
    """SplitMix64 as a sequential generator: add gamma, then mix."""
    state = seed
    while True:
        state = (state + 0x9E3779B97F4A7C15) & M64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & M64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & M64
        yield z ^ (z >> 31)


def reference(key, pages):
    """The first `pages` whole 64-byte pages of key's bytes: its
    SplitMix64 outputs in order, each 8 bytes little-endian."""
    words = itertools.islice(splitmix64(key), 8 * pages)
    return bytearray(b"".join(w.to_bytes(8, "little") for w in words))


_KEYS = st.integers(0, M64)
_READS = st.lists(st.tuples(st.integers(0, 10**6), st.integers(1, 200)), max_size=12)


# kills a wrong byte order
def test_first_words_are_the_published_splitmix64_outputs():
    p = PageBytes(1234567)
    assert [p.read(8 * w, 8) for w in range(5)] == [
        6457827717110365317,
        3203168211198807973,
        9817491932198370423,
        4593380528125082431,
        16408922859458223821,
    ]


# kills a wrong page index (the first word of page p counted as word p,
# not 8p) and a wrong byte order (a word's bytes big-endian)
@settings(max_examples=200, deadline=None)
@given(_KEYS, st.integers(1, 24), _READS)
@example(0, 1, [(0, 64), (63, 1)])
@example(M64, 3, [(0, 1), (191, 1), (176, 16), (60, 8), (0, 192)])
def test_reads_match_whole_pages(key, pages, reads):
    """Reads of any length at any offset, across pages and at both ends
    of the sandbox, through PageBytes and through a MachineState."""
    size = 64 * pages
    want = reference(key, pages)
    source = PageBytes(key)
    m = MachineState(size)
    m.mem = source
    for off, n in reads + [(0, 16), (size - 16, 16), (size - 1, 1)]:
        off %= size
        n = min(n, size - off)
        assert source.read(off, n) == int.from_bytes(want[off : off + n], "little")
        if n in (1, 2, 4, 8, 16):
            assert m.load(SANDBOX_BASE + off, n) == int.from_bytes(want[off : off + n], "little")
    assert m.to_bytes() == want


# kills a page cache shared by every source and keyed by page index alone,
# or by (id(source), page index)
@settings(max_examples=100, deadline=None)
@given(_KEYS, _KEYS, _READS, st.randoms(use_true_random=False))
def test_same_key_same_bytes_in_any_order(key, other_key, reads, shuffle):
    size = 4096
    reads = [(off % size, min(n, size - off % size)) for off, n in reads]
    first, second = PageBytes(key), PageBytes(key)
    want = {r: first.read(*r) for r in reads}
    shuffled = list(reads)
    shuffle.shuffle(shuffled)
    assert {r: second.read(*r) for r in shuffled} == want
    if other_key != key:
        # the mixer is a bijection on 64 bits, so every word differs
        other = PageBytes(other_key)
        for off, _ in reads:
            p = off >> 6
            mine = [first.read(64 * p + 8 * j, 8) for j in range(8)]
            theirs = [other.read(64 * p + 8 * j, 8) for j in range(8)]
            assert all(a != b for a, b in zip(mine, theirs))


# kills a page cached under a key its lookup never uses (the bytes stay
# right, but every read computes its page again) and a page cache shared
# by every source
def test_oracle_run_computes_each_page_once_and_keeps_no_store(monkeypatch, tmp_path):
    """`ric oracle` on the corpus at 20 trials: each page a source reads
    is computed once, by that source; no sandbox is turned into bytes;
    and every source of a chunk is gone before the next chunk starts."""
    computed = collections.Counter()  # (source serial, page) -> computations
    read = set()  # (source serial, page)
    sources = []  # weak references to every source made
    serials = itertools.count()
    chunks = []
    run_init = oracle.OracleRun.__init__

    class CountedPages(PageBytes):
        def __init__(self, key):
            super().__init__(key)
            self.serial = next(serials)
            sources.append(weakref.ref(self))

        def page(self, p):
            read.add((self.serial, p))
            if p not in self.pages:
                computed[self.serial, p] += 1
            return super().page(p)

    def materialized(self):
        raise AssertionError("a sandbox was turned into bytes")

    def checked_run(self, result, cfg):
        gc.collect()
        assert all(ref() is None for ref in sources), "a source outlived its chunk"
        chunks.append(len(sources))
        run_init(self, result, cfg)

    monkeypatch.setattr(oracle, "PageBytes", CountedPages)
    monkeypatch.setattr(MachineState, "to_bytes", materialized)
    monkeypatch.setattr(oracle.OracleRun, "__init__", checked_run)
    # one worker: the pages of a forked worker never reach these counters
    monkeypatch.setattr(pool, "workers", lambda count: 1)

    out = tmp_path / "oracle.json"
    run(["oracle", "--chunks", str(CORPUS), "--trials", "20", "--out", str(out)])

    gc.collect()
    assert len(chunks) == 64
    assert len(sources) > 1000 and all(ref() is None for ref in sources)
    assert set(computed) == read and max(computed.values()) == 1


# kills a trial generator kept per trial seed for the whole run, so that a
# chunk's draws depend on the chunks run before it
def test_chunk_entry_is_the_same_alone_and_in_the_corpus_run(tmp_path):
    whole = tmp_path / "whole.json"
    run(["oracle", "--chunks", str(CORPUS), "--trials", "20", "--out", str(whole)])
    in_corpus = {c["span"]["file"]: c for c in json.loads(whole.read_text())["chunks"]}
    records = json.loads(CORPUS.read_text(encoding="utf-8"))
    assert len(in_corpus) == len(records)
    for rec in records:
        one, out = tmp_path / "one.json", tmp_path / "alone.json"
        one.write_text(json.dumps([rec]))
        run(["oracle", "--chunks", str(one), "--trials", "20", "--out", str(out)])
        [alone] = json.loads(out.read_text())["chunks"]
        assert alone == in_corpus[rec["context"]["file"]], rec["context"]["file"]
