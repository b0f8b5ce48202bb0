"""Trial random streams: TrialRandom against random.Random(seed), word for
word, and the bounds of what one `ric oracle` run generates and keeps."""

import collections
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ric import oracle
from ric.cli import run
from ric.oracle import BLOCK, MachineState, TrialRandom, WordStream

from conftest import CORPUS

_SEEDS = st.integers(0, 2**52)

_DRAWS = st.lists(
    st.one_of(
        st.tuples(st.just("bits"), st.just(0)),
        st.tuples(st.just("bits"), st.integers(1, 32)),
        st.tuples(st.just("bits"), st.integers(33, 64)),
        st.tuples(st.just("bits"), st.integers(65, 3 * 32 * BLOCK).filter(lambda k: k % 32)),
        st.tuples(st.just("bits"), st.sampled_from((32 * (BLOCK - 1), 32 * BLOCK))),
        st.tuples(st.just("choice"), st.integers(1, 300)),
        st.tuples(st.just("randrange"), st.integers(1, 2**70)),
        st.tuples(st.just("random"), st.just(0)),
        st.tuples(st.just("window"), st.integers(1, 4 * BLOCK + 7)),
    ),
    max_size=25,
)


def _draw(rng, op, arg):
    """One draw, on a TrialRandom or a random.Random; a window is drawn
    as randbytes would draw it."""
    if op == "bits":
        return rng.getrandbits(arg)
    if op == "choice":
        return rng.choice(range(arg))
    if op == "randrange":
        return rng.randrange(arg // 3, arg)
    if op == "random":
        return rng.random()
    if isinstance(rng, TrialRandom):
        return rng.window(arg)
    return rng.randbytes(arg)


def _check_window(window, want, offsets):
    """Loads of the window at the given offsets, then the whole window."""
    n = len(want)
    for off, size in offsets:
        off %= n
        size = min(size, n - off)
        assert window.read(off, size) == int.from_bytes(want[off : off + size], "little")
    assert window.read(0, n).to_bytes(n, "little") == want


_LOADS = st.lists(st.tuples(st.integers(0, 10**6), st.sampled_from((1, 2, 4, 8, 16))), max_size=6)


@settings(max_examples=300, deadline=None)
@given(_SEEDS, _DRAWS, _LOADS)
@example(0, [("window", 65536), ("bits", 64), ("choice", 4)], [(65535, 1), (1000, 16)])
@example(1, [("bits", 32 * (BLOCK - 1)), ("bits", 64), ("bits", 33)], [])
@example(2, [("bits", 32 * BLOCK - 5), ("bits", 1), ("bits", 40)], [])
def test_trial_random_matches_random(seed, draws, loads):
    """Interleaved getrandbits of every width class, choice, randrange,
    random and randbytes-shaped windows, across block boundaries."""
    mine, ref = TrialRandom(seed, {}), random.Random(seed)
    windows = []
    for op, arg in draws:
        got, want = _draw(mine, op, arg), _draw(ref, op, arg)
        if op == "window":
            windows.append((got, want))
        else:
            assert got == want, (op, arg)
    # the draws after a window already passed it: read it only now
    for window, want in windows:
        _check_window(window, want, loads)


@settings(max_examples=150, deadline=None)
@given(_SEEDS, _DRAWS, _DRAWS, st.lists(st.booleans(), max_size=50), _LOADS)
def test_two_readers_share_one_store(seed, draws1, draws2, turns, loads):
    store = {}
    readers = [
        (TrialRandom(seed, store), random.Random(seed), list(draws1)),
        (TrialRandom(seed, store), random.Random(seed), list(draws2)),
    ]
    windows = []
    for turn in turns + [False] * len(draws1) + [True] * len(draws2):
        mine, ref, todo = readers[turn]
        if not todo:
            continue
        op, arg = todo.pop(0)
        got, want = _draw(mine, op, arg), _draw(ref, op, arg)
        if op == "window":
            windows.append((got, want))
        else:
            assert got == want, (turn, op, arg)
    assert list(store) == [seed]
    for window, want in reversed(windows):
        _check_window(window, want, loads)


def test_dropped_block_is_regenerated_from_the_seed():
    seed = 12345
    ref = random.Random(seed).getrandbits(32 * BLOCK * 8)
    want = [(ref >> (32 * BLOCK * b)) & ((1 << (32 * BLOCK)) - 1) for b in range(8)]
    stream = WordStream(seed)

    def block(b):
        return int.from_bytes(stream.block(b).tobytes(), "little")

    assert block(5) == want[5]  # passes blocks 0-4 without keeping them
    assert sorted(stream.kept) == [5]
    assert block(2) == want[2]  # behind the forward generator: regenerated
    assert block(6) == want[6]  # the forward generator was not reset
    assert block(0) == want[0]
    assert block(7) == want[7]
    assert sorted(stream.kept) == [0, 2, 5, 6, 7]


def test_window_tail_bytes_come_from_the_last_words_high_bits():
    for n in (1, 2, 3, 5, 6, 7, 4 * BLOCK + 3):
        rng = TrialRandom(7, {})
        window = rng.window(n)
        after = rng.getrandbits(32)
        ref = random.Random(7)
        assert window.read(0, n).to_bytes(n, "little") == ref.randbytes(n)
        assert after == ref.getrandbits(32)
        top = random.Random(7).getrandbits(32 * ((n + 3) // 4)) >> (32 * ((n - 1) // 4))
        assert window.read(n - 1, 1) == top >> 24


def test_state_access_and_reseeding_raise():
    rng = TrialRandom(3, {})
    for call in (rng.getstate, lambda: rng.setstate(None), lambda: rng.seed(4)):
        with pytest.raises(TypeError):
            call()
    with pytest.raises(ValueError):
        rng.getrandbits(-1)
    assert rng.getrandbits(0) == 0
    ref = random.Random(3)
    assert [rng.random() for _ in range(5)] == [ref.random() for _ in range(5)]


def test_sandbox_reads_a_window_lazily():
    m = MachineState(4096)
    rng = TrialRandom(9, {})
    m.mem = rng.window(4096)
    want = random.Random(9).randbytes(4096)
    assert m.load(oracle.SANDBOX_BASE + 4090, 4) == int.from_bytes(want[4090:4094], "little")
    assert m.to_bytes() == want


def test_oracle_run_builds_no_sandbox_sized_integer(monkeypatch, tmp_path):
    """`ric oracle` on the corpus at 20 trials: one store for the run,
    every stream read is a few words, no sandbox is turned into bytes,
    and a block is generated again only when a read needs a block that
    the seed's forward generator passed."""
    generated = collections.Counter()  # (seed, block) -> times generated
    twisters = collections.Counter()  # seed -> generators created
    widest, stores = [], []
    advance, init = oracle._Twister.advance, oracle._Twister.__init__
    bits, run_init = WordStream.bits, oracle.OracleRun.__init__

    def counted_advance(self):
        generated[(self.seed, self.next)] += 1
        return advance(self)

    def counted_init(self, seed):
        twisters[seed] += 1
        init(self, seed)

    def recorded_bits(self, pos, k):
        widest.append(k)
        return bits(self, pos, k)

    def materialized(self):
        raise AssertionError("a sandbox was turned into bytes")

    def recorded_run(self, result, cfg, streams=None):
        run_init(self, result, cfg, streams)
        stores.append(self.streams)

    monkeypatch.setattr(oracle._Twister, "advance", counted_advance)
    monkeypatch.setattr(oracle._Twister, "__init__", counted_init)
    monkeypatch.setattr(WordStream, "bits", recorded_bits)
    monkeypatch.setattr(MachineState, "to_bytes", materialized)
    monkeypatch.setattr(oracle.OracleRun, "__init__", recorded_run)

    out = tmp_path / "oracle.json"
    run(["oracle", "--chunks", str(CORPUS), "--trials", "20", "--out", str(out)])

    streams = stores[0]
    assert len(stores) == 64 and all(s is streams for s in stores)
    assert len(streams) == 20  # one stream per trial seed
    assert max(widest) <= 8 * 16  # a 16-byte load at most
    for seed, stream in streams.items():
        regenerations = twisters[seed] - 1
        assert regenerations <= len(stream.kept)
        per_block = [n for (s, _), n in generated.items() if s == seed]
        assert max(per_block) <= 1 + regenerations
        # two 64 KiB sandboxes span 53 blocks; few of them are read
        assert len(per_block) <= 60
        assert len(stream.kept) <= 12
