"""`ric oracle` on forked workers (ric.pool): reports identical at every
worker count, failures that end the run, and no child left behind.

The first pieces are dealt one to each forked worker, in order, before
the caller takes one; so with two workers the forked one takes chunk 0.
The tests below rely on that, not on timing, to put a chunk in a child."""

import hashlib
import os

import pytest

from ric import cli, pool
from ric.cli import run
from ric.errors import RicError

from conftest import CORPUS
from test_cli import CLEAN_SRC, FAULTY_SRC, write
from test_oracle import TRIAL_STREAM_SHA256

TWO_CHUNKS = CLEAN_SRC + FAULTY_SRC.replace("int f(", "int f2(")


@pytest.fixture(autouse=True)
def no_child_left():
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def pin(monkeypatch, n):
    monkeypatch.setattr(pool, "workers", lambda count: min(n, count))


@pytest.mark.parametrize("seed,trials", [(0, 20), (3, 50)])
def test_reports_are_the_same_at_one_and_two_workers(tmp_path, monkeypatch, seed, trials):
    monkeypatch.delenv("RIC_TIMINGS", raising=False)
    reports = []
    for n in (1, 2):
        pin(monkeypatch, n)
        out = tmp_path / f"oracle{n}.json"
        argv = ["oracle", "--chunks", str(CORPUS), "--seed", str(seed), "--trials", str(trials)]
        assert run(argv + ["--out", str(out)]) == 1
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]
    if (seed, trials) == (0, 20):
        assert hashlib.sha256(reports[0]).hexdigest() == TRIAL_STREAM_SHA256


def in_a_worker(monkeypatch, fail):
    """Make cli.check_chunk call fail() first in a forked worker only."""
    parent, check_chunk = os.getpid(), cli.check_chunk

    def checked(chunk, **kwargs):
        if os.getpid() != parent:
            fail()
        return check_chunk(chunk, **kwargs)

    monkeypatch.setattr(cli, "check_chunk", checked)


def test_ric_error_in_a_worker_ends_the_run(tmp_path, monkeypatch, capsys):
    pin(monkeypatch, 2)

    def fail():
        raise RicError("broken analysis")

    in_a_worker(monkeypatch, fail)
    out = tmp_path / "report.json"
    assert run(["oracle", "--trials", "5", "--out", str(out), write(tmp_path, "g.c", TWO_CHUNKS)]) == 2
    assert "ric: error: broken analysis" in capsys.readouterr().err
    assert not out.exists()


def test_crash_in_a_worker_is_an_error_entry_and_a_line(tmp_path, monkeypatch, capsys):
    pin(monkeypatch, 2)

    def fail():
        raise RecursionError("maximum recursion depth exceeded")

    in_a_worker(monkeypatch, fail)
    out = tmp_path / "report.json"
    path = write(tmp_path, "g.c", TWO_CHUNKS)
    assert run(["oracle", "--trials", "5", "--out", str(out), path]) == 1
    assert "g.c:2: internal error: RecursionError: " in capsys.readouterr().err
    assert '"details": "internal error: RecursionError: ' in out.read_text()


@pytest.mark.parametrize(
    "fail,named",
    [(lambda: os._exit(3), "exited with status 3"), (lambda: os.kill(os.getpid(), 9), "killed by signal 9")],
    ids=["exit", "signal"],
)
def test_a_worker_that_dies_ends_the_run_naming_it(tmp_path, monkeypatch, capsys, fail, named):
    pin(monkeypatch, 2)
    in_a_worker(monkeypatch, fail)
    out = tmp_path / "report.json"
    assert run(["oracle", "--trials", "5", "--out", str(out), write(tmp_path, "g.c", TWO_CHUNKS)]) == 2
    err = capsys.readouterr().err
    assert "ric: error: worker 1 (pid " in err and named in err
    assert not out.exists()


def test_one_chunk_forks_nothing(tmp_path, monkeypatch):
    forks = []
    fork = os.fork

    def counted():
        forks.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    out = tmp_path / "report.json"
    assert run(["oracle", "--trials", "5", "--out", str(out), write(tmp_path, "g.c", CLEAN_SRC)]) == 0
    assert forks == []
    pin(monkeypatch, 2)
    assert run(["oracle", "--trials", "5", "--out", str(out), write(tmp_path, "h.c", TWO_CHUNKS)]) == 1
    assert forks == [1]


def test_more_pieces_than_the_handout_pipe_holds(monkeypatch):
    # 40 000 indices are 160 000 bytes, more than a pipe holds at once
    pin(monkeypatch, 2)
    assert list(pool.in_order(40_000, lambda i: i * i)) == [i * i for i in range(40_000)]


def test_results_come_in_order_up_to_the_first_ric_error(monkeypatch):
    pin(monkeypatch, 2)
    seen = []

    def work(i):
        if i == 3:
            raise RicError("piece 3")
        return i

    with pytest.raises(RicError, match="piece 3"):
        for value in pool.in_order(6, work):
            seen.append(value)
    assert seen == [0, 1, 2]
