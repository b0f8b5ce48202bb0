"""Independent pieces of work spread over forked worker processes.

`in_order(count, work)` gives work(i) for i in range(count), in order.
There is one worker per CPU the process may run on, at most one per
piece; the calling process is one of them, so a run with one worker
forks nothing and runs the same loop. The first pieces are dealt one to
each worker (the forked ones first, then the caller), and the rest are
handed out one at a time, as workers come free, through a pipe of
4-byte indices. Each forked worker sends its results back at the end,
with `marshal`, and prints nothing: the caller alone yields results,
so whatever they print comes out in input order.
"""

from __future__ import annotations

import gc
import marshal
import os
import sys

from .errors import RicError

_INDEX = 4  # bytes per index in the handout pipe
_BLOCK = 1024  # indices per write: 4 096 bytes, at most PIPE_BUF, so atomic


def workers(count):
    """How many processes share `count` pieces: one per CPU in this
    process's affinity mask, at most one per piece."""
    return min(len(os.sched_getaffinity(0)), count)


def in_order(count, work):
    """work(i) for i in range(count), in order. A RicError raised by a
    piece is raised in its place, after the results before it; every
    piece is still run, and every forked worker is reaped before the
    first result is given. A forked worker's results must be values
    `marshal` writes."""
    if not count:
        return
    n = workers(count)
    if n > 1:
        sys.stdout.flush()
        sys.stderr.flush()
    handout = _Handout(n, count)
    children = []  # (pid, read end of its result pipe)
    mine = {}  # piece -> result, of every worker once reaped
    try:
        if n > 1:
            gc.freeze()  # a worker's collector then leaves the caller's objects alone
        for first in range(n - 1):
            results = os.pipe()
            pid = os.fork()
            if pid == 0:
                _worker(work, first, handout.pipe, results)  # never returns
            os.close(results[1])
            children.append((pid, results[0]))
        handout.fill()
        mine.update(_serve(work, n - 1, handout))
    finally:
        gc.unfreeze()
        handout.close()
        failure = _reap(children, mine)
    if failure:
        raise RicError(failure)
    for i in range(count):
        value = mine[i]
        if isinstance(value, RicError):
            raise value
        yield value


def _attempt(work, i):
    """work(i), or the RicError it raised, kept in the piece's place."""
    try:
        return work(i)
    except RicError as e:
        return e


def _serve(work, first, take):
    """(i, result) of each piece this worker takes: `first`, then what
    take() hands out until it says None."""
    i = first
    while i is not None:
        yield i, _attempt(work, i)
        i = take()


class _Handout:
    """The caller's side of the handout of pieces n..count-1 among n
    workers, through a pipe when n > 1. fill() writes pieces to the
    pipe while it has room, without blocking, and the caller takes the
    next piece not yet written before it reads the pipe, so no one
    waits on a full pipe. The write end closes once the last piece is
    written, so every reader sees the end."""

    def __init__(self, n, count):
        self.next, self.count = n, count
        self.pipe = os.pipe() if n > 1 else None
        if self.pipe:
            os.set_blocking(self.pipe[1], False)

    def fill(self):
        if not self.pipe or self.pipe[1] is None:
            return
        while self.next < self.count:
            stop = min(self.next + _BLOCK, self.count)
            data = b"".join(i.to_bytes(_INDEX, "little") for i in range(self.next, stop))
            try:
                os.write(self.pipe[1], data)
            except BlockingIOError:
                return
            self.next = stop
        os.close(self.pipe[1])
        self.pipe = (self.pipe[0], None)

    def __call__(self):
        self.fill()
        if self.next < self.count:
            self.next += 1
            return self.next - 1
        return _read_index(self.pipe[0]) if self.pipe else None

    def close(self):
        for fd in self.pipe or ():
            if fd is not None:
                os.close(fd)
        self.pipe = None


def _read_index(fd):
    data = os.read(fd, _INDEX)
    return int.from_bytes(data, "little") if data else None


def _worker(work, first, handout, results):
    """A forked worker: piece `first`, then pieces from the handout pipe
    until it ends; then all its results, marshalled, down its result
    pipe. It leaves only through os._exit, so nothing of the caller's
    stack runs on in it."""
    status = 1
    try:
        os.close(handout[1])  # else the last read never sees the end
        os.close(results[0])
        out = []
        for i, value in _serve(work, first, lambda: _read_index(handout[0])):
            raised = isinstance(value, RicError)
            out.append((i, raised, str(value) if raised else value))
        with os.fdopen(results[1], "wb") as f:
            f.write(marshal.dumps(out))
        status = 0
    finally:
        os._exit(status)


def _reap(children, mine):
    """Read each child's results into `mine` and wait for it; the name
    of the first child that failed, or None."""
    failure = None
    for k, (pid, fd) in enumerate(children, 1):
        with os.fdopen(fd, "rb") as f:
            data = f.read()
        _, status = os.waitpid(pid, 0)
        code = os.waitstatus_to_exitcode(status)
        if code != 0:
            if failure is None:
                how = f"killed by signal {-code}" if code < 0 else f"exited with status {code}"
                failure = f"worker {k} (pid {pid}) {how}"
            continue
        for i, raised, value in marshal.loads(data):
            mine[i] = RicError(value) if raised else value
    return failure
