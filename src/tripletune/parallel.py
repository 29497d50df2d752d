"""Independent jobs on every CPU: a map over forked worker processes.

`fork_map(fn, n_jobs)` returns `[fn(0), ..., fn(n_jobs - 1)]`. With W workers,
job j runs on worker j mod W: worker 0 is the calling process, the others are
`os.fork()` children that inherit `fn` and its data, send their results back
pickled over a pipe and leave by `os._exit`. Results come back in job order, so
a caller whose jobs are deterministic gets the same bits at any W.
"""

from __future__ import annotations

import os
import pickle
import signal
import sys
import traceback
from collections.abc import Callable
from typing import TypeVar

T = TypeVar("T")


def workers() -> int:
    """How many processes `fork_map` uses: the CPUs this process may run on when it
    has exactly one OS thread, can fork and is not a multiprocessing daemon;
    otherwise 1.

    One thread means BLAS is not already spreading its products over the CPUs
    (perfbench and `OPENBLAS_NUM_THREADS=1` run it so), and that no other thread
    can hold a lock that a forked child would inherit held.
    """
    try:
        threads = len(os.listdir("/proc/self/task"))
    except OSError:   # no procfs: the thread count is unknown
        return 1
    # a multiprocessing daemon has imported multiprocessing; other processes need not
    mp = sys.modules.get("multiprocessing")
    if threads != 1 or not hasattr(os, "fork") or (mp and mp.current_process().daemon):
        return 1
    return len(os.sched_getaffinity(0))


class RemoteTraceback(Exception):
    """The traceback of a job that raised in a worker, as text: the `__cause__`
    of the exception `fork_map` re-raises."""

    def __str__(self) -> str:
        return self.args[0]


def _flush_std_streams() -> None:
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:
            stream.flush()


def _serve(fn: Callable[[int], T], jobs: range, fd: int) -> None:
    """A worker's life: run `jobs`, send (True, results, None) or (False,
    exception, traceback text) down `fd`, and exit without returning into the
    caller."""
    status = 1
    try:
        try:
            payload = pickle.dumps((True, [fn(j) for j in jobs], None), pickle.HIGHEST_PROTOCOL)
        except BaseException as exc:
            tb = traceback.format_exc()
            try:
                payload = pickle.dumps((False, exc, tb), pickle.HIGHEST_PROTOCOL)
                pickle.loads(payload)
            except Exception:   # an exception that does not survive pickling
                payload = pickle.dumps((False, ChildProcessError(
                    f"{type(exc).__name__}: {exc}"), tb), pickle.HIGHEST_PROTOCOL)
        with open(fd, "wb") as fh:
            fh.write(payload)
        status = 0
        _flush_std_streams()
    finally:
        os._exit(status)


def _collect(index: int, children: dict[int, tuple[int, int | None]]) -> list:
    """Worker `index`'s results: reads its pipe, reaps it and drops it from
    `children`, and re-raises what its jobs raised."""
    pid, fd = children[index]
    children[index] = (pid, None)   # `open` owns the descriptor from here
    with open(fd, "rb") as fh:
        payload = fh.read()
    code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    del children[index]
    if code != 0 or not payload:
        how = f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"
        raise ChildProcessError(f"fork_map worker {index} (pid {pid}) {how} "
                                "before sending its results")
    ok, value, tb = pickle.loads(payload)
    if not ok:
        raise value from RemoteTraceback(tb)
    return value


def fork_map(fn: Callable[[int], T], n_jobs: int) -> list[T]:
    """`[fn(j) for j in range(n_jobs)]`, with job j run by worker j mod `workers()`.

    The calling process runs its share first, then collects each child's in
    turn. A job that raises in a child is re-raised here with its type and
    message (its traceback is the `__cause__`); a child that dies before
    sending raises ChildProcessError naming its exit status. If the calling
    process raises, every child still running is killed and reaped first.
    """
    w = min(workers(), n_jobs)
    if w <= 1:
        return [fn(j) for j in range(n_jobs)]
    _flush_std_streams()   # or a child would write the parent's buffered output again
    children: dict[int, tuple[int, int | None]] = {}   # worker index -> (pid, read fd)
    try:
        for i in range(1, w):
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_fd)
                os.close(write_fd)
                raise
            if pid == 0:
                os.close(read_fd)
                _serve(fn, range(i, n_jobs, w), write_fd)
            os.close(write_fd)
            children[i] = (pid, read_fd)
        results: list = [None] * n_jobs
        results[0::w] = [fn(j) for j in range(0, n_jobs, w)]
        for i in range(1, w):
            results[i::w] = _collect(i, children)
        return results
    finally:
        for pid, read_fd in children.values():
            if read_fd is not None:
                os.close(read_fd)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
