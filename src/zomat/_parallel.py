"""Independent deterministic calls shared among forked worker processes.

Workers are forked, not spawned: a spawned worker imports ``__main__``
again, which re-runs a script that has no ``if __name__ == "__main__"``
guard.

Kept out of :mod:`zomat.oracle`, which imports it only when the variance
suite runs: with no bytecode cache, compiling this code as part of
``oracle.py``, or importing it with ``oracle``, raised the peak memory of
every process that imports ``oracle`` (the race benchmark among them) by
0.1 to 0.2 MB.
"""

from __future__ import annotations

import os
import pickle
from itertools import chain


def in_parallel(calls) -> list:
    """Results of the zero-argument ``calls``, in call order.

    This process and forked workers, one process per usable CPU, share the
    calls: this process runs the first one, and then every process claims
    the next unclaimed call index from a pipe filled beforehand.  Workers
    send ``(index, result)`` pickles back over a pipe of their own.  A call
    that raised, or whose worker died, is run again here after the workers
    are reaped, in call order, so an exception is the serial run's.
    Everything runs here when ``os.fork`` or ``os.sched_getaffinity`` is
    missing, when one CPU is usable, when there is one call, or when the
    indices do not fit the pipe.  What a call changes in this process's
    objects (an objective's query count) changes only in the process that
    ran it.
    """
    calls = list(calls)
    can_fork = hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
    n_workers = min(len(os.sched_getaffinity(0)), len(calls)) - 1 if can_fork else 0
    if n_workers < 1:
        return [call() for call in calls]
    claims, fill = os.pipe()
    os.set_blocking(fill, False)  # a partial write, not a hang, when the pipe is too small
    todo = b"".join(i.to_bytes(4, "little") for i in range(1, len(calls)))
    filled = os.write(fill, todo) == len(todo)
    os.close(fill)  # the emptied pipe reads as end of file
    if not filled:
        os.close(claims)
        return [call() for call in calls]

    def claimed():
        while claim := os.read(claims, 4):
            yield int.from_bytes(claim, "little")

    results, sources, pids = {}, [], []
    try:
        for _ in range(n_workers):
            source, sink = os.pipe()
            sources.append(source)
            try:
                pid = os.fork()
            except OSError:  # out of processes: fewer workers claim more calls
                os.close(sink)
                break
            if pid == 0:
                status = 1
                try:
                    for fd in sources:
                        os.close(fd)
                    with open(sink, "wb") as out:
                        for i in claimed():
                            out.write(pickle.dumps((i, calls[i]())))
                    status = 0
                finally:
                    os._exit(status)  # never return into the caller's frames
            pids.append(pid)
            os.close(sink)
        for i in chain((0,), claimed()):
            try:
                results[i] = calls[i]()
            except Exception:
                break  # raised again below, after any earlier call's exception
        for source in sources:
            with open(source, "rb", closefd=False) as stream:
                while True:
                    try:
                        i, result = pickle.load(stream)
                    except (EOFError, pickle.UnpicklingError):  # end, or a worker died mid-write
                        break
                    results[i] = result
    finally:
        for fd in (claims, *sources):
            os.close(fd)
        for pid in pids:
            os.kill(pid, 9)  # SIGKILL: a no-op for a worker that has finished
            os.waitpid(pid, 0)
    return [results[i] if i in results else calls[i]() for i in range(len(calls))]
