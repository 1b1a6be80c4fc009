"""Independent deterministic calls shared among forked worker processes.

Workers are forked, not spawned: a spawned worker imports ``__main__``
again, which re-runs a script that has no ``if __name__ == "__main__"``
guard.
"""

from __future__ import annotations

import os
import pickle


def in_parallel(calls) -> list:
    """Results of the zero-argument ``calls``, in call order.

    With n processes, one per usable CPU, process j runs calls j, j + n,
    j + 2n, ...: this process is process 0, and the others are forked
    workers, each of which sends all its results at once, pickled as one
    ``{index: result}`` dict, over a pipe of its own.  So this process's
    share is fixed by the CPU count, and a worker whose results exceed the
    pipe's buffer waits for this process, not the other way round.  A call
    that raised, or whose worker died, is run again here after the workers
    are reaped, in call order, so an exception is the serial run's.
    Everything runs here when ``os.fork`` or ``os.sched_getaffinity`` is
    missing, when one CPU is usable, or when there is one call.  What a
    call changes in this process's objects (an objective's query count)
    changes only in the process that ran it.
    """
    calls = list(calls)
    can_fork = hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
    n = min(len(os.sched_getaffinity(0)), len(calls)) if can_fork else 1
    if n < 2:
        return [call() for call in calls]
    results, sources, pids = {}, [], []
    try:
        for j in range(1, n):
            source, sink = os.pipe()
            sources.append(source)
            try:
                pid = os.fork()
            except OSError:  # out of processes: this process runs the rest
                os.close(sink)
                break
            if pid == 0:
                status = 1
                try:
                    for fd in sources:
                        os.close(fd)
                    with open(sink, "wb") as out:
                        pickle.dump({i: calls[i]() for i in range(j, len(calls), n)}, out)
                    status = 0
                finally:
                    os._exit(status)  # never return into the caller's frames
            pids.append(pid)
            os.close(sink)
        for i in range(0, len(calls), n):
            try:
                results[i] = calls[i]()
            except Exception:
                break  # raised again below, after any earlier call's exception
        for source in sources:
            with open(source, "rb", closefd=False) as stream:
                try:
                    results.update(pickle.load(stream))
                except (EOFError, pickle.UnpicklingError):  # a worker that raised or died
                    pass
    finally:
        for fd in sources:
            os.close(fd)
        for pid in pids:
            os.kill(pid, 9)  # SIGKILL: a no-op for a worker that has finished
            os.waitpid(pid, 0)
    return [results[i] if i in results else calls[i]() for i in range(len(calls))]
