"""Forked worker processes: a batch of independent calls shared among CPUs.

Workers are forked, not spawned: a spawned one imports ``__main__`` again,
which re-runs a script that has no ``if __name__ == "__main__"`` guard.
Every worker starts, leaves this process's CPU, exits and is reaped the same
way (:func:`_fork`, :func:`_reap`).  Each does only deterministic work whose
result does not depend on which process made it, so output is the same on
one CPU (``taskset -c 0``), where nothing is forked, as on many.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import signal


def _usable_cpus() -> int:
    """CPUs this process may run on, or 1 when it cannot fork or ask."""
    if hasattr(os, "fork") and hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return 1


def _this_cpu():
    """The CPU this process runs on (field 39 of ``/proc/self/stat``), or
    None where that cannot be read."""
    try:
        with open("/proc/self/stat", "rb") as fh:
            return int(fh.read().rsplit(b")", 1)[1].split()[36])
    except (OSError, ValueError, IndexError):
        return None


def _fork(body, *args):
    """Pid of a forked child that calls ``body(*args)`` and exits, never
    returning into the caller's frames; None when the fork fails.  The child
    first leaves this process's CPU, where a busy child and parent stayed for
    up to 1.4 s on a two-CPU VM: it narrows its affinity to the mask without
    that CPU, then restores the mask for the scheduler."""
    cpu = _this_cpu()
    try:
        pid = os.fork()
    except OSError:  # out of processes: the caller does the work itself
        return None
    if pid:
        return pid
    try:
        cpus = os.sched_getaffinity(0)
        if cpu in cpus and len(cpus) > 1:
            with contextlib.suppress(OSError):  # a CPU of the mask it may not use
                os.sched_setaffinity(0, cpus - {cpu})
                os.sched_setaffinity(0, cpus)
        body(*args)
        os._exit(0)
    finally:
        os._exit(1)  # body raised


def _reap(pid):
    """Stop the forked child ``pid`` if it still runs, and reap it."""
    os.kill(pid, signal.SIGKILL)  # a no-op for a child that has exited
    os.waitpid(pid, 0)


def in_parallel(calls) -> list:
    """Results of the zero-argument ``calls``, in call order.

    With n processes, one per usable CPU, process j runs calls j, j + n,
    j + 2n, ...: this process is process 0, and the others are workers that
    :func:`_fork` moves off this process's CPU, each of which sends all its
    results at once, pickled as one ``{index: result}`` dict, over a pipe of
    its own.  So this process's share is fixed by the CPU count, and a
    worker whose results exceed the pipe's buffer waits for this process,
    not the other way round.  A call that raised, or whose worker died, is
    run again here after the workers are reaped, in call order, so an
    exception is the serial run's.  Everything runs here when ``os.fork``
    or ``os.sched_getaffinity`` is missing, when one CPU is usable, or when
    there is one call.  What a call changes in this process's objects (an
    objective's query count) changes only in the process that ran it.
    """
    calls = list(calls)
    n = min(_usable_cpus(), len(calls))
    if n < 2:
        return [call() for call in calls]
    results, sources, pids = {}, [], []

    def work(j, sink):  # in worker j
        for fd in sources:  # so a worker whose caller died gets EPIPE, not a wait
            os.close(fd)
        with open(sink, "wb") as out:
            pickle.dump({i: calls[i]() for i in range(j, len(calls), n)}, out)

    try:
        for j in range(1, n):
            source, sink = os.pipe()
            sources.append(source)
            pid = _fork(work, j, sink)
            os.close(sink)
            if pid is None:  # out of processes: this process runs the rest
                break
            pids.append(pid)
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
            _reap(pid)
    return [results[i] if i in results else calls[i]() for i in range(len(calls))]

