"""Forked helper processes: a batch of independent calls shared among CPUs,
and a ring of rows that one helper fills ahead of this process.

Helpers are forked, not spawned: a spawned one imports ``__main__`` again,
which re-runs a script that has no ``if __name__ == "__main__"`` guard.
Every helper, a batch's worker or a ring's, starts, leaves this process's
CPU, exits and is reaped the same way (:func:`_fork`, :func:`_reap`).  Each
does only deterministic work whose result does not depend on which process
made it, so output is the same on one CPU (``taskset -c 0``), where nothing
is forked, as on many.  A ring's helper runs in the scheduler's idle class
(``SCHED_IDLE``, sched(7)), so it gets only CPU time that no other process
wants, and its caller never waits for it.
"""

from __future__ import annotations

import contextlib
import mmap
import os
import pickle
import signal

#: Bytes a :class:`Ring` may map, about 1 MB: the pages its rows touch count
#: toward the peak memory of this process as well as the helper's.
RING_BYTES = 1 << 20
#: Passes of a ring helper's busy wait between two ``os.sched_yield()`` calls
_SPINS = 64
#: Start of the ring's rows.  The counters before them are int64 indices of
#: the map: the helper's (items filled) on one cache line, this process's
#: (items done, the item it took) on another
_HEADER = 128
_FILLED, _DONE, _TAKEN = 0, 8, 9
#: Whether this CPU keeps stores and loads in program order, which the
#: ring's plain counters need (x86)
_X86 = hasattr(os, "uname") and os.uname().machine in ("x86_64", "amd64", "i386", "i686")


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


class Ring:
    """Rows of a shared anonymous memory map that one forked helper process
    fills, in item order, ahead of this process.

    The helper calls ``fill(i, j, row)`` for items i = 0, 1, ..., with j =
    i mod :attr:`n_rows` and ``row`` the bytes of ring row j, and counts the
    items it has filled; :meth:`wait` counts the items this process is done
    with.  So the helper runs at most ``n_rows`` items ahead and never
    writes a row that is being read.  The helper runs in the idle
    scheduling class, so it cannot crowd this process or any other, and
    this process never waits for it: finding item i unfilled, it takes item
    i + 1, which it makes itself and the helper skips, and makes item i too
    unless the helper filled it meanwhile.  The helper also skips every
    item this process has passed, so a helper that lags catches up.  While
    the ring is full the helper spins on the counters, yielding its CPU
    every ``_SPINS`` passes, and exits once its parent has changed (this
    process died), which it also checks once per lap of the ring.  The
    counters are plain stores, which only a CPU that keeps stores and loads
    in program order (x86) makes safe to read across processes, so
    elsewhere no helper starts.  The map is unmapped once no view of a row
    is left.
    """

    def __init__(self, n_rows, row_bytes, n_items):
        self.n_rows = n_rows
        self._row_bytes = row_bytes
        self._n_items = n_items
        self._map = mmap.mmap(-1, _HEADER + n_rows * row_bytes)
        self._counts = memoryview(self._map)[:_HEADER].cast("q")
        self._counts[_TAKEN] = -1
        self._pid = 0
        self._next = 0

    @classmethod
    def start(cls, fill, n_items: int, row_bytes: int):
        """A ring whose helper fills ``n_items`` items of ``row_bytes`` each,
        or None where none can start: without ``os.fork`` or the idle
        scheduling class (Linux has both), with fewer than two usable CPUs,
        off x86, for fewer than two items or when fewer than two rows fit in
        :data:`RING_BYTES`, or when the fork fails.  A ring may start inside
        an :func:`in_parallel` worker, whose batch then leaves its helper
        only the CPU time it does not use."""
        n_rows = min(n_items, RING_BYTES // row_bytes)
        if not _X86 or not hasattr(os, "SCHED_IDLE") or n_rows < 2 or _usable_cpus() < 2:
            return None
        ring = cls(n_rows, row_bytes, n_items)
        ring._pid = _fork(ring._fill, fill, os.getpid())
        return ring if ring._pid else None

    def row(self, j: int) -> memoryview:
        """The bytes of ring row j."""
        start = _HEADER + j * self._row_bytes
        return memoryview(self._map)[start : start + self._row_bytes]

    def _fill(self, fill, parent):
        # a helper that cannot leave the normal class exits (through _fork's
        # os._exit(1)), and this process makes every item itself
        os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
        counts, spins = self._counts, 0
        for i in range(self._n_items):
            j = i % self.n_rows
            if j == 0 and os.getppid() != parent:  # once a lap, for a helper that never waits
                return
            while i - counts[_DONE] >= self.n_rows:
                spins += 1
                if spins % _SPINS == 0:
                    os.sched_yield()
                    if os.getppid() != parent:
                        return
            if i != counts[_TAKEN] and i >= counts[_DONE]:  # else this process makes item i
                fill(i, j, self.row(j))
            counts[_FILLED] = i + 1

    def wait(self, i: int, take):
        """Ring row holding item i if the helper has filled it, marking the
        items before i done.  Finding item i unfilled, this process first
        calls ``take(i + 1)`` to make the next item itself, and the helper
        skips it; the row is returned if the helper filled item i
        meanwhile.  None for an item that this process makes: one still
        unfilled, one it took, and one that is not the one after the last
        asked for.  If the helper had started an item before this process
        took or passed it, both make it, and only this one's is read."""
        if i != self._next:
            return None
        self._next += 1
        counts = self._counts
        counts[_DONE] = i
        if counts[_TAKEN] == i:
            return None
        if counts[_FILLED] <= i and i + 1 < self._n_items:
            counts[_TAKEN] = i + 1
            take(i + 1)
        return i % self.n_rows if counts[_FILLED] > i else None

    def close(self):
        """Stop the helper, if it still runs, and reap it."""
        if self._pid:
            _reap(self._pid)
            self._pid = 0
