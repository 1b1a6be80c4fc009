"""Forked helper processes: a batch of independent calls shared among CPUs,
and a ring of rows that one helper fills ahead of this process.

Helpers are forked, not spawned: a spawned one imports ``__main__`` again,
which re-runs a script that has no ``if __name__ == "__main__"`` guard.
Every helper, a batch's worker or a ring's, starts, leaves this process's
CPU, exits and is reaped the same way (:func:`_fork`, :func:`_reap`).  Each
does only deterministic work whose result does not depend on which process
made it, so output is the same on one CPU (``taskset -c 0``), where nothing
is forked, as on many.  One rule keeps helpers from crowding the CPUs: a
ring whose sides do not each get most of a CPU stops (:func:`_starved`),
whether the other load is a batch's workers or anything else.
"""

from __future__ import annotations

import contextlib
import mmap
import os
import pickle
import signal
import time

#: Bytes a :class:`Ring` may map, about 1 MB: the pages its rows touch count
#: toward the peak memory of this process as well as the helper's.
RING_BYTES = 1 << 20
#: Passes of a busy wait between two ``os.sched_yield()`` calls
_SPINS = 64
#: Seconds of wall time over which each side of a :class:`Ring` measures the
#: share of a CPU it got (:func:`_starved`)
_WINDOW = 0.1
#: Share of a CPU below which a side of a :class:`Ring` stops it.  On a
#: two-CPU VM, a forked process and its parent, both spinning, each got at
#: least 0.9 of a CPU in every 0.1-s window (304 windows); with a third busy
#: process each got 0.5-0.7.  There, two race runs at once, each with a
#: helper that never stopped, took 20% longer than two runs without one.
_MIN_SHARE = 0.75
#: Seconds after a :class:`Ring` stopped early during which no other starts,
#: so a process whose CPUs stay shared stops a ring every few seconds, not
#: one per optimizer run
_BACKOFF = 10.0
#: ``time.perf_counter()`` before which no :class:`Ring` starts
_resume = 0.0
#: Start of the ring's rows; the two counters before them sit on cache lines
#: of their own (int64 indices 0 and 8 of the map)
_HEADER = 128
_FILLED, _DONE = 0, 8
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


def _clocks() -> list:
    return [time.perf_counter(), time.thread_time()]


def _starved(mark: list) -> bool:
    """Whether this thread ran for less than :data:`_MIN_SHARE` of the wall
    time since ``mark``, a ``[wall, cpu]`` pair of clock readings that moves
    on each time :data:`_WINDOW` has passed; False within a window."""
    wall = time.perf_counter()
    if wall - mark[0] < _WINDOW:
        return False
    cpu = time.thread_time()
    share = (cpu - mark[1]) / (wall - mark[0])
    mark[:] = wall, cpu
    return share < _MIN_SHARE


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
    writes a row that is being read.  Both sides wait by spinning on the two
    counters: waking a blocked process cost about 2 ms on a two-CPU VM,
    more than most optimizer steps.  Every ``_SPINS`` passes each side
    yields its CPU, so a machine with more processes than CPUs still
    progresses, and looks at the other side: the helper exits once its
    parent has changed (this process died), which it also checks once per
    lap of the ring, and :meth:`wait` reports a helper that died before it
    filled the item.  Spinning only pays while each side has a CPU to
    itself, so each also measures, once a lap and at each yield, the share
    of a CPU it got over the last :data:`_WINDOW` seconds; below
    :data:`_MIN_SHARE` the ring stops (the helper exits, or this process
    stops it), the caller makes the remaining items itself, and no other
    ring starts for :data:`_BACKOFF` seconds.  The counters are plain
    stores, which only a CPU that keeps stores and loads in program order
    (x86) makes safe to read across processes, so elsewhere no helper
    starts.  The map is unmapped once no view of a row is left.
    """

    def __init__(self, n_rows, row_bytes):
        self.n_rows = n_rows
        self._row_bytes = row_bytes
        self._map = mmap.mmap(-1, _HEADER + n_rows * row_bytes)
        self._counts = memoryview(self._map)[:_HEADER].cast("q")
        self._pid = 0
        self._next = 0
        self._mark = _clocks()

    @classmethod
    def start(cls, fill, n_items: int, row_bytes: int):
        """A ring whose helper fills ``n_items`` items of ``row_bytes`` each,
        or None where none can start: without ``os.fork``, with fewer than
        two usable CPUs, off x86, for fewer than two items or when fewer than
        two rows fit in :data:`RING_BYTES`, within :data:`_BACKOFF` seconds
        of a ring that stopped early, or when the fork fails.  A ring may
        start inside an :func:`in_parallel` worker; if the batch leaves its
        sides less than :data:`_MIN_SHARE` of a CPU, it stops as any starved
        ring does."""
        n_rows = min(n_items, RING_BYTES // row_bytes)
        if not _X86 or n_rows < 2 or _usable_cpus() < 2 or time.perf_counter() < _resume:
            return None
        ring = cls(n_rows, row_bytes)
        ring._pid = _fork(ring._fill, fill, n_items, os.getpid())
        return ring if ring._pid else None

    def row(self, j: int) -> memoryview:
        """The bytes of ring row j."""
        start = _HEADER + j * self._row_bytes
        return memoryview(self._map)[start : start + self._row_bytes]

    def _fill(self, fill, n_items, parent):
        counts, spins, mark = self._counts, 0, _clocks()
        for i in range(n_items):
            j = i % self.n_rows
            # once a lap, for a helper that never waits
            if j == 0 and (os.getppid() != parent or _starved(mark)):
                return
            while i - counts[_DONE] >= self.n_rows:
                spins += 1
                if spins % _SPINS == 0:
                    os.sched_yield()
                    if os.getppid() != parent or _starved(mark):
                        return
            fill(i, j, self.row(j))
            counts[_FILLED] = i + 1

    def wait(self, i: int):
        """Ring row holding item i once the helper has filled it, marking the
        items before i done; None once the ring has stopped (the helper died
        before filling an item asked for, or this process, which looks once
        a lap, was starved and stopped it), and when i is not the item after
        the last one asked for."""
        if i != self._next or not self._pid:
            return None
        if i % self.n_rows == 0 and _starved(self._mark):
            return self._stop()
        self._next += 1
        counts, spins = self._counts, 0
        counts[_DONE] = i
        while counts[_FILLED] <= i:
            spins += 1
            if spins % _SPINS == 0:
                os.sched_yield()
                if os.waitpid(self._pid, os.WNOHANG)[0]:  # exited, and reaped
                    self._pid = 0
                    if counts[_FILLED] <= i:  # not a helper that filled i, then exited
                        return self._stop()
        return i % self.n_rows

    def _stop(self):
        """Stop the helper before it filled every item, and keep other rings
        from starting for :data:`_BACKOFF` seconds; None, as :meth:`wait`
        returns for an item that this process makes itself."""
        global _resume
        self.close()
        _resume = time.perf_counter() + _BACKOFF

    def close(self):
        """Stop the helper, if it still runs, and reap it."""
        if self._pid:
            _reap(self._pid)
            self._pid = 0
