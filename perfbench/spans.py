"""In-memory span recorder that instruments zomat from the outside.

Each wrapped function records one span per call: name, start, end and the
span that was open when it was called.  Spans are kept in flat arrays while
the workload runs and are aggregated (calls, total time, self time) or
written out once it has finished.  Nothing under ``src/`` is edited: the
wrappers replace module and class attributes through :class:`Patches`,
which puts the originals back.
"""

from __future__ import annotations

from array import array
from time import perf_counter_ns

import numpy as np


class Patches:
    """Attribute replacements that are undone, newest first, by :meth:`restore`."""

    def __init__(self):
        self._saved = []

    def replace(self, owner, attr, make):
        """Set ``owner.attr`` to ``make(original)``, where callers look it up."""
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def restore(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()


def self_durations(parent, dur):
    """Each span's duration minus the durations of its direct child spans."""
    has_parent = parent >= 0
    return dur - np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)


class Tracer(Patches):
    def __init__(self):
        super().__init__()
        self.names = []
        self._name_ids = {}
        self._name = array("i")
        self._parent = array("i")
        self._start = array("q")
        self._end = array("q")
        self._stack = [-1]

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name, fn):
        """Return ``fn`` wrapped so that every call records a span."""
        nid = self._name_id(name)
        names, parents, starts, ends = self._name, self._parent, self._start, self._end
        stack = self._stack

        def traced(*args, **kwargs):
            sid = len(names)
            names.append(nid)
            parents.append(stack[-1])
            starts.append(0)
            ends.append(0)
            stack.append(sid)
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[sid] = perf_counter_ns()
                starts[sid] = t0
                stack.pop()

        return traced

    def patch(self, owner, attr, name):
        """Replace ``owner.attr`` by its traced form."""
        self.replace(owner, attr, lambda fn: self.wrap(name, fn))

    def arrays(self):
        return (
            np.array(self._name, dtype=np.int32),
            np.array(self._parent, dtype=np.int32),
            np.array(self._start, dtype=np.int64),
            np.array(self._end, dtype=np.int64),
        )

    def summary(self) -> dict:
        """Per span name: call count, total µs and self µs (see :func:`self_durations`)."""
        name, parent, start, end = self.arrays()
        n_names = len(self.names)
        if name.size == 0:
            return {}
        dur = (end - start).astype(np.float64)
        calls = np.bincount(name, minlength=n_names)
        total = np.bincount(name, weights=dur, minlength=n_names)
        self_ = np.bincount(name, weights=self_durations(parent, dur), minlength=n_names)
        return {
            label: {
                "calls": int(calls[i]),
                "us": float(total[i]) / 1e3,
                "self_us": float(self_[i]) / 1e3,
            }
            for i, label in enumerate(self.names)
        }

    def write(self, path):
        name, parent, start, end = self.arrays()
        t0 = int(start.min()) if start.size else 0
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=name,
            parent=parent,
            start_ns=start - t0,
            end_ns=end - t0,
        )
