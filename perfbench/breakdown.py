#!/usr/bin/env python3
"""Per-run layer costs from a spans file written by ``run.py --trace 1``.

    python3 perfbench/breakdown.py perfbench/out/spans-race-0.npz

Every span is attributed to its outermost ``optimizers.run`` ancestor (one
optimizer run, in the order the workload ran them).  For each run the table
lists, per span name, the calls, the µs per call and the self µs per call.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from spans import self_durations

ROOT_SPAN = "optimizers.run"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("spans")
    args = parser.parse_args(argv)

    data = np.load(args.spans)
    names = [str(n) for n in data["names"]]
    name, parent = data["name"], data["parent"]
    dur = (data["end_ns"] - data["start_ns"]).astype(float) / 1e3
    self_us = self_durations(parent, dur)

    if ROOT_SPAN not in names:
        print(f"no span named {ROOT_SPAN!r}; names: {', '.join(names)}", file=sys.stderr)
        return 2
    root_id = names.index(ROOT_SPAN)
    # parents are recorded before their children, so one forward pass suffices
    root = np.full(name.size, -1)
    for i in range(name.size):
        if parent[i] >= 0 and root[parent[i]] >= 0:
            root[i] = root[parent[i]]
        elif name[i] == root_id:
            root[i] = i
    for n, r in enumerate(np.flatnonzero(root == np.arange(name.size))):
        mine = root == r
        print(f"\n{ROOT_SPAN} #{n}: {dur[r] / 1e3:.1f} ms")
        print(f"  {'span':<30} {'calls':>8} {'us/call':>10} {'self us/call':>13}")
        for nid in np.unique(name[mine]):
            sel = mine & (name == nid)
            calls = int(sel.sum())
            print(f"  {names[nid]:<30} {calls:>8} {dur[sel].sum() / calls:>10.2f} "
                  f"{self_us[sel].sum() / calls:>13.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
