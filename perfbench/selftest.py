#!/usr/bin/env python3
"""Benchmark self-test: two traced runs at one seed must agree exactly.

    python3 perfbench/selftest.py [--workloads race,mlp,msign,verify] [--seed 0]

For each workload it runs ``run.py --trace 1`` twice in fresh processes and
requires identical call counts, trace digests, verification outcomes,
``final_loss_ratio.*`` and ``queries_to_1pct.*``, a passing correctness
gate, and metric names and units equal to the ``per_layer`` list of
``BENCHMARK.json``.  Exits non-zero on the first disagreement.
"""

from __future__ import annotations

import argparse
import json
import sys

from spread import ROOT, run_once

EXACT_PREFIXES = ("final_loss_ratio.", "queries_to_1pct.")


def deterministic_part(result, record):
    metrics = {
        name: m["value"]
        for name, m in result["metrics"].items()
        if name.endswith(".calls") or name.startswith(EXACT_PREFIXES)
    }
    digests = {label: run["digest"] for label, run in record["runs"].items()}
    return {"metrics": metrics, "digests": digests, "checks": record["checks"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="race,mlp,msign,verify")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    failures = []
    for workload in args.workloads.split(","):
        first = run_once(workload, args.seed, 1, 1)
        second = run_once(workload, args.seed, 1, 1)
        for result, _ in (first, second):
            printed = {name: m["unit"] for name, m in result["metrics"].items()}
            if printed != declared:
                failures.append(f"{workload}: metrics differ from BENCHMARK.json per_layer")
            if not result["correct"] or result["failed"]:
                failures.append(f"{workload}: gate failed ({result['failed']} failed operations)")
        a, b = deterministic_part(*first), deterministic_part(*second)
        for part in a:
            if a[part] != b[part]:
                diff = sorted(k for k in a[part] if a[part].get(k) != b[part].get(k))
                failures.append(f"{workload}: {part} differ between runs: {diff}")
        print(f"{workload} seed {args.seed}: {len(a['metrics'])} exact metrics, "
              f"{len(a['digests'])} digests, {len(a['checks'])} checks compared", flush=True)
    for failure in failures:
        print(f"SELF-TEST FAILURE: {failure}")
    print("self-test", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
