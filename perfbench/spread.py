#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads race,mlp,msign,verify --seeds 0-9
        [--trace 0] [--write perfbench/baseline/<name>.json] [--against <report>.json]

For every run it prints the end-to-end metrics and the per-optimizer figures
(``step_us.*``, ``final_loss_ratio.*``, ``queries_to_1pct.*``) with their
units, and any gate failure; it exits non-zero when a gate fails or an
operation failed.  For every workload and metric it then prints the median,
the quartiles (Python's ``statistics.quantiles(values, n=4)``) and the
quartile spread as a share of the median, and compares that share with the
metric's bound in ``BENCHMARK.json``: OK within a third of it, WIDE
within it, OVER beyond it.  With ``--against`` it also compares each
median with the same median in an earlier ``--write`` report and flags a
change larger than the bound in either direction (DIFFERS).  Every run
lasts ``run_seconds`` from ``BENCHMARK.json``.  ``--write`` stores every
run's result and record plus the summary, which is how the committed
baselines were made.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_TIMEOUT_S = 900


def seed_list(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload, seed, seconds, trace):
    """One benchmark process; returns its JSON result and its full record."""
    (BENCH_DIR / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=BENCH_DIR / "out") as tmp:
        record_path = Path(tmp) / "record.json"
        proc = subprocess.run(
            [
                sys.executable, str(BENCH_DIR / "run.py"),
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(trace),
                "--out", str(record_path),
            ],
            capture_output=True, text=True, timeout=RUN_TIMEOUT_S, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        record = json.loads(record_path.read_text())
    return result, record


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / statistics.median(values) if statistics.median(values) else 0.0,
        "values": values,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", required=True, help="comma-separated names")
    parser.add_argument("--seeds", default="0-9", help="e.g. 0-9 or 1,5,7")
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--write", help="store all results and the summary here")
    parser.add_argument("--against", help="an earlier --write report to compare medians with")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    earlier = json.loads(Path(args.against).read_text())["workloads"] if args.against else {}

    report = {"seconds": seconds, "trace": args.trace, "workloads": {}}
    ok = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in seed_list(args.seeds):
            result, record = run_once(workload, seed, seconds, args.trace)
            runs.append({"seed": seed, "result": result, "record": record})
            ok &= result["correct"] and result["failed"] == 0
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}")
            for name, metric in result["metrics"].items():
                if name in bounds:
                    print(f"  {name} {metric['value']:.6g} {metric['unit']}")
            for label, row in record["runs"].items():
                print(f"  step_us.{label} {row['step_us']:.2f} us")
                print(f"  final_loss_ratio.{label} {row['final_loss_ratio']:.6e} ratio")
                if "queries_to_1pct" in row:
                    print(f"  queries_to_1pct.{label} {row['queries_to_1pct']} queries")
            for error in record["errors"]:
                print(f"  GATE FAILURE: {error}")
            sys.stdout.flush()
        names = runs[0]["result"]["metrics"]
        summary = {}
        for name in names:
            # a missed 1% target reads null and is left out of the summary
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            values = [v for v in values if v is not None]
            summary[name] = summarize(values) if len(values) >= 2 else {"values": values}
        report["workloads"][workload] = {"summary": summary, "runs": runs}
        print(f"\n{workload}: {'metric':<34} {'median':>12} {'q1':>12} {'q3':>12} spread  bound")
        for name, s in summary.items():
            if "spread" not in s:
                continue
            bound = bounds.get(name)
            flag = ""
            if bound is not None:
                flag = "OK" if s["spread"] <= bound / 3 else ("WIDE" if s["spread"] <= bound else "OVER")
            print(f"{workload}: {name:<34} {s['median']:>12.6g} {s['q1']:>12.6g} "
                  f"{s['q3']:>12.6g} {s['spread']:.4f} {bound if bound is not None else '-'} {flag}")
        for name, s in summary.items():
            before = earlier.get(workload, {}).get("summary", {}).get(name, {}).get("median")
            if before and bounds.get(name) is not None and "median" in s:
                change = s["median"] / before - 1
                flag = "DIFFERS" if abs(change) > bounds[name] else "AGREES"
                print(f"{workload}: {name:<34} median {before:.6g} -> {s['median']:.6g} "
                      f"({change:+.4f}, bound {bounds[name]}) {flag}")
        print()
    if args.write:
        Path(args.write).parent.mkdir(parents=True, exist_ok=True)
        Path(args.write).write_text(json.dumps(report, indent=1, sort_keys=True))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
