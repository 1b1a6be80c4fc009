#!/usr/bin/env python3
"""zomat benchmark: run one workload at one seed and print one JSON result.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload race --seed 0 --seconds 20 --trace 0

With ``--trace 0`` the workload is repeated, untraced, until ``--seconds``
is spent, and the end-to-end metrics (``setup_s``, ``wall_s``,
``peak_rss_mb``) are medians over those repetitions.  With ``--trace 1`` a
pass with the public functions of every ``src/zomat`` layer wrapped in spans
(see ``spans.py``) runs between two untraced passes; the per-layer metrics
come from the traced pass, ``trace_overhead`` is its wall over the mean
untraced wall, and the spans are written to ``perfbench/out/``.

Either way the correctness gate runs on every pass: query accounting per
optimizer run, finite trace losses, every verification check, and identical
traces across the passes of one process.  Human-readable report lines come
first; the last line of standard output is the JSON result.  The program is
built from ``src/`` of the checkout; without it the benchmark exits with
code 2 and prints no result.
"""

from __future__ import annotations

import os

#: the benchmark is single-process and single-threaded, BLAS included
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

#: Set-ups per group.  Untraced runs time one group before the first pass
#: and one after every pass, so that ``setup_s``, the median of all of them,
#: samples the machine's speed at as many moments of the run.
SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 60


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="time spent on untraced passes; a traced run ignores it "
                             "and always makes three passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", help="also write the full record (JSON) to this file")
    return parser.parse_args(argv)


def blas_thread_count():
    """Threads the loaded OpenBLAS will use, or None when it cannot be asked."""
    import ctypes

    import numpy as np

    libdir = Path(np.__file__).parent.parent / "numpy.libs"
    for path in sorted(libdir.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_facts() -> dict:
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads_requested": BLAS_THREADS,
        "blas_threads": blas_thread_count(),
    }


def measure_setup(workload: str, seed: int) -> list:
    """Seconds taken by SETUP_REPEATS fresh-interpreter set-ups."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"), workload, str(seed)],
            capture_output=True,
            text=True,
            timeout=SETUP_TIMEOUT_S,
            cwd=ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed:\n{proc.stderr}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def install_tracer(tracer):
    """Wrap each layer's public functions where its callers look them up."""
    from zomat import estimators, harness, linalg, objectives, optimizers, oracle, params

    targets = [
        (objectives.Objective, "evaluate", "objectives.evaluate"),
        (objectives.Objective, "loss", "objectives.loss"),
        (params.ParamSpace, "__init__", "params.init"),
        (params.ParamSpace, "updated", "params.updated"),
        (linalg, "as_matrix", "linalg.as_matrix"),
        (params, "as_matrix", "linalg.as_matrix"),
        (linalg, "msign_svd", "linalg.msign"),
        (linalg, "msign_ns", "linalg.msign"),
        (linalg, "sample_projection", "linalg.sample_projection"),
        (estimators, "perturbation", "estimators.perturbation"),
        (estimators, "rge_full", "estimators.estimate"),
        (estimators, "subspace_rge", "estimators.estimate"),
        (estimators, "lge_lozo", "estimators.estimate"),
        (optimizers, "derive_seed", "optimizers.derive_seed"),
        (harness, "run", "optimizers.run"),
        (harness, "build_objective", "harness.build_objective"),
        (harness, "write_trace_csv", "harness.write_trace_csv"),
        (harness, "run_experiment", "harness.run_experiment"),
        (oracle, "measure_variance", "oracle.measure_variance"),
        (oracle, "compare_msign_backends", "oracle.compare_msign_backends"),
    ]
    for owner, attr, name in targets:
        tracer.patch(owner, attr, name)


def layer_metrics(spans: dict, untraced: list, traced, labels, target_labels) -> dict:
    """The per-layer metrics of one traced pass, keyed by metric name.

    Per-optimizer figures come from the untraced passes, already gathered
    into the first pass's rows.
    """

    def get(name, key):
        return spans.get(name, {}).get(key, 0)

    loss_calls = get("objectives.loss", "calls")
    msign_calls = get("linalg.msign", "calls")
    metrics = {
        "objectives.evaluate.calls": get("objectives.evaluate", "calls"),
        "objectives.evaluate.us": get("objectives.evaluate", "us"),
        "objectives.loss.calls": loss_calls,
        "objectives.loss.us": get("objectives.loss", "us"),
        "objectives.loss.useful_ratio": traced.trace_rows / loss_calls if loss_calls else 0.0,
        "params.init.calls": get("params.init", "calls"),
        "params.init.self_us": get("params.init", "self_us"),
        "params.updated.calls": get("params.updated", "calls"),
        "params.updated.self_us": get("params.updated", "self_us"),
        "linalg.as_matrix.calls": get("linalg.as_matrix", "calls"),
        "linalg.as_matrix.us": get("linalg.as_matrix", "us"),
        "linalg.msign.calls": msign_calls,
        "linalg.msign.us": get("linalg.msign", "us"),
        "linalg.msign.us_per_call": get("linalg.msign", "us") / msign_calls if msign_calls else 0.0,
        "linalg.sample_projection.calls": get("linalg.sample_projection", "calls"),
        "linalg.sample_projection.us": get("linalg.sample_projection", "us"),
        "estimators.perturbation.calls": get("estimators.perturbation", "calls"),
        "estimators.perturbation.us": get("estimators.perturbation", "us"),
        "estimators.estimate.calls": get("estimators.estimate", "calls"),
        "estimators.estimate.self_us": get("estimators.estimate", "self_us"),
        "optimizers.derive_seed.calls": get("optimizers.derive_seed", "calls"),
        "optimizers.derive_seed.us": get("optimizers.derive_seed", "us"),
        "optimizers.run.self_us": get("optimizers.run", "self_us"),
        "harness.build_objective.us": get("harness.build_objective", "us"),
        "harness.write_trace_csv.us": get("harness.write_trace_csv", "us"),
        "harness.run_experiment.self_us": get("harness.run_experiment", "self_us"),
        "oracle.measure_variance.us": get("oracle.measure_variance", "us"),
        "oracle.compare_msign_backends.us": get("oracle.compare_msign_backends", "us"),
        "trace_overhead": traced.wall_s / statistics.mean(p.wall_s for p in untraced),
    }
    # Labels a workload does not run, and targets off the race, read 0.  A
    # missed target reads null: it counts only as a failed operation.
    runs = untraced[0].runs
    for label in labels:
        metrics[f"step_us.{label}"] = runs[label]["step_us"] if label in runs else 0.0
    for label in labels:
        metrics[f"final_loss_ratio.{label}"] = runs[label]["final_loss_ratio"] if label in runs else 0.0
    for label in target_labels:
        row = runs.get(label, {})
        metrics[f"queries_to_1pct.{label}"] = row["queries_to_1pct"] if "queries_to_1pct" in row else 0
    return metrics


def run_benchmark(args) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))
    import workloads
    from spans import Tracer

    import zomat

    if Path(zomat.__file__).resolve().parent != SRC / "zomat":
        raise RuntimeError(f"imported zomat from {zomat.__file__}, not from {SRC}")
    if args.workload not in workloads.WORKLOADS:
        raise ValueError(f"unknown workload {args.workload!r}; valid: {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_facts(),
    }

    tmp_dir = OUT_DIR / f"tmp-{args.workload}-{args.seed}-{os.getpid()}"
    probe = workloads.RunProbe()
    probe.install()
    try:
        workload.warm_up(args.seed, tmp_dir, probe)
        if args.trace:
            # untraced passes bracket the traced one, cancelling slow drift
            untraced = [workload.run_pass(args.seed, tmp_dir, probe)]
            tracer = Tracer()
            install_tracer(tracer)
            try:
                traced = workload.run_pass(args.seed, tmp_dir, probe)
            finally:
                tracer.restore()
            untraced.append(workload.run_pass(args.seed, tmp_dir, probe))
            passes = [untraced[0], traced, untraced[1]]
        else:
            setup = measure_setup(args.workload, args.seed)
            passes = []
            while True:
                passes.append(workload.run_pass(args.seed, tmp_dir, probe))
                setup += measure_setup(args.workload, args.seed)
                walls = [p.wall_s for p in passes]
                if sum(walls) + statistics.median(walls) > args.seconds:
                    break
    finally:
        probe.restore()
        shutil.rmtree(tmp_dir, ignore_errors=True)

    errors = [e for p in passes for e in p.errors]
    if any(p.fingerprint() != passes[0].fingerprint() for p in passes):
        errors.append("passes of one seed produced different traces")
    first = passes[0]
    timed = untraced if args.trace else passes
    for label, run in first.runs.items():
        run["step_us"] = statistics.median(p.runs[label]["step_us"] for p in timed)
    record["passes"] = [p.wall_s for p in passes]
    record["runs"] = first.runs
    record["checks"] = first.checks
    record["errors"] = errors
    result = {
        "correct": not errors,
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
    }
    if args.trace:
        spans = tracer.summary()
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans-{args.workload}-{args.seed}.npz"
        tracer.write(spans_path)
        record["spans"] = spans
        record["spans_file"] = str(spans_path.relative_to(ROOT))
        values = layer_metrics(spans, untraced, traced, workloads.LABELS, workloads.TARGET_LABELS)
        declared = spec["per_layer"]
    else:
        record["setup_s"] = setup
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(p.wall_s for p in passes),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        declared = spec["end_to_end"]
    if set(values) != {m["name"] for m in declared}:
        raise RuntimeError("measured metrics differ from those declared in BENCHMARK.json")
    result["metrics"] = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    record["result"] = result
    return record


def print_report(record):
    m = record["machine"]
    print(
        f"machine: nproc={m['nproc']} cpu={m['cpu']!r} python={m['python']} "
        f"numpy={m['numpy']} blas={m['blas']} {m['blas_version']} "
        f"blas_threads={m['blas_threads']} (requested {m['blas_threads_requested']})"
    )
    walls = ", ".join(f"{w:.3f}" for w in record["passes"])
    print(f"workload {record['workload']} seed {record['seed']} trace {record['trace']}: "
          f"{len(record['passes'])} passes, wall s [{walls}]")
    for label, run in record["runs"].items():
        print(f"step_us.{label} {run['step_us']:.2f} us")
        print(f"final_loss_ratio.{label} {run['final_loss_ratio']:.6e} ratio")
        if "queries_to_1pct" in run:
            target = run["queries_to_1pct"]
            print(f"queries_to_1pct.{label} {target if target is not None else 'not reached'} queries")
        print(f"digest.{label} {run['digest']} steps={run['steps']} "
              f"queries={run['queries']} evaluate_calls={run['evaluate_calls']}")
    for name, passed in record["checks"].items():
        print(f"check {'PASS' if passed else 'FAIL'} {name}")
    for error in record["errors"]:
        print(f"GATE FAILURE: {error}")
    for name, metric in record["result"]["metrics"].items():
        value = "not reached" if metric["value"] is None else f"{metric['value']:.6g}"
        print(f"{name} {value} {metric['unit']}")


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "zomat" / "__init__.py").is_file():
        print(f"error: no zomat sources under {SRC}", file=sys.stderr)
        return 2
    record = run_benchmark(args)
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1, sort_keys=True))
    print_report(record)
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
