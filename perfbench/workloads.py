"""The benchmark's four workloads, each built from the workload seed alone.

All are single-process, deterministic, closed-loop batch jobs with one
caller.  Why each one exists:

- ``race``: the paper's headline experiment (``zomat compare`` on the race
  preset).  The objective is one small matvec, so per-query overhead
  (perturbation draws, ``ParamSpace`` rebuilds, seed derivation) dominates.
- ``mlp``: a six-block MLP (three matrix, three vector blocks) that
  exercises the vector fallback and per-block streams.  Objective calls take
  most of a step, so objective-side changes show here and overhead-side
  changes are diluted.
- ``msign``: zo_muon at rank 32 with the SVD and the Newton-Schulz msign
  backends; the only workload where ``linalg`` dominates a step.  A change to
  one backend should leave the other label unchanged.
- ``verify``: ``zomat verify all``.  Monte-Carlo calls into the estimators
  with no step loop, no trace losses and no msign in the hot path, so
  step-loop changes should leave it unchanged.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass, field, replace

from spans import Patches
from zomat import harness, objectives, optimizers, oracle, presets
from zomat.estimators import EstimatorConfig
from zomat.harness import ExperimentConfig, ObjectiveSpec
from zomat.optimizers import LOZO, MEZO, SUBSPACE_MEZO, ZO_MUON

#: every optimizer label the workloads use, in report order
LABELS = (MEZO, SUBSPACE_MEZO, LOZO, ZO_MUON, "zo_muon_ns")
#: labels whose race run must reach 1% of the initial loss (claim C7)
TARGET_LABELS = (MEZO, ZO_MUON)
TARGET_KEY = "0.01x_initial"

MLP_WIDTHS = (32, 64, 64, 10)
MLP_SAMPLES = 256
MLP_BUDGET = 2000
MSIGN_RANK = 32
MSIGN_BUDGET = 8000
#: query budget of the untimed warm-up pass that fills lazy imports and caches
WARMUP_BUDGET = 200


def race_experiment(seed: int) -> ExperimentConfig:
    return presets.quadratic_race_config(objective_seed=100 + seed, run_seed=seed)


def mlp_experiment(seed: int) -> ExperimentConfig:
    return ExperimentConfig(
        name="mlp",
        seed=seed,
        query_budget=MLP_BUDGET,
        objective=ObjectiveSpec(
            kind="mlp",
            options=dict(widths=MLP_WIDTHS, n_samples=MLP_SAMPLES, seed=seed),
        ),
        optimizers=tuple(
            presets.race_optimizer_entry(kind) for kind in (MEZO, SUBSPACE_MEZO, LOZO, ZO_MUON)
        ),
        eval_every=presets.RACE_EVAL_EVERY,
        loss_threshold_fractions=(0.01,),
    )


def msign_experiment(seed: int) -> ExperimentConfig:
    race = race_experiment(seed)
    return replace(
        race,
        name="msign",
        query_budget=MSIGN_BUDGET,
        optimizers=(
            presets.race_optimizer_entry(ZO_MUON, rank=MSIGN_RANK),
            presets.race_optimizer_entry(
                ZO_MUON, rank=MSIGN_RANK, label="zo_muon_ns", msign_backend="ns"
            ),
        ),
    )


def trace_digest(records) -> str:
    """sha256 of the deterministic trace columns (step, queries, loss)."""
    h = hashlib.sha256()
    for rec in records:
        h.update(f"{rec.step},{rec.queries},{rec.loss!r}\n".encode())
    return h.hexdigest()


@dataclass
class PassResult:
    """One timed execution of a workload plus what its gate found."""

    wall_s: float
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    #: per optimizer label: steps, queries, step_us, ratios, digest, rows
    runs: dict = field(default_factory=dict)
    #: per verification check: passed
    checks: dict = field(default_factory=dict)
    trace_rows: int = 0

    def fingerprint(self):
        """The parts of a pass that must repeat exactly for a fixed seed."""
        return (
            {label: (r["digest"], r.get("queries_to_1pct")) for label, r in self.runs.items()},
            self.checks,
        )


class RunProbe(Patches):
    """Counts ``Objective.evaluate`` calls and captures every optimizer run.

    ``harness`` imports ``run`` by name, so the probe replaces that name.
    The probe adds one counter increment per query and one timer pair per
    optimizer run; it is installed for untraced and traced passes alike.
    """

    def __init__(self):
        super().__init__()
        self.evaluate_calls = 0
        self.runs = []

    def install(self):
        def count(evaluate):
            def counted_evaluate(obj, x):
                self.evaluate_calls += 1
                return evaluate(obj, x)

            return counted_evaluate

        def capture(run):
            def timed_run(obj, x0, cfg, optimizer_kind, seed, eval_every=1):
                calls = self.evaluate_calls
                t0 = time.perf_counter()
                result = run(obj, x0, cfg, optimizer_kind, seed=seed, eval_every=eval_every)
                wall = time.perf_counter() - t0
                self.runs.append((optimizer_kind, cfg, wall, result, self.evaluate_calls - calls))
                return result

            return timed_run

        self.replace(objectives.Objective, "evaluate", count)
        self.replace(harness, "run", capture)


class OptimizerWorkload:
    """A harness experiment over several optimizers on one objective."""

    def __init__(self, make_experiment, compare=False, targets=()):
        self.make_experiment = make_experiment
        self.compare = compare
        self.targets = targets

    def setup(self, seed):
        return harness.build_objective(self.make_experiment(seed).objective)

    def warm_up(self, seed, out_dir, probe):
        exp = replace(self.make_experiment(seed), query_budget=WARMUP_BUDGET)
        harness.run_experiment(exp, out_dir=out_dir)
        probe.runs.clear()

    def run_pass(self, seed, out_dir, probe) -> PassResult:
        exp = self.make_experiment(seed)
        probe.runs.clear()
        t0 = time.perf_counter()
        if self.compare:
            summary, _ = harness.compare_experiment(exp, out_dir=out_dir)
        else:
            summary = harness.run_experiment(exp, out_dir=out_dir)
        result = PassResult(wall_s=time.perf_counter() - t0)
        if len(probe.runs) != len(exp.optimizers):
            result.errors.append(
                f"{len(probe.runs)} optimizer runs seen, {len(exp.optimizers)} configured"
            )
            return result
        for entry, captured in zip(exp.optimizers, probe.runs):
            result.runs[entry.label] = self._check_run(result, summary, entry.label, *captured)
        return result

    def _check_run(self, result, summary, label, kind, cfg, wall, run, evaluate_calls):
        """Correctness gate for one optimizer run; returns its report row."""
        steps = cfg.total_steps
        expected = steps * optimizers.queries_per_step(kind, cfg)
        errors = []
        if run.queries != expected:
            errors.append(f"{label}: used {run.queries} queries, expected {expected}")
        if evaluate_calls != expected:
            errors.append(f"{label}: {evaluate_calls} evaluate calls, expected {expected}")
        if summary["results"][label]["queries"] != run.queries:
            errors.append(f"{label}: summary disagrees with the run on queries")
        if not all(math.isfinite(rec.loss) for rec in run.records):
            errors.append(f"{label}: non-finite trace loss")
        result.attempted += 1
        result.failed += bool(errors)
        result.errors += errors
        result.trace_rows += len(run.records)

        to_target = summary["results"][label]["queries_to_threshold"].get(TARGET_KEY)
        if label in self.targets:
            result.attempted += 1
            if to_target is None:
                result.failed += 1
        row = {
            "steps": steps,
            "step_us": wall / steps * 1e6,
            "queries": run.queries,
            "evaluate_calls": evaluate_calls,
            "final_loss_ratio": run.records[-1].loss / summary["initial_loss"],
            "digest": trace_digest(run.records),
        }
        if label in self.targets:
            row["queries_to_1pct"] = to_target
        return row


class VerifyWorkload:
    """``oracle.run_verification("all")``; every check must pass."""

    def setup(self, seed):
        # the objective verify_variance builds for its Monte-Carlo runs
        return objectives.make_quadratic(64, 32, 8, seed=seed + 17)

    def warm_up(self, seed, out_dir, probe):
        objective = self.setup(seed)
        spec = oracle.EstimatorSpec(oracle.FULL_RGE, EstimatorConfig())
        oracle.estimator_variance(spec, objective, objective.initial_params, 20, seed)
        oracle.verify_prop1(seed=seed)
        oracle.verify_msign(seed=seed)

    def run_pass(self, seed, out_dir, probe) -> PassResult:
        t0 = time.perf_counter()
        checks = oracle.run_verification("all", seed=seed)
        result = PassResult(wall_s=time.perf_counter() - t0)
        for check in checks:
            result.attempted += 1
            result.checks[check.name] = bool(check.passed)
            if not check.passed:
                result.failed += 1
                result.errors.append(f"check failed: {check.name}: {check.detail}")
        return result


WORKLOADS = {
    "race": OptimizerWorkload(race_experiment, compare=True, targets=TARGET_LABELS),
    "mlp": OptimizerWorkload(mlp_experiment),
    "msign": OptimizerWorkload(msign_experiment),
    "verify": VerifyWorkload(),
}
