"""End-to-end acceptance battery.

Each test prints one PASS/FAIL line (run with ``pytest tests/test_acceptance.py -s``
to see them) and enforces the stated tolerance.  The comparison runs use the
frozen quadratic race preset with objective seeds 100..104 matched to run
seeds 0..4.
"""

import dataclasses
import time
from functools import partial

import numpy as np
import pytest

from zomat import linalg, objectives, presets
from zomat._parallel import in_parallel
from zomat.estimators import EstimatorConfig, subspace_rge
from zomat.harness import config_to_ini, parse_config_text, run_experiment
from zomat.optimizers import (
    LOZO,
    MEZO,
    SUBSPACE_MEZO,
    ZO_MUON,
    OptimizerConfig,
    OptimizerState,
    step,
)
from zomat.oracle import (
    FULL_RGE,
    SUBSPACE_RGE,
    EstimatorSpec,
    check_prop1,
    compare_msign_backends,
    measure_variance,
)
from zomat.params import ParamSpace


def report(criterion, passed, detail):
    print(f"\n[{criterion}] {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, f"{criterion}: {detail}"


def test_c1_lossless_projection():
    start = time.perf_counter()
    main = check_prop1(64, 32, 8, trials=20, seed=0)
    edge = check_prop1(64, 32, 32, trials=5, seed=1)
    elapsed = time.perf_counter() - start
    worst = max(main.max_entry_error, edge.max_entry_error,
                main.max_projection_error, edge.max_projection_error)
    report(
        "C1 lossless projection",
        main.pass_ and edge.pass_ and elapsed < 5.0,
        f"max entry error {worst:.2e} (tol 1e-8), runtime {elapsed:.2f}s (< 5s)",
    )


def test_c2_variance_scaling():
    start = time.perf_counter()
    objective = objectives.make_quadratic(64, 32, 8, seed=17)
    x = objective.initial_params
    sub = EstimatorSpec(SUBSPACE_RGE, EstimatorConfig(mu=1e-3), rank=8)
    nq4 = EstimatorSpec(FULL_RGE, EstimatorConfig(mu=1e-3, n_queries=4))
    sub_report, nq_report = measure_variance([sub, nq4], objective, x, 10_000, seed=0)
    elapsed = time.perf_counter() - start
    ok_sub = 6.4 <= sub_report.ratio <= 9.6
    ok_nq = 3.2 <= nq_report.ratio <= 4.8
    report(
        "C2 variance scaling",
        ok_sub and ok_nq and elapsed < 60.0,
        f"full/subspace ratio {sub_report.ratio:.2f} (target 8 +-20%), "
        f"Nq=1/Nq=4 ratio {nq_report.ratio:.2f} (target 4 +-20%), "
        f"runtime {elapsed:.1f}s (< 60s)",
    )


def test_c3_msign_invariants():
    rng = np.random.default_rng(3)
    sv_ok = True
    for _ in range(10):
        g = rng.standard_normal((9, 6))
        s = np.linalg.svd(linalg.msign_svd(g), compute_uv=False)
        nonzero = s[s > 1e-12]
        sv_ok &= bool(np.max(np.abs(nonzero - 1.0)) <= 1e-8)

    scale_ok = True
    g = rng.standard_normal((6, 8))
    base = linalg.msign_svd(g)
    for s in (7.0, -3.0, 1e-5, -1e4):
        scale_ok &= bool(
            np.max(np.abs(linalg.msign_svd(s * g) - np.sign(s) * base)) <= 1e-10
        )

    rows = compare_msign_backends(seed=4)[:3]
    ns_ok = all(err <= 0.05 for _, err in rows)
    report(
        "C3 msign invariants",
        sv_ok and scale_ok and ns_ok,
        f"unit singular values {sv_ok}, scaling identity {scale_ok}, "
        "NS-vs-SVD medians "
        + ", ".join(f"cond{c:g}={e:.4f}" for c, e in rows)
        + " (tol 0.05 at 5 iterations)",
    )


def test_c4_query_accounting():
    obj = objectives.make_quadratic(16, 12, 4, seed=5)
    cfg = OptimizerConfig(learning_rate=1e-3, n_queries=4, rank=4)
    step(ZO_MUON, obj, obj.initial_params, cfg, OptimizerState(rng_root_seed=0))
    forward_used = obj.query_count

    obj2 = objectives.make_quadratic(16, 12, 4, seed=5)
    step(
        MEZO,
        obj2,
        obj2.initial_params,
        OptimizerConfig(learning_rate=1e-3, n_queries=1),
        OptimizerState(rng_root_seed=0),
    )
    central_used = obj2.query_count
    report(
        "C4 query accounting",
        forward_used == 5 and central_used == 2,
        f"forward step with Nq=4 used {forward_used} (expect 5), "
        f"central step used {central_used} (expect 2)",
    )


def test_c5_subspace_estimator_target():
    # dimensions chosen so the 5% bound is attainable: the mean of Nq
    # single-query estimates has RMS relative error sqrt((r n + 1) / Nq),
    # here sqrt(9/10000) = 3%
    rng = np.random.default_rng(6)
    target = rng.standard_normal((16, 4))

    def loss_fn(x):
        d = x["x"] - target
        return 0.5 * float(np.vdot(d, d))

    obj = objectives.Objective("quad", loss_fn, ParamSpace({"x": np.zeros((16, 4))}))
    x = obj.initial_params
    proj = linalg.sample_projection(16, 2, seed=7)
    cfg = EstimatorConfig(mu=1e-5, n_queries=10_000)
    lifted = proj @ subspace_rge(obj, x, {"x": proj}, cfg, seed=8)["x"]
    expected = proj @ (proj.T @ (x["x"] - target))
    rel = np.linalg.norm(lifted - expected) / np.linalg.norm(expected)
    report(
        "C5 subspace estimator target",
        rel <= 0.05,
        f"mean of 10^4 lifted estimates off P P^T grad by {rel:.4f} (tol 0.05)",
    )


def test_c6_effective_rank():
    rng = np.random.default_rng(9)
    results = {}
    for k in (1, 4, 16):
        planted = rng.standard_normal((64, k)) @ rng.standard_normal((k, 64))
        results[k] = linalg.effective_rank(planted)
    report(
        "C6 effective rank",
        all(results[k] == k for k in results),
        "measured " + ", ".join(f"k={k}->{v}" for k, v in results.items()),
    )


def c7_trial(trial, out_dir):
    """Queries to 1% of the initial loss of zo_muon, mezo and subspace_mezo."""
    exp = presets.quadratic_race_config(objective_seed=100 + trial, run_seed=trial)
    exp = dataclasses.replace(exp, optimizers=tuple(e for e in exp.optimizers if e.kind != LOZO))
    results = run_experiment(exp, out_dir=out_dir)["results"]
    return tuple(results[kind]["queries_to_threshold"]["0.01x_initial"]
                 for kind in (ZO_MUON, MEZO, SUBSPACE_MEZO))


def test_c7_desk_scale_ordering(tmp_path):
    # the five trials are independent and shared among CPUs
    start = time.perf_counter()
    wins = 0
    ratios = []
    lines = []
    counts = in_parallel(partial(c7_trial, trial, tmp_path / f"trial{trial}") for trial in range(5))
    for trial, (z, m, s) in enumerate(counts):
        won = z is not None and (m is None or z < m) and (s is None or z < s)
        wins += won
        if z is not None and m is not None:
            ratios.append(z / m)
        lines.append(f"trial{trial}: zo_muon={z} mezo={m} subspace_mezo={s}")
    elapsed = time.perf_counter() - start
    ratio_txt = (
        f"mean query ratio vs mezo {np.mean(ratios):.3f}" if ratios else "no ratios"
    )
    report(
        "C7 desk-scale ordering",
        wins >= 4 and elapsed < 300.0,
        f"zo_muon first to 1% of initial loss in {wins}/5 seeds "
        f"(need >= 4); {ratio_txt} (recorded, not thresholded); "
        f"runtime {elapsed:.0f}s (< 300s); " + "; ".join(lines),
    )


def c8_trial(trial, out_dir):
    """Final loss over initial loss of zo_muon at ranks 2, 8 and 32."""
    exp = presets.rank_study_config(objective_seed=100 + trial, run_seed=trial)
    summary = run_experiment(dataclasses.replace(exp, eval_every=500), out_dir=out_dir)
    return {
        rank: summary["results"][f"zo_muon_r{rank}"]["final_loss"] / summary["initial_loss"]
        for rank in (2, 8, 32)
    }


def test_c8_rank_sensitivity(tmp_path):
    # the five trials are independent and shared among CPUs
    best_counts = 0
    lines = []
    trials = in_parallel(partial(c8_trial, trial, tmp_path / f"trial{trial}") for trial in range(5))
    for trial, finals in enumerate(trials):
        best = min(finals, key=finals.get)
        best_counts += best == 8
        lines.append(
            f"trial{trial}: " + " ".join(f"r{r}={v:.2e}" for r, v in finals.items())
        )
    report(
        "C8 rank sensitivity",
        best_counts >= 4,
        f"r=8 (planted rank) best in {best_counts}/5 seeds (need >= 4); "
        + "; ".join(lines),
    )


def test_c9_trace_determinism(tmp_path):
    ini = config_to_ini(presets.quadratic_race_config(objective_seed=100, run_seed=0, budget=2000))
    exp = parse_config_text(ini)
    run_experiment(exp, out_dir=tmp_path / "a")
    run_experiment(exp, out_dir=tmp_path / "b")
    identical = True
    compared = 0
    for path_a in sorted((tmp_path / "a").glob("*.csv")):
        path_b = tmp_path / "b" / path_a.name
        rows_a = [",".join(line.split(",")[:3]) for line in path_a.read_text().splitlines()]
        rows_b = [",".join(line.split(",")[:3]) for line in path_b.read_text().splitlines()]
        identical &= rows_a == rows_b
        compared += 1
    report(
        "C9 determinism",
        identical and compared == 4,
        f"{compared} trace CSVs byte-identical apart from elapsed_ms: {identical}",
    )
