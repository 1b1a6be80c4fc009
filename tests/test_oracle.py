import faulthandler
import math
import os
import time
from functools import partial

import numpy as np
import pytest

from zomat import _parallel, linalg, objectives, oracle, streams
from zomat._parallel import in_parallel
from zomat.estimators import CENTRAL, EstimatorConfig, rge_full, subspace_rge
from zomat.objectives import Objective
from zomat.oracle import (
    FULL_RGE,
    SUBSPACE_RGE,
    EstimatorSpec,
    check_prop1,
    compare_msign_backends,
    conditioned_matrix,
    finite_diff_gradient,
    gradient_aligned_projection,
    measure_variance,
)
from zomat.params import ParamSpace


class TestProp1:
    def test_planted_rank_passes_at_1e8(self):
        report = check_prop1(64, 32, 8, trials=20, seed=0)
        assert report.pass_
        assert report.max_entry_error <= 1e-8
        assert report.max_projection_error <= 1e-8

    def test_full_rank_edge_case(self):
        report = check_prop1(64, 32, 32, trials=5, seed=1)
        assert report.pass_

    def test_square_full_rank(self):
        report = check_prop1(16, 16, 16, trials=5, seed=2)
        assert report.pass_

    def test_negative_control_random_projection_fails(self):
        # a projection not drawn from the gradient's left singular vectors
        # generically loses information
        rng = np.random.default_rng(3)
        g = oracle.exact_rank_matrix(64, 32, 32, rng)
        p = linalg.sample_projection(64, 8, seed=4)
        err = np.max(np.abs(p @ linalg.msign_svd(p.T @ g) - linalg.msign_svd(g)))
        assert err > 1e-3

    def test_rejects_bad_rank(self):
        with pytest.raises(ValueError):
            check_prop1(8, 4, 5)


class TestFiniteDiff:
    def test_constant_function_zero(self):
        obj = Objective("const", lambda x: 1.0, ParamSpace({"x": np.ones((3, 2))}))
        grads = finite_diff_gradient(obj, obj.initial_params)
        assert np.all(grads["x"] == 0.0)

    def test_quadratic_matches_analytic(self):
        obj = objectives.make_quadratic(5, 4, 2, seed=0)
        x = obj.initial_params
        fd = finite_diff_gradient(obj, x, mu=1e-6)["x"]
        an = obj.analytic_gradient(x)["x"]
        assert np.linalg.norm(fd - an) / np.linalg.norm(an) <= 1e-6

    def test_linear_is_exact_for_any_mu(self):
        rng = np.random.default_rng(1)
        c = rng.standard_normal((3, 3))
        obj = Objective(
            "linear", lambda x: float(np.vdot(c, x["x"])), ParamSpace({"x": np.zeros((3, 3))})
        )
        for mu in (1e-4, 1e-6, 1e-8):
            fd = finite_diff_gradient(obj, obj.initial_params, mu=mu)["x"]
            assert np.max(np.abs(fd - c)) <= 1e-6

    def test_bypasses_query_counter(self):
        obj = objectives.make_quadratic(3, 3, 1, seed=0)
        finite_diff_gradient(obj, obj.initial_params)
        assert obj.query_count == 0

    @pytest.mark.parametrize("mu", [1e-9, 1e-3])
    def test_mu_domain(self, mu):
        obj = objectives.make_quadratic(3, 3, 1, seed=0)
        with pytest.raises(ValueError):
            finite_diff_gradient(obj, obj.initial_params, mu=mu)


class TestVariance:
    def test_constant_objective_zero_variance(self):
        obj = Objective("const", lambda x: 2.0, ParamSpace({"x": np.zeros((6, 4))}),
                        gradient_fn=lambda x: {"x": np.zeros((6, 4))})
        spec = EstimatorSpec(FULL_RGE, EstimatorConfig(n_queries=2))
        var = oracle.estimator_variance(spec, obj, obj.initial_params, 50, seed=0)
        assert var == 0.0

    @pytest.mark.parametrize("n_samples", [-3, 0, 1, 2.0])
    def test_rejects_fewer_than_two_samples(self, n_samples):
        obj = objectives.make_quadratic(8, 6, 2, seed=0)
        spec = EstimatorSpec(FULL_RGE, EstimatorConfig())
        with pytest.raises(ValueError, match="n_samples must be an integer >= 2"):
            oracle.estimator_variance(spec, obj, obj.initial_params, n_samples, seed=0)

    @pytest.mark.parametrize("rank", [0, -1, 2.0, True])
    def test_spec_rejects_a_subspace_rank_below_one(self, rank):
        with pytest.raises(ValueError, match="rank must be an integer >= 1"):
            EstimatorSpec(SUBSPACE_RGE, EstimatorConfig(), rank=rank)

    def test_spec_rejects_an_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown estimator kind 'bogus'"):
            EstimatorSpec("bogus", EstimatorConfig())

    @pytest.mark.parametrize(
        "spec,per_sample,per_range",
        [
            (EstimatorSpec(FULL_RGE, EstimatorConfig(n_queries=3)), 3, 1),
            (EstimatorSpec(SUBSPACE_RGE, EstimatorConfig(n_queries=2), rank=2), 2, 1),
            (EstimatorSpec(FULL_RGE, EstimatorConfig(scheme=CENTRAL)), 2, 0),
        ],
    )
    def test_one_base_query_per_forward_range(self, spec, per_sample, per_range):
        # every sample is taken at x, so a forward range evaluates f(x) once
        obj = objectives.make_quadratic(6, 4, 2, seed=5)
        n = oracle.SAMPLE_RANGE + 3  # two ranges
        oracle.estimator_variance(spec, obj, obj.initial_params, n, seed=0)
        assert obj.query_count == n * per_sample + math.ceil(n / oracle.SAMPLE_RANGE) * per_range

    @pytest.mark.parametrize("value", [1.7, 2000.0, True, -1],
                             ids=["float", "integral-float", "bool", "negative"])
    @pytest.mark.parametrize("entry, name", [
        ("estimator_variance", "seed"), ("estimator_variance", "n_samples"),
        ("measure_variance", "seed"), ("measure_variance", "n_samples"),
        ("check_prop1", "trials"),
    ])
    def test_counts_are_checked_by_name(self, entry, name, value):
        # a float seed was truncated, a float sample count failed inside
        # range(), and zero trials passed vacuously
        obj = objectives.make_quadratic(8, 6, 2, seed=0)
        spec, x = EstimatorSpec(FULL_RGE, EstimatorConfig()), obj.initial_params
        call = {
            "estimator_variance": partial(oracle.estimator_variance, spec, obj, x,
                                          n_samples=2000, seed=0),
            "measure_variance": partial(measure_variance, [spec], obj, x, n_samples=2000, seed=0),
            "check_prop1": partial(check_prop1, 8, 6, 2, trials=2),
        }[entry]
        with pytest.raises(ValueError, match=f"^{name} must be an integer >= "):
            call(**{name: value})
        assert obj.query_count == 0

    def test_ratio_requires_enough_samples(self):
        obj = objectives.make_quadratic(8, 6, 2, seed=0)
        spec = EstimatorSpec(FULL_RGE, EstimatorConfig())
        with pytest.raises(ValueError, match="samples"):
            measure_variance([spec], obj, obj.initial_params, 100, seed=0)

    def test_nq_scaling_rough(self):
        # reduced-sample sanity run; the tight +-20% band at 1e4 samples is
        # exercised by the acceptance suite
        obj = objectives.make_quadratic(16, 8, 4, seed=1)
        spec = EstimatorSpec(FULL_RGE, EstimatorConfig(n_queries=4))
        [report] = measure_variance([spec], obj, obj.initial_params, 2000, seed=2)
        assert 2.8 <= report.ratio <= 5.5
        assert "Nq=4" in report.estimator
        assert "Nq=1" in report.reference

    def test_aligned_projection_captures_gradient(self):
        obj = objectives.make_quadratic(24, 12, 4, seed=3, delta=0.0)
        x = obj.initial_params
        p = gradient_aligned_projection(obj, x, rank=4)
        g = obj.analytic_gradient(x)["x"]
        assert np.max(np.abs(p.T @ p - np.eye(4))) <= 1e-10
        assert np.linalg.norm(g - p @ (p.T @ g)) <= 1e-8 * np.linalg.norm(g)

    def test_requires_gradient(self):
        obj = Objective("plain", lambda x: 0.0, ParamSpace({"x": np.zeros((4, 4))}))
        with pytest.raises(ValueError, match="gradient"):
            gradient_aligned_projection(obj, obj.initial_params, rank=2)

    @pytest.mark.parametrize(
        "spec",
        [
            EstimatorSpec(FULL_RGE, EstimatorConfig(n_queries=3)),
            EstimatorSpec(SUBSPACE_RGE, EstimatorConfig(n_queries=2), rank=2),
        ],
    )
    def test_bulk_sample_streams_equal_scalar_seeds(self, spec):
        # the sample seeds and slot words are derived a chunk at a time, and
        # the samples are run in ranges whose moments are merged: no chunk
        # boundary may change a sample, and the merge must equal a two-pass
        # variance
        obj = objectives.make_quadratic(6, 4, 2, seed=5)
        x = obj.initial_params
        n = 2 * oracle.SAMPLE_RANGE + 3  # three ranges
        p = gradient_aligned_projection(obj, x, rank=2)
        samples = []
        for i in range(n):
            seed = streams.derive_seed(9, i)
            if spec.kind == FULL_RGE:
                samples.append(rge_full(obj, x, spec.config, seed)["x"])
            else:
                samples.append(p @ subspace_rge(obj, x, {"x": p}, spec.config, seed)["x"])
        expected = float(np.var(np.array(samples), axis=0, ddof=1).mean())
        got = oracle.estimator_variance(spec, obj, x, n, seed=9)
        assert got == pytest.approx(expected, rel=1e-12, abs=0)


class Boom(Exception):
    pass


def _wait_for(path, seconds=30.0):
    """Keep the first call, which the calling process runs, busy until
    ``path`` exists, so that the worker's call runs first."""
    deadline = time.monotonic() + seconds
    while not path.exists() and time.monotonic() < deadline:
        time.sleep(0.01)
    return "waited"


def _log(log, value):
    with open(log, "a") as fh:
        fh.write(f"{value}\n")
    return value


def _log_pid(log, i):
    _log(log, f"{i} {os.getpid()}")
    return i


def _array(i):
    return np.arange(12_800, dtype=np.float64) + i  # 100 KB


def _log_pid_and_raise(log):
    _log(log, os.getpid())
    raise Boom("sample 3 failed")


def _log_pid_and_die_in_a_worker(log, parent_pid):
    _log(log, os.getpid())
    if os.getpid() != parent_pid:
        os._exit(3)
    return "inline"


def _one_cpu(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})

    def no_fork():
        raise AssertionError("forked on the inline path")

    monkeypatch.setattr(os, "fork", no_fork)


two_cpus = pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs two usable CPUs")


class TestInParallel:
    @two_cpus
    def test_forks_a_worker_per_other_usable_cpu(self, monkeypatch):
        forks = []
        fork = os.fork

        def counted_fork():
            forks.append(1)
            return fork()

        monkeypatch.setattr(os, "fork", counted_fork)
        assert in_parallel([partial(abs, -i) for i in range(9)]) == list(range(9))
        assert len(forks) == min(len(os.sched_getaffinity(0)), 9) - 1

    def test_every_call_runs_once_with_more_workers_than_cores(self, monkeypatch, tmp_path):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
        log = tmp_path / "calls"
        faulthandler.dump_traceback_later(60, exit=True)  # a lost call hangs, not fails
        try:
            results = in_parallel([partial(_log, log, i) for i in range(400)])
        finally:
            faulthandler.cancel_dump_traceback_later()
        assert results == list(range(400))
        assert sorted(map(int, log.read_text().split())) == list(range(400))

    def test_variance_reports_forked_inline_and_serial_are_equal(self, monkeypatch):
        objective = objectives.make_quadratic(8, 6, 2, seed=17)
        x = objective.initial_params
        n = 2 * oracle.SAMPLE_RANGE + 1  # three ranges, the last of one sample
        nq4 = EstimatorSpec(FULL_RGE, EstimatorConfig(mu=1e-3, n_queries=4))
        sub = EstimatorSpec(SUBSPACE_RGE, EstimatorConfig(mu=1e-3), rank=2)
        forked = measure_variance([nq4, sub], objective, x, n, seed=5)
        with monkeypatch.context() as m:
            _one_cpu(m)
            inline = measure_variance([nq4, sub], objective, x, n, seed=5)
        # spec k at seed + k, the one reference at their shared mu at seed + 2
        run = partial(oracle.estimator_variance, objective=objective, x=x, n_samples=n)
        reference = EstimatorSpec(FULL_RGE, EstimatorConfig(mu=1e-3))
        serial = [run(nq4, seed=5), run(sub, seed=6), run(reference, seed=7)]
        assert forked == inline
        assert [(r.per_entry_variance, r.reference_variance) for r in forked] == [
            (serial[0], serial[2]), (serial[1], serial[2])
        ]
        assert [r.ratio for r in forked] == [serial[2] / serial[0], serial[2] / serial[1]]

    def test_large_results_come_back_intact_in_call_order(self, monkeypatch):
        # each worker sends two 100 KB results, more than a pipe's buffer
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(3)))
        faulthandler.dump_traceback_later(60, exit=True)  # a stalled pipe hangs, not fails
        try:
            results = in_parallel([partial(_array, i) for i in range(6)])
        finally:
            faulthandler.cancel_dump_traceback_later()
        assert len(results) == 6
        for i, result in enumerate(results):
            np.testing.assert_array_equal(result, _array(i))

    def test_this_process_runs_every_nth_call(self, monkeypatch, tmp_path):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(3)))
        log = tmp_path / "calls"
        assert in_parallel([partial(_log_pid, log, i) for i in range(10)]) == list(range(10))
        pids = dict(line.split() for line in log.read_text().splitlines())
        assert sorted(int(i) for i, pid in pids.items() if pid == str(os.getpid())) == [0, 3, 6, 9]

    def test_a_worker_leaves_the_callers_cpu_before_its_calls(self, monkeypatch, tmp_path):
        # a forked worker starts on its caller's CPU (here CPU 1 of 0-2): it
        # narrows its affinity to the others, then restores the mask for the
        # scheduler, before it runs a call
        log = tmp_path / "log"
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        monkeypatch.setattr(_parallel, "_this_cpu", lambda: 1)
        monkeypatch.setattr(os, "sched_setaffinity",
                            lambda pid, cpus: _log(log, f"{os.getpid()} mask {sorted(cpus)}"))
        calls = [partial(lambda i: _log(log, f"{os.getpid()} call {i}") and i, i) for i in range(6)]
        assert in_parallel(calls) == list(range(6))
        events = {}
        for line in log.read_text().splitlines():
            pid, event = line.split(" ", 1)
            events.setdefault(int(pid), []).append(event)
        assert events.pop(os.getpid()) == ["call 0", "call 3"]
        assert sorted(events.values()) == [
            ["mask [0, 2]", "mask [0, 1, 2]", "call 1", "call 4"],
            ["mask [0, 2]", "mask [0, 1, 2]", "call 2", "call 5"],
        ]

    def test_inline_path_never_forks(self, monkeypatch):
        _one_cpu(monkeypatch)
        assert in_parallel([partial(abs, -1), partial(abs, -2)]) == [1, 2]

    def test_one_call_runs_inline(self, monkeypatch):
        def no_fork():
            raise AssertionError("forked for one call")

        monkeypatch.setattr(os, "fork", no_fork)
        assert in_parallel([partial(abs, -1)]) == [1]

    @two_cpus
    def test_a_call_raising_in_a_worker_surfaces_its_own_exception(self, tmp_path):
        log = tmp_path / "pids"
        calls = [partial(_wait_for, log), partial(_log_pid_and_raise, log), partial(abs, -3)]
        with pytest.raises(Boom, match="sample 3 failed"):
            in_parallel(calls)
        worker, here = log.read_text().split()
        assert worker != here == str(os.getpid())  # raised in a worker, then run again here

    @two_cpus
    def test_a_call_whose_worker_died_is_run_again_here(self, tmp_path):
        log = tmp_path / "pids"
        calls = [partial(_wait_for, log), partial(_log_pid_and_die_in_a_worker, log, os.getpid())]
        assert in_parallel(calls) == ["waited", "inline"]
        worker, here = log.read_text().split()
        assert worker != here == str(os.getpid())


class TestMsignBackendComparison:
    def test_seed_zero_medians_are_pinned(self):
        # pins the shape, the conditions, the trial count and the step count:
        # a change to any of them moves these medians
        rows = compare_msign_backends(seed=0)
        assert [c for c, _ in rows] == [2.0, 5.0, 10.0, 100.0, 1000.0]
        assert all(e <= 1e-8 for _, e in rows[:3])
        assert rows[3][1] == pytest.approx(0.17763111115181135, rel=1e-9, abs=0)
        assert rows[4][1] == pytest.approx(0.5019483975442187, rel=1e-9, abs=0)

    def test_well_conditioned_bucket(self):
        rows = compare_msign_backends(seed=0)
        by_cond = dict(rows)
        assert by_cond[2.0] <= 0.05
        assert by_cond[5.0] <= 0.05
        assert by_cond[10.0] <= 0.05

    def test_error_non_decreasing_in_condition(self):
        rows = compare_msign_backends(seed=1)
        medians = [err for _, err in rows]
        assert all(b >= a - 1e-6 for a, b in zip(medians, medians[1:]))

    def test_conditioned_matrix_has_requested_spread(self):
        rng = np.random.default_rng(2)
        g = conditioned_matrix(8, 8, condition=50.0, rng=rng)
        s = np.linalg.svd(g, compute_uv=False)
        assert abs(s[0] / s[-1] - 50.0) <= 1e-6


class TestVerifySuites:
    def test_prop1_suite_passes(self):
        results = oracle.verify_prop1(seed=0)
        assert all(check.passed for check in results)

    def test_msign_suite_passes(self):
        results = oracle.verify_msign(seed=0)
        assert all(check.passed for check in results)

    def test_variance_suite_ratios_are_pinned(self, monkeypatch):
        # recorded once, as the golden traces are (rtol 1e-12): a change to a
        # sample stream, a seed or a spec of the suite shows here, which two
        # runs of the same code cannot show
        reports = []

        def recorded(*args):
            reports.extend(measure_variance(*args))
            return reports

        monkeypatch.setattr(oracle, "measure_variance", recorded)
        checks = oracle.verify_variance(seed=0, n_samples=1000)
        assert [r.ratio for r in reports] == pytest.approx(
            [4.274734309527509, 8.277922680383517], rel=1e-12, abs=0
        )
        assert [c.detail for c in checks] == [
            "ratio 4.275 over 1000 samples", "ratio 8.278 over 1000 samples"
        ]

    def test_unknown_selector(self):
        with pytest.raises(ValueError, match="unknown suite"):
            oracle.run_verification("everything")

    def test_all_concatenates(self):
        # variance suite is exercised in the acceptance tests; here only
        # check the selector machinery with the cheap suites
        names = [c.name for c in oracle.verify_prop1()] + [
            c.name for c in oracle.verify_msign()
        ]
        assert len(names) == len(set(names))
