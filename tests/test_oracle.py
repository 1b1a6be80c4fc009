import numpy as np
import pytest

from zomat import linalg, objectives, oracle, streams
from zomat.estimators import EstimatorConfig, rge_full, subspace_rge
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

    def test_ratio_requires_enough_samples(self):
        obj = objectives.make_quadratic(8, 6, 2, seed=0)
        spec = EstimatorSpec(FULL_RGE, EstimatorConfig())
        with pytest.raises(ValueError, match="samples"):
            measure_variance(spec, obj, obj.initial_params, 100, seed=0)

    def test_nq_scaling_rough(self):
        # reduced-sample sanity run; the tight +-20% band at 1e4 samples is
        # exercised by the acceptance suite
        obj = objectives.make_quadratic(16, 8, 4, seed=1)
        spec = EstimatorSpec(FULL_RGE, EstimatorConfig(n_queries=4))
        report = measure_variance(spec, obj, obj.initial_params, 2000, seed=2)
        assert 2.8 <= report.ratio <= 5.5
        assert report.n_samples == 2000
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
        # the sample seeds and slot words are derived a chunk at a time; the
        # first chunk boundary must not change a single sample
        obj = objectives.make_quadratic(6, 4, 2, seed=5)
        x = obj.initial_params
        n = streams.CHUNK + 3
        p = gradient_aligned_projection(obj, x, rank=2)
        samples = []
        for i in range(n):
            seed = oracle.sample_seed(9, i)
            if spec.kind == FULL_RGE:
                samples.append(rge_full(obj, x, spec.config, seed)["x"])
            else:
                samples.append(p @ subspace_rge(obj, x, {"x": p}, spec.config, seed)["x"])
        expected = float(np.mean(np.var(np.array(samples), axis=0, ddof=1)))
        got = oracle.estimator_variance(spec, obj, x, n, seed=9, projection=p)
        assert got == pytest.approx(expected, rel=1e-10)


class TestMsignBackendComparison:
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
