import numpy as np
import pytest
from numpy.testing import assert_allclose

from zomat import objectives, optimizers
from zomat.linalg import effective_rank
from zomat.objectives import Objective
from zomat.params import ParamSpace


def finite_diff_gradient(objective, x: ParamSpace, mu: float = 1e-6) -> dict:
    """Central-difference gradient per coordinate through the un-counted
    evaluation channel.  O(total parameters) evaluations; independent of the
    randomized estimators."""
    if not 1e-8 <= mu <= 1e-4:
        raise ValueError(f"mu must be within [1e-8, 1e-4], got {mu}")
    grads = {}
    for name, value in x.items():
        g = np.zeros_like(value)
        for idx in np.ndindex(value.shape):
            shift = np.zeros_like(value)
            shift[idx] = mu
            f_plus = objective.loss(x.updated({name: value + shift}))
            f_minus = objective.loss(x.updated({name: value - shift}))
            g[idx] = (f_plus - f_minus) / (2.0 * mu)
        grads[name] = g
    return grads


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


class TestQuadratic:
    def test_loss_at_minimizer_is_zero(self):
        obj = objectives.make_quadratic(8, 6, 3, seed=0)
        assert obj.loss(obj.minimizer) <= 1e-20

    def test_gradient_at_minimizer_is_zero(self):
        obj = objectives.make_quadratic(8, 6, 3, seed=0)
        grad = obj.analytic_gradient(obj.minimizer)["x"]
        assert np.max(np.abs(grad)) <= 1e-12

    def test_gradient_rank_equals_k_without_ridge(self):
        obj = objectives.make_quadratic(24, 20, 5, seed=1, delta=0.0)
        rng = np.random.default_rng(2)
        x = obj.initial_params.updated({"x": rng.standard_normal((24, 20))})
        grad = obj.analytic_gradient(x)["x"]
        # independent confirmation that only k singular values survive
        s = np.linalg.svd(grad, compute_uv=False)
        assert s[5] / s[0] <= 1e-12
        assert effective_rank(grad) == 5

    def test_gradient_rank_near_k_with_default_ridge(self):
        obj = objectives.make_quadratic(32, 32, 6, seed=3)
        rng = np.random.default_rng(4)
        x = obj.initial_params.updated({"x": rng.standard_normal((32, 32))})
        grad = obj.analytic_gradient(x)["x"]
        assert abs(effective_rank(grad) - 6) <= 1

    def test_gradient_matches_finite_differences(self):
        obj = objectives.make_quadratic(5, 4, 2, seed=5)
        x = obj.initial_params
        fd = finite_diff_gradient(obj, x, mu=1e-6)["x"]
        an = obj.analytic_gradient(x)["x"]
        assert np.linalg.norm(fd - an) / np.linalg.norm(an) <= 1e-6

    @pytest.mark.parametrize("delta", [0.0, 1e-3])
    @pytest.mark.parametrize("m, k", [(12, 3), (7, 7)])
    def test_factored_matches_dense_curvature(self, m, k, delta):
        n, seed, block_condition = 5, 21, 30.0
        obj = objectives.make_quadratic(
            m, n, k, seed=seed, delta=delta, block_condition=block_condition
        )
        # H = L L^T + delta I from the same draws as the construction
        basis, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((m, k)))
        lam = objectives.planted_spectrum(k, block_condition)
        curvature = (basis * lam) @ basis.T + delta * np.eye(m)
        rng = np.random.default_rng(22)
        for _ in range(3):
            x = obj.initial_params.updated({"x": rng.standard_normal((m, n))})
            d = x["x"] - obj.minimizer["x"]
            assert_allclose(obj.loss(x), 0.5 * np.trace(d.T @ curvature @ d), rtol=1e-12)
            assert_allclose(obj.analytic_gradient(x)["x"], curvature @ d, rtol=1e-12)

    def test_deterministic_from_seed(self):
        a = objectives.make_quadratic(6, 6, 2, seed=7)
        b = objectives.make_quadratic(6, 6, 2, seed=7)
        assert np.array_equal(a.initial_params["x"], b.initial_params["x"])
        assert a.loss(a.initial_params) == b.loss(b.initial_params)

    def test_invalid_dims(self):
        with pytest.raises(ValueError):
            objectives.make_quadratic(4, 4, 5, seed=0)
        with pytest.raises(ValueError):
            objectives.make_quadratic(4, 0, 2, seed=0)

    @pytest.mark.parametrize("delta", [float("nan"), float("inf"), -float("inf"), -1.0])
    def test_rejects_bad_delta(self, delta):
        with pytest.raises(ValueError, match="delta must be finite and non-negative"):
            objectives.make_quadratic(8, 8, 2, seed=0, delta=delta)

    @pytest.mark.parametrize("block_condition", [float("nan"), float("inf"), 0.5])
    def test_rejects_bad_block_condition(self, block_condition):
        with pytest.raises(ValueError, match="block_condition must be finite and >= 1"):
            objectives.make_quadratic(8, 8, 2, seed=0, block_condition=block_condition)

    @pytest.mark.parametrize("option", [{"delta": 1e308}, {"init_offset": 1e200}])
    def test_rejects_an_overflowing_initial_loss(self, option):
        with pytest.raises(ValueError, match="initial loss is inf"):
            objectives.make_quadratic(8, 8, 2, seed=0, **option)

    def test_init_offset_scales_distance(self):
        near = objectives.make_quadratic(6, 6, 2, seed=9, init_offset=0.1)
        far = objectives.make_quadratic(6, 6, 2, seed=9, init_offset=1.0)
        assert far.loss(far.initial_params) > near.loss(near.initial_params)


class TestQueryCounting:
    def test_evaluate_counts_loss_does_not(self):
        obj = objectives.make_quadratic(4, 4, 2, seed=0)
        x = obj.initial_params
        assert obj.query_count == 0
        v1 = obj.evaluate(x)
        v2 = obj.evaluate(x)
        assert obj.query_count == 2
        assert v1 == v2  # purity
        obj.loss(x)
        assert obj.query_count == 2

    def test_counter_never_decrements(self):
        obj = objectives.make_quadratic(4, 4, 2, seed=0)
        counts = []
        for _ in range(5):
            obj.evaluate(obj.initial_params)
            counts.append(obj.query_count)
        assert counts == sorted(counts)

    def test_concurrent_evaluations_count_exactly(self):
        import concurrent.futures

        obj = objectives.make_quadratic(4, 4, 2, seed=0)
        x = obj.initial_params
        with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
            list(pool.map(lambda _: obj.evaluate(x), range(200)))
        assert obj.query_count == 200


class TestMlp:
    def test_untrained_loss_near_ln4(self):
        obj = objectives.make_mlp((8, 16, 4), n_samples=80, seed=0)
        loss = obj.loss(obj.initial_params)
        assert abs(loss - np.log(4.0)) <= 0.2 * np.log(4.0)

    def test_partition_weights_vs_biases(self):
        # a matrix method's step holds factors for the weights, not the biases
        obj = objectives.make_mlp((6, 10, 4), n_samples=40, seed=3)
        x = obj.initial_params
        assert x.names == ("w0", "b0", "w1", "b1")
        state = optimizers.OptimizerState(rng_root_seed=0)
        cfg = optimizers.OptimizerConfig(learning_rate=1e-2, n_queries=4, rank=4)
        optimizers.step(optimizers.ZO_MUON, obj, x, cfg, state)
        assert list(state.factors[1]) == ["w0", "w1"]

    def test_one_spectral_step_uses_five_queries(self):
        obj = objectives.make_mlp((6, 10, 4), n_samples=40, seed=4)
        cfg = optimizers.OptimizerConfig(learning_rate=1e-2, n_queries=4, rank=4)
        state = optimizers.OptimizerState(rng_root_seed=0)
        optimizers.step(optimizers.ZO_MUON, obj, obj.initial_params, cfg, state)
        assert obj.query_count == 5

    def test_width_validation(self):
        with pytest.raises(ValueError):
            objectives.make_mlp((8, 4), n_samples=10, seed=0)
        with pytest.raises(ValueError):
            objectives.make_mlp((8, 128, 4), n_samples=10, seed=0)
