import numpy as np
import pytest
from numpy.testing import assert_allclose

from zomat import estimators, linalg, objectives, streams
from zomat.estimators import CENTRAL, FORWARD, EstimatorConfig
from zomat.objectives import EvaluationError, Objective
from zomat.params import ParamSpace
from zomat.streams import derive_seed, perturbation


def constant_objective(value=3.0, shape=(4, 5)):
    return Objective(
        name="constant",
        loss_fn=lambda x: value,
        initial_params=ParamSpace({"x": np.zeros(shape)}),
    )


def linear_objective(c):
    return Objective(
        name="linear",
        loss_fn=lambda x: float(np.vdot(c, x["x"])),
        initial_params=ParamSpace({"x": np.zeros(c.shape)}),
        gradient_fn=lambda x: {"x": c.copy()},
    )


def exploding_objective():
    """Finite only at its start, so every shifted point raises."""
    def explode(x):
        return np.inf if np.any(x["x"] != 0.0) else 0.0

    return Objective("explode", explode, ParamSpace({"x": np.zeros((2, 2))}))


def sq_norm_objective(shape):
    return Objective(
        name="half-sq-norm",
        loss_fn=lambda x: 0.5 * float(np.vdot(x["x"], x["x"])),
        initial_params=ParamSpace({"x": np.zeros(shape)}),
        gradient_fn=lambda x: {"x": x["x"].copy()},
    )


class TestEstimatorConfig:
    def test_rejects_tiny_mu(self):
        with pytest.raises(ValueError, match="underflow"):
            EstimatorConfig(mu=1e-13)

    @pytest.mark.parametrize("mu", [float("nan"), float("inf")])
    def test_rejects_non_finite_mu(self, mu):
        with pytest.raises(ValueError, match="not finite"):
            EstimatorConfig(mu=mu)

    @pytest.mark.parametrize("mu", ["1e-3", True, None, 1e-3j])
    def test_rejects_a_mu_that_is_not_a_real_number(self, mu):
        with pytest.raises(ValueError, match="mu must be a real number"):
            EstimatorConfig(mu=mu)

    @pytest.mark.parametrize("n_queries", [4.0, 2.5, True, "4"])
    def test_rejects_non_integer_n_queries(self, n_queries):
        with pytest.raises(ValueError, match=r"n_queries must be an integer >= 1"):
            EstimatorConfig(n_queries=n_queries)

    def test_accepts_a_numpy_integer_n_queries(self):
        assert EstimatorConfig(n_queries=np.int64(4)).n_queries == 4

    def test_rejects_central_multi_query(self):
        with pytest.raises(ValueError, match="central"):
            EstimatorConfig(scheme=CENTRAL, n_queries=2)

    def test_rejects_unknown_scheme(self):
        with pytest.raises(ValueError, match="scheme"):
            EstimatorConfig(scheme="backward")

    @pytest.mark.parametrize(
        "scheme,n,expected", [(FORWARD, 1, 2), (FORWARD, 4, 5), (CENTRAL, 1, 2)]
    )
    def test_queries_per_call(self, scheme, n, expected):
        obj = constant_objective()
        estimators.rge_full(obj, obj.initial_params, EstimatorConfig(scheme=scheme, n_queries=n), 0)
        assert obj.query_count == expected


class TestFullRge:
    def test_constant_function_gives_zero(self):
        obj = constant_objective()
        for cfg in (
            EstimatorConfig(n_queries=3),
            EstimatorConfig(scheme=CENTRAL),
        ):
            est = estimators.rge_full(obj, obj.initial_params, cfg, seed=0)
            assert np.all(est["x"] == 0.0)

    def test_linear_single_query_is_exact(self):
        # linearity makes the forward difference exact: estimate = <C, Psi> Psi
        rng = np.random.default_rng(0)
        c = rng.standard_normal((3, 4))
        for mu in (1e-2, 1e-5):
            obj = linear_objective(c)
            x = obj.initial_params
            cfg = EstimatorConfig(mu=mu, n_queries=1)
            est = estimators.rge_full(obj, x, cfg, seed=42)
            psi = estimators.perturbation(42, 0, 0, (3, 4))
            assert_allclose(est["x"], np.vdot(c, psi) * psi, rtol=1e-8)

    def test_many_query_average_near_true_gradient(self):
        # analytic gradient of 0.5 ||X||_F^2 at the identity is the identity
        obj = sq_norm_objective((2, 2))
        x = obj.initial_params.updated({"x": np.eye(2)})
        cfg = EstimatorConfig(mu=1e-5, n_queries=10_000)
        est = estimators.rge_full(obj, x, cfg, seed=7)
        rel = np.linalg.norm(est["x"] - np.eye(2)) / np.linalg.norm(np.eye(2))
        assert rel <= 0.05

    def test_queries_accounted_forward(self):
        obj = constant_objective()
        cfg = EstimatorConfig(n_queries=3)
        estimators.rge_full(obj, obj.initial_params, cfg, seed=0)
        assert obj.query_count == 4

    def test_queries_accounted_central(self):
        obj = constant_objective()
        cfg = EstimatorConfig(scheme=CENTRAL)
        estimators.rge_full(obj, obj.initial_params, cfg, seed=0)
        assert obj.query_count == 2

    def test_seed_replay_bit_identical(self):
        rng = np.random.default_rng(1)
        c = rng.standard_normal((4, 4))
        cfg = EstimatorConfig(n_queries=4)
        a = estimators.rge_full(linear_objective(c), linear_objective(c).initial_params, cfg, 9)
        b = estimators.rge_full(linear_objective(c), linear_objective(c).initial_params, cfg, 9)
        assert np.array_equal(a["x"], b["x"])

    def test_evaluation_error_propagates(self):
        obj = exploding_objective()
        with pytest.raises(EvaluationError):
            estimators.rge_full(obj, obj.initial_params, EstimatorConfig(), seed=31)

    def test_central_evaluation_error_propagates(self):
        obj = exploding_objective()
        with pytest.raises(EvaluationError):
            estimators.rge_full(obj, obj.initial_params, EstimatorConfig(scheme=CENTRAL), seed=17)


class TestSeedOrDraws:
    @pytest.mark.parametrize("scheme", [FORWARD, CENTRAL])
    @pytest.mark.parametrize("held", [False, True], ids=["full", "held_factor"])
    def test_neither_is_refused_before_any_query(self, held, scheme):
        obj = constant_objective(shape=(4, 5))
        x, cfg = obj.initial_params, EstimatorConfig(scheme=scheme)
        with pytest.raises(ValueError, match="needs a seed or draws, and both are None"):
            if not held:
                estimators.rge_full(obj, x, cfg, None)
            elif scheme == FORWARD:
                estimators.subspace_rge(obj, x, {"x": np.eye(4)[:, :2]}, cfg, None)
            else:
                estimators.lge_lozo(obj, x, {"x": np.eye(4)[:, :2]}, cfg, seed=None)
        assert obj.query_count == 0


class TestGivenBase:
    """A forward estimate given f(X) as ``base`` skips that one query and is
    the same array; a central one refuses a base."""

    @staticmethod
    def with_and_without_base(obj, x, estimate):
        """Both estimates and the queries each cost."""
        start = obj.query_count
        plain = estimate()
        base = obj.evaluate(x)
        mid = obj.query_count
        given = estimate(base=base)
        return plain, given, mid - 1 - start, obj.query_count - mid

    @pytest.mark.parametrize("n_queries", [1, 4])
    def test_full_estimate_is_unchanged_and_one_query_cheaper(self, n_queries):
        obj = objectives.make_quadratic(8, 6, 2, seed=4)
        x, cfg = obj.initial_params, EstimatorConfig(n_queries=n_queries)
        plain, given, plain_cost, given_cost = self.with_and_without_base(
            obj, x, lambda **kw: estimators.rge_full(obj, x, cfg, 13, **kw))
        assert np.array_equal(given["x"], plain["x"])
        assert (plain_cost, given_cost) == (n_queries + 1, n_queries)

    @pytest.mark.parametrize("n_queries", [1, 3])
    def test_subspace_estimate_is_unchanged_and_one_query_cheaper(self, n_queries):
        x = ParamSpace({"x": np.ones((6, 5)), "b": np.ones((1, 5))})
        obj = Objective("sq", lambda x: float(np.vdot(x["x"], x["x"]) + x["b"].sum()), x)
        proj = {"x": linalg.sample_projection(6, 2, seed=1)}
        cfg = EstimatorConfig(n_queries=n_queries)
        plain, given, plain_cost, given_cost = self.with_and_without_base(
            obj, x, lambda **kw: estimators.subspace_rge(obj, x, proj, cfg, 5, **kw))
        assert all(np.array_equal(given[name], plain[name]) for name in x.names)
        assert (plain_cost, given_cost) == (n_queries + 1, n_queries)

    def test_central_refuses_a_base(self):
        obj = constant_objective()
        x = obj.initial_params
        with pytest.raises(ValueError, match="forward differences"):
            estimators.rge_full(obj, x, EstimatorConfig(scheme=CENTRAL), 0, base=obj.evaluate(x))


class TestSubspaceRge:
    def test_constant_function_gives_zero_in_both_spaces(self):
        # zero in the subspace of a projected block and in the full space of
        # a block without a projection
        space = ParamSpace({"x": np.zeros((6, 5)), "b": np.zeros((1, 5))})
        obj = Objective("constant", lambda x: 3.0, space)
        proj = linalg.sample_projection(6, 2, seed=0)
        g_z = estimators.subspace_rge(obj, space, {"x": proj}, EstimatorConfig(n_queries=2), 0)
        assert g_z["x"].shape == (2, 5) and g_z["b"].shape == (1, 5)
        assert np.all(g_z["x"] == 0.0) and np.all(g_z["b"] == 0.0)

    def test_mean_estimate_targets_projected_gradient(self):
        # oracle: the projected analytic gradient P P^T (X - X*).  The mean
        # of Nq single-query estimates misses it with RMS relative error
        # sqrt((r n + 1) / Nq), so assert a band around that law rather than
        # a flat tolerance (at r=4, n=16, Nq=1e4 the RMS is already 8%).
        rng = np.random.default_rng(5)
        target = rng.standard_normal((16, 16))

        def loss_fn(x):
            d = x["x"] - target
            return 0.5 * float(np.vdot(d, d))

        obj = Objective("quad", loss_fn, ParamSpace({"x": np.zeros((16, 16))}))
        x = obj.initial_params
        proj = linalg.sample_projection(16, 4, seed=3)
        cfg = EstimatorConfig(mu=1e-5, n_queries=10_000)
        lifted = proj @ estimators.subspace_rge(obj, x, {"x": proj}, cfg, seed=11)["x"]
        expected = proj @ (proj.T @ (x["x"] - target))
        rel = np.linalg.norm(lifted - expected) / np.linalg.norm(expected)
        rms = np.sqrt((4 * 16 + 1) / 10_000)
        assert 0.2 * rms <= rel <= 2.5 * rms

    def test_mean_estimate_within_five_percent_at_small_rn(self):
        # with r n = 8 the RMS error at Nq=1e4 is ~3%, so the flat 5% bound
        # is attainable; this mirrors the acceptance-level check
        rng = np.random.default_rng(15)
        target = rng.standard_normal((16, 4))

        def loss_fn(x):
            d = x["x"] - target
            return 0.5 * float(np.vdot(d, d))

        obj = Objective("quad", loss_fn, ParamSpace({"x": np.zeros((16, 4))}))
        x = obj.initial_params
        proj = linalg.sample_projection(16, 2, seed=3)
        cfg = EstimatorConfig(mu=1e-5, n_queries=10_000)
        lifted = proj @ estimators.subspace_rge(obj, x, {"x": proj}, cfg, seed=11)["x"]
        expected = proj @ (proj.T @ (x["x"] - target))
        rel = np.linalg.norm(lifted - expected) / np.linalg.norm(expected)
        assert rel <= 0.05

    def test_rejects_central_scheme(self):
        obj = constant_objective()
        proj = linalg.sample_projection(4, 2, seed=0)
        with pytest.raises(ValueError, match="forward"):
            estimators.subspace_rge(
                obj, obj.initial_params, {"x": proj}, EstimatorConfig(scheme=CENTRAL), 0
            )

    def test_rejects_shape_mismatch(self):
        obj = constant_objective(shape=(4, 5))
        proj = linalg.sample_projection(6, 2, seed=0)
        with pytest.raises(ValueError, match="rows"):
            estimators.subspace_rge(
                obj, obj.initial_params, {"x": proj}, EstimatorConfig(), 0
            )

    def test_rejects_unknown_block(self):
        obj = constant_objective(shape=(4, 5))
        proj = linalg.sample_projection(4, 2, seed=0)
        with pytest.raises(KeyError, match="unknown block 'y'"):
            estimators.subspace_rge(
                obj, obj.initial_params, {"y": proj}, EstimatorConfig(), 0
            )

    def test_shared_base_query_accounting(self):
        obj = constant_objective(shape=(6, 4))
        proj = linalg.sample_projection(6, 2, seed=0)
        cfg = EstimatorConfig(n_queries=5)
        estimators.subspace_rge(obj, obj.initial_params, {"x": proj}, cfg, 0)
        assert obj.query_count == 6

    def test_fallback_blocks_share_queries(self):
        # a block without a projection gets the full-space estimate from the
        # same evaluations, in its own shape
        rng = np.random.default_rng(6)
        c1, c2 = rng.standard_normal((6, 4)), rng.standard_normal((1, 5))

        def loss_fn(x):
            return float(np.vdot(c1, x["w"]) + np.vdot(c2, x["b"]))

        space = ParamSpace({"w": np.zeros((6, 4)), "b": np.zeros((1, 5))})
        obj = Objective("linear2", loss_fn, space)
        proj = linalg.sample_projection(6, 2, seed=4)
        cfg = EstimatorConfig(n_queries=3)
        g_z = estimators.subspace_rge(obj, space, {"w": proj}, cfg, seed=12)
        assert obj.query_count == 4
        assert g_z["b"].shape == (1, 5)
        assert g_z["w"].shape == (2, 4)

    def test_seed_replay_bit_identical(self):
        rng = np.random.default_rng(7)
        c = rng.standard_normal((6, 4))
        proj = linalg.sample_projection(6, 2, seed=5)
        cfg = EstimatorConfig(n_queries=2)
        a = estimators.subspace_rge(
            linear_objective(c), linear_objective(c).initial_params, {"x": proj}, cfg, 13
        )
        b = estimators.subspace_rge(
            linear_objective(c), linear_objective(c).initial_params, {"x": proj}, cfg, 13
        )
        assert np.array_equal(a["x"], b["x"])


class TestLozoEstimator:
    """g_B in draw space, B the r-by-n ±1 draw of slot (query 0, block)."""

    CFG = EstimatorConfig(mu=1e-4, scheme=CENTRAL)

    def test_constant_function_gives_zero(self):
        obj = constant_objective(shape=(6, 5))
        a = np.random.default_rng(0).standard_normal((6, 2))
        est = estimators.lge_lozo(obj, obj.initial_params, {"x": a}, self.CFG)
        assert est["x"].shape == (2, 5)
        assert np.all(est["x"] == 0.0)
        assert obj.query_count == 2

    def test_linear_is_exact(self):
        rng = np.random.default_rng(1)
        c = rng.standard_normal((5, 6))
        a = rng.standard_normal((5, 2))
        obj = linear_objective(c)
        est = estimators.lge_lozo(obj, obj.initial_params, {"x": a}, self.CFG, seed=8)
        ab = a @ perturbation(8, 0, 0, (2, 6))
        assert_allclose(a @ est["x"], np.vdot(c, ab) * ab, rtol=1e-8)

    def test_estimate_rank_bounded_by_r(self):
        rng = np.random.default_rng(2)
        c = rng.standard_normal((8, 8))
        a = rng.standard_normal((8, 3))
        obj = linear_objective(c)
        est = estimators.lge_lozo(obj, obj.initial_params, {"x": a}, self.CFG)
        s = np.linalg.svd(a @ est["x"], compute_uv=False)
        assert s[3] / s[0] <= 1e-10

    def test_two_queries_exactly(self):
        obj = constant_objective()
        a = np.random.default_rng(3).standard_normal((4, 2))
        estimators.lge_lozo(obj, obj.initial_params, {"x": a}, self.CFG)
        assert obj.query_count == 2

    def test_rejects_factor_shape_mismatch(self):
        obj = constant_objective(shape=(4, 5))
        a = np.random.default_rng(4).standard_normal((3, 2))
        with pytest.raises(ValueError, match="rows"):
            estimators.lge_lozo(obj, obj.initial_params, {"x": a}, self.CFG)
        assert obj.query_count == 0

    def test_rejects_unknown_block(self):
        obj = constant_objective(shape=(4, 5))
        a = np.random.default_rng(7).standard_normal((4, 2))
        with pytest.raises(KeyError, match="unknown block 'y'"):
            estimators.lge_lozo(obj, obj.initial_params, {"y": a}, self.CFG)
        assert obj.query_count == 0

    def test_rejects_forward_scheme(self):
        obj = constant_objective()
        a = np.random.default_rng(5).standard_normal((4, 2))
        with pytest.raises(ValueError, match="central"):
            estimators.lge_lozo(obj, obj.initial_params, {"x": a}, EstimatorConfig())
        assert obj.query_count == 0

    def test_evaluation_error_propagates(self):
        obj = exploding_objective()
        a = np.random.default_rng(0).standard_normal((2, 1))
        with pytest.raises(EvaluationError):
            estimators.lge_lozo(obj, obj.initial_params, {"x": a}, self.CFG, seed=23)

    def test_rejects_tiny_mu(self):
        obj = constant_objective()
        a = np.random.default_rng(6).standard_normal((4, 2))
        with pytest.raises(ValueError, match="underflow"):
            estimators.lge_lozo(obj, obj.initial_params, {"x": a},
                                EstimatorConfig(mu=1e-14, scheme=CENTRAL))
        assert obj.query_count == 0


class TestBiasConvergence:
    def test_error_shrinks_like_inverse_sqrt_samples(self):
        # averaged over repetitions, log-log slope of the error of the mean
        # lifted estimate against sample count should sit near -1/2
        rng = np.random.default_rng(8)
        target = rng.standard_normal((16, 16))

        def loss_fn(x):
            d = x["x"] - target
            return 0.5 * float(np.vdot(d, d))

        p = linalg.sample_projection(16, 4, seed=6)
        x0 = np.zeros((16, 16))
        expected = p @ (p.T @ (x0 - target))
        cfg = EstimatorConfig(mu=1e-5, n_queries=1)

        checkpoints = [32, 128, 512, 2048]
        reps = 8
        errors = np.zeros(len(checkpoints))
        for rep in range(reps):
            obj = Objective("quad", loss_fn, ParamSpace({"x": x0}))
            x = obj.initial_params
            running = np.zeros_like(x0)
            count = 0
            for n_idx, n in enumerate(checkpoints):
                while count < n:
                    g_z = estimators.subspace_rge(
                        obj, x, {"x": p}, cfg, seed=rep * 1_000_003 + count
                    )
                    running += p @ g_z["x"]
                    count += 1
                errors[n_idx] += np.linalg.norm(running / count - expected)
        errors /= reps
        slope = np.polyfit(np.log(checkpoints), np.log(errors), 1)[0]
        assert -0.6 <= slope <= -0.4


#: a smoothing scale with an inexact reciprocal: at the seeds below, dividing
#: a difference by mu and multiplying it by 1/mu give different bits in at
#: least one coefficient of each estimate
MU = 2.9e-3


def mixed_space_objective():
    """A nonlinear loss on two matrix blocks around a vector block; block
    "a" starts at zero, the others off zero."""
    rng = np.random.default_rng(21)
    targets = {"a": rng.standard_normal((5, 4)), "v": rng.standard_normal((1, 4)),
               "b": rng.standard_normal((3, 6))}
    start = {name: 0.3 * rng.standard_normal(t.shape) for name, t in targets.items()}
    start["a"] = np.zeros((5, 4))

    def loss(x):
        return sum(float(np.sum(np.cosh(x[n] - t))) for n, t in targets.items())

    return Objective("mixed", loss, ParamSpace(start))


def bulk_draws(key, n_queries, x, lifts, bulk):
    """Row 0 of the ``streams.draw_table`` keyed by ``key``, the draws of the
    slots of ``derive_seed(key, 0)``, or None (draw through ``perturbation``)."""
    if not bulk:
        return None
    shapes = [(lifts[name].shape[1], v.shape[1]) if name in lifts else v.shape
              for name, v in x.items()]
    return streams.draw_table((key,), n_queries, shapes)(0)


def reference_forward(obj, x, lifts, mu, n_queries, seed):
    """Forward differences written out one query at a time, in the order of
    the arithmetic the estimators are pinned to."""
    shapes = {name: (lifts[name].shape[1], v.shape[1]) if name in lifts else v.shape
              for name, v in x.items()}
    accum = {name: np.zeros(shape) for name, shape in shapes.items()}
    base = obj.evaluate(x)
    for i in range(n_queries):
        deltas = {name: perturbation(seed, i, b, shape)
                  for b, (name, shape) in enumerate(shapes.items())}
        shifted = x.updated({
            name: x[name] + mu * (lifts[name] @ d if name in lifts else d)
            for name, d in deltas.items()
        })
        coef = (obj.evaluate(shifted) - base) / mu
        for name, d in deltas.items():
            accum[name] += coef * d
    return {name: accum[name] / n_queries for name in x.names}


def reference_central(obj, x, lifts, deltas, mu):
    """One central difference along the per-block draws ``deltas``, a block in
    ``lifts`` (m-by-r L) shifted by mu L D."""
    steps = {name: mu * (lifts[name] @ d if name in lifts else d) for name, d in deltas.items()}
    plus = x.updated({name: x[name] + s for name, s in steps.items()})
    minus = x.updated({name: x[name] - s for name, s in steps.items()})
    coef = (obj.evaluate(plus) - obj.evaluate(minus)) / (2.0 * mu)
    return {name: coef * d for name, d in deltas.items()}


def assert_same_estimate(got, expected):
    assert list(got) == list(expected)
    for name in expected:
        assert np.array_equal(got[name], expected[name]), name


def assert_row_reads_no_seed(got, estimate, *factors, cfg, draws):
    """``estimate`` given the table row ``draws`` and ``seed=None`` equals
    ``got``, its estimate given the row's seed: the call form of the step
    loop and the oracle."""
    obj = mixed_space_objective()
    assert_same_estimate(estimate(obj, obj.initial_params, *factors, cfg, None, draws), got)


class TestReferenceArithmetic:
    """Every estimator equals the per-query reference loop exactly."""

    @pytest.mark.parametrize("bulk", [False, True])
    def test_rge_full_forward(self, bulk):
        seed, cfg = derive_seed(2, 0), EstimatorConfig(mu=MU, n_queries=3)
        obj = mixed_space_objective()
        draws = bulk_draws(2, 3, obj.initial_params, {}, bulk)
        got = estimators.rge_full(obj, obj.initial_params, cfg, seed, draws)
        assert obj.query_count == 4
        ref = mixed_space_objective()
        assert_same_estimate(got, reference_forward(ref, ref.initial_params, {}, MU, 3, seed))
        if bulk:
            assert_row_reads_no_seed(got, estimators.rge_full, cfg=cfg, draws=draws)

    @pytest.mark.parametrize("bulk", [False, True])
    def test_rge_full_central(self, bulk):
        seed, cfg = derive_seed(20, 0), EstimatorConfig(mu=MU, scheme=CENTRAL)
        obj = mixed_space_objective()
        draws = bulk_draws(20, 1, obj.initial_params, {}, bulk)
        got = estimators.rge_full(obj, obj.initial_params, cfg, seed, draws)
        assert obj.query_count == 2
        ref = mixed_space_objective()
        x = ref.initial_params
        deltas = {name: perturbation(seed, 0, b, v.shape) for b, (name, v) in enumerate(x.items())}
        assert_same_estimate(got, reference_central(ref, x, {}, deltas, MU))
        if bulk:
            assert_row_reads_no_seed(got, estimators.rge_full, cfg=cfg, draws=draws)

    @pytest.mark.parametrize("bulk", [False, True])
    def test_subspace_rge(self, bulk):
        # a projected matrix block, a vector block and a matrix block
        # without a projection, all from the same three queries
        seed, cfg = derive_seed(1235, 0), EstimatorConfig(mu=MU, n_queries=3)
        proj = {"a": linalg.sample_projection(5, 2, seed=9)}
        obj = mixed_space_objective()
        draws = bulk_draws(1235, 3, obj.initial_params, proj, bulk)
        got = estimators.subspace_rge(obj, obj.initial_params, proj, cfg, seed, draws)
        assert obj.query_count == 4
        assert got["a"].shape == (2, 4)
        ref = mixed_space_objective()
        assert_same_estimate(got, reference_forward(ref, ref.initial_params, proj, MU, 3, seed))
        if bulk:
            assert_row_reads_no_seed(got, estimators.subspace_rge, proj, cfg=cfg, draws=draws)

    @pytest.mark.parametrize("bulk", [False, True])
    def test_lge_lozo(self, bulk):
        # a factored block, a vector block and a matrix block left to the
        # full-space fallback
        seed, cfg = derive_seed(42, 0), EstimatorConfig(mu=MU, scheme=CENTRAL)
        a = {"a": np.random.default_rng(3).standard_normal((5, 2))}
        obj = mixed_space_objective()
        draws = bulk_draws(42, 1, obj.initial_params, a, bulk)
        got = estimators.lge_lozo(obj, obj.initial_params, a, cfg, seed=seed, draws=draws)
        assert obj.query_count == 2
        assert got["a"].shape == (2, 4)
        ref = mixed_space_objective()
        x = ref.initial_params
        deltas = {name: perturbation(seed, 0, b, (2, v.shape[1]) if name in a else v.shape)
                  for b, (name, v) in enumerate(x.items())}
        assert_same_estimate(got, reference_central(ref, x, a, deltas, MU))
        if bulk:
            assert_row_reads_no_seed(got, estimators.lge_lozo, a, cfg=cfg, draws=draws)

