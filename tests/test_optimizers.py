import numpy as np
import pytest

from zomat import estimators, linalg, objectives, optimizers
from zomat.estimators import CENTRAL, EstimatorConfig
from zomat.objectives import Objective
from zomat.optimizers import (
    LOZO,
    MEZO,
    SUBSPACE_MEZO,
    ZO_MUON,
    ZO_SGD,
    OptimizerConfig,
    OptimizerState,
    run,
    steps_for_budget,
)
from zomat.params import ParamSpace


def constant_objective(shape=(6, 5), value=2.5):
    return Objective("constant", lambda x: value, ParamSpace({"x": np.ones(shape)}))


def quad_objective(shape=(8, 6), seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    target = rng.standard_normal(shape)

    def loss_fn(x):
        d = x["x"] - target
        return scale * 0.5 * float(np.vdot(d, d))

    obj = Objective(
        "quad",
        loss_fn,
        ParamSpace({"x": target + rng.standard_normal(shape)}),
        gradient_fn=lambda x: {"x": scale * (x["x"] - target)},
    )
    return obj


def cfg_for(kind, **overrides):
    defaults = dict(learning_rate=1e-2, mu=1e-3, rank=3, resample_interval=100)
    if kind == ZO_MUON:
        defaults["n_queries"] = 4
    defaults.update(overrides)
    return OptimizerConfig(**defaults)


class TestMezo:
    def test_constant_function_leaves_params_unchanged(self):
        obj = constant_objective()
        x = obj.initial_params
        new_x = optimizers.step(MEZO, obj, x, cfg_for(MEZO), OptimizerState())
        assert np.array_equal(new_x["x"], x["x"])

    def test_two_queries_per_step(self):
        obj = constant_objective()
        optimizers.step(MEZO, obj, obj.initial_params, cfg_for(MEZO), OptimizerState())
        assert obj.query_count == 2

    def test_loss_decreases_for_most_seeds(self):
        # Monte-Carlo over seeds; the central scheme on a quadratic descends
        # whenever the sampled direction is not orthogonal to the gradient
        decreases = 0
        for seed in range(100):
            obj = quad_objective(seed=3)
            x = obj.initial_params
            before = obj.loss(x)
            cfg = cfg_for(MEZO, learning_rate=1e-4)
            new_x = optimizers.step(MEZO, obj, x, cfg, OptimizerState(rng_root_seed=seed))
            if obj.loss(new_x) < before:
                decreases += 1
        assert decreases >= 60

    def test_rejects_multi_query(self):
        obj = constant_objective()
        with pytest.raises(ValueError, match="n_queries=1"):
            optimizers.step(
                MEZO, obj, obj.initial_params, cfg_for(MEZO, n_queries=2), OptimizerState()
            )


class TestSubspaceMezo:
    def test_constant_function_leaves_params_unchanged(self):
        obj = constant_objective()
        x = obj.initial_params
        new_x = optimizers.step(SUBSPACE_MEZO, obj, x, cfg_for(SUBSPACE_MEZO), OptimizerState())
        assert np.array_equal(new_x["x"], x["x"])

    def test_update_lies_in_projection_column_space(self):
        obj = quad_objective()
        x = obj.initial_params
        state = OptimizerState(rng_root_seed=1)
        new_x = optimizers.step(SUBSPACE_MEZO, obj, x, cfg_for(SUBSPACE_MEZO), state)
        p = state.factors[1]["x"]
        delta = new_x["x"] - x["x"]
        assert np.max(np.abs(delta - p @ (p.T @ delta))) <= 1e-10

    def test_two_queries_at_single_query_config(self):
        obj = quad_objective()
        optimizers.step(
            SUBSPACE_MEZO, obj, obj.initial_params, cfg_for(SUBSPACE_MEZO), OptimizerState()
        )
        assert obj.query_count == 2


class TestLozo:
    def test_constant_function_leaves_params_unchanged(self):
        obj = constant_objective()
        x = obj.initial_params
        new_x = optimizers.step(LOZO, obj, x, cfg_for(LOZO), OptimizerState())
        assert np.array_equal(new_x["x"], x["x"])

    def test_update_rank_bounded(self):
        obj = quad_objective(shape=(10, 9))
        x = obj.initial_params
        new_x = optimizers.step(LOZO, obj, x, cfg_for(LOZO, rank=3), OptimizerState())
        s = np.linalg.svd(new_x["x"] - x["x"], compute_uv=False)
        assert s[3] / s[0] <= 1e-10

    def test_two_queries_per_step(self):
        obj = quad_objective()
        optimizers.step(LOZO, obj, obj.initial_params, cfg_for(LOZO), OptimizerState())
        assert obj.query_count == 2

    def test_rejects_multi_query(self):
        # central differences, as for mezo: no silent one-query step
        obj = constant_objective()
        with pytest.raises(ValueError, match="n_queries=1"):
            optimizers.step(
                LOZO, obj, obj.initial_params, cfg_for(LOZO, n_queries=2), OptimizerState()
            )
        assert obj.query_count == 0

    def test_left_factor_lazy_right_factor_fresh(self):
        # within one resample epoch all updates share the left factor, so
        # stacked update columns stay within one r-dimensional column space;
        # across the epoch boundary the space changes
        obj = quad_objective(shape=(8, 6), seed=1)
        cfg = cfg_for(LOZO, rank=2, resample_interval=3, learning_rate=1e-3)
        state = OptimizerState(rng_root_seed=5)
        x = obj.initial_params
        deltas = []
        for _ in range(4):
            new_x = optimizers.step(LOZO, obj, x, cfg, state)
            deltas.append(new_x["x"] - x["x"])
            x = new_x
        in_epoch = np.hstack(deltas[:3])
        s = np.linalg.svd(in_epoch, compute_uv=False)
        assert s[2] / s[0] <= 1e-10  # same A for steps 0, 1, 2
        crossing = np.hstack(deltas[2:])
        s = np.linalg.svd(crossing, compute_uv=False)
        assert s[2] / s[0] > 1e-6  # step 3 resampled A

    def test_held_left_factor_matches_fresh_draw(self):
        # a state that holds the epoch's left factor and a fresh state that
        # draws it from the stream take bit-identical steps
        obj = quad_objective(shape=(8, 6), seed=2)
        cfg = cfg_for(LOZO, rank=2, resample_interval=3, learning_rate=1e-3)
        state = OptimizerState(rng_root_seed=7)
        x = obj.initial_params
        for _ in range(2):
            x = optimizers.step(LOZO, obj, x, cfg, state)
        held = optimizers.step(LOZO, obj, x, cfg, state)
        fresh = optimizers.step(LOZO, obj, x, cfg, OptimizerState(rng_root_seed=7, step=2))
        assert np.array_equal(held["x"], fresh["x"])


class TestZoMuon:
    def test_constant_function_leaves_params_unchanged(self):
        obj = constant_objective()
        x = obj.initial_params
        new_x = optimizers.step(ZO_MUON, obj, x, cfg_for(ZO_MUON), OptimizerState())
        assert np.array_equal(new_x["x"], x["x"])

    def test_update_in_column_space_with_unit_singular_values(self):
        obj = quad_objective(shape=(12, 10))
        x = obj.initial_params
        state = OptimizerState(rng_root_seed=2)
        cfg = cfg_for(ZO_MUON, rank=4)
        new_x = optimizers.step(ZO_MUON, obj, x, cfg, state)
        delta = new_x["x"] - x["x"]
        p = state.factors[1]["x"]
        assert np.max(np.abs(delta - p @ (p.T @ delta))) <= 1e-10
        s = np.linalg.svd(delta / cfg.learning_rate, compute_uv=False)
        nonzero = s[s > 1e-10]
        assert np.max(np.abs(nonzero - 1.0)) <= 1e-8

    def test_queries_per_step_is_nq_plus_one(self):
        obj = quad_objective()
        optimizers.step(
            ZO_MUON, obj, obj.initial_params, cfg_for(ZO_MUON, n_queries=4), OptimizerState()
        )
        assert obj.query_count == 5

    def test_update_norm_is_lr_times_sqrt_rank(self):
        obj = quad_objective(shape=(12, 10))
        x = obj.initial_params
        cfg = cfg_for(ZO_MUON, rank=4)
        new_x = optimizers.step(ZO_MUON, obj, x, cfg, OptimizerState(rng_root_seed=3))
        norm = np.linalg.norm(new_x["x"] - x["x"])
        expected = cfg.learning_rate * np.sqrt(4)
        assert abs(norm - expected) <= 1e-8 * expected

    def test_direction_invariant_to_objective_scaling(self):
        # msign discards scale, so c * f and f give the same step
        cfg = cfg_for(ZO_MUON, rank=4)
        results = []
        for scale in (1.0, 1000.0):
            obj = quad_objective(shape=(9, 7), seed=4, scale=scale)
            x = obj.initial_params
            new_x = optimizers.step(ZO_MUON, obj, x, cfg, OptimizerState(rng_root_seed=6))
            results.append(new_x["x"] - x["x"])
        assert np.max(np.abs(results[0] - results[1])) <= 1e-8

    def test_single_query_warns_and_is_scale_free(self):
        # at one query the direction is sign(coef) * P msign(Psi): the
        # magnitude of the finite difference cannot matter
        cfg = cfg_for(ZO_MUON, n_queries=1, rank=3)
        deltas = []
        for scale in (1.0, 50.0):
            obj = quad_objective(shape=(8, 6), seed=5, scale=scale)
            x = obj.initial_params
            with pytest.warns(UserWarning, match="n_queries=1"):
                new_x = optimizers.step(
                    ZO_MUON, obj, x, cfg, OptimizerState(rng_root_seed=7)
                )
            deltas.append(new_x["x"] - x["x"])
        assert np.max(np.abs(deltas[0] - deltas[1])) <= 1e-8

    def test_vector_only_space_matches_forward_full_space_stepper(self):
        # with no matrix blocks the spectral machinery is inert and the
        # trajectory must coincide bit-for-bit with plain forward descent
        def build():
            rng = np.random.default_rng(8)
            c = rng.standard_normal((1, 7))
            return Objective(
                "vec",
                lambda x: float(np.vdot(c, x["b"]) ** 2),
                ParamSpace({"b": np.ones((1, 7))}),
            )

        cfg = cfg_for(ZO_MUON, n_queries=2, learning_rate=1e-3)
        obj_a, obj_b = build(), build()
        xa, xb = obj_a.initial_params, obj_b.initial_params
        state_a = OptimizerState(rng_root_seed=9)
        state_b = OptimizerState(rng_root_seed=9)
        for _ in range(5):
            xa = optimizers.step(ZO_MUON, obj_a, xa, cfg, state_a)
            xb = optimizers.step(ZO_SGD, obj_b, xb, cfg, state_b)
            assert np.array_equal(xa["b"], xb["b"])
        assert obj_a.query_count == obj_b.query_count


class TestSubspaceDirections:
    """One step of a held-factor kind is x - lr P g (subspace_mezo),
    x - lr P msign(g) (zo_muon) for the estimator's g_Z, or x - lr A g
    (lozo) for its g_B, and x - lr g for a vector block."""

    @staticmethod
    def mixed_objective():
        rng = np.random.default_rng(4)
        targets = {"a": rng.standard_normal((6, 4)), "v": rng.standard_normal((1, 4)),
                   "b": rng.standard_normal((5, 3))}

        def loss_fn(x):
            return 0.5 * sum(float(np.sum((x[n] - t) ** 2)) for n, t in targets.items())

        start = {name: np.zeros_like(t) for name, t in targets.items()}
        return Objective("mixed", loss_fn, ParamSpace(start))

    @pytest.mark.parametrize("kind", [SUBSPACE_MEZO, ZO_MUON, LOZO])
    def test_step_is_lifted_estimate(self, kind):
        n_queries = 1 if kind == LOZO else 3
        cfg = cfg_for(kind, rank=2, n_queries=n_queries)
        obj = self.mixed_objective()
        x = obj.initial_params
        state = OptimizerState(rng_root_seed=9)
        new_x = optimizers.step(kind, obj, x, cfg, state)
        epoch, factors = state.factors
        assert epoch == 0 and set(factors) == {"a", "b"}

        seed, words = optimizers.estimate_streams(OptimizerState(rng_root_seed=9), n_queries, 3)
        if kind == LOZO:
            est_cfg = EstimatorConfig(mu=cfg.mu, scheme=CENTRAL)
            g = estimators.lge_lozo(self.mixed_objective(), x, factors, est_cfg, seed, words)
        else:
            est_cfg = EstimatorConfig(mu=cfg.mu, n_queries=n_queries)
            g = estimators.subspace_rge(self.mixed_objective(), x, factors, est_cfg, seed, words)
        for name in x.names:
            d = g[name]
            if name in factors:
                f = factors[name]
                d = f @ (linalg.msign_svd(d) if kind == ZO_MUON else d)
            assert np.array_equal(new_x[name], x[name] - cfg.learning_rate * d), name


class TestResampling:
    """The held factors of a step: ``state.factors`` after it is
    (epoch, {block: factor}), the factors that step used."""

    @pytest.mark.parametrize("interval", [1, 3, 100])
    def test_schedule_matches_interval(self, interval):
        obj = quad_objective(shape=(6, 5))
        cfg = cfg_for(ZO_MUON, rank=2, resample_interval=interval, learning_rate=1e-4)
        state = OptimizerState(rng_root_seed=11)
        x = obj.initial_params
        total = min(2 * interval + 2, 12) if interval > 3 else 2 * interval + 2
        snapshots = []
        for t in range(total):
            x = optimizers.step(ZO_MUON, obj, x, cfg, state)
            epoch, factors = state.factors
            assert epoch == t - t % interval
            snapshots.append(factors["x"].copy())
        for t in range(1, len(snapshots)):
            same = np.array_equal(snapshots[t], snapshots[t - 1])
            if t % interval == 0:
                assert not same, f"expected resample at step {t}"
            else:
                assert same, f"unexpected resample at step {t}"

    def test_hundred_step_window(self):
        obj = quad_objective(shape=(5, 4))
        cfg = cfg_for(ZO_MUON, rank=2, resample_interval=100, learning_rate=1e-5)
        state = OptimizerState(rng_root_seed=12)
        x = obj.initial_params
        seen = []
        for _ in range(101):
            x = optimizers.step(ZO_MUON, obj, x, cfg, state)
            seen.append(state.factors[1]["x"].copy())
        for t in range(99):
            assert np.array_equal(seen[t], seen[t + 1])
        assert not np.array_equal(seen[99], seen[100])

    def test_resample_deterministic(self):
        for kind in (SUBSPACE_MEZO, ZO_MUON, LOZO):
            cfg = cfg_for(kind, rank=3)
            held = []
            for _ in range(2):
                obj = quad_objective()
                state = OptimizerState(rng_root_seed=3, step=7)
                optimizers.step(kind, obj, obj.initial_params, cfg, state)
                held.append(state.factors)
            assert held[0][0] == held[1][0] == 0
            assert np.array_equal(held[0][1]["x"], held[1][1]["x"]), kind

    def test_rank_clamped_to_block_dims(self):
        for kind in (SUBSPACE_MEZO, ZO_MUON, LOZO):
            obj = quad_objective(shape=(8, 6))
            state = OptimizerState(rng_root_seed=0)
            optimizers.step(kind, obj, obj.initial_params, cfg_for(kind, rank=50), state)
            assert state.factors[1]["x"].shape == (8, 6), kind


class TestRun:
    def test_zero_steps_is_empty_trace(self):
        obj = quad_objective()
        x0 = obj.initial_params
        result = run(obj, x0, cfg_for(MEZO, total_steps=0), MEZO, seed=0)
        assert result.records == ()
        assert result.final_params.allclose(x0)
        assert result.queries == 0

    def test_same_seed_identical_losses(self):
        losses = []
        for _ in range(2):
            obj = quad_objective(seed=6)
            result = run(obj, obj.initial_params, cfg_for(MEZO, total_steps=20), MEZO, seed=3)
            losses.append([rec.loss for rec in result.records])
        assert losses[0] == losses[1]

    def test_mezo_total_queries(self):
        obj = quad_objective()
        result = run(obj, obj.initial_params, cfg_for(MEZO, total_steps=25), MEZO, seed=0)
        assert result.queries == 50
        assert result.records[-1].queries == 50

    def test_records_strictly_increasing(self):
        obj = quad_objective()
        cfg = cfg_for(ZO_MUON, total_steps=13, n_queries=2)
        result = run(obj, obj.initial_params, cfg, ZO_MUON, seed=1, eval_every=4)
        steps = [rec.step for rec in result.records]
        queries = [rec.queries for rec in result.records]
        assert steps == [0, 4, 8, 12, 13]
        assert queries == sorted(set(queries))

    def test_initial_record_present(self):
        obj = quad_objective()
        result = run(obj, obj.initial_params, cfg_for(MEZO, total_steps=2), MEZO, seed=0)
        assert result.records[0].step == 0
        assert result.records[0].queries == 0

    def test_unknown_kind_lists_valid(self):
        obj = quad_objective()
        with pytest.raises(ValueError, match="mezo.*zo_muon"):
            run(obj, obj.initial_params, cfg_for(MEZO, total_steps=1), "adam", seed=0)

    def test_eval_queries_reported_separately(self):
        obj = quad_objective()
        result = run(obj, obj.initial_params, cfg_for(MEZO, total_steps=10), MEZO, seed=0)
        assert result.queries == 20
        assert result.eval_queries >= 10  # per-step trace losses do not count

    def test_eval_queries_count_trace_rows(self):
        obj = quad_objective()
        cfg = cfg_for(MEZO, total_steps=25)
        result = run(obj, obj.initial_params, cfg, MEZO, seed=0, eval_every=10)
        assert [rec.step for rec in result.records] == [0, 10, 20, 25]
        assert result.eval_queries == len(result.records)

    def test_divergence_on_final_step_raises_with_partial_trace(self):
        # evaluations around the start are finite; the single (final) step
        # lands where the loss overflows, which only the trace loss sees
        obj = Objective(
            "steep", lambda x: 1e300 * float(np.sum(x["x"])), ParamSpace({"x": np.zeros((2, 2))})
        )
        from zomat.objectives import EvaluationError

        with pytest.raises(EvaluationError, match="at step 1") as excinfo:
            run(obj, obj.initial_params, cfg_for(MEZO, total_steps=1), MEZO, seed=0)
        trace = excinfo.value.partial_trace
        assert [rec.step for rec in trace] == [0]
        assert obj.query_count == 2

    def test_failed_step_carries_partial_trace(self):
        calls = {"n": 0}

        def flaky(x):
            calls["n"] += 1
            return float("inf") if calls["n"] > 6 else 1.0

        obj = Objective("flaky", flaky, ParamSpace({"x": np.zeros((2, 2))}))
        from zomat.objectives import EvaluationError

        with pytest.raises(EvaluationError) as excinfo:
            run(obj, obj.initial_params, cfg_for(MEZO, total_steps=10), MEZO, seed=0)
        trace = excinfo.value.partial_trace
        assert trace[0].step == 0  # initial record plus the completed steps
        assert trace[-1].step >= 1


class TestBudgeting:
    def test_steps_for_budget(self):
        assert steps_for_budget(MEZO, cfg_for(MEZO), 100) == 50
        assert steps_for_budget(ZO_MUON, cfg_for(ZO_MUON, n_queries=4), 20_000) == 4000
        assert steps_for_budget(SUBSPACE_MEZO, cfg_for(SUBSPACE_MEZO), 7) == 3
        assert steps_for_budget(LOZO, cfg_for(LOZO), 5) == 2

    @pytest.mark.parametrize(
        "kind,n_queries,budget", [(MEZO, 1, 101), (ZO_MUON, 4, 20_000), (ZO_MUON, 3, 17)]
    )
    def test_budget_fairness_bounds(self, kind, n_queries, budget):
        cfg = cfg_for(kind, n_queries=n_queries)
        cost = optimizers.queries_per_step(kind, cfg)
        steps = steps_for_budget(kind, cfg, budget)
        total = steps * cost
        assert total <= budget
        assert total >= budget - (cost - 1)

    @pytest.mark.parametrize("kind", optimizers.OPTIMIZER_KINDS)
    def test_one_step_consumes_queries_per_step(self, kind, monkeypatch):
        # a matrix block and a vector block, so every kind also runs its
        # full-space fallback inside the same queries
        rng = np.random.default_rng(21)
        target = {"w": rng.standard_normal((6, 5)), "b": rng.standard_normal((1, 5))}
        obj = Objective(
            "mixed",
            lambda x: 0.5 * sum(float(np.sum((x[n] - t) ** 2)) for n, t in target.items()),
            ParamSpace({"w": np.zeros((6, 5)), "b": np.zeros((1, 5))}),
        )
        calls = []
        evaluate = Objective.evaluate
        monkeypatch.setattr(Objective, "evaluate", lambda o, x: calls.append(1) or evaluate(o, x))
        cfg = cfg_for(kind, n_queries=1 if kind in (MEZO, LOZO) else 3, rank=2)
        optimizers.step(kind, obj, obj.initial_params, cfg, OptimizerState(rng_root_seed=2))
        assert len(calls) == obj.query_count == optimizers.queries_per_step(kind, cfg)


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(learning_rate=0.0),
            dict(learning_rate=1e-2, mu=0.0),
            dict(learning_rate=1e-2, n_queries=0),
            dict(learning_rate=1e-2, rank=0),
            dict(learning_rate=1e-2, resample_interval=0),
            dict(learning_rate=1e-2, total_steps=-1),
            dict(learning_rate=1e-2, msign_backend="qr"),
            dict(learning_rate=1e-2, mu=1e-13),
            dict(learning_rate=float("nan")),
            dict(learning_rate=float("inf")),
            dict(learning_rate=1e-2, mu=float("nan")),
            dict(learning_rate=1e-2, mu=float("inf")),
            # counts are integers: not a float, even an integral one, nor a bool
            dict(learning_rate=1e-2, n_queries=4.0),
            dict(learning_rate=1e-2, rank=2.5),
            dict(learning_rate=1e-2, rank=True),
            dict(learning_rate=1e-2, resample_interval=10.5),
            dict(learning_rate=1e-2, total_steps=3.0),
            dict(learning_rate=1e-2, total_steps=False),
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            OptimizerConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs,field",
        [
            (dict(learning_rate="1e-2"), "learning_rate"),
            (dict(learning_rate=True), "learning_rate"),
            (dict(learning_rate=None), "learning_rate"),
            (dict(learning_rate=1e-2, mu="1e-3"), "mu"),
            (dict(learning_rate=1e-2, mu=False), "mu"),
        ],
    )
    def test_rejects_a_rate_or_mu_that_is_not_a_real_number(self, kwargs, field):
        with pytest.raises(ValueError, match=f"{field} must be a real number"):
            OptimizerConfig(**kwargs)

    def test_ns_backend_runs(self):
        obj = quad_objective(shape=(10, 8))
        cfg = cfg_for(ZO_MUON, msign_backend="ns", rank=3)
        state = OptimizerState(rng_root_seed=20)
        new_x = optimizers.step(ZO_MUON, obj, obj.initial_params, cfg, state)
        assert np.all(np.isfinite(new_x["x"]))
        assert state.step == 1
