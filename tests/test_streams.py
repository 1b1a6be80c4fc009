"""Bulk-derived streams against the scalar reference definitions.

``streams.seed_states`` must equal ``SeedSequence(row).generate_state`` row
by row, and every table the step loop reads must give the same seeds and
draws as ``derive_seed`` and ``perturbation``, on both sides of a chunk
boundary and at any step a stepper is entered.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zomat import estimators, optimizers, streams
from zomat.estimators import CENTRAL, FORWARD, EstimatorConfig
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
)
from zomat.params import ParamSpace
from zomat.streams import CHUNK, derive_seed, perturbation

#: values at the word-count edges of SeedSequence's int coercion
EDGES = (0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1)
word = st.one_of(st.sampled_from(EDGES), st.integers(0, 2**64 - 1))


@st.composite
def entropy_batches(draw):
    """(parts, rows): columns that are shared ints or per-row uint64 arrays."""
    n_rows = draw(st.integers(1, 6))
    parts = []
    for _ in range(draw(st.integers(1, 6))):
        if draw(st.booleans()):
            # shared entries may be wider than 64 bits
            parts.append(draw(st.one_of(word, st.integers(0, 2**96))))
        else:
            values = draw(st.lists(word, min_size=n_rows, max_size=n_rows))
            parts.append(np.array(values, dtype=np.uint64))
    if all(isinstance(p, int) for p in parts):
        parts.append(np.arange(n_rows, dtype=np.uint64))
    rows = [
        tuple(p if isinstance(p, int) else int(p[r]) for p in parts)
        for r in range(n_rows)
    ]
    return parts, rows


class TestSeedStates:
    @settings(max_examples=150, deadline=None)
    @given(entropy_batches(), st.integers(1, 9))
    def test_equals_seed_sequence(self, batch, n_words):
        parts, rows = batch
        got = streams.seed_states(parts, n_words)
        assert got.shape == (len(rows), n_words) and got.dtype == np.uint64
        for row, values in zip(rows, got):
            expected = np.random.SeedSequence(row).generate_state(n_words, np.uint64)
            assert np.array_equal(values, expected), row

    def test_mixed_word_counts_in_one_batch(self):
        seeds = np.array([0, 2**32 - 1, 2**32, 2**64 - 1], dtype=np.uint64)
        got = streams.seed_states((seeds, 0, 7), 1)[:, 0]
        assert [int(v) for v in got] == [derive_seed(int(s), 0, 7) for s in seeds]

    def test_broadcasts_columns(self):
        steps = np.arange(3, dtype=np.uint64)[:, None]
        blocks = np.array([0, 2], dtype=np.uint64)
        got = streams.seed_states((5, 4, steps, blocks), 4)
        assert got.shape == (3, 2, 4)
        ref = np.random.SeedSequence((5, 4, 2, 2)).generate_state(4, np.uint64)
        assert np.array_equal(got[2, 1], ref)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            streams.seed_states((-1, np.arange(2)), 1)


class TestGaussian:
    @settings(max_examples=40, deadline=None)
    @given(word, st.integers(0, 5), st.integers(0, 3))
    def test_slot_draw_equals_perturbation(self, seed, query, block):
        words = streams.slot_words(np.array([seed], dtype=np.uint64), query + 1, block + 1)
        drawn = streams.gaussian(words[0, query, block], (3, 4))
        assert np.array_equal(drawn, perturbation(seed, query, block, (3, 4)))

    def test_one_seed_scheme(self):
        assert optimizers.derive_seed is derive_seed
        assert estimators.perturbation is perturbation


def mixed_objective():
    """Two matrix blocks around a vector block, so block indices matter."""
    rng = np.random.default_rng(0)
    targets = {"a": rng.standard_normal((4, 3)), "v": rng.standard_normal((4, 1)),
               "b": rng.standard_normal((3, 5))}
    start = {name: np.zeros_like(t) for name, t in targets.items()}

    def loss(x):
        return 0.5 * sum(float(np.sum((x[n] - t) ** 2)) for n, t in targets.items())

    return Objective("mixed", loss, ParamSpace(start))


def single_block_objective():
    """One matrix block under a quadratic."""
    target = np.random.default_rng(1).standard_normal((6, 5))
    return Objective("single", lambda x: 0.5 * float(np.sum((x["x"] - target) ** 2)),
                     ParamSpace({"x": np.zeros((6, 5))}))


def scalar_estimate_streams(state, n_queries, n_blocks):
    """The per-step estimate seed derived one at a time; no words, so the
    estimators draw through ``perturbation``."""
    return derive_seed(state.rng_root_seed, optimizers._TAG_ESTIMATE, state.step), None


class TestStepTables:
    @pytest.mark.parametrize("step", [0, 1, CHUNK - 1, CHUNK, CHUNK + 2, 5 * CHUNK + 17])
    def test_estimate_table_equals_scalar(self, step):
        state = OptimizerState(rng_root_seed=2**40 + 9, step=step)
        seed, words = optimizers.estimate_streams(state, 3, 2)
        assert seed == derive_seed(state.rng_root_seed, optimizers._TAG_ESTIMATE, step)
        for i in range(3):
            for b in range(2):
                drawn = streams.gaussian(words[i, b], (2, 5))
                assert np.array_equal(drawn, perturbation(seed, i, b, (2, 5)))

    def test_steps_read_in_any_order(self):
        state = OptimizerState(rng_root_seed=11)
        for step in (3 * CHUNK + 5, 2, CHUNK, 3 * CHUNK + 4, 0):
            state.step = step
            seed, _ = optimizers.estimate_streams(state, 1, 1)
            assert seed == derive_seed(11, optimizers._TAG_ESTIMATE, step)

    @pytest.mark.parametrize(
        "kind, n_queries",
        [(ZO_SGD, 2), (MEZO, 1), (SUBSPACE_MEZO, 2), (LOZO, 1), (ZO_MUON, 3)],
    )
    def test_run_across_chunk_boundary_equals_scalar_streams(self, kind, n_queries, monkeypatch):
        cfg = OptimizerConfig(
            learning_rate=1e-3, n_queries=n_queries, rank=2, resample_interval=50,
            total_steps=CHUNK + 3,
        )
        bulk = run(mixed_objective(), mixed_objective().initial_params, cfg, kind, seed=4,
                   eval_every=CHUNK // 2)
        monkeypatch.setattr(optimizers, "estimate_streams", scalar_estimate_streams)
        scalar = run(mixed_objective(), mixed_objective().initial_params, cfg, kind, seed=4,
                     eval_every=CHUNK // 2)
        assert [r.loss for r in bulk.records] == [r.loss for r in scalar.records]
        for name in bulk.final_params.names:
            assert np.array_equal(bulk.final_params[name], scalar.final_params[name])

    @pytest.mark.parametrize("kind", [ZO_SGD, ZO_MUON, LOZO])
    def test_stepper_entered_at_arbitrary_step(self, kind, monkeypatch):
        cfg = OptimizerConfig(learning_rate=1e-2, n_queries=1 if kind == LOZO else 2, rank=2,
                              resample_interval=7)
        obj = mixed_objective()
        x = obj.initial_params
        bulk = optimizers.step(
            kind, obj, x, cfg, OptimizerState(rng_root_seed=5, step=3 * CHUNK - 1)
        )
        monkeypatch.setattr(optimizers, "estimate_streams", scalar_estimate_streams)
        scalar = optimizers.step(
            kind, obj, x, cfg, OptimizerState(rng_root_seed=5, step=3 * CHUNK - 1)
        )
        for name in x.names:
            assert np.array_equal(bulk[name], scalar[name])


class TestResume:
    @pytest.mark.parametrize("make", [single_block_objective, mixed_objective])
    @pytest.mark.parametrize("kind", [SUBSPACE_MEZO, ZO_MUON, LOZO])
    def test_fresh_state_mid_epoch_steps_as_continuous_run(self, kind, make):
        # the held factors are those of the step's epoch however the state got
        # there, so a run resumed mid-epoch replays the continuous one
        cfg = OptimizerConfig(learning_rate=1e-2, n_queries=1 if kind == LOZO else 2, rank=2,
                              resample_interval=3)
        obj = make()
        x, continuous = obj.initial_params, OptimizerState(rng_root_seed=6)
        for _ in range(4):
            x = optimizers.step(kind, obj, x, cfg, continuous)
        resumed = OptimizerState(rng_root_seed=6, step=4)
        for _ in range(3):  # steps 4 and 5 of epoch 3, then step 6 of the next
            a = optimizers.step(kind, obj, x, cfg, continuous)
            b = optimizers.step(kind, obj, x, cfg, resumed)
            for name in x.names:
                assert np.array_equal(a[name], b[name]), (resumed.step, name)
            x = a


class TestOneForwardLoop:
    @pytest.mark.parametrize("scheme,n_queries,held_factor_estimate", [
        pytest.param(FORWARD, 3, estimators.subspace_rge, id="forward"),
        pytest.param(CENTRAL, 1, estimators.lge_lozo, id="central"),
    ])
    @pytest.mark.parametrize("bulk", [False, True])
    def test_full_estimate_is_subspace_estimate_without_projections(
        self, bulk, scheme, n_queries, held_factor_estimate
    ):
        # rge_full and its scheme's held-factor estimate (subspace_rge or
        # lge_lozo) with no factor run the same loop over the same draws:
        # the step of zo_sgd and of mezo
        cfg = EstimatorConfig(mu=1e-3, n_queries=n_queries, scheme=scheme)
        seed = derive_seed(8, 1, 5)
        words = (streams.slot_words(np.array([seed], dtype=np.uint64), n_queries, 3)[0]
                 if bulk else None)
        obj = mixed_objective()
        full = estimators.rge_full(obj, obj.initial_params, cfg, seed, words)
        held = held_factor_estimate(obj, obj.initial_params, {}, cfg, seed, words)
        assert obj.query_count == 2 * (n_queries + 1)
        assert list(full) == list(held) == ["a", "v", "b"]
        for name in full:
            assert np.array_equal(full[name], held[name])
