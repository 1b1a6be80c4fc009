"""The counter-hash streams against their definitions.

``derive_seed`` and ``perturbation`` must follow SplitMix64's finalizer
folded over the key, as an independent pure-Python copy of it computes
them, and every table the step loop reads must give the draws of
``perturbation`` at the seeds of ``derive_seed``, on both sides of a chunk
boundary and at any step a stepper is entered.
"""

import os
import warnings

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

#: every kind, at a query count it can run
KIND_QUERIES = [(ZO_SGD, 2), (MEZO, 1), (SUBSPACE_MEZO, 2), (LOZO, 1), (ZO_MUON, 3)]
EDGES = (0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1)
word = st.one_of(st.sampled_from(EDGES), st.integers(0, 2**64 - 1))
shape = st.tuples(st.integers(1, 9), st.integers(1, 70))

MASK = 2**64 - 1
GAMMA = 0x9E3779B97F4A7C15


def ref_mix(z):
    """SplitMix64's finalizer on a Python int."""
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & MASK
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & MASK
    return z ^ (z >> 31)


def ref_fold(parts):
    key = 0
    for part in parts:
        key = ref_mix(ref_mix(key + GAMMA & MASK) ^ part)
    return key


def ref_perturbation(seed, query, block, shape):
    """Bit t of the words mix(K + j GAMMA), j = 1, 2, ..., least significant
    first, as +1 for 0 and -1 for 1."""
    key, size = ref_fold((seed, query, block)), int(np.prod(shape))
    words = [ref_mix(key + j * GAMMA & MASK) for j in range(1, -(-size // 64) + 1)]
    bits = [word >> t & 1 for word in words for t in range(64)]
    return np.array([1.0 - 2.0 * bit for bit in bits[:size]]).reshape(shape)


class TestCounterHash:
    def test_finalizer_is_splitmix64(self):
        # the first two outputs of SplitMix64 seeded with 0
        words = streams._mix(np.arange(1, 3, dtype=np.uint64) * streams.GAMMA)
        assert [int(w) for w in words] == [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4]

    @settings(max_examples=100, deadline=None)
    @given(st.lists(word, max_size=5))
    def test_derive_seed_is_the_fold(self, parts):
        assert derive_seed(*parts) == ref_fold(parts)

    @settings(max_examples=60, deadline=None)
    @given(word, st.integers(0, 5), st.integers(0, 3), shape)
    def test_perturbation_is_the_bits_of_the_slot_words(self, seed, query, block, shape):
        drawn = perturbation(seed, query, block, shape)
        assert drawn.shape == shape and drawn.dtype == np.float64
        assert np.array_equal(drawn, ref_perturbation(seed, query, block, shape))

    @pytest.mark.parametrize("part", [-1, 2**64])
    def test_derive_seed_rejects_a_part_outside_64_bits(self, part):
        with pytest.raises(ValueError, match="seed parts must be integers in"):
            derive_seed(3, part)
        with pytest.raises(ValueError, match="seed parts must be integers in"):
            perturbation(part, 0, 0, (2, 2))

    @pytest.mark.parametrize("part", [-1, 2**64])
    def test_draw_table_rejects_a_prefix_part_outside_64_bits(self, part):
        with pytest.raises(ValueError, match="seed parts must be integers in"):
            streams.draw_table((3, part), 1, [(2, 2)])

    def test_derive_seed_separates_order_and_length(self):
        # each part is mixed into the key before the next, so neither a swap
        # nor a trailing zero part maps two keys to one seed
        seeds = [derive_seed(*parts) for parts in [(), (0,), (0, 0), (1, 2), (2, 1), (1, 2, 0)]]
        assert len(set(seeds)) == len(seeds)
        assert all(0 <= s < 2**64 for s in seeds)

    def test_no_overflow_warning(self):
        # the products overflow on purpose; on NumPy scalars they would warn
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            derive_seed(2**64 - 1, 2**63, 7)
            perturbation(2**64 - 1, 3, 2, (5, 70))
            streams.draw_table((2**64 - 1, 1), 2, [(3, 4), (1, 65)])(CHUNK + 1)

    def test_one_seed_scheme(self):
        assert optimizers.derive_seed is derive_seed
        assert estimators.perturbation is perturbation


class TestDraws:
    @settings(max_examples=40, deadline=None)
    @given(word, st.lists(shape, min_size=1, max_size=3), st.integers(0, 3 * CHUNK))
    def test_every_entry_is_plus_or_minus_one(self, seed, shapes, step):
        draws = streams.draw_table((seed,), 2, shapes)(step)
        for (q, b), drawn in draws.items():
            assert drawn.shape == shapes[b] and set(np.unique(drawn)) <= {-1.0, 1.0}

    def test_signs_are_balanced(self):
        drawn = perturbation(12, 0, 0, (200, 500))
        assert set(np.unique(drawn)) == {-1.0, 1.0}
        assert abs(drawn.mean()) < 4 / np.sqrt(drawn.size)

    @pytest.mark.parametrize("size", [1, 63, 64, 65, 129])
    def test_a_slot_cut_at_a_word_boundary_is_a_prefix_of_a_longer_one(self, size):
        longest = perturbation(9, 1, 2, (3 * 64,))
        assert np.array_equal(perturbation(9, 1, 2, (size,)), longest[:size])
        short = streams.draw_table((4,), 2, [(size,)])(CHUNK + 1)
        long = streams.draw_table((4,), 2, [(3 * 64,)])(CHUNK + 1)
        assert np.array_equal(short[1, 0], long[1, 0][:size])

    def test_distinct_slots_draw_distinct_signs(self):
        keys = [(s, q, b) for s in (0, 1, 2**64 - 1) for q in (0, 1) for b in (0, 1)]
        rows = {perturbation(*key, (64,)).tobytes() for key in keys}
        assert len(rows) == len(keys)

    def test_a_slot_does_not_depend_on_the_other_blocks_shapes(self):
        narrow = streams.draw_table((5, 1), 2, [(3, 4), (2, 2), (1, 7)])
        wide = streams.draw_table((5, 1), 2, [(3, 4), (9, 65), (1, 7)])
        for step in (0, CHUNK + 3):
            a, b = narrow(step), wide(step)
            for key in [(q, blk) for q in range(2) for blk in (0, 2)]:
                assert np.array_equal(a[key], b[key]), (step, key)
            # a slot's own shape only cuts its bit stream
            assert np.array_equal(a[0, 1].ravel(), b[0, 1].ravel()[:4])


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


def scalar_draw_table(prefix, n_queries, shapes):
    """A draw table whose rows are derived one at a time through the scalar
    ``derive_seed`` and ``perturbation``."""
    def table(i):
        seed = derive_seed(*prefix, i)
        return {(q, b): perturbation(seed, q, b, shape)
                for q in range(n_queries) for b, shape in enumerate(shapes)}

    return table


class TestStepTables:
    @pytest.mark.parametrize("step", [0, 1, CHUNK - 1, CHUNK, CHUNK + 2, 5 * CHUNK + 17])
    def test_estimate_table_equals_scalar(self, step):
        root = 2**40 + 9
        table = streams.draw_table((root, optimizers._TAG_ESTIMATE), 3, [(2, 5), (4, 1)])
        draws, seed = table(step), derive_seed(root, optimizers._TAG_ESTIMATE, step)
        assert sorted(draws) == [(i, b) for i in range(3) for b in range(2)]
        for (i, b), drawn in draws.items():
            assert np.array_equal(drawn, perturbation(seed, i, b, [(2, 5), (4, 1)][b]))

    def test_steps_read_in_any_order(self):
        table = streams.draw_table((11, optimizers._TAG_ESTIMATE), 1, [(1, 1)])
        for step in (3 * CHUNK + 5, 2, CHUNK, 3 * CHUNK + 4, 0):
            draws, seed = table(step), derive_seed(11, optimizers._TAG_ESTIMATE, step)
            assert draws[0, 0] == perturbation(seed, 0, 0, (1, 1))

    @pytest.mark.parametrize("kind, n_queries", KIND_QUERIES)
    def test_run_across_chunk_boundary_equals_scalar_streams(self, kind, n_queries, monkeypatch):
        cfg = OptimizerConfig(
            learning_rate=1e-3, n_queries=n_queries, rank=2, resample_interval=50,
            total_steps=CHUNK + 3,
        )
        bulk = run(mixed_objective(), mixed_objective().initial_params, cfg, kind, seed=4,
                   eval_every=CHUNK // 2)
        monkeypatch.setattr(streams, "draw_table", scalar_draw_table)
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
        monkeypatch.setattr(streams, "draw_table", scalar_draw_table)
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
        obj = mixed_objective()
        shapes = [v.shape for _, v in obj.initial_params.items()]
        seed = derive_seed(8, 1, 5)
        draws = streams.draw_table((8, 1), n_queries, shapes)(5) if bulk else None
        full = estimators.rge_full(obj, obj.initial_params, cfg, seed, draws)
        held = held_factor_estimate(obj, obj.initial_params, {}, cfg, seed, draws)
        assert obj.query_count == 2 * (n_queries + 1)
        assert list(full) == list(held) == ["a", "v", "b"]
        for name in full:
            assert np.array_equal(full[name], held[name])


@pytest.mark.parametrize("kind, n_queries", KIND_QUERIES)
def test_a_long_run_forks_nothing(kind, n_queries, monkeypatch):
    # two usable CPUs, where a run once forked a draw-ahead helper
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})

    def refused():
        raise AssertionError("an optimizer run forked")

    monkeypatch.setattr(os, "fork", refused)
    cfg = OptimizerConfig(learning_rate=1e-3, n_queries=n_queries, rank=2,
                          resample_interval=50, total_steps=CHUNK + 3)
    obj = mixed_objective()
    result = run(obj, obj.initial_params, cfg, kind, seed=4, eval_every=CHUNK)
    assert result.records[-1].step == CHUNK + 3
