"""Bulk-derived streams against the scalar reference definitions.

``streams.seed_states`` must equal ``SeedSequence(row).generate_state`` row
by row, and every table the step loop reads must give the draws of
``perturbation`` at the seeds of ``derive_seed``, on both sides of a chunk
boundary and at any step a stepper is entered, whether this process draws
them or a helper process draws them ahead.
"""

import json
import mmap
import os
import select
import signal
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zomat import _parallel, estimators, optimizers, streams
from zomat.estimators import CENTRAL, FORWARD, EstimatorConfig
from zomat.objectives import EvaluationError, Objective
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


def scalar_draw_table(prefix, n_queries, shapes, n_ahead=0):
    """A draw table whose rows are derived one at a time through the scalar
    ``derive_seed`` and ``perturbation``, with no helper."""
    def table(i):
        seed = derive_seed(*prefix, i)
        return {(q, b): perturbation(seed, q, b, shape)
                for q in range(n_queries) for b, shape in enumerate(shapes)}

    return table, None


class TestStepTables:
    @pytest.mark.parametrize("step", [0, 1, CHUNK - 1, CHUNK, CHUNK + 2, 5 * CHUNK + 17])
    def test_estimate_table_equals_scalar(self, step):
        root = 2**40 + 9
        table, ring = streams.draw_table((root, optimizers._TAG_ESTIMATE), 3, [(2, 5), (4, 1)])
        assert ring is None
        draws, seed = table(step), derive_seed(root, optimizers._TAG_ESTIMATE, step)
        assert sorted(draws) == [(i, b) for i in range(3) for b in range(2)]
        for (i, b), drawn in draws.items():
            assert np.array_equal(drawn, perturbation(seed, i, b, [(2, 5), (4, 1)][b]))

    def test_steps_read_in_any_order(self):
        table, _ = streams.draw_table((11, optimizers._TAG_ESTIMATE), 1, [(1, 1)])
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
        draws = streams.draw_table((8, 1), n_queries, shapes)[0](5) if bulk else None
        full = estimators.rge_full(obj, obj.initial_params, cfg, seed, draws)
        held = held_factor_estimate(obj, obj.initial_params, {}, cfg, seed, draws)
        assert obj.query_count == 2 * (n_queries + 1)
        assert list(full) == list(held) == ["a", "v", "b"]
        for name in full:
            assert np.array_equal(full[name], held[name])


def _fork_log(monkeypatch):
    """Replace ``os.fork`` with one that logs the child pid of every fork made
    in this process."""
    pids, fork = [], os.fork

    def logged_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", logged_fork)
    return pids


def _draws_here(monkeypatch):
    """Count the Gaussians drawn from slot words in this process."""
    draws, gaussian = [], streams.gaussian

    def counted(*args, **kwargs):
        draws.append(1)
        return gaussian(*args, **kwargs)

    monkeypatch.setattr(streams, "gaussian", counted)
    return draws


def _made_here(monkeypatch):
    """Log the items whose rows this process makes itself while a ring runs:
    those it takes from a lagging helper (``take`` of
    :meth:`zomat._parallel.Ring.wait`), and those still unfilled after its
    take (or read out of order)."""
    taken, unfilled, wait = [], [], _parallel.Ring.wait

    def logged_wait(ring, i, take):
        def logged_take(k):
            taken.append(k)
            take(k)

        j = wait(ring, i, logged_take)
        if j is None and i not in taken:
            unfilled.append(i)
        return j

    monkeypatch.setattr(_parallel.Ring, "wait", logged_wait)
    return taken, unfilled


def _cpus(monkeypatch, n):
    # two stand for a helper's CPU even where only one is real: the helper
    # then moves to another CPU of the machine, or shares this process's,
    # each yielding it while it waits
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def failing_objective(after, value):
    """The mixed objective, whose evaluations after the first ``after``
    return ``value`` (a float) or raise it (an exception)."""
    obj = mixed_objective()
    loss, calls = obj._loss_fn, []

    def failing(x):
        calls.append(1)
        if len(calls) <= after:
            return loss(x)
        if isinstance(value, Exception):
            raise value
        return value

    obj._loss_fn = failing
    return obj


def _until(done):
    """Poll ``done()`` until it is true, for at most 10 s."""
    deadline = time.perf_counter() + 10
    while not done() and time.perf_counter() < deadline:
        time.sleep(0.001)


def _trace(result):
    return [(r.step, r.queries, r.loss) for r in result.records]


helper_starts = pytest.mark.skipif(not (_parallel._X86 and hasattr(os, "SCHED_IDLE")),
                                   reason="a helper starts only on x86 Linux")


@helper_starts
class TestDrawAhead:
    """``optimizers.run`` has one helper process draw its estimate slots
    ahead where two CPUs are usable; its runs must equal inline ones."""

    def _run(self, kind, n_queries, obj=None, steps=CHUNK + 3):
        cfg = OptimizerConfig(learning_rate=1e-3, n_queries=n_queries, rank=2,
                              resample_interval=50, total_steps=steps)
        obj = obj or mixed_objective()
        return run(obj, obj.initial_params, cfg, kind, seed=4, eval_every=CHUNK // 4)

    @pytest.mark.parametrize("kind, n_queries", KIND_QUERIES)
    def test_helper_run_equals_inline_run(self, kind, n_queries, monkeypatch):
        # a 7 KB ring holds 9 (zo_muon) to 28 (lozo) rows, each reused 28 to
        # 9 times in 259 steps, across the chunk boundary of the slot words
        # at step 256
        monkeypatch.setattr(_parallel, "RING_BYTES", 7 * 1024)
        drawn_here = _draws_here(monkeypatch)
        with monkeypatch.context() as m:
            _cpus(m, 1)
            inline = self._run(kind, n_queries)
        slots, left = divmod(len(drawn_here), CHUNK + 3)
        assert left == 0
        drawn_here.clear()
        _cpus(monkeypatch, 2)
        forks, (taken, unfilled) = _fork_log(monkeypatch), _made_here(monkeypatch)
        ahead = self._run(kind, n_queries)
        # the helper drew every step's slots but those of the steps this
        # process took while the helper lagged, or found still unfilled
        assert len(forks) == 1 and len(drawn_here) == slots * len({*taken, *unfilled})
        assert ahead.records and _trace(ahead) == _trace(inline)
        for name in inline.final_params.names:
            assert np.array_equal(ahead.final_params[name], inline.final_params[name])

    def test_ring_rows_hold_the_inline_draws(self, monkeypatch):
        _cpus(monkeypatch, 2)
        shapes = [(2, 3), (4, 1), (2, 5)]
        taken, unfilled = _made_here(monkeypatch)
        table, ring = streams.draw_table((9, 1), 2, shapes, n_ahead=CHUNK + 2)
        assert ring is not None
        try:
            # the last read is out of order, so drawn here
            for n, step in enumerate([*range(CHUNK + 2), 3]):
                draws, seed = table(step), derive_seed(9, 1, step)
                assert len(draws) == 2 * len(shapes)
                # a ring row is read-only; a row drawn here (taken while the
                # helper lagged, still unfilled after the take, or read out
                # of order) is not
                drawn_here = n == CHUNK + 2 or step in taken or step in unfilled
                for (i, b), draw in draws.items():
                    assert np.array_equal(draw, perturbation(seed, i, b, shapes[b]))
                    assert draw.flags.writeable == drawn_here
        finally:
            ring.close()

    def test_a_lagging_helper_skips_the_steps_the_caller_takes(self, monkeypatch):
        # before each chosen step this process waits until the helper has
        # filled the step before it, so it does not take the chosen step
        # itself; the helper's fill of the chosen step waits until this
        # process, finding that step unfilled, has taken the next one; this
        # process then waits until the helper has passed the step it took
        chosen, steps = {5, 100, CHUNK + 1}, CHUNK + 3
        drawn_here = _draws_here(monkeypatch)
        with monkeypatch.context() as m:
            _cpus(m, 1)
            inline = self._run(MEZO, 1)
        slots = len(drawn_here) // steps
        drawn_here.clear()
        _cpus(monkeypatch, 2)
        taken, unfilled = _made_here(monkeypatch)
        filled, took = mmap.mmap(-1, steps), mmap.mmap(-1, steps)  # shared with the helper
        start, wait = _parallel.Ring.start.__func__, _parallel.Ring.wait

        def lagging_start(cls, fill, n_items, row_bytes):
            def lagging_fill(i, j, row):  # in the helper
                if i in chosen:
                    _until(lambda: took[i + 1])
                filled[i] = 1
                fill(i, j, row)

            return start(cls, lagging_fill, n_items, row_bytes)

        def logged_wait(ring, i, take):
            if i + 1 in chosen:
                _until(lambda: ring._counts[_parallel._FILLED] > i)

            def logged_take(k):
                took[k] = 1
                take(k)
                if k - 1 in chosen:
                    _until(lambda: ring._counts[_parallel._FILLED] > k)

            return wait(ring, i, logged_take)

        monkeypatch.setattr(_parallel.Ring, "start", classmethod(lagging_start))
        monkeypatch.setattr(_parallel.Ring, "wait", logged_wait)
        ahead = self._run(MEZO, 1)
        assert _trace(ahead) == _trace(inline)
        for k in chosen:
            assert filled[k] and took[k + 1] and not filled[k + 1]
        # this process draws each step it takes once, and no other step
        assert len(drawn_here) == slots * len({*taken, *unfilled})

    def test_a_lagging_helper_skips_the_items_the_caller_passed(self, monkeypatch):
        # the helper's fill of item 0 waits until this process has passed
        # items 0-5: it found each unfilled, drew it, and took the odd ones
        _cpus(monkeypatch, 2)
        filled, passed = mmap.mmap(-1, 8), mmap.mmap(-1, 1)  # shared with the helper

        def fill(i, j, row):  # in the helper
            filled[i] = 1
            if i == 0:
                _until(lambda: passed[0])

        ring = _parallel.Ring.start(fill, 8, 8)
        try:
            _until(lambda: filled[0])
            taken = []
            assert [ring.wait(i, taken.append) for i in range(6)] == [None] * 6
            assert taken == [1, 3, 5]
            passed[0] = 1
            _until(lambda: ring._counts[_parallel._FILLED] == 8)
            assert [ring.wait(i, taken.append) for i in (6, 7)] == [6, 7]
            assert list(filled[:]) == [1, 0, 0, 0, 0, 0, 1, 1]
        finally:
            ring.close()

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="pins to one CPU")
    def test_rows_stay_intact_when_both_sides_share_one_cpu(self, monkeypatch):
        # this process and its helper on one CPU: the idle-class helper
        # fills rows only in the gaps this process leaves, over the about
        # 100 laps of the 10-row ring, and this process draws the rest; each
        # row read must hold its own draws, whichever process drew it
        monkeypatch.setattr(_parallel, "RING_BYTES", 4 * 1024)
        monkeypatch.setattr(_parallel, "_usable_cpus", lambda: 2)
        shapes, n = [(3, 4), (5,)], 4 * CHUNK
        inline, _ = streams.draw_table((7, 2), 2, shapes)
        cpus = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(cpus)})
        try:
            table, ring = streams.draw_table((7, 2), 2, shapes, n_ahead=n)
            try:
                for i in range(n):
                    draws, want = table(i), inline(i)
                    assert all(np.array_equal(draws[key], want[key]) for key in want)
            finally:
                ring.close()
        finally:
            os.sched_setaffinity(0, cpus)

    def test_short_run_draws_inline(self, monkeypatch):
        _cpus(monkeypatch, 2)
        forks = _fork_log(monkeypatch)
        self._run(MEZO, 1, steps=CHUNK - 1)
        assert forks == []

    def test_a_killed_helper_leaves_the_trace_unchanged(self, monkeypatch):
        # a ring of 4 rows: the helper is never more than 4 steps ahead
        monkeypatch.setattr(_parallel, "RING_BYTES", 3 * 1024)
        with monkeypatch.context() as m:
            _cpus(m, 1)
            inline = self._run(ZO_MUON, 3, steps=2 * CHUNK)
        _cpus(monkeypatch, 2)
        forks, drawn_here = _fork_log(monkeypatch), _draws_here(monkeypatch)
        obj = mixed_objective()
        loss, calls = obj._loss_fn, []

        def kill_helper_midway(x):
            calls.append(1)
            if len(calls) == 4 * CHUNK:  # near step 128 of 512, at 4 queries a step
                os.kill(forks[0], signal.SIGKILL)
            return loss(x)

        obj._loss_fn = kill_helper_midway
        ahead = self._run(ZO_MUON, 3, obj=obj, steps=2 * CHUNK)
        assert len(forks) == 1
        # this process drew the slots of the steps the helper did not reach
        assert 0 < len(drawn_here) < 2 * CHUNK * 3 * 3
        assert _trace(ahead) == _trace(inline)

    def test_the_helper_runs_in_the_idle_class(self, monkeypatch):
        # two rows of four items: the helper fills both and then spins until
        # this process is done with one
        _cpus(monkeypatch, 2)
        ring = _parallel.Ring.start(lambda i, j, row: None, 4, _parallel.RING_BYTES // 2)
        try:
            _until(lambda: os.sched_getscheduler(ring._pid) == os.SCHED_IDLE)
            assert os.sched_getscheduler(ring._pid) == os.SCHED_IDLE
        finally:
            ring.close()

    def test_a_helper_that_cannot_idle_leaves_the_trace_unchanged(self, monkeypatch):
        drawn_here = _draws_here(monkeypatch)
        with monkeypatch.context() as m:
            _cpus(m, 1)
            inline = self._run(ZO_MUON, 3)
        n_draws = len(drawn_here)
        drawn_here.clear()
        _cpus(monkeypatch, 2)

        def refused(pid, policy, param):
            raise PermissionError("no idle class here")

        # the forked helper inherits the patch, raises and exits
        monkeypatch.setattr(os, "sched_setscheduler", refused)
        forks = _fork_log(monkeypatch)
        ahead = self._run(ZO_MUON, 3)
        assert len(forks) == 1 and len(drawn_here) == n_draws
        assert _trace(ahead) == _trace(inline)

    def test_a_helper_that_filled_every_item_and_exited_still_serves_its_rows(self, monkeypatch):
        _cpus(monkeypatch, 2)
        shapes, n = [(3, 4), (5,)], 8
        inline, _ = streams.draw_table((7, 3), 2, shapes)
        want = [inline(i) for i in range(n)]
        table, ring = streams.draw_table((7, 3), 2, shapes, n_ahead=n)
        try:
            os.waitid(os.P_PID, ring._pid, os.WEXITED | os.WNOWAIT)  # left for close to reap
            drawn_here = _draws_here(monkeypatch)
            for i, want_draws in enumerate(want):
                draws = table(i)
                assert all(np.array_equal(draws[key], want_draws[key]) for key in want_draws)
            assert drawn_here == []
        finally:
            ring.close()

    @pytest.mark.parametrize("value, error", [
        (float("nan"), EvaluationError), (RuntimeError("boom"), RuntimeError),
    ], ids=["diverged", "raised"])
    def test_a_failed_run_reaps_its_helper(self, value, error, monkeypatch):
        # a ring of 9 rows: the helper still runs, waiting, when the run fails
        monkeypatch.setattr(_parallel, "RING_BYTES", 3 * 1024)
        _cpus(monkeypatch, 2)
        forks = _fork_log(monkeypatch)
        with pytest.raises(error) as info:
            self._run(MEZO, 1, obj=failing_objective(CHUNK, value))
        assert len(forks) == 1 and 0 < info.value.steps < CHUNK // 2


@pytest.mark.skipif(not os.path.exists("/proc/self/stat"), reason="reads /proc")
def test_this_cpu_is_one_this_process_may_use():
    assert _parallel._this_cpu() in os.sched_getaffinity(0)


HELPER_LEFT_BEHIND = """
import os
import numpy as np
from zomat import optimizers
from zomat.objectives import Objective
from zomat.params import ParamSpace

os.sched_getaffinity = lambda pid: {0, 1}
fork = os.fork

def announced_fork():
    pid = fork()
    if pid:
        print(pid, flush=True)
    return pid

os.fork = announced_fork
obj = Objective("q", lambda x: float(np.sum(x["x"] ** 2)), ParamSpace({"x": np.ones((4, 4))}))
cfg = optimizers.OptimizerConfig(learning_rate=1e-6, total_steps=10**8)
optimizers.run(obj, obj.initial_params, cfg, optimizers.MEZO, seed=0, eval_every=10**8)
"""


def _alive(pid):
    """Whether process ``pid`` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@helper_starts
@pytest.mark.skipif(not os.path.exists("/proc/self/stat"), reason="reads /proc")
def test_a_killed_caller_leaves_no_helper_behind():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    caller = subprocess.Popen([sys.executable, "-c", HELPER_LEFT_BEHIND], env=env,
                              stdout=subprocess.PIPE, text=True)
    try:
        assert select.select([caller.stdout], [], [], 60)[0], "no helper started in 60 s"
        helper = int(caller.stdout.readline())
        assert _alive(helper)
    finally:
        caller.kill()
        caller.wait()
        caller.stdout.close()
    time.sleep(1.0)
    assert not _alive(helper)


HELPER_STOPPED = """
import contextlib, json, os, signal
import numpy as np
from zomat import _parallel, optimizers
from zomat.objectives import Objective
from zomat.params import ParamSpace

_parallel.RING_BYTES = 3 * 1024  # a ring of a few rows, which the helper fills and waits on
fork, helpers = os.fork, []

def announced_fork():
    pid = fork()
    if pid:
        helpers.append(pid)
        print(pid, flush=True)
    return pid

os.fork = announced_fork

def trace(stop_after):
    evaluations = []

    def loss(x):
        evaluations.append(1)
        if len(evaluations) == stop_after:
            os.kill(helpers[-1], signal.SIGSTOP)
        return float(np.sum(x["x"] ** 2))

    obj = Objective("q", loss, ParamSpace({"x": np.ones((4, 4))}))
    cfg = optimizers.OptimizerConfig(learning_rate=1e-3, total_steps=2000)
    result = optimizers.run(obj, obj.initial_params, cfg, optimizers.MEZO, seed=0, eval_every=100)
    return [(r.step, r.queries, r.loss) for r in result.records]

os.sched_getaffinity = lambda pid: {0}
inline = trace(None)
os.sched_getaffinity = lambda pid: {0, 1}
try:
    stopped = trace(200)
finally:
    for pid in helpers:  # the run reaps its helper; a no-op then
        with contextlib.suppress(ProcessLookupError, ChildProcessError):
            os.kill(pid, signal.SIGCONT)
            os.waitpid(pid, 0)
print(json.dumps([inline, stopped]), flush=True)
"""


@helper_starts
def test_a_stopped_helper_cannot_stall_a_run():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    caller = subprocess.Popen([sys.executable, "-c", HELPER_STOPPED], env=env,
                              stdout=subprocess.PIPE, text=True)
    try:
        out = caller.communicate(timeout=60)[0]
    except subprocess.TimeoutExpired:
        caller.kill()
        for line in caller.communicate()[0].splitlines():
            os.kill(int(line), signal.SIGCONT)  # orphaned, it sees its parent gone and exits
        pytest.fail("the run stalled on its stopped helper")
    lines = out.splitlines()
    assert caller.returncode == 0
    inline, stopped = json.loads(lines[-1])
    assert len(lines) == 2 and len(stopped) == 21 and stopped == inline
