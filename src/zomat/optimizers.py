"""Step rules and run loops for the zeroth-order matrix optimizers.

Every query-based optimizer takes the same :func:`step`, X <- X - eta * d;
the kinds differ only in the direction map that estimates d from queries
(the ``_KINDS`` table, which also holds each kind's queries per step):

  - ``zo_sgd`` / ``mezo``: full-space forward / central-difference estimate.
  - ``subspace_mezo``: the subspace estimate lifted back, P g_Z.
  - ``zo_muon``: the same estimate whitened before the lift, P msign(g_Z).
  - ``lozo``: two-factor low-rank estimate, lazily resampled left factor.

The estimators return g_Z in the subspace; the direction map lifts it.
Vector blocks take the full-space estimate from the same shared queries.
The projection P and LOZO's left factor A are one object, an m-by-r factor
per matrix block, drawn once per resample epoch and held
(:func:`_held_factors`).

Seeds: a run owns one root seed.  The estimate and LOZO right-factor streams
are derived from (root, tag, step[, block index]); the held factor streams
from (root, tag, epoch, block index), the epoch being the step rounded down
to a multiple of ``resample_interval``.  So trajectories are reproducible,
a run entered at any step takes the steps of a continuous one, and blocks
never share a stream.  The estimate seeds, their (query, block) slot words
and the LOZO right-factor words are derived in bulk, a chunk of steps at a
time (:class:`zomat.streams.ChunkTable`), with the values of the scalar
:func:`derive_seed` and ``perturbation``.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import estimators, linalg, streams
from .estimators import CENTRAL, FORWARD, MIN_MU, EstimatorConfig
from .linalg import NumericalError
from .objectives import EvaluationError
from .params import ParamSpace, partition
from .streams import derive_seed

MEZO = "mezo"
ZO_SGD = "zo_sgd"
SUBSPACE_MEZO = "subspace_mezo"
LOZO = "lozo"
ZO_MUON = "zo_muon"

# Tags keeping derived Gaussian streams disjoint.  A tag is part of every
# seed derived with it, so the values are never renumbered (3 is retired).
_TAG_ESTIMATE = 1
_TAG_PROJECTION = 2
_TAG_LOZO_A = 4
_TAG_LOZO_B = 5


@dataclass(frozen=True)
class OptimizerConfig:
    """Scalar hyperparameters shared across the optimizer kinds.

    ``rank`` is clamped per block to min(m, n); ``resample_interval`` is the
    epoch length of the held factors (projections, LOZO's left factor);
    ``total_steps`` may be zero (a run that records nothing and leaves the
    parameters untouched).
    """

    learning_rate: float
    mu: float = 1e-3
    n_queries: int = 1
    rank: int = 8
    resample_interval: int = 100
    msign_backend: str = "svd"
    ns_iterations: int = 5
    total_steps: int = 0

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.mu < MIN_MU:
            raise ValueError(f"mu={self.mu} is below the underflow floor {MIN_MU}")
        if self.n_queries < 1:
            raise ValueError("n_queries must be positive")
        if self.rank < 1:
            raise ValueError("rank must be positive")
        if self.resample_interval < 1:
            raise ValueError("resample_interval must be positive")
        if self.total_steps < 0:
            raise ValueError("total_steps must be non-negative")
        if self.msign_backend not in ("svd", "ns"):
            raise ValueError(f"msign_backend must be svd or ns, got {self.msign_backend!r}")
        if self.ns_iterations < 1:
            raise ValueError("ns_iterations must be positive")


@dataclass
class OptimizerState:
    """Mutable per-run state: step counter, the held factors as (epoch,
    {matrix block name: m-by-r factor}) or None before the first draw, and
    the per-run constants (estimator configs, bulk-derived stream tables)
    keyed by what they hold.  A fresh state at any step draws the factors of
    that step's epoch, so it steps as a continuous run does."""

    rng_root_seed: int = 0
    step: int = 0
    factors: tuple | None = None
    constants: dict = field(default_factory=dict)

    def constant(self, key, make):
        """The per-run constant ``key``, made by ``make()`` on first use."""
        value = self.constants.get(key)
        if value is None:
            value = self.constants[key] = make()
        return value

    def table_row(self, key, make) -> tuple:
        """Row of the current step in the stream table ``key``, made by
        ``make()`` on first use."""
        return self.constant(key, make)(self.step)


def estimate_streams(state: OptimizerState, n_queries: int, n_blocks: int):
    """Seed ``derive_seed(root, tag, step)`` of the current step's estimate and
    the PCG64 words of its (query, block) slots."""
    root = state.rng_root_seed
    seed, words = state.table_row(
        (_TAG_ESTIMATE, root, n_queries, n_blocks),
        lambda: streams.slot_table((root, _TAG_ESTIMATE), n_queries, n_blocks),
    )
    return int(seed), words


def lozo_right_words(state: OptimizerState, blocks: tuple):
    """PCG64 words of the current step's right-factor draws, one row per block
    index in ``blocks``: the stream ``SeedSequence((root, tag, step, block))``."""
    root = state.rng_root_seed

    def fill(steps):
        parts = (root, _TAG_LOZO_B, steps[:, None], np.asarray(blocks, dtype=np.uint64))
        return (streams.seed_states(parts, streams.PCG64_WORDS, np.uint64),)

    return state.table_row((_TAG_LOZO_B, root, blocks), lambda: streams.ChunkTable(fill))[0]


@dataclass(frozen=True)
class StepRecord:
    """One trace row: step index, cumulative queries, loss, wall time."""

    step: int
    queries: int
    loss: float
    elapsed_ms: float = 0.0


@dataclass(frozen=True)
class RunResult:
    """A run's trace rows, final iterate, gradient-estimation queries and
    un-counted trace-loss evaluations (one per row)."""

    records: tuple
    final_params: ParamSpace
    queries: int
    eval_queries: int


def _msign(gz, cfg, block_name):
    try:
        if cfg.msign_backend == "svd":
            return linalg.msign_svd(gz)
        return linalg.msign_ns(gz, iterations=cfg.ns_iterations)
    except NumericalError as exc:
        raise NumericalError(f"msign failed on block {block_name!r}: {exc}") from exc


def _held_factors(state, cfg, x, draw) -> dict:
    """Each matrix block's m-by-min(rank, m, n) factor for the current epoch,
    drawn as ``draw(m, r, epoch, block index)`` when the state holds none for
    that epoch, and held in ``state.factors`` until the next one."""
    epoch = state.step - state.step % cfg.resample_interval
    if state.factors is None or state.factors[0] != epoch:
        factors = {}
        for name in partition(x).matrix_blocks:
            m, n = x[name].shape
            factors[name] = draw(m, min(cfg.rank, m, n), epoch, x.index(name))
        state.factors = (epoch, factors)
    return state.factors[1]


def _estimator_config(state, cfg, scheme):
    return state.constant(
        ("estimator_config", scheme, cfg.mu, cfg.n_queries),
        lambda: EstimatorConfig(mu=cfg.mu, n_queries=cfg.n_queries, scheme=scheme),
    )


def _full_space(scheme):
    """Direction map of the full-space estimate with the given scheme."""

    def direction(obj, x, cfg, state):
        est_cfg = _estimator_config(state, cfg, scheme)
        seed, words = estimate_streams(state, cfg.n_queries, len(x.names))
        return estimators.rge_full(obj, x, est_cfg, seed, words)

    return direction


def _subspace(whiten):
    """Direction map P g_Z of the subspace estimate, or P msign(g_Z) with
    ``whiten`` (allowed but warned about at one query: a rank-one msign)."""

    def direction(obj, x, cfg, state):
        if whiten and cfg.n_queries == 1:
            warnings.warn("zo_muon with n_queries=1 reduces to a sign-scaled rank-one step; "
                          "multi-query estimates are strongly recommended", stacklevel=3)
        root = state.rng_root_seed
        projections = _held_factors(state, cfg, x, lambda m, r, epoch, idx: (
            linalg.sample_projection(m, r, derive_seed(root, _TAG_PROJECTION, epoch, idx))))
        est_cfg = _estimator_config(state, cfg, FORWARD)
        seed, words = estimate_streams(state, cfg.n_queries, len(x.names))
        d = estimators.subspace_rge(obj, x, projections, est_cfg, seed, words)
        for name, p in projections.items():
            d[name] = p @ (_msign(d[name], cfg, name) if whiten else d[name])
        return d

    return direction


def _lozo(obj, x, cfg, state):
    """Direction map of the two-factor low-rank estimate: the left factor is
    held per resample epoch, the right drawn every step."""
    root = state.rng_root_seed
    a_factors = _held_factors(state, cfg, x, lambda m, r, epoch, idx: np.random.default_rng(
        np.random.SeedSequence((root, _TAG_LOZO_A, epoch, idx))).standard_normal((m, r)))
    right = lozo_right_words(state, tuple(map(x.index, a_factors)))
    b_factors = {name: streams.gaussian(words, (a.shape[1], x[name].shape[1]))
                 for words, (name, a) in zip(right, a_factors.items())}
    seed, words = estimate_streams(state, 1, len(x.names))
    return estimators.lge_lozo(obj, x, a_factors, b_factors, cfg.mu, seed=seed, words=words)


#: kind -> (direction map (obj, x, cfg, state) -> {block: d}, queries per step)
_KINDS = {
    MEZO: (_full_space(CENTRAL), lambda cfg: 2),
    ZO_SGD: (_full_space(FORWARD), lambda cfg: cfg.n_queries + 1),
    SUBSPACE_MEZO: (_subspace(whiten=False), lambda cfg: cfg.n_queries + 1),
    LOZO: (_lozo, lambda cfg: 2),
    ZO_MUON: (_subspace(whiten=True), lambda cfg: cfg.n_queries + 1),
}
OPTIMIZER_KINDS = tuple(_KINDS)


def check_kind(kind: str, cfg: OptimizerConfig) -> None:
    """Reject an unknown kind, or a config its kind cannot run."""
    if kind not in _KINDS:
        raise ValueError(f"unknown optimizer kind {kind!r}; valid: {', '.join(OPTIMIZER_KINDS)}")
    if kind in (MEZO, LOZO) and cfg.n_queries != 1:
        raise ValueError(f"{kind} uses central differences and requires n_queries=1")


def step(kind: str, obj, x: ParamSpace, cfg: OptimizerConfig, state: OptimizerState) -> ParamSpace:
    """One step of ``kind``: X <- X - eta * d with d from the kind's direction
    map; advances ``state.step`` and returns the new iterate."""
    direction = _KINDS[kind][0](obj, x, cfg, state)
    state.step += 1
    return x.updated({name: x[name] - cfg.learning_rate * d for name, d in direction.items()})


def queries_per_step(kind: str, cfg: OptimizerConfig) -> int:
    """Gradient-estimation queries one step of ``kind`` consumes."""
    check_kind(kind, cfg)
    return _KINDS[kind][1](cfg)


def steps_for_budget(kind: str, cfg: OptimizerConfig, query_budget: int) -> int:
    """Largest step count whose total query cost fits the budget."""
    return max(query_budget, 0) // queries_per_step(kind, cfg)


def run(obj, x0, cfg: OptimizerConfig, optimizer_kind: str, seed: int, eval_every: int = 1) -> RunResult:
    """Execute ``cfg.total_steps`` steps of one optimizer and trace the loss.

    Records (step, cumulative queries, loss at the unperturbed iterate,
    elapsed wall ms) at step 0, every ``eval_every`` steps and at the final
    step.  Trace losses go through the un-counted evaluation channel, one per
    recorded row, and are reported as ``eval_queries`` apart from the
    gradient-estimation queries.  A non-finite trace loss or query raises
    :class:`EvaluationError` naming the step, the count of steps completed.
    Any error raised during the run carries the rows recorded before it as
    ``partial_trace`` and that count as ``steps``.  Deterministic for a fixed
    seed except for the elapsed times.
    """
    check_kind(optimizer_kind, cfg)
    if eval_every < 1:
        raise ValueError("eval_every must be positive")
    state = OptimizerState(rng_root_seed=int(seed))
    x = x0.copy()
    start_queries = obj.query_count
    eval_start = obj.eval_count
    records = []
    t0 = time.perf_counter()

    def record(elapsed_ms):
        loss = obj.loss(x)
        if not math.isfinite(loss):
            raise EvaluationError(f"objective {obj.name!r} returned {loss}")
        records.append(StepRecord(state.step, obj.query_count - start_queries, loss, elapsed_ms))

    try:
        if cfg.total_steps > 0:
            record(0.0)
        while state.step < cfg.total_steps:
            x = step(optimizer_kind, obj, x, cfg, state)
            if state.step % eval_every == 0 or state.step == cfg.total_steps:
                record((time.perf_counter() - t0) * 1e3)
    except Exception as exc:
        # errors propagate with the trace gathered so far and the steps done
        if isinstance(exc, EvaluationError):
            exc.args = (f"{exc} at step {state.step}",)
        exc.partial_trace = tuple(records)
        exc.steps = state.step
        raise
    return RunResult(
        records=tuple(records),
        final_params=x,
        queries=obj.query_count - start_queries,
        eval_queries=obj.eval_count - eval_start,
    )
