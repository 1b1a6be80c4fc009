"""Step rules and run loops for the zeroth-order matrix optimizers.

Every query-based optimizer takes the same :func:`step`, X <- X - eta * d,
with d from one direction function over the ``_KINDS`` table.  A kind is a
difference scheme (forward or central) and either no factor, for the
full-space estimate, or a held m-by-r factor F per matrix block (min(m, n)
> 1), for the held-factor estimate lifted back as F g:

  - ``zo_sgd`` / ``mezo``: full-space forward / central estimate.
  - ``subspace_mezo``: forward, F a column-orthonormal projection P, P g_Z.
  - ``zo_muon``: the same estimate whitened before the lift, P msign(g_Z).
  - ``lozo``: central, F a Gaussian left factor A, A g_B.

A central kind costs 2 queries a step and needs ``n_queries`` = 1; a
forward one costs ``n_queries`` + 1.  One-row and one-column blocks take
the full-space estimate from the same shared queries.  The factors are
drawn once per resample epoch and held (:func:`_held_factors`).

Seeds: a run owns one root seed.  The estimate stream is derived from
(root, tag, step) and its (query, block) slots, LOZO's right factor B being
the r-by-n draw of slot (0, block); the held factor streams from (root, tag,
epoch, block index), the epoch being the step rounded down to a multiple of
``resample_interval``.  So trajectories are reproducible, a run entered at
any step takes the steps of a continuous one, and blocks never share a
stream.  The estimate seeds and their slot words are derived in bulk, a
chunk of steps at a time (:class:`zomat.streams.ChunkTable`), with the
values of the scalar :func:`derive_seed` and ``perturbation``.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import estimators, linalg, streams
from .estimators import CENTRAL, FORWARD, EstimatorConfig, check_count, check_real
from .linalg import NumericalError
from .objectives import EvaluationError
from .params import ParamSpace
from .streams import derive_seed

MEZO = "mezo"
ZO_SGD = "zo_sgd"
SUBSPACE_MEZO = "subspace_mezo"
LOZO = "lozo"
ZO_MUON = "zo_muon"

# Tags keeping derived Gaussian streams disjoint.  A tag is part of every
# seed derived with it, so the values are never renumbered (3 and 5 are
# retired).
_TAG_ESTIMATE = 1
_TAG_PROJECTION = 2
_TAG_LOZO_A = 4


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
    total_steps: int = 0

    def __post_init__(self):
        check_real("learning_rate", self.learning_rate)
        if not 0 < self.learning_rate < math.inf:
            raise ValueError(f"learning_rate={self.learning_rate} must be positive and finite")
        EstimatorConfig(mu=self.mu, n_queries=self.n_queries)  # checks mu and n_queries
        check_count("rank", self.rank, 1)
        check_count("resample_interval", self.resample_interval, 1)
        check_count("total_steps", self.total_steps, 0)
        if self.msign_backend not in ("svd", "ns"):
            raise ValueError(f"msign_backend must be svd or ns, got {self.msign_backend!r}")


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


def estimate_streams(state: OptimizerState, n_queries: int, n_blocks: int):
    """Seed ``derive_seed(root, tag, step)`` of the current step's estimate and
    the PCG64 words of its (query, block) slots."""
    root = state.rng_root_seed
    seed, words = state.constant(
        (_TAG_ESTIMATE, root, n_queries, n_blocks),
        lambda: streams.slot_table((root, _TAG_ESTIMATE), n_queries, n_blocks),
    )(state.step)
    return int(seed), words


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
        return linalg.msign_ns(gz)
    except NumericalError as exc:
        raise NumericalError(f"msign failed on block {block_name!r}: {exc}") from exc


def _held_factors(state, cfg, x, draw) -> dict:
    """Each matrix block's m-by-min(rank, m, n) factor for the current epoch,
    drawn as ``draw(root, m, r, epoch, block index)`` when the state holds
    none for that epoch, and held in ``state.factors`` until the next one.
    A matrix block is one with min(m, n) > 1: a factor of a one-row or
    one-column block would clamp every matrix method to rank one."""
    epoch = state.step - state.step % cfg.resample_interval
    if state.factors is None or state.factors[0] != epoch:
        factors = {}
        for idx, (name, value) in enumerate(x.items()):
            m, n = value.shape
            if min(m, n) > 1:
                factors[name] = draw(state.rng_root_seed, m, min(cfg.rank, m, n), epoch, idx)
        state.factors = (epoch, factors)
    return state.factors[1]


def _projection(root, m, r, epoch, idx):
    return linalg.sample_projection(m, r, derive_seed(root, _TAG_PROJECTION, epoch, idx))


def _gaussian_factor(root, m, r, epoch, idx):
    rng = np.random.default_rng(np.random.SeedSequence((root, _TAG_LOZO_A, epoch, idx)))
    return rng.standard_normal((m, r))


def _estimator_config(state, cfg, scheme):
    return state.constant(
        ("estimator_config", scheme, cfg.mu, cfg.n_queries),
        lambda: EstimatorConfig(mu=cfg.mu, n_queries=cfg.n_queries, scheme=scheme),
    )


#: kind -> (difference scheme, held-factor draw or None, whiten before the lift)
_KINDS = {
    MEZO: (CENTRAL, None, False),
    ZO_SGD: (FORWARD, None, False),
    SUBSPACE_MEZO: (FORWARD, _projection, False),
    LOZO: (CENTRAL, _gaussian_factor, False),
    ZO_MUON: (FORWARD, _projection, True),
}
OPTIMIZER_KINDS = tuple(_KINDS)


def _direction(kind, obj, x, cfg, state) -> dict:
    """The step direction d of ``kind``: the full-space estimate, or the
    held-factor estimate g lifted as F g (F msign(g) when whitened; allowed
    but warned about at one query: a rank-one msign)."""
    scheme, draw, whiten = _KINDS[kind]
    est_cfg = _estimator_config(state, cfg, scheme)
    seed, words = estimate_streams(state, cfg.n_queries, len(x.names))
    if draw is None:
        return estimators.rge_full(obj, x, est_cfg, seed, words)
    if whiten and cfg.n_queries == 1:
        warnings.warn("zo_muon with n_queries=1 reduces to a sign-scaled rank-one step; "
                      "multi-query estimates are strongly recommended", stacklevel=3)
    factors = _held_factors(state, cfg, x, draw)
    estimate = estimators.subspace_rge if scheme == FORWARD else estimators.lge_lozo
    d = estimate(obj, x, factors, est_cfg, seed, words)
    for name, f in factors.items():
        d[name] = f @ (_msign(d[name], cfg, name) if whiten else d[name])
    return d


def check_kind(kind: str, cfg: OptimizerConfig) -> None:
    """Reject an unknown kind, or a config its kind cannot run."""
    if kind not in _KINDS:
        raise ValueError(f"unknown optimizer kind {kind!r}; valid: {', '.join(OPTIMIZER_KINDS)}")
    if _KINDS[kind][0] == CENTRAL and cfg.n_queries != 1:
        raise ValueError(f"{kind} uses central differences and requires n_queries=1")


def step(kind: str, obj, x: ParamSpace, cfg: OptimizerConfig, state: OptimizerState) -> ParamSpace:
    """One step of ``kind``: X <- X - eta * d with d from :func:`_direction`;
    advances ``state.step`` and returns the new iterate."""
    direction = _direction(kind, obj, x, cfg, state)
    state.step += 1
    return x.updated({name: x[name] - cfg.learning_rate * d for name, d in direction.items()})


def queries_per_step(kind: str, cfg: OptimizerConfig) -> int:
    """Gradient-estimation queries one step of ``kind`` consumes."""
    check_kind(kind, cfg)
    return 2 if _KINDS[kind][0] == CENTRAL else cfg.n_queries + 1


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
