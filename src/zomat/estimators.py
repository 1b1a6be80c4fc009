"""Zeroth-order gradient estimators.

Three estimator families share one perturbation discipline:

  - full-space randomized estimates from forward or central differences,
  - the subspace estimator, which perturbs a low-dimensional variable through
    a column-orthonormal projection and lifts the result back, and
  - the two-factor low-rank baseline with a lazily held left factor.

Perturbations are never stored across a call: each Gaussian draw is
regenerated from a counter-based split of the call seed per (query index,
block index), the stream of :func:`perturbation`, so replaying a seed
reproduces an estimate bit-for-bit and the peak scratch memory per block is
a single perturbation matrix.  Callers that make many calls (the optimizer
step loop, the oracle's Monte-Carlo runs) derive the PCG64 seed words of
every slot in bulk, a chunk of calls at a time (:mod:`zomat.streams`), and
pass them in as ``words``; the draws are the same values either way.  All
blocks are perturbed jointly per query, and in the forward scheme the base
value f(X) is evaluated once and shared across queries and blocks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import Projection
from .objectives import EvaluationError
from .params import ParamSpace
from .streams import gaussian, perturbation

FORWARD = "forward"
CENTRAL = "central"

#: Smoothing parameters below this underflow the finite differences.
MIN_MU = 1e-12


@dataclass(frozen=True)
class EstimatorConfig:
    """Smoothing scale, query count and difference scheme.

    The central scheme costs two evaluations per query and is only permitted
    with a single query; the forward scheme shares one base evaluation across
    all queries, costing n_queries + 1 in total.
    """

    mu: float = 1e-3
    n_queries: int = 1
    scheme: str = FORWARD

    def __post_init__(self):
        if self.mu < MIN_MU:
            raise ValueError(f"mu={self.mu} is below the underflow floor {MIN_MU}")
        if self.n_queries < 1:
            raise ValueError(f"n_queries must be positive, got {self.n_queries}")
        if self.scheme not in (FORWARD, CENTRAL):
            raise ValueError(f"scheme must be forward or central, got {self.scheme!r}")
        if self.scheme == CENTRAL and self.n_queries != 1:
            raise ValueError("central differences are only defined for n_queries=1")

    @property
    def queries_per_call(self) -> int:
        if self.scheme == FORWARD:
            return self.n_queries + 1
        return 2 * self.n_queries


@dataclass(frozen=True)
class GradEstimate:
    """A per-block gradient estimate plus the accounting for the call.

    ``queries_used`` is the total number of function evaluations the estimate
    call consumed; blocks estimated jointly in one call share the number.
    """

    grad: np.ndarray
    queries_used: int


def _draw(seed, words, query_index, block_index, shape):
    """The (query, block) slot's draw, from precomputed ``words`` when given."""
    if words is None:
        return perturbation(seed, query_index, block_index, shape)
    return gaussian(words[query_index, block_index], shape)


def _evaluate(obj, x, seed):
    try:
        return obj.evaluate(x)
    except EvaluationError as exc:
        exc.seed = seed
        raise


def rge_full(obj, x: ParamSpace, cfg: EstimatorConfig, seed: int, words=None) -> dict:
    """Full-space randomized gradient estimate, one GradEstimate per block.

    Forward scheme: (1/Nq) sum_i [(f(X + mu Psi_i) - f(X)) / mu] Psi_i with
    Psi_i standard Gaussian per block.  Central scheme (single query):
    [(f(X + mu Psi) - f(X - mu Psi)) / (2 mu)] Psi.  ``words``, when given,
    holds the (query, block) slot words of ``seed`` from
    :func:`zomat.streams.slot_words`.
    """
    used = cfg.queries_per_call
    if cfg.scheme == CENTRAL:
        deltas = {
            name: _draw(seed, words, 0, x.index(name), value.shape)
            for name, value in x.items()
        }
        coef = _central_coef(obj, x, deltas, cfg.mu, seed)
        return {name: GradEstimate(coef * d, used) for name, d in deltas.items()}
    accum = {name: np.zeros_like(value) for name, value in x.items()}
    base = _evaluate(obj, x, seed)
    for i in range(cfg.n_queries):
        deltas = {
            name: _draw(seed, words, i, x.index(name), value.shape)
            for name, value in x.items()
        }
        shifted = x.updated(
            {name: x[name] + cfg.mu * d for name, d in deltas.items()}
        )
        coef = (_evaluate(obj, shifted, seed) - base) / cfg.mu
        for name, d in deltas.items():
            accum[name] += coef * d
    return {
        name: GradEstimate(grad=accum[name] / cfg.n_queries, queries_used=used)
        for name in x.names
    }


def _central_coef(obj, x, deltas, mu, seed):
    """(f(X + mu D) - f(X - mu D)) / (2 mu) for the per-block directions D."""
    steps = {name: mu * d for name, d in deltas.items()}
    plus = x.updated({name: x[name] + s for name, s in steps.items()})
    minus = x.updated({name: x[name] - s for name, s in steps.items()})
    return (_evaluate(obj, plus, seed) - _evaluate(obj, minus, seed)) / (2.0 * mu)


def subspace_rge(
    obj, x: ParamSpace, projections: dict, cfg: EstimatorConfig, seed: int, words=None
):
    """Subspace randomized gradient estimate with lifting.

    Blocks with a projection P (m-by-r) are perturbed by mu * P @ Psi_i with
    Psi_i an r-by-n Gaussian; the low-dimensional estimate g_Z accumulates
    Psi-weighted forward differences, and the lifted estimate is P @ g_Z,
    which lies in col(P) by construction and targets the projected gradient
    P P^T grad f.  Blocks without a projection fall back to full-space
    Gaussian perturbations inside the same queries, so one call on a mixed
    space still costs n_queries + 1 evaluations.

    Returns (z_estimates, lifted_estimates), both keyed by block name; for
    fallback blocks the two entries are the same full-space estimate.
    ``words`` is as in :func:`rge_full`.
    """
    if cfg.scheme != FORWARD:
        raise ValueError("the subspace estimator is defined with forward differences")
    for name, proj in projections.items():
        p = proj.matrix if isinstance(proj, Projection) else proj
        if name not in x:
            raise KeyError(f"projection given for unknown block {name!r}")
        if p.shape[0] != x[name].shape[0]:
            raise ValueError(
                f"projection for block {name!r} has {p.shape[0]} rows, "
                f"block has {x[name].shape[0]}"
            )

    mats = {
        name: (proj.matrix if isinstance(proj, Projection) else np.asarray(proj))
        for name, proj in projections.items()
    }
    accum_z = {}
    for name, value in x.items():
        if name in mats:
            accum_z[name] = np.zeros((mats[name].shape[1], value.shape[1]))
        else:
            accum_z[name] = np.zeros_like(value)

    base = _evaluate(obj, x, seed)
    for i in range(cfg.n_queries):
        deltas = {}
        shifts = {}
        for name, value in x.items():
            if name in mats:
                psi = _draw(
                    seed, words, i, x.index(name), (mats[name].shape[1], value.shape[1])
                )
                shifts[name] = value + cfg.mu * (mats[name] @ psi)
            else:
                psi = _draw(seed, words, i, x.index(name), value.shape)
                shifts[name] = value + cfg.mu * psi
            deltas[name] = psi
        coef = (_evaluate(obj, x.updated(shifts), seed) - base) / cfg.mu
        for name, psi in deltas.items():
            accum_z[name] += coef * psi

    used = cfg.n_queries + 1
    z_est, lifted_est = {}, {}
    for name in x.names:
        gz = accum_z[name] / cfg.n_queries
        z_est[name] = GradEstimate(gz, used)
        lifted = mats[name] @ gz if name in mats else gz
        lifted_est[name] = GradEstimate(lifted, used)
    return z_est, lifted_est


def lge_lozo(obj, x: ParamSpace, a_factors, b_factors, mu: float, seed: int = 0,
             words=None) -> dict:
    """Two-factor low-rank estimate [(f(X + mu AB) - f(X - mu AB)) / (2 mu)] AB.

    ``a_factors`` and ``b_factors`` map block names to the m-by-r and r-by-n
    Gaussian factors.  Blocks without factors are perturbed with full Gaussians
    drawn from ``seed`` (query slot 0, or ``words`` as in :func:`rge_full`)
    inside the same two evaluations (the fallback treatment for vectors).
    The call consumes exactly 2 queries.
    """
    if mu < MIN_MU:
        raise ValueError(f"mu={mu} is below the underflow floor {MIN_MU}")
    if set(a_factors) != set(b_factors):
        raise ValueError("a_factors and b_factors must cover the same blocks")

    deltas = {}
    for name, value in x.items():
        if name in a_factors:
            a, b = a_factors[name], b_factors[name]
            if a.shape[0] != value.shape[0] or b.shape[1] != value.shape[1]:
                raise ValueError(
                    f"factors for block {name!r} do not match shape {value.shape}"
                )
            if a.shape[1] != b.shape[0]:
                raise ValueError(f"factor inner dimensions differ for {name!r}")
            deltas[name] = a @ b
        else:
            deltas[name] = _draw(seed, words, 0, x.index(name), value.shape)

    coef = _central_coef(obj, x, deltas, mu, seed)
    return {name: GradEstimate(coef * d, 2) for name, d in deltas.items()}
