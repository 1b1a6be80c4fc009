"""Zeroth-order gradient estimators.

Three estimator families share one perturbation discipline:

  - full-space randomized estimates from forward or central differences,
  - the subspace estimator, which perturbs a low-dimensional variable Z
    through a column-orthonormal projection P and returns its estimate g_Z
    (the caller lifts it, P g_Z), and
  - the two-factor low-rank baseline with a lazily held left factor.

Each returns a plain ``{block name: ndarray}`` dict in its draw space; the
objective's ``query_count`` records the queries.  All three set up each
block's draws and run one finite-difference core, :func:`_estimate`, which
evaluates the shifted points and returns the coefficient-weighted mean of
the directions.

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


def _evaluate(obj, x, seed):
    try:
        return obj.evaluate(x)
    except EvaluationError as exc:
        exc.seed = seed
        raise


def _estimate(obj, x, draws, lifts, scheme, mu, n_queries, seed, words):
    """(1/Nq) sum_i c_i D_i per block, the one finite-difference core.

    ``draws`` maps each block of ``x``, in order, to the shape of its
    Gaussian D_i (the (query i, block) slot of ``seed``, or of ``words``) or,
    central only, to a fixed direction D.  A block in ``lifts`` (m-by-r L) is
    shifted by mu L D_i, any other by mu D_i.  Forward: one shared base f(X),
    c_i = (f(X + mu L D_i) - f(X)) / mu.  Central: c = (f(X + mu D) - f(X - mu D)) / (2 mu).
    """
    if scheme == FORWARD:
        base = _evaluate(obj, x, seed)
        accum = {name: np.zeros(shape) for name, shape in draws.items()}
    for i in range(n_queries):
        deltas = {
            name: d if isinstance(d, np.ndarray)
            else perturbation(seed, i, x.index(name), d) if words is None
            else gaussian(words[i, x.index(name)], d)
            for name, d in draws.items()
        }
        if scheme == CENTRAL:  # one query, so return c D
            steps = {name: mu * d for name, d in deltas.items()}
            plus = x.updated({name: x[name] + s for name, s in steps.items()})
            minus = x.updated({name: x[name] - s for name, s in steps.items()})
            coef = (_evaluate(obj, plus, seed) - _evaluate(obj, minus, seed)) / (2.0 * mu)
            return {name: coef * d for name, d in deltas.items()}
        shifted = x.updated({
            name: x[name] + mu * (lifts[name] @ d if name in lifts else d)
            for name, d in deltas.items()
        })
        coef = (_evaluate(obj, shifted, seed) - base) / mu
        for name, d in deltas.items():
            accum[name] += coef * d
    return {name: accum[name] / n_queries for name in x.names}


def rge_full(obj, x: ParamSpace, cfg: EstimatorConfig, seed: int, words=None) -> dict:
    """Full-space randomized gradient estimate, one array per block.

    Forward scheme: (1/Nq) sum_i [(f(X + mu Psi_i) - f(X)) / mu] Psi_i with
    Psi_i standard Gaussian per block.  Central scheme (single query):
    [(f(X + mu Psi) - f(X - mu Psi)) / (2 mu)] Psi.  ``words``, when given,
    holds the (query, block) slot words of ``seed`` from
    :func:`zomat.streams.slot_words`.
    """
    shapes = {name: v.shape for name, v in x.items()}
    return _estimate(obj, x, shapes, {}, cfg.scheme, cfg.mu, cfg.n_queries, seed, words)


def subspace_rge(
    obj, x: ParamSpace, projections: dict, cfg: EstimatorConfig, seed: int, words=None
) -> dict:
    """Subspace randomized gradient estimate g_Z, one array per block.

    Blocks with a projection P (an m-by-r array) are perturbed by
    mu * P @ Psi_i with Psi_i an r-by-n Gaussian; their entry is the r-by-n
    g_Z of Psi-weighted forward differences.  Its lift P @ g_Z, which the
    caller makes after any map in Z's space (``zo_muon``'s msign), targets
    the projected gradient P P^T grad f.  Blocks without a projection get the
    full-space estimate from the same queries, so one call on a mixed space
    still costs n_queries + 1 evaluations.  ``words`` is as in :func:`rge_full`.
    """
    if cfg.scheme != FORWARD:
        raise ValueError("the subspace estimator is defined with forward differences")
    draws = {name: v.shape for name, v in x.items()}
    for name, p in projections.items():
        if name not in x:
            raise KeyError(f"projection given for unknown block {name!r}")
        if p.shape[0] != x[name].shape[0]:
            raise ValueError(
                f"projection for block {name!r} has {p.shape[0]} rows, "
                f"block has {x[name].shape[0]}"
            )
        draws[name] = (p.shape[1], x[name].shape[1])
    return _estimate(obj, x, draws, projections, FORWARD, cfg.mu, cfg.n_queries, seed, words)


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
    for name in a_factors:
        if name not in x:
            raise KeyError(f"factors given for unknown block {name!r}")

    draws = {}
    for name, value in x.items():
        if name in a_factors:
            a, b = a_factors[name], b_factors[name]
            if a.shape[0] != value.shape[0] or b.shape[1] != value.shape[1]:
                raise ValueError(
                    f"factors for block {name!r} do not match shape {value.shape}"
                )
            if a.shape[1] != b.shape[0]:
                raise ValueError(f"factor inner dimensions differ for {name!r}")
            draws[name] = a @ b
        else:
            draws[name] = value.shape
    return _estimate(obj, x, draws, {}, CENTRAL, mu, 1, seed, words)
