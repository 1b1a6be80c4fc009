"""Zeroth-order gradient estimators.

Two estimates, each taken by forward or by central differences:

  - the full-space randomized estimate (:func:`rge_full`, either scheme),
    which perturbs every block by a Gaussian of its own shape, and
  - the held-factor estimate, which perturbs a matrix block through an
    m-by-r factor F held by the caller, X + mu F D with D a fresh r-by-n
    Gaussian, and returns the draw-space estimate the caller lifts (F g):
    with forward differences and a column-orthonormal projection P it is the
    subspace estimator (:func:`subspace_rge`, g_Z); with central differences
    and a Gaussian left factor A it is the two-factor low-rank baseline
    (:func:`lge_lozo`, g_B, with B drawn from the block's (query 0, block)
    slot of the call seed).

Each returns a plain ``{block name: ndarray}`` dict in its draw space; the
objective's ``query_count`` records the queries.  All three run one
finite-difference core, :func:`_estimate`, which evaluates the shifted
points and returns the coefficient-weighted mean of the draws.

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

import numbers
from dataclasses import dataclass

import numpy as np

from .objectives import EvaluationError
from .params import ParamSpace
from .streams import gaussian, perturbation

FORWARD = "forward"
CENTRAL = "central"

#: Smoothing parameters below this underflow the finite differences.
MIN_MU = 1e-12


def check_count(name, value, low):
    """Reject a count that is a bool, a float (4.0 too) or below ``low``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")


def check_real(name, value):
    """Reject a value that is a bool or not a real number (text too)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")


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
        check_real("mu", self.mu)
        if not MIN_MU <= self.mu < np.inf:
            raise ValueError(f"mu={self.mu} is below the underflow floor {MIN_MU} or not finite")
        check_count("n_queries", self.n_queries, 1)
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


def _draw_shapes(x, factors) -> dict:
    """Each block's draw shape: r-by-n for a block with an m-by-r factor in
    ``factors``, the block's own shape otherwise."""
    shapes = {name: v.shape for name, v in x.items()}
    for name, f in factors.items():
        if name not in x:
            raise KeyError(f"factor given for unknown block {name!r}")
        if f.shape[0] != x[name].shape[0]:
            raise ValueError(
                f"factor for block {name!r} has {f.shape[0]} rows, "
                f"block has {x[name].shape[0]}"
            )
        shapes[name] = (f.shape[1], x[name].shape[1])
    return shapes


def _estimate(obj, x, factors, cfg, seed, words):
    """(1/Nq) sum_i c_i D_i per block, the one finite-difference core.

    Each block of ``x``, in order, draws the Gaussian D_i of its (query i,
    block) slot of ``seed`` (or of ``words``) in the shape of
    :func:`_draw_shapes`.  A block with a factor (m-by-r F) is shifted by
    mu F D_i, any other by mu D_i.  Forward: one shared base f(X),
    c_i = (f(X + mu F D_i) - f(X)) / mu.  Central (one query):
    c = (f(X + mu F D) - f(X - mu F D)) / (2 mu).
    """
    draws, mu = _draw_shapes(x, factors), cfg.mu
    if cfg.scheme == FORWARD:
        base = _evaluate(obj, x, seed)
        accum = {name: np.zeros(shape) for name, shape in draws.items()}
    for i in range(cfg.n_queries):
        deltas = {
            name: perturbation(seed, i, x.index(name), shape) if words is None
            else gaussian(words[i, x.index(name)], shape)
            for name, shape in draws.items()
        }
        steps = {name: mu * (factors[name] @ d if name in factors else d)
                 for name, d in deltas.items()}
        if cfg.scheme == CENTRAL:  # one query, so return c D
            plus = x.updated({name: x[name] + s for name, s in steps.items()})
            minus = x.updated({name: x[name] - s for name, s in steps.items()})
            coef = (_evaluate(obj, plus, seed) - _evaluate(obj, minus, seed)) / (2.0 * mu)
            return {name: coef * d for name, d in deltas.items()}
        shifted = x.updated({name: x[name] + s for name, s in steps.items()})
        coef = (_evaluate(obj, shifted, seed) - base) / mu
        for name, d in deltas.items():
            accum[name] += coef * d
    return {name: accum[name] / cfg.n_queries for name in x.names}


def rge_full(obj, x: ParamSpace, cfg: EstimatorConfig, seed: int, words=None) -> dict:
    """Full-space randomized gradient estimate, one array per block.

    Forward scheme: (1/Nq) sum_i [(f(X + mu Psi_i) - f(X)) / mu] Psi_i with
    Psi_i standard Gaussian per block.  Central scheme (single query):
    [(f(X + mu Psi) - f(X - mu Psi)) / (2 mu)] Psi.  ``words``, when given,
    holds the (query, block) slot words of ``seed`` from
    :func:`zomat.streams.slot_words`.
    """
    return _estimate(obj, x, {}, cfg, seed, words)


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
    return _estimate(obj, x, projections, cfg, seed, words)


def lge_lozo(obj, x: ParamSpace, a_factors: dict, cfg: EstimatorConfig, seed: int = 0,
             words=None) -> dict:
    """Two-factor low-rank estimate g_B, one array per block.

    Blocks with a left factor A (an m-by-r array) are perturbed by
    mu * A @ B with B the r-by-n Gaussian of the block's (query 0, block)
    slot; their entry is g_B = c B with
    c = [f(X + mu AB) - f(X - mu AB)] / (2 mu), whose lift A @ g_B the caller
    makes.  Blocks without a factor get the full-space central estimate from
    the same two evaluations.  ``words`` is as in :func:`rge_full`.
    """
    if cfg.scheme != CENTRAL:
        raise ValueError("the two-factor estimator is defined with central differences")
    return _estimate(obj, x, a_factors, cfg, seed, words)
