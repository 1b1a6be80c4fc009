"""Zeroth-order gradient estimators.

Two estimates, each taken by forward or by central differences:

  - the full-space randomized estimate (:func:`rge_full`, either scheme),
    which perturbs every block by a ±1 draw of its own shape, and
  - the held-factor estimate, which perturbs a matrix block through an
    m-by-r factor F held by the caller, X + mu F D with D a fresh r-by-n
    ±1 draw, and returns the draw-space estimate the caller lifts (F g):
    with forward differences and a column-orthonormal projection P it is the
    subspace estimator (:func:`subspace_rge`, g_Z); with central differences
    and a Gaussian left factor A it is the two-factor low-rank baseline
    (:func:`lge_lozo`, g_B, with B drawn from the block's (query 0, block)
    slot of the call seed).

Each returns a plain ``{block name: ndarray}`` dict in its draw space; the
objective's ``query_count`` records the queries.  All three run one
finite-difference core, :func:`_terms`, which evaluates the shifted points
and returns each query's coefficient with its draws, and return
:func:`_mean` of those terms, the coefficient-weighted mean of the draws.
A caller that wants a prefix of the queries too (the oracle, whose
single-query reference is the first query of an Nq-query estimate) takes
``_mean(terms[:k])`` of the same terms: the estimate its first k queries
make, at no extra query.

Perturbations are never stored across a call: each draw, ±1 per entry
(``E[D D^T] = I``, as for a Gaussian), is regenerated from a counter hash
of the call seed per (query index, block index), the stream of
:func:`perturbation`, so replaying a seed reproduces an estimate
bit-for-bit.  Callers that make many calls (the optimizer step loop, the
oracle's Monte-Carlo runs) read each call's draws, all its queries' at
once, from a row of :func:`zomat.streams.draw_table`, whose words are
hashed in bulk, and pass them in as ``draws`` with no seed; the values are
the same either way.  A call given neither is refused before it evaluates
anything.  All blocks are perturbed jointly per query, and in the forward
scheme the base value f(X) is evaluated once and shared across queries and
blocks.  A caller
that takes many forward estimates at one X (the oracle's Monte-Carlo runs)
evaluates f(X) once itself and passes it as ``base``; an estimate given its
base costs Nq queries, not Nq + 1, and is the same array.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .params import ParamSpace
from .streams import perturbation

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
    all queries, costing n_queries + 1 in total, or n_queries when the caller
    gives the base it already evaluated.
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


def _terms(obj, x, factors, cfg, seed, draws, base=None) -> list:
    """``[(c_i, {name: D_i})]``, each query's coefficient and draws, in query
    order: the one finite-difference core.

    Block b of ``x`` (its position) reads the ±1 draw D_i of its (query i,
    block b) slot from ``draws``, a :func:`zomat.streams.draw_table` row, or
    draws it from ``seed`` when ``draws`` is None, in the shape of
    :func:`_draw_shapes`; with neither, the call is refused before any
    evaluation.  A block with a factor (m-by-r F) is shifted by
    mu F D_i, any other by mu D_i.  Forward: one shared base f(X), evaluated
    here unless the caller gives it as ``base``,
    c_i = (f(X + mu F D_i) - f(X)) / mu.  Central (one query):
    c = (f(X + mu F D) - f(X - mu F D)) / (2 mu), and a ``base`` is refused.
    """
    shapes, mu, central = _draw_shapes(x, factors), cfg.mu, cfg.scheme == CENTRAL
    if seed is None and draws is None:
        raise ValueError("an estimate needs a seed or draws, and both are None")
    if central and base is not None:
        raise ValueError("a base value is defined only for forward differences")
    if not central and base is None:
        base = obj.evaluate(x)
    terms = []
    for i in range(cfg.n_queries):
        deltas, plus, minus = {}, {}, {}
        for b, (name, shape) in enumerate(shapes.items()):
            d = perturbation(seed, i, b, shape) if draws is None else draws[i, b]
            step = mu * (factors[name] @ d if name in factors else d)
            deltas[name], plus[name] = d, x[name] + step
            if central:
                minus[name] = x[name] - step
        high = obj.evaluate(x.updated(plus))
        terms.append(((high - obj.evaluate(x.updated(minus))) / (2.0 * mu) if central
                      else (high - base) / mu, deltas))
    return terms


def _mean(terms) -> dict:
    """(1/N) sum_i c_i D_i per block over the N ``terms`` of :func:`_terms`,
    accumulated in query order; a single term is c_0 D_0, with no division."""
    (coef, deltas), rest = terms[0], terms[1:]
    accum = {name: coef * d for name, d in deltas.items()}
    for coef, deltas in rest:
        for name, d in deltas.items():
            accum[name] += coef * d
    return {name: a / len(terms) for name, a in accum.items()} if rest else accum


def rge_full(obj, x: ParamSpace, cfg: EstimatorConfig, seed: int | None, draws=None,
             base=None) -> dict:
    """Full-space randomized gradient estimate, one array per block.

    Forward scheme: (1/Nq) sum_i [(f(X + mu Psi_i) - f(X)) / mu] Psi_i with
    Psi_i a ±1 draw per block.  Central scheme (single query):
    [(f(X + mu Psi) - f(X - mu Psi)) / (2 mu)] Psi.  ``draws``, when given,
    is a row of :func:`zomat.streams.draw_table`, the draws of the
    estimate's (query, block) slots, and ``seed`` is not read (it may be
    None); given neither, the call raises ``ValueError`` and spends no
    query.  ``base``, when given, is f(X) as the
    caller already evaluated it: the forward estimate then costs n_queries
    evaluations, not n_queries + 1, and is the same array.  The central
    scheme has no base and refuses one (``ValueError``).
    """
    return _mean(_terms(obj, x, {}, cfg, seed, draws, base))


def subspace_rge(
    obj, x: ParamSpace, projections: dict, cfg: EstimatorConfig, seed: int | None, draws=None,
    base=None,
) -> dict:
    """Subspace randomized gradient estimate g_Z, one array per block.

    Blocks with a projection P (an m-by-r array) are perturbed by
    mu * P @ Psi_i with Psi_i an r-by-n ±1 draw; their entry is the r-by-n
    g_Z of Psi-weighted forward differences.  Its lift P @ g_Z, which the
    caller makes after any map in Z's space (``zo_muon``'s msign), targets
    the projected gradient P P^T grad f.  Blocks without a projection get the
    full-space estimate from the same queries, so one call on a mixed space
    still costs n_queries + 1 evaluations; with no projections it is the
    forward :func:`rge_full`, the step of the full-space kind ``zo_sgd``.
    ``draws`` and ``base`` are as in :func:`rge_full`; given its base, a call
    costs n_queries evaluations.
    """
    if cfg.scheme != FORWARD:
        raise ValueError("the subspace estimator is defined with forward differences")
    return _mean(_terms(obj, x, projections, cfg, seed, draws, base))


def lge_lozo(obj, x: ParamSpace, a_factors: dict, cfg: EstimatorConfig, seed: int | None = 0,
             draws=None) -> dict:
    """Two-factor low-rank estimate g_B, one array per block.

    Blocks with a left factor A (an m-by-r array) are perturbed by
    mu * A @ B with B the r-by-n ±1 draw of the block's (query 0, block)
    slot; their entry is g_B = c B with
    c = [f(X + mu AB) - f(X - mu AB)] / (2 mu), whose lift A @ g_B the caller
    makes.  Blocks without a factor get the full-space central estimate from
    the same two evaluations; with no factors it is the central
    :func:`rge_full`, the step of the full-space kind ``mezo``.  ``draws`` is
    as in :func:`rge_full`.
    """
    if cfg.scheme != CENTRAL:
        raise ValueError("the two-factor estimator is defined with central differences")
    return _mean(_terms(obj, x, a_factors, cfg, seed, draws))
