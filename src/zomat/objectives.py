"""Deterministic, query-counted benchmark objectives.

Every objective is a pure function of its ParamSpace plus a monotone query
counter.  Losses for reporting can be computed through the un-counted
:meth:`Objective.loss` channel so that trace recording never touches the
gradient-estimation query budget.  The quadratic provides its analytic
gradient, the ground-truth anchor of the oracle and of estimator tests; the
mlp has none.
"""

from __future__ import annotations

import math

import numpy as np

from .params import ParamSpace


class EvaluationError(RuntimeError):
    """An objective returned a non-finite value, or an estimate made from its
    values overflowed."""


class Objective:
    """A scalar objective over a ParamSpace with exact query accounting.

    ``evaluate`` increments the query counter by exactly one per call and
    rejects a non-finite value.  ``loss`` computes the same value without
    counting (the oracle/reporting channel) and without the check.  Not
    thread-safe: the counter is a plain integer with a single caller.
    """

    def __init__(self, name, loss_fn, initial_params, gradient_fn=None):
        self.name = name
        self._loss_fn = loss_fn
        self._gradient_fn = gradient_fn
        self._initial = initial_params
        self._query_count = 0

    @property
    def initial_params(self) -> ParamSpace:
        return self._initial.copy()

    @property
    def query_count(self) -> int:
        return self._query_count

    def evaluate(self, x: ParamSpace) -> float:
        value = float(self._loss_fn(x))
        self._query_count += 1
        if not math.isfinite(value):
            raise EvaluationError(f"objective {self.name!r} returned {value}")
        return value

    def loss(self, x: ParamSpace) -> float:
        return float(self._loss_fn(x))

    def analytic_gradient(self, x: ParamSpace):
        """Per-block gradient dict, or None when no closed form exists."""
        if self._gradient_fn is None:
            return None
        return self._gradient_fn(x)


def planted_spectrum(k: int, block_condition: float) -> np.ndarray:
    """Log-spaced eigenvalues for the planted curvature block, largest 1."""
    if not 1.0 <= block_condition < math.inf:
        raise ValueError(f"block_condition must be finite and >= 1, got {block_condition}")
    if k == 1 or block_condition == 1.0:
        return np.ones(k)
    return np.logspace(0.0, -np.log10(block_condition), k)


def _rng(seed):
    """The factories' data generator; a negative seed names the key."""
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    return np.random.default_rng(seed)


def make_quadratic(
    m: int,
    n: int,
    rank: int,
    seed: int = 0,
    delta: float = 1e-4,
    block_condition: float = 10.0,
    init_offset: float = 1.0,
) -> Objective:
    """Quadratic f(X) = 1/2 tr((X - X*)^T H (X - X*)) with planted low-rank
    curvature H = L L^T + delta I.

    L is an m-by-rank factor built from a random orthonormal basis scaled by
    the square root of a log-spaced spectrum (largest eigenvalue 1, smallest
    1/block_condition), so the gradient H (X - X*) concentrates its energy in
    a rank-dimensional column space.  ``seed`` (default 0) draws the basis,
    the minimizer and the initial point.  ``init_offset`` scales the distance
    of the initial point from the minimizer; a ``delta`` or ``init_offset`` so
    large that the initial loss overflows is a ``ValueError``.  H is never formed:
    with F = L^T and D = X - X*, the loss is 1/2 (||F D||^2 + delta ||D||^2)
    and the gradient F^T (F D) + delta D, so a query costs rank-by-m-by-n, not
    m-by-m-by-n.
    """
    if not (1 <= rank <= m):
        raise ValueError(f"need 1 <= rank <= m, got rank={rank}, m={m}")
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if not 0.0 <= delta < math.inf:
        raise ValueError(f"delta must be finite and non-negative, got {delta}")
    rng = _rng(seed)
    basis, _ = np.linalg.qr(rng.standard_normal((m, rank)))
    factor = (basis * np.sqrt(planted_spectrum(rank, block_condition))).T
    x_star = rng.standard_normal((m, n))
    x0 = x_star + init_offset * rng.standard_normal((m, n))

    def loss_fn(x):
        d = x["x"] - x_star
        fd = factor @ d
        energy = np.vdot(fd, fd)
        if delta:
            energy += delta * np.vdot(d, d)
        return 0.5 * energy

    def gradient_fn(x):
        d = x["x"] - x_star
        grad = factor.T @ (factor @ d)
        if delta:
            grad += delta * d
        return {"x": grad}

    initial = ParamSpace({"x": x0})
    with np.errstate(over="ignore"):
        initial_loss = loss_fn(initial)
    if not math.isfinite(initial_loss):
        raise ValueError(
            f"initial loss is {initial_loss}: delta={delta} or init_offset={init_offset} "
            "is too large"
        )
    obj = Objective(
        name="quadratic",
        loss_fn=loss_fn,
        initial_params=initial,
        gradient_fn=gradient_fn,
    )
    obj.minimizer = ParamSpace({"x": x_star})
    return obj


def make_mlp(widths, n_samples: int, seed: int = 0) -> Objective:
    """Small tanh MLP with softmax cross-entropy on Gaussian-blob data.

    ``widths`` lists layer sizes (input, hidden..., classes); at least two
    weight layers are required and every width must be <= 64.  ``seed``
    (default 0) draws the data and the initial weights.  The matrix
    optimizers hold factors for the weights but not for the one-row biases,
    which exercises their split treatment of parameters.  It has no analytic
    gradient.
    """
    widths = tuple(int(w) for w in widths)
    if len(widths) < 3:
        raise ValueError("need at least two layers (3 widths)")
    if any(w < 1 or w > 64 for w in widths):
        raise ValueError(f"widths must be in [1, 64], got {widths}")
    n_classes = widths[-1]
    if n_samples < n_classes:
        raise ValueError(f"need at least {n_classes} samples, got {n_samples}")
    rng = _rng(seed)
    centers = 2.0 * rng.standard_normal((n_classes, widths[0]))
    labels = np.arange(n_samples) % n_classes
    inputs = centers[labels] + 0.6 * rng.standard_normal((n_samples, widths[0]))
    true_class = np.eye(n_classes, dtype=bool)[labels]

    blocks = {}
    for layer, (fan_in, fan_out) in enumerate(zip(widths[:-1], widths[1:])):
        blocks[f"w{layer}"] = rng.standard_normal((fan_in, fan_out)) / np.sqrt(fan_in)
        blocks[f"b{layer}"] = np.zeros((1, fan_out))
    n_layers = len(widths) - 1
    # Each layer's output is written in place into a buffer of its own: a
    # fresh 256x64 float64 temporary is 128 KB, glibc's initial mmap
    # threshold, and allocating several per evaluation made some processes
    # trim and fault the heap back in on every evaluation (200-530 minor
    # faults per optimizer step), a 30-40% slower step.
    outs = [np.empty((n_samples, w)) for w in widths[1:]]

    def loss_fn(x):
        h = inputs
        for layer, z in enumerate(outs):
            np.matmul(h, x[f"w{layer}"], out=z)
            z += x[f"b{layer}"]
            h = np.tanh(z, out=z) if layer < n_layers - 1 else z
        shifted = h - h.max(axis=1, keepdims=True)
        logz = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        return float(np.mean((logz - shifted)[true_class]))

    return Objective(
        name="mlp",
        loss_fn=loss_fn,
        initial_params=ParamSpace(blocks),
    )
