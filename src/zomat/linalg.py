"""Dense-matrix primitives for zeroth-order matrix optimization.

This module contains:
  - random column-orthonormal projection sampling (QR of a Gaussian matrix,
    with a fixed sign convention so results are reproducible); a projection
    is a plain m-by-r array,
  - the matrix sign function ``msign`` computed exactly via SVD and
    approximately via quintic Newton-Schulz iterations,
  - the effective-rank measurement.

All functions are pure and safe to call concurrently.
"""

from __future__ import annotations

import numpy as np


class NumericalError(RuntimeError):
    """A matrix routine produced non-finite values or a decomposition failed."""


#: Quintic coefficients tuned for a steep slope at the origin.  They push tiny
#: singular values up quickly but never settle: the fixed oscillation keeps
#: values roughly in [0.68, 1.13], so they are only suitable as a boost phase.
AGGRESSIVE_QUINTIC = (3.4445, -4.7750, 2.0315)

#: Quintic coefficients of the monotone polar iteration x(15 - 10x^2 + 3x^4)/8.
#: Contractive toward 1 on (0, sqrt(5/3)) with third-order convergence; used
#: as the finishing phase of the schedule.
CONTRACTIVE_QUINTIC = (1.875, -1.25, 0.375)


def _shaped(a, name: str) -> np.ndarray:
    """Coerce ``a`` to a 2-d float array with positive dims."""
    arr = np.asarray(a, dtype=float)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got ndim={arr.ndim}")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValueError(f"{name} must have positive dimensions, got {arr.shape}")
    return arr


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce ``a`` to a 2-d float array with positive dims and finite entries."""
    arr = _shaped(a, name)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def sample_projection(m: int, r: int, seed: int) -> np.ndarray:
    """Draw a random column-orthonormal m-by-r projection matrix P.

    ``P.T @ P`` equals the r-by-r identity to 1e-10 per entry.  P is the Q
    factor of the QR decomposition of an m-by-r standard Gaussian matrix,
    with column signs flipped so the diagonal of R is non-negative.  The sign
    convention makes the output unique, so a fixed seed reproduces the
    projection bit-for-bit.
    """
    if m < 1 or r < 1:
        raise ValueError(f"projection dimensions must be positive, got m={m}, r={r}")
    if r > m:
        raise ValueError(f"projection rank r={r} exceeds dimension m={m}")
    rng = np.random.default_rng(seed)
    q, rr = np.linalg.qr(rng.standard_normal((m, r)))
    signs = np.sign(np.diag(rr))
    signs[signs == 0] = 1.0
    return q * signs


#: Smallest ratio of the extreme eigenvalues of the normalized Gram (squared
#: singular values) for which ``msign_svd`` takes the Gram route.  The route's
#: error grows like eps * cond(g)^2: measured up to 2.4e-11 at cond 316 (the
#: gate) and 2e-10 at cond 1000, against the SVD.
GRAM_MIN_RATIO = 1e-5


def _msign_input(g):
    """``(arr, unit, transpose)`` for both msign backends: ``g`` as a float
    matrix, divided by its largest absolute entry when its Frobenius norm
    over- or underflows (msign is scale-invariant); that matrix at unit
    Frobenius norm, turned to its wide side when ``transpose``, or None for
    the zero matrix.  Only an input whose norm is not a positive finite
    number is scanned for non-finite entries: any such entry makes the norm
    inf or nan."""
    arr = _shaped(g, "matrix")
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(arr)
    if not 0.0 < norm < np.inf:
        as_matrix(arr)  # raises on a non-finite entry
        peak = np.max(np.abs(arr))
        if peak == 0.0:
            return arr, None, False
        arr = arr / peak
        norm = np.linalg.norm(arr)
    transpose = arr.shape[0] > arr.shape[1]
    unit = arr / norm
    return arr, (unit.T if transpose else unit), transpose


def msign_svd(g) -> np.ndarray:
    """Matrix sign (whitening) of ``g``, exact up to rounding.

    With g = U diag(s) V^T, returns U[:, :k] @ V[:, :k].T where k counts the
    singular values above 1e-7 times the largest one.  Every retained
    singular direction is mapped to unit length; the zero matrix maps to the
    zero matrix.

    A well-conditioned input takes the polar factor through the Gram on its
    smaller side: with g scaled to unit Frobenius norm (msign is
    scale-invariant, and the Gram can then neither overflow nor underflow)
    and g g^T = V diag(w) V^T, msign(g) = (V / sqrt(w)) V^T g.  When
    w_min / w_max is at most ``GRAM_MIN_RATIO``, which covers rank-deficient
    inputs, it takes the SVD of g as given (divided by its largest absolute
    entry only when its norm overflows or underflows).
    """
    arr, unit, transpose = _msign_input(g)
    if unit is None:
        return np.zeros_like(arr)
    w, v = np.linalg.eigh(unit @ unit.T)
    if w[0] > GRAM_MIN_RATIO * w[-1]:
        out = (v / np.sqrt(w)) @ (v.T @ unit)
        return out.T if transpose else out
    try:
        u, s, vt = np.linalg.svd(arr, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"SVD did not converge for a {arr.shape[0]}x{arr.shape[1]} matrix"
        ) from exc
    k = int(np.count_nonzero(s > 1e-7 * s[0]))
    return u[:, :k] @ vt[:k, :]


def msign_ns(g) -> np.ndarray:
    """Approximate the matrix sign of ``g`` with five quintic Newton-Schulz
    steps, the step count of Muon (Jordan et al., 2024).

    The input is pre-normalized by its Frobenius norm and transposed when it
    has more rows than columns so the Gram matrix is formed on the smaller
    side.  Each step applies X <- a X + (b (XX^T) + c (XX^T)^2) X: two
    ``AGGRESSIVE_QUINTIC`` boost steps, then three ``CONTRACTIVE_QUINTIC``
    polar steps.  The contraction polynomial is stable for inputs up to
    sqrt(5/3) and the boost never exceeds ~1.21 after Frobenius
    normalization, so the composition converges for any nonzero input.

    The five steps reproduce ``msign_svd`` to well under 1% in relative
    Frobenius error for condition numbers below 10.  Accuracy degrades as
    conditioning worsens: singular values far below the largest one are not
    pushed all the way to 1 within five steps.
    """
    arr, x, transpose = _msign_input(g)
    if x is None:
        return np.zeros_like(arr)
    for a, b, c in (AGGRESSIVE_QUINTIC,) * 2 + (CONTRACTIVE_QUINTIC,) * 3:
        gram = x @ x.T
        x = a * x + (b * gram + c * (gram @ gram)) @ x
        if not np.all(np.isfinite(x)):
            raise NumericalError(
                f"Newton-Schulz iterate became non-finite for a "
                f"{arr.shape[0]}x{arr.shape[1]} matrix"
            )
    return x.T if transpose else x


def effective_rank(g) -> int:
    """Smallest k whose top-k singular values hold 0.9999 of the squared
    spectral mass; 0 for the zero matrix."""
    s = np.linalg.svd(as_matrix(g), compute_uv=False)
    cumulative = np.cumsum(s * s)
    if cumulative[-1] == 0.0:
        return 0
    return int(np.searchsorted(cumulative / cumulative[-1], 0.9999, side="left")) + 1
