"""Verification machinery.

Exact-rank constructions for the lossless-projection identity, Monte-Carlo
estimator variance measurements, a backend cross-check for the two msign
implementations, and a coordinate-wise finite-difference gradient.  A
variance is measured on the estimators themselves, against the single-query
forward :func:`zomat.estimators.rge_full` as reference; the analytic
gradient only chooses the subspace estimator's projection.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from . import estimators, linalg, streams
from ._parallel import in_parallel
from .estimators import EstimatorConfig, check_count
from .params import ParamSpace

FULL_RGE = "full"
SUBSPACE_RGE = "subspace"

#: Sample floor below which a variance ratio is not meaningful.
MIN_RATIO_SAMPLES = 1000
#: Samples per range of a Monte-Carlo run: fixed, so every CPU count merges the
#: same moments, and a multiple of streams.CHUNK, so ranges share no seed chunk.
SAMPLE_RANGE = 10 * streams.CHUNK
#: Matrix shape, condition numbers and trials per condition of the msign cross-check.
MSIGN_SHAPE = (8, 8)
MSIGN_CONDITIONS = (2.0, 5.0, 10.0, 100.0, 1000.0)
MSIGN_TRIALS = 50


@dataclass(frozen=True)
class Prop1Report:
    """Worst-case entry error of the lossless-projection identity."""

    max_entry_error: float
    max_projection_error: float
    pass_: bool


@dataclass(frozen=True)
class VarianceReport:
    """Per-entry variance of one estimator against a reference estimator."""

    estimator: str
    per_entry_variance: float
    reference: str
    reference_variance: float
    ratio: float


@dataclass(frozen=True)
class EstimatorSpec:
    """What to sample in a variance measurement."""

    kind: str  # FULL_RGE or SUBSPACE_RGE
    config: EstimatorConfig
    rank: int = 0  # subspace only

    def __post_init__(self):
        if self.kind not in (FULL_RGE, SUBSPACE_RGE):
            raise ValueError(f"unknown estimator kind {self.kind!r}; valid: {FULL_RGE}, {SUBSPACE_RGE}")
        if self.kind == SUBSPACE_RGE:
            check_count("rank", self.rank, 1)

    def label(self) -> str:
        if self.kind == SUBSPACE_RGE:
            return f"subspace(r={self.rank}, Nq={self.config.n_queries})"
        return f"full(Nq={self.config.n_queries}, {self.config.scheme})"


def exact_rank_matrix(m: int, n: int, k: int, rng) -> np.ndarray:
    """Product of random m-by-k and k-by-n Gaussian factors: rank exactly k
    with probability one."""
    return rng.standard_normal((m, k)) @ rng.standard_normal((k, n))


def check_prop1(m: int, n: int, k: int, trials: int = 20, seed: int = 0) -> Prop1Report:
    """Verify that projecting onto the top-k left singular vectors loses
    nothing when orthogonalizing a rank-k gradient.

    For each trial: build G of exact rank k, set P to the first k left
    singular vectors, and compare P @ msign(P^T G) against msign(G) entry by
    entry.  The intermediate identity P P^T G = G is checked as well; the
    report passes when both errors are at most 1e-8.
    """
    if not (1 <= k <= min(m, n)):
        raise ValueError(f"need 1 <= k <= min(m, n), got k={k}, m={m}, n={n}")
    check_count("trials", trials, 1)
    rng = np.random.default_rng(seed)
    worst = 0.0
    worst_proj = 0.0
    for _ in range(trials):
        g = exact_rank_matrix(m, n, k, rng)
        u, _, _ = np.linalg.svd(g, full_matrices=False)
        p = u[:, :k]
        lifted = p @ linalg.msign_svd(p.T @ g)
        direct = linalg.msign_svd(g)
        worst = max(worst, float(np.max(np.abs(lifted - direct))))
        worst_proj = max(worst_proj, float(np.max(np.abs(p @ (p.T @ g) - g))))
    return Prop1Report(
        max_entry_error=worst,
        max_projection_error=worst_proj,
        pass_=worst <= 1e-8 and worst_proj <= 1e-8,
    )


def gradient_aligned_projection(objective, x: ParamSpace, rank: int) -> np.ndarray:
    """Top-``rank`` left singular vectors of the analytic gradient of the
    first block of ``x``.

    This is the energy-capturing projection the subspace estimator's variance
    advantage is stated for; with a generic random projection the captured
    gradient energy shrinks by r/m and the variance ratio becomes (m/r)^2
    instead of m/r.
    """
    grads = objective.analytic_gradient(x)
    if grads is None:
        raise ValueError("objective has no analytic gradient")
    u, _, _ = np.linalg.svd(grads[x.names[0]], full_matrices=False)
    return u[:, :rank]


def _range_moments(spec, objective, x, seed, start, n_samples) -> tuple:
    """Count, mean and Welford sum of squared deviations of one sample range.

    Every sample is taken at ``x``, so a forward spec's base f(x) is
    evaluated once for the range and given to each estimate."""
    name, stop = x.names[0], min(start + SAMPLE_RANGE, n_samples)
    factors = ({name: gradient_aligned_projection(objective, x, spec.rank)}
               if spec.kind == SUBSPACE_RGE else {})
    shapes = list(estimators._draw_shapes(x, factors).values())
    table, _ = streams.draw_table((seed,), spec.config.n_queries, shapes)
    base = objective.evaluate(x) if spec.config.scheme == estimators.FORWARD else None
    mean, m2 = np.zeros_like(x[name]), np.zeros_like(x[name])
    for i in range(start, stop):
        if spec.kind == FULL_RGE:
            est = estimators.rge_full(objective, x, spec.config, None, table(i), base=base)[name]
        else:
            est = factors[name] @ estimators.subspace_rge(
                objective, x, factors, spec.config, None, table(i), base=base)[name]
        delta = est - mean
        mean += delta / (i - start + 1)
        m2 += delta * (est - mean)
    return stop - start, mean, m2


def _merged_variance(moments) -> float:
    """Per-entry variance, averaged over entries, of range moments merged in
    range order (Chan, Golub and LeVeque, 1983, pairwise update)."""
    n, mean, m2 = moments[0]
    for n_b, mean_b, m2_b in moments[1:]:
        delta, n_a, n = mean_b - mean, n, n + n_b
        mean, m2 = mean + delta * (n_b / n), m2 + m2_b + delta**2 * (n_a * n_b / n)
    return float(np.mean(m2 / (n - 1)))


def estimator_variance(spec: EstimatorSpec, objective, x: ParamSpace,
                       n_samples: int, seed: int) -> float:
    """Per-entry variance (averaged over entries) of ``spec`` at fixed ``x``,
    over ``n_samples`` estimates seeded by ``streams.derive_seed(seed, i)``,
    run and merged range by range as :func:`measure_variance` runs them.
    ``objective`` counts each estimate's queries and, for a forward spec, one
    base query per range of ``SAMPLE_RANGE`` samples."""
    check_count("n_samples", n_samples, 2)
    check_count("seed", seed, 0)
    return _merged_variance([_range_moments(spec, objective, x, seed, i, n_samples)
                             for i in range(0, n_samples, SAMPLE_RANGE)])


def measure_variance(specs, objective, x: ParamSpace, n_samples: int,
                     seed: int) -> list:
    """Monte-Carlo variance of each of ``specs`` with its ratio against a
    reference, the single-query forward full-space estimator at that spec's
    mu.  Spec k is sampled at ``seed + k``; the reference at each distinct mu
    is measured once, the j-th at ``seed + len(specs) + j``.

    The runs' ranges are shared among CPUs (:func:`zomat._parallel.in_parallel`),
    so ``objective`` counts only the queries made in this process: each
    estimate's queries and one base query per forward range.  The
    subspace estimator uses the gradient-aligned projection, which needs the
    objective's analytic gradient.  Ratios below ``MIN_RATIO_SAMPLES`` samples are refused.
    """
    check_count("n_samples", n_samples, 2)
    check_count("seed", seed, 0)
    if n_samples < MIN_RATIO_SAMPLES:
        raise ValueError(f"need at least {MIN_RATIO_SAMPLES} samples for a ratio, got {n_samples}")
    refs = {s.config.mu: EstimatorSpec(FULL_RGE, EstimatorConfig(mu=s.config.mu)) for s in specs}
    runs, starts = [*specs, *refs.values()], range(0, n_samples, SAMPLE_RANGE)
    moments = in_parallel(partial(_range_moments, run, objective, x, seed + k, i, n_samples)
                          for k, run in enumerate(runs) for i in starts)
    var = [_merged_variance(moments[k:k + len(starts)]) for k in range(0, len(moments), len(starts))]
    ref_var = dict(zip(refs, var[len(specs):]))
    return [VarianceReport(s.label(), v, refs[s.config.mu].label(), ref_var[s.config.mu],
                           ratio=ref_var[s.config.mu] / v if v > 0 else float("nan"))
            for s, v in zip(specs, var)]


def conditioned_matrix(m: int, n: int, condition: float, rng) -> np.ndarray:
    """Random matrix with log-spaced singular values spanning ``condition``."""
    k = min(m, n)
    u, _ = np.linalg.qr(rng.standard_normal((m, k)))
    v, _ = np.linalg.qr(rng.standard_normal((n, k)))
    if k == 1 or condition == 1.0:
        s = np.ones(k)
    else:
        s = np.exp(rng.uniform(-np.log(condition), 0.0, size=k))
        s[0], s[-1] = 1.0, 1.0 / condition  # pin the extremes
        s = -np.sort(-s)
    return (u * s) @ v.T


def compare_msign_backends(seed: int = 0) -> list:
    """Median relative Frobenius error of the five-step Newton-Schulz msign
    against the SVD msign on 8x8 matrices, 50 trials for each condition
    number 2, 5, 10, 100 and 1000 (``MSIGN_CONDITIONS``), all drawn in that
    order from one generator seeded by ``seed``.

    Returns a list of (condition_number, median_error) pairs, in that order.
    The error grows with conditioning because small singular values are not
    pushed all the way to 1 within the five steps.
    """
    rng = np.random.default_rng(seed)
    rows = []
    for cond in MSIGN_CONDITIONS:
        errs = []
        for _ in range(MSIGN_TRIALS):
            g = conditioned_matrix(*MSIGN_SHAPE, cond, rng)
            exact = linalg.msign_svd(g)
            approx = linalg.msign_ns(g)
            errs.append(
                float(np.linalg.norm(approx - exact) / np.linalg.norm(exact))
            )
        rows.append((float(cond), float(np.median(errs))))
    return rows


def finite_diff_gradient(objective, x: ParamSpace, mu: float = 1e-6) -> dict:
    """Central-difference gradient per coordinate through the un-counted
    evaluation channel.  O(total parameters) evaluations; independent of the
    randomized estimators."""
    if not 1e-8 <= mu <= 1e-4:
        raise ValueError(f"mu must be within [1e-8, 1e-4], got {mu}")
    grads = {}
    for name, value in x.items():
        g = np.zeros_like(value)
        for idx in np.ndindex(value.shape):
            shift = np.zeros_like(value)
            shift[idx] = mu
            f_plus = objective.loss(x.updated({name: value + shift}))
            f_minus = objective.loss(x.updated({name: value - shift}))
            g[idx] = (f_plus - f_minus) / (2.0 * mu)
        grads[name] = g
    return grads


# ---------------------------------------------------------------------------
# Verification suites (defaults documented here; driven by `zomat verify`)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def verify_prop1(seed: int = 0) -> list:
    """Lossless-projection identity at (64, 32, 8), the full-rank edge case,
    and a negative control with a projection not drawn from the SVD."""
    checks = []
    report = check_prop1(64, 32, 8, trials=20, seed=seed)
    checks.append(
        CheckResult(
            "prop1 rank-8 (64x32, 20 trials)",
            report.pass_,
            f"max entry error {report.max_entry_error:.2e}, "
            f"PP^T G error {report.max_projection_error:.2e}",
        )
    )
    full = check_prop1(64, 32, 32, trials=5, seed=seed + 1)
    checks.append(
        CheckResult(
            "prop1 full-rank edge (64x32, k=32)",
            full.pass_,
            f"max entry error {full.max_entry_error:.2e}",
        )
    )
    rng = np.random.default_rng(seed + 2)
    g = exact_rank_matrix(64, 32, 32, rng)
    p = linalg.sample_projection(64, 8, seed + 3)
    err = float(np.max(np.abs(p @ linalg.msign_svd(p.T @ g) - linalg.msign_svd(g))))
    checks.append(
        CheckResult(
            "prop1 negative control (random projection)",
            err > 1e-3,
            f"max entry error {err:.2e} (should be large)",
        )
    )
    return checks


def verify_variance(seed: int = 0, n_samples: int = 10_000) -> list:
    """Variance scaling on a noise-free planted quadratic (m=64, n=32, k=8):
    the Nq=1 / Nq=4 ratio should be ~4 and the full / subspace (r=8) ratio
    ~m/r = 8, both within +-20%."""
    from .objectives import make_quadratic

    objective = make_quadratic(64, 32, 8, seed=seed + 17)
    specs = [EstimatorSpec(FULL_RGE, EstimatorConfig(mu=1e-3, n_queries=4)),
             EstimatorSpec(SUBSPACE_RGE, EstimatorConfig(mu=1e-3), rank=8)]
    nq4, sub = measure_variance(specs, objective, objective.initial_params, n_samples, seed)
    return [
        CheckResult(
            "variance Nq=1 vs Nq=4 (target 4)",
            3.2 <= nq4.ratio <= 4.8,
            f"ratio {nq4.ratio:.3f} over {n_samples} samples",
        ),
        CheckResult(
            "variance full vs subspace r=8 (target m/r = 8)",
            6.4 <= sub.ratio <= 9.6,
            f"ratio {sub.ratio:.3f} over {n_samples} samples",
        ),
    ]


def verify_msign(seed: int = 0) -> list:
    """Backend agreement: identity input, the well-conditioned bucket, and
    monotone degradation with condition number (5 NS iterations)."""
    checks = []
    ident_err = float(
        np.linalg.norm(linalg.msign_ns(np.eye(3)) - np.eye(3)) / np.sqrt(3.0)
    )
    checks.append(
        CheckResult("msign identity input", ident_err <= 1e-2, f"error {ident_err:.2e}")
    )
    rows = compare_msign_backends(seed=seed)
    by_cond = dict(rows)
    checks.append(
        CheckResult(
            "msign NS vs SVD, condition < 10",
            max(by_cond[2.0], by_cond[5.0], by_cond[10.0]) <= 0.05,
            "medians " + ", ".join(f"k{c:g}={e:.4f}" for c, e in rows[:3]),
        )
    )
    medians = [e for _, e in rows]
    monotone = all(b >= a - 1e-6 for a, b in zip(medians, medians[1:]))
    checks.append(
        CheckResult(
            "msign error non-decreasing in condition number",
            monotone,
            ", ".join(f"k{c:g}={e:.4f}" for c, e in rows),
        )
    )
    return checks


VERIFY_SUITES = {
    "prop1": verify_prop1,
    "variance": verify_variance,
    "msign": verify_msign,
}


def run_verification(selector: str, seed: int = 0) -> list:
    """Run one named suite or all of them; returns CheckResult rows."""
    if selector == "all":
        results = []
        for suite in VERIFY_SUITES.values():
            results.extend(suite(seed=seed))
        return results
    if selector not in VERIFY_SUITES:
        raise ValueError(
            f"unknown suite {selector!r}; valid: "
            f"{', '.join([*VERIFY_SUITES, 'all'])}"
        )
    return VERIFY_SUITES[selector](seed=seed)
