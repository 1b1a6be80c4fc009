"""Independent verification machinery.

Everything here checks the estimator and optimizer modules from the outside:
exact-rank constructions for the lossless-projection identity, Monte-Carlo
estimator variance measurements against an analytic-gradient reference, a
backend cross-check for the two msign implementations, and a coordinate-wise
finite-difference gradient.  None of it shares code paths with the modules
it verifies beyond the linalg primitives and the seed streams, so agreement
is evidence rather than tautology.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from . import estimators, linalg, streams
from .estimators import EstimatorConfig, check_count
from .params import ParamSpace
from .streams import derive_seed

FULL_RGE = "full"
SUBSPACE_RGE = "subspace"

#: Sample floor below which a variance ratio is not meaningful.
MIN_RATIO_SAMPLES = 1000


@dataclass(frozen=True)
class Prop1Report:
    """Worst-case entry error of the lossless-projection identity."""

    dims: tuple
    trials: int
    max_entry_error: float
    max_projection_error: float
    pass_: bool


@dataclass(frozen=True)
class VarianceReport:
    """Per-entry variance of one estimator against a reference estimator."""

    estimator: str
    per_entry_variance: float
    n_samples: int
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


def check_prop1(m: int, n: int, k: int, trials: int = 20, seed: int = 0,
                tolerance: float = 1e-8) -> Prop1Report:
    """Verify that projecting onto the top-k left singular vectors loses
    nothing when orthogonalizing a rank-k gradient.

    For each trial: build G of exact rank k, set P to the first k left
    singular vectors, and compare P @ msign(P^T G) against msign(G) entry by
    entry.  The intermediate identity P P^T G = G is checked as well.
    """
    if not (1 <= k <= min(m, n)):
        raise ValueError(f"need 1 <= k <= min(m, n), got k={k}, m={m}, n={n}")
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
        dims=(m, n, k),
        trials=trials,
        max_entry_error=worst,
        max_projection_error=worst_proj,
        pass_=worst <= tolerance and worst_proj <= tolerance,
    )


def gradient_aligned_projection(objective, x: ParamSpace, rank: int,
                                block: str | None = None) -> np.ndarray:
    """Top-``rank`` left singular vectors of the analytic gradient at ``x``.

    This is the energy-capturing projection the subspace estimator's variance
    advantage is stated for; with a generic random projection the captured
    gradient energy shrinks by r/m and the variance ratio becomes (m/r)^2
    instead of m/r.
    """
    grads = objective.analytic_gradient(x)
    if grads is None:
        raise ValueError("objective has no analytic gradient")
    name = block if block is not None else x.names[0]
    u, _, _ = np.linalg.svd(grads[name], full_matrices=False)
    return u[:, :rank]


def _sample_estimate(spec, objective, x, seed, words, projection):
    name = x.names[0]
    if spec.kind == FULL_RGE:
        return estimators.rge_full(objective, x, spec.config, seed, words)[name]
    g_z = estimators.subspace_rge(objective, x, {name: projection}, spec.config, seed, words)
    return projection @ g_z[name]


def estimator_variance(spec: EstimatorSpec, objective, x: ParamSpace,
                       n_samples: int, seed: int,
                       projection: np.ndarray | None = None) -> float:
    """Per-entry variance (averaged over entries) of ``spec`` at fixed ``x``,
    over ``n_samples`` estimates seeded by ``sample_seed(seed, i)``.  The
    sample seeds and the words of their (query, block) slots are derived in
    bulk, a chunk of samples at a time."""
    check_count("n_samples", n_samples, 2)
    if spec.kind == SUBSPACE_RGE and projection is None:
        projection = gradient_aligned_projection(objective, x, spec.rank)
    table = streams.slot_table((seed,), spec.config.n_queries, len(x.names))
    name = x.names[0]
    mean = np.zeros_like(x[name])
    m2 = np.zeros_like(x[name])
    for i in range(n_samples):
        sample, words = table(i)
        est = _sample_estimate(spec, objective, x, int(sample), words, projection)
        delta = est - mean
        mean += delta / (i + 1)
        m2 += delta * (est - mean)
    return float(np.mean(m2 / (n_samples - 1)))


#: Per-sample seed of Monte-Carlo measurements, ``derive_seed(seed, index)``.
sample_seed = derive_seed


def measure_variance(spec: EstimatorSpec, objective, x: ParamSpace,
                     n_samples: int, seed: int) -> VarianceReport:
    """Monte-Carlo variance of ``spec`` with the ratio against the reference,
    the single-query forward full-space estimator at ``spec``'s mu.

    The subspace estimator is measured with the gradient-aligned projection,
    which requires the objective's analytic gradient.  Ratios below
    ``MIN_RATIO_SAMPLES`` samples are refused.
    """
    _check_ratio_samples(n_samples)
    var = estimator_variance(spec, objective, x, n_samples, seed)
    ref_var = estimator_variance(_reference(spec), objective, x, n_samples, seed + 1)
    return _variance_report(spec, var, ref_var, n_samples)


def _check_ratio_samples(n_samples):
    if n_samples < MIN_RATIO_SAMPLES:
        raise ValueError(f"need at least {MIN_RATIO_SAMPLES} samples for a ratio, got {n_samples}")


def _reference(spec: EstimatorSpec) -> EstimatorSpec:
    return EstimatorSpec(FULL_RGE, EstimatorConfig(mu=spec.config.mu))


def _variance_report(spec, var, ref_var, n_samples) -> VarianceReport:
    return VarianceReport(
        estimator=spec.label(),
        per_entry_variance=var,
        n_samples=n_samples,
        reference=_reference(spec).label(),
        reference_variance=ref_var,
        ratio=ref_var / var if var > 0 else float("nan"),
    )


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


def compare_msign_backends(shape=(8, 8), condition_numbers=(2.0, 5.0, 10.0, 100.0, 1000.0),
                           trials: int = 50, seed: int = 0,
                           iterations: int = 5) -> list:
    """Median relative Frobenius error of the Newton-Schulz msign against the
    SVD msign, per condition-number bucket.

    Returns a list of (condition_number, median_error) pairs, ordered as
    given.  The error grows with conditioning because small singular values
    are not pushed all the way to 1 within the iteration budget.
    """
    rng = np.random.default_rng(seed)
    rows = []
    for cond in condition_numbers:
        errs = []
        for _ in range(trials):
            g = conditioned_matrix(shape[0], shape[1], cond, rng)
            exact = linalg.msign_svd(g)
            approx = linalg.msign_ns(g, iterations=iterations)
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
    nq4, sub = _variance_reports(seed, n_samples)
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


def _variance_reports(seed: int, n_samples: int) -> tuple:
    """The suite's two reports: ``measure_variance`` of Nq=4 at ``seed`` and
    of the subspace estimator at ``seed + 1``, their four Monte-Carlo runs
    made in parallel (:func:`zomat._parallel.in_parallel`), largest first."""
    from ._parallel import in_parallel
    from .objectives import make_quadratic

    _check_ratio_samples(n_samples)
    objective = make_quadratic(64, 32, 8, seed=seed + 17)
    x = objective.initial_params
    nq4 = EstimatorSpec(FULL_RGE, EstimatorConfig(mu=1e-3, n_queries=4))
    sub = EstimatorSpec(SUBSPACE_RGE, EstimatorConfig(mu=1e-3), rank=8)
    run = partial(estimator_variance, objective=objective, x=x, n_samples=n_samples)
    nq4_var, nq4_ref, sub_ref, sub_var = in_parallel([
        partial(run, nq4, seed=seed),
        partial(run, _reference(nq4), seed=seed + 1),
        partial(run, _reference(sub), seed=seed + 2),
        partial(run, sub, seed=seed + 1),
    ])
    return (
        _variance_report(nq4, nq4_var, nq4_ref, n_samples),
        _variance_report(sub, sub_var, sub_ref, n_samples),
    )


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
