"""What the query-based gradient estimators actually estimate.

Shows the exactness of single-query estimates on linear functions, the
convergence of the subspace estimator to the projected gradient, and the
variance advantage of estimating in a low-dimensional subspace.

Run with:  python demos/02_gradient_estimators.py
"""

import numpy as np

from zomat import EstimatorConfig, rge_full, subspace_rge, sample_projection
from zomat.estimators import perturbation
from zomat.objectives import Objective, make_quadratic
from zomat.oracle import (
    FULL_RGE,
    SUBSPACE_RGE,
    EstimatorSpec,
    measure_variance,
)
from zomat.params import ParamSpace

rng = np.random.default_rng(1)

# ---------------------------------------------------------------------------
# 1. On a linear function a single forward difference is exact
# ---------------------------------------------------------------------------
c = rng.standard_normal((6, 4))
obj = Objective("linear", lambda x: float(np.vdot(c, x["x"])),
                ParamSpace({"x": np.zeros((6, 4))}))
cfg = EstimatorConfig(mu=1e-3, n_queries=1)
est = rge_full(obj, obj.initial_params, cfg, seed=5)["x"]
psi = perturbation(5, 0, 0, (6, 4))
exact = np.vdot(c, psi) * psi
print("single-query estimate on a linear objective:")
print(f"  max |estimate - <C,Psi> Psi| = {np.max(np.abs(est - exact)):.2e}")
print(f"  queries consumed: {obj.query_count} (one perturbed + one base)")
print()

# ---------------------------------------------------------------------------
# 2. The lifted subspace estimate targets P P^T grad f, not grad f
# ---------------------------------------------------------------------------
quad = make_quadratic(32, 16, 4, seed=2)
x = quad.initial_params
proj = sample_projection(32, 4, seed=3)
cfg = EstimatorConfig(mu=1e-5, n_queries=4000)
g_z = subspace_rge(quad, x, {"x": proj}, cfg, seed=4)["x"]  # r x n, in the subspace
lifted = proj @ g_z
grad = quad.analytic_gradient(x)["x"]
projected = proj @ (proj.T @ grad)
err_vs_projected = np.linalg.norm(lifted - projected) / np.linalg.norm(projected)
err_vs_full = np.linalg.norm(lifted - grad) / np.linalg.norm(grad)
print("mean of 4000 lifted subspace queries on a quadratic:")
print(f"  relative error vs projected gradient P P^T G: {err_vs_projected:.3f}")
print(f"  relative error vs full gradient G:            {err_vs_full:.3f}")
print("  (the estimator is consistent for the projected gradient only)")
print()

# ---------------------------------------------------------------------------
# 3. Variance: subspace estimation cuts per-entry variance by about r/m
#    when the projection captures the gradient energy
# ---------------------------------------------------------------------------
quad = make_quadratic(64, 32, 8, seed=6)
x = quad.initial_params
n_samples = 2000  # the verification suite uses 10_000 for tight bands
sub = EstimatorSpec(SUBSPACE_RGE, EstimatorConfig(mu=1e-3), rank=8)
nq4 = EstimatorSpec(FULL_RGE, EstimatorConfig(mu=1e-3, n_queries=4))
sub_report, nq4_report = measure_variance([sub, nq4], quad, x, n_samples, seed=7)
print(f"variance of {sub_report.reference} vs {sub_report.estimator} "
      f"({n_samples} samples, m=64):")
print(f"  per-entry variances: {sub_report.reference_variance:.3e} vs "
      f"{sub_report.per_entry_variance:.3e}")
print(f"  ratio {sub_report.ratio:.2f}  (m / r = 8)")
print(f"averaging 4 queries instead of 1: ratio {nq4_report.ratio:.2f}  (target 4)")
