"""Tour of the dense-matrix primitives.

Walks through the three building blocks everything else rests on: random
column-orthonormal projections, the matrix sign function (exact and
iterative), and the spectral-energy effective rank.

Run with:  python demos/01_projections_and_msign.py
"""

import numpy as np

from zomat import effective_rank, msign_ns, msign_svd, sample_projection

rng = np.random.default_rng(0)

# ---------------------------------------------------------------------------
# 1. Random projections: orthonormal columns, reproducible from a seed
# ---------------------------------------------------------------------------
proj = sample_projection(m=64, r=8, seed=7)
gram_err = np.max(np.abs(proj.T @ proj - np.eye(8)))
again = sample_projection(m=64, r=8, seed=7)

print("projection P is 64x8 with P^T P = I_8")
print(f"  max |P^T P - I| = {gram_err:.2e}")
print(f"  bit-identical on replay of seed 7: {np.array_equal(proj, again)}")
print()

# ---------------------------------------------------------------------------
# 2. The matrix sign function: every retained singular value becomes 1
# ---------------------------------------------------------------------------
g = rng.standard_normal((8, 5))
signed = msign_svd(g)
print("msign via SVD maps all singular values to 1:")
print(f"  input  singular values: {np.round(np.linalg.svd(g, compute_uv=False), 3)}")
print(f"  output singular values: {np.round(np.linalg.svd(signed, compute_uv=False), 6)}")
print()

# ---------------------------------------------------------------------------
# 3. Newton-Schulz approximation: cheap, accurate while conditioning is mild
# ---------------------------------------------------------------------------
print("Newton-Schulz (5 iterations) vs exact SVD, by condition number:")
print(f"  {'condition':>10} {'rel.error':>10}")
for cond in (2, 5, 10, 100, 1000):
    errs = []
    for _ in range(25):
        u, _ = np.linalg.qr(rng.standard_normal((8, 8)))
        v, _ = np.linalg.qr(rng.standard_normal((8, 8)))
        s = np.logspace(0, -np.log10(cond), 8)
        g = (u * s) @ v.T
        exact = msign_svd(g)
        errs.append(np.linalg.norm(msign_ns(g) - exact) / np.linalg.norm(exact))
    print(f"  {cond:>10} {np.median(errs):>10.2e}")
print("  (the slow tail of badly conditioned spectra is not fully whitened)")
print()

# ---------------------------------------------------------------------------
# 4. Effective rank: how many directions hold 99.99% of squared energy
# ---------------------------------------------------------------------------
for k in (1, 4, 16):
    planted = rng.standard_normal((64, k)) @ rng.standard_normal((k, 64))
    print(f"planted rank {k:>2} matrix -> effective rank {effective_rank(planted)}")
noisy = rng.standard_normal((64, 4)) @ rng.standard_normal((4, 64))
noisy += 1e-3 * rng.standard_normal((64, 64))
print(f"same with 1e-3 additive noise -> effective rank {effective_rank(noisy)}")
