import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from zomat import linalg


class TestSampleProjection:
    def test_one_by_one_is_plus_one(self):
        # sign convention forces the single entry positive
        for seed in (0, 1, 123456):
            proj = linalg.sample_projection(1, 1, seed)
            assert_allclose(proj, [[1.0]], atol=1e-14)

    @pytest.mark.parametrize("m,r,seed", [(5, 3, 7), (64, 8, 0), (16, 16, 3), (40, 1, 9)])
    def test_orthonormality(self, m, r, seed):
        proj = linalg.sample_projection(m, r, seed)
        gram = proj.T @ proj
        assert np.max(np.abs(gram - np.eye(r))) <= 1e-10

    def test_deterministic_bit_for_bit(self):
        a = linalg.sample_projection(64, 8, seed=0)
        b = linalg.sample_projection(64, 8, seed=0)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = linalg.sample_projection(16, 4, seed=0)
        b = linalg.sample_projection(16, 4, seed=1)
        assert not np.array_equal(a, b)

    def test_rank_exceeds_dim(self):
        with pytest.raises(ValueError, match="exceeds"):
            linalg.sample_projection(3, 4, seed=0)

    @pytest.mark.parametrize("m,r", [(0, 1), (4, 0), (0, 0)])
    def test_invalid_dimensions(self, m, r):
        with pytest.raises(ValueError, match="positive"):
            linalg.sample_projection(m, r, seed=0)


class TestMsignSvd:
    def test_identity(self):
        assert_allclose(linalg.msign_svd(np.eye(3)), np.eye(3), atol=1e-12)

    def test_zero_matrix(self):
        out = linalg.msign_svd(np.zeros((4, 2)))
        assert out.shape == (4, 2)
        assert np.all(out == 0.0)

    def test_diagonal_equalized(self):
        assert_allclose(linalg.msign_svd(np.diag([3.0, 0.5])), np.eye(2), atol=1e-12)

    def test_rank_one(self):
        # For g = u v^T with unit u, v the SVD is exactly (u, 1, v), so the
        # sign function returns u v^T itself.
        rng = np.random.default_rng(5)
        u = rng.standard_normal(6)
        u /= np.linalg.norm(u)
        v = rng.standard_normal(4)
        v /= np.linalg.norm(v)
        g = np.outer(u, v)
        assert_allclose(linalg.msign_svd(g), g, atol=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_nonzero_singular_values_are_one(self, seed):
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((7, 5))
        s = np.linalg.svd(linalg.msign_svd(g), compute_uv=False)
        nonzero = s[s > 1e-12]
        assert np.max(np.abs(nonzero - 1.0)) <= 1e-8

    def test_idempotent(self):
        rng = np.random.default_rng(8)
        g = rng.standard_normal((6, 9))
        once = linalg.msign_svd(g)
        twice = linalg.msign_svd(once)
        assert np.max(np.abs(twice - once)) <= 1e-8

    @pytest.mark.parametrize("scale", [3.0, 1e-6, -2.0, -1e5])
    def test_scalar_scaling_identity(self, scale):
        rng = np.random.default_rng(2)
        g = rng.standard_normal((5, 8))
        scaled = linalg.msign_svd(scale * g)
        expected = np.sign(scale) * linalg.msign_svd(g)
        assert np.max(np.abs(scaled - expected)) <= 1e-10

    def test_column_space_preserved(self):
        # (I - G G^+) msign(G) vanishes when G has full column rank
        rng = np.random.default_rng(3)
        for _ in range(5):
            g = rng.standard_normal((10, 4))
            residual = (np.eye(10) - g @ np.linalg.pinv(g)) @ linalg.msign_svd(g)
            assert np.max(np.abs(residual)) <= 1e-8

    @pytest.mark.parametrize("scale", [1e308, 1e-170])
    def test_norm_out_of_range_is_scaled_away(self, scale):
        # the Frobenius norm overflows (1e308) or underflows to zero (1e-170)
        # though every entry is finite and nonzero; msign is scale-invariant
        signs = np.array([[1.0, -1.0, 1.0], [-1.0, 1.0, 1.0]])
        assert np.array_equal(linalg.msign_svd(scale * signs), linalg.msign_svd(signs))
        assert np.array_equal(linalg.msign_svd(scale * signs.T), linalg.msign_svd(signs.T))


class TestMsignInput:
    """Both backends check their input the same way at the race's 8x64
    shape: a non-finite entry is refused, a finite input whose norm
    overflows is scaled, and the zero matrix maps to itself."""

    @pytest.mark.parametrize("msign", [linalg.msign_svd, linalg.msign_ns])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_a_non_finite_entry(self, msign, value):
        g = np.random.default_rng(0).standard_normal((8, 64))
        g[3, 17] = value
        with pytest.raises(ValueError, match="matrix contains non-finite entries"):
            msign(g)

    @pytest.mark.parametrize("msign", [linalg.msign_svd, linalg.msign_ns])
    def test_overflowing_norm_is_scaled_away(self, msign):
        g = np.random.default_rng(1).standard_normal((8, 64))
        big = 1e307 * g
        assert np.isfinite(big).all()
        with np.errstate(over="ignore"):
            assert np.linalg.norm(big) == np.inf
        assert_allclose(msign(big), msign(g), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("msign", [linalg.msign_svd, linalg.msign_ns])
    def test_zero_maps_to_zero(self, msign):
        out = msign(np.zeros((8, 64)))
        assert out.shape == (8, 64) and not out.any()

    @pytest.mark.parametrize("msign", [linalg.msign_svd, linalg.msign_ns])
    @pytest.mark.parametrize(
        "g,message",
        [(np.ones(64), "matrix must be 2-dimensional, got ndim=1"),
         (np.ones((8, 64, 1)), "matrix must be 2-dimensional, got ndim=3"),
         (np.ones((0, 64)), r"matrix must have positive dimensions, got \(0, 64\)")],
        ids=["vector", "3-d", "empty"],
    )
    def test_rejects_a_shape_that_is_not_a_matrix(self, msign, g, message):
        with pytest.raises(ValueError, match=message):
            msign(g)


def msign_reference(g):
    """The SVD definition of msign: U[:, :k] V[:, :k]^T over the singular
    values above 1e-7 times the largest."""
    u, s, vt = np.linalg.svd(g, full_matrices=False)
    if s[0] <= 0.0:
        return np.zeros_like(g)
    k = int(np.count_nonzero(s > 1e-7 * s[0]))
    return u[:, :k] @ vt[:k, :]


@st.composite
def spectra(draw, lo, hi, min_side=1):
    """(shape, seed, scale, singular values) with the largest one 1 and
    min(m, n) - 1 more log-spaced down to 10**-x for x in [lo, hi]."""
    small, large = draw(st.integers(min_side, 12)), draw(st.integers(1, 12))
    layout = draw(st.sampled_from(["wide", "tall", "square"]))
    shape = {"wide": (small, small + large), "tall": (small + large, small),
             "square": (small, small)}[layout]
    decades = draw(st.floats(lo, hi))
    k = min(shape)
    s = np.logspace(0.0, -decades, k) if k > 1 else np.ones(1)
    return shape, draw(st.integers(0, 2**32 - 1)), 10.0 ** draw(st.integers(-150, 150)), s


def planted(shape, seed, scale, s):
    rng = np.random.default_rng(seed)
    k = len(s)
    u, _ = np.linalg.qr(rng.standard_normal((shape[0], k)))
    v, _ = np.linalg.qr(rng.standard_normal((shape[1], k)))
    return scale * ((u * s) @ v.T)


class TestMsignSvdPaths:
    """The Gram route agrees with the SVD definition; the inputs it declines
    (zero, rank-deficient, ill-conditioned) take the SVD path exactly."""

    @settings(max_examples=300, deadline=None)
    @given(spectra(0.0, 3.5))
    def test_conditioned_agrees_with_svd(self, case):
        # condition numbers up to 10**3.5 straddle the route's gate
        g = planted(*case)
        assert np.max(np.abs(linalg.msign_svd(g) - msign_reference(g))) <= 1e-10

    @settings(max_examples=100, deadline=None)
    @given(spectra(4.0, 12.0, min_side=2))
    def test_ill_conditioned_falls_back_exactly(self, case):
        g = planted(*case)
        assert np.array_equal(linalg.msign_svd(g), msign_reference(g))

    @settings(max_examples=100, deadline=None)
    @given(spectra(0.0, 2.0, min_side=2), st.integers(1, 11))
    def test_rank_deficient_falls_back_exactly(self, case, drop):
        shape, seed, scale, s = case
        s = s.copy()
        s[len(s) - min(drop, len(s) - 1):] = 0.0
        g = planted(shape, seed, scale, s)
        assert np.array_equal(linalg.msign_svd(g), msign_reference(g))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 20), st.integers(1, 20))
    def test_zero_falls_back_exactly(self, m, n):
        g = np.zeros((m, n))
        assert np.array_equal(linalg.msign_svd(g), msign_reference(g))

    def test_route_follows_conditioning(self, monkeypatch):
        rng = np.random.default_rng(0)
        race_like = rng.standard_normal((8, 64))
        rank_two = rng.standard_normal((8, 2)) @ rng.standard_normal((2, 64))

        def no_svd(*args, **kwargs):
            raise AssertionError("took the SVD path")

        monkeypatch.setattr(linalg.np.linalg, "svd", no_svd)
        linalg.msign_svd(race_like)
        with pytest.raises(AssertionError, match="SVD path"):
            linalg.msign_svd(rank_two)


def conditioned(rng, m, n, condition):
    k = min(m, n)
    u, _ = np.linalg.qr(rng.standard_normal((m, k)))
    v, _ = np.linalg.qr(rng.standard_normal((n, k)))
    s = np.linspace(1.0, 1.0 / condition, k)
    return (u * s) @ v.T


class TestMsignNs:
    def test_identity_close(self):
        out = linalg.msign_ns(np.eye(3))
        assert np.max(np.abs(out - np.eye(3))) <= 1e-2

    def test_zero_matrix(self):
        assert np.all(linalg.msign_ns(np.zeros((3, 5))) == 0.0)

    @pytest.mark.parametrize("scale", [1e308, 1e-170])
    def test_norm_out_of_range_is_scaled_away(self, scale):
        signs = np.array([[1.0, -1.0, 1.0], [-1.0, 1.0, 1.0]])
        assert np.array_equal(linalg.msign_ns(scale * signs), linalg.msign_ns(signs))
        assert np.array_equal(linalg.msign_ns(scale * signs.T), linalg.msign_ns(signs.T))

    @pytest.mark.parametrize("seed", range(5))
    def test_well_conditioned_matches_svd(self, seed):
        # oracle: the exact SVD sign of the same matrix
        rng = np.random.default_rng(seed)
        g = conditioned(rng, 8, 8, condition=9.0)
        approx = linalg.msign_ns(g)
        exact = linalg.msign_svd(g)
        rel = np.linalg.norm(approx - exact) / np.linalg.norm(exact)
        assert rel <= 0.05

    def test_tall_matrix_transposed_internally(self):
        rng = np.random.default_rng(10)
        g = conditioned(rng, 12, 4, condition=5.0)
        rel = np.linalg.norm(linalg.msign_ns(g) - linalg.msign_svd(g))
        rel /= np.linalg.norm(linalg.msign_svd(g))
        assert rel <= 0.05

    def test_overflow_raises_numerical_error(self, monkeypatch):
        # runaway boost coefficients blow the iterate up to inf
        monkeypatch.setattr(linalg, "AGGRESSIVE_QUINTIC", (50.0, 0.0, 50.0))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(linalg.NumericalError, match="non-finite"):
                linalg.msign_ns(np.eye(3))


class TestEffectiveRank:
    def test_equal_spread(self):
        assert linalg.effective_rank(np.diag([1.0, 1.0, 1.0])) == 3

    def test_planted_rank_four(self):
        # construct from 4 rank-1 terms and confirm the true numerical rank
        # before asserting on the measured one
        rng = np.random.default_rng(4)
        g = np.zeros((32, 32))
        for _ in range(4):
            g += np.outer(rng.standard_normal(32), rng.standard_normal(32))
        s = np.linalg.svd(g, compute_uv=False)
        assert s[4] / s[0] <= 1e-10
        assert linalg.effective_rank(g) == 4

    def test_zero_matrix(self):
        assert linalg.effective_rank(np.zeros((5, 3))) == 0
