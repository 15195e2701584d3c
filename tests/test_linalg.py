import numpy as np
import pytest

from _utils import FIELDS, rand_hermitian, rand_unit
from phasefeas.linalg import (
    COMPLEX,
    REAL,
    eig,
    hermitize,
    hs_inner,
    project_T,
    project_Tperp,
    schatten_norm,
)


def e(i, n):
    v = np.zeros(n)
    v[i] = 1.0
    return v


def eig_loop_reference(X):
    """The per-column phase fix that eig vectorizes, kept as its oracle."""
    values, vectors = np.linalg.eigh(X)
    values = values[::-1].copy()
    vectors = vectors[:, ::-1].copy()
    for j in range(vectors.shape[1]):
        k = int(np.argmax(np.abs(vectors[:, j])))
        pivot = vectors[k, j]
        if pivot != 0:
            vectors[:, j] *= np.conj(pivot) / abs(pivot)
    return values, vectors


class TestEig:
    def test_diagonal(self):
        d = eig(np.diag([1.0, 2.0, 3.0]))
        assert np.allclose(d.values, [3.0, 2.0, 1.0])
        assert np.allclose(np.abs(d.vectors), np.eye(3)[:, ::-1])

    def test_rank_one(self):
        rng = np.random.default_rng(3)
        x0 = rand_unit(rng, 5)
        d = eig(np.outer(x0, x0))
        assert np.allclose(d.values, [1, 0, 0, 0, 0], atol=1e-12)
        # up to sign; the phase convention makes the comparison deterministic
        assert min(np.linalg.norm(d.vectors[:, 0] - x0),
                   np.linalg.norm(d.vectors[:, 0] + x0)) < 1e-12

    @pytest.mark.parametrize("field", FIELDS)
    def test_reconstruction_and_orthonormality(self, field):
        rng = np.random.default_rng(7)
        for _ in range(20):
            X = rand_hermitian(rng, 4, field, scale=3.0)
            d = eig(X)
            scale = max(1.0, schatten_norm(X, 2))
            resid = np.linalg.norm(X - (d.vectors * d.values) @ d.vectors.conj().T)
            assert resid <= 1e-10 * scale
            gram = d.vectors.conj().T @ d.vectors
            assert np.max(np.abs(gram - np.eye(4))) <= 1e-10

    def test_deterministic(self):
        rng = np.random.default_rng(11)
        X = rand_hermitian(rng, 6, COMPLEX)
        d1, d2 = eig(X), eig(X.copy())
        assert np.array_equal(d1.values, d2.values)
        assert np.array_equal(d1.vectors, d2.vectors)

    def test_phase_convention(self):
        rng = np.random.default_rng(13)
        X = rand_hermitian(rng, 5, COMPLEX)
        d = eig(X)
        for j in range(5):
            k = int(np.argmax(np.abs(d.vectors[:, j])))
            pivot = d.vectors[k, j]
            assert abs(pivot.imag) < 1e-14 and pivot.real > 0

    @pytest.mark.parametrize("field", FIELDS)
    @pytest.mark.parametrize("n", [1, 2, 7, 50])
    def test_matches_loop_reference_bitwise(self, field, n):
        rng = np.random.default_rng(43 + n)
        for _ in range(10):
            X = rand_hermitian(rng, n, field)
            values, vectors = eig_loop_reference(X)
            d = eig(X)
            assert np.array_equal(d.values, values)
            assert np.array_equal(d.vectors, vectors)

    @pytest.mark.parametrize("X", [np.array([[0.0, 1.0], [1.0, 0.0]]),
                                   np.array([[0.0, 1j], [-1j, 0.0]])])
    def test_tied_magnitudes_pick_first_index(self, X):
        raw = np.abs(np.linalg.eigh(X)[1])
        assert np.all(raw[0] == raw[1])  # every column is an exact tie
        values, vectors = eig_loop_reference(X)
        d = eig(X)
        assert np.array_equal(d.values, values)
        assert np.array_equal(d.vectors, vectors)
        assert np.all(d.vectors[0].imag == 0.0) and np.all(d.vectors[0].real > 0)

    def test_nonfinite_rejected(self):
        X = np.eye(3)
        X[0, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            eig(X)


class TestSchattenNorm:
    def test_diagonal(self):
        X = np.diag([3.0, -4.0])
        assert schatten_norm(X, 1) == pytest.approx(7.0)
        assert schatten_norm(X, 2) == pytest.approx(5.0)
        assert schatten_norm(X, np.inf) == pytest.approx(4.0)

    def test_zero(self):
        Z = np.zeros((4, 4))
        for p in (1, 2, np.inf):
            assert schatten_norm(Z, p) == 0.0

    def test_rank_one_unit(self):
        rng = np.random.default_rng(5)
        x = rand_unit(rng, 6, COMPLEX)
        X = hermitize(np.outer(x, x.conj()))
        for p in (1, 2, np.inf):
            assert schatten_norm(X, p) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("field", FIELDS)
    def test_ordering(self, field):
        rng = np.random.default_rng(17)
        for _ in range(20):
            X = rand_hermitian(rng, 5, field)
            p1, p2, pinf = (schatten_norm(X, p) for p in (1, 2, np.inf))
            assert p1 >= p2 - 1e-12 and p2 >= pinf - 1e-12


class TestSubspaceProjectors:
    def test_tperp_only(self):
        X = np.outer(e(1, 3), e(1, 3))
        assert np.allclose(project_T(X, e(0, 3)), 0.0, atol=1e-14)

    def test_t_only(self):
        X = np.outer(e(0, 3), e(0, 3))
        assert np.allclose(project_T(X, e(0, 3)), X, atol=1e-14)

    def test_tperp_of_identity(self):
        out = project_Tperp(np.eye(3), e(0, 3))
        assert np.allclose(out, np.diag([0.0, 1.0, 1.0]), atol=1e-14)

    def test_cross_term_in_t(self):
        X = np.outer(e(0, 3), e(1, 3)) + np.outer(e(1, 3), e(0, 3))
        assert np.allclose(project_Tperp(X, e(0, 3)), 0.0, atol=1e-14)

    @pytest.mark.parametrize("field", FIELDS)
    def test_decomposition_orthogonality_rank(self, field):
        rng = np.random.default_rng(23)
        for _ in range(25):
            n = int(rng.integers(2, 8))
            X = rand_hermitian(rng, n, field, scale=2.0)
            x = rand_unit(rng, n, field)
            XT, XP = project_T(X, x), project_Tperp(X, x)
            nrm = schatten_norm(X, 2)
            assert np.max(np.abs(XT + XP - X)) <= 1e-12 * max(1.0, nrm)
            assert abs(hs_inner(XT, XP)) <= 1e-10 * nrm**2
            # T part has rank <= 2: third singular value is numerically zero
            sv = np.sort(np.abs(np.linalg.eigvalsh(XT)))[::-1]
            if n >= 3:
                assert sv[2] <= 1e-8 * nrm
            # definition check: Tperp part equals (I-xx*) X (I-xx*)
            Q = np.eye(n) - np.outer(x, x.conj())
            assert np.max(np.abs(XP - Q @ X @ Q)) <= 1e-10 * max(1.0, nrm)

    @pytest.mark.parametrize("field", FIELDS)
    def test_idempotent(self, field):
        rng = np.random.default_rng(29)
        X = rand_hermitian(rng, 6, field)
        x = rand_unit(rng, 6, field)
        for proj in (project_T, project_Tperp):
            once = proj(X, x)
            assert np.max(np.abs(proj(once, x) - once)) <= 1e-12

    def test_anchor_validation(self):
        with pytest.raises(ValueError, match="unit norm"):
            project_T(np.eye(3), np.array([1.0, 1.0, 0.0]))
        with pytest.raises(ValueError, match="dimension mismatch"):
            project_T(np.eye(3), e(0, 4))


class TestHsInner:
    def test_identity(self):
        assert hs_inner(np.eye(5), np.eye(5)) == pytest.approx(5.0)

    def test_orthogonal_rank_ones(self):
        assert hs_inner(np.outer(e(0, 3), e(0, 3)), np.outer(e(1, 3), e(1, 3))) == 0.0

    @pytest.mark.parametrize("field", FIELDS)
    def test_matches_frobenius(self, field):
        rng = np.random.default_rng(31)
        for _ in range(10):
            X = rand_hermitian(rng, 5, field)
            assert abs(hs_inner(X, X) - schatten_norm(X, 2) ** 2) <= 1e-12 * max(1.0, hs_inner(X, X))

    @pytest.mark.parametrize("field", FIELDS)
    def test_symmetric(self, field):
        rng = np.random.default_rng(37)
        X, Y = rand_hermitian(rng, 4, field), rand_hermitian(rng, 4, field)
        assert hs_inner(X, Y) == pytest.approx(hs_inner(Y, X), abs=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            hs_inner(np.eye(3), np.eye(4))


def test_hermitize_exact():
    rng = np.random.default_rng(41)
    A = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    H = hermitize(A)
    assert np.array_equal(H, H.conj().T)
    assert np.all(H.diagonal().imag == 0.0)
