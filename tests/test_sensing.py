import numpy as np
import pytest

from _utils import FIELDS, rand_hermitian, rand_unit, rand_vector
from phasefeas.linalg import COMPLEX, REAL, hs_inner
from phasefeas.sensing import (
    MeasurementVector,
    add_noise,
    apply_adjoint,
    apply_lifted,
    derive_seed,
    load_ensemble,
    measure,
    s_apply,
    s_inverse,
    sample_ensemble,
    save_ensemble,
)


class TestSampleEnsemble:
    def test_deterministic(self):
        a = sample_ensemble(3, 5, REAL, seed=7)
        b = sample_ensemble(3, 5, REAL, seed=7)
        assert np.array_equal(a.vectors, b.vectors)

    def test_real_norm_mean(self):
        # chi-square: E||z||^2 = n
        e = sample_ensemble(10, 100_000, REAL, seed=1)
        sq = np.sum(e.vectors**2, axis=1)
        se = sq.std() / np.sqrt(e.m)
        assert abs(sq.mean() - 10.0) <= 3 * se

    def test_complex_norm_mean(self):
        # Re and Im each standard normal, so E||z||^2 = 2n
        e = sample_ensemble(10, 100_000, COMPLEX, seed=2)
        sq = np.sum(np.abs(e.vectors) ** 2, axis=1)
        se = sq.std() / np.sqrt(e.m)
        assert abs(sq.mean() - 20.0) <= 3 * se

    def test_bad_dims(self):
        with pytest.raises(ValueError):
            sample_ensemble(0, 5)
        with pytest.raises(ValueError):
            sample_ensemble(5, 0)


class TestMeasure:
    def test_coordinate(self):
        e = sample_ensemble(2, 1, REAL, seed=0)
        e.vectors[0] = [1.0, 0.0]
        b = measure(e, np.array([1.0, 0.0]))
        assert b.values[0] == pytest.approx(1.0)
        assert b.epsilon == 0.0

    def test_zero_vector(self):
        e = sample_ensemble(4, 6, REAL, seed=3)
        assert np.all(measure(e, np.zeros(4)).values == 0.0)

    @pytest.mark.parametrize("field", FIELDS)
    def test_lifting_consistency(self, field):
        rng = np.random.default_rng(5)
        e = sample_ensemble(6, 20, field, seed=5)
        x = rand_vector(rng, 6, field)
        direct = measure(e, x).values
        lifted = apply_lifted(e, np.outer(x, x.conj()))
        assert np.max(np.abs(direct - lifted)) <= 1e-12 * max(1.0, np.max(np.abs(direct)))

    def test_dim_mismatch(self):
        e = sample_ensemble(4, 6, REAL, seed=3)
        with pytest.raises(ValueError, match="dimension mismatch"):
            measure(e, np.zeros(5))


class TestLiftedOperators:
    def test_identity_gives_norms(self):
        e = sample_ensemble(5, 12, REAL, seed=8)
        out = apply_lifted(e, np.eye(5))
        assert np.allclose(out, np.sum(e.vectors**2, axis=1))

    def test_zero_matrix(self):
        e = sample_ensemble(5, 12, REAL, seed=8)
        assert np.all(apply_lifted(e, np.zeros((5, 5))) == 0.0)

    @pytest.mark.parametrize("field", FIELDS)
    def test_linearity(self, field):
        rng = np.random.default_rng(9)
        e = sample_ensemble(5, 12, field, seed=9)
        X, Y = rand_hermitian(rng, 5, field), rand_hermitian(rng, 5, field)
        lhs = apply_lifted(e, X + Y)
        rhs = apply_lifted(e, X) + apply_lifted(e, Y)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * max(1.0, np.max(np.abs(lhs)))

    def test_adjoint_coordinate(self):
        e = sample_ensemble(4, 7, COMPLEX, seed=10)
        lam = np.zeros(7)
        lam[3] = 1.0
        z = e.vectors[3]
        assert np.allclose(apply_adjoint(e, lam), np.outer(z, z.conj()))

    def test_adjoint_zero(self):
        e = sample_ensemble(4, 7, REAL, seed=10)
        assert np.all(apply_adjoint(e, np.zeros(7)) == 0.0)

    @pytest.mark.parametrize("field", FIELDS)
    @pytest.mark.parametrize("n,m", [(3, 5), (10, 40), (1, 1), (1, 6), (4, 1)])
    def test_adjoint_identity(self, field, n, m):
        rng = np.random.default_rng(11)
        e = sample_ensemble(n, m, field, seed=11)
        for _ in range(25):
            X = rand_hermitian(rng, n, field)
            lam = rng.standard_normal(m)
            lifted = apply_lifted(e, X)
            oracle = np.real([z.conj() @ X @ z for z in e.vectors])
            assert lifted.shape == (m,)
            assert np.max(np.abs(lifted - oracle)) <= 1e-12 * max(1.0, np.max(np.abs(oracle)))
            lhs = float(lifted @ lam)
            rhs = hs_inner(X, apply_adjoint(e, lam))
            scale = max(1.0, abs(lhs))
            assert abs(lhs - rhs) <= 1e-10 * scale


class TestSecondMomentOperator:
    def test_real_identity(self):
        assert np.allclose(s_apply(np.eye(4), REAL), 6 * np.eye(4))

    def test_complex_identity(self):
        assert np.allclose(s_apply(np.eye(4, dtype=complex), COMPLEX), 5 * np.eye(4))

    def test_real_traceless(self):
        X = np.diag([1.0, -1.0, 0.0])
        assert np.allclose(s_apply(X, REAL), 2 * X)

    @pytest.mark.parametrize("field", FIELDS)
    def test_inverse_pair(self, field):
        rng = np.random.default_rng(13)
        for _ in range(10):
            X = rand_hermitian(rng, 5, field)
            back = s_inverse(s_apply(X, field), field)
            assert np.max(np.abs(back - X)) <= 1e-12 * max(1.0, np.max(np.abs(X)))
            forth = s_apply(s_inverse(X, field), field)
            assert np.max(np.abs(forth - X)) <= 1e-12 * max(1.0, np.max(np.abs(X)))

    def test_real_scaled_identity(self):
        n = 6
        X = (n + 2) * np.eye(n)
        assert np.allclose(s_inverse(X, REAL), np.eye(n))

    def test_certificate_weight_seed(self):
        # A(S^{-1} 2(I - e1 e1*))_i must equal the closed-form certificate
        # weight 3/(n+2) ||z_i||^2 - z_{i,1}^2 (real field).
        n, m = 7, 30
        e = sample_ensemble(n, m, REAL, seed=17)
        M = 2 * (np.eye(n) - np.diag([1.0] + [0.0] * (n - 1)))
        img = apply_lifted(e, s_inverse(M, REAL))
        Z = e.vectors
        w = 3.0 / (n + 2) * np.sum(Z**2, axis=1) - Z[:, 0] ** 2
        assert np.max(np.abs(img - w)) <= 1e-12 * max(1.0, np.max(np.abs(w)))

    def test_mc_convergence_real(self):
        # (1/m) sum <z z*, X> z z* -> 2X + tr(X) I entrywise, within 5 SE
        n, m = 6, 200_000
        rng = np.random.default_rng(19)
        X = rand_hermitian(rng, n, REAL)
        e = sample_ensemble(n, m, REAL, seed=19)
        Z = e.vectors
        q = apply_lifted(e, X)
        est = (Z.T * q) @ Z / m
        second = ((Z**2).T * q**2) @ (Z**2) / m
        var = second - est**2
        se = np.sqrt(var / m)
        assert np.all(np.abs(est - s_apply(X, REAL)) <= 5 * se)

    def test_mc_convergence_complex(self):
        # Under the variance-2 complex coordinates the second moment is
        # 4 (X + tr(X) I); checked against the actual sampling law.
        n, m = 6, 50_000
        rng = np.random.default_rng(23)
        X = rand_hermitian(rng, n, COMPLEX)
        e = sample_ensemble(n, m, COMPLEX, seed=23)
        Z = e.vectors
        q = apply_lifted(e, X)
        est = (Z.T * q) @ Z.conj() / m
        second = ((np.abs(Z) ** 2).T * q**2) @ (np.abs(Z) ** 2) / m
        var_total = second - np.abs(est) ** 2
        se = np.sqrt(var_total / m)
        assert np.all(np.abs(est - 4 * s_apply(X, COMPLEX)) <= 5 * se)


class TestMomentOracles:
    # Light version of the Gaussian moment suite (the acceptance gate runs
    # the full 1e6-sample version at both n = 10 and n = 50).
    def test_moments_n10(self):
        n, nsamp = 10, 200_000
        rng = np.random.default_rng(29)
        Z = rng.standard_normal((nsamp, n))
        z1sq = Z[:, 0] ** 2
        nrm = np.sum(Z**2, axis=1)
        cases = [
            (z1sq**2, 3.0),
            (z1sq * nrm, n + 2.0),
            (z1sq**4, 105.0),
            (z1sq**3 * nrm, 15.0 * n + 90.0),
            (z1sq**2 * nrm**2, 3.0 * n**2 + 30.0 * n + 72.0),
            (z1sq * nrm**3, (n + 2.0) * (n + 4.0) * (n + 6.0)),
        ]
        for samples, target in cases:
            se = samples.std() / np.sqrt(nsamp)
            assert abs(samples.mean() - target) <= 5 * se


class TestAddNoise:
    def test_zero_eps(self):
        b = MeasurementVector(values=np.array([1.0, 2.0]), epsilon=0.0)
        out = add_noise(b, 0.0, 1.0, seed=0)
        assert np.array_equal(out.values, b.values)

    def test_exact_radius(self):
        b = MeasurementVector(values=np.zeros(50))
        out = add_noise(b, 0.1, 2.0, seed=1)
        assert np.linalg.norm(out.values - b.values) == pytest.approx(0.1 * 4.0, abs=1e-12)
        assert out.epsilon == 0.1

    def test_deterministic(self):
        b = MeasurementVector(values=np.zeros(20))
        o1 = add_noise(b, 0.3, 1.0, seed=5)
        o2 = add_noise(b, 0.3, 1.0, seed=5)
        assert np.array_equal(o1.values, o2.values)

    def test_negative_eps(self):
        b = MeasurementVector(values=np.zeros(3))
        with pytest.raises(ValueError, match="nonnegative"):
            add_noise(b, -0.1, 1.0, seed=0)


def test_derive_seed_stable_and_disjoint():
    s1 = derive_seed(42, 1, 2, 3)
    assert s1 == derive_seed(42, 1, 2, 3)
    assert s1 != derive_seed(42, 1, 2, 4)
    assert s1 != derive_seed(43, 1, 2, 3)


def test_serialization_roundtrip(tmp_path):
    e = sample_ensemble(4, 9, COMPLEX, seed=77)
    path = tmp_path / "ensemble.txt"
    save_ensemble(e, path)
    back = load_ensemble(path)
    assert back.n == 4 and back.m == 9 and back.field == COMPLEX
    assert np.array_equal(back.vectors, e.vectors)
