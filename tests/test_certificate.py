import math
from dataclasses import astuple

import numpy as np
import pytest

from _utils import rand_unit
from phasefeas.certificate import (
    CertificateParams,
    build_certificate,
    certificate_weights,
    check_certificate,
)
from phasefeas.linalg import COMPLEX, REAL, hermitize
from phasefeas.sensing import SensingEnsemble, apply_adjoint, apply_lifted, sample_ensemble


def e1(n, field=REAL):
    v = np.zeros(n, dtype=complex if field == COMPLEX else float)
    v[0] = 1.0
    return v


class TestBuildCertificate:
    def test_two_path_identity(self):
        # summing the weighted rank-1 terms explicitly must reproduce the
        # adjoint-based construction
        e = sample_ensemble(5, 40, seed=1)
        Y, lam = build_certificate(e, CertificateParams(anchor=e1(5), beta=1.0))
        direct = np.zeros((5, 5))
        for i in range(e.m):
            z = e.vectors[i]
            direct = direct + lam[i] * np.outer(z, z)
        assert np.max(np.abs(Y - direct)) <= 1e-12 * max(1.0, np.max(np.abs(Y)))
        assert np.max(np.abs(Y - apply_adjoint(e, lam))) == 0.0

    def test_single_sample_hand_value(self):
        n = 4
        Z = np.zeros((1, n))
        Z[0, 0] = 1.0
        e = SensingEnsemble(vectors=Z)
        Y, lam = build_certificate(e, CertificateParams(anchor=e1(n), beta=1.0))
        w = 3.0 / (n + 2) - 1.0
        assert lam[0] == pytest.approx(w)
        expected = np.zeros((n, n))
        expected[0, 0] = w
        assert np.allclose(Y, expected)

    def test_untruncated_expectation(self):
        # without truncation the sample average tends to 2(I - x0 x0*);
        # entrywise Monte-Carlo against the exact limit, 5 SE budget
        n, m = 6, 200_000
        x0 = e1(n)
        e = sample_ensemble(n, m, seed=99)
        Y, _ = build_certificate(e, CertificateParams(anchor=x0, beta=math.inf))
        target = 2.0 * (np.eye(n) - np.outer(x0, x0))
        Z, w = e.vectors, certificate_weights(e, x0)
        second = ((Z**2).T * w**2) @ (Z**2) / m
        se = np.sqrt((second - Y**2) / m)
        assert np.all(np.abs(Y - target) <= 5 * se)

    @pytest.mark.parametrize("field", [REAL, COMPLEX])
    def test_rotation_covariance(self, field):
        rng = np.random.default_rng(7)
        n, m = 6, 50
        e = sample_ensemble(n, m, field, seed=7)
        A = rng.standard_normal((n, n))
        if field == COMPLEX:
            A = A + 1j * rng.standard_normal((n, n))
        Q, _ = np.linalg.qr(A)
        rotated = SensingEnsemble(vectors=e.vectors @ Q.T)
        x0 = e1(n, field)
        Y_base, lam_base = build_certificate(e, CertificateParams(anchor=x0, beta=1.0))
        Y_rot, lam_rot = build_certificate(rotated, CertificateParams(anchor=Q @ x0, beta=1.0))
        assert np.max(np.abs(lam_rot - lam_base)) <= 1e-12
        ref = Q @ Y_base @ Q.conj().T
        assert np.max(np.abs(Y_rot - ref)) <= 1e-10 * max(1.0, np.max(np.abs(ref)))

    def test_n1_rejected(self):
        e = sample_ensemble(1, 5, seed=0)
        with pytest.raises(ValueError, match="n >= 2"):
            build_certificate(e, CertificateParams(anchor=np.array([1.0]), beta=1.0))

    def test_bad_beta(self):
        e = sample_ensemble(4, 5, seed=0)
        with pytest.raises(ValueError, match="beta"):
            build_certificate(e, CertificateParams(anchor=e1(4), beta=0.0))

    @pytest.mark.parametrize("beta", [math.nan, -math.inf])
    def test_nan_and_minus_inf_beta_rejected(self, beta):
        # +inf disables truncation; nan would truncate every sample, and
        # -inf would pass for "no truncation"
        e = sample_ensemble(4, 5, seed=0)
        with pytest.raises(ValueError, match="beta must be positive"):
            build_certificate(e, CertificateParams(anchor=e1(4), beta=beta))


class TestTruncationEvents:
    # E_i = {|<z_i, a>| <= sqrt(2 beta ln n)} and {||z_i|| <= sqrt(3n)};
    # beta = inf disables both clauses
    @staticmethod
    def removed(e, anchor, beta):
        if math.isinf(beta):
            return np.zeros(e.m, dtype=bool)
        corr = np.abs(e.vectors.conj() @ anchor)
        norms = np.linalg.norm(e.vectors, axis=1)
        return (corr > math.sqrt(2 * beta * math.log(e.n))) | (norms > math.sqrt(3 * e.n))

    @pytest.mark.parametrize("beta", [1.0, 2.0, math.inf])
    @pytest.mark.parametrize("field", [REAL, COMPLEX])
    def test_zero_exactly_on_the_removed_samples(self, field, beta):
        n, m = 6, 400
        e = sample_ensemble(n, m, field, seed=21)
        anchor = rand_unit(np.random.default_rng(22), n, field)
        _, lam = build_certificate(e, CertificateParams(anchor=anchor, beta=beta))
        cut = self.removed(e, anchor, beta)
        assert cut.any() != math.isinf(beta)
        assert np.array_equal(lam == 0.0, cut)
        w = certificate_weights(e, anchor)
        assert np.array_equal(lam[~cut], w[~cut] / m)

    @pytest.mark.parametrize("field", [REAL, COMPLEX])
    def test_each_clause_alone_removes_a_sample(self, field):
        # n = 4, beta = 1: |<z, e1>| <= 1.665 and ||z|| <= 3.464
        i = 1j if field == COMPLEX else 1.0
        Z = np.array([
            [2 * i, 0, 0, 0],  # |<z, e1>| = 2: the correlation clause, ||z|| = 2
            [0, 3, 3 * i, 0],  # ||z|| = sqrt(18): the norm clause, <z, e1> = 0
            [1, i, 1, 0],      # kept
        ], dtype=complex if field == COMPLEX else float)
        e = SensingEnsemble(vectors=Z)
        anchor = e1(4, field)
        w = certificate_weights(e, anchor)
        assert np.all(w != 0.0)
        _, lam = build_certificate(e, CertificateParams(anchor=anchor, beta=1.0))
        assert np.array_equal(lam, np.array([0.0, 0.0, w[2] / 3]))
        _, lam_inf = build_certificate(e, CertificateParams(anchor=anchor, beta=math.inf))
        assert np.array_equal(lam_inf, w / 3)


class TestCheckCertificate:
    @pytest.mark.parametrize("field", [REAL, COMPLEX])
    @pytest.mark.parametrize("beta", [1.0, math.inf])
    def test_report_reads_the_hermitian_part(self, field, beta):
        # Ybar = L*(lam) is Hermitian only up to rounding; the check
        # symmetrizes it, so Ybar and hermitize(Ybar) give the same report
        e = sample_ensemble(6, 200, field, seed=12)
        anchor = rand_unit(np.random.default_rng(12), 6, field)
        Y, lam = build_certificate(e, CertificateParams(anchor=anchor, beta=beta))
        assert not np.array_equal(Y, Y.conj().T)
        reports = [check_certificate(M, lam, anchor) for M in (Y, hermitize(Y))]
        assert repr(astuple(reports[0])) == repr(astuple(reports[1]))

    def test_exact_limit_certificate(self):
        n = 6
        x0 = e1(n)
        Y = 2.0 * (np.eye(n) - np.outer(x0, x0))
        r = check_certificate(Y, np.zeros(10), x0)
        assert r.y_t_nuclear == pytest.approx(0.0, abs=1e-12)
        assert r.t_perp_min_eig == pytest.approx(2.0)
        assert r.t_perp_dev == pytest.approx(0.0, abs=1e-12)
        assert r.pass_y_t and r.pass_t_perp and r.pass_lambda

    def test_zero_matrix_fails_t_perp(self):
        n = 5
        r = check_certificate(np.zeros((n, n)), np.zeros(8), e1(n))
        assert r.t_perp_min_eig == 0.0
        assert not r.pass_t_perp

    def test_general_anchor_matches_rotated_frame(self):
        # checking in a rotated frame equals rotating and checking at e1
        rng = np.random.default_rng(11)
        n = 5
        x0 = rand_unit(rng, n)
        Y = hermitize(rng.standard_normal((n, n)))
        r1 = check_certificate(Y, np.zeros(4), x0)
        M = np.column_stack([x0, np.eye(n)])
        Q = np.linalg.qr(M)[0]
        sign = np.sign(Q[:, 0] @ x0)
        Q[:, 0] *= sign
        r2 = check_certificate(Q.T @ Y @ Q, np.zeros(4), e1(n))
        assert r1.y_t_nuclear == pytest.approx(r2.y_t_nuclear, abs=1e-10)
        assert r1.t_perp_min_eig == pytest.approx(r2.t_perp_min_eig, abs=1e-10)
        assert r1.t_perp_dev == pytest.approx(r2.t_perp_dev, abs=1e-10)

    def test_truncation_rate_from_weights(self):
        lam = np.array([0.0, 0.5, 0.0, -0.25])
        r = check_certificate(np.zeros((3, 3)), lam, e1(3))
        assert r.truncation_rate == pytest.approx(0.5)
        assert r.lambda_l1 == pytest.approx(0.75)

    def test_thresholds_hold_at_feasible_parameters(self):
        # lemma conclusions verify empirically once the truncation level and
        # sample count are adequate (beta=2 removes the tangent-part bias)
        n, m = 20, 6000
        x0 = e1(n)
        for seed in range(20):
            e = sample_ensemble(n, m, seed=seed)
            Y, lam = build_certificate(e, CertificateParams(anchor=x0, beta=2.0))
            r = check_certificate(Y, lam, x0)
            assert r.all_pass


class TestLambdaL1:
    def test_bound_frequency(self):
        # the stability argument caps the weight vector's l1 norm at 5
        n = 20
        x0 = e1(n)
        count = 0
        for seed in range(100):
            e = sample_ensemble(n, 10 * n, seed=1000 + seed)
            _, lam = build_certificate(e, CertificateParams(anchor=x0, beta=1.0))
            count += np.abs(lam).sum() <= 5.0
        assert count >= 99


class TestColumnMoments:
    # closed forms for the moments of the untruncated tangent column
    # y = (3/(n+2) ||z||^2 - z1^2) z1 z, derived from the Gaussian moment
    # identities; Monte-Carlo within 4 SE, and the stated absolute caps
    @pytest.mark.parametrize("n", [10, 50])
    def test_first_entry_and_norm(self, n):
        nsamp = 200_000
        rng = np.random.default_rng(100 + n)
        Z = rng.standard_normal((nsamp, n))
        z1 = Z[:, 0]
        sq = np.sum(Z**2, axis=1)
        xi = 3.0 / (n + 2) * sq - z1**2
        y1_sq = (xi * z1**2) ** 2
        ynorm_sq = xi**2 * z1**2 * sq
        ey1 = 105 - 90 * (n + 6) / (n + 2) + 27 * (n + 4) * (n + 6) / (n + 2) ** 2
        eyn = 15 * (n + 6) - 9 * (n + 4) * (n + 6) / (n + 2)
        assert ey1 <= 44.0
        assert eyn <= 8 * n + 16
        se1 = y1_sq.std() / math.sqrt(nsamp)
        sen = ynorm_sq.std() / math.sqrt(nsamp)
        assert abs(y1_sq.mean() - ey1) <= 4 * se1
        assert abs(ynorm_sq.mean() - eyn) <= 4 * sen


class TestIsometryEstimate:
    def test_rank_one_ratio_near_one(self):
        # for X = x0 x0* the per-sample value is chi-square with mean 1
        n, m = 8, 10_000
        e = sample_ensemble(n, m, seed=3)
        x0 = e1(n)
        vals = np.abs(apply_lifted(e, np.outer(x0, x0)))
        se = vals.std() / math.sqrt(m)
        assert abs(vals.mean() - 1.0) <= 4 * se

    def test_identity_ratio_near_one(self):
        n, m = 8, 10_000
        e = sample_ensemble(n, m, seed=4)
        ratio = np.sum(np.abs(apply_lifted(e, np.eye(n)))) / m / n
        assert ratio == pytest.approx(1.0, abs=0.05)
