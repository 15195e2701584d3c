import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from _utils import (
    FIELDS,
    eig_loop_reference,
    gram_matrix,
    instances,
    lifted_matrix,
    rand_hermitian,
    rand_unit,
)
from phasefeas.linalg import COMPLEX, REAL, hermitize, hs_inner, schatten_norm
from phasefeas.projections import (
    GRAM_CUTOFF,
    build_affine_projector,
    leading_eigenvector,
    project_affine,
    project_psd,
    recovery_error,
    vector_error_up_to_phase,
)
from phasefeas.sensing import (
    MeasurementVector,
    SensingEnsemble,
    apply_lifted,
    measure,
    sample_ensemble,
)


def ensemble_from_rows(rows):
    return SensingEnsemble(vectors=np.asarray(rows, dtype=float))


def psd_phase_fixed_reference(X):
    """project_psd's rank-r rebuild from phase-fixed eigenvectors, as an oracle."""
    values, vectors = eig_loop_reference(X)
    r = int(np.count_nonzero(values > 0))
    V = vectors[:, :r]
    return hermitize((V * values[:r]) @ V.conj().T)


def solve_2x2_affine(e, b):
    # independent oracle for n=2, m=3: the affine system in the unknowns
    # (X11, X22, X12) is square; solve it directly
    Z = e.vectors
    A = np.column_stack([Z[:, 0] ** 2, Z[:, 1] ** 2, 2 * Z[:, 0] * Z[:, 1]])
    x11, x22, x12 = np.linalg.solve(A, b.values)
    return np.array([[x11, x12], [x12, x22]])


class TestBuildAffineProjector:
    def test_hand_gram(self):
        e = ensemble_from_rows([[1.0, 0.0], [1.0, 1.0]])
        p = build_affine_projector(e, MeasurementVector(values=np.zeros(2)))
        assert np.allclose(gram_matrix(e), [[1.0, 1.0], [1.0, 4.0]])

    def test_orthogonal_rows(self):
        e = ensemble_from_rows([[2.0, 0.0, 0.0], [0.0, 3.0, 0.0]])
        p = build_affine_projector(e, MeasurementVector(values=np.zeros(2)))
        assert np.allclose(gram_matrix(e), np.diag([16.0, 81.0]))

    @pytest.mark.parametrize("field", FIELDS)
    def test_gram_matches_hs_inner(self, field):
        e = sample_ensemble(4, 6, field, seed=1)
        p = build_affine_projector(e, MeasurementVector(values=np.zeros(6)))
        for i in range(6):
            for j in range(6):
                zi, zj = e.vectors[i], e.vectors[j]
                ref = hs_inner(np.outer(zi, zi.conj()), np.outer(zj, zj.conj()))
                assert abs(gram_matrix(e)[i, j] - ref) <= 1e-12 * max(1.0, abs(ref))

    def test_pinv_recovers_row_space(self):
        e = sample_ensemble(5, 8, REAL, seed=2)
        p = build_affine_projector(e, MeasurementVector(values=np.zeros(8)))
        rng = np.random.default_rng(2)
        y = gram_matrix(e) @ rng.standard_normal(8)  # in the row space by construction
        back = gram_matrix(e) @ (p.pinv @ y)
        assert np.linalg.norm(back - y) <= 1e-8 * max(1.0, np.linalg.norm(y))

    @pytest.mark.parametrize("m", [6, 12])
    def test_projector_keeps_only_the_dense_pinv(self, m):
        # real field, n = 3: m = 6 = n(n+1)/2 gives a full-rank G, m = 12
        # gives rank 6 < m; either way the one m x m matrix kept is G^+
        e = sample_ensemble(3, m, REAL, seed=m)
        p = build_affine_projector(e, MeasurementVector(values=np.zeros(m)))
        assert [f.name for f in dataclasses.fields(p)] == ["pinv", "rank", "cond", "b", "e"]
        assert p.pinv.shape == (m, m)
        assert p.rank == 6

    def test_nonfinite_rejected(self):
        e = ensemble_from_rows([[np.inf, 0.0]])
        with pytest.raises(ValueError, match="non-finite"):
            build_affine_projector(e, MeasurementVector(values=np.zeros(1)))


class TestProjectAffine:
    @pytest.mark.parametrize("field", FIELDS)
    def test_fixes_feasible_point(self, field):
        rng = np.random.default_rng(3)
        e = sample_ensemble(4, 5, field, seed=3)
        x0 = rand_unit(rng, 4, field)
        X0 = hermitize(np.outer(x0, x0.conj()))
        p = build_affine_projector(e, measure(e, x0))
        out = project_affine(p, e, X0)
        assert np.max(np.abs(out - X0)) <= 1e-10

    def test_idempotent(self):
        rng = np.random.default_rng(5)
        e = sample_ensemble(5, 8, REAL, seed=5)
        p = build_affine_projector(e, measure(e, rand_unit(rng, 5)))
        X = rand_hermitian(rng, 5)
        once = project_affine(p, e, X)
        twice = project_affine(p, e, once)
        assert np.max(np.abs(twice - once)) <= 1e-10 * max(1.0, np.max(np.abs(once)))

    def test_critically_determined_recovers_x0(self):
        # m = 3 = dim of symmetric 2x2 space: the affine set is a single
        # point, so projecting 0 must return X0; oracle is a direct solve
        rng = np.random.default_rng(7)
        for seed in range(5):
            e = sample_ensemble(2, 3, REAL, seed=100 + seed)
            x0 = rand_unit(rng, 2)
            X0 = np.outer(x0, x0)
            b = measure(e, x0)
            p = build_affine_projector(e, b)
            out = project_affine(p, e, np.zeros((2, 2)))
            oracle = solve_2x2_affine(e, b)
            assert np.max(np.abs(oracle - X0)) <= 1e-8
            assert np.max(np.abs(out - X0)) <= 1e-8

    def test_hs_nearest_point(self):
        # metric-projection property: X - P(X) is orthogonal to every
        # direction D with L(D) = 0, i.e. to differences of feasible points
        rng = np.random.default_rng(8)
        e = sample_ensemble(5, 9, REAL, seed=8)
        b = measure(e, rand_unit(rng, 5))
        p = build_affine_projector(e, b)
        X = rand_hermitian(rng, 5)
        out = project_affine(p, e, X)
        for _ in range(10):
            W1 = project_affine(p, e, rand_hermitian(rng, 5))
            W2 = project_affine(p, e, rand_hermitian(rng, 5))
            assert abs(hs_inner(X - out, W1 - W2)) <= 1e-9 * max(
                1.0, schatten_norm(X - out, 2) * schatten_norm(W1 - W2, 2))

    def test_residual_small_when_well_conditioned(self):
        rng = np.random.default_rng(9)
        e = sample_ensemble(6, 20, REAL, seed=9)
        b = measure(e, rand_unit(rng, 6))
        p = build_affine_projector(e, b)
        if p.cond < 1e10:
            out = project_affine(p, e, rand_hermitian(rng, 6))
            rel = np.linalg.norm(apply_lifted(e, out) - b.values) / np.linalg.norm(b.values)
            assert rel <= 1e-8


class TestProjectPsd:
    def test_diagonal_clamp(self):
        assert np.allclose(project_psd(np.diag([3.0, -2.0]))[0], np.diag([3.0, 0.0]))

    def test_psd_unchanged(self):
        # full rank keeps every eigenpair (r = n); its negation keeps none
        # (r = 0) and must come back as exact zeros
        rng = np.random.default_rng(11)
        B = rng.standard_normal((4, 4))
        X = B @ B.T
        assert np.max(np.abs(project_psd(X)[0] - X)) <= 1e-10 * schatten_norm(X, 2)
        assert np.array_equal(project_psd(-X)[0], np.zeros((4, 4)))
        C = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        Y = C @ C.conj().T
        assert np.max(np.abs(project_psd(Y)[0] - Y)) <= 1e-10 * schatten_norm(Y, 2)
        assert np.array_equal(project_psd(-Y)[0], np.zeros((4, 4)))

    @pytest.mark.parametrize("field", FIELDS)
    def test_output_psd(self, field):
        rng = np.random.default_rng(13)
        for _ in range(10):
            X = rand_hermitian(rng, 5, field, scale=2.0)
            out = project_psd(X)[0]
            lam_min = np.linalg.eigvalsh(out).min()
            assert lam_min >= -1e-10 * schatten_norm(X, np.inf)

    @pytest.mark.parametrize("n", [1, 2, 7, 50])
    def test_matches_phase_fixed_rebuild(self, n):
        # V diag(w) V* does not depend on column phases.  In the real field
        # project_psd forms W W^T with syrk, so it is bitwise symmetric and
        # agrees with the oracle to rounding; in the complex field to rounding
        rng = np.random.default_rng(47 + n)
        for _ in range(10):
            X = rand_hermitian(rng, n, REAL)
            out, ref = project_psd(X)[0], psd_phase_fixed_reference(X)
            assert np.array_equal(out, out.T)
            assert np.linalg.norm(out - ref) <= 1e-14 * np.linalg.norm(ref)
            X = rand_hermitian(rng, n, COMPLEX)
            ref = psd_phase_fixed_reference(X)
            assert np.linalg.norm(project_psd(X)[0] - ref) <= 1e-12 * np.linalg.norm(ref)

    @pytest.mark.parametrize("n", [1, 2, 7, 50])
    @pytest.mark.parametrize("field", FIELDS)
    def test_returns_its_square_root_factor(self, field, n):
        # P = W W*: bitwise in the real field (the same syrk product), to
        # rounding in the complex field (P is symmetrized); W has one column
        # per positive eigenvalue, for full-rank and rank-deficient inputs,
        # and -I gives an (n, 0) factor and exact zeros
        rng = np.random.default_rng(61 + n)
        B = rand_hermitian(rng, n, field)[:, : max(1, n // 3)]
        eye = np.eye(n, dtype=B.dtype)
        for X in (rand_hermitian(rng, n, field), B @ B.conj().T - 0.1 * eye, -eye):
            P, W = project_psd(X)
            assert W.shape == (n, np.count_nonzero(np.linalg.eigh(X)[0] > 0))
            assert W.dtype == P.dtype
            if field == REAL:
                assert np.array_equal(W @ W.conj().T, P)
            else:
                assert np.linalg.norm(W @ W.conj().T - P) <= 1e-14 * np.linalg.norm(P)

    def test_obtuseness(self):
        # variational characterization of the metric projection:
        # <X - P(X), Y - P(X)> <= 0 for every PSD Y
        rng = np.random.default_rng(17)
        X = rand_hermitian(rng, 5, scale=2.0)
        out = project_psd(X)[0]
        for _ in range(20):
            B = rng.standard_normal((5, 5))
            Y = B @ B.T
            assert hs_inner(X - out, Y - out) <= 1e-8


ORACLE = settings(max_examples=80, deadline=None, derandomize=True, database=None)


class TestKernelOracles:
    """The dense G^+ and the W W* rebuild against direct formulas."""

    @ORACLE
    @given(instances())
    def test_pinv_matches_numpy_pinv(self, instance):
        e, b = instance
        p = build_affine_projector(e, b)
        y = np.random.default_rng(e.m).standard_normal(e.m)
        ref_pinv = np.linalg.pinv(gram_matrix(e), rcond=GRAM_CUTOFF, hermitian=True)
        tol = 1e-12 * np.linalg.norm(ref_pinv) * np.linalg.norm(y)
        assert np.linalg.norm(p.pinv @ y - ref_pinv @ y) <= tol

    @ORACLE
    @given(instances(), st.integers(0, 2**32 - 1))
    def test_project_affine_matches_lstsq(self, instance, seed):
        # X minus the minimum-norm least-squares solution D of
        # A vec(D) = L(X) - b, where A is the explicit lifted matrix and its
        # singular values below sqrt(GRAM_CUTOFF) of the largest count as zero;
        # the error grows with cond(G)
        e, b = instance
        p = build_affine_projector(e, b)
        X = rand_hermitian(np.random.default_rng(seed), e.n, e.field)
        A = lifted_matrix(e)
        r = (A @ X.ravel()).real - b.values
        D = np.linalg.lstsq(A, r, rcond=math.sqrt(GRAM_CUTOFF))[0].reshape(e.n, e.n)
        scale = max(1.0, np.linalg.norm(X), np.linalg.norm(r))
        assert np.linalg.norm(project_affine(p, e, X) - (X - D)) <= 1e-13 * p.cond * scale

    @ORACLE
    @given(instances(), st.integers(0, 2**32 - 1), st.sampled_from([0.1, 1.0, 10.0]))
    def test_project_psd_is_bitwise_hermitian(self, instance, seed, scale):
        e, _ = instance
        X = rand_hermitian(np.random.default_rng(seed), e.n, e.field, scale=scale)
        out = project_psd(X)[0]
        if e.field == REAL:
            assert out.dtype == np.float64
            assert np.array_equal(out, out.T)
        else:
            assert np.array_equal(out, out.conj().T)


class TestNonexpansive:
    def test_both_projectors(self):
        rng = np.random.default_rng(19)
        e = sample_ensemble(5, 12, REAL, seed=19)
        p = build_affine_projector(e, measure(e, rand_unit(rng, 5)))
        for _ in range(50):
            X, Y = rand_hermitian(rng, 5), rand_hermitian(rng, 5)
            dxy = schatten_norm(X - Y, 2)
            assert schatten_norm(project_psd(X)[0] - project_psd(Y)[0], 2) <= dxy + 1e-8
            da = schatten_norm(project_affine(p, e, X) - project_affine(p, e, Y), 2)
            assert da <= dxy + 1e-8


class TestLeadingEigenvector:
    def test_rank_one(self):
        rng = np.random.default_rng(23)
        x0 = 2.5 * rand_unit(rng, 4)
        val, v, _ = leading_eigenvector(np.outer(x0, x0))
        assert val == pytest.approx(np.linalg.norm(x0) ** 2)
        assert vector_error_up_to_phase(v, x0 / np.linalg.norm(x0)) <= 1e-10

    def test_degenerate_identity(self):
        val1, v1, _ = leading_eigenvector(np.eye(3))
        val2, v2, _ = leading_eigenvector(np.eye(3))
        assert val1 == pytest.approx(1.0)
        assert np.array_equal(v1, v2)  # convention is deterministic

    def test_perturbation_alignment(self):
        # spectral perturbation of size 0.01 keeps the top eigenvector
        # within the Weyl-type bound |<v, x0>|^2 >= 1 - 4 (2*0.01)^2
        rng = np.random.default_rng(29)
        for _ in range(10):
            x0 = rand_unit(rng, 6)
            E = rand_hermitian(rng, 6)
            E *= 0.01 / schatten_norm(E, np.inf)
            _, v, _ = leading_eigenvector(np.outer(x0, x0) + E)
            assert abs(np.vdot(v, x0)) ** 2 >= 1 - 4 * (2 * 0.01) ** 2


class TestErrors:
    def test_recovery_error_cases(self):
        rng = np.random.default_rng(31)
        X0 = rand_hermitian(rng, 4)
        assert recovery_error(X0, X0) == 0.0
        assert recovery_error(np.zeros((4, 4)), X0) == pytest.approx(1.0)
        assert recovery_error(2 * X0, X0) == pytest.approx(1.0)
        with pytest.raises(ValueError, match="nonzero"):
            recovery_error(X0, np.zeros((4, 4)))

    def test_vector_error_global_sign(self):
        rng = np.random.default_rng(37)
        x0 = rand_unit(rng, 5)
        assert vector_error_up_to_phase(-x0, x0) <= 1e-12

    def test_vector_error_global_phase(self):
        rng = np.random.default_rng(41)
        x0 = rand_unit(rng, 5, COMPLEX)
        assert vector_error_up_to_phase(1j * x0, x0) <= 1e-12

    def test_vector_error_orthogonal(self):
        x = np.array([1.0, 0.0])
        x0 = np.array([0.0, 1.0])
        assert vector_error_up_to_phase(x, x0) == pytest.approx(np.sqrt(2.0))
