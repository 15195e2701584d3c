"""A stack of T problems of one n, shape (T, m, n), solved as one.

Every kernel on a stack must give, slice by slice, what it gives on that
slice alone; a problem with fewer rows is zero-padded, and a padded row must
add exact zeros; and a stacked solve must follow each slice's own solve.
"""

import dataclasses

import numpy as np
import pytest

from _utils import FIELDS, rand_hermitian, rand_square, rand_unit
from phasefeas.linalg import eig, hermitize, require_square
from phasefeas.projections import build_affine_projector, project_psd
from phasefeas.sensing import (
    MeasurementVector,
    SensingEnsemble,
    add_noise,
    apply_adjoint,
    apply_lifted,
    apply_lifted_factor,
    measure,
    sample_ensemble,
)
from phasefeas.solvers import SolverConfig, solve, solve_dr, solve_nesterov, solve_pocs

N = 4
MS = (9, 12, 16)   # the m of one stack, padded to 16 rows


def close(stacked, single, rtol=1e-13):
    assert stacked.shape == single.shape
    assert np.linalg.norm(stacked - single) <= rtol * max(np.linalg.norm(single), 1e-300)


def problems(field, ms=MS, n=N, seed=0):
    """Per slice (x0, e, b), each with its own m, noisy measurements."""
    rng = np.random.default_rng(seed)
    out = []
    for k, m in enumerate(ms):
        x0 = rand_unit(rng, n, field)
        e = sample_ensemble(n, m, field, seed=seed + k)
        out.append((x0, e, add_noise(measure(e, x0), 0.1, 1.0, seed=seed + 100 + k)))
    return out


def padded(rows, M):
    return np.pad(rows, [(0, M - rows.shape[0])] + [(0, 0)] * (rows.ndim - 1))


def stack_problems(probs):
    """The zero-padded stack: ensemble, measurements and DR/POCS projector."""
    M = max(e.m for _, e, _ in probs)
    e = SensingEnsemble(vectors=np.stack([padded(e.vectors, M) for _, e, _ in probs]))
    b = MeasurementVector(values=np.stack([padded(b.values, M) for _, _, b in probs]))
    return e, b, build_affine_projector(e, b)


@pytest.mark.parametrize("field", FIELDS)
class TestKernels:
    def test_lift_adjoint_and_factor_lift_per_slice(self, field):
        rng = np.random.default_rng(1)
        m = 11
        es = [sample_ensemble(N, m, field, seed=k) for k in range(3)]
        e = SensingEnsemble(vectors=np.stack([x.vectors for x in es]))
        X = np.stack([rand_hermitian(rng, N, field) for _ in es])
        lam = rng.standard_normal((3, m))
        W = np.stack([rand_square(rng, N, field)[:, :2] for _ in es])
        assert e.n == N and e.m == m
        for k, e_k in enumerate(es):
            close(apply_lifted(e, X)[k], apply_lifted(e_k, X[k]))
            close(apply_adjoint(e, lam)[k], apply_adjoint(e_k, lam[k]))
            close(apply_lifted_factor(e, W)[k], apply_lifted_factor(e_k, W[k]))

    def test_eig_psd_and_hermitize_per_slice(self, field):
        rng = np.random.default_rng(2)
        # slices of rank 4, 2 and 0: W has 4 columns, zero where a slice has fewer
        X = np.stack([rand_hermitian(rng, N, field) + 10 * np.eye(N),
                      rand_hermitian(rng, N, field),
                      -rand_hermitian(rng, N, field) @ rand_hermitian(rng, N, field).conj().T
                      - np.eye(N)])
        S = np.stack([rand_square(rng, N, field) for _ in range(3)])
        assert require_square(X).shape == X.shape
        with pytest.raises(ValueError, match="dimension mismatch"):
            require_square(X[..., :2])
        values, vectors = eig(X)
        P, W = project_psd(X)
        ranks = [project_psd(x)[1].shape[1] for x in X]
        assert W.shape == (3, N, max(ranks))
        for k in range(3):
            v_k, V_k = eig(X[k])
            assert np.array_equal(values[k], v_k) and np.array_equal(vectors[k], V_k)
            P_k, W_k = project_psd(X[k])
            close(P[k], P_k)
            close(W[k][:, :ranks[k]], W_k)
            assert np.all(W[k][:, ranks[k]:] == 0)
            assert np.array_equal(hermitize(S)[k], hermitize(S[k]))

    def test_padded_rows_add_exact_zeros(self, field):
        rng = np.random.default_rng(3)
        (_, e1, b1), = problems(field, ms=(9,), seed=3)
        M = 16
        e = SensingEnsemble(vectors=padded(e1.vectors, M)[None])
        X = rand_hermitian(rng, N, field)[None]
        W = rand_square(rng, N, field)[None, :, :3]
        # the lifts of padded rows are exactly zero and the real rows unchanged
        for got, ref in ((apply_lifted(e, X)[0], apply_lifted(e1, X[0])),
                         (apply_lifted_factor(e, W)[0], apply_lifted_factor(e1, W[0]))):
            assert np.all(got[9:] == 0)
            close(got[:9], ref)
        # weights on padded rows contribute exactly zero to the adjoint
        lam = np.zeros((1, M))
        lam[0, 9:] = rng.standard_normal(M - 9)
        assert np.all(apply_adjoint(e, lam) == 0)
        # a padded G^+ maps padded residual rows to exactly zero in q, and
        # leaves zero in q's padded rows
        pinv = np.pad(build_affine_projector(e1, b1).pinv, (0, M - 9))[None]
        r = np.zeros((1, M))
        r[0, 9:] = rng.standard_normal(M - 9)
        assert np.all((pinv @ r[..., None])[..., 0] == 0)
        r[0, :9] = rng.standard_normal(9)
        q = (pinv @ r[..., None])[..., 0]
        assert np.all(q[0, 9:] == 0)
        close(q[0, :9], build_affine_projector(e1, b1).pinv @ r[0, :9])


def agree(stacked, single):
    """Within 1e-12 + 1e-8 |v|, entry by entry."""
    stacked, single = np.asarray(stacked), np.asarray(single)
    assert stacked.shape == single.shape
    assert np.all(np.abs(stacked - single) <= 1e-12 + 1e-8 * np.abs(single))


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("method", ["dr", "pocs", "nesterov"])
def test_stacked_solve_follows_each_slice(method, field):
    probs = problems(field, seed=5)
    e, b, p = stack_problems(probs)
    X0 = np.stack([np.outer(x0, x0.conj()) for x0, _, _ in probs])
    cfg = SolverConfig(method=method, max_iters=60, record_every=7, alpha=1e-3)

    def run(p, e, b, X0):
        if method == "nesterov":
            return solve_nesterov(e, b, cfg, X0_true=X0)
        return (solve_dr if method == "dr" else solve_pocs)(p, e, cfg, X0_true=X0)

    t = run(p, e, b, X0)
    assert t.final_X.shape == (len(MS), N, N)
    assert t.points[-1].iteration == cfg.max_iters
    for k, (_, e_k, b_k) in enumerate(probs):
        alone = run(build_affine_projector(e_k, b_k), e_k, b_k, X0[k])
        agree(t.final_X[k], alone.final_X)
        assert [pt.iteration for pt in t.points] == [pt.iteration for pt in alone.points]
        for pt, ref in zip(t.points, alone.points):
            agree([pt.recovery_error[k], pt.residual[k], pt.trace_value[k]],
                  [ref.recovery_error, ref.residual, ref.trace_value])


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("method", ["dr", "pocs", "nesterov"])
def test_stack_of_one_is_the_lone_solve_bit_for_bit(method, field):
    # the grid runs a lone trial as a (1, m, n) stack
    (x0, e, b), = problems(field, ms=(12,), seed=9)
    X0 = np.outer(x0, x0.conj())
    cfg = SolverConfig(method=method, max_iters=60, record_every=7, alpha=1e-3)
    alone = solve(e, b, cfg, X0_true=X0)
    t = solve(SensingEnsemble(vectors=e.vectors[None]), MeasurementVector(values=b.values[None]),
              cfg, X0_true=X0[None])
    assert np.array_equal(t.final_X, alone.final_X[None])
    assert len(t.points) == len(alone.points)
    for pt, ref in zip(t.points, alone.points):
        assert pt.iteration == ref.iteration
        assert pt.recovery_error == [ref.recovery_error]
        assert pt.residual == [ref.residual]
        assert pt.trace_value == [ref.trace_value]


@pytest.mark.parametrize("field", FIELDS)
def test_stacked_projector_is_each_slices_own(field):
    # n = 4: G has rank at most 10 in the real field and 16 in the complex
    # one, so the slice of m = 20 is rank-deficient in both; the first
    # slice's frame is 1e3 times larger, so its G is 1e12 times larger, and
    # each slice must keep its own cutoff
    ms = (9, 12, 20)
    probs = problems(field, ms=ms, seed=7)
    x0, e0, b0 = probs[0]
    probs[0] = (x0, SensingEnsemble(vectors=1e3 * e0.vectors),
                MeasurementVector(values=1e12 * b0.values))
    _, _, p = stack_problems(probs)
    assert p.pinv.shape == (len(ms), 20, 20)
    assert p.rank.shape == p.cond.shape == (len(ms),)
    assert p.rank[-1] < 20
    for k, (_, e_k, b_k) in enumerate(probs):
        alone = build_affine_projector(e_k, b_k)
        m = e_k.m
        close(p.pinv[k, :m, :m], alone.pinv, rtol=1e-13 * alone.cond)
        assert np.all(p.pinv[k, m:] == 0) and np.all(p.pinv[k, :, m:] == 0)
        assert p.rank[k] == alone.rank
        assert abs(p.cond[k] - alone.cond) <= 1e-8 * alone.cond


def test_one_non_finite_slice_fails_the_stack():
    # a batched eigh rejects the whole stack when one slice turns non-finite
    probs = problems("real", seed=6)
    e, b, p = stack_problems(probs)
    pinv = p.pinv.copy()
    pinv[1, 0, 0] = np.nan
    bad = dataclasses.replace(p, pinv=pinv)
    with pytest.raises(RuntimeError, match="iteration 1: non-finite input"):
        solve_dr(bad, e, SolverConfig(max_iters=5))
