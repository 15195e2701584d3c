import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from _utils import (
    FIELDS,
    gram_matrix,
    instances,
    least_squares_point,
    rand_hermitian,
    rand_square,
    rand_unit,
    rand_vector,
    textbook_dr,
)
from phasefeas import projections, solvers
from phasefeas.harness import run_trial
from phasefeas.linalg import dtype_for, hermitian_dim, hermitize
from phasefeas.projections import (
    build_affine_projector,
    leading_eigenvector,
    project_affine,
    project_psd,
    vector_error_up_to_phase,
)
from phasefeas.sensing import (
    MeasurementVector,
    SensingEnsemble,
    add_noise,
    apply_adjoint,
    apply_lifted,
    derive_seed,
    measure,
    sample_ensemble,
)
from phasefeas.solvers import (
    SolverConfig,
    SolverTrace,
    TracePoint,
    round_to_vector,
    solve,
    solve_dr,
    solve_nesterov,
    solve_pocs,
    write_trace_csv,
)


def setup_instance(n, m, seed, eps=0.0):
    """Unit-sphere signal, fresh ensemble, optionally noisy measurements."""
    rng = np.random.default_rng(derive_seed(seed, 0))
    x0 = rng.standard_normal(n)
    x0 /= np.linalg.norm(x0)
    e = sample_ensemble(n, m, seed=derive_seed(seed, 1))
    b = add_noise(measure(e, x0), eps, 1.0, seed=derive_seed(seed, 2))
    return e, b, np.outer(x0, x0)


def log_error_slope(errors, start, stop):
    ks = np.arange(start, stop + 1)
    ys = np.log10(np.maximum([errors[k] for k in ks], 1e-300))
    A = np.vstack([ks, np.ones_like(ks)]).T
    return float(np.linalg.lstsq(A, ys, rcond=None)[0][0])


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(method="gauss")
        with pytest.raises(ValueError):
            SolverConfig(max_iters=0)
        with pytest.raises(ValueError):
            SolverConfig(method="nesterov", alpha=0.0)
        with pytest.raises(ValueError):
            SolverConfig(lambda_trace=-1.0)

    @pytest.mark.parametrize("kwargs", [
        {"alpha": math.nan},
        {"method": "nesterov", "alpha": math.nan},
        {"method": "nesterov", "alpha": math.inf},
        {"lambda_trace": math.nan},
        {"method": "nesterov", "lambda_trace": math.inf},
    ], ids=lambda kw: "-".join(f"{k}={v}" for k, v in kw.items()))
    def test_bad_numbers_rejected(self, kwargs):
        with pytest.raises(ValueError, match="alpha|lambda_trace"):
            SolverConfig(**kwargs)

    @pytest.mark.parametrize("kwargs, name", [
        ({"max_iters": 10, "record_every": 2.5}, "record_every"),
        ({"max_iters": 10.0}, "max_iters"),
        ({"max_iters": np.float64(10)}, "max_iters"),
        ({"record_every": 1.0}, "record_every"),
    ], ids=["record_every=2.5", "max_iters=10.0", "max_iters=float64", "record_every=1.0"])
    def test_non_integer_counts_rejected(self, kwargs, name):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            SolverConfig(**kwargs)

    def test_numpy_integer_counts_accepted(self):
        cfg = SolverConfig(max_iters=np.int64(10), record_every=np.int32(5))
        assert (cfg.max_iters, cfg.record_every) == (10, 5)


class TestDouglasRachford:
    def test_critically_determined_recovery(self):
        # m = 3 = dim of the 2x2 symmetric space: the feasible set is {X0}
        for seed in range(10):
            e, b, X0 = setup_instance(2, 3, seed)
            p = build_affine_projector(e, b)
            t = solve_dr(p, e, SolverConfig(max_iters=1000, record_every=1000), X0_true=X0)
            assert t.points[-1].recovery_error <= 1e-6

    def test_zero_measurements_fixed_point(self):
        e, _, _ = setup_instance(4, 10, 1)
        b = measure(e, np.zeros(4))
        p = build_affine_projector(e, b)
        t = solve_dr(p, e, SolverConfig(max_iters=20), X0_true=None)
        assert np.all(t.final_X == 0.0)
        assert all(pt.residual == 0.0 for pt in t.points)

    def test_no_ground_truth_records_nan(self):
        e, b, _ = setup_instance(3, 12, 2)
        p = build_affine_projector(e, b)
        t = solve_dr(p, e, SolverConfig(max_iters=5))
        assert all(math.isnan(pt.recovery_error) for pt in t.points)
        assert all(math.isfinite(pt.residual) for pt in t.points)

    def test_method_mismatch(self):
        e, b, _ = setup_instance(3, 12, 2)
        p = build_affine_projector(e, b)
        with pytest.raises(ValueError, match="expected 'dr'"):
            solve_dr(p, e, SolverConfig(method="pocs"))

    def test_nonfinite_warm_start_rejected(self):
        e, b, _ = setup_instance(3, 12, 2)
        p = build_affine_projector(e, b)
        with pytest.raises(ValueError, match="non-finite warm start"):
            solve_dr(p, e, SolverConfig(max_iters=5), X_start=np.full((3, 3), np.inf))

    def test_inloop_failure_carries_iteration(self):
        # a finite but astronomically scaled warm start overflows while the
        # run is measured; the error names the iteration it happened at
        e, b, _ = setup_instance(3, 12, 2)
        p = build_affine_projector(e, b)
        with pytest.raises(RuntimeError, match=r"iteration \d+"):
            solve_dr(p, e, SolverConfig(max_iters=5), X_start=1e300 * np.eye(3))

    def test_determinacy_from_random_starts(self):
        # the feasibility problem has a unique solution: warm starts agree
        for seed in range(10):
            e, b, X0 = setup_instance(3, 40, seed)
            p = build_affine_projector(e, b)
            rng = np.random.default_rng(derive_seed(seed, 7))
            cfg = SolverConfig(max_iters=1000, record_every=1000)
            t1 = solve_dr(p, e, cfg, X_start=hermitize(rng.standard_normal((3, 3))))
            t2 = solve_dr(p, e, cfg, X_start=hermitize(rng.standard_normal((3, 3))) + np.eye(3))
            assert np.linalg.norm(t1.final_X - t2.final_X) <= 1e-6

    def test_noisy_saturation(self):
        # min error over the run stays within a factor 10 of the noise level
        e, b, X0 = setup_instance(10, 60, 1, eps=0.1)
        p = build_affine_projector(e, b)
        t = solve_dr(p, e, SolverConfig(max_iters=1000, record_every=1), X0_true=X0)
        best = min(pt.recovery_error for pt in t.points if pt.iteration > 0)
        assert 0.01 <= best <= 1.0

    @pytest.mark.xfail(
        strict=True,
        reason="at (n=10, m=60) the affine set is the single point X0 because "
        "m >= n(n+1)/2 = 55, so DR converges at iteration 1 and stops there: "
        "the trace holds iterations 0 and 1 only, and has no 100-600 window",
    )
    def test_log_slope_window_at_spec_point(self):
        e, b, X0 = setup_instance(10, 60, 1)
        p = build_affine_projector(e, b)
        t = solve_dr(p, e, SolverConfig(max_iters=1000, record_every=1), X0_true=X0)
        errors = [pt.recovery_error for pt in t.points]
        assert log_error_slope(errors, 100, 600) <= -0.002

    def test_log_slope_window_underdetermined(self):
        # the linear log-scale decay lives below the critical m = n(n+1)/2
        e, b, X0 = setup_instance(10, 40, 1)
        p = build_affine_projector(e, b)
        t = solve_dr(p, e, SolverConfig(max_iters=1000, record_every=1), X0_true=X0)
        errors = [pt.recovery_error for pt in t.points]
        assert log_error_slope(errors, 100, 600) <= -0.002


class TestPocs:
    def test_feasible_start_is_fixed(self):
        rng = np.random.default_rng(3)
        x0 = rng.standard_normal(4)
        x0 /= np.linalg.norm(x0)
        e = sample_ensemble(4, 8, seed=3)
        b = measure(e, x0)
        p = build_affine_projector(e, b)
        X0 = np.outer(x0, x0)
        t = solve_pocs(p, e, SolverConfig(method="pocs", max_iters=50), X_start=X0)
        assert np.max(np.abs(t.final_X - X0)) <= 1e-10

    def test_critically_determined_recovery(self):
        e, b, X0 = setup_instance(2, 3, 4)
        p = build_affine_projector(e, b)
        t = solve_pocs(p, e, SolverConfig(method="pocs", max_iters=5000, record_every=5000), X0_true=X0)
        assert t.points[-1].recovery_error <= 1e-4

    def test_fejer_monotone(self):
        # distances to the unique solution are non-increasing; X* comes from
        # a long DR run on the same underdetermined instance
        e, b, X0 = setup_instance(6, 20, 3)
        p = build_affine_projector(e, b)
        ref = solve_dr(p, e, SolverConfig(max_iters=2000, record_every=2000))
        X_star = ref.final_X
        dists = []
        for k in range(1, 31):
            t = solve_pocs(p, e, SolverConfig(method="pocs", max_iters=k, record_every=k))
            dists.append(np.linalg.norm(t.final_X - X_star))
        for a, bb in zip(dists, dists[1:]):
            assert bb <= a + 1e-9

    def test_shares_fixed_points_with_dr(self):
        e, b, X0 = setup_instance(6, 20, 3)
        p = build_affine_projector(e, b)
        X_star = solve_dr(p, e, SolverConfig(max_iters=2000, record_every=2000)).final_X
        assert np.linalg.norm(project_affine(p, e, X_star) - X_star) < 1e-10
        assert np.linalg.norm(project_psd(X_star)[0] - X_star) < 1e-10
        pocs_step = project_psd(project_affine(p, e, X_star))[0]
        assert np.linalg.norm(pocs_step - X_star) <= 1e-9
        dr_t = solve_dr(p, e, SolverConfig(max_iters=1), X_start=X_star)
        assert np.linalg.norm(dr_t.final_X - X_star) <= 1e-9


class TestNesterov:
    def test_zero_data_fixed_point(self):
        e, _, _ = setup_instance(4, 10, 5)
        b = measure(e, np.zeros(4))
        cfg = SolverConfig(method="nesterov", max_iters=20, alpha=1e-4)
        t = solve_nesterov(e, b, cfg)
        assert np.all(t.final_X == 0.0)

    def test_theta_recurrence(self):
        # closed-form oracle: theta_1 = 2/(1+sqrt(5)), then iterate once more
        t1 = 2.0 / (1.0 + math.sqrt(5.0))
        t2 = 2.0 / (1.0 + math.sqrt(1.0 + 4.0 / t1**2))
        theta1 = solvers._next_theta(1.0)
        theta2 = solvers._next_theta(theta1)
        assert theta1 == pytest.approx(t1, abs=1e-15)
        assert theta1 == pytest.approx(0.6180339887, abs=1e-9)
        assert theta2 == pytest.approx(t2, abs=1e-15)
        assert theta2 == pytest.approx(0.4558867801, abs=1e-9)

    def test_trace_penalty_plateaus(self):
        # nonzero trace penalty shifts the minimizer away from X0
        e, b, X0 = setup_instance(10, 60, 1)
        cfg = SolverConfig(method="nesterov", max_iters=1000, alpha=1e-4,
                           lambda_trace=1e-5, record_every=1000)
        t = solve_nesterov(e, b, cfg, X0_true=X0)
        assert t.points[-1].recovery_error > 1e-6

    def test_agrees_with_dr_on_exact_data(self):
        e, b, X0 = setup_instance(10, 60, 1)
        p = build_affine_projector(e, b)
        dr = solve_dr(p, e, SolverConfig(max_iters=1000, record_every=1000), X0_true=X0)
        nest = solve_nesterov(
            e, b, SolverConfig(method="nesterov", max_iters=1000, alpha=1e-4, record_every=1000),
            X0_true=X0)
        assert np.linalg.norm(dr.final_X - nest.final_X) <= 1e-4

    def test_divergence_guard(self):
        e, b, X0 = setup_instance(10, 60, 2)
        cfg = SolverConfig(method="nesterov", max_iters=500, alpha=1.0)
        with pytest.raises(RuntimeError, match="step size too large"):
            solve_nesterov(e, b, cfg)

    def test_divergence_guard_between_records(self):
        # The iterate passes the limit mid-run, and the PSD clamp brings it
        # back to X = 0 by the only recorded iteration, where the error would
        # read 1.0; the guard must check every step, not only recorded ones.
        # Row (4, 12, 0) of `grid --solver nesterov --alpha 0.05 --n 2:10:2
        # --m 6:40:6 --trials 2 --iters 300 --seed 3`.
        cfg = SolverConfig(method="nesterov", max_iters=300, alpha=0.05, record_every=300)
        row = run_trial(4, 12, 0.1, cfg, seed=7135772516339100961)
        assert math.isnan(row.recovery_error) and math.isnan(row.residual)


class TestIteratesStayPsd:
    @pytest.mark.parametrize("iters", [1, 3, 10])
    def test_all_methods(self, iters):
        e, b, X0 = setup_instance(5, 12, 6, eps=0.05)
        p = build_affine_projector(e, b)
        finals = [
            solve_dr(p, e, SolverConfig(max_iters=iters)).final_X,
            solve_pocs(p, e, SolverConfig(method="pocs", max_iters=iters)).final_X,
            solve_nesterov(e, b, SolverConfig(method="nesterov", max_iters=iters, alpha=1e-4)).final_X,
        ]
        for X in finals:
            lam_min = np.linalg.eigvalsh(X).min()
            assert lam_min >= -1e-8 * max(1.0, np.abs(np.linalg.eigvalsh(X)).max())


class TestRoundToVector:
    def test_rank_one(self):
        rng = np.random.default_rng(7)
        x0 = rng.standard_normal(5)
        x0 /= np.linalg.norm(x0)
        e, b, X0 = setup_instance(5, 15, 7)
        t = solve_dr(build_affine_projector(e, b), e, SolverConfig(max_iters=1))
        t.final_X = np.outer(x0, x0)
        x, gap = round_to_vector(t)
        assert vector_error_up_to_phase(x, x0) <= 1e-10
        assert gap == pytest.approx(1.0)

    def test_degenerate_gap(self):
        e, b, _ = setup_instance(3, 9, 8)
        t = solve_dr(build_affine_projector(e, b), e, SolverConfig(max_iters=1))
        t.final_X = np.eye(3)
        _, gap = round_to_vector(t)
        assert gap == pytest.approx(0.0)

    def test_no_positive_component(self):
        e, b, _ = setup_instance(3, 9, 8)
        t = solve_dr(build_affine_projector(e, b), e, SolverConfig(max_iters=1))
        t.final_X = -np.eye(3)
        with pytest.raises(RuntimeError, match="no positive component"):
            round_to_vector(t)

    def test_stacked_trace_rejected(self):
        t = SolverTrace(points=[], final_X=np.stack([np.eye(3), 2 * np.eye(3)]))
        with pytest.raises(ValueError, match="dimension mismatch"):
            round_to_vector(t)

    def test_noisy_vector_error_constant(self):
        # empirical stability constant for the rounded vector; the theory
        # gives some C, the observed value stays below 8
        eps = 0.1
        for seed in range(10):
            e, b, X0 = setup_instance(10, 100, 20 + seed, eps=eps)
            p = build_affine_projector(e, b)
            t = solve_dr(p, e, SolverConfig(max_iters=1000, record_every=1000), X0_true=X0)
            x, _ = round_to_vector(t)
            x0 = np.linalg.eigh(X0)[1][:, -1]
            assert vector_error_up_to_phase(x, x0) <= 8 * eps


class TestTraceExport:
    def test_csv_format(self, tmp_path):
        e, b, X0 = setup_instance(3, 9, 9)
        p = build_affine_projector(e, b)
        t = solve_dr(p, e, SolverConfig(max_iters=4, record_every=2), X0_true=X0)
        path = tmp_path / "trace.csv"
        write_trace_csv(t, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "iter,recovery_error,residual,trace_value"
        assert len(lines) == 1 + len(t.points)
        first = lines[1].split(",")
        assert int(first[0]) == 0
        # shortest round-trip floats parse back exactly
        assert float(first[2]) == t.points[0].residual

    def test_numpy_record_values_write_python_bytes(self, tmp_path):
        # records may hold numpy scalars; each cell is the Python value's
        values = [(0, 1.0, 0.5, 2.0), (7, math.nan, 0.1 + 0.2, -0.0)]
        paths = []
        for kind, it, real in (("py", int, float), ("np", np.int64, np.float64)):
            points = [TracePoint(it(k), *map(real, rest)) for k, *rest in values]
            paths.append(tmp_path / f"{kind}.csv")
            write_trace_csv(SolverTrace(points=points, final_X=np.zeros((2, 2))), paths[-1])
        assert paths[0].read_bytes() == paths[1].read_bytes()
        assert paths[1].read_bytes() == (b"iter,recovery_error,residual,trace_value\n"
                                         b"0,1.0,0.5,2.0\n7,nan,0.30000000000000004,-0.0\n")

    def test_stacked_trace_rejected(self, tmp_path):
        # a stacked record holds one value per slice, which has no CSV row
        probs = [setup_instance(3, 9, seed) for seed in (9, 10)]
        e = SensingEnsemble(vectors=np.stack([e.vectors for e, _, _ in probs]))
        b = MeasurementVector(values=np.stack([b.values for _, b, _ in probs]))
        t = solve(e, b, SolverConfig(max_iters=4, record_every=2))
        path = tmp_path / "trace.csv"
        with pytest.raises(ValueError, match="dimension mismatch"):
            write_trace_csv(t, path)
        assert not path.exists()

    @pytest.mark.parametrize("method", ["dr", "pocs", "nesterov"])
    def test_iterations_strictly_increasing(self, method):
        # m = 9 >= d = 6: G has full rank, so DR from X = 0 stops at iteration 1
        e, b, X0 = setup_instance(3, 9, 9)
        t = solve(e, b, SolverConfig(method=method, max_iters=10, record_every=3), X0_true=X0)
        its = [pt.iteration for pt in t.points]
        assert its == sorted(set(its))
        assert its == ([0, 1] if method == "dr" else [0, 3, 6, 9, 10])


class TestMeasurementCheck:
    """Every solver rejects measurements that are not one per sensing vector."""

    @pytest.mark.parametrize("length", [1, 11, 13])
    @pytest.mark.parametrize("method", ["dr", "pocs", "nesterov"])
    def test_wrong_length_b(self, method, length):
        e, b, _ = setup_instance(3, 12, 2)
        bad = MeasurementVector(values=np.resize(b.values, length))
        cfg = SolverConfig(method=method, max_iters=5, alpha=1e-3)
        with pytest.raises(ValueError, match="dimension mismatch"):
            solve(e, bad, cfg)

    @pytest.mark.parametrize("X_start", [None, np.eye(3)], ids=["cold", "warm"])
    @pytest.mark.parametrize("method", ["dr", "pocs"])
    def test_projector_from_another_ensemble(self, method, X_start):
        # a projector built on m = 12 vectors, handed an ensemble of 10:
        # rejected before the warm start is projected or a step is taken
        e, b, _ = setup_instance(3, 12, 2)
        p = build_affine_projector(e, b)
        other = SensingEnsemble(vectors=e.vectors[:10])
        method_fn = solve_dr if method == "dr" else solve_pocs
        with pytest.raises(ValueError, match="dimension mismatch"):
            method_fn(p, other, SolverConfig(method=method, max_iters=5), X_start=X_start)

    def test_projector_from_an_ensemble_of_the_same_shape(self):
        # the G^+ of the seed-1 frame, iterated on the seed-2 ensemble,
        # overflows after some 70 DR steps: it is refused before the first,
        # and the ensemble it was factored from, or an equal copy, still solves
        rng = np.random.default_rng(1)
        e1, e2 = sample_ensemble(4, 12, seed=1), sample_ensemble(4, 12, seed=2)
        p = build_affine_projector(e1, measure(e1, rand_unit(rng, 4)))
        cfg = SolverConfig(max_iters=100)
        for call in (lambda: solve_dr(p, e2, cfg),
                     lambda: solve_pocs(p, e2, SolverConfig(method="pocs", max_iters=100)),
                     lambda: project_affine(p, e2, np.eye(4))):
            with pytest.raises(ValueError, match="dimension mismatch"):
                call()
        for e in (e1, SensingEnsemble(vectors=e1.vectors.copy())):
            assert solve_dr(p, e, cfg).final_residual < 1e-10


class TestSolveDispatch:
    @pytest.mark.parametrize("method", ["dr", "pocs", "nesterov"])
    def test_matches_direct_call(self, method):
        e, b, X0 = setup_instance(4, 10, 11, eps=0.05)
        cfg = SolverConfig(method=method, max_iters=30, record_every=4, alpha=1e-3)
        if method == "nesterov":
            direct = solve_nesterov(e, b, cfg, X0_true=X0)
        else:
            p = build_affine_projector(e, b)
            direct = (solve_dr if method == "dr" else solve_pocs)(p, e, cfg, X0_true=X0)
        t = solve(e, b, cfg, X0_true=X0)
        assert t.points == direct.points
        assert np.array_equal(t.final_X, direct.final_X)


class TestCallStructure:
    """The call counts that the traced benchmark run checks as identities."""

    @pytest.fixture
    def counts(self, monkeypatch):
        counts = {"eig": 0, "eigh": 0, "project_psd": []}
        eig, eigh, project_psd = projections.eig, np.linalg.eigh, solvers.project_psd

        def counted_eig(X):
            counts["eig"] += 1
            return eig(X)

        def counted_eigh(X, *args, **kwargs):
            counts["eigh"] += 1
            return eigh(X, *args, **kwargs)

        def counted_project_psd(X):
            before = counts["eig"], counts["eigh"]
            out = project_psd(X)
            counts["project_psd"].append((counts["eig"] - before[0], counts["eigh"] - before[1]))
            return out

        monkeypatch.setattr(projections, "eig", counted_eig)
        monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
        monkeypatch.setattr(solvers, "project_psd", counted_project_psd)
        return counts

    def test_affine_projector_is_one_eigh(self, counts):
        e, b, _ = setup_instance(5, 12, 8)
        build_affine_projector(e, b)
        assert (counts["eig"], counts["eigh"]) == (0, 1)

    @pytest.mark.parametrize("iters", [1, 7])
    @pytest.mark.parametrize("field", FIELDS)
    @pytest.mark.parametrize("method", ["dr", "pocs", "nesterov"])
    def test_step_is_one_psd_projection(self, counts, method, field, iters):
        # per step one project_psd, one eig and one eigh; DR and POCS add
        # the one eigh of the affine projector they build
        rng = np.random.default_rng(8)
        e = sample_ensemble(5, 12, field, seed=8)
        b = measure(e, rand_unit(rng, 5, field))
        solve(e, b, SolverConfig(method=method, max_iters=iters, record_every=iters, alpha=1e-3))
        assert counts["project_psd"] == [(1, 1)] * iters
        assert counts["eig"] == iters
        assert counts["eigh"] == iters + (method != "nesterov")

    @pytest.mark.parametrize("record_every", [1, 100])
    @pytest.mark.parametrize("method", ["dr", "pocs", "nesterov"])
    def test_one_lift_per_step(self, monkeypatch, method, record_every):
        # each step lifts its new iterate once, for the trace and the next
        # step alike: DR and Nesterov through the PSD factor, POCS dense.
        # The one dense call on top is the lift of the starting point.
        # Counted in every namespace a solver step could lift through.
        calls = {"apply_lifted": 0, "apply_lifted_factor": 0}

        def counting(name, fn):
            def counted(e, X):
                calls[name] += 1
                return fn(e, X)
            return counted

        for name in calls:
            wrapped = counting(name, getattr(solvers, name))
            for module in (solvers, projections):
                monkeypatch.setattr(module, name, wrapped, raising=False)
        e, b, _ = setup_instance(5, 12, 8, eps=0.05)
        cfg = SolverConfig(method=method, max_iters=100, alpha=1e-3,
                           record_every=record_every)
        t = solve(e, b, cfg)
        assert len(t.points) == (101 if record_every == 1 else 2)
        if method == "pocs":
            assert calls == {"apply_lifted": 101, "apply_lifted_factor": 0}
        else:
            assert calls == {"apply_lifted": 1, "apply_lifted_factor": 100}

    def test_dr_warm_start_is_lifted_through_its_factor(self, monkeypatch):
        # the warm start adds one factor lift for its projection; the dense
        # lift is of the unprojected start, L(Y_0)
        calls = []
        apply_lifted_factor = solvers.apply_lifted_factor

        def counted(e, W):
            calls.append(1)
            return apply_lifted_factor(e, W)

        monkeypatch.setattr(solvers, "apply_lifted_factor", counted)
        e, b, X0 = setup_instance(5, 12, 8)
        p = build_affine_projector(e, b)
        solve_dr(p, e, SolverConfig(max_iters=3), X_start=X0)
        assert len(calls) == 4

    def test_leading_eigenvector_is_one_eig(self, counts):
        rng = np.random.default_rng(9)
        leading_eigenvector(rand_hermitian(rng, 5))
        assert (counts["eig"], counts["eigh"]) == (1, 1)

    def test_round_to_vector_is_one_eig(self, counts, monkeypatch):
        # lambda_2 for the gap comes from the same factorization as the vector
        def no_eigvalsh(*args, **kwargs):
            raise AssertionError("a second factorization")

        monkeypatch.setattr(np.linalg, "eigvalsh", no_eigvalsh)
        rng = np.random.default_rng(10)
        t = SolverTrace(points=[], final_X=rand_hermitian(rng, 5) + 5 * np.eye(5))
        _, gap = round_to_vector(t)
        assert (counts["eig"], counts["eigh"]) == (1, 1)
        values = np.linalg.eigh(t.final_X)[0]
        assert gap == values[-1] - values[-2]


class TestRecordOracle:
    """The last record of every solver against norms taken afresh from final_X."""

    @pytest.mark.parametrize("method", ["dr", "pocs", "nesterov"])
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(instance=instances(), k=st.integers(1, 25), seed=st.integers(0, 2**32 - 1))
    def test_last_point_matches_norms_of_final_X(self, method, instance, k, seed):
        e, b = instance
        x0 = rand_unit(np.random.default_rng(seed), e.n, e.field)
        X0 = np.outer(x0, x0.conj())
        cfg = SolverConfig(method=method, max_iters=k, record_every=k,
                           alpha=1.0 / gram_matrix(e).trace())
        t = solve(e, b, cfg, X0_true=X0)
        X, last = t.final_X, t.points[-1]
        assert last.recovery_error == np.linalg.norm(X - X0) / np.linalg.norm(X0)
        assert last.trace_value == X.trace().real
        dense = np.linalg.norm(apply_lifted(e, X) - b.values) / np.linalg.norm(b.values)
        if method == "pocs":
            assert last.residual == dense
        else:
            assert abs(last.residual - dense) <= 1e-12


EQUIVALENCE = settings(max_examples=80, deadline=None, derandomize=True, database=None)


def _rel_gap(X, ref):
    return np.linalg.norm(X - ref) / max(1.0, np.linalg.norm(ref))


class TestStepEquivalence:
    """Each solver against its textbook loop, which lifts every point it needs."""

    @EQUIVALENCE
    @given(instances(), st.integers(1, 25), st.integers(0, 2**32 - 1))
    def test_dr_matches_textbook_loop(self, instance, k, seed):
        # from a cold start, and from the warm start Y_0 = hermitize(S),
        # X_0 = P_psd(Y_0)
        e, b = instance
        p = build_affine_projector(e, b)
        S = rand_square(np.random.default_rng(seed), e.n, e.field)
        zero = np.zeros((e.n, e.n), dtype=dtype_for(e.field))
        for X_start, Y0 in ((None, zero), (S, hermitize(S))):
            X = textbook_dr(p, e, Y0, k)[-1][0]
            t = solve_dr(p, e, SolverConfig(max_iters=k, record_every=k), X_start=X_start)
            assert _rel_gap(t.final_X, X) <= 1e-10

    @pytest.mark.parametrize("n, m, field", [(4, 20, "real"), (6, 30, "real"), (3, 14, "complex")])
    def test_dr_matches_textbook_loop_where_the_sets_do_not_meet(self, n, m, field):
        # eps = 0.1 with m past the dimension of the Hermitian matrices: G is
        # rank-deficient, b lies off the range of L, and the textbook Y drifts
        # without bound while X settles; 2000 steps of the multiplier
        # recursion must not drift away from it.  G has full rank d here, so
        # the cold start stops after one step; the warm start Y_0 = 0, the
        # same start, runs all 2000
        rng = np.random.default_rng(derive_seed(n, 0))
        e = sample_ensemble(n, m, field, seed=derive_seed(n, 1))
        b = add_noise(measure(e, rand_unit(rng, n, field)), 0.1, 1.0, seed=derive_seed(n, 2))
        p = build_affine_projector(e, b)
        assert p.rank == hermitian_dim(n, field) < m
        k = 2000
        zero = np.zeros((n, n), dtype=dtype_for(field))
        path = textbook_dr(p, e, zero, k)
        assert np.linalg.norm(path[-1][1]) > 4 * np.linalg.norm(path[99][1])
        for X_start, steps in ((None, 1), (zero, k)):
            t = solve_dr(p, e, SolverConfig(max_iters=k, record_every=k), X_start=X_start)
            assert t.points[-1].iteration == steps
            assert _rel_gap(t.final_X, path[-1][0]) <= 1e-10

    @EQUIVALENCE
    @given(instances(), st.integers(1, 25), st.integers(0, 2**32 - 1))
    def test_pocs_is_bitwise_the_textbook_loop(self, instance, k, seed):
        # from a cold start, and from the warm start X_0 = hermitize(S)
        e, b = instance
        p = build_affine_projector(e, b)
        S = rand_square(np.random.default_rng(seed), e.n, e.field)
        zero = np.zeros((e.n, e.n), dtype=dtype_for(e.field))
        for X_start, X in ((None, zero), (S, hermitize(S))):
            for _ in range(k):
                X = project_psd(project_affine(p, e, X))[0]
            t = solve_pocs(p, e, SolverConfig(method="pocs", max_iters=k, record_every=k),
                           X_start=X_start)
            assert np.array_equal(t.final_X, X)

    @EQUIVALENCE
    @given(instances(), st.integers(1, 25), st.sampled_from([0.0, 1e-3]))
    def test_nesterov_matches_textbook_loop(self, instance, k, lam):
        e, b = instance
        alpha = 1.0 / gram_matrix(e).trace()  # below 1/lambda_max(G)
        eye = np.eye(e.n, dtype=dtype_for(e.field))
        X = Y = np.zeros((e.n, e.n), dtype=dtype_for(e.field))
        theta = 1.0
        for _ in range(k):
            grad = apply_adjoint(e, apply_lifted(e, Y) - b.values) + lam * eye
            X_new = project_psd(Y - alpha * grad)[0]
            theta_new = 2.0 / (1.0 + math.sqrt(1.0 + 4.0 / theta**2))
            Y = X_new + theta_new * (1.0 / theta - 1.0) * (X_new - X)
            X, theta = X_new, theta_new
        cfg = SolverConfig(method="nesterov", max_iters=k, record_every=k,
                           alpha=alpha, lambda_trace=lam)
        t = solve_nesterov(e, b, cfg)
        assert _rel_gap(t.final_X, X) <= 1e-10


class TestOnePointSlice:
    """At full Gram rank d the affine slice is one point; cold-start DR stops at iteration 1."""

    @staticmethod
    def instance(seed, field, rank_deficit=0):
        """A frame of random n and m >= d: d - `rank_deficit` generic rows, then repeats of them.

        The measurements are of a random unit vector, noiseless for an even
        seed and at eps = 0.1 for an odd one.
        """
        rng = np.random.default_rng(derive_seed(seed, 11))
        n = int(rng.integers(1 + rank_deficit, 6))
        d = hermitian_dim(n, field)
        m = d + int(rng.integers(rank_deficit, 6))
        rows = [rand_vector(rng, n, field) for _ in range(d - rank_deficit)]
        rows += [rows[int(rng.integers(len(rows)))] for _ in range(m - len(rows))]
        e = SensingEnsemble(vectors=np.array(rows))
        b = add_noise(measure(e, rand_unit(rng, n, field)), 0.1 * (seed % 2), 1.0,
                      seed=derive_seed(seed, 12))
        return e, b, build_affine_projector(e, b)

    @pytest.mark.parametrize("field", FIELDS)
    @pytest.mark.parametrize("seed", range(8))
    def test_cold_dr_stops_at_the_textbook_fixed_point(self, field, seed):
        e, b, p = self.instance(seed, field)
        assert p.rank == hermitian_dim(e.n, field) and e.m >= p.rank
        cfg = SolverConfig(max_iters=300, record_every=1)
        t = solve_dr(p, e, cfg)
        assert [pt.iteration for pt in t.points] == [0, 1]
        assert [pt.iteration for pt in solve(e, b, cfg).points] == [0, 1]
        X = t.final_X
        exact = project_psd(least_squares_point(e, b))[0]
        assert np.all(np.abs(X - exact) <= 1e-12 + 1e-8 * np.abs(exact))
        # the textbook loop's Y grows as k a_-, so its X_300 also carries the
        # rounding of a point that large (at seed 1, real, cond(G) = 2.4e6, 7.3
        # units of the tolerance off the exact point, where X is 0.04 units off)
        X300 = textbook_dr(p, e, np.zeros((e.n, e.n), dtype=dtype_for(field)), 300)[-1][0]
        assert np.all(np.abs(X - X300) <= 1e-12 + 1e-8 * np.abs(X300) + np.abs(X300 - exact))

    @pytest.mark.parametrize("field", FIELDS)
    @pytest.mark.parametrize("seed", range(4))
    def test_rank_below_d_runs_every_step(self, field, seed):
        # m >= d rows, but only d - 1 of them distinct: the measured rank decides
        e, b, p = self.instance(seed, field, rank_deficit=1)
        assert p.rank == hermitian_dim(e.n, field) - 1 and e.m >= p.rank + 1
        assert solve_dr(p, e, SolverConfig(max_iters=30)).points[-1].iteration == 30

    @pytest.mark.parametrize("field", FIELDS)
    @pytest.mark.parametrize("seed", range(4))
    def test_warm_start_pocs_and_nesterov_run_every_step(self, field, seed):
        e, b, p = self.instance(seed, field)
        assert p.rank == hermitian_dim(e.n, field)
        S = rand_square(np.random.default_rng(seed), e.n, field)
        alpha = 1.0 / gram_matrix(e).trace()
        traces = [solve_dr(p, e, SolverConfig(max_iters=30), X_start=S),
                  solve_pocs(p, e, SolverConfig(method="pocs", max_iters=30)),
                  solve_nesterov(e, b, SolverConfig(method="nesterov", max_iters=30, alpha=alpha))]
        assert [t.points[-1].iteration for t in traces] == [30, 30, 30]

    @pytest.mark.parametrize("field", FIELDS)
    @pytest.mark.parametrize("seed", range(12))
    def test_projector_rank_of_a_generic_frame(self, field, seed):
        rng = np.random.default_rng(derive_seed(seed, 13))
        n = int(rng.integers(1, 7))
        d = hermitian_dim(n, field)
        m = int(rng.integers(1, d + 8))
        e = sample_ensemble(n, m, field, seed=derive_seed(seed, 14))
        b = measure(e, rand_unit(rng, n, field))
        assert build_affine_projector(e, b).rank == min(m, d)


class TestSymmetryContracts:
    """The adjoint is Hermitian only up to rounding, and the iterates exactly."""

    @EQUIVALENCE
    @given(instances(), st.integers(1, 25), st.sampled_from([0.0, 1e-3]))
    def test_dr_and_nesterov_iterates_are_bitwise_hermitian(self, instance, k, lam):
        e, b = instance
        cfgs = [SolverConfig(max_iters=k, record_every=k),
                SolverConfig(method="nesterov", max_iters=k, record_every=k,
                             alpha=1.0 / gram_matrix(e).trace(), lambda_trace=lam)]
        for cfg in cfgs:
            X = solve(e, b, cfg).final_X
            assert X.dtype == dtype_for(e.field)
            assert np.array_equal(X, X.conj().T)


class TestCellRule:
    def test_golden_cells(self, tmp_path):
        # integers and bools, Python or numpy, as decimal integers; reals in shortest round-trip
        path = tmp_path / "cells.csv"
        solvers.write_rows(path, ["a", "b", "c"], [
            (2**63 + 5, np.uint64(2**64 - 1), np.int64(-3)),
            (True, False, np.True_),
            (math.nan, math.inf, -math.inf),
            (-0.0, 0.1 + 0.2, np.float64(0.1) + np.float64(0.2)),
            (1.0, np.float64(1e-300), np.float32(0.5)),
        ])
        assert path.read_bytes() == (b"a,b,c\n"
                                     b"9223372036854775813,18446744073709551615,-3\n"
                                     b"1,0,1\n"
                                     b"nan,inf,-inf\n"
                                     b"-0.0,0.30000000000000004,0.30000000000000004\n"
                                     b"1.0,1e-300,0.5\n")
