import dataclasses
import math

import numpy as np
import pytest

from phasefeas import harness
from phasefeas.harness import (
    GridResult,
    GridSpec,
    TrialRow,
    cell_means,
    emit_heatmap,
    run_convergence_study,
    run_grid,
    run_trial,
    sample_unit_sphere,
    write_grid_csv,
)
from phasefeas.sensing import MeasurementVector, derive_seed
from phasefeas.solvers import SolverConfig


def no_wall(row):
    return dataclasses.replace(row, wall_ms=0.0)


def fast_cfg(iters=200):
    return SolverConfig(max_iters=iters, record_every=iters)


class TestRunTrial:
    def test_deterministic(self):
        cfg = fast_cfg()
        a = run_trial(3, 12, 0.05, cfg, seed=7)
        b = run_trial(3, 12, 0.05, cfg, seed=7)
        assert no_wall(a) == no_wall(b)

    def test_exact_recovery_small(self):
        row = run_trial(2, 10, 0.0, fast_cfg(1000), seed=1)
        assert row.recovery_error <= 1e-6

    def test_noisy_error_scale(self):
        # error settles near the 1e-1..1e-2 scale, clearly above 1e-3
        row = run_trial(2, 10, 0.1, fast_cfg(1000), seed=1)
        assert 1e-3 <= row.recovery_error <= 1.0

    # alpha=1e307 overflows to a non-finite iterate inside the PSD projection
    @pytest.mark.parametrize("alpha", [10.0, 1e307])
    def test_solver_failure_recorded_as_nan(self, alpha):
        cfg = SolverConfig(method="nesterov", max_iters=100, alpha=alpha)
        row = run_trial(6, 30, 0.0, cfg, seed=2)
        assert math.isnan(row.recovery_error)
        assert math.isnan(row.residual)

    @pytest.mark.parametrize("seed, trial", [([1], [0, 1]), ([1, 2], 0)],
                             ids=["short-seed", "scalar-trial"])
    def test_mismatched_group_rejected_before_solving(self, monkeypatch, seed, trial):
        def no_solve(*args):
            raise AssertionError("a group was solved")

        monkeypatch.setattr(harness, "_solve_group", no_solve)
        with pytest.raises(ValueError, match="dimension mismatch"):
            run_trial(3, [6, 9], 0.1, fast_cfg(20), seed, trial=trial)

    def test_unit_sphere_sampler(self):
        x = sample_unit_sphere(8, seed=3)
        assert np.linalg.norm(x) == pytest.approx(1.0, abs=1e-12)
        assert np.array_equal(x, sample_unit_sphere(8, seed=3))


class TestRunGrid:
    def test_single_cell_reduces_to_run_trial(self):
        spec = GridSpec(n_values=[3], m_values=[9], trials=1, eps=0.0,
                        solver=fast_cfg(), master_seed=5)
        result = run_grid(spec, workers=1)
        assert len(result.rows) == 1
        direct = run_trial(3, 9, 0.0, fast_cfg(), derive_seed(5, 3, 9, 0), trial=0)
        assert no_wall(result.rows[0]) == no_wall(direct)

    def test_parallel_equals_serial(self):
        spec = GridSpec(n_values=[2, 3], m_values=[6, 9], trials=2, eps=0.1,
                        solver=fast_cfg(50), master_seed=11)
        serial = run_grid(spec, workers=1)
        parallel = run_grid(spec, workers=2)
        assert [no_wall(r) for r in serial.rows] == [no_wall(r) for r in parallel.rows]

    def test_parallel_equals_serial_large_m(self):
        # Above m of about 130 OpenBLAS rounds the Gram eigh and Z @ Z.T
        # differently at 1 and 2 threads; the rows agree only when serial and
        # pooled trials alike run on one BLAS thread.
        spec = GridSpec(n_values=[5, 20], m_values=[190, 250], trials=1, eps=0.1,
                        solver=fast_cfg(50), master_seed=3)
        serial = run_grid(spec, workers=1)
        parallel = run_grid(spec, workers=2)
        assert [no_wall(r) for r in serial.rows] == [no_wall(r) for r in parallel.rows]

    def test_nonpositive_workers_rejected(self):
        spec = GridSpec(n_values=[2], m_values=[6], trials=1, solver=fast_cfg(5))
        for workers in (0, -3):
            with pytest.raises(ValueError, match="workers must be >= 1"):
                run_grid(spec, workers=workers)

    def test_rows_sorted(self):
        spec = GridSpec(n_values=[3, 2], m_values=[9, 6], trials=2, eps=0.0,
                        solver=fast_cfg(20), master_seed=1)
        result = run_grid(spec, workers=1)
        keys = [(r.n, r.m, r.trial) for r in result.rows]
        assert keys == sorted(keys)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            GridSpec(n_values=[], m_values=[5])
        with pytest.raises(ValueError):
            GridSpec(n_values=[3], m_values=[5], trials=0)
        with pytest.raises(ValueError, match="n and m must be >= 1"):
            GridSpec(n_values=[5, 0], m_values=[5])
        with pytest.raises(ValueError, match="n and m must be >= 1"):
            GridSpec(n_values=[3], m_values=[5, -2])

    @pytest.mark.parametrize("eps", [math.nan, -0.1, math.inf])
    def test_bad_eps_rejected(self, eps):
        with pytest.raises(ValueError, match="eps"):
            GridSpec(n_values=[3], m_values=[5], eps=eps)

    def test_costliest_trials_dispatched_first(self, monkeypatch):
        # each n's 9 trials, in (m, trial) order, are cut into a stack of 8
        # and a stack of 1; a group costs T n^2 (M + n)
        order = []
        task = harness._grid_task

        def recorded(args):
            order.append(args[:3])
            return task(args)

        monkeypatch.setattr(harness, "_grid_task", recorded)
        spec = GridSpec(n_values=[2, 5, 3], m_values=[6, 20, 30], trials=3, solver=fast_cfg(5))
        result = run_grid(spec, workers=1)
        costs = [len(ms) * n * n * (max(ms) + n) for n, ms, _ in order]
        assert costs == sorted(costs, reverse=True)
        head = (6, 6, 6, 20, 20, 20, 30, 30)
        assert [(n, ms) for n, ms, _ in order] == [
            (5, head), (3, head), (2, head), (5, (30,)), (3, (30,)), (2, (30,))]
        assert {ts for _, _, ts in order} == {(0, 1, 2, 0, 1, 2, 0, 1), (2,)}
        keys = [(r.n, r.m, r.trial) for r in result.rows]
        assert keys == sorted(keys) and len(keys) == 27


class SerialPool:
    """A stand-in for ProcessPoolExecutor that runs the tasks in order, in process."""

    def __init__(self, max_workers):
        self.max_workers = max_workers

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks, chunksize=1):
        return [fn(t) for t in tasks]


class TestGrouping:
    def tasks(self, monkeypatch, spec, workers):
        seen = []
        task = harness._grid_task

        def recorded(args):
            seen.append(args[:4])
            return task(args)

        with monkeypatch.context() as patch:
            patch.setattr(harness, "_grid_task", recorded)
            patch.setattr(harness, "ProcessPoolExecutor", SerialPool)
            run_grid(spec, workers=workers)
        return seen

    def test_stacks_of_one_n_and_at_most_8_consecutive_trials(self, monkeypatch):
        spec = GridSpec(n_values=[2, 4, 3], m_values=[30, 6, 12, 20, 9], trials=7,
                        solver=fast_cfg(2), master_seed=6)
        serial = self.tasks(monkeypatch, spec, 1)
        pooled = self.tasks(monkeypatch, spec, 2)
        assert set(serial) == set(pooled) and len(serial) == len(pooled)
        for n in spec.n_values:
            stacks = sorted((list(zip(ms, ts)), seeds) for k, ms, ts, seeds in serial if k == n)
            assert [len(trials) for trials, _ in stacks] == [8, 8, 8, 8, 3]
            flat = [mt for trials, _ in stacks for mt in trials]
            assert flat == sorted((m, t) for m in spec.m_values for t in range(spec.trials))
            for trials, seeds in stacks:
                assert list(seeds) == [derive_seed(6, n, m, t) for m, t in trials]

    def test_straddling_m_writes_the_same_bytes_at_any_worker_count(self, tmp_path):
        # 3 trials of m = 6, 9 and 12: the 9 trials of n = 3 make stacks of
        # 8 and 1, so the trials of m = 12 are split across two stacks
        spec = GridSpec(n_values=[3, 2], m_values=[6, 9, 12], trials=3, eps=0.1,
                        solver=fast_cfg(40), master_seed=2)
        outputs = []
        for k, workers in enumerate((1, 2, 1)):
            result = run_grid(spec, workers=workers)
            write_grid_csv(result, tmp_path / f"{k}.csv")
            emit_heatmap(result, tmp_path / f"{k}.pgm")
            outputs.append(((tmp_path / f"{k}.csv").read_bytes(),
                            (tmp_path / f"{k}.pgm").read_bytes()))
        assert outputs[0] == outputs[1] == outputs[2]


class TestFailingSlice:
    def test_only_the_failing_trial_is_nan(self, tmp_path, monkeypatch):
        # the 8 trials of n = 3 (m = 5..8, 2 trials each) fill one stacked
        # group; a NaN measurement in (m = 7, trial 1) fails that stack,
        # which reruns trial by trial
        spec = GridSpec(n_values=[3], m_values=[5, 6, 7, 8], trials=2, eps=0.1,
                        solver=fast_cfg(40), master_seed=4)
        bad = derive_seed(derive_seed(4, 3, 7, 1), 2)
        add_noise = harness.add_noise

        def poisoned(b, eps, x0_norm, seed=0):
            out = add_noise(b, eps, x0_norm, seed=seed)
            if seed == bad:
                values = out.values.copy()
                values[0] = math.nan
                out = MeasurementVector(values=values)
            return out

        sizes = []
        stacked_solve = harness._stacked_solve

        def recorded(n, ms, *args):
            sizes.append(len(ms))
            return stacked_solve(n, ms, *args)

        monkeypatch.setattr(harness, "add_noise", poisoned)
        monkeypatch.setattr(harness, "_stacked_solve", recorded)
        serial = run_grid(spec, workers=1)
        assert sizes == [8] + [1] * 8
        for r in serial.rows:
            if (r.m, r.trial) == (7, 1):
                assert math.isnan(r.recovery_error) and math.isnan(r.residual)
            else:
                alone = run_trial(3, r.m, spec.eps, spec.solver, r.seed, trial=r.trial)
                assert no_wall(r) == no_wall(alone)
        write_grid_csv(serial, tmp_path / "1.csv")
        write_grid_csv(run_grid(spec, workers=2), tmp_path / "2.csv")
        assert (tmp_path / "1.csv").read_bytes() == (tmp_path / "2.csv").read_bytes()

    def test_group_rows_within_tolerance_of_lone_trials(self):
        spec = GridSpec(n_values=[4], m_values=[9, 12, 16], trials=2, eps=0.1,
                        solver=fast_cfg(100), master_seed=8)
        for r in run_grid(spec, workers=1).rows:
            alone = run_trial(4, r.m, spec.eps, spec.solver, r.seed, trial=r.trial)
            for got, ref in ((r.recovery_error, alone.recovery_error), (r.residual, alone.residual)):
                assert abs(got - ref) <= 1e-12 + 1e-8 * abs(ref)


class TestSingleBlasThread:
    @pytest.fixture
    def blas(self):
        api = harness._openblas_threads()
        if api is None:
            pytest.skip("numpy's BLAS exports no OpenBLAS thread calls")
        get, put = api
        before = get()
        put(2)
        yield get
        put(before)

    @pytest.mark.parametrize("raises", [False, True])
    def test_run_trial_restores_thread_count(self, blas, monkeypatch, raises):
        # a trial's solve is the stacked solve of its group (of one)
        inside = []
        solve = harness.solve

        def probe(*args, **kwargs):
            inside.append(blas())
            if raises:
                raise KeyError("not a solver failure")
            return solve(*args, **kwargs)

        monkeypatch.setattr(harness, "solve", probe)
        before = blas()
        if raises:
            with pytest.raises(KeyError):
                run_trial(3, 12, 0.05, fast_cfg(20), seed=7)
        else:
            run_trial(3, 12, 0.05, fast_cfg(20), seed=7)
        assert inside == [1]
        assert blas() == before

    @pytest.fixture
    def no_openblas(self, monkeypatch):
        """The resolver as it runs against a BLAS without the OpenBLAS calls."""
        class NoSymbols:
            def __init__(self, path):
                self.path = path

        monkeypatch.setattr(harness.ctypes, "CDLL", NoSymbols)
        harness._openblas_threads.cache_clear()
        yield
        harness._openblas_threads.cache_clear()

    def test_missing_symbols_are_a_no_op(self, no_openblas):
        assert harness._openblas_threads() is None
        spec = GridSpec(n_values=[2, 3], m_values=[6, 9], trials=2, eps=0.1,
                        solver=fast_cfg(30), master_seed=11)
        serial = run_grid(spec, workers=1)
        parallel = run_grid(spec, workers=2)
        assert len(serial.rows) == 8
        assert [no_wall(r) for r in serial.rows] == [no_wall(r) for r in parallel.rows]


def fake_result(mean_errors, trials=1):
    """GridResult with prescribed per-cell mean errors (single trial each)."""
    n_values = sorted({n for n, _ in mean_errors})
    m_values = sorted({m for _, m in mean_errors})
    rows = [
        TrialRow(n=n, m=m, trial=0, seed=0, iters=1,
                 recovery_error=mean_errors[(n, m)], residual=0.0, wall_ms=0.0)
        for n in n_values for m in m_values
    ]
    spec = GridSpec(n_values=n_values, m_values=m_values, trials=trials,
                    eps=0.0, solver=fast_cfg(1), master_seed=0)
    return GridResult(spec=spec, rows=rows)


class TestHeatmap:
    def test_pixel_formula(self, tmp_path):
        result = fake_result({(2, 5): 0.0, (2, 6): 1.5, (3, 5): 0.5, (3, 6): 0.25})
        path = tmp_path / "map.pgm"
        emit_heatmap(result, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "P2"
        assert lines[1] == "2 2"  # width (m count) x height (n count)
        assert lines[2] == "255"
        assert lines[3].split() == ["255", "0"]     # errors 0 and >= 1
        assert lines[4].split() == ["128", "191"]   # round-half-up of 127.5, 191.25

    def test_nan_cell_renders_black(self, tmp_path):
        result = fake_result({(2, 5): math.nan, (2, 6): 0.0})
        emit_heatmap(result, tmp_path / "map.pgm")
        lines = (tmp_path / "map.pgm").read_text().splitlines()
        assert lines[3].split() == ["0", "255"]

    def test_incomplete_grid_rejected(self, tmp_path):
        result = fake_result({(2, 5): 0.0, (2, 6): 0.0})
        result.rows = result.rows[:1]
        with pytest.raises(ValueError, match="incomplete grid"):
            emit_heatmap(result, tmp_path / "map.pgm")


class TestCellMeans:
    def test_nan_excluded_and_counted(self):
        rows = [
            TrialRow(2, 5, 0, 0, 1, 0.2, 0.0, 0.0),
            TrialRow(2, 5, 1, 0, 1, math.nan, math.nan, 0.0),
            TrialRow(2, 5, 2, 0, 1, 0.4, 0.0, 0.0),
        ]
        spec = GridSpec(n_values=[2], m_values=[5], trials=3, eps=0.0,
                        solver=fast_cfg(1), master_seed=0)
        means = cell_means(GridResult(spec=spec, rows=rows))
        mean, failures = means[(2, 5)]
        assert mean == pytest.approx(0.3)
        assert failures == 1


class TestGridCsv:
    def test_deterministic_bytes(self, tmp_path):
        spec = GridSpec(n_values=[2], m_values=[6, 8], trials=2, eps=0.1,
                        solver=fast_cfg(30), master_seed=3)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_grid_csv(run_grid(spec, workers=1), p1)
        write_grid_csv(run_grid(spec, workers=2), p2)
        assert p1.read_bytes() == p2.read_bytes()
        header = p1.read_text().splitlines()[0]
        assert header == "n,m,trial,seed,iters,recovery_error,residual"


class TestGridMonotonicity:
    def test_error_decreases_in_m(self):
        # statistical monotonicity: more measurements, lower mean error
        spec = GridSpec(n_values=[10, 15], m_values=[20, 100], trials=5, eps=0.1,
                        solver=SolverConfig(max_iters=1000, record_every=1000),
                        master_seed=0)
        means = cell_means(run_grid(spec, workers=2))
        for n in (10, 15):
            assert means[(n, 100)][0] < means[(n, 20)][0]


class TestConvergenceStudy:
    def test_six_files_and_shapes(self, tmp_path):
        paths = run_convergence_study(10, 60, 4, tmp_path, iters=400)
        assert len(paths) == 6
        names = sorted(p.split("/")[-1] for p in paths)
        assert names == sorted([
            "dr_0.csv", "dr_0.1.csv",
            "nesterov_0.csv", "nesterov_0.1.csv",
            "nesterov_trace_0.csv", "nesterov_trace_0.1.csv",
        ])

        def final_error(name):
            lines = (tmp_path / name).read_text().splitlines()
            return float(lines[-1].split(",")[1])

        # noiseless DR drops by more than 3 orders of magnitude
        assert final_error("dr_0.csv") <= 1e-3
        # the trace-penalized run plateaus strictly above the DR floor
        assert final_error("nesterov_trace_0.csv") > final_error("dr_0.csv")
