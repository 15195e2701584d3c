import concurrent.futures
import contextlib
import dataclasses
import functools
import math
import multiprocessing
import os
import signal
import sys
import time

import numpy as np
import pytest

from phasefeas import harness, solvers
from phasefeas.harness import (
    GridResult,
    GridSpec,
    TrialRow,
    cell_means,
    emit_heatmap,
    run_certify_study,
    run_convergence_study,
    run_grid,
    run_trial,
    sample_unit_sphere,
    write_grid_csv,
)
from phasefeas.linalg import hermitian_dim
from phasefeas.sensing import MeasurementVector, derive_seed, measure, sample_ensemble
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
        def no_solve(*args, **kwargs):
            raise AssertionError("a group was solved")

        monkeypatch.setattr(harness, "solve", no_solve)
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
        # OpenBLAS rounds differently at 1 and 2 threads for a lone solve
        # above m of about 130, and for a stack already at a padded M of 110;
        # the rows agree only when serial and pooled trials alike run on one
        # BLAS thread.
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

    @pytest.mark.parametrize("n_values, m_values", [(np.array([], dtype=int), [5]),
                                                    ([3], np.array([], dtype=int))],
                             ids=["n", "m"])
    def test_empty_array_rejected(self, n_values, m_values):
        with pytest.raises(ValueError, match="n_values and m_values must be nonempty"):
            GridSpec(n_values=n_values, m_values=m_values)

    def test_array_spec_writes_the_list_specs_bytes(self, tmp_path):
        outputs = []
        for values in ((np.arange(2, 4), np.array([6, 9])), ([2, 3], [6, 9])):
            spec = GridSpec(n_values=values[0], m_values=values[1], trials=1, eps=0.1,
                            solver=fast_cfg(20), master_seed=4)
            for workers in (1, 2):
                result = run_grid(spec, workers=workers)
                write_grid_csv(result, tmp_path / "grid.csv")
                emit_heatmap(result, tmp_path / "heatmap.pgm")
                outputs.append(((tmp_path / "grid.csv").read_bytes(),
                                (tmp_path / "heatmap.pgm").read_bytes()))
        assert outputs[1:] == outputs[:1] * 3

    @pytest.mark.parametrize("eps", [math.nan, -0.1, math.inf])
    def test_bad_eps_rejected(self, eps):
        with pytest.raises(ValueError, match="eps"):
            GridSpec(n_values=[3], m_values=[5], eps=eps)

    @pytest.mark.parametrize("n_values, m_values", [([3, 3], [6]), ([3], [6, 9, 6])],
                             ids=["n-repeated", "m-repeated"])
    def test_repeated_values_rejected(self, n_values, m_values):
        with pytest.raises(ValueError, match="must not repeat a value"):
            GridSpec(n_values=n_values, m_values=m_values, trials=1)

    @pytest.mark.parametrize("kwargs, name", [
        ({"trials": 2.0}, "trials"),
        ({"master_seed": 0.5}, "master_seed"),
        ({"master_seed": None}, "master_seed"),
        ({"n_values": [3.0]}, "n_values"),
        ({"m_values": [6, np.float64(9)]}, "m_values"),
    ], ids=["trials=2.0", "master_seed=0.5", "master_seed=None", "n=3.0", "m=float64"])
    def test_non_integer_counts_rejected(self, kwargs, name):
        with pytest.raises(ValueError, match=name):
            GridSpec(**{"n_values": [3], "m_values": [6], **kwargs})

    def test_numpy_integer_counts_accepted(self):
        spec = GridSpec(n_values=[np.int64(2)], m_values=[np.int32(6)], trials=np.int64(2),
                        master_seed=np.uint64(7))
        assert (spec.trials, spec.master_seed) == (2, 7)

    def test_costliest_trials_dispatched_first(self, monkeypatch):
        # n = 2 and 3 (d = 3 and 6) have every m >= d, so their 9 trials, in
        # (m, trial) order, are cut into a stack of 8 and a stack of 1; n = 5
        # (d = 15) is cut at m = 15 first, into its 3 trials of m = 6 and its
        # 6 of m = 20 and 30; a group costs T n^2 (M + n)
        order = []
        task = harness.run_trial

        def recorded(n, ms, eps, solver, seeds, trials):
            order.append((n, ms, trials))
            return task(n, ms, eps, solver, seeds, trials)

        monkeypatch.setattr(harness, "run_trial", recorded)
        spec = GridSpec(n_values=[2, 5, 3], m_values=[6, 20, 30], trials=3, solver=fast_cfg(5))
        result = run_grid(spec, workers=1)
        costs = [len(ms) * n * n * (max(ms) + n) for n, ms, _ in order]
        assert costs == sorted(costs, reverse=True)
        head = (6, 6, 6, 20, 20, 20, 30, 30)
        assert [(n, ms) for n, ms, _ in order] == [
            (5, (20, 20, 20, 30, 30, 30)), (3, head), (2, head), (5, (6, 6, 6)), (3, (30,)),
            (2, (30,))]
        assert [ts for _, _, ts in order] == [
            (0, 1, 2, 0, 1, 2), (0, 1, 2, 0, 1, 2, 0, 1), (0, 1, 2, 0, 1, 2, 0, 1), (0, 1, 2),
            (2,), (2,)]
        keys = [(r.n, r.m, r.trial) for r in result.rows]
        assert keys == sorted(keys) and len(keys) == 27


class TestEveryTrialIsAStack:
    @pytest.fixture
    def calls(self, monkeypatch):
        """What each `solve` call from the harness gets: the shapes of (Z, b, X0),
        and the config's (record_every, max_iters)."""
        seen, settings = [], []
        solve = harness.solve

        def recorded(e, b, cfg, X0_true=None):
            seen.append((e.vectors.shape, b.values.shape, X0_true.shape))
            settings.append((cfg.record_every, cfg.max_iters))
            return solve(e, b, cfg, X0_true=X0_true)

        monkeypatch.setattr(harness, "solve", recorded)
        return seen, settings

    @pytest.fixture
    def shapes(self, calls):
        return calls[0]

    @pytest.fixture
    def settings(self, calls):
        return calls[1]

    def test_lone_trial_is_a_stack_of_one(self, shapes):
        row = run_trial(3, 12, 0.05, fast_cfg(20), seed=7)
        assert isinstance(row, TrialRow) and row.m == 12
        assert shapes == [((1, 12, 3), (1, 12), (1, 3, 3))]

    def test_grid_of_8_plus_1(self, shapes):
        # the 9 trials of n = 3 make a stack of 8 (m up to 12) and one of 1
        spec = GridSpec(n_values=[3], m_values=[6, 9, 12], trials=3, eps=0.1,
                        solver=fast_cfg(20), master_seed=2)
        assert len(run_grid(spec, workers=1).rows) == 9
        assert shapes == [((8, 12, 3), (8, 12), (8, 3, 3)), ((1, 12, 3), (1, 12), (1, 3, 3))]

    @pytest.mark.parametrize("record_every", [1, 7])
    def test_a_trial_records_only_its_last_point(self, shapes, settings, record_every):
        # a scalar trial, then the 8 + 1 grid above: every solve records
        # iterations 0 and max_iters only, whatever the config says
        cfg = SolverConfig(max_iters=20, record_every=record_every)
        run_trial(3, 12, 0.05, cfg, seed=7)
        spec = GridSpec(n_values=[3], m_values=[6, 9, 12], trials=3, eps=0.1,
                        solver=cfg, master_seed=2)
        run_grid(spec, workers=1)
        assert len(shapes) == 3
        assert settings == [(20, 20)] * 3


@pytest.mark.parametrize("solver, kwargs", [
    ("dr", {"n_values": [3, 5], "m_values": [6, 9, 14, 20], "trials": 2, "eps": 0.1,
            "master_seed": 1}),
    # 55 of the 60 rows are nan: most stacks fail and rerun trial by trial
    ("nesterov", {"n_values": [2, 4, 6, 8, 10], "m_values": [6, 12, 18, 24, 30, 36], "trials": 2,
                  "eps": 0.1, "master_seed": 3}),
], ids=["dr", "nesterov-nan"])
def test_grid_rows_do_not_depend_on_record_every(solver, kwargs):
    rows = []
    for record_every in (1, 300):
        cfg = SolverConfig(method=solver, max_iters=300, alpha=0.05, record_every=record_every)
        rows.append([no_wall(r) for r in run_grid(GridSpec(solver=cfg, **kwargs), workers=1).rows])
    assert sum(math.isnan(r.recovery_error) for r in rows[0]) == (55 if solver == "nesterov" else 0)
    assert rows[0] == rows[1]


class SerialPool:
    """A stand-in for ProcessPoolExecutor that runs the tasks in order, in process.

    Each pool appends its `max_workers` to `sizes`, and the `mp_context` it
    receives to `contexts` when that list is given.  `run_grid` imports the
    pool from `concurrent.futures` when it builds one, so a test installs
    the stand-in there.
    """

    def __init__(self, max_workers, mp_context, sizes, contexts=None):
        sizes.append(max_workers)
        if contexts is not None:
            contexts.append(mp_context)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables, chunksize=1):
        return [fn(*args) for args in zip(*iterables)]


class TestGrouping:
    def tasks(self, monkeypatch, spec, workers):
        seen = []
        task = harness.run_trial

        def recorded(n, ms, eps, solver, seeds, trials):
            seen.append((n, ms, trials, seeds))
            return task(n, ms, eps, solver, seeds, trials)

        with monkeypatch.context() as patch:
            patch.setattr(harness, "run_trial", recorded)
            patch.setattr(concurrent.futures, "ProcessPoolExecutor",
                          functools.partial(SerialPool, sizes=[]))
            run_grid(spec, workers=workers)
        return seen

    def test_stacks_of_one_n_and_at_most_8_consecutive_trials(self, monkeypatch):
        spec = GridSpec(n_values=[2, 4, 3], m_values=[30, 6, 12, 20, 9], trials=7,
                        solver=fast_cfg(2), master_seed=6)
        serial = self.tasks(monkeypatch, spec, 1)
        pooled = self.tasks(monkeypatch, spec, 2)
        assert set(serial) == set(pooled) and len(serial) == len(pooled)
        # n = 2 and 3 (d = 3 and 6) have every m >= d; n = 4 (d = 10) is cut
        # at m = 10 first, into the 14 trials of m = 6 and 9 and the 21 above
        sizes = {2: [8, 8, 8, 8, 3], 3: [8, 8, 8, 8, 3], 4: [8, 6, 8, 8, 5]}
        for n in spec.n_values:
            stacks = sorted((list(zip(ms, ts)), seeds) for k, ms, ts, seeds in serial if k == n)
            assert [len(trials) for trials, _ in stacks] == sizes[n]
            flat = [mt for trials, _ in stacks for mt in trials]
            assert flat == sorted((m, t) for m in spec.m_values for t in range(spec.trials))
            for trials, seeds in stacks:
                assert list(seeds) == [derive_seed(6, n, m, t) for m, t in trials]

    @pytest.mark.parametrize("seed", range(6))
    def test_no_stack_holds_m_on_both_sides_of_d(self, monkeypatch, seed):
        # random grids; d = n(n+1)/2, the real field's, since grid trials are real
        rng = np.random.default_rng(seed)
        n_values = sorted(set(rng.integers(1, 9, size=3).tolist()))
        m_values = sorted(set(rng.integers(1, 40, size=6).tolist()))
        spec = GridSpec(n_values=n_values, m_values=m_values, trials=int(rng.integers(1, 4)),
                        solver=fast_cfg(2), master_seed=seed)
        tasks = self.tasks(monkeypatch, spec, 2)
        assert sum(len(ms) for _, ms, _, _ in tasks) == len(n_values) * len(m_values) * spec.trials
        for n, ms, _, _ in tasks:
            d = hermitian_dim(n, "real")
            assert max(ms) < d or min(ms) >= d

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


class TestPoolSize:
    """`workers` bounds the pool, and so does the group count: one worker per group at most."""

    # one group per n
    SPEC = GridSpec(n_values=[2, 3, 4], m_values=[6], trials=1, solver=fast_cfg(2))

    def pool_sizes(self, monkeypatch, spec, workers):
        """The `max_workers` of each pool `run_grid` builds, on a host of 64 usable cores."""
        sizes = []
        with monkeypatch.context() as patch:
            patch.setattr(concurrent.futures, "ProcessPoolExecutor",
                          functools.partial(SerialPool, sizes=sizes))
            patch.setattr(harness, "_usable_cores", lambda: 64)
            run_grid(spec, workers=workers)
        return sizes

    @pytest.mark.parametrize("workers, sizes", [(2, [2]), (64, [3]), (None, [3])],
                             ids=["K=2", "K=64", "default-of-64-cores"])
    def test_at_most_one_worker_per_group(self, monkeypatch, workers, sizes):
        assert self.pool_sizes(monkeypatch, self.SPEC, workers) == sizes

    @pytest.mark.parametrize("n_values, workers", [([2], 64), ([2, 3, 4], 1)],
                             ids=["one-group-K=64", "three-groups-K=1"])
    def test_in_process_builds_no_pool(self, monkeypatch, n_values, workers):
        spec = dataclasses.replace(self.SPEC, n_values=n_values)
        assert self.pool_sizes(monkeypatch, spec, workers) == []

    @pytest.mark.parametrize("platform, method", [("linux", "fork"), ("darwin", None)])
    def test_pool_forks_on_linux_only(self, monkeypatch, platform, method):
        # forked workers inherit the one-thread pin and count in the parent's
        # RUSAGE_CHILDREN; elsewhere the platform's default start method stays
        if method is not None and method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"no {method} start method here")
        contexts = []
        with monkeypatch.context() as patch:
            patch.setattr(concurrent.futures, "ProcessPoolExecutor",
                          functools.partial(SerialPool, sizes=[], contexts=contexts))
            patch.setattr(sys, "platform", platform)
            run_grid(self.SPEC, workers=2)
        assert [c and c.get_start_method() for c in contexts] == [method]


class TestFailingSlice:
    def test_only_the_failing_trial_is_nan(self, tmp_path, monkeypatch):
        # the 8 trials of n = 3 (m = 5..8, 2 trials each) are cut at d = 6
        # into the 6 trials of m = 6..8 and the 2 of m = 5; a NaN measurement
        # in (m = 7, trial 1) fails the first stack, which reruns trial by
        # trial, and leaves the stack of m = 5 alone
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
        solve = harness.solve

        def recorded(e, *args, **kwargs):
            sizes.append(e.vectors.shape[0])
            return solve(e, *args, **kwargs)

        monkeypatch.setattr(harness, "add_noise", poisoned)
        monkeypatch.setattr(harness, "solve", recorded)
        serial = run_grid(spec, workers=1)
        assert sizes == [6] + [1] * 6 + [2]
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
        api = solvers._openblas_threads()
        if api is None:
            pytest.skip("numpy's BLAS exports no OpenBLAS thread calls")
        get, put = api
        before = get()
        put(2)
        yield get
        put(before)

    @pytest.mark.parametrize("raises", [False, True])
    def test_run_trial_restores_thread_count(self, blas, monkeypatch, raises):
        # a trial's solve is the stacked solve of its group (of one), and
        # `solve` pins the thread count around the DR solver it calls
        inside = []
        solve_dr = solvers.solve_dr

        def probe(*args, **kwargs):
            inside.append(blas())
            if raises:
                raise KeyError("not a solver failure")
            return solve_dr(*args, **kwargs)

        monkeypatch.setattr(solvers, "solve_dr", probe)
        before = blas()
        if raises:
            with pytest.raises(KeyError):
                run_trial(3, 12, 0.05, fast_cfg(20), seed=7)
        else:
            run_trial(3, 12, 0.05, fast_cfg(20), seed=7)
        assert inside == [1]
        assert blas() == before

    @pytest.mark.parametrize("raises", [False, True])
    @pytest.mark.parametrize("method", ["dr", "pocs", "nesterov"])
    def test_solve_runs_on_one_thread(self, blas, monkeypatch, method, raises):
        # the Gram factorization and the iterations run inside the pin
        inside = []

        def probe(name):
            real = getattr(solvers, name)

            def probed(*args, **kwargs):
                inside.append((name, blas()))
                if raises and name.startswith("solve_"):
                    raise KeyError("not a solver failure")
                return real(*args, **kwargs)

            monkeypatch.setattr(solvers, name, probed)

        for name in ("build_affine_projector", "solve_dr", "solve_pocs", "solve_nesterov"):
            probe(name)
        e = sample_ensemble(3, 12, seed=1)
        b = measure(e, np.ones(3))
        cfg = SolverConfig(method=method, max_iters=5, alpha=1e-4)
        before = blas()
        if raises:
            with pytest.raises(KeyError):
                solvers.solve(e, b, cfg)
        else:
            solvers.solve(e, b, cfg)
        factor = [] if method == "nesterov" else [("build_affine_projector", 1)]
        assert inside == factor + [(f"solve_{method}", 1)]
        assert blas() == before

    @pytest.fixture
    def cdll(self, monkeypatch):
        """Install a stand-in for `ctypes.CDLL` for the resolver to look the calls up in."""
        def install(stand_in):
            monkeypatch.setattr(solvers.ctypes, "CDLL", stand_in)
            solvers._openblas_threads.cache_clear()

        yield install
        solvers._openblas_threads.cache_clear()

    @pytest.fixture
    def no_openblas(self, cdll):
        """The resolver as it runs against a BLAS without the OpenBLAS calls."""
        class NoSymbols:
            def __init__(self, path):
                self.path = path

        cdll(NoSymbols)

    @pytest.fixture
    def old_names(self, cdll):
        """A BLAS under numpy 1.x's names; returns (count, set calls) for a starting count."""
        def install(start):
            count = [start]
            calls = []

            class OldNames:
                def __init__(self, path):
                    def get():
                        return count[0]

                    def put(k):
                        calls.append(k)
                        count[0] = k

                    self.openblas_get_num_threads64_ = get
                    self.openblas_set_num_threads64_ = put

            cdll(OldNames)
            return count, calls

        return install

    def test_numpy_1_names_are_found(self, old_names, monkeypatch):
        # numpy 1.x wheels export the calls without numpy 2's `scipy_` prefix
        count, calls = old_names(4)
        assert solvers._openblas_threads() is not None
        inside = []
        solve_dr = solvers.solve_dr

        def probe(*args, **kwargs):
            inside.append(count[0])
            return solve_dr(*args, **kwargs)

        monkeypatch.setattr(solvers, "solve_dr", probe)
        run_trial(3, 12, 0.05, fast_cfg(20), seed=7)
        assert inside == [1]
        assert calls == [1, 4]

    @pytest.mark.parametrize("raises", [False, True])
    def test_one_thread_makes_no_set_call(self, old_names, raises):
        # a set call in a worker forked at one thread would restart the
        # OpenBLAS thread server and its spinning helper
        count, calls = old_names(1)
        inside = []
        with pytest.raises(KeyError) if raises else contextlib.nullcontext():
            with solvers._single_blas_thread():
                inside.append(count[0])
                if raises:
                    raise KeyError("not a solver failure")
        assert inside == [1]
        assert calls == []

    @pytest.mark.parametrize("raises", [False, True])
    def test_run_grid_builds_its_pool_on_one_thread(self, blas, monkeypatch, raises):
        # the pool's workers are forked at one thread, so that their own pin
        # makes no set call; the parent's count comes back afterwards
        built = []

        def pool(max_workers, mp_context):
            built.append(blas())
            return SerialPool(max_workers, mp_context, sizes=[])

        def task(*args):
            if raises:
                raise KeyError("not a solver failure")
            return run_trial(*args)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", pool)
        monkeypatch.setattr(harness, "run_trial", task)
        spec = GridSpec(n_values=[2, 3], m_values=[6], trials=1, solver=fast_cfg(5))
        before = blas()
        with pytest.raises(KeyError) if raises else contextlib.nullcontext():
            run_grid(spec, workers=2)
        assert built == [1]
        assert blas() == before

    def test_forked_worker_starts_no_blas_thread(self, blas):
        # a child forked under the pin, as a pool worker is, solves a
        # 3-trial group padded to M = 110 on its one OS thread
        if not hasattr(os, "fork") or not os.path.isdir("/proc/self/task"):
            pytest.skip("needs os.fork and /proc")
        read, write = os.pipe()
        with solvers._single_blas_thread():
            pid = os.fork()
            if pid == 0:
                try:
                    run_trial(10, (90, 100, 110), 0.1, fast_cfg(20), (1, 2, 3), (0, 1, 2))
                    os.write(write, f"{blas()} {len(os.listdir('/proc/self/task'))}".encode())
                finally:
                    os._exit(0)
        os.close(write)
        deadline = time.monotonic() + 120
        while os.waitpid(pid, os.WNOHANG) == (0, 0):
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                pytest.fail("the forked child did not finish in 120 s")
            time.sleep(0.01)
        with os.fdopen(read) as fh:
            assert fh.read() == "1 1"

    def test_missing_symbols_are_a_no_op(self, no_openblas):
        assert solvers._openblas_threads() is None
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

    def test_golden_bytes(self, tmp_path):
        # a 64-bit seed above 2^63 and the float cells that repr spells specially
        rows = [TrialRow(2, 6, 0, 2**63 + 5, 30, 0.1 + 0.2, -0.0, 1.5),
                TrialRow(2, 6, 1, 2**64 - 1, 30, math.nan, math.inf, 2.5)]
        path = tmp_path / "grid.csv"
        write_grid_csv(GridResult(spec=None, rows=rows), path)
        assert path.read_bytes() == (b"n,m,trial,seed,iters,recovery_error,residual\n"
                                     b"2,6,0,9223372036854775813,30,0.30000000000000004,-0.0\n"
                                     b"2,6,1,18446744073709551615,30,nan,inf\n")

    def test_numpy_values_write_python_bytes(self, tmp_path):
        # an array GridSpec puts numpy integers into TrialRow.n and .m
        values = [(2, 6, 0, 2**63 + 5, 30, 0.25, 1e-17), (3, 9, 1, 7, 30, math.nan, math.nan)]
        paths = []
        for kind, it, seed, real in (("py", int, int, float),
                                     ("np", np.int64, np.uint64, np.float64)):
            rows = [TrialRow(it(n), it(m), it(t), seed(s), it(k), real(err), real(res), 0.0)
                    for n, m, t, s, k, err, res in values]
            paths.append(tmp_path / f"{kind}.csv")
            write_grid_csv(GridResult(spec=None, rows=rows), paths[-1])
        assert paths[0].read_bytes() == paths[1].read_bytes()


class TestCertifyStudy:
    def test_numpy_scalars_write_python_bytes(self, tmp_path):
        run_certify_study(4, 30, 1.0, 2, 0, tmp_path / "py")
        run_certify_study(np.int64(4), np.int64(30), np.float64(1.0), np.int64(2), 0,
                          tmp_path / "np")
        for name in ("certificates.csv", "summary.txt"):
            assert (tmp_path / "np" / name).read_bytes() == (tmp_path / "py" / name).read_bytes()
        assert (tmp_path / "np" / "summary.txt").read_text().splitlines()[:4] == [
            "n=4", "m=30", "beta=1.0", "seeds=2"]

    def test_untruncated_beta_is_an_inf_cell(self, tmp_path):
        run_certify_study(4, 30, math.inf, 1, 0, tmp_path)
        lines = (tmp_path / "summary.txt").read_text().splitlines()
        assert lines[2] == "beta=inf"
        assert lines[7] == "mean_truncation_rate=0.0"

    @pytest.mark.parametrize("seeds", [2.5, 2.0, "2"])
    def test_seeds_must_be_an_integer(self, tmp_path, seeds):
        with pytest.raises(ValueError, match="seeds must be an integer"):
            run_certify_study(4, 30, 1.0, seeds, 0, tmp_path / "out")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("name, args", [
        ("seed", (4, 30, 1.0, 2, 2.5)), ("seed", (4, 30, 1.0, 2, 2.0)),
        ("n", (4.0, 30, 1.0, 2, 0)), ("m", (4, 30.0, 1.0, 2, 0)),
    ], ids=["seed-2.5", "seed-2.0", "n-4.0", "m-30.0"])
    def test_n_m_and_seed_must_be_integers(self, tmp_path, name, args):
        # at the parent seed 2.5 wrote seed 2's artifacts
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            run_certify_study(*args, tmp_path / "out")
        assert not (tmp_path / "out").exists()


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
    @pytest.mark.parametrize("name, args", [
        ("seed", (4, 10, 2.5)), ("n", (4.0, 10, 0)), ("m", (4, 10.0, 0)),
    ], ids=["seed-2.5", "n-4.0", "m-10.0"])
    def test_n_m_and_seed_must_be_integers(self, tmp_path, name, args):
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            run_convergence_study(*args, tmp_path / "out", iters=5)
        assert not (tmp_path / "out").exists()

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
