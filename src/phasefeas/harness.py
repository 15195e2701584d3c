"""Experiment harness: phase-transition grids, convergence traces, heatmaps,
and dual-certificate studies.

Every trial is a pure function of its seed: the signal, the ensemble, and
the noise draw all come from sub-streams of the per-trial seed, and the
per-trial seed is derived from (master_seed, n, m, trial).  Grid execution
is therefore invariant to worker count and ordering, and rerunning any
command with the same seed reproduces its CSV/PGM artifacts byte for byte
(which is why the nondeterministic wall_ms column stays out of the files).

A grid runs its trials in groups, one stacked solve per group (see
`solvers`): the trials of one n, sorted by (m, trial) and cut into
consecutive runs of at most `STACK_SIZE`, so that a group's trials have
neighbouring m and a group's memory is bounded.  Each trial is drawn on
its own, as a lone trial, and zero-padded to the group's largest m; the
stack then goes to `solve` as one problem, with one Gram factorization
and one set of calls per step for all its trials.  The groups, and so
every row, do not depend on the worker count.

Every trial, serial or in a pool worker, runs on one OpenBLAS thread.  Two
reasons: forked workers that each start their own BLAS threads oversubscribe
the cores, so the pool would not scale; and OpenBLAS rounds the larger
kernels (the Gram `eigh` and `Z @ Z.T` above m of about 130) differently at
one and at several threads, so a trial's bits would depend on where it ran.
For the second reason `cli.main` runs every command on one OpenBLAS thread.
"""

import contextlib
import ctypes
import functools
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field as dc_field, replace

import numpy as np

from .certificate import CertificateParams, build_certificate, check_certificate
from .sensing import (REAL, MeasurementVector, SensingEnsemble, add_noise, derive_seed, measure,
                      sample_ensemble)
from .solvers import DR, NESTEROV, SolverConfig, solve, write_trace_csv

# Trials per stacked solve.  Each step of a stack pays a fixed dispatch cost
# once for all its trials, so larger stacks mean fewer steps; past about 6
# trials the gain levels off, while the padded G^+ of a stack, T M^2 floats,
# keeps growing.
STACK_SIZE = 8


@dataclass
class GridSpec:
    n_values: list
    m_values: list
    trials: int = 10
    eps: float = 0.1
    solver: SolverConfig = dc_field(default_factory=SolverConfig)
    master_seed: int = 0

    def __post_init__(self):
        if not self.n_values or not self.m_values:
            raise ValueError("n_values and m_values must be nonempty")
        if min(self.n_values) < 1 or min(self.m_values) < 1:
            raise ValueError(f"n and m must be >= 1, got smallest n={min(self.n_values)}, "
                             f"m={min(self.m_values)}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not (math.isfinite(self.eps) and self.eps >= 0):
            raise ValueError(f"eps must be a finite number >= 0, got {self.eps!r}")


@dataclass(frozen=True)
class TrialRow:
    n: int
    m: int
    trial: int
    seed: int
    iters: int
    recovery_error: float  # nan marks a failed solve
    residual: float
    wall_ms: float         # an equal share of the group's time; informational only, never serialized


@dataclass
class GridResult:
    spec: GridSpec
    rows: list


def sample_unit_sphere(n, seed):
    """Uniform direction: a normalized standard normal vector."""
    x = np.random.default_rng(seed).standard_normal(n)
    return x / np.linalg.norm(x)


def _draw_instance(n, m, seed):
    """(x0, e): sub-stream 0 of `seed` gives a unit direction, 1 a real ensemble."""
    return (sample_unit_sphere(n, derive_seed(seed, 0)),
            sample_ensemble(n, m, REAL, derive_seed(seed, 1)))


@functools.cache
def _openblas_threads():
    """(get, set) of numpy's bundled OpenBLAS thread count, or None without it."""
    try:
        lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
        get = lib.scipy_openblas_get_num_threads64_
        put = lib.scipy_openblas_set_num_threads64_
    except (OSError, AttributeError):
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    put.argtypes, put.restype = [ctypes.c_int], None
    return get, put


@contextlib.contextmanager
def _single_blas_thread():
    """Run the body on one OpenBLAS thread and restore the count afterwards.

    Does nothing when numpy's BLAS does not export the OpenBLAS calls.
    """
    api = _openblas_threads()
    if api is None:
        yield
        return
    get, put = api
    before = get()
    put(1)
    try:
        yield
    finally:
        put(before)


def _stacked_solve(n, ms, eps, solver, seeds):
    """(recovery error, residual) of each trial, from one stacked `solve`.

    Trial i has `ms[i]` measurements and the seed `seeds[i]`, whose
    sub-streams are 0 = signal direction, 1 = ensemble, 2 = noise.  Z and b
    are zero-padded to the largest m, which is exact (see `projections`).
    A group of one is solved unstacked, exactly as a lone trial.
    """
    M = max(ms)
    X0, Z, values = [], [], []
    for m, seed in zip(ms, seeds):
        x0, e = _draw_instance(n, m, seed)
        b = add_noise(measure(e, x0), eps, 1.0, seed=derive_seed(seed, 2))
        X0.append(np.outer(x0, x0))
        Z.append(np.pad(e.vectors, ((0, M - m), (0, 0))))
        values.append(np.pad(b.values, (0, M - m)))
    stack = np.stack if len(ms) > 1 else (lambda arrays: arrays[0])
    last = solve(SensingEnsemble(vectors=stack(Z)), MeasurementVector(values=stack(values)),
                 solver, X0_true=stack(X0)).points[-1]
    return list(zip(np.ravel(last.recovery_error).tolist(), np.ravel(last.residual).tolist()))


def _solve_group(n, ms, eps, solver, seeds):
    """`_stacked_solve`, with failures recorded as (nan, nan) rather than raised.

    A RuntimeError fails a whole stack (a batched `eigh` rejects it for one
    non-finite slice), so a failed group of several trials reruns them as
    groups of one, and only the trials that fail alone get NaN.
    """
    try:
        return _stacked_solve(n, ms, eps, solver, seeds)
    except RuntimeError:
        if len(ms) == 1:
            return [(math.nan, math.nan)]
        return [pair for m, seed in zip(ms, seeds)
                for pair in _solve_group(n, [m], eps, solver, [seed])]


def run_trial(n, m, eps, solver, seed, trial=0):
    """One group of fully seeded experiments of one n: sample, measure, corrupt, solve.

    `m`, `seed` and `trial` are one value each, for one trial and one
    TrialRow, or equal-length sequences, for a group solved as one stack and
    a list of TrialRows in that order; any other mix raises ValueError before
    anything is solved.  Each trial draws from sub-streams
    of its own seed: 0 = signal direction, 1 = ensemble, 2 = noise.  Solver
    failures are recorded as NaN rows rather than raised.  Each row's
    `wall_ms` is an equal share of the group's time.  The group runs on one
    BLAS thread (see the module docstring).
    """
    shape = np.shape(m)
    if {np.shape(seed), np.shape(trial)} != {shape} or len(shape) > 1 or shape == (0,):
        raise ValueError(f"dimension mismatch: m, seed and trial must be scalars or nonempty "
                         f"sequences of one length, got shapes {shape}, {np.shape(seed)} "
                         f"and {np.shape(trial)}")
    start = time.perf_counter()
    group = shape != ()
    ms, seeds, trials = (m, seed, trial) if group else ([m], [seed], [trial])
    with _single_blas_thread():
        results = _solve_group(n, ms, eps, solver, seeds)
    wall_ms = (time.perf_counter() - start) * 1e3 / len(ms)
    rows = [TrialRow(n=n, m=m_i, trial=t, seed=s, iters=solver.max_iters,
                     recovery_error=err, residual=res, wall_ms=wall_ms)
            for m_i, s, t, (err, res) in zip(ms, seeds, trials, results)]
    return rows if group else rows[0]


def _grid_task(args):
    n, ms, trials, seeds, eps, solver = args
    return run_trial(n, ms, eps, solver, seeds, trial=trials)


def _usable_cores():
    """Usable cores: the affinity mask where the OS has one, else the CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _group_cost(task):
    """Flops of one iteration of a group, up to a constant.

    Each of its T slices is lifted on the group's largest m, M rows of
    up to n^2 work each, and factored by an n x n eigh: T n^2 (M + n).
    """
    n, ms = task[0], task[1]
    return len(ms) * n * n * (max(ms) + n)


def run_grid(spec, workers=None):
    """All (n, m, trial) combinations; rows sorted, worker-count invariant.

    `workers` defaults to the usable cores; the pool forks that many workers.
    The trials run in groups: each n's trials in (m, trial) order, cut into
    consecutive runs of at most `STACK_SIZE` (see the module docstring).
    Groups go out one at a time, costliest first, so that no worker is left
    with the largest groups at the end while the others idle.
    """
    trials = sorted((m, t) for m in spec.m_values for t in range(spec.trials))
    tasks = []
    for n in spec.n_values:
        for i in range(0, len(trials), STACK_SIZE):
            stack = trials[i:i + STACK_SIZE]
            seeds = tuple(derive_seed(spec.master_seed, n, m, t) for m, t in stack)
            tasks.append((n, *zip(*stack), seeds, spec.eps, spec.solver))
    tasks.sort(key=_group_cost, reverse=True)
    if workers is None:
        workers = _usable_cores()
    elif workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if workers == 1 or len(tasks) == 1:
        done = [_grid_task(t) for t in tasks]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            done = list(pool.map(_grid_task, tasks, chunksize=1))
    rows = sorted((r for group in done for r in group), key=lambda r: (r.n, r.m, r.trial))
    return GridResult(spec=spec, rows=rows)


def write_grid_csv(result, path):
    """Per-trial rows; wall_ms is deliberately excluded (nondeterministic)."""
    with open(path, "w") as fh:
        fh.write("n,m,trial,seed,iters,recovery_error,residual\n")
        for r in result.rows:
            fh.write(f"{r.n},{r.m},{r.trial},{r.seed},{r.iters},"
                     f"{r.recovery_error!r},{r.residual!r}\n")


def cell_means(result):
    """Mean recovery error per (n, m); NaN rows excluded, counted separately.

    Returns {(n, m): (mean_error, failures)} with mean_error = nan when every
    trial in the cell failed.
    """
    cells = {}
    for r in result.rows:
        cells.setdefault((r.n, r.m), []).append(r.recovery_error)
    out = {}
    for key, errs in cells.items():
        good = [v for v in errs if not math.isnan(v)]
        mean = sum(good) / len(good) if good else math.nan
        out[key] = (mean, len(errs) - len(good))
    return out


def emit_heatmap(result, path):
    """ASCII PGM, one row per n (ascending, top to bottom), one column per m.

    Gray level = round(255 * (1 - min(mean_error, 1))), rounding half up:
    white is exact recovery, black is >= 100% average error (all-failure
    cells render black).
    """
    spec = result.spec
    seen = {(r.n, r.m, r.trial) for r in result.rows}
    missing = [
        (n, m, t)
        for n in spec.n_values for m in spec.m_values for t in range(spec.trials)
        if (n, m, t) not in seen
    ]
    if missing:
        head = ", ".join(map(str, missing[:5]))
        raise ValueError(f"incomplete grid: {len(missing)} missing cells ({head} ...)")
    means = cell_means(result)
    lines = [
        "P2",
        f"{len(spec.m_values)} {len(spec.n_values)}",
        "255",
    ]
    for n in sorted(spec.n_values):
        pixels = []
        for m in sorted(spec.m_values):
            mean = means[(n, m)][0]
            level = 0 if math.isnan(mean) else int(math.floor(255 * (1 - min(mean, 1.0)) + 0.5))
            pixels.append(str(level))
        lines.append(" ".join(pixels))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


CONVERGENCE_METHODS = (
    ("dr", SolverConfig(method=DR)),
    ("nesterov", SolverConfig(method=NESTEROV, alpha=1e-4, lambda_trace=0.0)),
    ("nesterov_trace", SolverConfig(method=NESTEROV, alpha=1e-4, lambda_trace=1e-5)),
)


def run_convergence_study(n, m, seed, out_dir, iters=1000):
    """Noiseless and eps=0.1 traces for the three reference iterations.

    Writes `{method}_{eps}.csv` per combination, six files in `out_dir`,
    which is created only once the configs and the instance are accepted.
    """
    configs = [(name, replace(base, max_iters=iters)) for name, base in CONVERGENCE_METHODS]
    x0, e = _draw_instance(n, m, seed)
    b = measure(e, x0)
    X0 = np.outer(x0, x0)
    os.makedirs(out_dir, exist_ok=True)
    written = []
    for eps in (0.0, 0.1):
        b_eps = add_noise(b, eps, 1.0, seed=derive_seed(seed, 2))
        for name, cfg in configs:
            trace = solve(e, b_eps, cfg, X0_true=X0)
            path = os.path.join(out_dir, f"{name}_{eps:g}.csv")
            write_trace_csv(trace, path)
            written.append(path)
    return written


def run_certify_study(n, m, beta, seeds, seed, out_dir):
    """Certificate checks for `seeds` ensembles -> certificates.csv + summary.txt."""
    if seeds < 1:
        raise ValueError(f"seeds must be >= 1, got {seeds}")
    rows = []
    for k in range(seeds):
        seed_k = derive_seed(seed, k)
        anchor, e = _draw_instance(n, m, seed_k)
        Y, lam = build_certificate(e, CertificateParams(anchor=anchor, beta=beta))
        rows.append((k, seed_k, check_certificate(Y, lam, anchor)))
    os.makedirs(out_dir, exist_ok=True)  # only now, so a rejected input writes nothing
    with open(os.path.join(out_dir, "certificates.csv"), "w") as fh:
        fh.write("trial,seed,y_t_nuclear,t_perp_min_eig,t_perp_dev,lambda_l1,"
                 "truncation_rate,pass_y_t,pass_t_perp,pass_lambda\n")
        for k, seed_k, r in rows:
            fh.write(f"{k},{seed_k},{r.y_t_nuclear!r},{r.t_perp_min_eig!r},"
                     f"{r.t_perp_dev!r},{r.lambda_l1!r},{r.truncation_rate!r},"
                     f"{int(r.pass_y_t)},{int(r.pass_t_perp)},{int(r.pass_lambda)}\n")
    reports = [r for _, _, r in rows]
    count = len(reports)
    summary = [
        f"n={n}",
        f"m={m}",
        f"beta={beta!r}",
        f"seeds={count}",
        f"mean_y_t_nuclear={sum(r.y_t_nuclear for r in reports) / count!r}",
        f"mean_t_perp_min_eig={sum(r.t_perp_min_eig for r in reports) / count!r}",
        f"mean_lambda_l1={sum(r.lambda_l1 for r in reports) / count!r}",
        f"mean_truncation_rate={sum(r.truncation_rate for r in reports) / count!r}",
        f"frac_pass_y_t={sum(r.pass_y_t for r in reports) / count!r}",
        f"frac_pass_t_perp={sum(r.pass_t_perp for r in reports) / count!r}",
        f"frac_pass_lambda={sum(r.pass_lambda for r in reports) / count!r}",
        f"frac_pass_all={sum(r.all_pass for r in reports) / count!r}",
    ]
    with open(os.path.join(out_dir, "summary.txt"), "w") as fh:
        fh.write("\n".join(summary) + "\n")
