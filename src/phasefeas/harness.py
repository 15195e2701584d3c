"""Experiment harness: phase-transition grids, convergence traces, heatmaps,
and dual-certificate studies.

A trial draws from its own seed only: the signal, the ensemble, and the
noise draw all come from sub-streams of the per-trial seed, and the
per-trial seed is derived from (master_seed, n, m, trial).  A grid row is
a function of its seed and of the grid's spec: the spec fixes the trial's
stack-mates, and the zero padding to their largest m moves the order of
rounding (see below), so a row that two specs share agrees between them
within 1e-12 + 1e-8|v|, not bit for bit.  The worker count, the order of
execution and a rerun change no byte: rerunning any command with the same
arguments reproduces its CSV/PGM artifacts byte for byte (which is why
the nondeterministic wall_ms column stays out of the files).

A grid runs its trials in groups, one stacked solve per group (see
`solvers`): the trials of one n, sorted by (m, trial), cut first at
m = d (`linalg.hermitian_dim`) and then into consecutive runs of at most
`STACK_SIZE`, so that a group's trials have neighbouring m and a group's
memory is bounded.  The cut at d keeps the two DR regimes apart: a DR
group of m >= d, whose Gram matrices generically have full rank d, stops
after one step, and a group of m < d runs all its steps; a stack that
mixed them would run every trial to the end.  A Nesterov grid is cut the
same way, and runs every step on both sides.  Each trial is drawn on its
own, as a lone trial, and zero-padded to the group's largest m; the
stack then goes to `solve` as one problem, with one Gram factorization
and one set of calls per step for all its trials.  A lone trial runs
the same way, as a stack of one, which gives the unstacked solve's bits.
The groups, and so every row, do not depend on the worker count.

A group's solve, serial or in a pool worker, runs on one OpenBLAS thread,
as every `solve` does (see `solvers`), so a trial's bits do not depend on
where it ran.  `run_grid` takes that pin itself, in the parent, around all
its groups: the pool is built and forked at one thread, each worker
inherits the count, and its `solve`'s pin sets nothing.  A set call in a
forked worker would restart OpenBLAS's thread server, whose helper spins
0.13 s of CPU on the cores the solves need; so no pool initializer pins
inside the child.  Nor does a pool outlive its `run_grid`: its workers
would never end, and their memory would drop out of the RUSAGE_CHILDREN
peak that measures a grid.  The previous count comes back when `run_grid`
returns or raises.  After a pool, setting it back restarts the parent's
server (the fork shut it down), and its helper spins once, about 0.13 s
of CPU: one spin after the grid in place of one in each worker during it.

Only a pooled `run_grid` (two or more workers) imports the pool, from
`concurrent.futures`, and `multiprocessing`, so that no other use of the
package loads them (a bare `import phasefeas.cli` peaks 1.9 MiB lower
without them, Python 3.11 on Linux).  On Linux the pool starts its
workers by fork, named explicitly, because the pin and the RUSAGE_CHILDREN
peak above assume it and Python 3.14 makes forkserver the default there;
elsewhere it keeps the platform's default method.
"""

import math
import os
import sys
import time
from dataclasses import dataclass, field as dc_field, fields, replace
from operator import attrgetter

import numpy as np

from .certificate import CertificateParams, CertificateReport, build_certificate, check_certificate
from .linalg import hermitian_dim, require_integer
from .sensing import (REAL, MeasurementVector, SensingEnsemble, add_noise, derive_seed, measure,
                      sample_ensemble)
from .solvers import (DR, NESTEROV, SolverConfig, _single_blas_thread, format_cell, solve,
                      write_rows, write_trace_csv)

# Trials per stacked solve.  Each step of a stack pays a fixed dispatch cost
# once for all its trials, so larger stacks mean fewer steps; past about 6
# trials the gain levels off, while the padded G^+ of a stack, T M^2 floats,
# keeps growing.
STACK_SIZE = 8


@dataclass
class GridSpec:
    """The grid: distinct n and m values, trials per cell, noise level, solver and seed.

    `solver.record_every` does not apply to a grid: each trial keeps only
    its last point (see `run_trial`).
    """

    n_values: list
    m_values: list
    trials: int = 10
    eps: float = 0.1
    solver: SolverConfig = dc_field(default_factory=SolverConfig)
    master_seed: int = 0

    def __post_init__(self):
        if len(self.n_values) == 0 or len(self.m_values) == 0:
            raise ValueError("n_values and m_values must be nonempty")
        for name in ("n_values", "m_values"):
            values = getattr(self, name)
            for v in values:
                require_integer(f"every value in {name}", v)
            if len(set(values)) != len(values):
                raise ValueError(f"{name} must not repeat a value, got {values!r}")
        require_integer("trials", self.trials)
        require_integer("master_seed", self.master_seed)
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
    iters: int             # the configured cap, solver.max_iters, not the steps run
    recovery_error: float  # nan marks a failed solve
    residual: float
    wall_ms: float         # an equal share of its solve's time; informational only, never serialized


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


def run_trial(n, m, eps, solver, seed, trial=0):
    """One group of fully seeded experiments of one n: sample, measure, corrupt, solve.

    `m`, `seed` and `trial` are one value each, for one trial and one
    TrialRow, or equal-length sequences, for a group and a list of
    TrialRows in that order; any other mix raises ValueError before
    anything is solved.  Either way the trials go to `solve` as one stack
    (T, M, n), T >= 1, with Z and b zero-padded to the largest m, which is
    exact (see `projections`); a stack of one gives the lone solve's bits.
    Each trial draws from sub-streams of its own seed: 0 = signal
    direction, 1 = ensemble, 2 = noise.  A failed solve is recorded as a
    NaN row rather than raised: a RuntimeError fails a whole stack (a
    batched `eigh` rejects it for one non-finite slice), so a failed group
    of several trials reruns them one at a time, and only the trials that
    fail alone get NaN.  Each row's `wall_ms` is an equal share of its
    solve's time: of the group's, or of its own rerun's.  A trial keeps
    only its last point, so it solves with `record_every = max_iters`
    whatever `solver.record_every` says; the last point is the same at
    any `record_every`.
    """
    shape = np.shape(m)
    if {np.shape(seed), np.shape(trial)} != {shape} or len(shape) > 1 or shape == (0,):
        raise ValueError(f"dimension mismatch: m, seed and trial must be scalars or nonempty "
                         f"sequences of one length, got shapes {shape}, {np.shape(seed)} "
                         f"and {np.shape(trial)}")
    start = time.perf_counter()
    group = shape != ()
    ms, seeds, trials = (m, seed, trial) if group else ([m], [seed], [trial])
    M = max(ms)
    X0, Z, values = [], [], []
    for m_i, s in zip(ms, seeds):
        x0, e = _draw_instance(n, m_i, s)
        b = add_noise(measure(e, x0), eps, 1.0, seed=derive_seed(s, 2))
        X0.append(np.outer(x0, x0))
        Z.append(np.pad(e.vectors, ((0, M - m_i), (0, 0))))
        values.append(np.pad(b.values, (0, M - m_i)))
    try:
        last = solve(SensingEnsemble(vectors=np.stack(Z)),
                     MeasurementVector(values=np.stack(values)),
                     replace(solver, record_every=solver.max_iters),
                     X0_true=np.stack(X0)).points[-1]
    except RuntimeError:
        if group:
            return [run_trial(n, m_i, eps, solver, s, t) for m_i, s, t in zip(ms, seeds, trials)]
        results = [(math.nan, math.nan)]
    else:
        results = zip(last.recovery_error, last.residual)
    wall_ms = (time.perf_counter() - start) * 1e3 / len(ms)
    rows = [TrialRow(n=n, m=m_i, trial=t, seed=s, iters=solver.max_iters,
                     recovery_error=err, residual=res, wall_ms=wall_ms)
            for m_i, s, t, (err, res) in zip(ms, seeds, trials, results)]
    return rows if group else rows[0]


def _usable_cores():
    """Usable cores: the affinity mask where the OS has one, else the CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _group_cost(task):
    """Flops of one iteration of a group, up to a constant.

    Each of its T slices is lifted on the group's largest m, M rows of
    up to n^2 work each, and factored by an n x n eigh: T n^2 (M + n).
    It ranks a group of m >= d, which DR solves in one step, as if it ran
    every step, as a group of m < d does.  That overrates the one-step
    groups, and they go out early, but on the benchmark grid it costs
    little: from the groups' serial times (medians of 7 passes, 2-core
    host), the larger load of 2 workers taking them in this order came
    0.5 to 4% above an even split in four measurements, and at most 1.5%
    above an order that counts one step for those groups.  So the cost
    leaves the step count out.

    `run_grid` dispatches the costliest groups first because it measures
    faster than submission order (this cost patched to a constant) at 2
    workers on a 2-core host, in sets of 12 alternating pairs, with the
    workers forked at one OpenBLAS thread: the benchmark grid (n 5:20:5,
    m 10:110:10, 1 trial) took medians of 0.73 to 0.83 s against 0.76 to
    0.91 s in four sets, faster in 31 of 48 pairs, and a wider grid
    (n 5:30:5, m 10:150:20, 2 trials, 400 steps) 1.18 and 1.28 s against
    1.34 and 1.37 s in two sets, faster in 18 of 24.
    """
    n, ms = task[0], task[1]
    return len(ms) * n * n * (max(ms) + n)


def run_grid(spec, workers=None):
    """All (n, m, trial) combinations; rows sorted, worker-count invariant.

    `workers` is an upper bound, defaulting to the usable cores: the grid
    runs on at most one worker per group, min(workers, groups), in process
    when that is 1 and otherwise in a pool of that many workers, forked on Linux.
    The trials run in groups: each n's trials in (m, trial) order, cut at
    m = d and then into consecutive runs of at most `STACK_SIZE` (see the
    module docstring).
    Groups go out one at a time, costliest first, so that no worker is left
    with the largest groups at the end while the others idle.
    """
    trials = sorted((m, t) for m in spec.m_values for t in range(spec.trials))
    tasks = []
    for n in spec.n_values:
        cut = sum(m < hermitian_dim(n, REAL) for m, _ in trials)  # grid trials are real
        for part in (trials[:cut], trials[cut:]):
            for i in range(0, len(part), STACK_SIZE):
                ms, ts = zip(*part[i:i + STACK_SIZE])
                seeds = tuple(derive_seed(spec.master_seed, n, m, t) for m, t in zip(ms, ts))
                tasks.append((n, ms, spec.eps, spec.solver, seeds, ts))
    tasks.sort(key=_group_cost, reverse=True)
    if workers is None:
        workers = _usable_cores()
    elif workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    workers = min(workers, len(tasks))
    with _single_blas_thread():
        if workers == 1:
            done = [run_trial(*t) for t in tasks]
        else:
            import multiprocessing  # only a pooled grid loads the pool (see the module docstring)
            from concurrent.futures import ProcessPoolExecutor

            context = multiprocessing.get_context("fork") if sys.platform == "linux" else None
            with ProcessPoolExecutor(max_workers=workers, mp_context=context) as pool:
                done = list(pool.map(run_trial, *zip(*tasks)))
    rows = sorted((r for group in done for r in group), key=lambda r: (r.n, r.m, r.trial))
    return GridResult(spec=spec, rows=rows)


def write_grid_csv(result, path):
    """Per-trial rows: TrialRow's fields in order, less the nondeterministic wall_ms.

    `iters` is the configured cap, `SolverConfig.max_iters` (`--iters`), not
    the steps a trial ran: a DR trial of m >= d stops after one step.
    """
    names = [f.name for f in fields(TrialRow) if f.name != "wall_ms"]
    write_rows(path, names, map(attrgetter(*names), result.rows))


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


def run_convergence_study(n, m, seed, out_dir, iters=SolverConfig.max_iters):
    """Noiseless and eps=0.1 traces for the three reference iterations.

    Writes `{method}_{eps}.csv` per combination, six files in `out_dir`,
    which is created only once the configs and the instance are accepted.
    """
    for name, value in (("n", n), ("m", m), ("seed", seed)):
        require_integer(name, value)
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
    """Certificate checks for `seeds` ensembles -> certificates.csv + summary.txt.

    certificates.csv holds `trial,seed` and then CertificateReport's fields
    in order; summary.txt one `key=value` line per setting, mean and pass
    fraction.  Every value is written by `format_cell`.
    """
    for name, value in (("n", n), ("m", m), ("seeds", seeds), ("seed", seed)):
        require_integer(name, value)
    if seeds < 1:
        raise ValueError(f"seeds must be >= 1, got {seeds}")
    rows = []
    for k in range(seeds):
        seed_k = derive_seed(seed, k)
        anchor, e = _draw_instance(n, m, seed_k)
        Y, lam = build_certificate(e, CertificateParams(anchor=anchor, beta=beta))
        rows.append((k, seed_k, check_certificate(Y, lam, anchor)))
    os.makedirs(out_dir, exist_ok=True)  # only now, so a rejected input writes nothing
    names = [f.name for f in fields(CertificateReport)]
    values = attrgetter(*names)
    write_rows(os.path.join(out_dir, "certificates.csv"), ["trial", "seed", *names],
               ((k, seed_k, *values(r)) for k, seed_k, r in rows))
    count = len(rows)
    averaged = [("mean_y_t_nuclear", "y_t_nuclear"), ("mean_t_perp_min_eig", "t_perp_min_eig"),
                ("mean_lambda_l1", "lambda_l1"), ("mean_truncation_rate", "truncation_rate"),
                ("frac_pass_y_t", "pass_y_t"), ("frac_pass_t_perp", "pass_t_perp"),
                ("frac_pass_lambda", "pass_lambda"), ("frac_pass_all", "all_pass")]
    summary = [("n", n), ("m", m), ("beta", beta), ("seeds", count)] + [
        (key, sum(getattr(r, a) for _, _, r in rows) / count) for key, a in averaged]
    with open(os.path.join(out_dir, "summary.txt"), "w") as fh:
        fh.write("".join(f"{key}={format_cell(v)}\n" for key, v in summary))
