"""Seeded benchmark for phasefeas.

    python3 perfbench/run.py --workload grid --seed 0 --seconds 28 --trace 0

Runs one workload in a closed loop with one client (the next op starts when
the last one ends) and prints its end-to-end metrics (``--trace 0``) or its
per-layer metrics from an outside-in traced run (``--trace 1``).  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Workloads, metrics and the
layer-to-metric mapping are described in perfbench/README.md.

The package is imported from ``src/`` of the checkout this file sits in; the
run exits with code 2 and prints no result when it is missing.  Scratch files
go to ``.perfbench_work/`` (removed at exit) and spans of a traced run to
``.perfbench_out/``.
"""

import argparse
import bisect
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from array import array
from pathlib import Path

import numpy as np

from tracer import Tracer, eigh_counts, lifted_counts
from workloads import NPROC, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFERENCE = Path(__file__).resolve().parent / "reference.json"

SETUP_REPEATS = 5
COVERAGE_FLOOR = 0.9
REF_RTOL, REF_ATOL = 1e-6, 1e-12   # stored-reference tolerance, default seed only
DEFAULT_SEED = 0
# Op times are scaled to the reference machine's speed (HostSpeed).
CAL_REF_S = 0.005    # calibration kernel time on the reference machine
CAL_EVERY_S = 0.25
_CAL_RNG = np.random.default_rng(0)
_CAL_S = _CAL_RNG.standard_normal((20, 20))
_CAL_S = _CAL_S + _CAL_S.T
_CAL_Z = _CAL_RNG.standard_normal((60, 20))
_CAL_EIGH = np.linalg.eigh   # bound before the traced run wraps np.linalg.eigh
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "GOTO_NUM_THREADS")

# Public functions timed by the traced run, as (module, function).
LAYERS = [
    ("sensing", "apply_lifted"), ("sensing", "apply_adjoint"), ("sensing", "sample_ensemble"),
    ("sensing", "measure"), ("sensing", "add_noise"),
    ("linalg", "eig"), ("linalg", "schatten_norm"), ("linalg", "project_T"),
    ("projections", "project_affine"), ("projections", "project_psd"),
    ("projections", "build_affine_projector"), ("projections", "recovery_error"),
    ("projections", "leading_eigenvector"),
    ("solvers", "solve_dr"), ("solvers", "solve_pocs"), ("solvers", "solve_nesterov"),
    ("solvers", "round_to_vector"), ("solvers", "write_trace_csv"),
    ("certificate", "build_certificate"), ("certificate", "check_certificate"),
    ("harness", "run_grid"), ("harness", "run_trial"), ("harness", "write_grid_csv"),
    ("harness", "emit_heatmap"),
    ("cli", "read_measurements"), ("cli", "main"),
]
EIGH = "linalg.eigh"   # numpy.linalg.eigh as the package calls it
COUNTED = ("sensing.apply_lifted", EIGH)


def fresh_import():
    """Import the package (and its CLI) from src/, dropping any earlier import."""
    for key in [k for k in sys.modules if k == "phasefeas" or k.startswith("phasefeas.")]:
        del sys.modules[key]
    pf = importlib.import_module("phasefeas")
    importlib.import_module("phasefeas.cli")
    if Path(pf.__file__).resolve().parent != SRC / "phasefeas":
        raise ImportError(f"phasefeas imported from {pf.__file__}, not from {SRC}")
    return pf


def machine():
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": NPROC,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def calibration_kernel():
    """Fixed small-matrix numpy work of the kind the solvers' inner loops do.

    A PSD projection of a 20 x 20 symmetric matrix and 60 quadratic forms,
    40 times.  It uses no phasefeas code, and at 20 x 20 OpenBLAS runs
    single-threaded, so neither the package nor its BLAS thread settings
    can move it.
    """
    total = 0.0
    for _ in range(40):
        w, V = _CAL_EIGH(_CAL_S)
        Y = (V * np.maximum(w, 0.0)) @ V.T
        total += float(np.einsum("ij,jk,ik->i", _CAL_Z, Y, _CAL_Z).sum())
    return total


class HostSpeed:
    """Host speed relative to the reference machine, from the calibration kernel.

    On a shared VM the same work can take up to twice as long for tens of
    seconds at a time.  Between units, at most every CAL_EVERY_S, the kernel
    runs three times and the median time is kept; work that ran from t0 to
    t1 is scaled by CAL_REF_S over the median of the two kept timings before
    t0 and the two after t1.
    """

    def __init__(self):
        self.starts, self.costs = [], []
        self.due = 0.0

    def sample(self, force=False):
        now = time.perf_counter()
        if force or now >= self.due:
            costs = []
            for _ in range(3):
                t0 = time.perf_counter()
                calibration_kernel()
                costs.append(time.perf_counter() - t0)
            self.starts.append(now)
            self.costs.append(statistics.median(costs))
            self.due = time.perf_counter() + CAL_EVERY_S

    def factor(self, t0, t1):
        i = bisect.bisect_right(self.starts, t0)
        j = bisect.bisect_left(self.starts, t1)
        return CAL_REF_S / statistics.median(self.costs[max(0, i - 2):i] + self.costs[j:j + 2])

    def mean_factor(self, t0, t1):
        """CAL_REF_S over the mean of all timings kept from t0 to t1."""
        i = bisect.bisect_left(self.starts, t0)
        j = bisect.bisect_right(self.starts, t1)
        return CAL_REF_S / statistics.fmean(self.costs[i:j])


class Stats:
    """Per-unit start and end, and op latencies as flat arrays, so memory does not grow with ops."""

    def __init__(self):
        self.starts, self.ends = array("d"), array("d")
        self.raw = array("d")      # op latencies in seconds
        self.scaled = array("d")   # the same, scaled to the reference speed
        self.factors = array("d")  # per unit
        self.unit_rates = array("d")  # per unit, ops / scaled unit time
        self.wall = 0.0            # time inside units, scaled
        self.raw_wall = 0.0
        self.units = 0
        self.ops = 0
        self.failed = 0


def run_units(unit, check, problems, speed, seconds=None, min_units=1, units=None,
              run_factor=False):
    """Closed loop over units k = 0, 1, ...; checks and calibration run outside the timer.

    Stops after ``units`` units when given; otherwise once ``min_units`` are
    done and the next unit, at the mean unit time, would end past ``seconds``.
    Each unit is scaled by the timings next to it, or with ``run_factor`` all
    units by one factor from the mean of every timing in the loop.
    """
    stats = Stats()
    clock = time.perf_counter
    start = clock()
    bounds = [0]
    speed.sample(force=True)
    while True:
        t0 = clock()
        result = unit(stats.units)
        t1 = clock()
        speed.sample()
        if t1 - t0 > 4 * CAL_EVERY_S:
            # Fresh samples after a long unit: two give its factor and the next
            # unit's; a run-wide factor averages more of them.
            for _ in range(8 if run_factor else 1):
                speed.sample(force=True)
        check(stats.units, result.output, problems)
        stats.raw.extend([t1 - t0] if result.latencies is None else result.latencies)
        bounds.append(len(stats.raw))
        stats.starts.append(t0)
        stats.ends.append(t1)
        stats.raw_wall += t1 - t0
        stats.units += 1
        stats.failed += result.failed
        if units is not None:
            done = stats.units >= units
        else:
            done = (stats.units >= min_units
                    and clock() - start + stats.raw_wall / stats.units > seconds)
        if done:
            break
    speed.sample(force=True)
    speed.sample(force=True)
    stats.ops = len(stats.raw)
    whole = speed.mean_factor(start, clock()) if run_factor else None
    for k, (t0, t1) in enumerate(zip(stats.starts, stats.ends)):
        f = whole or speed.factor(t0, t1)
        stats.factors.append(f)
        stats.unit_rates.append((bounds[k + 1] - bounds[k]) / ((t1 - t0) * f))
        stats.scaled.extend(x * f for x in stats.raw[bounds[k]:bounds[k + 1]])
        stats.wall += (t1 - t0) * f
    return stats


def tail(latencies, block):
    """Highest percentile with at least ten samples beyond it, per full block of ops.

    Returns (median over blocks, the percentile, the number of blocks).
    """
    blocks = [sorted(latencies[i:i + block]) for i in range(0, len(latencies) - block + 1, block)]
    return statistics.median(b[block - 11] for b in blocks), 100.0 * (block - 10) / block, len(blocks)


def peak_rss_mb(grid):
    """Main process peak; for grid plus NPROC times the largest worker's peak."""
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if grid:
        rss += NPROC * resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return rss / 1024.0


def check_reference(wl, problems, write):
    refs = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    values = [float(v) for v in wl.reference_values()]
    if write:
        refs[wl.name] = values
        REFERENCE.write_text(json.dumps(refs, indent=1) + "\n")
        return
    stored = refs.get(wl.name)
    if stored is None:
        problems.append(f"no stored reference for {wl.name}")
    elif len(stored) != len(values) or not np.allclose(values, stored, rtol=REF_RTOL,
                                                        atol=REF_ATOL):
        problems.append(f"{wl.name}: outputs differ from the stored reference "
                        f"(rtol {REF_RTOL}, atol {REF_ATOL})")


def end_to_end(wl, stats, setup_times, problems, seed, write_reference):
    wl.final_checks(problems)
    if seed == DEFAULT_SEED:
        check_reference(wl, problems, write_reference)
    latencies = stats.scaled
    block = wl.pass_ops if wl.tail_per_pass else len(latencies)
    tail_value, pct, blocks = tail(latencies, block)
    print(f"op_s_tail: percentile {pct:.3f} of {block} samples, "
          f"median over {blocks} blocks of {len(latencies)} ops")
    print(f"setup_s runs: {[t for t, _ in setup_times]}")
    print(f"raw wall clock: ops_per_s={stats.ops / stats.raw_wall!r} "
          f"op_s_p50={statistics.median(stats.raw)!r} "
          f"setup_s={statistics.median(t for t, _ in setup_times)!r}")
    print(f"host speed factor: median {statistics.median(stats.factors)!r}, "
          f"min {min(stats.factors)!r}, max {max(stats.factors)!r}")
    # Where units hold many ops (grid passes), the median over units drops a slow one.
    rate = statistics.median(stats.unit_rates) if stats.ops > stats.units else stats.ops / stats.wall
    return {
        "ops_per_s": (rate, "1/s"),
        "op_s_p50": (statistics.median(latencies), "s"),
        "op_s_tail": (tail_value, "s"),
        "setup_s": (statistics.median(t * f for t, f in setup_times), "s"),
        "peak_rss_mb": (peak_rss_mb(wl.name == "grid"), "MiB"),
        "ok_frac": ((stats.ops - stats.failed) / stats.ops, "frac"),
        "recovery_error_mean": (wl.quality(), "ratio"),
    }


def install(tracer, op_root):
    for mod, fn in LAYERS:
        name = f"{mod}.{fn}"
        options = {}
        if name == "sensing.apply_lifted":
            options["counts"] = lifted_counts
        if mod == "solvers" and fn.startswith("solve_"):
            options["on_return"] = tracer.count_solver_iterations
        if name == op_root:
            options["opens_op"] = True
        tracer.install(name, sys.modules[f"phasefeas.{mod}"], fn, **options)
    tracer.install(EIGH, np.linalg, "eigh", counts=eigh_counts)


def traced(wl, seconds, speed, problems):
    """Untraced run, then the same ops traced; returns (tracer, traced stats, extras)."""
    tracer = Tracer()
    extras = {}
    if wl.name == "grid":
        # Serially, so every span is in this process; the NPROC pass gives the pool figures.
        serial = run_units(lambda k: wl.unit(k, workers=1), wl.check, problems, speed, units=1)
        pool = run_units(lambda k: wl.unit(k, workers=NPROC), wl.check, problems, speed, units=1)
        pool_wall = wl.grid_wall
        install(tracer, "harness.run_trial")
        try:
            stats = run_units(lambda k: wl.unit(k, workers=1), wl.check, problems, speed, units=1)
        finally:
            tracer.uninstall()
        t1, tn, tt = (sum(r.raw) for r in (serial, pool, stats))
        extras["harness.scaling_eff"] = t1 / (NPROC * pool_wall)
        extras["harness.trial_slowdown"] = tn / t1
        extras["harness.pool_busy_frac"] = tn / (NPROC * pool_wall)
        extras["trace.overhead_frac"] = tt / t1 - 1.0
        return tracer, stats, extras
    untraced = run_units(wl.unit, wl.check, problems, speed, seconds=seconds / 2)
    install(tracer, None)
    unit = tracer.wrap("bench.op", wl.unit, opens_op=True)
    try:
        stats = run_units(unit, wl.check, problems, speed, units=untraced.units)
    finally:
        tracer.uninstall()
    extras["trace.overhead_frac"] = stats.wall / untraced.wall - 1.0
    return tracer, stats, extras


def per_layer(wl, tracer, extras, problems):
    st = tracer.self_times()
    ops = tracer.ops
    metrics = {}
    for name in [f"{mod}.{fn}" for mod, fn in LAYERS] + [EIGH]:
        if tracer.bindings.get(name, 0) < 1:
            problems.append(f"trace: {name} is bound in no namespace")
        calls, self_s = st.get(name, (0, 0.0))
        metrics[f"{name}.calls"] = (calls / ops, "calls/op")
        metrics[f"{name}.self_s"] = (self_s / ops, "s/op")
    for name in COUNTED:
        flops, nbytes = tracer.work[name]
        calls, self_s = st.get(name, (0, 0.0))
        metrics[f"{name}.flops_computed"] = (flops / calls if calls else 0.0, "flop/call")
        metrics[f"{name}.bytes_computed"] = (nbytes / calls if calls else 0.0, "B/call")
        metrics[f"{name}.gflops_computed"] = (flops / self_s / 1e9 if self_s > 0 else 0.0,
                                              "GFLOP/s")
    metrics["solvers.iterations"] = (tracer.iterations / ops, "iter/op")
    to_tol = getattr(wl, "iters_to_tol", {})
    for method in ("dr", "pocs", "nesterov"):
        values = to_tol.get(method)
        metrics[f"solvers.iters_to_tol.{method}"] = (float(statistics.mean(values)) if values else 0.0,
                                                     "iter")
    for name, unit in (("harness.scaling_eff", "ratio"), ("harness.trial_slowdown", "ratio"),
                       ("harness.pool_busy_frac", "frac")):
        metrics[name] = (extras.get(name, 0.0), unit)
    coverage = tracer.coverage()
    metrics["trace.coverage"] = (coverage, "frac")
    metrics["trace.overhead_frac"] = (extras["trace.overhead_frac"], "frac")
    if coverage < COVERAGE_FLOOR:
        problems.append(f"trace: coverage {coverage:.3f} below floor {COVERAGE_FLOOR}")
    # Calls lost through an unpatched binding break these identities.
    calls = {name: st.get(name, (0, 0.0))[0] for name in st}
    psd = calls.get("projections.project_psd", 0)
    eig = calls.get("linalg.eig", 0)
    if psd != tracer.iterations:
        problems.append(f"trace: {psd} project_psd calls for {tracer.iterations} iterations")
    if eig != psd + calls.get("projections.leading_eigenvector", 0):
        problems.append("trace: linalg.eig calls != project_psd + leading_eigenvector calls")
    if calls.get(EIGH, 0) != eig + calls.get("projections.build_affine_projector", 0):
        problems.append("trace: eigh calls != eig + build_affine_projector calls")
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=28)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help=f"store this run's outputs as the reference (seed {DEFAULT_SEED}, trace 0)")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if args.write_reference and (args.seed != DEFAULT_SEED or args.trace):
        parser.error(f"--write-reference needs --seed {DEFAULT_SEED} --trace 0")
    if not (SRC / "phasefeas" / "__init__.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    record = machine()
    print("machine:", json.dumps(record, sort_keys=True))
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    wl = WORKLOADS[args.workload]()
    problems = []
    try:
        speed = HostSpeed()
        setup_times = []   # (seconds, host speed factor)
        for _ in range(SETUP_REPEATS):
            speed.sample(force=True)
            t0 = time.perf_counter()
            wl.setup(fresh_import(), args.seed, str(work))
            t1 = time.perf_counter()
            speed.sample(force=True)
            speed.sample(force=True)
            setup_times.append((t1 - t0, speed.factor(t0, t1)))
        if args.trace:
            tracer, stats, extras = traced(wl, args.seconds, speed, problems)
            metrics = per_layer(wl, tracer, extras, problems)
            out = ROOT / ".perfbench_out"
            out.mkdir(exist_ok=True)
            spans = out / f"spans-{args.workload}-seed{args.seed}.csv.gz"
            tracer.write(spans, json.dumps({"workload": args.workload, "seed": args.seed,
                                            "machine": record}))
            print(f"spans: {len(tracer.spans)} written to {spans.relative_to(ROOT)}")
        else:
            wl.warm_up()
            stats = run_units(wl.unit, wl.check, problems, speed, seconds=args.seconds,
                              min_units=wl.first_pass, run_factor=wl.run_factor)
            metrics = end_to_end(wl, stats, setup_times, problems, args.seed,
                                 args.write_reference)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    for problem in problems:
        print("check failed:", problem)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    print(json.dumps({
        "correct": not problems and stats.failed == 0,
        "attempted": stats.ops,
        "failed": stats.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
