"""Where a DR step's time goes: the kernels of one step, timed one by one.

Usage: python tools/step_profile.py [--calls 300] [--repeats 7] [--steps 50]

Imports the package from `src/` of the checkout this script sits in.  For
each shape it draws a stack of T noisy trials (eps = 0.1) of one n, at
m = M - 10 (T - 1), ..., M - 10, M, zero-padded to M rows as a grid stack
is, factors its affine projector, and runs a DR solve of `--steps` steps.
On that solve's last iterate X, whose largest rank in the stack is the
column r, with its lifted vector L(X) and residual vector v = L(X) - b, it
then times, each as the median over `--repeats` runs of `--calls` calls,
the runs of every kernel taken in turn:

  eigh       the batched `numpy.linalg.eigh` of X
  psd        `project_psd(X)`, its `eigh` included
  adjoint    `apply_adjoint(e, v)`
  lift       `apply_lifted_factor(e, W)`, W the factor `project_psd` returns
  G+ apply   the affine projector's dense `pinv` times v, as DR applies it
  record     one trace record of the solver loop, with the ground truth, as
             the difference of loops of 2 `--calls` and `--calls` records

and prints µs per call, next to the mean µs per step of the solve itself
(the median of `--repeats` solves, the projector's factorization left out).
Everything runs on one OpenBLAS thread, as every `solve` does.

Shapes: the benchmark grid's stacks (n, T, M) = (15, 8, 80), (20, 8, 80)
and (20, 3, 110), real; `solve-large`'s (50, 1, 250), real; and
`trace-complex`'s (20, 1, 160), complex.  Every one has M below
d = `hermitian_dim(n, field)`, so its DR solve runs every step.
"""

import argparse
import os
import statistics
import sys
import time

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src"))

from phasefeas import (COMPLEX, REAL, MeasurementVector, SensingEnsemble, SolverConfig,  # noqa: E402
                       add_noise, apply_adjoint, apply_lifted_factor,
                       build_affine_projector, derive_seed, measure, project_psd, sample_ensemble,
                       solve_dr, solvers)

SHAPES = [(15, 8, 80, REAL), (20, 8, 80, REAL), (20, 3, 110, REAL), (50, 1, 250, REAL),
          (20, 1, 160, COMPLEX)]
EPS = 0.1


def draw_stack(n, T, M, field, seed=0):
    """(e, b, X0) of T trials of one n, m = M - 10 (T - 1), ..., M, zero-padded to M rows."""
    Z, values, X0 = [], [], []
    for k in range(T):
        m = M - 10 * (T - 1 - k)
        s = derive_seed(seed, n, m, k)
        rng = np.random.default_rng(derive_seed(s, 0))
        x0 = rng.standard_normal(n)
        if field == COMPLEX:
            x0 = x0 + 1j * rng.standard_normal(n)
        x0 /= np.linalg.norm(x0)
        e = sample_ensemble(n, m, field, derive_seed(s, 1))
        b = add_noise(measure(e, x0), EPS, 1.0, seed=derive_seed(s, 2))
        Z.append(np.pad(e.vectors, ((0, M - m), (0, 0))))
        values.append(np.pad(b.values, (0, M - m)))
        X0.append(np.outer(x0, x0.conj()))
    return (SensingEnsemble(vectors=np.stack(Z)), MeasurementVector(values=np.stack(values)),
            np.stack(X0))


def median_us(kernels, repeats):
    """Median µs per unit of each kernel over `repeats` runs of every kernel.

    `kernels` maps a name to (fn, calls, units): a run makes `calls` calls
    of `fn` and divides its time by `units`.  Each repeat runs every kernel
    once, in turn, so that a drift in the host's speed reaches every column
    alike.
    """
    runs = {name: [] for name in kernels}
    for _ in range(repeats):
        for name, (fn, calls, units) in kernels.items():
            start = time.perf_counter()
            for _ in range(calls):
                fn()
            runs[name].append((time.perf_counter() - start) / units)
    return {name: statistics.median(times) * 1e6 for name, times in runs.items()}


def profile(n, T, M, field, calls, repeats, steps):
    """The row of one shape: its largest rank and the µs of each kernel and of one step."""
    e, b, X0 = draw_stack(n, T, M, field)
    p = build_affine_projector(e, b)
    cfg = SolverConfig(max_iters=steps, record_every=steps)
    trace = solve_dr(p, e, cfg, X0_true=X0)
    if trace.points[-1].iteration != steps:
        raise RuntimeError(f"the DR solve at {(n, T, M, field)} stopped early")
    X = trace.final_X
    _, W = project_psd(X)
    lX = apply_lifted_factor(e, W)
    v = lX - b.values

    def repeat(X, lX, residual):
        while True:
            yield X, lX

    def records(count):
        # the solver loop, recording each of `count` + 1 iterations of a generator that repeats X
        return lambda: solvers._iterate(solvers.DR, e, b, SolverConfig(max_iters=count), X0, X,
                                        repeat)

    row = median_us({
        "eigh": (lambda: np.linalg.eigh(X), calls, calls),
        "psd": (lambda: project_psd(X), calls, calls),
        "adjoint": (lambda: apply_adjoint(e, v), calls, calls),
        "lift": (lambda: apply_lifted_factor(e, W), calls, calls),
        "G+ apply": (lambda: (p.pinv @ v[..., None])[..., 0], calls, calls),
        "records": (records(calls), 1, 1),
        "records x2": (records(2 * calls), 1, 1),
        "step": (lambda: solve_dr(p, e, cfg, X0_true=X0), 1, steps),
    }, repeats)
    # the difference of 2 `calls` and `calls` records drops the loop's set-up and start
    row["record"] = (row.pop("records x2") - row.pop("records")) / calls
    return W.shape[-1], row


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--calls", type=int, default=300, help="calls per timed run")
    parser.add_argument("--repeats", type=int, default=7, help="timed runs per kernel")
    parser.add_argument("--steps", type=int, default=50, help="steps of the DR solve")
    args = parser.parse_args(argv)
    if min(args.calls, args.repeats, args.steps) < 1:
        parser.error("--calls, --repeats and --steps must be >= 1")
    columns = ["step", "eigh", "psd", "adjoint", "lift", "G+ apply", "record"]
    print(f"numpy {np.__version__}, one OpenBLAS thread; µs per call, median of "
          f"{args.repeats} x {args.calls} calls; step = mean over a {args.steps}-step DR solve")
    print(f"{'field':<8}{'n':>4}{'T':>4}{'M':>5}{'r':>4}" + "".join(f"{c:>10}" for c in columns))
    with solvers._single_blas_thread():
        for n, T, M, field in SHAPES:
            rank, row = profile(n, T, M, field, args.calls, args.repeats, args.steps)
            print(f"{field:<8}{n:>4}{T:>4}{M:>5}{rank:>4}"
                  + "".join(f"{row[c]:>10.1f}" for c in columns))


if __name__ == "__main__":
    main()
