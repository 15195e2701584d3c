"""Command-line interface: grid, converge, certify, solve."""

import argparse
import os
import sys

import numpy as np

from .certificate import CertificateParams
from .harness import (
    GridSpec,
    emit_heatmap,
    run_certify_study,
    run_convergence_study,
    run_grid,
    write_grid_csv,
)
from .linalg import COMPLEX, REAL
from .sensing import MeasurementVector, SensingEnsemble
from .solvers import SolverConfig, round_to_vector, solve


def parse_range(text):
    """`lo:hi:step` (hi inclusive) or a single integer."""
    parts = text.split(":")
    if len(parts) == 1:
        return [int(parts[0])]
    if len(parts) != 3:
        raise ValueError(f"bad range {text!r}, expected lo:hi:step")
    lo, hi, step = (int(p) for p in parts)
    if step < 1 or hi < lo:
        raise ValueError(f"bad range {text!r}")
    return list(range(lo, hi + 1, step))


def build_parser():
    parser = argparse.ArgumentParser(prog="phasefeas")
    parser.add_argument("--threads", type=int, default=0,
                        help="at most this many grid worker processes, and at most one "
                             "worker per group (0 = all usable cores); results invariant to it")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("grid", help="phase-transition grid -> grid.csv + heatmap.pgm")
    g.add_argument("--n", default="5:50:5")
    g.add_argument("--m", default="10:250:10")
    g.add_argument("--trials", type=int, default=GridSpec.trials)
    g.add_argument("--eps", type=float, default=GridSpec.eps)
    g.add_argument("--solver", choices=["dr", "nesterov"], default=SolverConfig.method)
    g.add_argument("--alpha", type=float, default=SolverConfig.alpha)
    g.add_argument("--lambda", dest="lambda_trace", type=float, default=SolverConfig.lambda_trace)
    g.add_argument("--iters", type=int, default=SolverConfig.max_iters)
    g.add_argument("--seed", type=int, default=GridSpec.master_seed)
    g.add_argument("--out", required=True)

    c = sub.add_parser("converge", help="convergence traces -> six CSVs")
    c.add_argument("--n", type=int, default=10)
    c.add_argument("--m", type=int, default=60)
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--iters", type=int, default=SolverConfig.max_iters)
    c.add_argument("--out", required=True)

    y = sub.add_parser("certify", help="dual-certificate checks -> CSV + summary")
    y.add_argument("--n", type=int, default=20)
    y.add_argument("--m", type=int, required=True)
    y.add_argument("--beta", type=float, default=CertificateParams.beta)
    y.add_argument("--seeds", type=int, default=100)
    y.add_argument("--seed", type=int, default=0)
    y.add_argument("--out", required=True)

    s = sub.add_parser("solve", help="recover a vector from a measurements CSV")
    s.add_argument("--input", required=True)
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--seed", type=int, default=0,
                   help="does not change the result: DR starts from X = 0 and draws nothing")
    s.add_argument("--iters", type=int, default=SolverConfig.max_iters)
    return parser


def cmd_grid(args):
    if args.threads < 0:
        raise ValueError(f"--threads must be >= 0 (0 = all usable cores), got {args.threads}")
    cfg = SolverConfig(method=args.solver, max_iters=args.iters, alpha=args.alpha,
                       lambda_trace=args.lambda_trace)
    spec = GridSpec(n_values=parse_range(args.n), m_values=parse_range(args.m),
                    trials=args.trials, eps=args.eps, solver=cfg,
                    master_seed=args.seed)
    os.makedirs(args.out, exist_ok=True)
    result = run_grid(spec, workers=args.threads or None)
    write_grid_csv(result, os.path.join(args.out, "grid.csv"))
    emit_heatmap(result, os.path.join(args.out, "heatmap.pgm"))
    return 0


def cmd_converge(args):
    run_convergence_study(args.n, args.m, args.seed, args.out, iters=args.iters)
    return 0


def cmd_certify(args):
    run_certify_study(args.n, args.m, args.beta, args.seeds, args.seed, args.out)
    return 0


def read_measurements(path, n):
    """Parse `z_1..z_n,b` (real) or interleaved `re_k,im_k` columns (complex).

    Fields may be quoted and lines may end in CRLF; blank lines, empty or
    of spaces and tabs only, are skipped, and `#` starts no comment.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ValueError(f"{path}: empty file")
    header = [h.strip().strip('"') for h in lines[0].split(",")]
    real_cols = [f"z_{k}" for k in range(1, n + 1)] + ["b"]
    complex_cols = [t for k in range(1, n + 1) for t in (f"re_{k}", f"im_{k}")] + ["b"]
    if header == real_cols:
        field = REAL
    elif header == complex_cols:
        field = COMPLEX
    else:
        raise ValueError(f"{path}: header does not match n={n} real or complex layout")
    linenos = [k for k, line in enumerate(lines[1:], start=2) if line.strip(" \t")]
    if not linenos:
        raise ValueError(f"{path}: no measurement rows")
    width = len(header)
    pulled = []

    def rows():
        # loadtxt pulls one line at a time, so the last line pulled is the one it failed on
        for k in linenos:
            pulled.append(k)
            yield lines[k - 1]

    try:
        table = np.loadtxt(rows(), delimiter=",", quotechar='"', comments=None, ndmin=2)
    except ValueError:
        for k in (linenos[0], pulled[-1]):
            got = lines[k - 1].count(",") + 1
            if got != width:
                raise ValueError(f"{path}:{k}: expected {width} columns, got {got}") from None
        raise ValueError(f"{path}:{pulled[-1]}: non-numeric entry") from None
    if table.shape[1] != width:
        raise ValueError(f"{path}:{linenos[0]}: expected {width} columns, got {table.shape[1]}")
    finite = np.isfinite(table).all(axis=1)
    if not finite.all():
        raise ValueError(f"{path}:{linenos[np.argmin(finite)]}: non-finite entry")
    b = table[:, -1].copy()
    # All-zero b is the exact data of x = 0 and is left to the solver; b <= 0
    # with a negative entry is the data of no signal at all.
    if not np.any(b > 0) and np.any(b < 0):
        raise ValueError(f"{path}: no positive measurement in b")
    Z = table[:, :n] if field == REAL else table[:, 0 : 2 * n : 2] + 1j * table[:, 1 : 2 * n : 2]
    return SensingEnsemble(vectors=np.ascontiguousarray(Z)), MeasurementVector(values=b)


def cmd_solve(args):
    e, b = read_measurements(args.input, args.n)
    cfg = SolverConfig(max_iters=args.iters, record_every=args.iters)
    trace = solve(e, b, cfg)
    x, gap = round_to_vector(trace)
    for v in x:
        if e.field == COMPLEX:
            print(f"{float(v.real)!r}{float(v.imag):+}j")
        else:
            print(repr(float(v)))
    print(f"# residual={trace.final_residual!r} eigen_gap={gap!r}")
    return 0


def main(argv=None):
    """Run one subcommand; exit 2 on bad input, 1 on a solver failure.

    Every solve runs on one OpenBLAS thread (see `solvers.solve`), so no
    command's bytes depend on the host's core count; `certify` solves
    nothing and is thread-invariant as it is.
    """
    args = build_parser().parse_args(argv)
    handlers = {
        "grid": cmd_grid,
        "converge": cmd_converge,
        "certify": cmd_certify,
        "solve": cmd_solve,
    }
    try:
        return handlers[args.command](args)
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except RuntimeError as err:
        print(f"solver failure: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
