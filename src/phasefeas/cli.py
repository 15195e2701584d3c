"""Command-line interface: grid, converge, certify, solve."""

import argparse
import csv
import math
import os
import sys

import numpy as np

from .certificate import CertificateParams, build_certificate, check_certificate
from .harness import (
    GridSpec,
    emit_heatmap,
    run_convergence_study,
    run_grid,
    sample_unit_sphere,
    write_grid_csv,
)
from .linalg import COMPLEX, REAL
from .projections import build_affine_projector
from .sensing import MeasurementVector, SensingEnsemble, derive_seed, sample_ensemble
from .solvers import SolverConfig, round_to_vector, solve_dr


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
                        help="worker count for grid trials (0 = all cores); results invariant to it")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("grid", help="phase-transition grid -> grid.csv + heatmap.pgm")
    g.add_argument("--n", default="5:50:5")
    g.add_argument("--m", default="10:250:10")
    g.add_argument("--trials", type=int, default=10)
    g.add_argument("--eps", type=float, default=0.1)
    g.add_argument("--solver", choices=["dr", "nesterov"], default="dr")
    g.add_argument("--alpha", type=float, default=2e-4)
    g.add_argument("--lambda", dest="lambda_trace", type=float, default=0.0)
    g.add_argument("--iters", type=int, default=1000)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True)

    c = sub.add_parser("converge", help="convergence traces -> six CSVs")
    c.add_argument("--n", type=int, default=10)
    c.add_argument("--m", type=int, default=60)
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--iters", type=int, default=1000)
    c.add_argument("--out", required=True)

    y = sub.add_parser("certify", help="dual-certificate checks -> CSV + summary")
    y.add_argument("--n", type=int, default=20)
    y.add_argument("--m", type=int, required=True)
    y.add_argument("--beta", type=float, default=1.0)
    y.add_argument("--seeds", type=int, default=100)
    y.add_argument("--seed", type=int, default=0)
    y.add_argument("--out", required=True)

    s = sub.add_parser("solve", help="recover a vector from a measurements CSV")
    s.add_argument("--input", required=True)
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--iters", type=int, default=1000)
    return parser


def cmd_grid(args):
    cfg = SolverConfig(method=args.solver, max_iters=args.iters, alpha=args.alpha,
                       lambda_trace=args.lambda_trace, record_every=args.iters)
    spec = GridSpec(n_values=parse_range(args.n), m_values=parse_range(args.m),
                    trials=args.trials, eps=args.eps, solver=cfg,
                    master_seed=args.seed)
    result = run_grid(spec, workers=args.threads or None)
    os.makedirs(args.out, exist_ok=True)
    write_grid_csv(result, os.path.join(args.out, "grid.csv"))
    emit_heatmap(result, os.path.join(args.out, "heatmap.pgm"))
    return 0


def cmd_converge(args):
    run_convergence_study(args.n, args.m, [args.seed], args.out, iters=args.iters)
    return 0


def cmd_certify(args):
    os.makedirs(args.out, exist_ok=True)
    rows = []
    for k in range(args.seeds):
        seed_k = derive_seed(args.seed, k)
        anchor = sample_unit_sphere(args.n, derive_seed(seed_k, 0))
        e = sample_ensemble(args.n, args.m, REAL, derive_seed(seed_k, 1))
        Y, lam = build_certificate(e, CertificateParams(anchor=anchor, beta=args.beta))
        rows.append((k, seed_k, check_certificate(Y, lam, anchor)))
    with open(os.path.join(args.out, "certificates.csv"), "w") as fh:
        fh.write("trial,seed,y_t_nuclear,t_perp_min_eig,t_perp_dev,lambda_l1,"
                 "truncation_rate,pass_y_t,pass_t_perp,pass_lambda\n")
        for k, seed_k, r in rows:
            fh.write(f"{k},{seed_k},{r.y_t_nuclear!r},{r.t_perp_min_eig!r},"
                     f"{r.t_perp_dev!r},{r.lambda_l1!r},{r.truncation_rate!r},"
                     f"{int(r.pass_y_t)},{int(r.pass_t_perp)},{int(r.pass_lambda)}\n")
    reports = [r for _, _, r in rows]
    count = len(reports)
    summary = [
        f"n={args.n}",
        f"m={args.m}",
        f"beta={args.beta!r}",
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
    with open(os.path.join(args.out, "summary.txt"), "w") as fh:
        fh.write("\n".join(summary) + "\n")
    return 0


def read_measurements(path, n):
    """Parse `z_1..z_n,b` (real) or interleaved `re_k,im_k` columns (complex)."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        real_cols = [f"z_{k}" for k in range(1, n + 1)] + ["b"]
        complex_cols = [t for k in range(1, n + 1) for t in (f"re_{k}", f"im_{k}")] + ["b"]
        if header == real_cols:
            field = REAL
        elif header == complex_cols:
            field = COMPLEX
        else:
            raise ValueError(f"{path}: header does not match n={n} real or complex layout")
        vectors, values = [], []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                nums = [float(tok) for tok in row]
            except ValueError:
                raise ValueError(f"{path}:{lineno}: non-numeric entry") from None
            if not all(math.isfinite(v) for v in nums):
                raise ValueError(f"{path}:{lineno}: non-finite entry")
            if len(nums) != len(header):
                raise ValueError(f"{path}:{lineno}: expected {len(header)} columns, got {len(nums)}")
            if field == REAL:
                vectors.append(nums[:n])
            else:
                re = np.array(nums[0 : 2 * n : 2])
                im = np.array(nums[1 : 2 * n : 2])
                vectors.append(re + 1j * im)
            values.append(nums[-1])
    if not vectors:
        raise ValueError(f"{path}: no measurement rows")
    b = np.asarray(values)
    # All-zero b is the exact data of x = 0 and is left to the solver; b <= 0
    # with a negative entry is the data of no signal at all.
    if not np.any(b > 0) and np.any(b < 0):
        raise ValueError(f"{path}: no positive measurement in b")
    Z = np.asarray(vectors)
    e = SensingEnsemble(n=n, m=Z.shape[0], field=field, vectors=Z, seed=None)
    return e, MeasurementVector(values=b, epsilon=0.0)


def cmd_solve(args):
    e, b = read_measurements(args.input, args.n)
    p = build_affine_projector(e, b)
    cfg = SolverConfig(method="dr", max_iters=args.iters, record_every=args.iters)
    trace = solve_dr(p, e, cfg)
    x, gap = round_to_vector(trace)
    for v in x:
        if e.field == COMPLEX:
            print(f"{float(v.real)!r}{float(v.imag):+}j")
        else:
            print(repr(float(v)))
    print(f"# residual={trace.final_residual!r} eigen_gap={gap!r}")
    return 0


def main(argv=None):
    args = build_parser().parse_args(argv)
    handlers = {
        "grid": cmd_grid,
        "converge": cmd_converge,
        "certify": cmd_certify,
        "solve": cmd_solve,
    }
    try:
        return handlers[args.command](args)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except RuntimeError as err:
        print(f"solver failure: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
