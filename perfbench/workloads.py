"""The four benchmark workloads.

Each workload makes its inputs from the run seed in ``setup`` and then runs
units: one unit is one op, except in ``grid``, where a unit is one pass over
the whole grid and each trial in it is an op.  The first pass over a
workload's instances is checked in full; every later op must reproduce the
first pass's output for its instance exactly.
"""

import contextlib
import importlib
import io
import math
import os
import time
from dataclasses import dataclass

import numpy as np

NPROC = len(os.sched_getaffinity(0))
EPS = 0.1

# Stated bounds of the output checks.
VECTOR_TOL = 0.05       # solve-large: min_s ||x - s x0|| / ||x0||, s = +-1
TRACE_ERROR_TOL = 0.02  # trace-complex: final ||X - X0||_F / ||X0||_F
ADJOINT_RTOL = 1e-10    # certify: ||Ybar - sum_i lam_i z_i z_i^T||_F, relative
ITERS_TOL = 0.01        # trace-complex: recovery error for iters_to_tol


@dataclass
class Unit:
    latencies: list | None  # per-op seconds; None: the unit is one op timed by the caller
    failed: int
    output: object


class Workload:
    name = ""
    first_pass = 1        # units in one pass over the instances
    tail_per_pass = True  # op_s_tail per pass over the instances, else over the run
    run_factor = False    # one host speed factor for the whole run, else one per unit

    @property
    def pass_ops(self):
        """Ops in one pass; the tail percentile is taken per pass."""
        return self.first_pass

    def setup(self, pf, seed, work):
        raise NotImplementedError

    def unit(self, k):
        raise NotImplementedError

    def check(self, k, output, problems):
        """Full check on the first pass, exact repeat of it afterwards."""
        key = k % self.first_pass
        if key not in self.expected:
            self.expected[key] = self.check_first(key, output, problems)
        elif self.fingerprint(output) != self.expected[key]:
            problems.append(f"op {k}: output differs from the first pass")

    def quality(self):
        """Mean relative error of the first pass's outputs."""
        return float(np.mean([self.errors[k] for k in sorted(self.errors)]))

    def reference_values(self):
        return [v for k in sorted(self.refs) for v in self.refs[k]]

    def warm_up(self):
        """Untimed work after set-up and before the timed loop."""

    def final_checks(self, problems):
        pass


def _rel_frobenius(X, X0):
    return float(np.linalg.norm(X - X0) / np.linalg.norm(X0))


class Grid(Workload):
    """Reduced phase-transition grid of acceptance criterion 5 via run_grid."""

    name = "grid"
    N_VALUES = [5, 10, 15, 20]
    M_VALUES = list(range(10, 111, 10))
    pass_ops = len(N_VALUES) * len(M_VALUES)
    # Trials run in pool workers on both vCPUs, and kernel timings next to
    # one pass do not track its speed.
    run_factor = True

    def setup(self, pf, seed, work):
        self.pf = pf
        self.spec = pf.GridSpec(n_values=self.N_VALUES, m_values=self.M_VALUES, trials=1,
                                eps=EPS, solver=pf.SolverConfig(max_iters=1000, record_every=1000),
                                master_seed=seed)
        self.csv = os.path.join(work, "grid.csv")
        self.pgm = os.path.join(work, "heatmap.pgm")
        pf.run_trial(5, 10, EPS, self.spec.solver, pf.derive_seed(seed, 0))
        self.expected, self.errors, self.refs = {}, {}, {}
        self.grid_wall = 0.0

    def unit(self, k, workers=NPROC):
        start = time.perf_counter()
        result = self.pf.run_grid(self.spec, workers=workers)
        self.grid_wall = time.perf_counter() - start
        self.pf.write_grid_csv(result, self.csv)
        self.pf.emit_heatmap(result, self.pgm)
        rows = result.rows
        failed = sum(math.isnan(r.recovery_error) for r in rows)
        return Unit([r.wall_ms / 1e3 for r in rows], failed, rows)

    def _artifacts(self):
        with open(self.csv, "rb") as fh, open(self.pgm, "rb") as gh:
            return fh.read(), gh.read()

    def fingerprint(self, rows):
        return self._artifacts()

    def check_first(self, key, rows, problems):
        if len(rows) != self.pass_ops:
            problems.append(f"grid: {len(rows)} rows, expected {self.pass_ops}")
        for r in rows:
            if math.isnan(r.recovery_error) or r.iters != 1000:
                problems.append(f"grid: failed trial n={r.n} m={r.m}")
        self.errors[0] = float(np.nanmean([r.recovery_error for r in rows]))
        self.refs[0] = [v for r in rows for v in (r.recovery_error, r.residual)]
        return self._artifacts()

    def warm_up(self):
        """A 1-worker pass: it warms the host up and gives the bytes final_checks compares."""
        self.unit(0, workers=1)
        self.serial_artifacts = self._artifacts()

    def final_checks(self, problems):
        """The 1-worker pass must write the same bytes as the NPROC pass."""
        if self.serial_artifacts != self.expected[0]:
            problems.append("grid: CSV/PGM bytes differ between 1 and "
                            f"{NPROC} workers")


class SolveLarge(Workload):
    """CLI ``solve`` at (50, 250) on measurement CSVs written in set-up."""

    name = "solve-large"
    N, M = 50, 250
    first_pass = 11
    # A run holds one pass and a few more solves; per pass the tail rule would
    # pick the fastest of 11, which swings with a single op.
    tail_per_pass = False

    def setup(self, pf, seed, work):
        self.cli = importlib.import_module("phasefeas.cli")
        self.paths, self.truth = [], []
        for k in range(self.first_pass):
            s = pf.derive_seed(seed, k)
            x0 = pf.sample_unit_sphere(self.N, pf.derive_seed(s, 0))
            e = pf.sample_ensemble(self.N, self.M, pf.REAL, pf.derive_seed(s, 1))
            b = pf.add_noise(pf.measure(e, x0), EPS, 1.0, seed=pf.derive_seed(s, 2))
            path = os.path.join(work, f"measurements_{k}.csv")
            with open(path, "w") as fh:
                fh.write(",".join([f"z_{j}" for j in range(1, self.N + 1)] + ["b"]) + "\n")
                for z, v in zip(e.vectors, b.values):
                    fh.write(",".join(repr(float(t)) for t in z) + f",{float(v)!r}\n")
            self.paths.append(path)
            self.truth.append(x0)
        self._solve(0, iters=2)
        self.expected, self.errors, self.refs = {}, {}, {}

    def _solve(self, k, iters=1000):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = self.cli.main(["solve", "--input", self.paths[k % self.first_pass],
                                  "--n", str(self.N), "--seed", "0", "--iters", str(iters)])
        return code, out.getvalue()

    def unit(self, k):
        code, text = self._solve(k)
        return Unit(None, int(code != 0), (code, text))

    def fingerprint(self, output):
        return output

    def check_first(self, key, output, problems):
        code, text = output
        lines = text.splitlines()
        if code != 0 or len(lines) != self.N + 1 or not lines[-1].startswith("# residual="):
            problems.append(f"solve-large: instance {key}: exit {code}, {len(lines)} lines")
            return output
        x = np.array([float(t) for t in lines[:-1]])
        x0 = self.truth[key]
        sign = 1.0 if np.dot(x, x0) >= 0 else -1.0
        err = np.linalg.norm(x - sign * x0) / np.linalg.norm(x0)
        if not err <= VECTOR_TOL:
            problems.append(f"solve-large: instance {key}: vector error {err:.3g} > {VECTOR_TOL}")
        self.errors[key] = _rel_frobenius(np.outer(x, x), np.outer(x0, x0))
        self.refs[key] = list(sign * x)
        return output


class TraceComplex(Workload):
    """DR, POCS and Nesterov with per-iteration recording, complex field.

    Nesterov's step is 1/L, L = lambda_max(G) = ||L||^2 of the instance's
    measurement frame.  A fixed step of 1e-4 exceeds 1/L (L is 14k-17k at
    (20, 160)) and on about 1% of instances the iterate oscillates, drifts and
    ends at X = 0 (error 1.0) without tripping the solver's divergence guard.
    """

    name = "trace-complex"
    N, M, ITERS, SEEDS = 20, 160, 500, 8
    METHODS = ("dr", "pocs", "nesterov")
    first_pass = 3 * SEEDS

    def setup(self, pf, seed, work):
        self.pf = pf
        self.instances = []
        for k in range(self.SEEDS):
            s = pf.derive_seed(seed, k)
            rng = np.random.default_rng(pf.derive_seed(s, 0))
            x0 = rng.standard_normal(self.N) + 1j * rng.standard_normal(self.N)
            x0 /= np.linalg.norm(x0)
            e = pf.sample_ensemble(self.N, self.M, pf.COMPLEX, pf.derive_seed(s, 1))
            b = pf.add_noise(pf.measure(e, x0), EPS, 1.0, seed=pf.derive_seed(s, 2))
            step = 1.0 / np.linalg.eigvalsh(np.abs(e.vectors.conj() @ e.vectors.T) ** 2)[-1]
            configs = {
                method: pf.SolverConfig(method=method, max_iters=self.ITERS, record_every=1,
                                        alpha=step, lambda_trace=0.0)
                for method in self.METHODS
            }
            self.instances.append((e, b, np.outer(x0, x0.conj()), configs))
        self.paths = {method: os.path.join(work, f"trace_{method}.csv") for method in self.METHODS}
        for method in self.METHODS:
            cfg = pf.SolverConfig(method=method, max_iters=2, alpha=1e-4)
            self._run(method, self.instances[0], cfg)
        self.expected, self.errors, self.refs = {}, {}, {}
        self.iters_to_tol = {method: [] for method in self.METHODS}

    def _run(self, method, instance, cfg):
        pf = self.pf
        e, b, X0, _ = instance
        if method == "nesterov":
            return pf.solve_nesterov(e, b, cfg, X0_true=X0)
        p = pf.build_affine_projector(e, b)
        solve = pf.solve_dr if method == "dr" else pf.solve_pocs
        return solve(p, e, cfg, X0_true=X0)

    def unit(self, k):
        method = self.METHODS[k % 3]
        instance = self.instances[(k // 3) % self.SEEDS]
        try:
            trace = self._run(method, instance, instance[3][method])
        except RuntimeError:
            return Unit(None, 1, None)
        self.pf.write_trace_csv(trace, self.paths[method])
        return Unit(None, 0, trace)

    def fingerprint(self, trace):
        return None if trace is None else (trace.final_error, trace.final_residual)

    def check(self, k, trace, problems):
        if trace is None:
            problems.append(f"trace-complex: op {k} raised RuntimeError")
            return
        values = [(p.recovery_error, p.residual, p.trace_value) for p in trace.points]
        if len(values) != self.ITERS + 1 or not np.all(np.isfinite(values)):
            problems.append(f"trace-complex: op {k}: trace not finite or incomplete")
        super().check(k, trace, problems)

    def check_first(self, key, trace, problems):
        if not trace.final_error <= TRACE_ERROR_TOL:
            problems.append(f"trace-complex: op {key}: final error {trace.final_error:.3g}"
                            f" > {TRACE_ERROR_TOL}")
        hits = [p.iteration for p in trace.points if p.recovery_error <= ITERS_TOL]
        self.iters_to_tol[self.METHODS[key % 3]].append(hits[0] if hits else self.ITERS + 1)
        self.errors[key] = trace.final_error
        self.refs[key] = [trace.final_error, trace.final_residual]
        return self.fingerprint(trace)


class Certify(Workload):
    """The ``certify`` command's per-seed sequence at n = 20, m = ceil(20 n ln n)."""

    name = "certify"
    N, BETA = 20, 1.0
    M = math.ceil(20 * N * math.log(N))
    first_pass = 64

    def setup(self, pf, seed, work):
        self.pf = pf
        self.instances = []
        for k in range(self.first_pass):
            s = pf.derive_seed(seed, k)
            anchor = pf.sample_unit_sphere(self.N, pf.derive_seed(s, 0))
            e = pf.sample_ensemble(self.N, self.M, pf.REAL, pf.derive_seed(s, 1))
            self.instances.append((e, pf.CertificateParams(anchor=anchor, beta=self.BETA)))
        self.unit(0)
        self.expected, self.errors, self.refs = {}, {}, {}

    def unit(self, k):
        e, params = self.instances[k % self.first_pass]
        Y, lam = self.pf.build_certificate(e, params)
        return Unit(None, 0, (Y, lam, self.pf.check_certificate(Y, lam, params.anchor)))

    def fingerprint(self, output):
        return output[2]

    def check_first(self, key, output, problems):
        Y, lam, report = output
        e, params = self.instances[key]
        Z, a = e.vectors, params.anchor
        oracle = np.einsum("i,ij,ik->jk", lam, Z, Z)
        if not np.linalg.norm(Y - oracle) <= ADJOINT_RTOL * max(1.0, np.linalg.norm(oracle)):
            problems.append(f"certify: instance {key}: Ybar != L*(lam)")
        fields = [report.y_t_nuclear, report.t_perp_min_eig, report.t_perp_dev,
                  report.lambda_l1, report.truncation_rate]
        if not np.all(np.isfinite(fields)):
            problems.append(f"certify: instance {key}: non-finite report field")
        # The limit certificate E[w z z^T] is 2 (I - a a^T).
        self.errors[key] = _rel_frobenius(Y, 2 * (np.eye(self.N) - np.outer(a, a)))
        self.refs[key] = fields
        return report


WORKLOADS = {w.name: w for w in (Grid, SolveLarge, TraceComplex, Certify)}
