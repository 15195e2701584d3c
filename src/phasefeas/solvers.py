"""Iterative schemes for the lifted feasibility and soft-penalty problems.

Three solvers share one driver loop and the same trace format; ``solve``
picks one by ``cfg.method``:

* ``solve_dr``       Douglas-Rachford splitting on the two projectors,
* ``solve_pocs``     plain alternating projections (backward-backward),
* ``solve_nesterov`` accelerated projected gradient on
                     g(X) = 1/2 ||L(X) - b||^2 + lambda tr(X).

``solve`` runs the whole solve, the Gram factorization included, on one
OpenBLAS thread: OpenBLAS rounds the larger kernels differently at one
and at several threads (a lone solve's Gram `eigh` and `Z @ Z.T` above m
of about 130; a grid stack of 3 trials padded to M = 110 already).  Every
CLI solve and grid trial goes through ``solve``; a direct call of a solver
below runs at the caller's count.  The pin sets nothing when the count
already reads 1.  That keeps a forked grid worker quiet: OpenBLAS shuts
its thread server down at a fork, and the first set call in the child
restarts it, with a helper thread that spins for 2^28 cycles before it
sleeps (0.13 s of CPU in a child that did nothing else, 2-core host).
`harness.run_grid` therefore pins the parent before it forks its pool.

Each solver is a generator `steps(X_0, L(X_0))`: it yields iteration 0 and
then one (X_k, L(X_k)) per `next`, and keeps the state its recurrence
carries (DR's multiplier, Nesterov's extrapolated point and theta) in local
variables.  Each L(X_k) serves both the trace and the next step.  The loop
`_iterate` owns the rest: the method check, the check that b holds one
value per sensing vector, the start (X = 0, or the hermitized warm start
``X_start``, lifted dense), exactly the ``max_iters`` steps of the config
it is given, and the records.  DR's ``X_start`` is Y_0, and its generator
yields X_0 = P_psd(Y_0); POCS's is X_0 itself; Nesterov takes none.  A record
holds the feasibility residual ||L(X) - b||_2 / ||b||_2, tr(X), and the
recovery error when the ground truth is supplied.  Iterates are PSD after
every step by construction (the last operation applied is always the PSD
projection), and exactly Hermitian, since `project_psd` returns them so.
The matrix a DR or Nesterov step hands to `project_psd` carries the
adjoint's rounding asymmetry, which `eigh` never reads; POCS symmetrizes
its affine point, so that it is bit for bit the textbook `P_psd(P_aff(X))`.

One rule shortens a DR solve.  When G has full rank d
(`linalg.hermitian_dim`, generically m >= d), the affine slice is the
single point a = L*(G^+ b), and DR from X = 0 reaches P_psd(a) = a_+ at
iteration 1: with a = a_+ + a_- split into its positive and negative
parts, Y_k = a_+ + k a_-, so every later iterate is a_+ again in exact
arithmetic and the later steps only move rounding (at (10, 60), noiseless,
the error read 3.1e-14 after one step and 2.4e-15 after 1000).  So a
cold-start DR whose every slice has rank d runs `_iterate` with
``max_iters = 1``, and its trace ends at iteration 1; the trace's last
iteration is always the number of steps taken.  A warm start, a rank
below d, POCS and Nesterov run all ``cfg.max_iters`` steps.

A step gets every other lifted vector it needs by linearity.  DR steps
Y_k = X_{k-1} - L*(q_k) on its affine multiplier
q_k = q_{k-1} + G^+ (2 L(X_{k-1}) - L(X_{k-2}) - b), since L(Y_k) =
L(X_{k-1}) - G q_k and G^+ G q = q on the range of G^+; POCS applies
L*(G^+ (L(X) - b)) to the L(X) it gets; Nesterov's extrapolated point has
L(Y_k) = L(X_k) + beta_k (L(X_k) - L(X_{k-1})).  DR and Nesterov lift
X_k = W W* through the factor W that `project_psd` returns with it
(`apply_lifted_factor`, m n r work for rank r instead of m n^2); POCS
lifts the dense X_k, so that its affine point is `project_affine`'s bit
for bit.  So a k-step solve makes k + 1 lifts, one of them (always dense)
for the start, plus one factor lift for a projected DR warm start.

Every solver also runs a stack of T problems of one n as one solve, in the
same loop with the same calls: a (T, m, n) ensemble, (T, m) measurements
and, for DR and POCS, the projector `build_affine_projector` factors from
the stack (see `sensing` and `projections` for the zero padding of
problems with fewer rows).  Each call then serves all T slices.  The trace
is one SolverTrace: each record holds one value per slice, as lists, and
`final_X` has shape (T, n, n).  One failing slice fails the whole solve (a
batched `eigh` rejects the stack when one slice is non-finite, and
Nesterov's divergence guard checks every slice); the grid
(`harness.run_trial`) reruns such a stack one problem at a time.
"""

import contextlib
import ctypes
import functools
import math
from dataclasses import dataclass, fields, replace
from operator import attrgetter

import numpy as np

from .linalg import (dtype_for, hermitian_dim, hermitize, require_integer, require_same_shape,
                     require_square)
from .projections import build_affine_projector, leading_eigenvector, project_psd, require_projector
from .sensing import apply_adjoint, apply_lifted, apply_lifted_factor, require_measurements

DR = "dr"
POCS = "pocs"
NESTEROV = "nesterov"
METHODS = (DR, POCS, NESTEROV)

DIVERGENCE_LIMIT = 1e6


@dataclass
class SolverConfig:
    method: str = DR
    max_iters: int = 1000
    alpha: float = 2e-4        # Nesterov step size (2e-4 grid, 1e-4 convergence runs)
    lambda_trace: float = 0.0  # Nesterov trace penalty; 0 = pure feasibility
    record_every: int = 1      # `solve` and the solvers; a grid trial keeps its last point only

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}, expected one of {METHODS}")
        for name in ("max_iters", "record_every"):
            require_integer(name, getattr(self, name))
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        for name in ("alpha", "lambda_trace"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be a finite number, got {getattr(self, name)!r}")
        if self.method == NESTEROV and self.alpha <= 0:
            raise ValueError("alpha must be positive for the Nesterov method")
        if self.lambda_trace < 0:
            raise ValueError("lambda_trace must be nonnegative")
        if self.record_every < 1:
            raise ValueError("record_every must be >= 1")


@dataclass(frozen=True)
class TracePoint:
    iteration: int
    recovery_error: float  # nan when no ground truth was supplied
    residual: float        # ||L(X) - b||_2 / ||b||_2
    trace_value: float     # tr(X)
    # A stacked solve records a list of T floats in each value field.


@dataclass
class SolverTrace:
    points: list         # TracePoints, iteration 0 and the last iteration among them
    final_X: np.ndarray

    @property
    def final_error(self):
        return self.points[-1].recovery_error

    @property
    def final_residual(self):
        return self.points[-1].residual


def _norms(v):
    """Euclidean norms along the last axis, each bit for bit `np.linalg.norm` of its row.

    `np.linalg.norm` takes a row as the square root of one BLAS dot product,
    or of two in the complex field (real and imaginary parts apart).  On a
    stack, numpy's matmul makes each row-times-column product that same dot
    call; one row goes to `np.linalg.norm` itself, which costs less per call.
    """
    if v.ndim == 1:
        return np.linalg.norm(v)
    parts = (v.real, v.imag) if np.iscomplexobj(v) else (v,)
    return np.sqrt(sum((p[..., None, :] @ p[..., :, None])[..., 0, 0] for p in parts))


def _frobenius(X):
    """||X||_F of a matrix, or of each slice of a stack."""
    return _norms(X.reshape(X.shape[:-2] + (-1,)))


def _residual_scale(b):
    """||b||_2 per slice, or 1 where b = 0, to divide ||L(X) - b||_2 by; a scalar for one b."""
    b_norm = _norms(b.values)
    return np.where(b_norm > 0, b_norm, 1.0)[()]


def _relative_residual(lifted, b, scale):
    """||L(X) - b||_2 / ||b||_2 from L(X), per slice; the bare norm where b = 0."""
    return _norms(lifted - b.values) / scale


def _iterate(method, e, b, cfg, X0_true, X_start, steps):
    """The iteration loop shared by every solver: X_k, L(X_k) = next(steps(X, L(X))).

    Checks that `cfg.method` is `method` and that `b` holds one value per
    sensing vector of `e`, starts from X = 0 (one per slice of a stacked
    `e`) or from the hermitized warm start `X_start`, in the field's dtype,
    lifts it dense, and draws iterations 0 to `cfg.max_iters` from the
    generator `steps(X, L(X))`.  Records iteration 0, every
    `record_every`-th iteration and the last iteration, each once; the
    recovery error divides by ||X0_true||_F, computed once, as is ||b||.
    The norms are `np.linalg.norm`'s bit for bit, per slice.  Every X after
    iteration 0 comes out of `project_psd`, whose `eig` rejects a
    non-finite input, and a non-finite residual or trace raises, so a
    record scans no X for finiteness.  An exception raised while drawing
    iteration k is re-raised as RuntimeError("iteration k: ...").
    """
    if cfg.method != method:
        raise ValueError(f"config method is {cfg.method!r}, expected {method!r}")
    require_measurements(e, b)
    dtype = dtype_for(e.field)
    if X_start is None:
        X = np.zeros(e.vectors.shape[:-2] + (e.n, e.n), dtype=dtype)
    else:
        X_start = require_square(X_start)
        if not np.all(np.isfinite(X_start)):
            raise ValueError("non-finite warm start")
        X = hermitize(X_start).astype(dtype)
    scale = _residual_scale(b)
    error = np.full(X.shape[:-2], math.nan)
    if X0_true is not None:
        X0_true = require_same_shape(X, X0_true)[1]
        if not np.all(np.isfinite(X0_true)):
            raise ValueError("non-finite input")
        x0_norm = _frobenius(X0_true)
        if np.any(x0_norm == 0):
            raise ValueError("X0 must be nonzero")
    iterates = steps(X, apply_lifted(e, X))
    points = []
    for k in range(cfg.max_iters + 1):
        try:
            X, lX = next(iterates)
        except Exception as err:
            raise RuntimeError(f"iteration {k}: {err}") from err
        if k % cfg.record_every == 0 or k == cfg.max_iters:
            if X0_true is not None:
                error = _frobenius(X - X0_true) / x0_norm
            res = _relative_residual(lX, b, scale)
            tr = X.trace(axis1=-2, axis2=-1).real
            # the sum is finite only if every residual and trace is; an overflowing sum also raises
            if not math.isfinite(np.add.reduce(res + tr, axis=None)):
                raise RuntimeError(f"non-finite iterate at iteration {k}")
            points.append(TracePoint(k, error.tolist(), res.tolist(), tr.tolist()))
    return SolverTrace(points, X)


def solve_dr(p, e, cfg, X0_true=None, X_start=None):
    """Douglas-Rachford iteration on the affine slice and the PSD cone.

    Y_k = P_aff(2 X_{k-1} - Y_{k-1}) - X_{k-1} + Y_{k-1};  X_k = P_psd(Y_k).

    Computed as Y_k = X_{k-1} - L*(q_k) with q_0 = 0 and
    q_k = q_{k-1} + G^+ (2 L(X_{k-1}) - L(X_{k-2}) - b), L(X_{-1}) := L(Y_0).
    It is the same point: P_aff(W) = W - L*(G^+ (L(W) - b)) at W = 2X - Y,
    L(Y_{k-1}) = L(X_{k-2}) - G q_{k-1} and G^+ G q_{k-1} = q_{k-1}.  The
    state between steps is q and L(X_{k-1}), two m-vectors; no Y is kept.
    A warm start is Y_0, and X_0 = P_psd(Y_0); each X_k, X_0 included, is
    lifted through its PSD factor.  `p` must be factored from `e`.  From
    X = 0 with every slice of `p` at rank d, the solve stops at iteration 1.
    """
    require_projector(p, e)
    if X_start is None and np.all(p.rank == hermitian_dim(e.n, e.field)):
        cfg = replace(cfg, max_iters=1)  # a one-point slice (see the module docstring)

    def steps(Y, lY):
        X, lX = Y, lY
        if X_start is not None:
            X, W = project_psd(Y)
            lX = apply_lifted_factor(e, W)
        q = np.zeros(p.b.values.shape)
        lX_prev = lY
        while True:
            yield X, lX
            r = 2 * lX
            r -= lX_prev
            r -= p.b.values
            q += (p.pinv @ r[..., None])[..., 0]
            lX_prev = lX
            X, W = project_psd(X - apply_adjoint(e, q))
            lX = apply_lifted_factor(e, W)

    return _iterate(DR, e, p.b, cfg, X0_true, X_start, steps)


def solve_pocs(p, e, cfg, X0_true=None, X_start=None):
    """Alternating projections X_{k} = P_psd(P_aff(X_{k-1})), from X_0 = X_start.

    P_aff(X) = hermitize(X - L*(G^+ (L(X) - b))), with X lifted dense, is
    `project_affine` bit for bit.  `p` must be factored from `e`.
    """
    require_projector(p, e)

    def steps(X, lX):
        while True:
            yield X, lX
            r = lX - p.b.values
            X = project_psd(hermitize(X - apply_adjoint(e, (p.pinv @ r[..., None])[..., 0])))[0]
            lX = apply_lifted(e, X)

    return _iterate(POCS, e, p.b, cfg, X0_true, X_start, steps)


def solve_nesterov(e, b, cfg, X0_true=None):
    """Accelerated projected gradient with constant step size, from Y_0 = X_0 = 0.

    X_k     = P_psd(Y_{k-1} - alpha grad g(Y_{k-1})),
    theta_k = 2 (1 + sqrt(1 + 4/theta_{k-1}^2))^{-1},     theta_0 = 1,
    beta_k  = theta_k (1/theta_{k-1} - 1),
    Y_k     = X_k + beta_k (X_k - X_{k-1}),

    with grad g(X) = L*(L(X) - b) + lambda I, L(X_k) lifted through the
    factor of X_k, and L(Y_k) taken by linearity from L(X_k) and
    L(X_{k-1}).  The step subtracts alpha lambda from the diagonal of
    Y - alpha L*(L(Y) - b) in place.  Aborts when the feasibility residual
    exceeds 1e6 or is not finite (step size too large), in any slice of a
    stack; the guard checks every step, not only recorded ones.
    """
    def steps(X, lX):
        Y, lY, theta = X, lX, 1.0
        scale = _residual_scale(b)
        while True:
            yield X, lX
            V = Y - cfg.alpha * apply_adjoint(e, lY - b.values)
            # V is a fresh C-contiguous array, so this reshape is a view of it
            V.reshape(V.shape[:-2] + (-1,))[..., :: e.n + 1] -= cfg.alpha * cfg.lambda_trace
            X_new, W = project_psd(V)
            lX_new = apply_lifted_factor(e, W)
            res = np.maximum.reduce(_relative_residual(lX_new, b, scale), axis=None)
            if not res <= DIVERGENCE_LIMIT:
                raise RuntimeError(f"step size too large: residual {res:.3e}")
            theta_new = _next_theta(theta)
            beta = theta_new * (1.0 / theta - 1.0)
            Y = X_new + beta * (X_new - X)
            lY = lX_new + beta * (lX_new - lX)
            X, lX, theta = X_new, lX_new, theta_new

    return _iterate(NESTEROV, e, b, cfg, X0_true, None, steps)


@functools.cache
def _openblas_threads():
    """(get, set) of numpy's bundled OpenBLAS thread count, or None without it.

    numpy 2 wheels export the calls as `scipy_openblas_*`, numpy 1.x wheels
    as `openblas_*`; both are tried, in that order.
    """
    for prefix in ("scipy_openblas", "openblas"):
        try:
            lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
            get = getattr(lib, f"{prefix}_get_num_threads64_")
            put = getattr(lib, f"{prefix}_set_num_threads64_")
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        put.argtypes, put.restype = [ctypes.c_int], None
        return get, put
    return None


@contextlib.contextmanager
def _single_blas_thread():
    """Run the body on one OpenBLAS thread and restore the count afterwards.

    Sets and restores nothing when the count already reads 1, or when
    numpy's BLAS does not export the OpenBLAS calls: in a worker forked at
    one thread a set call would restart OpenBLAS's thread server and its
    spinning helper (see the module docstring).
    """
    get, put = _openblas_threads() or (lambda: 1, None)
    before = get()
    if before == 1:
        yield
        return
    put(1)
    try:
        yield
    finally:
        put(before)


def solve(e, b, cfg, X0_true=None):
    """Run the solver that `cfg.method` names on the measurements `b` of `e`.

    DR and POCS build the affine projector first; Nesterov needs none.  All
    of it runs on one OpenBLAS thread (see the module docstring), and the
    previous count comes back on return and on an exception.
    """
    with _single_blas_thread():
        if cfg.method == NESTEROV:
            return solve_nesterov(e, b, cfg, X0_true=X0_true)
        p = build_affine_projector(e, b)
        method = solve_dr if cfg.method == DR else solve_pocs
        return method(p, e, cfg, X0_true=X0_true)


def _next_theta(theta):
    return 2.0 / (1.0 + math.sqrt(1.0 + 4.0 / theta**2))


def round_to_vector(trace):
    """Extract x = sqrt(lambda_1) v_1 from the final iterate.

    Returns (x, eigen_gap) with eigen_gap = lambda_1 - lambda_2 for
    diagnostics; raises when the top eigenvalue is not positive.
    """
    lam1, v1, lam2 = leading_eigenvector(trace.final_X)
    if lam1 <= 0:
        raise RuntimeError("no positive component")
    return np.sqrt(lam1) * v1, lam1 - lam2


def format_cell(v):
    """The one cell rule of every CSV artifact and of `summary.txt`.

    An integer or bool, Python or numpy, is written as a decimal integer (a
    bool as 0 or 1); any other real as `repr(float(v))`, its shortest
    round-trip form (`nan`, `inf` and `-0.0` included).
    """
    if isinstance(v, (int, np.integer, np.bool_)):
        return str(int(v))
    return repr(float(v))


def write_rows(path, header, rows):
    """Write a CSV artifact: the `header` names, then one line per row of cells."""
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(",".join(map(format_cell, row)) + "\n" for row in rows)


def write_trace_csv(trace, path):
    """Trace export: one row per recorded iteration, cells as `format_cell` writes them.

    The columns are TracePoint's fields, `iteration` named `iter`.  Takes
    the trace of one problem; a stacked trace, whose records hold one value
    per slice, raises ValueError before anything is written.
    """
    if np.ndim(trace.final_X) > 2:
        raise ValueError(f"dimension mismatch: one problem's trace expected, got a stack "
                         f"with final_X of shape {trace.final_X.shape}")
    names = [f.name for f in fields(TracePoint)]
    write_rows(path, ["iter", *names[1:]], map(attrgetter(*names), trace.points))
