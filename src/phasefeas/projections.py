"""Projectors onto the two constraint sets, plus solution rounding.

The affine projector maps X onto {Z : L(Z) = b} via

    X  ->  X - L*(G^+ (L(X) - b)),     G_ij = |<z_i, z_j>|^2,

where G = L L* is the Gram matrix of the rank-1 frame {z_i z_i*} and G^+ is
a rank-revealing pseudoinverse (relative eigenvalue cutoff 1e-12), so the
same code path covers the underdetermined, critically determined, and
least-squares regimes.  The Gram matrix is factored once per problem
instance, and the dense m x m matrix G^+ is formed from that factorization.
It is the only m x m operator kept (there is no G G^+), and an iteration
applies it with one matrix-vector product, `(p.pinv @ r[..., None])[..., 0]`,
which is `p.pinv @ r` for one problem and one product per slice for a
zero-padded stack (T, M, n) (see `sensing`), factored by one batched `eigh`
with a cutoff per slice.  A zero row of Z is a zero row and column of G:
an eigenvalue of exactly 0, which the cutoff drops, and exact zeros in G^+
past the slice's own m.  G^+ sums over the stack's largest rank, with zero
weight past each slice's own, as `project_psd` pads W.  Like the adjoint
it goes through, the correction L*(G^+ (L(X) - b)) is Hermitian only up to
rounding; `project_affine` symmetrizes its result.

The PSD projection rebuilds its output from the square-root factor
W = V_+ diag(lambda_+)^{1/2} as W W*.  For a real W, numpy computes W @ W.T
with BLAS `syrk`: half the flops of a general product, and the result is
symmetric bit for bit; a complex W W* goes through `hermitize`.  Its input
need not be exactly Hermitian: `eigh` reads only the lower triangle.  It
returns W alongside W W*, so a solver can lift its iterate through the
factor (`sensing.apply_lifted_factor`, m n r work instead of m n^2).  On a
stack (T, n, n) it makes one batched `eigh`, and W has the stack's largest
rank r as its column count, with zero columns where a slice has fewer
positive eigenvalues; zero columns add exact zeros to W W* and to the lift.
"""

from dataclasses import dataclass

import numpy as np

from .linalg import eig, hermitize, require_same_shape, require_square, schatten_norm
from .sensing import (MeasurementVector, SensingEnsemble, apply_adjoint, apply_lifted,
                      require_measurements)

GRAM_CUTOFF = 1e-12


@dataclass(frozen=True)
class AffineProjector:
    pinv: np.ndarray  # (m, m) G^+, zero on the eigenvectors below the cutoff
    rank: int         # eigenvalues of G above the cutoff
    cond: float       # lambda_max / smallest retained lambda
    b: MeasurementVector
    e: SensingEnsemble  # the ensemble G was factored from
    # A stack of T projectors has a (T, m, m) pinv and (T,) arrays of rank and cond.


def require_projector(p, e):
    """Refuse an ensemble e unless the projector p was factored from it or an equal one."""
    if e is not p.e and not np.array_equal(e.vectors, p.e.vectors):
        raise ValueError("dimension mismatch: the projector was factored from another ensemble")


def build_affine_projector(e, b):
    """Factor the Gram matrix of the measurement frame once, for reuse.

    G^+ is built from the eigenpairs above the cutoff only, and is zero on
    the rest.  A stack is factored slice by slice (see the module docstring).
    """
    require_measurements(e, b)
    gram = hermitize(np.abs(e.vectors.conj() @ e.vectors.swapaxes(-1, -2)) ** 2)
    if not np.all(np.isfinite(gram)):
        raise ValueError("non-finite entries in Gram matrix")
    try:
        vals, vecs = np.linalg.eigh(gram)
    except np.linalg.LinAlgError as err:
        raise RuntimeError(f"Gram factorization failed: {err}") from err
    vals, vecs = vals[..., ::-1], vecs[..., ::-1]
    vmax = vals.max(axis=-1, initial=0.0)
    if np.any(vmax <= 0):
        raise RuntimeError("Gram factorization failed: matrix is zero")
    kept = vals > GRAM_CUTOFF * vmax[..., None]
    rank = np.count_nonzero(kept, axis=-1)
    r = rank.max()  # the values descend, so every kept value lies within it
    V = vecs[..., :r]
    weighted = np.divide(V, vals[..., None, :r], out=np.zeros_like(V), where=kept[..., None, :r])
    cond = vmax / vals.min(axis=-1, where=kept, initial=np.inf)
    return AffineProjector(pinv=weighted @ V.swapaxes(-1, -2), rank=rank[()], cond=cond[()],
                           b=b, e=e)


def project_affine(p, e, X):
    """Nearest matrix (Hilbert-Schmidt) with L(X) = b, least squares if overdetermined."""
    require_projector(p, e)
    X = require_square(X)
    r = apply_lifted(e, X) - p.b.values
    return hermitize(X - apply_adjoint(e, (p.pinv @ r[..., None])[..., 0]))


def project_psd(X):
    """Nearest positive semidefinite matrix P and its square-root factor W.

    Returns (P, W): P clamps the negative eigenvalues of X to 0, and
    W = V_r diag(lambda_r)^{1/2} is the (n, r) factor of the r positive
    eigenpairs (values are descending), so P = W W*.  Reads the lower
    triangle of X only, as `eigh` does.  The product costs about n*n*r/2
    (real, `syrk`) instead of n^3; r = 0 gives an (n, 0) W and exact zeros.
    A real W W* is already exactly symmetric; a complex one goes through
    `hermitize`, so it equals W W* only up to rounding.  A stack (T, n, n)
    gives P of the same shape and a (T, n, r) W, r the largest rank of any
    slice; a slice of lower rank has zero columns there.
    """
    values, vectors = eig(X)
    positive = np.maximum(values, 0)
    # the values descend, so a column holds a positive value in some slice
    # exactly when it lies within the largest rank
    r = np.count_nonzero(np.maximum.reduce(positive, axis=tuple(range(positive.ndim - 1))))
    W = vectors[..., :r] * np.sqrt(positive[..., None, :r])
    out = W @ W.conj().swapaxes(-1, -2)
    return (hermitize(out) if np.iscomplexobj(out) else out), W


def leading_eigenvector(X):
    """Top eigenpair under a fixed phase convention, and the next eigenvalue.

    Returns (lambda_1, unit vector, lambda_2), with lambda_2 = 0.0 for a
    1 x 1 matrix, all from one factorization.  The vector is rotated so its
    largest-magnitude component (first index on magnitude ties) is real and
    positive, which makes outputs comparable across runs.
    """
    values, vectors = eig(X)
    v = vectors[:, 0]
    # eigh columns are unit-norm, so the pivot is not zero.  The modulus comes
    # from np.hypot, which rounds as scalar abs() does; np.abs of a complex
    # array can differ in the last bit, and the tests pin the phase bitwise.
    pivot = v[np.argmax(np.abs(v))]
    second = float(values[1]) if values.size > 1 else 0.0
    return float(values[0]), v * (np.conj(pivot) / np.hypot(pivot.real, pivot.imag)), second


def recovery_error(X, X0):
    """Relative Frobenius error ||X - X0||_2 / ||X0||_2."""
    X, X0 = require_same_shape(X, X0)
    denom = schatten_norm(X0, 2)
    if denom == 0:
        raise ValueError("X0 must be nonzero")
    return schatten_norm(X - X0, 2) / denom


def vector_error_up_to_phase(x, x0):
    """min over phases of ||x - e^{i phi} x0||_2, in closed form.

    The optimal phase is arg <x, x0> (a sign in the real field), giving
    sqrt(||x||^2 + ||x0||^2 - 2 |<x, x0>|).
    """
    x, x0 = require_same_shape(np.asarray(x), np.asarray(x0))
    gap = np.linalg.norm(x) ** 2 + np.linalg.norm(x0) ** 2 - 2 * abs(np.vdot(x0, x))
    return float(np.sqrt(max(gap, 0.0)))
