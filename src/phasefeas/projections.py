"""Projectors onto the two constraint sets, plus solution rounding.

The affine projector maps X onto {Z : L(Z) = b} via

    X  ->  X - L*(G^+ (L(X) - b)),     G_ij = |<z_i, z_j>|^2,

where G = L L* is the Gram matrix of the rank-1 frame {z_i z_i*} and G^+ is
a rank-revealing pseudoinverse (relative eigenvalue cutoff 1e-12), so the
same code path covers the underdetermined, critically determined, and
least-squares regimes.  The Gram factorization is computed once per problem
instance and reused across all solver iterations.
"""

from dataclasses import dataclass

import numpy as np

from .linalg import eig, hermitize, require_same_shape, require_square, schatten_norm
from .sensing import MeasurementVector, apply_adjoint, apply_lifted

GRAM_CUTOFF = 1e-12


@dataclass(frozen=True)
class AffineProjector:
    gram: np.ndarray       # (m, m) real symmetric PSD
    eigvals: np.ndarray    # descending
    eigvecs: np.ndarray
    inv_vals: np.ndarray   # 1/lambda above the cutoff, 0 below
    cond: float            # lambda_max / smallest retained lambda
    b: MeasurementVector

    def pinv_apply(self, y):
        return self.eigvecs @ (self.inv_vals * (self.eigvecs.T @ y))


def build_affine_projector(e, b):
    """Factor the Gram matrix of the measurement frame once, for reuse."""
    if b.values.shape != (e.m,):
        raise ValueError(f"dimension mismatch: b has shape {b.values.shape}, ensemble m={e.m}")
    inner = e.vectors.conj() @ e.vectors.T
    gram = np.abs(inner) ** 2
    gram = (gram + gram.T) / 2
    if not np.all(np.isfinite(gram)):
        raise ValueError("non-finite entries in Gram matrix")
    try:
        vals, vecs = np.linalg.eigh(gram)
    except np.linalg.LinAlgError as err:
        raise RuntimeError(f"Gram factorization failed: {err}") from err
    vals, vecs = vals[::-1].copy(), vecs[:, ::-1].copy()
    vmax = float(vals[0]) if vals.size else 0.0
    if vmax <= 0:
        raise RuntimeError(f"Gram factorization failed: matrix is zero (lambda_max={vmax!r})")
    keep = vals > GRAM_CUTOFF * vmax
    inv_vals = np.where(keep, 1.0 / np.where(keep, vals, 1.0), 0.0)
    cond = vmax / float(vals[keep][-1])
    return AffineProjector(gram=gram, eigvals=vals, eigvecs=vecs,
                           inv_vals=inv_vals, cond=cond, b=b)


def project_affine(p, e, X):
    """Nearest matrix (Hilbert-Schmidt) with L(X) = b, least squares if overdetermined."""
    X = require_square(X)
    resid = apply_lifted(e, X) - p.b.values
    return hermitize(X - apply_adjoint(e, p.pinv_apply(resid)))


def project_psd(X):
    """Nearest positive semidefinite matrix: clamp negative eigenvalues to 0.

    Rebuilt from the r positive eigenpairs only (values are descending), so
    the product costs n*n*r instead of n^3; r = 0 gives exact zeros.
    """
    d = eig(X)
    r = int(np.count_nonzero(d.values > 0))
    V = d.vectors[:, :r]
    return hermitize((V * d.values[:r]) @ V.conj().T)


def leading_eigenvector(X):
    """Top eigenpair (eigenvalue, unit vector) under the fixed phase convention."""
    d = eig(X)
    return float(d.values[0]), d.vectors[:, 0]


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
