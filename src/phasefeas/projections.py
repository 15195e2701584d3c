"""Projectors onto the two constraint sets, plus solution rounding.

The affine projector maps X onto {Z : L(Z) = b} via

    X  ->  X - L*(G^+ (L(X) - b)),     G_ij = |<z_i, z_j>|^2,

where G = L L* is the Gram matrix of the rank-1 frame {z_i z_i*} and G^+ is
a rank-revealing pseudoinverse (relative eigenvalue cutoff 1e-12), so the
same code path covers the underdetermined, critically determined, and
least-squares regimes.  The Gram factorization is computed once per problem
instance and reused across all solver iterations.  The correction
L*(G^+ r) for a lifted residual r is `affine_correction`; the solvers call it
with a residual they already hold, so they need not lift X again.
"""

from dataclasses import dataclass

import numpy as np

from .linalg import eig, hermitize, require_same_shape, require_square, schatten_norm
from .sensing import MeasurementVector, apply_adjoint, apply_lifted

GRAM_CUTOFF = 1e-12


@dataclass(frozen=True)
class AffineProjector:
    gram: np.ndarray       # (m, m) real symmetric PSD
    eigvecs: np.ndarray    # (m, rank): the eigenvectors above the cutoff, descending
    inv_vals: np.ndarray   # (rank,): 1/lambda of those eigenvectors
    cond: float            # lambda_max / smallest retained lambda
    b: MeasurementVector

    @property
    def rank(self):
        """Retained eigenvalues: the eigenvalues of G above the cutoff."""
        return self.eigvecs.shape[1]

    def pinv_apply(self, y):
        return self.eigvecs @ (self.inv_vals * (self.eigvecs.T @ y))

    def range_apply(self, y):
        """G G^+ y, the part of y in the range of G; y itself at full rank."""
        if self.rank == self.gram.shape[0]:
            return y
        return self.eigvecs @ (self.eigvecs.T @ y)


def build_affine_projector(e, b):
    """Factor the Gram matrix of the measurement frame once, for reuse.

    Only the eigenpairs above the cutoff are kept: G^+ is zero on the rest.
    """
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
    vals, vecs = vals[::-1], vecs[:, ::-1]
    vmax = float(vals[0]) if vals.size else 0.0
    if vmax <= 0:
        raise RuntimeError(f"Gram factorization failed: matrix is zero (lambda_max={vmax!r})")
    rank = int(np.count_nonzero(vals > GRAM_CUTOFF * vmax))
    return AffineProjector(gram=gram, eigvecs=vecs[:, :rank].copy(), inv_vals=1.0 / vals[:rank],
                           cond=vmax / float(vals[rank - 1]), b=b)


def affine_correction(p, e, r):
    """L*(G^+ r): X minus this is the affine projection of X when r = L(X) - b.

    The result is exactly Hermitian, and L of it is `p.range_apply(r)`.
    """
    return apply_adjoint(e, p.pinv_apply(r))


def project_affine(p, e, X):
    """Nearest matrix (Hilbert-Schmidt) with L(X) = b, least squares if overdetermined."""
    X = require_square(X)
    return hermitize(X - affine_correction(p, e, apply_lifted(e, X) - p.b.values))


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
    """Top eigenpair (eigenvalue, unit vector) under a fixed phase convention.

    The vector is rotated so its largest-magnitude component (first index on
    magnitude ties) is real and positive, which makes outputs comparable
    across runs.
    """
    d = eig(X)
    v = d.vectors[:, 0]
    # eigh columns are unit-norm, so the pivot is not zero.  The modulus comes
    # from np.hypot, which rounds as scalar abs() does; np.abs of a complex
    # array can differ in the last bit, and the tests pin the phase bitwise.
    pivot = v[np.argmax(np.abs(v))]
    return float(d.values[0]), v * (np.conj(pivot) / np.hypot(pivot.real, pivot.imag))


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
