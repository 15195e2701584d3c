"""Random sensing ensembles and the phaseless measurement operators.

An ensemble holds m sensing vectors z_i (rows of a (m, n) array).  It defines

* the quadratic map on vectors      A(x)_i   = |<x, z_i>|^2,
* its lifted linear version         L(X)_i   = z_i* X z_i,
* the adjoint                       L*(lam)  = sum_i lam_i z_i z_i*,

plus the closed-form second-moment operator S of the sampling law and its
inverse.  The dual certificate writes its weights z_i* S^{-1}(2(I - x0 x0*)) z_i
out in closed form instead of calling them.

The lifted map is one matrix product U = Z X^T, with U_ik = (X z_i)_k, then
one `np.einsum` row reduction of U against Z read as float64 arrays: a
complex128 (m, n) array is read as an (m, 2n) float64 view of its
interleaved real and imaginary parts, so the row sum is
sum_k Re((X z_i)_k conj(z_ik)) = Re(z_i* X z_i), for any square X.  No
conjugate of Z is copied and no imaginary part is formed; in the real field
the views are the arrays themselves, so one expression serves both fields.
Only a complex X on a real ensemble (or rows that are not contiguous) makes
a copy of Z, in U's dtype; the result is still Re(z_i* X z_i).
For X = W W* given by an n x r factor W, the factor lift
L(W W*)_i = ||W* z_i||^2 is one product U = Z conj(W), with U_ik =
(W* z_i)_k, and one `np.einsum` of U's float64 view against itself: m n r
multiply-adds instead of m n^2, and never more since r <= n.
The adjoint is one matrix product (Z^T diag(lam)) conj(Z).  It is Hermitian
only up to rounding: the layers that need exact symmetry symmetrize it
themselves (the affine projection, the POCS step and the certificate
check), and the DR and Nesterov steps hand it to `eigh`, which reads one
triangle.

The lift, the factor lift and the adjoint also take a stack of T problems
of one n: Z of shape (T, m, n), X of shape (T, n, n), W of shape (T, n, r)
and lam of shape (T, m), each slice computed as the 2-D call on it.  The
stack's m is its largest; a problem with fewer rows is zero-padded, and a
zero row z_i = 0 lifts to exactly 0 and adds exactly 0 to the adjoint, so
the padding changes no value of the real rows beyond rounding order.

Randomness is PCG64 (numpy default_rng) throughout; sub-streams are derived
by keyed SeedSequence so regeneration from (n, m, field, seed) is bit-exact
and parallel trials draw from disjoint streams.
"""

import math
from dataclasses import dataclass

import numpy as np

from .linalg import COMPLEX, REAL, check_field, require_square


def derive_seed(master, *keys):
    """Deterministic 64-bit sub-seed for stream splitting.

    Stream rule: the seed for keys (k1, k2, ...) under a master seed is the
    first state word of SeedSequence([master, k1, k2, ...]).
    """
    entropy = [int(master) & 0xFFFFFFFFFFFFFFFF] + [int(k) & 0xFFFFFFFFFFFFFFFF for k in keys]
    return int(np.random.SeedSequence(entropy).generate_state(1, dtype=np.uint64)[0])


@dataclass(frozen=True)
class SensingEnsemble:
    vectors: np.ndarray  # (m, n), row i is z_i; (T, m, n) for a stack

    @property
    def field(self):
        return COMPLEX if np.iscomplexobj(self.vectors) else REAL

    @property
    def m(self):
        return self.vectors.shape[-2]

    @property
    def n(self):
        return self.vectors.shape[-1]


@dataclass(frozen=True)
class MeasurementVector:
    values: np.ndarray   # (m,) real; (T, m) for a stack


def require_measurements(e, b):
    """Check that the measurement vector b holds one value per sensing vector of e."""
    if b.values.shape != e.vectors.shape[:-1]:
        raise ValueError(f"dimension mismatch: b has shape {b.values.shape}, "
                         f"ensemble {e.vectors.shape[:-1]}")


def sample_ensemble(n, m, field=REAL, seed=0):
    """Draw m sensing vectors with i.i.d. standard normal coordinates.

    Complex field: real and imaginary parts are each i.i.d. standard normal
    (drawn in that order), so E||z||^2 = 2n.
    """
    check_field(field)
    if n < 1 or m < 1:
        raise ValueError(f"n and m must be positive, got n={n}, m={m}")
    rng = np.random.default_rng(seed)
    Z = rng.standard_normal((m, n))
    if field == COMPLEX:
        Z = Z + 1j * rng.standard_normal((m, n))
    return SensingEnsemble(vectors=Z)


def measure(e, x):
    """Exact phaseless measurements A(x)_i = |<x, z_i>|^2."""
    x = np.asarray(x)
    if x.shape != (e.n,):
        raise ValueError(f"dimension mismatch: x has shape {x.shape}, ensemble n={e.n}")
    inner = e.vectors.conj() @ x
    return MeasurementVector(values=np.abs(inner) ** 2)


def apply_lifted(e, X):
    """Lifted linear measurements {Re(z_i* X z_i)}_i, for any square X.

    For Hermitian X these are z_i* X z_i.  A real X on a complex ensemble
    and a complex X on a real ensemble are both read in the wider dtype.
    """
    X = require_square(X)
    if X.shape[-1] != e.n:
        raise ValueError(f"dimension mismatch: X is {X.shape}, ensemble n={e.n}")
    U = e.vectors @ X.swapaxes(-1, -2)
    # the views need Z in U's dtype and C-contiguous; a sampled Z already is
    Z = np.ascontiguousarray(e.vectors, dtype=U.dtype)
    part = U.real.dtype
    return np.einsum("...ij,...ij->...i", U.view(part), Z.view(part))


def apply_lifted_factor(e, W):
    """Lifted measurements of X = W W* from its (n, r) factor: ||W* z_i||^2.

    Equal to `apply_lifted(e, W @ W.conj().T)` up to rounding, for any r >= 0
    (r = 0 gives zeros).  U = Z conj(W) is a fresh C-contiguous array, so
    its float64 view needs no copy whatever the dtypes of Z and W.  A stack
    takes W of shape (T, n, r), with zero columns where a slice's rank is
    below r.
    """
    if W.ndim != e.vectors.ndim or W.shape[-2] != e.n:
        raise ValueError(f"dimension mismatch: W is {W.shape}, ensemble n={e.n}")
    U = e.vectors @ W.conj()
    U = U.view(U.real.dtype)
    return np.einsum("...ij,...ij->...i", U, U)


def apply_adjoint(e, lam):
    """Adjoint of the lifted map: sum_i lam_i z_i z_i*.

    Hermitian only up to rounding: entries (j, k) and (k, j) may differ in
    the last bits.  Callers that need exact symmetry apply `hermitize`.
    """
    lam = np.asarray(lam, dtype=float)
    if lam.shape != e.vectors.shape[:-1]:
        raise ValueError(f"dimension mismatch: lam has shape {lam.shape}, "
                         f"ensemble {e.vectors.shape[:-1]}")
    return (e.vectors.swapaxes(-1, -2) * lam[..., None, :]) @ e.vectors.conj()


def s_apply(X, field=REAL):
    """Second-moment operator: 2X + Tr(X) I (real), X + Tr(X) I (complex)."""
    X = require_square(X)
    check_field(field)
    t = np.trace(X)
    eye = np.eye(X.shape[0], dtype=X.dtype)
    if field == REAL:
        return 2 * X + t * eye
    return X + t * eye


def s_inverse(X, field=REAL):
    """Inverse of s_apply for the matching field."""
    X = require_square(X)
    check_field(field)
    n = X.shape[0]
    t = np.trace(X)
    eye = np.eye(n, dtype=X.dtype)
    if field == REAL:
        return 0.5 * (X - t / (n + 2) * eye)
    return X - t / (n + 1) * eye


def add_noise(b, eps, x0_norm, seed=0):
    """Add a Gaussian noise vector rescaled to ||nu||_2 = eps * x0_norm^2.

    The noise saturates the feasibility radius exactly, which keeps the
    stability experiments tight and reproducible.  eps = 0 returns b itself.
    b must be one problem's (m,) vector; a stack raises ValueError.
    """
    if not (math.isfinite(eps) and eps >= 0):
        raise ValueError(f"eps must be a finite number >= 0, got {eps!r}")
    if not math.isfinite(x0_norm):
        raise ValueError(f"x0_norm must be a finite number, got {x0_norm!r}")
    if b.values.ndim != 1:
        raise ValueError(f"dimension mismatch: b must be one (m,) vector, "
                         f"got shape {b.values.shape}")
    if eps == 0:
        return b
    rng = np.random.default_rng(seed)
    nu = rng.standard_normal(b.values.shape[0])
    nu *= eps * x0_norm**2 / np.linalg.norm(nu)
    return MeasurementVector(values=b.values + nu)

