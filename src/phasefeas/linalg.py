"""Field-generic dense Hermitian matrix helpers.

Everything downstream (sensing operators, projectors, solvers, certificate
checks) works on plain numpy arrays: float64 for the real field, complex128
for the complex field.  Hermitian matrices are kept exactly self-adjoint by
construction via :func:`hermitize`, or, for the real PSD rebuild W W^T, by
BLAS `syrk`, which fills one triangle and mirrors it.  `hermitize`,
`require_square` and `eig` also take a stack of matrices, shape (T, n, n),
and act on each slice as on one matrix.
"""

import operator

import numpy as np

REAL = "real"
COMPLEX = "complex"
FIELDS = (REAL, COMPLEX)

ANCHOR_TOL = 1e-12


def check_field(field):
    if field not in FIELDS:
        raise ValueError(f"unknown field {field!r}, expected one of {FIELDS}")
    return field


def dtype_for(field):
    check_field(field)
    return np.complex128 if field == COMPLEX else np.float64


def hermitize(X):
    """Return (X + X*)/2, exactly self-adjoint entry by entry.

    For entry (i, j) the result is 0.5*(X[i,j] + conj(X[j,i])); its conjugate
    equals entry (j, i) bit-exactly, and diagonals lose any imaginary part.
    """
    X = np.asarray(X)
    return (X + X.conj().swapaxes(-1, -2)) / 2


def require_square(X):
    """X as an array, square in its last two axes (one matrix or a stack)."""
    X = np.asarray(X)
    if X.ndim < 2 or X.shape[-1] != X.shape[-2]:
        raise ValueError(f"dimension mismatch: matrix must be square, got shape {X.shape}")
    return X


def require_integer(name, value):
    """Raise ValueError naming `name` unless `operator.index` takes `value`.

    Ints and numpy integers pass; floats, even integral ones, do not.
    """
    try:
        operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def require_same_shape(X, Y):
    X, Y = np.asarray(X), np.asarray(Y)
    if X.shape != Y.shape:
        raise ValueError(f"dimension mismatch: {X.shape} vs {Y.shape}")
    return X, Y


def check_anchor(x):
    """Validate a unit-norm subspace anchor (tolerance 1e-12 on the norm)."""
    x = np.asarray(x)
    if x.ndim != 1:
        raise ValueError(f"anchor must be a vector, got shape {x.shape}")
    nrm = np.linalg.norm(x)
    if abs(nrm - 1.0) > ANCHOR_TOL:
        raise ValueError(f"anchor must be unit norm, got ||x|| = {nrm!r}")
    return x


def eig(X):
    """Eigendecomposition (values, vectors) of a Hermitian matrix, or of each in a stack.

    The values are real and descending; the vectors are orthonormal
    columns, as `np.linalg.eigh` returns them, with no phase convention:
    callers that expose a vector fix its phase themselves (see
    `projections.leading_eigenvector`).  Deterministic for a fixed input.
    Both arrays are reversed views of `eigh`'s output, not copies.  A
    stack is one batched `eigh` call, each slice bit for bit its own call;
    one non-finite slice rejects the whole stack.
    """
    X = require_square(X)
    if not np.isfinite(X).all():
        raise ValueError("non-finite input")
    values, vectors = np.linalg.eigh(X)
    return values[..., ::-1], vectors[..., ::-1]


def schatten_norm(X, p):
    """Schatten p-norm for p in {1, 2, inf}; p=2 is the Frobenius norm."""
    X = require_square(X)
    if not np.all(np.isfinite(X)):
        raise ValueError("non-finite input")
    if p == 2:
        return float(np.linalg.norm(X, "fro"))
    sv = np.abs(np.linalg.eigvalsh(X))  # singular values of a Hermitian matrix
    if p == 1:
        return float(sv.sum())
    if p == np.inf:
        return float(sv.max()) if sv.size else 0.0
    raise ValueError(f"p must be 1, 2 or inf, got {p!r}")


def hs_inner(X, Y):
    """Hilbert-Schmidt inner product Tr(Y* X), real for Hermitian arguments."""
    X, Y = require_same_shape(X, Y)
    return float(np.real(np.vdot(Y, X)))


def project_T(X, anchor):
    """Project onto T_x = {x y* + y x*}, the tangent space at the rank-1 point.

    Returns X - (I - xx*) X (I - xx*), computed as xu* + ux* - (x*Xx) xx*
    with u = Xx; the result has rank at most 2.
    """
    X = require_square(X)
    x = check_anchor(anchor)
    if x.shape[0] != X.shape[0]:
        raise ValueError(f"dimension mismatch: anchor {x.shape} vs matrix {X.shape}")
    u = X @ x
    s = np.real(np.vdot(x, u))
    part = np.outer(x, u.conj()) + np.outer(u, x.conj()) - s * np.outer(x, x.conj())
    return hermitize(part)


def project_Tperp(X, anchor):
    """Project onto T_x^perp: (I - xx*) X (I - xx*)."""
    X = require_square(X)
    return hermitize(X - project_T(X, anchor))
