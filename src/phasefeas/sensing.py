"""Random sensing ensembles and the phaseless measurement operators.

An ensemble holds m sensing vectors z_i (rows of a (m, n) array).  It defines

* the quadratic map on vectors      A(x)_i   = |<x, z_i>|^2,
* its lifted linear version         L(X)_i   = z_i* X z_i,
* the adjoint                       L*(lam)  = sum_i lam_i z_i z_i*,

plus the closed-form second-moment operator of the sampling law and its
inverse, used by the dual-certificate construction.

Randomness is PCG64 (numpy default_rng) throughout; sub-streams are derived
by keyed SeedSequence so regeneration from (n, m, field, seed) is bit-exact
and parallel trials draw from disjoint streams.
"""

from dataclasses import dataclass, replace

import numpy as np

from .linalg import COMPLEX, REAL, check_field, hermitize, require_square


def derive_seed(master, *keys):
    """Deterministic 64-bit sub-seed for stream splitting.

    Stream rule: the seed for keys (k1, k2, ...) under a master seed is the
    first state word of SeedSequence([master, k1, k2, ...]).
    """
    entropy = [int(master) & 0xFFFFFFFFFFFFFFFF] + [int(k) & 0xFFFFFFFFFFFFFFFF for k in keys]
    return int(np.random.SeedSequence(entropy).generate_state(1, dtype=np.uint64)[0])


@dataclass(frozen=True)
class SensingEnsemble:
    n: int
    m: int
    field: str
    vectors: np.ndarray  # (m, n), row i is z_i
    seed: int | None     # None for externally supplied vectors


@dataclass(frozen=True)
class MeasurementVector:
    values: np.ndarray   # (m,) real
    epsilon: float = 0.0  # declared noise level, 0 for exact data


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
    return SensingEnsemble(n=n, m=m, field=field, vectors=Z, seed=int(seed))


def measure(e, x):
    """Phaseless measurements A(x)_i = |<x, z_i>|^2 (exact, epsilon = 0)."""
    x = np.asarray(x)
    if x.shape != (e.n,):
        raise ValueError(f"dimension mismatch: x has shape {x.shape}, ensemble n={e.n}")
    inner = e.vectors.conj() @ x
    return MeasurementVector(values=np.abs(inner) ** 2, epsilon=0.0)


def apply_lifted(e, X):
    """Lifted linear measurements {z_i* X z_i}_i, real for Hermitian X."""
    X = require_square(X)
    if X.shape[0] != e.n:
        raise ValueError(f"dimension mismatch: X is {X.shape}, ensemble n={e.n}")
    Z = e.vectors
    return np.real(np.sum((Z.conj() @ X) * Z, axis=1))


def apply_adjoint(e, lam):
    """Adjoint of the lifted map: sum_i lam_i z_i z_i*, a Hermitian matrix."""
    lam = np.asarray(lam, dtype=float)
    if lam.shape != (e.m,):
        raise ValueError(f"dimension mismatch: lam has shape {lam.shape}, ensemble m={e.m}")
    return hermitize((e.vectors.T * lam) @ e.vectors.conj())


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
    stability experiments tight and reproducible.  eps = 0 returns the input
    values unchanged (epsilon field reset to 0).
    """
    if eps < 0:
        raise ValueError(f"eps must be nonnegative, got {eps}")
    if eps == 0:
        return replace(b, epsilon=0.0)
    rng = np.random.default_rng(seed)
    nu = rng.standard_normal(b.values.shape[0])
    nu *= eps * x0_norm**2 / np.linalg.norm(nu)
    return MeasurementVector(values=b.values + nu, epsilon=float(eps))


def save_ensemble(e, path):
    """Write the regeneration header `n m field seed`; vectors are not stored."""
    if e.seed is None:
        raise ValueError("ensemble has no seed; externally supplied vectors cannot be serialized")
    with open(path, "w") as fh:
        fh.write(f"{e.n} {e.m} {e.field} {e.seed}\n")


def load_ensemble(path):
    with open(path) as fh:
        parts = fh.readline().split()
    if len(parts) != 4:
        raise ValueError(f"bad ensemble header in {path}: expected `n m field seed`")
    n, m, field, seed = int(parts[0]), int(parts[1]), parts[2], int(parts[3])
    return sample_ensemble(n, m, field, seed)
