"""Shared helpers for the test suite."""

import numpy as np
from hypothesis import strategies as st

from phasefeas.linalg import COMPLEX, REAL, hermitize
from phasefeas.projections import project_affine, project_psd
from phasefeas.sensing import SensingEnsemble, add_noise, measure

FIELDS = (REAL, COMPLEX)


def rand_square(rng, n, field=REAL):
    A = rng.standard_normal((n, n))
    if field == COMPLEX:
        A = A + 1j * rng.standard_normal((n, n))
    return A


def rand_hermitian(rng, n, field=REAL, scale=1.0):
    return hermitize(scale * rand_square(rng, n, field))


def rand_vector(rng, n, field=REAL):
    v = rng.standard_normal(n)
    if field == COMPLEX:
        v = v + 1j * rng.standard_normal(n)
    return v


def rand_unit(rng, n, field=REAL):
    v = rand_vector(rng, n, field)
    return v / np.linalg.norm(v)


def eig_loop_reference(X):
    """Descending eigh with each column phase-fixed one at a time, as an oracle.

    Convention: the largest-magnitude component (first index on ties) of
    each eigenvector is made real and positive.
    """
    values, vectors = np.linalg.eigh(X)
    values = values[::-1].copy()
    vectors = vectors[:, ::-1].copy()
    for j in range(vectors.shape[1]):
        k = int(np.argmax(np.abs(vectors[:, j])))
        pivot = vectors[k, j]
        if pivot != 0:
            vectors[:, j] *= np.conj(pivot) / abs(pivot)
    return values, vectors


def textbook_dr(p, e, Y, k):
    """The points (X_j, Y_j), j = 1..k, of the textbook Douglas-Rachford loop from Y_0 = Y.

    X_0 = P_psd(Y_0), then Y_j = P_aff(2 X_{j-1} - Y_{j-1}) - X_{j-1} + Y_{j-1}
    and X_j = P_psd(Y_j), with every point lifted dense by `project_affine`.
    """
    path = []
    X = project_psd(Y)[0]
    for _ in range(k):
        Y = project_affine(p, e, 2 * X - Y) - X + Y
        X = project_psd(Y)[0]
        path.append((X, Y))
    return path


def gram_matrix(e):
    """G_ij = |<z_i, z_j>|^2, formed as `build_affine_projector` forms it."""
    return hermitize(np.abs(e.vectors.conj() @ e.vectors.T) ** 2)


def lifted_matrix(e):
    """The explicit m x n^2 matrix A of the lifted map: A @ X.ravel() = z_i* X z_i.

    Row i is conj(z_i) z_i^T read in C order, so L*(lam) is
    (A^H lam).reshape(n, n) and G = A A^H.
    """
    Z = e.vectors
    return np.einsum("ij,ik->ijk", Z.conj(), Z).reshape(e.m, e.n * e.n)


@st.composite
def instances(draw):
    """Small random instances of both fields, noisy or exact, with m = 1,
    m past n(n+1)/2 (a rank-deficient Gram matrix in the real field) and
    repeated rows (a rank-deficient Gram matrix in either field)."""
    field = draw(st.sampled_from(FIELDS))
    n = draw(st.integers(1, 5))
    dim = n * (n + 1) // 2
    m = draw(st.one_of(st.just(1), st.integers(1, 2 * n + 2), st.integers(dim, dim + 5)))
    repeats = draw(st.integers(0, min(m - 1, 3)))
    eps = draw(st.sampled_from([0.0, 0.1]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = [rand_vector(rng, n, field) for _ in range(m - repeats)]
    rows += [rows[int(rng.integers(len(rows)))] for _ in range(repeats)]
    e = SensingEnsemble(vectors=np.array(rows))
    b = add_noise(measure(e, rand_unit(rng, n, field)), eps, 1.0, seed=int(rng.integers(2**32)))
    return e, b
