"""Shared helpers for the test suite."""

import numpy as np

from phasefeas.linalg import COMPLEX, REAL, hermitize

FIELDS = (REAL, COMPLEX)


def rand_hermitian(rng, n, field=REAL, scale=1.0):
    A = rng.standard_normal((n, n))
    if field == COMPLEX:
        A = A + 1j * rng.standard_normal((n, n))
    return hermitize(scale * A)


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
