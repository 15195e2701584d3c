"""Inexact dual certificate: construction and empirical verification.

The certificate for a unit signal direction x0 is the truncated sample
average

    Ybar = (1/m) sum_i 1_{E_i} w_i z_i z_i*,

with per-sample weights

    real:     w_i = 3/(n+2) ||z_i||^2 - <z_i, x0>^2,
    complex:  w_i = 4/(n+1) ||z_i||^2 - 2 |<z_i, x0>|^2,

and truncation events E_i = {|<z_i, x0>| <= sqrt(2 beta log n)} and
{||z_i|| <= sqrt(3n)}.  beta = inf disables truncation (both clauses), which
exposes the plain sample average whose expectation is the exact limit
certificate.  The weight vector lam with Ybar = L*(lam) is returned
alongside, since its l1 norm is what the stability argument controls.

Uniqueness holds when the certificate is small on the tangent space T and
uniformly positive on its complement; ``check_certificate`` measures exactly
those quantities and compares them against the fixed thresholds 1/2, 1, 5.
``build_certificate`` returns Ybar exactly as ``apply_adjoint`` forms it,
Hermitian up to rounding; ``check_certificate`` symmetrizes it on entry.
"""

import math
from dataclasses import dataclass

import numpy as np

from .linalg import REAL, check_anchor, hermitize, project_T, schatten_norm
from .sensing import apply_adjoint

Y_T_NUCLEAR_MAX = 0.5
T_PERP_MIN_EIG = 1.0
LAMBDA_L1_MAX = 5.0


@dataclass(frozen=True)
class CertificateParams:
    anchor: np.ndarray
    beta: float = 1.0  # math.inf disables truncation


@dataclass(frozen=True)
class CertificateReport:
    y_t_nuclear: float      # nuclear norm of the tangent part
    t_perp_min_eig: float   # smallest eigenvalue of the T-perp block
    t_perp_dev: float       # spectral distance of the T-perp block from 2I
    lambda_l1: float
    truncation_rate: float  # fraction of samples removed by the events
    pass_y_t: bool
    pass_t_perp: bool
    pass_lambda: bool

    @property
    def all_pass(self):
        return self.pass_y_t and self.pass_t_perp and self.pass_lambda


def certificate_weights(e, anchor, beta=math.inf):
    """Per-sample weights, zeroed outside the truncation events (none at beta = inf)."""
    Z = e.vectors
    corr = np.abs(Z.conj() @ anchor)
    sq = np.sum(np.abs(Z) ** 2, axis=1)
    if e.field == REAL:
        w = 3.0 / (e.n + 2) * sq - corr**2
    else:
        w = 4.0 / (e.n + 1) * sq - 2.0 * corr**2
    if math.isinf(beta):
        return w
    keep = (corr <= math.sqrt(2.0 * beta * math.log(e.n))) & (np.sqrt(sq) <= math.sqrt(3.0 * e.n))
    return keep * w


def build_certificate(e, params):
    """Return (Ybar, lam) with Ybar = L*(lam)."""
    anchor = check_anchor(params.anchor)
    if anchor.shape[0] != e.n:
        raise ValueError(f"dimension mismatch: anchor {anchor.shape} vs ensemble n={e.n}")
    if e.n < 2:
        raise ValueError("certificate requires n >= 2 (log n degenerates the truncation event)")
    if not params.beta > 0:  # rejects nan and -inf too; +inf disables truncation
        raise ValueError(f"beta must be positive (inf disables truncation), got {params.beta}")
    lam = certificate_weights(e, anchor, params.beta) / e.m
    return apply_adjoint(e, lam), lam


def check_certificate(Ybar, lam, anchor):
    """Measure the certificate against the fixed uniqueness thresholds.

    Ybar is symmetrized on entry, so Ybar and hermitize(Ybar) give the same
    report bit for bit; `apply_adjoint` is Hermitian only up to rounding.
    """
    anchor = check_anchor(anchor)
    n = anchor.shape[0]
    if Ybar.shape != (n, n):
        raise ValueError(f"dimension mismatch: Ybar {Ybar.shape} vs anchor n={n}")
    if n < 2:
        raise ValueError("certificate check requires n >= 2")
    Ybar = hermitize(Ybar)
    y_t_nuclear = schatten_norm(project_T(Ybar, anchor), 1)
    Q = _perp_basis(anchor)
    eigs = np.linalg.eigvalsh(hermitize(Q.conj().T @ Ybar @ Q))
    t_perp_min_eig = float(eigs[0])
    t_perp_dev = float(np.max(np.abs(eigs - 2.0)))
    lam = np.asarray(lam)
    lambda_l1 = float(np.sum(np.abs(lam)))
    truncation_rate = float(np.mean(lam == 0.0))
    return CertificateReport(
        y_t_nuclear=float(y_t_nuclear),
        t_perp_min_eig=t_perp_min_eig,
        t_perp_dev=t_perp_dev,
        lambda_l1=lambda_l1,
        truncation_rate=truncation_rate,
        pass_y_t=y_t_nuclear <= Y_T_NUCLEAR_MAX,
        pass_t_perp=t_perp_min_eig >= T_PERP_MIN_EIG,
        pass_lambda=lambda_l1 <= LAMBDA_L1_MAX,
    )


def _perp_basis(anchor):
    """Deterministic orthonormal basis of the anchor's orthogonal complement."""
    n = anchor.shape[0]
    stacked = np.column_stack([anchor, np.eye(n, dtype=anchor.dtype)])
    q, _ = np.linalg.qr(stacked)
    return q[:, 1:n]

