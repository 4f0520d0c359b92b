"""Logarithmic negativity of the two-oscillator reduced Gaussian state."""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from . import smallmat
from .errors import NonPhysicalState, unstack

__all__ = [
    "PHYS_EPS_FLOOR",
    "EntanglementResult",
    "log_negativity",
]

# roundoff bands: the uncertainty relation may fail by
# eps = PHYS_EPS_FLOOR * max(1, sigma^2), and varrho may sit a relative
# PHYS_EPS_FLOOR below 1/2, before the state is unphysical or entangled
PHYS_EPS_FLOOR = 1e-12


@dataclasses.dataclass(frozen=True)
class EntanglementResult:
    """Symplectic invariants and the resulting negativity."""

    sigma: float
    varrho: float
    log_negativity: float
    entangled: bool


def log_negativity(v):
    """E_N = max(0, -ln 2*varrho) of the 4x4 oscillator covariance v.

    v is [[A, C], [C^T, B]] in (q1, p1, q2, p2) order. varrho is the
    smaller symplectic eigenvalue of the partial transpose:
    varrho^2 = (Sigma - sqrt(Sigma^2 - 4 det V)) / 2 with
    Sigma = det A + det B - 2 det C. The state is entangled exactly
    when varrho < 1/2 (vacuum variance); a varrho within the relative
    roundoff band PHYS_EPS_FLOOR below 1/2 counts as separable, with
    E_N = 0. Raises ValueError unless v is 4x4, and NonPhysicalState
    unless v is a bona fide covariance (Simon, Mukunda and Dutta,
    PRA 49, 1567 (1994)): Sigma^2 - 4 det V must be finite, which also
    covers Sigma and det V; v must be positive definite, judged by its
    leading principal minors; and both symplectic eigenvalues of v must
    be at least 1/2, judged from Delta = det A + det B + 2 det C and
    det V. For V > 0 the partial transpose is positive definite too, so
    a negative square root argument is roundoff and is clamped to zero.

    A stack (B, 4, 4) takes one ``smallmat.det`` call and returns a
    list of B entries, each the covariance's EntanglementResult or the
    NonPhysicalState a single call would raise for it, equal to the bit.
    """
    arr = np.asarray(v, dtype=float)
    if arr.shape[-2:] != (4, 4) or arr.ndim not in (2, 3):
        raise ValueError(f"expected a 4x4 covariance or a stack of them, got {arr.shape}")
    single = arr.ndim == 2
    if single:
        arr = arr[None]
    # Python floats: the same IEEE products, but an overflow is a silent inf
    out = [_invariants(q, detv) for q, detv in zip(arr.tolist(), smallmat.det(arr).tolist())]
    return unstack(out) if single else out


def _invariants(q, detv: float) -> EntanglementResult | NonPhysicalState:
    """log_negativity's result from the rows q of V and det V, or its failure."""
    det_a = q[0][0] * q[1][1] - q[0][1] * q[1][0]
    det_b = q[2][2] * q[3][3] - q[2][3] * q[3][2]
    det_c = q[0][2] * q[1][3] - q[0][3] * q[1][2]
    sigma = det_a + det_b - 2.0 * det_c
    disc = sigma * sigma - 4.0 * detv
    # eps below scales with Sigma^2, so an overflowed Sigma^2 would
    # excuse any excursion; such invariants cannot be classified
    if not math.isfinite(disc):
        return NonPhysicalState(
            f"Sigma = {sigma:.6g}, det V = {detv:.6g}: Sigma^2 - 4 det V is "
            "not finite; the matrix is not a valid two-mode covariance"
        )
    # Sylvester's criterion: V > 0 exactly when its leading principal
    # minors are positive
    minor3 = (q[0][0] * (q[1][1] * q[2][2] - q[1][2] * q[2][1])
              - q[0][1] * (q[1][0] * q[2][2] - q[1][2] * q[2][0])
              + q[0][2] * (q[1][0] * q[2][1] - q[1][1] * q[2][0]))
    if not (q[0][0] > 0.0 and det_a > 0.0 and minor3 > 0.0 and detv > 0.0):
        return NonPhysicalState(
            f"leading principal minors {q[0][0]:.6g}, {det_a:.6g}, "
            f"{minor3:.6g}, {detv:.6g}: the matrix is not positive definite, "
            "so it is not a physical two-mode covariance"
        )
    eps = PHYS_EPS_FLOOR * max(1.0, sigma * sigma)
    # uncertainty relation: both symplectic eigenvalues of V are >= 1/2
    # exactly when Delta >= 1/2 and 1/4 + 4 det V - Delta >= 0
    delta = det_a + det_b + 2.0 * det_c
    if not (delta >= 0.5 - eps and 0.25 + 4.0 * detv - delta >= -eps):
        return NonPhysicalState(
            f"Delta = {delta:.6g}, det V = {detv:.6g}: the matrix breaks the "
            "uncertainty relation, so it is not a physical two-mode covariance"
        )
    # Sigma^2 - 4 det V = (nu~+^2 - nu~-^2)^2 and inner = nu~-^2 > 0
    inner = max(0.5 * (sigma - math.sqrt(max(disc, 0.0))), 0.0)
    varrho = math.sqrt(inner)
    # a product state on the boundary (a vacuum mode at T = 0) can land a
    # few ulps below 1/2; that band is roundoff, not entanglement
    entangled = varrho < 0.5 * (1.0 - PHYS_EPS_FLOOR)
    if not entangled:
        log_neg = 0.0
    elif varrho == 0.0:
        log_neg = math.inf
    else:
        log_neg = -math.log(2.0 * varrho)
    return EntanglementResult(
        sigma=sigma,
        varrho=varrho,
        log_negativity=log_neg,
        entangled=entangled,
    )
