"""Logarithmic negativity of the two-oscillator reduced Gaussian state."""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from . import smallmat
from .errors import NonPhysicalState

__all__ = [
    "PHYS_EPS_FLOOR",
    "ReducedCovariance",
    "EntanglementResult",
    "reduce_mechanical",
    "log_negativity",
]

# negative excursions larger than eps = PHYS_EPS_FLOOR * max(1, sigma^2)
# mean the covariance is not a physical Gaussian state; smaller ones are
# roundoff and get clamped to zero
PHYS_EPS_FLOOR = 1e-12


@dataclasses.dataclass(frozen=True)
class ReducedCovariance:
    """2x2 blocks of the oscillator pair: phi1, phi2 marginals, phi3 cross."""

    phi1: np.ndarray
    phi2: np.ndarray
    phi3: np.ndarray

    def assembled(self) -> np.ndarray:
        """The 4x4 covariance [[phi1, phi3], [phi3^T, phi2]]."""
        top = np.hstack([self.phi1, self.phi3])
        bottom = np.hstack([self.phi3.T, self.phi2])
        return np.vstack([top, bottom])


@dataclasses.dataclass(frozen=True)
class EntanglementResult:
    """Symplectic invariants and the resulting negativity."""

    sigma: float
    varrho: float
    log_negativity: float
    entangled: bool


def reduce_mechanical(v) -> ReducedCovariance:
    """Trace out the cavity: keep the first four rows and columns."""
    arr = np.asarray(v, dtype=float)
    if arr.shape != (6, 6):
        raise ValueError(f"expected a 6x6 covariance, got {arr.shape}")
    return ReducedCovariance(
        phi1=arr[0:2, 0:2].copy(),
        phi2=arr[2:4, 2:4].copy(),
        phi3=arr[0:2, 2:4].copy(),
    )


def log_negativity(reduced: ReducedCovariance) -> EntanglementResult:
    """E_N = max(0, -ln 2*varrho) from the partially transposed spectrum.

    varrho is the smaller symplectic eigenvalue of the partial
    transpose: varrho^2 = (Sigma - sqrt(Sigma^2 - 4 det V)) / 2 with
    Sigma = det phi1 + det phi2 - 2 det phi3. The state is entangled
    exactly when varrho < 1/2 (vacuum variance). Raises
    NonPhysicalState when Sigma^2 - 4 det V is not finite, which also
    covers a non-finite Sigma or det V, or when either square root
    argument is negative beyond roundoff.
    """
    det1 = smallmat.det(reduced.phi1)
    det2 = smallmat.det(reduced.phi2)
    det3 = smallmat.det(reduced.phi3)
    detv = smallmat.det(reduced.assembled())
    sigma = det1 + det2 - 2.0 * det3
    disc = sigma * sigma - 4.0 * detv
    # eps below scales with Sigma^2, so an overflowed Sigma^2 would
    # excuse any excursion; such invariants cannot be classified
    if not math.isfinite(disc):
        raise NonPhysicalState(
            f"Sigma = {sigma:.6g}, det V = {detv:.6g}: Sigma^2 - 4 det V is "
            "not finite; the matrix is not a valid two-mode covariance"
        )
    eps = PHYS_EPS_FLOOR * max(1.0, sigma * sigma)
    if not disc >= -eps:
        raise NonPhysicalState(
            f"Sigma^2 - 4 det V = {disc:.6g} is negative beyond roundoff; "
            "the matrix is not a valid two-mode covariance"
        )
    disc = max(disc, 0.0)
    inner = 0.5 * (sigma - math.sqrt(disc))
    if not inner >= -eps:
        raise NonPhysicalState(
            f"squared symplectic eigenvalue {inner:.6g} is negative beyond "
            "roundoff; the matrix is not a valid two-mode covariance"
        )
    inner = max(inner, 0.0)
    varrho = math.sqrt(inner)
    if varrho == 0.0:
        log_neg = math.inf
    else:
        log_neg = max(0.0, -math.log(2.0 * varrho))
    return EntanglementResult(
        sigma=sigma,
        varrho=varrho,
        log_negativity=log_neg,
        entangled=bool(varrho < 0.5),
    )
