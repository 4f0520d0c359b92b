"""Semiclassical steady state of the driven cavity and oscillators."""

from __future__ import annotations

import math

from .errors import DegenerateNormalMode, ThresholdSingularity

__all__ = [
    "THRESHOLD_RTOL",
    "cavity_amplitude",
    "displacements",
    "effective_coupling",
]

# denominators smaller than THRESHOLD_RTOL * kappa^2 count as on-threshold
THRESHOLD_RTOL = 1e-9


def cavity_amplitude(
    detuning: float,
    kappa: float,
    opa_gain: float,
    opa_phase: float,
    drive_E: float,
) -> complex:
    """Steady intracavity amplitude of the parametrically pumped mode.

    c_s = (kappa - i*detuning + 2*G*e^{i*theta}) * E / (kappa^2 + detuning^2 - 4*G^2).

    Raises ThresholdSingularity at or above the parametric oscillation
    threshold, i.e. whenever kappa^2 + detuning^2 - 4*gain^2 fails to
    clear THRESHOLD_RTOL * kappa^2: the linear steady state diverges
    there and no amplitude exists.
    """
    if kappa <= 0.0:
        raise ValueError(f"kappa must be positive, got {kappa}")
    denom = kappa * kappa + detuning * detuning - 4.0 * opa_gain * opa_gain
    if denom <= THRESHOLD_RTOL * kappa * kappa:
        raise ThresholdSingularity(
            f"parametric gain {opa_gain:.6g} is at or above the oscillation "
            f"threshold (kappa^2 + detuning^2 - 4*gain^2 = {denom:.6g})"
        )
    numer = complex(
        kappa + 2.0 * opa_gain * math.cos(opa_phase),
        -detuning + 2.0 * opa_gain * math.sin(opa_phase),
    )
    return numer * drive_E / denom


def displacements(
    g0: float,
    c_s: complex,
    omega_m1: float,
    omega_m2: float,
    coulomb_lambda: float,
) -> tuple[float, float]:
    """Static displacements (q1s, q2s) under radiation pressure on mode 1.

    The Coulomb term shifts mode 1's restoring force by lambda^2/omega_m2
    and drags mode 2 to q2s = -(lambda/omega_m2)*q1s. Raises
    DegenerateNormalMode when the joint potential loses confinement
    (omega_m1*omega_m2 <= lambda^2).
    """
    if omega_m1 <= 0.0 or omega_m2 <= 0.0:
        raise ValueError("mechanical frequencies must be positive")
    discr = omega_m1 * omega_m2 - coulomb_lambda * coulomb_lambda
    if discr <= 0.0:
        raise DegenerateNormalMode(
            f"coulomb_lambda={coulomb_lambda:.6g} collapses the joint potential "
            f"(omega_m1*omega_m2 - lambda^2 = {discr:.6g})"
        )
    q1s = g0 * abs(c_s) ** 2 / (omega_m1 - coulomb_lambda ** 2 / omega_m2)
    q2s = -(coulomb_lambda / omega_m2) * q1s
    return q1s, q2s


def effective_coupling(g0: float, c_s: complex) -> float:
    """Field-enhanced optomechanical rate G = sqrt(2)*g0*|c_s|."""
    return math.sqrt(2.0) * g0 * abs(c_s)
