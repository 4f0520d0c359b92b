"""Steady intracavity amplitude of the parametrically pumped cavity."""

from __future__ import annotations

import math

from .errors import ThresholdSingularity

__all__ = ["THRESHOLD_RTOL", "cavity_amplitude"]

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
    if not kappa > 0.0:
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
