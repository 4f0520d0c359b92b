"""System parameters and the derive stage: the classical steady state.

Unit conventions
----------------
All rates and frequencies (``omega_m1``, ``omega_m2``, ``gamma_m1``,
``gamma_m2``, ``kappa``, ``detuning``, ``coulomb_lambda``, ``opa_gain``)
are angular, in rad/s. The remaining fields are SI: mass in kg, cavity
length and laser wavelength in m, drive power in W, temperature in K,
and ``opa_phase`` in rad. The Coulomb term ``coulomb_lambda`` carries
rad/s because the oscillator quadratures are dimensionless.
"""

from __future__ import annotations

import dataclasses
import math

from . import steady_state
from .errors import DegenerateNormalMode

__all__ = [
    "PhysicalConstants",
    "CONSTANTS",
    "SystemParams",
    "reference_params",
    "DerivedQuantities",
    "thermal_occupation",
    "derive",
]


@dataclasses.dataclass(frozen=True)
class PhysicalConstants:
    """CODATA values used throughout (SI)."""

    hbar: float = 1.054571817e-34
    kB: float = 1.380649e-23
    c_light: float = 299792458.0


CONSTANTS = PhysicalConstants()

_POSITIVE_FIELDS = (
    "omega_m1",
    "omega_m2",
    "gamma_m1",
    "gamma_m2",
    "kappa",
    "mass",
    "cavity_length",
    "laser_wavelength",
)
_NONNEGATIVE_FIELDS = ("power", "opa_gain", "temperature")


@dataclasses.dataclass(frozen=True)
class SystemParams:
    """Operating point of the driven cavity and the two oscillators.

    ``detuning`` is the effective cavity-drive detuning, ``coulomb_lambda``
    the inter-oscillator coupling rate, ``opa_gain``/``opa_phase`` the
    parametric pump strength and phase. Validation rejects non-finite
    values, non-positive structural parameters, and any Coulomb coupling
    strong enough to destabilize the joint mechanical potential
    (``coulomb_lambda**2 >= omega_m1 * omega_m2``).
    """

    omega_m1: float = 2.0 * math.pi * 1.0e8
    omega_m2: float = 2.0 * math.pi * 1.0e8
    gamma_m1: float = 2.0 * math.pi * 1.0e2
    gamma_m2: float = 2.0 * math.pi * 1.0e2
    kappa: float = 8.81e7
    mass: float = 5.0e-12
    cavity_length: float = 1.0e-3
    laser_wavelength: float = 810e-9
    power: float = 0.05
    detuning: float = 2.0 * math.pi * 1.0e8
    coulomb_lambda: float = 0.0
    opa_gain: float = 0.0
    opa_phase: float = 0.0
    temperature: float = 4.0e-3

    def __post_init__(self) -> None:
        for name in _FIELD_NAMES:
            value = getattr(self, name)
            exact = type(value) is float
            if not exact and (not isinstance(value, (int, float)) or isinstance(value, bool)):
                raise ValueError(f"{name} must be a real number")
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
            if not exact:
                object.__setattr__(self, name, float(value))
        for name in _POSITIVE_FIELDS:
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        for name in _NONNEGATIVE_FIELDS:
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        # a product, not ** 2, which raises OverflowError past ~1.3e154
        if self.coulomb_lambda * self.coulomb_lambda >= self.omega_m1 * self.omega_m2:
            raise ValueError(
                "coulomb_lambda^2 must stay below omega_m1*omega_m2; "
                f"got lambda={self.coulomb_lambda}"
            )


# the field names, in order, for __post_init__'s per-row checks
_FIELD_NAMES = tuple(field.name for field in dataclasses.fields(SystemParams))


def reference_params(**overrides) -> SystemParams:
    """Baseline operating point with keyword overrides."""
    return SystemParams(**overrides)


def thermal_occupation(omega: float, temperature: float) -> float:
    """Bose occupation 1/(exp(hbar*omega/kB*T) - 1); zero at T=0.

    When hbar*omega/(kB*T) underflows to zero the occupation is inf, the
    IEEE limit, and the point fails at a later stage guard. NaN inputs
    are rejected with the other invalid ones.
    """
    if not omega > 0.0:
        raise ValueError(f"omega must be positive, got {omega}")
    if not temperature >= 0.0:
        raise ValueError(f"temperature must be >= 0, got {temperature}")
    kt = CONSTANTS.kB * temperature
    if kt == 0.0:  # T = 0, or kB*T underflows
        return 0.0
    x = CONSTANTS.hbar * omega / kt
    if x > 700.0:
        return 0.0
    return _ieee_div(1.0, math.expm1(x))


def _ieee_div(num: float, den: float) -> float:
    """num / den for num, den >= 0 as IEEE arithmetic has it: x/0 is inf, 0/0 NaN.

    The divisors in ``derive`` are positive products that underflow to
    zero at extreme inputs; the quotient then reaches the stage guards.
    """
    try:
        return num / den
    except ZeroDivisionError:
        return math.nan if num == 0.0 else math.inf


@dataclasses.dataclass(frozen=True)
class DerivedQuantities:
    """Scalars computed from a SystemParams operating point."""

    omega_c: float
    omega_L: float
    drive_E: float
    g0: float
    nbar: float
    c_s_re: float
    c_s_im: float
    q1s: float
    q2s: float
    g_m: float

    @property
    def c_s(self) -> complex:
        return complex(self.c_s_re, self.c_s_im)


def derive(params: SystemParams) -> DerivedQuantities:
    """Resolve the steady operating point of the driven system.

    The cavity and laser are treated as degenerate at the wavelength
    scale (omega_c = omega_L = 2*pi*c/lambda); the detuning field
    carries their effective separation. The drive is
    |E| = sqrt(2*kappa*P/(hbar*omega_L)), the bare coupling
    g0 = (omega_c/L)*sqrt(hbar/(m*omega_m1)), and radiation pressure
    on mode 1 gives q1s = g0*|c_s|^2 / (omega_m1 - lambda^2/omega_m2),
    which drags mode 2 to q2s = -(lambda/omega_m2)*q1s; the enhanced
    coupling is G = sqrt(2)*g0*|c_s|. Raises ThresholdSingularity from
    the cavity amplitude and DegenerateNormalMode when the Coulomb term
    leaves mode 1 no restoring force (omega_m1 - lambda^2/omega_m2 <= 0).
    """
    omega_laser = 2.0 * math.pi * CONSTANTS.c_light / params.laser_wavelength
    omega_cavity = omega_laser
    drive_e = math.sqrt(
        _ieee_div(2.0 * params.kappa * params.power, CONSTANTS.hbar * omega_laser)
    )
    zpf = math.sqrt(_ieee_div(CONSTANTS.hbar, params.mass * params.omega_m1))
    g0 = (omega_cavity / params.cavity_length) * zpf
    nbar = thermal_occupation(params.omega_m1, params.temperature)
    c_s = steady_state.cavity_amplitude(
        params.detuning, params.kappa, params.opa_gain, params.opa_phase, drive_e
    )
    lam = params.coulomb_lambda
    stiffness = params.omega_m1 - lam ** 2 / params.omega_m2
    if not stiffness > 0.0:
        raise DegenerateNormalMode(
            f"coulomb_lambda={lam:.6g} leaves mode 1 no restoring force "
            f"(omega_m1 - lambda^2/omega_m2 = {stiffness:.6g})"
        )
    try:
        abs_c_sq = abs(c_s) ** 2
    except OverflowError:  # past the float range: inf, as IEEE arithmetic has it
        abs_c_sq = math.inf
    q1s = g0 * abs_c_sq / stiffness
    return DerivedQuantities(
        omega_c=omega_cavity,
        omega_L=omega_laser,
        drive_E=drive_e,
        g0=g0,
        nbar=nbar,
        c_s_re=c_s.real,
        c_s_im=c_s.imag,
        q1s=q1s,
        q2s=-(lam / params.omega_m2) * q1s,
        g_m=math.sqrt(2.0) * g0 * abs(c_s),
    )
