"""System parameters and scalar derived quantities.

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

__all__ = [
    "PhysicalConstants",
    "CONSTANTS",
    "SystemParams",
    "reference_params",
    "DerivedQuantities",
    "thermal_occupation",
    "drive_amplitude",
    "single_photon_coupling",
    "coulomb_strength",
    "derive",
]


@dataclasses.dataclass(frozen=True)
class PhysicalConstants:
    """CODATA values used throughout (SI)."""

    hbar: float = 1.054571817e-34
    kB: float = 1.380649e-23
    c_light: float = 299792458.0
    k_e: float = 8.9875517923e9


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
        for name in dataclasses.fields(self):
            value = getattr(self, name.name)
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ValueError(f"{name.name} must be a real number")
            if not math.isfinite(value):
                raise ValueError(f"{name.name} must be finite, got {value!r}")
            object.__setattr__(self, name.name, float(value))
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


def reference_params(**overrides) -> SystemParams:
    """Baseline operating point with keyword overrides."""
    return SystemParams(**overrides)


def thermal_occupation(omega: float, temperature: float) -> float:
    """Bose occupation 1/(exp(hbar*omega/kB*T) - 1); zero at T=0."""
    if omega <= 0.0:
        raise ValueError(f"omega must be positive, got {omega}")
    if temperature < 0.0:
        raise ValueError(f"temperature must be >= 0, got {temperature}")
    kt = CONSTANTS.kB * temperature
    if kt == 0.0:  # T = 0, or kB*T underflows
        return 0.0
    x = CONSTANTS.hbar * omega / kt
    if x > 700.0:
        return 0.0
    return 1.0 / math.expm1(x)


def _ieee_div(num: float, den: float) -> float:
    """num / den for num, den >= 0 as IEEE arithmetic has it: x/0 is inf, 0/0 NaN.

    The divisors below are positive products that underflow to zero at
    extreme inputs; the quotient then reaches the stage guards.
    """
    try:
        return num / den
    except ZeroDivisionError:
        return math.nan if num == 0.0 else math.inf


def drive_amplitude(power: float, kappa: float, omega_laser: float) -> float:
    """|E| = sqrt(2*kappa*P / (hbar*omega_L)) for input power P."""
    if power < 0.0:
        raise ValueError(f"power must be >= 0, got {power}")
    if kappa <= 0.0 or omega_laser <= 0.0:
        raise ValueError("kappa and omega_laser must be positive")
    return math.sqrt(_ieee_div(2.0 * kappa * power, CONSTANTS.hbar * omega_laser))


def single_photon_coupling(
    omega_cavity: float, cavity_length: float, mass: float, omega_m: float
) -> float:
    """g0 = (omega_c/L) * sqrt(hbar/(m*omega_m)), the bare coupling rate."""
    if min(omega_cavity, cavity_length, mass, omega_m) <= 0.0:
        raise ValueError("all arguments must be positive")
    zpf = math.sqrt(_ieee_div(CONSTANTS.hbar, mass * omega_m))
    return (omega_cavity / cavity_length) * zpf


def coulomb_strength(c1: float, u1: float, c2: float, u2: float, d0: float) -> float:
    """Coupling rate of two charged oscillators a distance d0 apart.

    c1, c2 are capacitances (F), u1, u2 bias voltages (V); the rate is
    2*k_e*c1*u1*c2*u2 / (hbar*d0^3) in rad/s.
    """
    if d0 <= 0.0:
        raise ValueError(f"d0 must be positive, got {d0}")
    return 2.0 * CONSTANTS.k_e * (c1 * u1) * (c2 * u2) / (CONSTANTS.hbar * d0 ** 3)


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
    carries their effective separation.
    """
    omega_laser = 2.0 * math.pi * CONSTANTS.c_light / params.laser_wavelength
    omega_cavity = omega_laser
    drive_e = drive_amplitude(params.power, params.kappa, omega_laser)
    g0 = single_photon_coupling(
        omega_cavity, params.cavity_length, params.mass, params.omega_m1
    )
    nbar = thermal_occupation(params.omega_m1, params.temperature)
    c_s = steady_state.cavity_amplitude(
        params.detuning, params.kappa, params.opa_gain, params.opa_phase, drive_e
    )
    q1s, q2s = steady_state.displacements(
        g0, c_s, params.omega_m1, params.omega_m2, params.coulomb_lambda
    )
    g_m = steady_state.effective_coupling(g0, c_s)
    return DerivedQuantities(
        omega_c=omega_cavity,
        omega_L=omega_laser,
        drive_E=drive_e,
        g0=g0,
        nbar=nbar,
        c_s_re=c_s.real,
        c_s_im=c_s.imag,
        q1s=q1s,
        q2s=q2s,
        g_m=g_m,
    )
