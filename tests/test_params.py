import dataclasses
import math

import pytest

from omneg import params

# reference-point values recomputed at 40-digit precision with an
# independent script before being frozen here
NBAR_REF = 0.43112949691588682
DRIVE_E_REF = 5.9936599219218992e12
G0_REF = 426.06778308059452
OMEGA_L_REF = 2.3254957621096954e15


def test_reference_point_frozen_oracles():
    d = params.derive(params.reference_params())
    assert d.nbar == pytest.approx(NBAR_REF, rel=1e-12)
    assert d.drive_E == pytest.approx(DRIVE_E_REF, rel=1e-12)
    assert d.g0 == pytest.approx(G0_REF, rel=1e-12)
    assert d.omega_L == pytest.approx(OMEGA_L_REF, rel=1e-12)
    assert d.omega_c == d.omega_L


def test_derive_is_deterministic():
    base = params.reference_params()
    p = params.reference_params(coulomb_lambda=0.4 * base.omega_m1)
    a, b = params.derive(p), params.derive(p)
    assert a == b


def test_thermal_occupation_zero_temperature_is_exactly_zero():
    assert params.thermal_occupation(1e8, 0.0) == 0.0


def test_thermal_occupation_ln2_point():
    # hbar*omega/(kB*T) = ln 2 gives occupation exactly 1
    omega = 2.0 * math.pi * 1e8
    t = params.CONSTANTS.hbar * omega / (params.CONSTANTS.kB * math.log(2.0))
    assert params.thermal_occupation(omega, t) == pytest.approx(1.0, rel=1e-12)


def test_thermal_occupation_underflows_to_zero():
    # x > 700 would overflow expm1; treated as unoccupied
    assert params.thermal_occupation(1e15, 1e-9) == 0.0
    # kB*T underflows to 0.0, which would divide by zero
    assert params.thermal_occupation(2.0 * math.pi * 1e8, 1e-310) == 0.0


def test_thermal_occupation_input_checks():
    with pytest.raises(ValueError):
        params.thermal_occupation(-1.0, 1.0)
    with pytest.raises(ValueError):
        params.thermal_occupation(1.0, -1.0)


def test_drive_amplitude_power_scaling():
    e1 = params.derive(params.SystemParams(power=0.05)).drive_E
    e4 = params.derive(params.SystemParams(power=0.20)).drive_E
    assert e4 == pytest.approx(2.0 * e1, rel=1e-14)


def test_single_photon_coupling_mass_scaling():
    g = params.derive(params.SystemParams(mass=5e-12)).g0
    g4 = params.derive(params.SystemParams(mass=4 * 5e-12)).g0
    assert g4 == pytest.approx(0.5 * g, rel=1e-14)


def test_zero_power_gives_undriven_steady_state():
    d = params.derive(params.reference_params(power=0.0))
    assert d.c_s == 0.0
    assert d.q1s == 0.0 and d.q2s == 0.0 and d.g_m == 0.0


def test_params_validation():
    with pytest.raises(ValueError):
        params.reference_params(mass=-5e-12)
    with pytest.raises(ValueError):
        params.reference_params(kappa=0.0)
    with pytest.raises(ValueError):
        params.reference_params(power=-0.01)
    with pytest.raises(ValueError):
        params.reference_params(detuning=math.nan)
    with pytest.raises(ValueError):
        params.reference_params(temperature=math.inf)


def test_params_reject_overstrong_coulomb():
    p = params.reference_params()
    with pytest.raises(ValueError):
        params.reference_params(coulomb_lambda=p.omega_m1)
    # lambda^2 overflows a float: rejected the same way, not OverflowError
    with pytest.raises(ValueError):
        params.reference_params(coulomb_lambda=1e200)
    # just below the bound is accepted
    params.reference_params(coulomb_lambda=0.999 * p.omega_m1)


def test_params_are_frozen():
    p = params.reference_params()
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.kappa = 1.0


def test_constants_values():
    assert params.CONSTANTS.hbar == 1.054571817e-34
    assert params.CONSTANTS.kB == 1.380649e-23
    assert params.CONSTANTS.c_light == 299792458.0
