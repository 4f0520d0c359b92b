import cmath
import math

import pytest

from omneg import params, steady_state, sweep
from omneg.errors import DegenerateNormalMode, ThresholdSingularity

KAPPA = 8.81e7
OMEGA = 2.0 * math.pi * 1e8
# frozen from an independent 40-digit evaluation of the reference point
DRIVE_E_REF = 5.9936599219218992e12
ABS_CS_REF = 9446.7942211268021
GM_REF = 5692173.7679562817


def test_amplitude_modulus_at_reference_point():
    c = steady_state.cavity_amplitude(OMEGA, KAPPA, 0.0, 0.0, DRIVE_E_REF)
    assert abs(c) == pytest.approx(ABS_CS_REF, rel=1e-12)


def test_amplitude_on_resonance_without_gain_is_real():
    c = steady_state.cavity_amplitude(0.0, KAPPA, 0.0, 0.0, DRIVE_E_REF)
    assert c.imag == 0.0
    assert c.real == pytest.approx(DRIVE_E_REF / KAPPA, rel=1e-14)


def test_amplitude_modulus_without_gain():
    c = steady_state.cavity_amplitude(OMEGA, KAPPA, 0.0, 0.0, DRIVE_E_REF)
    want = DRIVE_E_REF / math.hypot(KAPPA, OMEGA)
    assert abs(c) == pytest.approx(want, rel=1e-12)


def test_amplitude_conjugate_symmetry():
    # flipping both detuning and pump phase conjugates the amplitude
    a = steady_state.cavity_amplitude(OMEGA, KAPPA, 3e7, 0.4, DRIVE_E_REF)
    b = steady_state.cavity_amplitude(-OMEGA, KAPPA, 3e7, -0.4, DRIVE_E_REF)
    assert b == pytest.approx(a.conjugate(), rel=1e-15)


def test_amplitude_raises_at_threshold():
    # 4*gain^2 = kappa^2 exactly on resonance
    with pytest.raises(ThresholdSingularity):
        steady_state.cavity_amplitude(0.0, KAPPA, 0.5 * KAPPA, 0.0, DRIVE_E_REF)


def test_amplitude_raises_above_threshold():
    with pytest.raises(ThresholdSingularity):
        steady_state.cavity_amplitude(0.0, KAPPA, KAPPA, 0.0, DRIVE_E_REF)


def test_amplitude_just_below_threshold_is_fine():
    gain = 0.5 * KAPPA * math.sqrt(1.0 - 1e-6)
    c = steady_state.cavity_amplitude(0.0, KAPPA, gain, 0.0, DRIVE_E_REF)
    assert cmath.isfinite(c)


def test_displacement_ratio_is_exact():
    lam = 0.6 * OMEGA
    d = params.derive(params.SystemParams(coulomb_lambda=lam))
    assert d.q1s > 0.0
    assert d.q2s == -(lam / OMEGA) * d.q1s


def test_displacements_scale_with_amplitude_squared():
    # four times the power doubles the drive and so |c_s|
    a = params.derive(params.SystemParams(power=0.05))
    b = params.derive(params.SystemParams(power=0.20))
    assert abs(b.c_s) == pytest.approx(2.0 * abs(a.c_s), rel=1e-14)
    assert b.q1s == pytest.approx(4.0 * a.q1s, rel=1e-12)


def test_displacements_reject_degenerate_potential():
    # lambda^2 < omega_m1*omega_m2 holds, yet omega_m1 - lambda^2/omega_m2
    # rounds to exactly 0: mode 1 keeps no restoring force
    p = params.SystemParams(
        omega_m2=389977663.1319781, coulomb_lambda=495005244.7317174
    )
    assert p.omega_m1 - p.coulomb_lambda ** 2 / p.omega_m2 == 0.0
    with pytest.raises(DegenerateNormalMode):
        params.derive(p)
    # its grid row is code 3 with only the thermal occupation filled
    row = sweep.evaluate_point(p)
    assert row == sweep.PointResult(nbar=0.4311294969158871, error_code=3)
    assert row.error_code is sweep.ErrorCode.DEGENERATE_NORMAL_MODE


def test_effective_coupling_reference_value():
    d = params.derive(params.SystemParams())
    assert abs(d.c_s) == pytest.approx(ABS_CS_REF, rel=1e-12)
    assert d.g_m == pytest.approx(GM_REF, rel=1e-12)
    assert d.g_m == math.sqrt(2.0) * d.g0 * abs(d.c_s)


def test_effective_coupling_is_phase_invariant():
    # flipping detuning and pump phase conjugates c_s; G sees only |c_s|
    a = params.derive(params.SystemParams(detuning=OMEGA, opa_gain=3e7, opa_phase=0.4))
    b = params.derive(
        params.SystemParams(detuning=-OMEGA, opa_gain=3e7, opa_phase=-0.4)
    )
    assert b.c_s == pytest.approx(a.c_s.conjugate(), rel=1e-15)
    assert a.c_s.imag != 0.0
    assert b.g_m == pytest.approx(a.g_m, rel=1e-15)
    assert b.q1s == pytest.approx(a.q1s, rel=1e-15)
