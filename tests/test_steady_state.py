import cmath
import math

import pytest

from omneg import steady_state
from omneg.errors import DegenerateNormalMode, ThresholdSingularity

KAPPA = 8.81e7
OMEGA = 2.0 * math.pi * 1e8
# frozen from an independent 40-digit evaluation of the reference point
DRIVE_E_REF = 5.9936599219218992e12
ABS_CS_REF = 9446.7942211268021
G0_REF = 426.06778308059452
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
    c = complex(1200.0, -400.0)
    q1, q2 = steady_state.displacements(G0_REF, c, OMEGA, OMEGA, lam)
    assert q2 == -(lam / OMEGA) * q1


def test_displacements_scale_with_amplitude_squared():
    c = complex(1200.0, -400.0)
    q1a, _ = steady_state.displacements(G0_REF, c, OMEGA, OMEGA, 0.0)
    q1b, _ = steady_state.displacements(G0_REF, 2.0 * c, OMEGA, OMEGA, 0.0)
    assert q1b == pytest.approx(4.0 * q1a, rel=1e-12)


def test_displacements_reject_degenerate_potential():
    with pytest.raises(DegenerateNormalMode):
        steady_state.displacements(G0_REF, 1.0 + 0.0j, OMEGA, OMEGA, OMEGA)


def test_effective_coupling_reference_value():
    g = steady_state.effective_coupling(G0_REF, complex(0.0, -ABS_CS_REF))
    assert g == pytest.approx(GM_REF, rel=1e-12)


def test_effective_coupling_is_phase_invariant():
    c = complex(312.5, -87.25)
    rotated = c * cmath.exp(1j * 0.73)
    a = steady_state.effective_coupling(G0_REF, c)
    b = steady_state.effective_coupling(G0_REF, rotated)
    assert b == pytest.approx(a, rel=1e-12)
