import dataclasses
import math
import pathlib
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import oracles
from omneg import cli, dynamics, entanglement, params, smallmat, sweep
from omneg.params import SystemParams
from omneg.errors import NonPhysicalState


def rot(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s], [s, c]])


def two_mode_squeezed(r: float) -> np.ndarray:
    """Covariance of the standard two-mode squeezed vacuum."""
    ch = 0.5 * math.cosh(2.0 * r)
    sh = 0.5 * math.sinh(2.0 * r)
    v = np.zeros((4, 4))
    v[:2, :2] = ch * np.eye(2)
    v[2:, 2:] = ch * np.eye(2)
    v[:2, 2:] = sh * np.diag([1.0, -1.0])
    v[2:, :2] = sh * np.diag([1.0, -1.0])
    return v


def test_log_negativity_rejects_wrong_shape():
    for v in (np.eye(6), np.eye(2), np.zeros(4)):
        with pytest.raises(ValueError):
            entanglement.log_negativity(v)


def test_vacuum_is_separable():
    res = entanglement.log_negativity(np.eye(4) * 0.5)
    assert res.log_negativity == 0.0
    assert res.varrho == pytest.approx(0.5, rel=1e-14)
    assert not res.entangled


@pytest.mark.parametrize("r", [0.1, 0.5, 1.0])
def test_two_mode_squeezed_vacuum(r):
    # analytic value: E_N = 2r for the ideal two-mode squeezed state
    res = entanglement.log_negativity(two_mode_squeezed(r))
    assert res.log_negativity == pytest.approx(2.0 * r, abs=1e-9)
    assert res.entangled
    assert res.varrho == pytest.approx(0.5 * math.exp(-2.0 * r), rel=1e-9)


def test_roundoff_band_below_half_is_separable():
    # a product state diag(1/2, 1/2, x, x) has varrho = x; a few ulps
    # below 1/2 is roundoff, but a relative 1e-11 below it squeezes
    # oscillator 2 below the vacuum, which no state does
    band = entanglement.log_negativity(np.diag([0.5, 0.5, 0.5 - 5e-16, 0.5 - 5e-16]))
    assert band.varrho < 0.5
    assert band.log_negativity == 0.0 and not band.entangled
    with pytest.raises(NonPhysicalState):
        entanglement.log_negativity(np.diag([0.5, 0.5, 0.5 - 5e-12, 0.5 - 5e-12]))


def test_uncoupled_pair_at_zero_temperature_is_separable():
    # oscillator 2 sits in vacuum, on the boundary varrho = 1/2, where
    # the pipeline lands a few ulps below it
    omega = 2.0 * math.pi * 1e8
    p = SystemParams(temperature=0.0, detuning=0.625 * omega, power=0.03125)
    (stages,) = sweep.run_stages(p, [{}])
    result = stages.entanglement
    assert result.varrho == pytest.approx(0.5, rel=1e-12)
    assert result.log_negativity == 0.0 and not result.entangled


def test_uncorrelated_thermal_state_not_entangled():
    v4 = np.diag([1.7, 1.7, 2.3, 2.3])
    res = entanglement.log_negativity(v4)
    assert res.log_negativity == 0.0
    assert not res.entangled


def test_local_rotations_preserve_log_negativity():
    base = two_mode_squeezed(0.6)
    s = np.zeros((4, 4))
    s[:2, :2] = rot(0.37)
    s[2:, 2:] = rot(-1.21)
    rotated = s @ base @ s.T
    a = entanglement.log_negativity(base)
    b = entanglement.log_negativity(rotated)
    assert b.log_negativity == pytest.approx(a.log_negativity, rel=1e-12)


I2 = np.eye(2)


@pytest.mark.parametrize(
    "v4",
    [
        pytest.param(-np.eye(4), id="minus_identity"),
        pytest.param(np.diag([-1.0, -1.0, 1.0, 1.0]), id="two_negative_variances"),
        pytest.param(np.block([[I2, 2.0 * I2], [2.0 * I2, I2]]), id="correlations_above_variances"),
        pytest.param(
            np.array(
                [
                    [1.802, 0.655, 0.394, -0.822],
                    [0.655, 0.656, -0.296, -0.387],
                    [0.394, -0.296, -1.184, 0.539],
                    [-0.822, -0.387, 0.539, -0.496],
                ]
            ),
            id="negative_discriminant",
        ),
        # huge cross correlations with vacuum-sized marginals cannot come
        # from a density operator
        pytest.param(np.block([[0.5 * I2, 10.0 * I2], [10.0 * I2, 0.5 * I2]]),
                     id="negative_inner_value"),
    ],
)
def test_not_positive_definite_is_unphysical(v4):
    # V > 0 is half of the bona fide condition; the Delta/det V form of
    # the uncertainty relation presumes it and cannot tell -I from a state
    assert np.linalg.eigvalsh(v4).min() < 0.0
    with pytest.raises(NonPhysicalState, match="not positive definite"):
        entanglement.log_negativity(v4)


def test_tiny_negative_discriminant_is_clamped():
    # [[I, 0.3 I], [0.3 I, I]] under local rotations 0 and 0.625 has
    # Sigma^2 = 4 det V exactly; rounding leaves the discriminant a few
    # ulps below zero, and the clamp must absorb that instead of raising
    s = np.zeros((4, 4))
    s[:2, :2] = rot(0.0)
    s[2:, 2:] = rot(0.625)
    v4 = s @ np.block([[np.eye(2), 0.3 * np.eye(2)], [0.3 * np.eye(2), np.eye(2)]]) @ s.T
    res = entanglement.log_negativity(v4)
    assert res.sigma * res.sigma - 4.0 * smallmat.det(v4[None])[0] < 0.0
    assert res.varrho == pytest.approx(math.sqrt(0.91), rel=1e-12)
    assert res.log_negativity == 0.0 and not res.entangled


def test_zero_varrho_input_is_unphysical():
    # perfect EPR correlations between vacuum-sized marginals would give
    # varrho = 0, but Delta = 0 < 1/2: no state has this covariance
    v4 = 0.5 * np.eye(4)
    v4[:2, 2:] = v4[2:, :2] = 0.5 * np.diag([1.0, -1.0])
    assert oracles.uncertainty_margin(v4) < 0.0
    with pytest.raises(NonPhysicalState):
        entanglement.log_negativity(v4)


def test_state_below_zero_point_motion_is_unphysical(capsys):
    # at T = 0 the white momentum noise under-supplies the zero-point
    # motion of the Coulomb-stiffened normal mode: V + i Omega/2 has a
    # negative eigenvalue, which the invariants must catch (code 7)
    point = ["coulomb_lambda_in_omega_m=0.5", "detuning_in_omega_m=2",
             "power=0.0625", "temperature=0"]
    assert cli.main(["point", *(a for kv in point for a in ("--set", kv))]) == 0
    out = oracles.strict_json(capsys.readouterr().out)
    assert out["error"]["name"] == "NonPhysicalState"
    _, _, v = oracles.readme_chain(SystemParams(**out["params"]))
    assert oracles.uncertainty_margin(v[:4, :4]) == pytest.approx(-0.0093, abs=5e-4)


def test_log_negativity_stack_matches_single_calls():
    # physical states beside unphysical ones (a singular block included,
    # whose zero pivot makes det V = 0 for it alone); each entry is the
    # single call's result, or its failure with the same message
    zero_varrho = 0.5 * np.eye(4)
    zero_varrho[:2, 2:] = zero_varrho[2:, :2] = 0.5 * np.diag([1.0, -1.0])
    rng = np.random.default_rng(37)
    a = rng.standard_normal((4, 4))
    stack = np.array([
        two_mode_squeezed(0.1),
        -np.eye(4),
        two_mode_squeezed(1.0),
        zero_varrho,
        np.full((4, 4), 0.5),
        np.diag([1.7, 1.7, 2.3, 2.3]),
        a @ a.T + np.eye(4),
    ])
    got = entanglement.log_negativity(stack)
    assert len(got) == len(stack)
    for v, entry in zip(stack, got):
        try:
            alone = entanglement.log_negativity(v)
        except NonPhysicalState as exc:
            assert type(entry) is NonPhysicalState and str(entry) == str(exc)
        else:
            # float reprs round-trip, so equal reprs are equal bits
            assert repr(entry) == repr(alone)
    assert [type(e) is NonPhysicalState for e in got] == [False, True, False, True,
                                                          True, False, False]


@settings(derandomize=True, database=None, deadline=None)
@given(
    upper=hnp.arrays(
        float,
        (4, 4),
        elements=st.one_of(
            st.floats(), st.sampled_from([np.inf, -np.inf, np.nan, 1e154, -1e154])
        ),
    )
)
def test_log_negativity_fails_cleanly_or_is_well_defined(upper):
    # overflowing or non-finite invariants are NonPhysicalState, never a
    # non-finite sigma/varrho or a NaN E_N reported as a result
    v4 = np.triu(upper) + np.triu(upper, 1).T
    try:
        res = entanglement.log_negativity(v4)
    except NonPhysicalState:
        return
    assert math.isfinite(res.sigma) and math.isfinite(res.varrho)
    assert res.log_negativity >= 0.0


def test_symplectic_spectrum_oracle_matches_varrho(fig_sample):
    solved = [(p, row) for p, row in fig_sample if row.error_code == 0]
    ms, ds, scales = [], [], []
    for p, _ in solved:
        ms.append(dynamics.build_drift(p, params.derive(p).g_m))
        ds.append(dynamics.build_diffusion(p))
        scales.append(p.omega_m1)
    covariances = dynamics.steady_covariance(np.array(ms), np.array(ds), np.array(scales))
    assert len(solved) > 500
    for (p, row), v in zip(solved, covariances):
        oracle = oracles.smallest_symplectic_eigenvalue(v[:4, :4])
        assert oracle == pytest.approx(row.varrho, rel=1e-10), p


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(oracles.VALID_BASES, st.floats(0.0, 0.1))
def test_swapping_oscillators_keeps_negativity(base, temperature):
    _, _, v = oracles.readme_chain(dataclasses.replace(base, temperature=temperature))
    swap = [2, 3, 0, 1]
    v4 = v[:4, :4]
    try:
        res = entanglement.log_negativity(v4)
    except NonPhysicalState:
        with pytest.raises(NonPhysicalState):
            entanglement.log_negativity(v4[swap][:, swap])
        return
    swapped = entanglement.log_negativity(v4[swap][:, swap])
    assert math.isclose(swapped.log_negativity, res.log_negativity, rel_tol=1e-12)


def test_readme_library_example_runs(capsys):
    # the documented library example must keep calling the live API
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    text = readme.read_text(encoding="utf-8")
    (block,) = re.findall(r"```python\n(.*?)```", text, flags=re.S)
    exec(compile(block, "README.md", "exec"), {})
    en, entangled = capsys.readouterr().out.split()
    assert float(en) > 0.0
    assert entangled == "True"
