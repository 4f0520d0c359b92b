import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import oracles
from omneg import dynamics, params, smallmat, sweep
from omneg.errors import EigenFailure, PointFailure, SingularSolve, UnstableSystem

TWO_PI = 2.0 * math.pi
# frozen mechanical diffusion entry gamma_m*(2*nbar+1) at the reference point
D_MECH_REF = 1170.0918348206840


def sentinel_params():
    # small distinct values make every matrix entry traceable
    return params.SystemParams(
        omega_m1=2.0,
        omega_m2=3.0,
        gamma_m1=5.0,
        gamma_m2=7.0,
        kappa=11.0,
        detuning=13.0,
        coulomb_lambda=1.5,
        opa_gain=0.25,
        opa_phase=0.5,
    )


def test_drift_layout_and_zero_pattern():
    p = sentinel_params()
    g_m = 17.0
    m = dynamics.build_drift(p, g_m)
    gc = 2.0 * 0.25 * math.cos(0.5)
    gs = 2.0 * 0.25 * math.sin(0.5)
    want = np.array(
        [
            [0.0, 2.0, 0.0, 0.0, 0.0, 0.0],
            [-2.0, -5.0, -1.5, 0.0, 17.0, 0.0],
            [0.0, 0.0, 0.0, 3.0, 0.0, 0.0],
            [-1.5, 0.0, -3.0, -7.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 0.0, gc - 11.0, gs + 13.0],
            [17.0, 0.0, 0.0, 0.0, gs - 13.0, -(gc + 11.0)],
        ]
    )
    assert np.array_equal(m, want)
    # the 22 structural zeros are exact zeros, not small numbers
    zero_mask = want == 0.0
    assert zero_mask.sum() == 22
    assert np.all(m[zero_mask] == 0.0)


@pytest.mark.parametrize("theta", [0.0, 0.25, 0.5, 1.0, -0.75])
def test_drift_phase_periodicity_is_exact(theta):
    # dyadic angles keep theta + 2*pi exactly representable
    p = params.reference_params(opa_gain=3e7, opa_phase=theta)
    q = params.reference_params(opa_gain=3e7, opa_phase=theta + TWO_PI)
    assert np.array_equal(dynamics.build_drift(p, 1e6), dynamics.build_drift(q, 1e6))


def test_drift_theta_irrelevant_without_gain():
    a = params.reference_params(opa_gain=0.0, opa_phase=0.3)
    b = params.reference_params(opa_gain=0.0, opa_phase=1.1)
    assert np.array_equal(dynamics.build_drift(a, 1e6), dynamics.build_drift(b, 1e6))


def test_diffusion_reference_entry():
    p = params.reference_params()
    d = dynamics.build_diffusion(p)
    assert d[1, 1] == pytest.approx(D_MECH_REF, rel=1e-12)
    assert d[3, 3] == d[1, 1]
    assert d[4, 4] == p.kappa and d[5, 5] == p.kappa
    assert d[0, 0] == 0.0 and d[2, 2] == 0.0
    assert np.array_equal(d, np.diag(np.diag(d)))


def test_diffusion_zero_temperature():
    p = params.reference_params(temperature=0.0)
    d = dynamics.build_diffusion(p)
    assert d[1, 1] == p.gamma_m1 and d[3, 3] == p.gamma_m2


def test_diffusion_second_bath_uses_omega_m2():
    omega_m2 = 2.0 * params.reference_params().omega_m1
    # equal dampings, then distinct ones, so each bath's damping is its own
    for p in (
        params.reference_params(omega_m2=omega_m2),
        params.reference_params(omega_m2=omega_m2, gamma_m1=500.0, gamma_m2=70.0),
    ):
        d = dynamics.build_diffusion(p)
        n1 = params.thermal_occupation(p.omega_m1, p.temperature)
        n2 = params.thermal_occupation(p.omega_m2, p.temperature)
        assert 0.0 < n2 < n1
        assert d[1, 1] == p.gamma_m1 * (2.0 * n1 + 1.0)
        assert d[3, 3] == p.gamma_m2 * (2.0 * n2 + 1.0)


def test_stability_minus_identity():
    r = dynamics.stability(-np.eye(6), omega_scale=1.0)
    assert r.stable and r.max_real_part == pytest.approx(-1.0, abs=1e-12)
    assert len(r.eigenvalues) == 6


def test_stability_margin_uses_omega_scale():
    m = np.diag([-5.0] * 5 + [-0.5])
    assert dynamics.stability(m, omega_scale=1e9).stable is False
    assert dynamics.stability(m, omega_scale=1e8).stable is True
    for bad in (-1.0, float("nan")):
        with pytest.raises(ValueError):
            dynamics.stability(m, omega_scale=bad)
        with pytest.raises(ValueError):
            dynamics.steady_covariance(m, np.eye(6), omega_scale=bad)


def test_stability_rejects_non_square_matrix():
    for bad in (np.zeros((2, 3)), np.zeros(6), np.zeros((2, 2, 2))):
        with pytest.raises(ValueError):
            dynamics.stability(bad, omega_scale=1.0)


def fig3_drifts():
    """Drifts and scales of 32 fig3 rows at gain 5e7: code 5, then code 0."""
    base, axes = sweep.figure_spec("fig3")
    detunings = dict(axes)["detuning"][20:52]
    ms = []
    for detuning in detunings:
        p = dataclasses.replace(base, opa_gain=5e7, detuning=detuning)
        ms.append(dynamics.build_drift(p, params.derive(p).g_m))
    return np.array(ms), np.full(len(ms), base.omega_m1)


def test_stability_stack_matches_single_calls_bit_for_bit():
    ms, scales = fig3_drifts()
    got = dynamics.stability(ms, scales)
    assert len(got) == len(ms)
    assert {r.stable for r in got} == {True, False}
    for m, scale, report in zip(ms, scales, got):
        # float and complex reprs round-trip, so equal reprs are equal bits
        assert repr(report) == repr(dynamics.stability(m, omega_scale=scale))


def test_stability_stack_decomposes_each_distinct_drift_once(monkeypatch):
    # an unstable and a stable fig3 drift in 3 and 2 rows, some under a
    # second scale, another in 1 row, and the drifts at Coulomb coupling
    # 0.0 and -0.0, equal under == but not byte for byte: 5 distinct
    ms, scales = fig3_drifts()
    signed = [params.reference_params(coulomb_lambda=lam) for lam in (0.0, -0.0)]
    plus, minus = (dynamics.build_drift(p, params.derive(p).g_m) for p in signed)
    assert not np.array_equal(plus.view(np.int64), minus.view(np.int64))
    rows = [
        (ms[0], scales[0]), (ms[20], scales[20]), (plus, signed[0].omega_m1),
        (ms[0], 1e-3 * scales[0]), (minus, signed[1].omega_m1), (ms[20], 1e-3),
        (ms[0], scales[0]), (ms[5], scales[5]), (plus, 1.0),
    ]
    stack, stack_scales = (np.array(col) for col in zip(*rows))
    calls = []

    def counted(a):
        calls.append(np.shape(a))
        return eigenvalues(a)

    eigenvalues = smallmat.eigenvalues
    monkeypatch.setattr(smallmat, "eigenvalues", counted)
    got = dynamics.stability(stack, stack_scales)
    assert calls == [(5, 6, 6)]
    assert [r.stable for r in got[:2]] == [False, True]
    monkeypatch.setattr(smallmat, "eigenvalues", eigenvalues)
    for (m, scale), report in zip(rows, got):
        assert repr(report) == repr(dynamics.stability(m, omega_scale=scale))


@pytest.mark.filterwarnings("error")
def test_stability_stack_reports_non_finite_system_alone():
    ms, scales = fig3_drifts()
    ms = ms[:4].copy()
    ms[2, 5, 0] = np.inf
    got = dynamics.stability(ms, scales[:4])
    with pytest.raises(EigenFailure) as alone:
        dynamics.stability(ms[2], omega_scale=scales[2])
    assert type(got[2]) is EigenFailure and str(got[2]) == str(alone.value)
    for i in (0, 1, 3):
        assert repr(got[i]) == repr(dynamics.stability(ms[i], omega_scale=scales[i]))


def test_stability_stack_needs_one_positive_scale_per_system():
    ms, scales = fig3_drifts()
    for bad in (scales[:3], np.append(scales[:1], -1.0)):
        with pytest.raises(ValueError):
            dynamics.stability(ms[:2], bad)


def test_stability_above_gain_threshold_is_unstable():
    # with the pump outrunning the loss the cavity block has a growing mode
    p = params.reference_params(detuning=0.0, opa_gain=0.75 * 8.81e7, power=0.0)
    r = dynamics.stability(dynamics.build_drift(p, 0.0), omega_scale=p.omega_m1)
    assert not r.stable
    assert r.max_real_part > 0.0


def test_steady_covariance_minus_identity():
    v = dynamics.steady_covariance(-np.eye(6), np.eye(6), omega_scale=1.0)
    assert np.allclose(v, 0.5 * np.eye(6), atol=1e-15)


@pytest.mark.parametrize("m_shape, d_shape", [((6, 6), (4, 4)), ((2, 6, 6), (6, 6))])
def test_steady_covariance_rejects_mismatched_shapes(m_shape, d_shape):
    m = -np.ones(m_shape)
    with pytest.raises(ValueError, match="m and d must be matching square matrices"):
        dynamics.steady_covariance(m, np.ones(d_shape), omega_scale=1.0)


def test_steady_covariance_decoupled_diagonal():
    m = np.diag([-1.0, -2.0, -4.0, -8.0, -16.0, -32.0])
    d = np.diag([2.0, 3.0, 5.0, 7.0, 11.0, 13.0])
    v = dynamics.steady_covariance(m, d, omega_scale=1.0)
    want = np.diag(-np.diag(d) / (2.0 * np.diag(m)))
    assert np.allclose(v, want, rtol=1e-13)


def test_steady_covariance_linear_in_diffusion():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((6, 6))
    m = a - (np.linalg.eigvals(a).real.max() + 1.0) * np.eye(6)
    c = rng.standard_normal((6, 6))
    d = c @ c.T
    v1 = dynamics.steady_covariance(m, d, omega_scale=1.0)
    v2 = dynamics.steady_covariance(m, 3.7 * d, omega_scale=1.0)
    assert np.allclose(v2, 3.7 * v1, rtol=1e-12)


def test_steady_covariance_residual_and_symmetry():
    rng = np.random.default_rng(17)
    for _ in range(5):
        a = rng.standard_normal((6, 6))
        m = a - (np.linalg.eigvals(a).real.max() + 0.5) * np.eye(6)
        c = rng.standard_normal((6, 6))
        d = c @ c.T
        v = dynamics.steady_covariance(m, d, omega_scale=1.0)
        assert np.array_equal(v, v.T)
        res = np.linalg.norm(m @ v + v @ m.T + d)
        assert res <= 1e-9 * np.linalg.norm(d)


def test_steady_covariance_thermal_blocks_without_coupling():
    # lambda = 0 and g_m = 0 leave three independent blocks; the
    # mechanical ones settle at (nbar + 1/2) I, the cavity at I/2
    p = params.reference_params(gamma_m1=1e6, gamma_m2=1e6, power=0.0)
    nbar = params.thermal_occupation(p.omega_m1, p.temperature)
    m = dynamics.build_drift(p, 0.0)
    d = dynamics.build_diffusion(p)
    v = dynamics.steady_covariance(m, d, omega_scale=p.omega_m1)
    want = np.diag([nbar + 0.5] * 4 + [0.5] * 2)
    assert np.allclose(v, want, rtol=1e-9, atol=1e-12)


def test_steady_covariance_refuses_unstable_system():
    p = params.reference_params(detuning=0.0, opa_gain=0.75 * 8.81e7, power=0.0)
    m = dynamics.build_drift(p, 0.0)
    d = dynamics.build_diffusion(p)
    with pytest.raises(UnstableSystem):
        dynamics.steady_covariance(m, d, omega_scale=p.omega_m1)


def test_steady_covariance_singular_solve_guard():
    # stable by margin yet numerically singular: the slow direction's
    # pivot collapses against the fast rows
    m = np.diag([-1.0] * 5 + [-1e-300])
    with pytest.raises(SingularSolve):
        dynamics.steady_covariance(m, np.eye(6), omega_scale=1e-300)


def stable_pairs(count, seed):
    """Random stable drifts with positive semidefinite diffusions."""
    rng = np.random.default_rng(seed)
    ms, ds = [], []
    for _ in range(count):
        a = rng.standard_normal((6, 6))
        ms.append(a - (np.linalg.eigvals(a).real.max() + 0.5) * np.eye(6))
        c = rng.standard_normal((6, 6))
        ds.append(c @ c.T)
    return np.array(ms), np.array(ds)


def test_steady_covariance_stack_matches_single_calls_bit_for_bit():
    ms, ds = stable_pairs(35, seed=23)
    scales = np.ones(35)
    got = dynamics.steady_covariance(ms, ds, scales)
    assert len(got) == 35
    for m, d, v in zip(ms, ds, got):
        alone = dynamics.steady_covariance(m, d, omega_scale=1.0)
        assert np.array_equal(v.view(np.int64), alone.view(np.int64))


@pytest.mark.filterwarnings("error")
def test_steady_covariance_stack_reports_failures_per_system():
    # code 5 (unstable) and code 6 (singular) rows share the stack with
    # solvable ones, which come out as they do alone; the singular
    # system's subnormal pivot overflows its own rows without a warning
    ms, ds = stable_pairs(3, seed=29)
    unstable = np.diag([0.5] + [-1.0] * 5)
    singular = np.diag([-1.0] * 5 + [-1e-320])
    m = np.array([ms[0], unstable, ms[1], singular, ms[2]])
    d = np.array([ds[0], np.eye(6), ds[1], np.eye(6), ds[2]])
    scales = np.array([1.0, 1.0, 1.0, 1e-320, 1.0])
    got = dynamics.steady_covariance(m, d, scales)
    for i, exc in ((1, UnstableSystem), (3, SingularSolve)):
        with pytest.raises(exc) as alone:
            dynamics.steady_covariance(m[i], d[i], omega_scale=scales[i])
        assert type(got[i]) is exc and str(got[i]) == str(alone.value)
    for i in (0, 2, 4):
        alone = dynamics.steady_covariance(m[i], d[i], omega_scale=1.0)
        assert np.array_equal(got[i], alone)


@pytest.mark.filterwarnings("error")
def test_steady_covariance_repeated_drifts_give_each_row_as_alone():
    # rows with one drift share its elimination: a stable drift with four
    # diffusions, a singular system twice, and the drifts at Coulomb
    # coupling 0.0 and -0.0, equal under == but not byte for byte
    ms, ds = stable_pairs(2, seed=37)
    _, extra = stable_pairs(3, seed=41)
    singular = np.diag([-1.0] * 5 + [-1e-320])
    signed = [params.reference_params(coulomb_lambda=lam) for lam in (0.0, -0.0)]
    plus, minus = (dynamics.build_drift(p, params.derive(p).g_m) for p in signed)
    assert np.array_equal(plus, minus)
    assert not np.array_equal(plus.view(np.int64), minus.view(np.int64))
    d0 = dynamics.build_diffusion(signed[0])
    rows = [
        (ms[0], ds[0], 1.0), (plus, d0, signed[0].omega_m1), (ms[0], extra[0], 1.0),
        (singular, np.eye(6), 1e-320), (ms[1], ds[1], 1.0), (ms[0], extra[1], 1.0),
        (minus, d0, signed[1].omega_m1), (singular, 2.0 * np.eye(6), 1e-320),
        (ms[0], extra[2], 1.0), (plus, 2.0 * d0, signed[0].omega_m1),
    ]
    m, d, scales = (np.array(col) for col in zip(*rows))
    got = dynamics.steady_covariance(m, d, scales)
    assert got[3] is not got[7]
    for (mi, di, scale), out in zip(rows, got):
        try:
            alone = dynamics.steady_covariance(mi, di, omega_scale=scale)
        except PointFailure as exc:
            assert type(out) is type(exc) and str(out) == str(exc)
        else:
            assert np.array_equal(out.view(np.int64), alone.view(np.int64))
    assert [type(out) for out in got].count(SingularSolve) == 2


def test_steady_covariance_stack_needs_one_scale_per_system():
    ms, ds = stable_pairs(2, seed=31)
    with pytest.raises(ValueError):
        dynamics.steady_covariance(ms, ds, 1.0)
    with pytest.raises(ValueError):
        dynamics.steady_covariance(ms, ds, np.ones(3))


ANY_FLOAT = st.one_of(
    st.floats(), st.sampled_from([np.inf, -np.inf, np.nan, 1e300, -1e300])
)
# arbitrary matrices are almost never stable, so half the draws are
# finite triangular ones with a stable diagonal: they reach the solve,
# and their large entries overflow it
DRIFTS = st.one_of(
    hnp.arrays(float, (6, 6), elements=ANY_FLOAT),
    st.builds(
        lambda upper, diag: np.triu(upper, 1) + np.diag(diag),
        hnp.arrays(float, (6, 6), elements=st.floats(allow_nan=False, allow_infinity=False)),
        hnp.arrays(float, 6, elements=st.floats(-1e300, -1e-6)),
    ),
)


@settings(derandomize=True, database=None, deadline=None)
@given(m=DRIFTS, d=hnp.arrays(float, 6, elements=st.floats(0.0, 1e308)))
def test_steady_covariance_fails_cleanly_or_meets_residual(m, d):
    # overflow anywhere in the chain must surface as a PointFailure,
    # never as a crash, a numpy warning or a non-finite "solved" V
    dmat = np.diag(d)
    try:
        v = dynamics.steady_covariance(m, dmat, omega_scale=1.0)
    except PointFailure:
        return
    assert np.isfinite(v).all()
    # this check's own norms may overflow to inf
    with np.errstate(over="ignore"):
        residual = smallmat.frob_norm(m @ v + v @ m.T + dmat)
        assert residual <= dynamics.RESIDUAL_RTOL * smallmat.frob_norm(dmat)


def test_routh_hurwitz_agrees_with_stability(fig_sample):
    # rows within 1e-7 omega_m1 of the imaginary axis are left out: there
    # the verdict turns on the stability margin, which Routh-Hurwitz lacks
    checked = {True: 0, False: 0}
    for p, row in fig_sample:
        if abs(row.max_real_part) <= 1e-7 * p.omega_m1:
            continue
        m = dynamics.build_drift(p, params.derive(p).g_m)
        assert oracles.hurwitz_stable(m / p.omega_m1) == row.stable, p
        checked[row.stable] += 1
    assert checked[True] > 500 and checked[False] > 10, checked


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(oracles.VALID_BASES, st.floats(0.0, 0.1))
def test_readme_chain_covariance_is_a_solved_covariance(base, temperature):
    m, d, v = oracles.readme_chain(dataclasses.replace(base, temperature=temperature))
    assert np.array_equal(v, v.T)
    assert np.linalg.eigvalsh(v).min() > 0.0
    residual = np.linalg.norm(m @ v + v @ m.T + d)
    assert residual <= dynamics.RESIDUAL_RTOL * np.linalg.norm(d)


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(oracles.VALID_BASES, st.integers(-60, 60))
def test_steady_covariance_is_invariant_under_time_rescaling(base, k):
    # 2**k M, 2**k D and 2**k omega describe the same state on a time axis
    # scaled by 2**-k; a power of two is exact in every +, -, * and /, so V
    # and every test the solve makes must come out the same to the bit
    m = dynamics.build_drift(base, params.derive(base).g_m)
    d = dynamics.build_diffusion(base)
    outcomes = []
    for scale in (1.0, 2.0**k):
        try:
            v = dynamics.steady_covariance(scale * m, scale * d, scale * base.omega_m1)
            outcomes.append(v.view(np.int64).tolist())
        except PointFailure as exc:
            outcomes.append(type(exc))
    assert outcomes[0] == outcomes[1]


# the relations below are exact in real arithmetic; over 200 VALID_BASES
# rows roundoff moved them by at most 2.1e-11, relative to V's largest entry
RELATION_RTOL = 1e-9


def max_rel_diff(got, want) -> float:
    return float(np.abs(got - want).max() / np.abs(want).max())


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(oracles.VALID_BASES)
def test_steady_covariance_oscillator_block_ignores_the_cavity_frame(base):
    # rotating the (X, Y) quadratures by phi = arg c_s turns M into R M R^T
    # and V into R V R^T; D's cavity block is kappa * I, so D stays, and R
    # leaves the oscillators' block of V alone
    derived = params.derive(base)
    m = dynamics.build_drift(base, derived.g_m)
    d = dynamics.build_diffusion(base)
    phi = math.atan2(derived.c_s_im, derived.c_s_re)
    r = np.eye(6)
    r[4:, 4:] = [[math.cos(phi), -math.sin(phi)], [math.sin(phi), math.cos(phi)]]
    v, rotated = dynamics.steady_covariance(
        np.array([m, r @ m @ r.T]), np.array([d, d]), np.full(2, base.omega_m1))
    assert max_rel_diff(rotated[:4, :4], v[:4, :4]) <= RELATION_RTOL


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(oracles.VALID_BASES, st.floats(1e-3, 0.03))
def test_steady_covariance_is_affine_in_the_thermal_occupation(base, temperature):
    # with omega_m2 = omega_m1 both baths hold n(T), so D and V are affine
    # in n(T); three temperatures share one drift, and so one elimination
    # with a right-hand side slot each
    p = dataclasses.replace(
        base, omega_m2=base.omega_m1,
        coulomb_lambda=base.coulomb_lambda * math.sqrt(base.omega_m1 / base.omega_m2))
    m = dynamics.build_drift(p, params.derive(p).g_m)
    temperatures = (temperature, 2.0 * temperature, 4.0 * temperature)
    ds = [dynamics.build_diffusion(dataclasses.replace(p, temperature=t)) for t in temperatures]
    v0, v1, v2 = dynamics.steady_covariance(np.array([m] * 3), np.array(ds), np.full(3, p.omega_m1))
    n0, n1, n2 = (params.thermal_occupation(p.omega_m1, t) for t in temperatures)
    assert max_rel_diff(v0 + (n2 - n0) / (n1 - n0) * (v1 - v0), v2) <= RELATION_RTOL


@pytest.mark.parametrize("lam_frac", [0.3, 0.6, 0.95])
def test_local_bath_limit_at_zero_temperature(lam_frac):
    # with the cavity all but off, q+ = (q1 + q2)/sqrt(2) has stiffness
    # omega + lambda but keeps the bare frequency's zero-point noise from
    # its momentum-only bath (the local master equation; Rivas et al.,
    # NJP 12, 113032 (2010)): <q+^2> = (omega/(omega + lambda)) / 2 and
    # <p+^2> = 1/2, so 4 <q+^2><p+^2> = 1/(1 + lambda/omega) < 1
    p = params.SystemParams(
        temperature=0.0, power=1e-12, coulomb_lambda=lam_frac * TWO_PI * 1e8
    )
    _, _, v = oracles.readme_chain(p)
    q_plus = 0.5 * (v[0, 0] + v[2, 2] + 2.0 * v[0, 2])
    p_plus = 0.5 * (v[1, 1] + v[3, 3] + 2.0 * v[1, 3])
    assert 4.0 * q_plus * p_plus == pytest.approx(1.0 / (1.0 + lam_frac), rel=1e-8)


def test_evolve_matches_scalar_analytic_solution():
    # dv/dt = -2v + 1 from 0: v(t) = (1 - exp(-2t))/2
    out = oracles.evolve_covariance(
        [[-1.0]], [[1.0]], [[0.0]], 1.0, 0.01
    )
    assert out[0, 0] == pytest.approx(0.5 * (1.0 - math.exp(-2.0)), rel=1e-8)


def test_evolve_composition_matches_literal_stepping():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((4, 4)) - 5.0 * np.eye(4)
    d = np.diag(rng.uniform(0.5, 2.0, 4))
    v0 = 0.3 * np.eye(4)
    t_end = 0.37
    dt = 0.01 / np.linalg.norm(a, 2)
    got = oracles.evolve_covariance(a, d, v0, t_end, dt)

    n = math.ceil(t_end / dt)
    h = t_end / n
    v = v0.copy()
    for _ in range(n):
        k1 = a @ v + v @ a.T + d
        v2 = v + 0.5 * h * k1
        k2 = a @ v2 + v2 @ a.T + d
        v3 = v + 0.5 * h * k2
        k3 = a @ v3 + v3 @ a.T + d
        v4 = v + h * k3
        k4 = a @ v4 + v4 @ a.T + d
        v = v + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        v = 0.5 * (v + v.T)
    assert np.allclose(got, v, rtol=1e-12, atol=1e-14)


def test_evolve_converges_to_steady_covariance():
    base = params.reference_params()
    p = params.reference_params(coulomb_lambda=0.95 * base.omega_m1)
    derived = params.derive(p)
    m = dynamics.build_drift(p, derived.g_m)
    d = dynamics.build_diffusion(p)
    v_inf = dynamics.steady_covariance(m, d, omega_scale=p.omega_m1)
    report = dynamics.stability(m, omega_scale=p.omega_m1)
    t_end = 10.0 / abs(report.max_real_part)
    dt = 0.1 / np.linalg.norm(m, 2)
    v0 = np.diag([derived.nbar + 0.5] * 4 + [0.5] * 2)
    v_t = oracles.evolve_covariance(m, d, v0, t_end, dt)
    rel = np.linalg.norm(v_t - v_inf) / np.linalg.norm(v_inf)
    assert rel <= 1e-6
