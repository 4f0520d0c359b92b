import dataclasses
import gc
import math
import types

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from omneg import cli, dynamics, entanglement, params, steady_state, sweep
from omneg.errors import (
    ConfigError,
    DegenerateNormalMode,
    EigenFailure,
    NoDeathBelowCeiling,
    NoEntanglementAtFloor,
    NonPhysicalState,
    SingularSolve,
    ThresholdSingularity,
    UnstableSystem,
)

TWO_PI = 2.0 * math.pi
OMEGA = TWO_PI * 1e8

# frozen pipeline values at the strongest-coupling reference point
NBAR_REF = 0.43112949691588682
EN_REF = 0.35271388618958205
# critical temperature of fig5a_base() over [1e-3, 0.064] K at tol 1e-5
T_C_REF = 0.03051140372983871


def strong_point() -> params.SystemParams:
    return params.reference_params(coulomb_lambda=0.95 * OMEGA)


def fig5a_base() -> params.SystemParams:
    return params.reference_params(
        coulomb_lambda=0.95 * OMEGA,
        detuning=0.75 * OMEGA,
        opa_phase=math.pi / 16,
        opa_gain=2e7,
    )


def test_evaluate_point_reference():
    r = sweep.evaluate_point(strong_point())
    assert r.error_code == sweep.ErrorCode.OK
    assert r.nbar == pytest.approx(NBAR_REF, rel=1e-12)
    assert r.log_negativity == pytest.approx(EN_REF, rel=1e-9)
    assert r.stable is True
    assert r.max_real_part < 0.0
    assert r.sigma is not None and r.varrho is not None
    assert r.q1s is not None and r.g_m is not None and r.abs_c_s is not None


def test_evaluate_point_threshold_partial_fill():
    p = params.reference_params(detuning=0.0, opa_gain=0.75 * 8.81e7, power=0.0)
    r = sweep.evaluate_point(p)
    assert r.error_code == sweep.ErrorCode.THRESHOLD_SINGULARITY
    assert r.nbar is not None
    assert r.abs_c_s is None and r.g_m is None
    assert r.log_negativity is None


def test_evaluate_point_unstable_partial_fill():
    p = params.reference_params(detuning=-OMEGA, coulomb_lambda=0.95 * OMEGA)
    r = sweep.evaluate_point(p)
    assert r.error_code == sweep.ErrorCode.UNSTABLE
    assert r.stable is False
    assert r.max_real_part > 0.0
    assert r.nbar is not None and r.abs_c_s is not None
    assert r.q1s is not None and r.g_m is not None
    assert r.sigma is None and r.varrho is None and r.log_negativity is None


STEADY_COLS = ("nbar",)
DERIVED_COLS = STEADY_COLS + ("abs_c_s", "q1s", "g_m")
STABILITY_COLS = DERIVED_COLS + ("stable", "max_real_part")
ROW_COLS = STABILITY_COLS + ("sigma", "varrho", "log_negativity")


@pytest.mark.parametrize(
    "exc, module, stage, code, cols, blocks",
    [
        (ThresholdSingularity, steady_state, "cavity_amplitude", 2, STEADY_COLS, ()),
        (DegenerateNormalMode, params, "derive", 3, STEADY_COLS, ()),
        (EigenFailure, dynamics, "stability", 4, DERIVED_COLS, ("derived",)),
        (UnstableSystem, dynamics, "steady_covariance", 5, STABILITY_COLS,
         ("derived", "stability")),
        (SingularSolve, dynamics, "steady_covariance", 6, STABILITY_COLS,
         ("derived", "stability")),
        (NonPhysicalState, entanglement, "log_negativity", 7, STABILITY_COLS,
         ("derived", "stability")),
    ],
)
def test_stage_failure_maps_to_row_json_and_search(
    exc, module, stage, code, cols, blocks, monkeypatch, capsys
):
    def fail(*args, **kwargs):
        raise exc("injected")

    def fail_rows(stack, *args):
        # a stacked stage reports each system's failure in its entry
        return [exc("injected") for _ in stack]

    stacked = module in (dynamics, entanglement)
    monkeypatch.setattr(module, stage, fail_rows if stacked else fail)
    r = sweep.evaluate_point(strong_point())
    assert r.error_code == code and exc.code == code
    assert {c for c in ROW_COLS if getattr(r, c) is not None} == set(cols)

    assert cli.main(["point", "--set", "coulomb_lambda_in_omega_m=0.95"]) == 0
    out = oracles.strict_json(capsys.readouterr().out)
    assert out["error"] == {"name": exc.__name__, "detail": "injected"}
    filled = {k for k, v in out.items() if v is not None}
    assert filled == {"params", "error", *blocks}

    with pytest.raises(exc):
        sweep.critical_temperature(fig5a_base(), 1e-3, 0.064, 1e-5)


def test_failed_rows_leave_no_reference_cycles():
    # a cycle per failed row is freed only by the cyclic collector, so
    # a grid's memory would peak higher before it runs
    gc.collect()
    gc.disable()
    try:
        r = sweep.evaluate_point(
            params.reference_params(detuning=-OMEGA, coulomb_lambda=0.95 * OMEGA)
        )
        assert r.error_code == sweep.ErrorCode.UNSTABLE
        (rejected,) = sweep.run_stages(
            params.reference_params(), [{"coulomb_lambda": 1.05 * OMEGA}]
        )
        assert rejected.failure.code == sweep.ErrorCode.INVALID_PARAMS
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_run_sweep_zero_axes_single_row():
    (result,) = sweep.run_sweep(strong_point(), [])
    assert result.error_code == sweep.ErrorCode.OK
    assert result.log_negativity == pytest.approx(EN_REF, rel=1e-9)


def test_run_sweep_row_order_first_axis_slowest():
    base = params.reference_params()
    axes = [
        ("power", (0.03, 0.05)),
        ("detuning", (0.5 * OMEGA, OMEGA, 1.5 * OMEGA)),
    ]
    results = sweep.run_sweep(base, axes)
    want = [
        (p, d)
        for p in (0.03, 0.05)
        for d in (0.5 * OMEGA, OMEGA, 1.5 * OMEGA)
    ]
    assert results == [
        sweep.evaluate_point(dataclasses.replace(base, power=p, detuning=d)) for p, d in want
    ]


def test_run_sweep_parallel_matches_serial_bytes(tmp_path):
    axes = [
        ("coulomb_lambda", (0.3 * OMEGA, 0.95 * OMEGA)),
        ("detuning", (0.5 * OMEGA, OMEGA, 1.25 * OMEGA)),
    ]
    out1 = tmp_path / "serial.csv"
    out2 = tmp_path / "parallel.csv"
    base = params.reference_params()
    sweep.write_csv(out1, axes, sweep.run_sweep(base, axes, parallel=1))
    sweep.write_csv(out2, axes, sweep.run_sweep(base, axes, parallel=2))
    assert out1.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize(
    "parallel, rows, cpus, workers",
    [
        (100000, 3, 4, 3),
        (100000, 10, 4, 4),
        (3, 10, 4, 3),
        (100000, 10, None, None),
        (100000, 1, 4, None),
        (1, 10, 4, None),
    ],
)
def test_run_sweep_pool_size_is_bounded(monkeypatch, parallel, rows, cpus, workers):
    started = []
    mapped = []

    class FakePool:
        def __init__(self, processes):
            started.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, func, tasks):
            mapped.append(len(tasks))
            return [func(t) for t in tasks]

    monkeypatch.setattr(sweep, "multiprocessing", types.SimpleNamespace(Pool=FakePool))
    monkeypatch.setattr(sweep.os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(
        sweep, "run_stages", lambda base, overrides: [sweep.Stages(0.0) for _ in overrides]
    )
    axes = [("power", tuple(0.01 * (i + 1) for i in range(rows)))]
    got = sweep.run_sweep(params.reference_params(), axes, parallel)
    assert len(got) == rows
    assert started == ([] if workers is None else [workers])
    # every worker gets at least one contiguous chunk
    assert mapped == ([] if workers is None else [max(workers, -(-rows // sweep.STACK_ROWS))])


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(
    lam_frac=st.floats(-0.98, 0.98),
    w2_frac=st.floats(0.5, 1.5),
    detuning_frac=st.floats(0.3, 2.0),
    power=st.floats(0.01, 0.1),
    temperature=st.floats(0.0, 0.05),
    opa_gain=st.floats(0.0, 4e7),
    opa_phase=st.floats(-math.pi, math.pi),
)
def test_negativity_is_even_in_coulomb_coupling(
    lam_frac, w2_frac, detuning_frac, power, temperature, opa_gain, opa_phase
):
    # lambda -> -lambda is the local flip (q2, p2) -> (-q2, -p2), which
    # leaves E_N alone; at lambda = 0 the oscillators are a product
    # state. At T = 0 that state sits on the separability boundary
    # varrho = 1/2 itself, inside log_negativity's roundoff band.
    base = params.SystemParams(
        omega_m2=w2_frac * OMEGA,
        detuning=detuning_frac * OMEGA,
        power=power,
        temperature=temperature,
        opa_gain=opa_gain,
        opa_phase=opa_phase,
    )
    lam = lam_frac * math.sqrt(base.omega_m1 * base.omega_m2)
    plus = sweep.evaluate_point(dataclasses.replace(base, coulomb_lambda=lam))
    assume(plus.error_code == sweep.ErrorCode.OK)
    minus = sweep.evaluate_point(dataclasses.replace(base, coulomb_lambda=-lam))
    assert minus.error_code == sweep.ErrorCode.OK
    assert minus.log_negativity == pytest.approx(plus.log_negativity, rel=1e-9)
    zero = sweep.evaluate_point(dataclasses.replace(base, coulomb_lambda=0.0))
    assert zero.error_code == sweep.ErrorCode.OK
    assert zero.log_negativity == 0.0


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(oracles.VALID_BASES, st.lists(st.floats(0.0, 0.1), min_size=6, max_size=6))
def test_negativity_does_not_increase_with_temperature(base, temperatures):
    # temperature enters only the bath noise, so a hotter bath can only
    # wash entanglement out
    records = sweep.run_stages(base, [{"temperature": t} for t in sorted(temperatures)])
    assume(records[0].failure is None)
    values = [r.checked_en() for r in records]
    assert all(b <= a for a, b in zip(values, values[1:])), values


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(oracles.VALID_BASES, st.floats(-10.0, 10.0))
def test_negativity_is_periodic_in_pump_phase(base, phase):
    low, high = sweep.run_stages(
        base, [{"opa_phase": phase}, {"opa_phase": phase + TWO_PI}]
    )
    codes = [0 if r.failure is None else r.failure.code for r in (low, high)]
    assert codes[0] == codes[1]
    if low.failure is None:
        assert high.checked_en() == pytest.approx(low.checked_en(), abs=1e-9)


def same_record(a: sweep.Stages, b: sweep.Stages) -> bool:
    """Field-for-field equality; float reprs round-trip, so equal bits."""
    return (
        repr(dataclasses.replace(a, failure=None)) == repr(dataclasses.replace(b, failure=None))
        and type(a.failure) is type(b.failure)
        and str(a.failure) == str(b.failure)
    )


# (code, coulomb_lambda / omega_m, detuning / omega_m, opa_gain, power
# range, temperature range): red-detuned and below threshold (0),
# coupling at or past the normal-mode bound sqrt(omega_m1 * omega_m2)
# (1), on resonance above the pump threshold (2), a drive so strong that
# |c_s|^2 overflows and the drift holds inf (4), blue-detuned and
# unstable (5), a bath so hot that the covariance overflows (6), and one
# whose symplectic invariants overflow (7)
POINT_KINDS = (
    (0, (-0.98, 0.98), (0.3, 2.0), (0.0, 4e7), (0.01, 0.1), (0.0, 0.05)),
    (0, (-0.98, 0.98), (0.3, 2.0), (0.0, 4e7), (0.01, 0.1), (0.0, 0.05)),
    (1, (1.0, 1.5), (0.3, 2.0), (0.0, 4e7), (0.01, 0.1), (0.0, 0.05)),
    (2, (-0.98, 0.98), (0.0, 0.05), (5e7, 2e8), (0.01, 0.1), (0.0, 0.05)),
    (4, (-0.98, 0.98), (-1.5, 2.0), (0.0, 4e7), (1e300, 1e308), (0.0, 0.05)),
    (5, (-0.98, 0.98), (-1.5, -0.3), (0.0, 4e7), (0.01, 0.1), (0.0, 0.05)),
    (6, (-0.98, 0.98), (0.3, 2.0), (0.0, 4e7), (0.01, 0.1), (1e300, 1e305)),
    (7, (-0.98, 0.98), (0.3, 2.0), (0.0, 4e7), (0.01, 0.1), (1e200, 1e250)),
)


@st.composite
def coded_points(draw):
    """(code, overrides of the default SystemParams) for one point."""
    code, (l_lo, l_hi), (d_lo, d_hi), (g_lo, g_hi), (p_lo, p_hi), (t_lo, t_hi) = draw(
        st.sampled_from(POINT_KINDS))
    changes = {
        "coulomb_lambda": draw(st.floats(l_lo, l_hi)) * OMEGA,
        "detuning": draw(st.floats(d_lo, d_hi)) * OMEGA,
        "opa_gain": draw(st.floats(g_lo, g_hi)),
        "opa_phase": draw(st.floats(-math.pi, math.pi)),
        "power": draw(st.floats(p_lo, p_hi)),
        "temperature": draw(st.floats(t_lo, t_hi)),
    }
    return code, changes


# sizes drawn uniformly, so batches often fill one stack and spill into more
BATCHES = st.integers(1, 2 * sweep.STACK_ROWS + 6).flatmap(
    lambda n: st.lists(coded_points(), min_size=n, max_size=n)
)


@settings(derandomize=True, database=None, deadline=None, max_examples=15)
@given(BATCHES)
def test_any_batch_gives_each_row_as_alone(coded):
    codes, overrides = zip(*coded)
    base = params.SystemParams()
    batch = sweep.run_stages(base, overrides)
    assert len(batch) == len(overrides)
    for code, changes, record in zip(codes, overrides, batch):
        got = 0 if record.failure is None else record.failure.code
        if code == 0 and got == 7:
            # a cold, weakly cooled point can break the uncertainty relation
            _, _, v = oracles.readme_chain(dataclasses.replace(base, **changes))
            assert oracles.uncertainty_margin(v[:4, :4]) < 0.0
        else:
            assert got == code
        assert same_record(record, sweep.run_stages(base, [changes])[0])


def test_temperature_only_batch_gives_each_row_as_alone():
    # rows that differ only in temperature share one drift matrix and so
    # one elimination; repeats, T = 0 and a covariance overflow (code 6)
    # ride along
    temperatures = [0.03, 1e-3, 0.03, 0.064, 1e300, 1e-3, 0.0, 0.03, 1e300]
    overrides = [{"temperature": t} for t in temperatures]
    batch = sweep.run_stages(fig5a_base(), overrides)
    assert [0 if r.failure is None else r.failure.code for r in batch] == [
        0, 0, 0, 0, 6, 0, 0, 0, 6]
    for changes, record in zip(overrides, batch):
        assert same_record(record, sweep.run_stages(fig5a_base(), [changes])[0])


@pytest.mark.parametrize("rows", [1, sweep.STACK_ROWS, sweep.STACK_ROWS + 1])
def test_run_sweep_rows_do_not_depend_on_workers(rows):
    # every detuning comes at a valid coupling and at one past the
    # normal-mode bound, so each chunk mixes code-1 rows with solved ones
    axes = [
        ("detuning", tuple(np.linspace(-0.5, 2.0, rows) * OMEGA)),
        ("coulomb_lambda", (0.95 * OMEGA, 1.05 * OMEGA)),
    ]
    base = params.SystemParams(opa_gain=2e7)
    serial = sweep.run_sweep(base, axes, parallel=1)
    pooled = sweep.run_sweep(base, axes, parallel=2)
    assert repr(serial) == repr(pooled)


def test_run_sweep_bad_axis_value_flags_single_row():
    # 1.05*omega breaks the normal-mode bound, so construction fails
    # for that row alone; its neighbours still evaluate
    results = sweep.run_sweep(
        params.reference_params(),
        [("coulomb_lambda", (0.5 * OMEGA, 1.05 * OMEGA, 0.95 * OMEGA))],
    )
    codes = [r.error_code for r in results]
    assert codes == [
        sweep.ErrorCode.OK,
        sweep.ErrorCode.INVALID_PARAMS,
        sweep.ErrorCode.OK,
    ]
    bad = results[1]
    assert bad.nbar is None and bad.log_negativity is None


def test_run_sweep_rejects_bad_spec():
    base = params.reference_params()
    with pytest.raises(ConfigError):
        sweep.run_sweep(base, [("frequency", (1.0,))])
    with pytest.raises(ConfigError):
        sweep.run_sweep(base, [("power", ())])
    with pytest.raises(ConfigError):
        sweep.run_sweep(base, [], parallel=0)


def test_run_sweep_rejects_grid_over_cap(monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("grid expanded past the cap")

    monkeypatch.setattr(sweep, "itertools", types.SimpleNamespace(product=boom))
    monkeypatch.setattr(sweep, "_grid_task", boom)
    side = (0.05,) * 1001
    axes = [("power", side), ("temperature", side)]
    with pytest.raises(ConfigError, match="cap"):
        sweep.run_sweep(params.reference_params(), axes)


def test_csv_layout_and_roundtrip(tmp_path):
    out = tmp_path / "table.csv"
    axes = [("detuning", (-OMEGA, OMEGA))]
    results = sweep.run_sweep(params.reference_params(), axes)
    sweep.write_csv(out, axes, results)
    text = out.read_text(encoding="utf-8")
    assert "\r" not in text
    lines = text.split("\n")
    assert lines[0] == "detuning," + ",".join(sweep.CSV_COLUMNS)
    assert lines[-1] == ""
    assert len(lines) == len(results) + 2

    # stable row: every float survives a parse round-trip at 17 digits
    ok_cells = lines[2].split(",")
    assert ok_cells[-1] == "0"
    assert float(ok_cells[0]) == OMEGA
    result = results[1]
    assert float(ok_cells[1]) == result.nbar
    assert float(ok_cells[9]) == result.log_negativity
    assert ok_cells[5] == "1"

    # unstable row: entanglement cells are empty, flag is 0
    bad_cells = lines[1].split(",")
    assert bad_cells[-1] == str(int(sweep.ErrorCode.UNSTABLE))
    assert bad_cells[5] == "0"
    assert bad_cells[7] == "" and bad_cells[8] == "" and bad_cells[9] == ""



@pytest.mark.parametrize("points, rows", [(3, 2), (1, 3)])
def test_csv_results_must_match_the_grid(tmp_path, points, rows):
    # too few results would drop grid points and too many would be cut
    # off; either way the existing table keeps its bytes
    out = tmp_path / "table.csv"
    out.write_bytes(b"previous table\n")
    axes = [("detuning", tuple(OMEGA * (1 + i) / 4 for i in range(points)))]
    results = sweep.run_sweep(params.reference_params(), [("detuning", (OMEGA,) * rows)])
    with pytest.raises(ValueError):
        sweep.write_csv(out, axes, results)
    assert out.read_bytes() == b"previous table\n"
    assert [p.name for p in tmp_path.iterdir()] == ["table.csv"]

def test_figure_spec_families():
    w = OMEGA
    base, axes = sweep.figure_spec("fig2")
    assert base.opa_gain == 0.0
    assert axes[0] == ("coulomb_lambda", (0.3 * w, 0.5 * w, 0.95 * w))
    assert axes[1][0] == "detuning"
    grid = axes[1][1]
    assert len(grid) == 401
    assert grid[0] == 0.0 and grid[-1] == pytest.approx(2.0 * w, rel=1e-15)
    assert grid[200] == pytest.approx(w, rel=1e-15)

    base, axes = sweep.figure_spec("fig3")
    assert base.coulomb_lambda == 0.95 * w
    assert base.opa_phase == 0.0
    assert axes[0] == ("opa_gain", (0.0, 2e7, 5e7, 8e7, 10e7, 12e7))

    base, axes = sweep.figure_spec("fig4")
    assert base.opa_gain == 12e7
    assert axes[0] == (
        "opa_phase",
        (0.0, math.pi / 16, math.pi / 6, math.pi / 4),
    )

    for name, gain in (("fig5a", 2e7), ("fig5b", 8e7)):
        base, axes = sweep.figure_spec(name)
        assert base.opa_gain == gain
        assert base.coulomb_lambda == 0.95 * w
        assert base.detuning == 0.75 * w
        assert base.opa_phase == math.pi / 16
        assert axes[0] == ("power", (0.03, 0.05, 0.08, 0.10))

    with pytest.raises(ConfigError):
        sweep.figure_spec("fig6")


def test_figure_spec_fig5_temperature_grid():
    # each ceiling is the first doubling of 8 mK at which every power
    # family is dead, so the grid brackets each family's death
    for which, ceiling in (("fig5a", 0.064), ("fig5b", 0.128)):
        base, ((power_name, powers), (name, tgrid)) = sweep.figure_spec(which)
        assert power_name == "power" and name == "temperature"
        assert len(tgrid) == 201
        assert tgrid[0] == 1e-3 and tgrid[-1] == ceiling

        def rows_at(temperature):
            return [
                sweep.evaluate_point(
                    dataclasses.replace(base, power=p, temperature=temperature)
                )
                for p in powers
            ]

        dead = rows_at(ceiling)
        assert all(r.error_code == 0 and r.log_negativity == 0.0 for r in dead)
        assert any(r.log_negativity > 0.0 for r in rows_at(ceiling / 2))


def test_critical_temperature_brackets_death():
    t_c = sweep.critical_temperature(fig5a_base(), 1e-3, 0.064, 1e-5)
    assert t_c == pytest.approx(0.030511, abs=5e-4)
    # past the critical point the state is definitely separable
    dead = sweep.evaluate_point(
        params.reference_params(
            coulomb_lambda=0.95 * OMEGA,
            detuning=0.75 * OMEGA,
            opa_phase=math.pi / 16,
            opa_gain=2e7,
            temperature=t_c + 1e-3,
        )
    )
    assert dead.error_code == sweep.ErrorCode.OK
    assert dead.log_negativity == 0.0


def probed_temperatures(monkeypatch, limit=500):
    """Temperatures of each run_stages call, in call order; fails past ``limit``."""
    calls = []
    run = sweep.run_stages

    def counted(base, overrides):
        calls.append([changes["temperature"] for changes in overrides])
        if sum(map(len, calls)) > limit:
            raise AssertionError(f"more than {limit} pipeline runs")
        return run(base, overrides)

    monkeypatch.setattr(sweep, "run_stages", counted)
    return calls


def search_probes(monkeypatch, search):
    """(T_c, temperatures of each run_stages call) of the T_C_REF search."""
    with monkeypatch.context() as patch:
        calls = probed_temperatures(patch)
        t_c = search(fig5a_base(), 1e-3, 0.064, 1e-5)
    return t_c, calls


def sequential_path(monkeypatch):
    """The sequential search's bisection probes, one run_stages call each."""
    _, (_, *probes) = search_probes(monkeypatch, oracles.sequential_critical_temperature)
    assert all(len(c) == 1 for c in probes)
    return [t for (t,) in probes]


def test_critical_temperature_probes_no_temperature_twice(monkeypatch):
    t_c, calls = search_probes(monkeypatch, sweep.critical_temperature)
    assert t_c == T_C_REF
    path = sequential_path(monkeypatch)
    assert len(path) == 8
    # one 32-point scan whose ends are the floor and the ceiling, then
    # calls of at most 7 midpoints inside the bracket whose midpoint
    # comes first; the sequential search's probes appear among them in
    # order, and each bracket's ends are the nearest points probed
    # before it
    scan, *levels = calls
    assert len(scan) == 32 and scan[0] == 1e-3 and scan[-1] == 0.064
    assert [t for c in levels for t in c if t in path] == path
    # two full trees of three levels, then one that tol cuts after two
    assert [len(c) for c in levels] == [7, 7, 3]
    for c in levels:
        before = scan + path[:path.index(c[0])]
        lo = max(t for t in before if t < c[0])
        hi = min(t for t in before if t > c[0])
        assert c[0] == 0.5 * (lo + hi)
        assert all(lo < t < hi for t in c)
    seen = [t for c in calls for t in c]
    assert len(seen) == len(set(seen))


def failing_at(monkeypatch, temperatures):
    """Make run_stages report an injected SingularSolve at the given temperatures."""
    run = sweep.run_stages

    def injected(base, overrides):
        return [
            sweep.Stages(failure=SingularSolve("injected"))
            if changes["temperature"] in temperatures else record
            for changes, record in zip(overrides, run(base, overrides))
        ]

    monkeypatch.setattr(sweep, "run_stages", injected)


def test_critical_temperature_raises_only_on_its_path(monkeypatch):
    _, (_, *levels) = search_probes(monkeypatch, sweep.critical_temperature)
    path = sequential_path(monkeypatch)
    off_path = {t for c in levels for t in c} - set(path)
    assert off_path
    with monkeypatch.context() as patch:
        failing_at(patch, off_path)
        assert sweep.critical_temperature(fig5a_base(), 1e-3, 0.064, 1e-5) == T_C_REF
    for search in (sweep.critical_temperature, oracles.sequential_critical_temperature):
        with monkeypatch.context() as patch:
            failing_at(patch, {path[4]})
            with pytest.raises(SingularSolve, match="injected"):
                search(fig5a_base(), 1e-3, 0.064, 1e-5)


@settings(derandomize=True, database=None, deadline=None, max_examples=25)
@given(
    t_lo=st.floats(1e-4, 0.06),
    t_hi=st.floats(0.01, 0.1),
    tol=st.one_of(st.just(1e-300), st.floats(1e-300, 1e-2)),
)
def test_critical_temperature_matches_sequential_search(t_lo, t_hi, tol):
    # T_c, or the guard that stops the search, to the bit
    assume(t_lo < t_hi)
    outcomes = []
    for search in (sweep.critical_temperature, oracles.sequential_critical_temperature):
        try:
            outcomes.append(repr(search(fig5a_base(), t_lo, t_hi, tol)))
        except (NoEntanglementAtFloor, NoDeathBelowCeiling) as exc:
            outcomes.append(f"{type(exc).__name__}: {exc}")
    assert outcomes[0] == outcomes[1]


def test_critical_temperature_stops_at_float_resolution(monkeypatch):
    # a tol below float spacing used to bisect adjacent floats for ever
    calls = probed_temperatures(monkeypatch)
    t_c = sweep.critical_temperature(fig5a_base(), 1e-3, 0.064, 1e-300)
    assert abs(t_c - T_C_REF) <= 0.5e-5
    seen = [t for c in calls for t in c]
    assert len(seen) == len(set(seen))


def test_critical_temperature_floor_and_ceiling_guards():
    with pytest.raises(NoEntanglementAtFloor):
        sweep.critical_temperature(params.reference_params(), 1e-3, 0.064, 1e-5)
    with pytest.raises(NoDeathBelowCeiling):
        sweep.critical_temperature(fig5a_base(), 1e-3, 2e-3, 1e-5)


def test_critical_temperature_judges_floor_before_ceiling():
    # the ceiling point overflows its covariance (code 6), but a floor
    # without entanglement is reported first
    (ceiling,) = sweep.run_stages(params.reference_params(), [{"temperature": 1e300}])
    assert isinstance(ceiling.failure, SingularSolve)
    with pytest.raises(NoEntanglementAtFloor):
        sweep.critical_temperature(params.reference_params(), 1e-3, 1e300, 1e-5)


def test_critical_temperature_input_validation():
    p = fig5a_base()
    with pytest.raises(ValueError):
        sweep.critical_temperature(p, 0.0, 0.064, 1e-5)
    with pytest.raises(ValueError):
        sweep.critical_temperature(p, 0.01, 0.01, 1e-5)
    with pytest.raises(ValueError):
        sweep.critical_temperature(p, 1e-3, math.inf, 1e-5)
    with pytest.raises(ValueError):
        sweep.critical_temperature(p, 1e-3, 0.064, 0.0)
    with pytest.raises(ValueError):
        sweep.critical_temperature(p, 1e-3, 0.064, float("nan"))
