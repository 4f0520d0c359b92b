import dataclasses
import gc
import json
import math
import types

import pytest

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
        (DegenerateNormalMode, steady_state, "displacements", 3, STEADY_COLS, ()),
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

    monkeypatch.setattr(module, stage, fail)
    r = sweep.evaluate_point(strong_point())
    assert r.error_code == code and exc.code == code
    assert {c for c in ROW_COLS if getattr(r, c) is not None} == set(cols)

    assert cli.main(["point", "--set", "coulomb_lambda_in_omega_m=0.95"]) == 0
    out = json.loads(capsys.readouterr().out)
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
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_run_sweep_zero_axes_single_row():
    rows = sweep.run_sweep(sweep.SweepSpec(base=strong_point(), axes=()))
    assert len(rows) == 1
    assert rows[0].axis_values == ()
    assert rows[0].result.error_code == sweep.ErrorCode.OK
    assert rows[0].result.log_negativity == pytest.approx(EN_REF, rel=1e-9)


def test_run_sweep_row_order_first_axis_slowest():
    spec = sweep.SweepSpec(
        base=params.reference_params(),
        axes=(
            ("power", (0.03, 0.05)),
            ("detuning", (0.5 * OMEGA, OMEGA, 1.5 * OMEGA)),
        ),
    )
    rows = sweep.run_sweep(spec)
    got = [r.axis_values for r in rows]
    want = [
        (p, d)
        for p in (0.03, 0.05)
        for d in (0.5 * OMEGA, OMEGA, 1.5 * OMEGA)
    ]
    assert got == want


def test_run_sweep_parallel_matches_serial_bytes(tmp_path):
    axes = (
        ("coulomb_lambda", (0.3 * OMEGA, 0.95 * OMEGA)),
        ("detuning", (0.5 * OMEGA, OMEGA, 1.25 * OMEGA)),
    )
    out1 = tmp_path / "serial.csv"
    out2 = tmp_path / "parallel.csv"
    base = params.reference_params()
    sweep.run_sweep(sweep.SweepSpec(base, axes, str(out1), parallel=1))
    sweep.run_sweep(sweep.SweepSpec(base, axes, str(out2), parallel=2))
    assert out1.read_bytes() == out2.read_bytes()


def test_run_sweep_bad_axis_value_flags_single_row():
    # 1.05*omega breaks the normal-mode bound, so construction fails
    # for that row alone; its neighbours still evaluate
    spec = sweep.SweepSpec(
        base=params.reference_params(),
        axes=(("coulomb_lambda", (0.5 * OMEGA, 1.05 * OMEGA, 0.95 * OMEGA)),),
    )
    rows = sweep.run_sweep(spec)
    codes = [r.result.error_code for r in rows]
    assert codes == [
        sweep.ErrorCode.OK,
        sweep.ErrorCode.INVALID_PARAMS,
        sweep.ErrorCode.OK,
    ]
    bad = rows[1].result
    assert bad.nbar is None and bad.log_negativity is None


def test_run_sweep_rejects_bad_spec():
    base = params.reference_params()
    with pytest.raises(ConfigError):
        sweep.run_sweep(sweep.SweepSpec(base, (("frequency", (1.0,)),)))
    with pytest.raises(ConfigError):
        sweep.run_sweep(sweep.SweepSpec(base, (("power", ()),)))
    with pytest.raises(ConfigError):
        sweep.run_sweep(sweep.SweepSpec(base, (), parallel=0))


def test_run_sweep_rejects_grid_over_cap(monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("grid expanded past the cap")

    monkeypatch.setattr(sweep, "itertools", types.SimpleNamespace(product=boom))
    monkeypatch.setattr(sweep, "_grid_task", boom)
    side = (0.05,) * 1001
    axes = (("power", side), ("temperature", side))
    with pytest.raises(ConfigError, match="cap"):
        sweep.run_sweep(sweep.SweepSpec(params.reference_params(), axes))


def test_csv_layout_and_roundtrip(tmp_path):
    out = tmp_path / "table.csv"
    spec = sweep.SweepSpec(
        base=params.reference_params(),
        axes=(("detuning", (-OMEGA, OMEGA)),),
        output_path=str(out),
    )
    rows = sweep.run_sweep(spec)
    text = out.read_text(encoding="utf-8")
    assert "\r" not in text
    lines = text.split("\n")
    assert lines[0] == "detuning," + ",".join(sweep.CSV_COLUMNS)
    assert lines[-1] == ""
    assert len(lines) == len(rows) + 2

    # stable row: every float survives a parse round-trip at 17 digits
    ok_cells = lines[2].split(",")
    assert ok_cells[-1] == "0"
    assert float(ok_cells[0]) == OMEGA
    result = rows[1].result
    assert float(ok_cells[1]) == result.nbar
    assert float(ok_cells[9]) == result.log_negativity
    assert ok_cells[5] == "1"

    # unstable row: entanglement cells are empty, flag is 0
    bad_cells = lines[1].split(",")
    assert bad_cells[-1] == str(int(sweep.ErrorCode.UNSTABLE))
    assert bad_cells[5] == "0"
    assert bad_cells[7] == "" and bad_cells[8] == "" and bad_cells[9] == ""


def test_figure_spec_families():
    w = OMEGA
    fig2 = sweep.figure_spec("fig2")
    assert fig2.base.opa_gain == 0.0
    assert fig2.axes[0] == ("coulomb_lambda", (0.3 * w, 0.5 * w, 0.95 * w))
    assert fig2.axes[1][0] == "detuning"
    grid = fig2.axes[1][1]
    assert len(grid) == 401
    assert grid[0] == 0.0 and grid[-1] == pytest.approx(2.0 * w, rel=1e-15)
    assert grid[200] == pytest.approx(w, rel=1e-15)

    fig3 = sweep.figure_spec("fig3")
    assert fig3.base.coulomb_lambda == 0.95 * w
    assert fig3.base.opa_phase == 0.0
    assert fig3.axes[0] == ("opa_gain", (0.0, 2e7, 5e7, 8e7, 10e7, 12e7))

    fig4 = sweep.figure_spec("fig4")
    assert fig4.base.opa_gain == 12e7
    assert fig4.axes[0] == (
        "opa_phase",
        (0.0, math.pi / 16, math.pi / 6, math.pi / 4),
    )

    for name, gain in (("fig5a", 2e7), ("fig5b", 8e7)):
        fig5 = sweep.figure_spec(name)
        assert fig5.base.opa_gain == gain
        assert fig5.base.coulomb_lambda == 0.95 * w
        assert fig5.base.detuning == 0.75 * w
        assert fig5.base.opa_phase == math.pi / 16
        assert fig5.axes[0] == ("power", (0.03, 0.05, 0.08, 0.10))

    with pytest.raises(ConfigError):
        sweep.figure_spec("fig6")


def test_figure_spec_fig5_temperature_grid():
    # each ceiling is the first doubling of 8 mK at which every power
    # family is dead, so the grid brackets each family's death
    for which, ceiling in (("fig5a", 0.064), ("fig5b", 0.128)):
        spec = sweep.figure_spec(which)
        (power_name, powers), (name, tgrid) = spec.axes
        assert power_name == "power" and name == "temperature"
        assert len(tgrid) == 201
        assert tgrid[0] == 1e-3 and tgrid[-1] == ceiling

        def rows_at(temperature):
            return [
                sweep.evaluate_point(
                    dataclasses.replace(spec.base, power=p, temperature=temperature)
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
    """Temperatures run_stages sees, in call order; fails past ``limit``."""
    seen = []
    run = sweep.run_stages

    def counted(p):
        seen.append(p.temperature)
        if len(seen) > limit:
            raise AssertionError(f"more than {limit} pipeline runs")
        return run(p)

    monkeypatch.setattr(sweep, "run_stages", counted)
    return seen


def test_critical_temperature_probes_no_temperature_twice(monkeypatch):
    seen = probed_temperatures(monkeypatch)
    t_c = sweep.critical_temperature(fig5a_base(), 1e-3, 0.064, 1e-5)
    assert t_c == T_C_REF
    # floor and ceiling guards, 30 inner scan points, 8 bisection steps
    assert seen[:2] == [1e-3, 0.064]
    assert len(seen) == len(set(seen)) == 40


def test_critical_temperature_stops_at_float_resolution(monkeypatch):
    # a tol below float spacing used to bisect adjacent floats for ever
    seen = probed_temperatures(monkeypatch)
    t_c = sweep.critical_temperature(fig5a_base(), 1e-3, 0.064, 1e-300)
    assert abs(t_c - T_C_REF) <= 0.5e-5
    assert len(seen) == len(set(seen))


def test_critical_temperature_floor_and_ceiling_guards():
    with pytest.raises(NoEntanglementAtFloor):
        sweep.critical_temperature(params.reference_params(), 1e-3, 0.064, 1e-5)
    with pytest.raises(NoDeathBelowCeiling):
        sweep.critical_temperature(fig5a_base(), 1e-3, 2e-3, 1e-5)


def test_critical_temperature_input_validation():
    p = fig5a_base()
    with pytest.raises(ValueError):
        sweep.critical_temperature(p, 0.0, 0.064, 1e-5)
    with pytest.raises(ValueError):
        sweep.critical_temperature(p, 0.01, 0.01, 1e-5)
    with pytest.raises(ValueError):
        sweep.critical_temperature(p, 1e-3, 0.064, 0.0)
    with pytest.raises(ValueError):
        sweep.critical_temperature(p, 1e-3, 0.064, float("nan"))
