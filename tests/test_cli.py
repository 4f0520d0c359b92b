import json
import math
import os
import stat
import subprocess
import sys
from pathlib import Path

import pytest

import oracles
from omneg import cli, config, errors, params, sweep

TWO_PI = 2.0 * math.pi
OMEGA = TWO_PI * 1e8


def run_cli(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_point_json_schema(capsys):
    code, out, err = run_cli(
        capsys, ["point", "--set", "coulomb_lambda=0.95 * omega_m1"]
    )
    assert code == 0 and err == ""
    doc = oracles.strict_json(out)
    assert set(doc) == {"params", "derived", "stability", "entanglement", "error"}
    assert doc["error"] is None
    assert doc["params"]["coulomb_lambda"] == pytest.approx(0.95 * OMEGA, rel=1e-15)
    for key in ("omega_c", "omega_L", "drive_E", "g0", "nbar", "q1s", "q2s", "g_m"):
        assert key in doc["derived"]
    stab = doc["stability"]
    assert stab["stable"] is True
    assert stab["max_real_part"] < 0.0
    eig = stab["eigenvalues"]
    assert len(eig) == 6 and all(len(pair) == 2 for pair in eig)
    ent = doc["entanglement"]
    assert ent["entangled"] is True
    assert ent["log_negativity"] == pytest.approx(0.35271388618958205, rel=1e-9)


def test_point_reads_config_and_set_wins(tmp_path, capsys):
    cfg = tmp_path / "point.cfg"
    cfg.write_text("base.power = 0.03\nbase.temperature = 0.008\n")
    code, out, _ = run_cli(
        capsys,
        ["point", "--config", str(cfg), "--set", "power=0.08"],
    )
    assert code == 0
    doc = oracles.strict_json(out)
    assert doc["params"]["power"] == 0.08
    assert doc["params"]["temperature"] == 0.008


def test_point_physics_failure_is_exit_zero(capsys):
    code, out, _ = run_cli(
        capsys,
        [
            "point",
            "--set", "detuning=0",
            "--set", "opa_gain=6.6075e7",
            "--set", "power=0",
        ],
    )
    assert code == 0
    doc = oracles.strict_json(out)
    assert doc["error"]["name"] == "ThresholdSingularity"
    assert doc["derived"] is None and doc["entanglement"] is None


def test_point_unstable_keeps_stability_block(capsys):
    code, out, _ = run_cli(
        capsys,
        [
            "point",
            "--set", "detuning_in_omega_m=-1",
            "--set", "coulomb_lambda_in_omega_m=0.95",
        ],
    )
    assert code == 0
    doc = oracles.strict_json(out)
    assert doc["error"]["name"] == "UnstableSystem"
    assert doc["stability"]["stable"] is False
    assert doc["entanglement"] is None


def test_point_underflowing_temperature_matches_zero(capsys):
    # kB*T underflows to 0.0 at 1e-310 K, which used to divide by zero
    docs = []
    for temperature in ("0", "1e-310"):
        code, out, err = run_cli(
            capsys,
            [
                "point",
                "--set", "coulomb_lambda_in_omega_m=0.95",
                "--set", f"temperature={temperature}",
            ],
        )
        assert code == 0 and err == ""
        docs.append(oracles.strict_json(out))
    assert [doc["error"] for doc in docs] == [None, None]
    assert docs[1]["derived"]["nbar"] == 0.0
    assert docs[1]["entanglement"] == docs[0]["entanglement"]


def test_point_spells_non_finite_floats_as_the_csv_does(capsys):
    # at 1e300 W the drive overflows to inf and |c_s|^2 leaves the field
    # NaN; JSON has no token for either, so they print as the CSV cells do
    code, out, _ = run_cli(capsys, ["point", "--set", "power=1e300"])
    assert code == 0
    doc = oracles.strict_json(out)
    assert doc["derived"]["drive_E"] == "inf"
    assert doc["derived"]["c_s_re"] == doc["derived"]["g_m"] == "nan"
    assert doc["error"]["name"] == "EigenFailure"


@pytest.mark.parametrize(
    "overrides, code",
    [
        (["coulomb_lambda_in_omega_m=0.95", "detuning_in_omega_m=1.0"], 0),
        (["opa_gain=5e7", "detuning=0"], 2),
        (["detuning_in_omega_m=-1", "coulomb_lambda_in_omega_m=0.5"], 5),
        (["power=1e300"], 4),
    ],
    ids=["readme", "threshold", "unstable", "overflow"],
)
def test_point_json_matches_reference_layout(capsys, overrides, code):
    # byte for byte, so key order and the eigenvalue pairs are pinned; the
    # reference is built here because eigenvalue bits vary across LAPACKs
    point = config.apply_overrides(params.reference_params(), overrides)
    (stages,) = sweep.run_stages(point, [{}])
    assert (0 if stages.error is None else stages.error.code) == code
    exit_code, out, err = run_cli(capsys, ["point", *(f"--set={o}" for o in overrides)])
    assert exit_code == 0 and err == ""
    assert out == json.dumps(oracles.point_document(point, stages), indent=2, allow_nan=False) + "\n"


def test_point_rejects_axes_in_config(tmp_path, capsys):
    cfg = tmp_path / "grid.cfg"
    cfg.write_text("axes.detuning = list(1e8)\n")
    code, _, err = run_cli(capsys, ["point", "--config", str(cfg)])
    assert code == 1
    assert err.startswith("error:")


def test_missing_config_file_is_io_error(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, ["point", "--config", str(tmp_path / "nope.cfg")]
    )
    assert code == 2
    assert err.startswith("io error:")


def test_bad_usage_is_exit_one(capsys):
    assert run_cli(capsys, ["sweep"])[0] == 1
    assert run_cli(capsys, ["point", "--set", "nope=1"])[0] == 1
    # lambda^2 overflows: still an invalid parameter, not a traceback
    assert run_cli(capsys, ["point", "--set", "coulomb_lambda=1e200"])[0] == 1
    assert run_cli(capsys, ["no-such-command"])[0] == 1


def test_sweep_writes_csv(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "base.coulomb_lambda_in_omega_m = 0.95\n"
        "axes.detuning = linspace(0.5, 1.5, 3) * omega_m1\n"
    )
    out = tmp_path / "rows.csv"
    code, _, err = run_cli(
        capsys, ["sweep", "--config", str(cfg), "--out", str(out)]
    )
    assert code == 0 and err == ""
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 4
    assert lines[0].startswith("detuning,")


@pytest.mark.parametrize(
    "lines, codes",
    [
        (["base.power = 1e300"], [4]),
        (["base.temperature = 1e300"], [6]),
        (["base.temperature = 1e200"], [7]),
        (
            [
                "base.coulomb_lambda_in_omega_m = 0.95",
                "axes.temperature = list(0.004, 1e200, 1e300)",
            ],
            [0, 7, 6],
        ),
        (["axes.coulomb_lambda = list(0, 1e200)"], [0, 1]),
        # derive-stage overflow: hbar/(mass*omega_m1) and 2*kappa*P/(hbar*omega_L)
        # divide by an underflowed product, |c_s|^2 passes the float range
        (["base.omega_m1 = 1e-61", "base.mass = 1e-263"], [4]),
        (["base.laser_wavelength = 1e300"], [4]),
        (["base.kappa = 1e-140", "base.detuning = 0", "base.power = 1e150"], [5]),
        # hbar*omega/(kB*T) underflows to 0: a bath occupation is inf
        # instead of a division by expm1(0) = 0
        (["base.omega_m1 = 1e-300", "base.omega_m2 = 1.0"], [5]),
        (["base.omega_m2 = 1e-300"], [5]),
        # lambda^2 < omega_m1*omega_m2 holds, but omega_m1 - lambda^2/omega_m2
        # rounds to exactly 0: mode 1 keeps no static restoring force
        (
            ["base.omega_m2 = 389977663.1319781", "base.coulomb_lambda = 495005244.7317174"],
            [3],
        ),
    ],
    ids=[
        "power",
        "temperature-1e300",
        "temperature-1e200",
        "temperature-axis",
        "lambda-axis",
        "g0-underflow",
        "drive-underflow",
        "abs-c-s-squared",
        "bath-1-underflow",
        "bath-2-underflow",
        "degenerate-stiffness",
    ],
)
def test_overflowing_stage_reports_its_code(tmp_path, capsys, lines, codes):
    # valid but extreme inputs overflow one stage; its row code (or the
    # point JSON error) names that stage instead of a traceback
    cfg = tmp_path / "run.cfg"
    cfg.write_text("\n".join(lines) + "\n")
    out = tmp_path / "rows.csv"
    assert run_cli(capsys, ["sweep", "--config", str(cfg), "--out", str(out)])[0] == 0
    rows = out.read_text().strip().split("\n")[1:]
    assert [int(row.rsplit(",", 1)[1]) for row in rows] == codes
    if len(codes) == 1:
        code, text, _ = run_cli(capsys, ["point", "--config", str(cfg)])
        assert code == 0
        assert getattr(errors, oracles.strict_json(text)["error"]["name"]).code == codes[0]


def test_sweep_unwritable_out_is_io_error(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("axes.detuning = list(6.28e8)\n")
    out = tmp_path / "missing-dir" / "rows.csv"
    code, _, err = run_cli(
        capsys, ["sweep", "--config", str(cfg), "--out", str(out)]
    )
    assert code == 2
    assert err.startswith("io error:")


def test_sweep_failed_write_keeps_existing_file(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("axes.detuning = list(0.5, 1.0, 1.5) * omega_m1\n")
    out = tmp_path / "rows.csv"
    out.write_text("previous table\n")
    calls = []

    def full_disk(value):
        calls.append(value)
        if len(calls) > 12:
            raise OSError(28, "No space left on device")
        return ""

    monkeypatch.setattr(sweep, "_fmt", full_disk)
    code, _, err = run_cli(
        capsys, ["sweep", "--config", str(cfg), "--out", str(out)]
    )
    assert code == 2 and err.startswith("io error:")
    assert len(calls) > 12
    assert out.read_text() == "previous table\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["rows.csv", "run.cfg"]


def test_sweep_output_mode_follows_umask(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("axes.detuning = list(6.28e8)\n")
    out = tmp_path / "rows.csv"
    old = os.umask(0o027)
    try:
        code, _, _ = run_cli(
            capsys, ["sweep", "--config", str(cfg), "--out", str(out)]
        )
    finally:
        os.umask(old)
    assert code == 0
    assert stat.S_IMODE(out.stat().st_mode) == 0o640
    assert sorted(p.name for p in tmp_path.iterdir()) == ["rows.csv", "run.cfg"]


def test_sweep_grid_over_cap_is_config_error(tmp_path, capsys, monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("grid expanded past the cap")

    monkeypatch.setattr(config.np, "linspace", boom)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("axes.power = linspace(0, 1, 10000000000)\n")
    out = tmp_path / "rows.csv"
    code, _, err = run_cli(
        capsys, ["sweep", "--config", str(cfg), "--out", str(out)]
    )
    assert code == 1 and "grid cap" in err
    assert not out.exists()


def test_parallel_env_default(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("axes.detuning = list(0.5, 1.0, 1.5) * omega_m1\n")
    out = tmp_path / "rows.csv"
    monkeypatch.setenv("OMN_PARALLEL", "2")
    code, _, _ = run_cli(capsys, ["sweep", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    assert len(out.read_text().strip().split("\n")) == 4

    monkeypatch.setenv("OMN_PARALLEL", "two")
    assert run_cli(capsys, ["sweep", "--config", str(cfg), "--out", str(out)])[0] == 1
    monkeypatch.setenv("OMN_PARALLEL", "0")
    assert run_cli(capsys, ["sweep", "--config", str(cfg), "--out", str(out)])[0] == 1
    # explicit flag beats the environment
    monkeypatch.setenv("OMN_PARALLEL", "two")
    code, _, _ = run_cli(
        capsys,
        ["sweep", "--config", str(cfg), "--out", str(out), "--parallel", "1"],
    )
    assert code == 0


@pytest.mark.parametrize("command", ["sweep", "fig2"])
@pytest.mark.parametrize("flag, env", [("0", None), ("-2", None), (None, "0")])
def test_worker_count_below_one_is_config_error(tmp_path, capsys, monkeypatch, command, flag, env):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("axes.detuning = list(0.5, 1.0) * omega_m1\n")
    out = tmp_path / "rows.csv"
    argv = [command, "--out", str(out)]
    if command == "sweep":
        argv += ["--config", str(cfg)]
    if flag is not None:
        argv += ["--parallel", flag]
    if env is not None:
        monkeypatch.setenv("OMN_PARALLEL", env)
    expected = f"error: parallel must be an integer >= 1, got {flag or env}\n"
    code, _, err = run_cli(capsys, argv)
    assert (code, err) == (1, expected) and not out.exists()
    out.write_text("previous table\n")
    code, _, err = run_cli(capsys, argv)
    assert (code, err) == (1, expected) and out.read_text() == "previous table\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["rows.csv", "run.cfg"]


def test_fig2_row_count(tmp_path, capsys):
    out = tmp_path / "fig2.csv"
    code, _, _ = run_cli(capsys, ["fig2", "--out", str(out), "--parallel", "4"])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 1 + 3 * 401
    assert lines[0] == "coulomb_lambda,detuning," + ",".join(
        ("nbar", "abs_c_s", "q1s", "g_m", "stable", "max_real_part",
         "sigma", "varrho", "log_negativity", "error_code")
    )


@pytest.mark.parametrize("which", ["fig2", "fig5a"])
def test_sweep_on_figure_config_matches_fig_command(tmp_path, capsys, which):
    cfg = tmp_path / f"{which}.cfg"
    cfg.write_text(sweep.FIGURE_CONFIGS[which])
    fig_out = tmp_path / "fig.csv"
    sweep_out = tmp_path / "sweep.csv"
    assert run_cli(capsys, [which, "--out", str(fig_out)])[0] == 0
    assert run_cli(capsys, ["sweep", "--config", str(cfg), "--out", str(sweep_out)])[0] == 0
    assert fig_out.read_bytes() == sweep_out.read_bytes()


def test_critical_temp_success_and_guards(tmp_path, capsys):
    cfg = tmp_path / "crit.cfg"
    cfg.write_text(
        "base.coulomb_lambda_in_omega_m = 0.95\n"
        "base.detuning_in_omega_m = 0.75\n"
        "base.opa_gain = 2e7\n"
        "base.opa_phase = 0.19634954084936207\n"
    )
    code, out, _ = run_cli(
        capsys,
        ["critical-temp", "--config", str(cfg), "--t-hi", "0.064"],
    )
    assert code == 0
    doc = oracles.strict_json(out)
    assert doc["critical_temperature"] == pytest.approx(0.030511, abs=5e-4)

    bare = tmp_path / "bare.cfg"
    bare.write_text("base.power = 0.05\n")
    code, out, _ = run_cli(capsys, ["critical-temp", "--config", str(bare)])
    assert code == 0
    assert oracles.strict_json(out)["error"] == "NoEntanglementAtFloor"

    code, out, _ = run_cli(
        capsys,
        ["critical-temp", "--config", str(cfg), "--t-hi", "0.002"],
    )
    assert code == 0
    assert oracles.strict_json(out)["error"] == "NoDeathBelowCeiling"

    # bad bracket arguments are usage errors, not physics outcomes
    code, _, err = run_cli(
        capsys,
        ["critical-temp", "--config", str(cfg), "--t-lo", "0.1", "--t-hi", "0.05"],
    )
    assert code == 1 and err.startswith("error:")
    # 1e400 parses to inf as well; no search starts and no JSON is printed
    for t_hi in ("inf", "1e400"):
        code, out, err = run_cli(capsys, ["critical-temp", "--config", str(cfg), "--t-hi", t_hi])
        assert code == 1 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1


def test_critical_temp_point_failure_prints_its_name_and_detail(tmp_path, capsys):
    # the pump is above threshold, so the first probe fails; the search
    # reports that failure as a physics outcome, not a usage error
    cfg = tmp_path / "threshold.cfg"
    cfg.write_text("base.opa_gain = 5e7\nbase.detuning = 0\n")
    code, out, err = run_cli(capsys, ["critical-temp", "--config", str(cfg)])
    assert code == 0 and err == ""
    assert out == (
        '{"error": "ThresholdSingularity", "detail": "parametric gain 5e+07 is at or '
        "above the oscillation threshold (kappa^2 + detuning^2 - 4*gain^2 = "
        '-2.23839e+15)"}\n'
    )


def _child_env():
    # A child runs from tmp_path, where a relative PYTHONPATH entry such as
    # "src" resolves to nothing; put the root of the package imported above
    # first, as an absolute path, so the child runs the same code.
    package_root = str(Path(cli.__file__).resolve().parents[1])
    inherited = [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    return dict(os.environ, PYTHONPATH=os.pathsep.join([package_root] + inherited))


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "omneg", "point"],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=_child_env(),
    )
    assert proc.returncode == 0
    doc = oracles.strict_json(proc.stdout)
    assert doc["stability"]["stable"] is True


def test_import_adds_only_stdlib_and_numpy(tmp_path):
    # every command's start-up time is mostly this import. site may load
    # packages of its own (certifi, _distutils_hack), so the modules are
    # counted against the bare interpreter's
    script = ("import sys; bare = set(sys.modules); import omneg; "
              "print(*sorted(set(sys.modules) - bare))")
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=_child_env(),
        check=True,
    )
    added = {name.partition(".")[0] for name in proc.stdout.split()}
    # multiprocessing registers __main__ a second time as __mp_main__
    foreign = added - set(sys.stdlib_module_names) - {"numpy", "omneg", "__mp_main__"}
    assert "omneg" in added and not foreign, foreign
