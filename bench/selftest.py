"""Tests of the benchmark itself (not collected by the package's test run).

    python3 -m pytest -q bench/selftest.py

They show that every named metric is emitted with a unit in quick mode,
that BENCHMARK.json names exactly those metrics, and that the output
checks bite: a flipped error code, a reordered row or a T_c moved by
10*tol each count as failed operations.
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from omneg import cli, params, sweep  # noqa: E402

WORKLOADS = ("figures", "grid_pool", "critical_temp")


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_benchmark_json_names_the_emitted_metrics():
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.per_layer_names(
        tracer.LAYERS
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_quick_mode_emits_every_metric_with_a_unit(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--quick"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    key = "per_layer" if trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in _spec()[key]}
    assert set(result["metrics"]) == set(expected)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == expected[name]
        assert isinstance(metric["value"], (int, float))
    if not trace:
        assert all(result["metrics"][name]["value"] > 0 for name in expected)


def test_missing_package_exits_nonzero_without_result(tmp_path):
    (tmp_path / "bench").mkdir()
    for path in BENCH_DIR.glob("*.py"):
        (tmp_path / "bench" / path.name).write_text(path.read_text(encoding="utf-8"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "figures", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


# ------------------------------------------------------------------ checks


@pytest.fixture(scope="module")
def fig2_text(tmp_path_factory):
    out = tmp_path_factory.mktemp("fig") / "fig2.csv"
    assert cli.main(["fig2", "--out", str(out), "--parallel", "1"]) == 0
    return out.read_text(encoding="utf-8")


def _edit_lines(text, edit):
    lines = text.split("\n")
    edit(lines)
    return "\n".join(lines)


def test_figure_check_passes_reference_output(fig2_text):
    ref = workloads.load_reference()["fig2"]
    drift = workloads.Drift()
    assert workloads.check_figure(fig2_text, ref, drift) == 0
    assert drift.max_abs == 0.0


def test_figure_check_catches_flipped_code(fig2_text):
    ref = workloads.load_reference()["fig2"]

    def flip(lines):
        cells = lines[5].split(",")
        cells[-1] = "5"
        lines[5] = ",".join(cells)

    assert workloads.check_figure(_edit_lines(fig2_text, flip), ref) == 1


def test_figure_check_catches_reordered_rows(fig2_text):
    ref = workloads.load_reference()["fig2"]

    def swap(lines):
        lines[3], lines[4] = lines[4], lines[3]

    assert workloads.check_figure(_edit_lines(fig2_text, swap), ref) == 2


def test_figure_check_tolerance_and_missing_rows(fig2_text):
    ref = workloads.load_reference()["fig2"]
    header, rows = workloads.read_table(fig2_text)
    col = header.index("log_negativity")
    i = next(k for k, r in enumerate(rows) if r[col] not in ("", "0"))

    def nudge(factor):
        def edit(lines):
            cells = lines[i + 1].split(",")
            cells[col] = repr(float(cells[col]) * factor)
            lines[i + 1] = ",".join(cells)
        return edit

    assert workloads.check_figure(_edit_lines(fig2_text, nudge(1 + 1e-9)), ref) == 0
    assert workloads.check_figure(_edit_lines(fig2_text, nudge(1 + 1e-5)), ref) == 1
    truncated = "\n".join(fig2_text.split("\n")[:-4]) + "\n"
    assert workloads.check_figure(truncated, ref) == 3


def _failed_after(call, edit_file=None, edit_stdout=None) -> run.Tally:
    """Run one call through run_pass with its output edited before the check."""
    check = call.check

    def edited_check(rc, stdout):
        if edit_file is not None:
            path = Path(call.out)
            path.write_text(edit_file(path.read_text(encoding="utf-8")), encoding="utf-8")
        return check(rc, edit_stdout(stdout) if edit_stdout else stdout)

    call.check = edited_check
    tally = run.Tally()
    run.run_pass([call], tally)
    return tally


def test_flipped_code_raises_failed_frac(tmp_path):
    fig = workloads.Figures(1, tmp_path, 1, quick=True)
    tally = _failed_after(fig._call("fig2"), edit_file=lambda t: t.replace(",0\n", ",5\n", 1))
    assert tally.attempted == 1203 and tally.failed == 1


def test_grid_check_catches_flipped_code_and_reorder(tmp_path):
    grid = workloads.GridPool(2, tmp_path, 2, quick=True)
    prelude = run.Tally()
    run.run_pass(grid.prelude(), prelude)
    assert prelude.failed == 0 and 0.3 < grid.info["early_exit_share"] < 0.7

    def swap_rows(text):
        lines = text.split("\n")
        lines[1], lines[-2] = lines[-2], lines[1]
        return "\n".join(lines)

    def flip_code(text):
        lines = text.split("\n")
        cells = lines[2].split(",")
        cells[-1] = "6" if cells[-1] != "6" else "0"
        lines[2] = ",".join(cells)
        return "\n".join(lines)

    assert _failed_after(grid.pass_calls()[0]).failed == 0
    assert _failed_after(grid.pass_calls()[0], edit_file=flip_code).failed == 1
    assert _failed_after(grid.pass_calls()[0], edit_file=swap_rows).failed == 2
    # the serial run itself is checked for order and axis values
    verdicts = workloads.check_grid_rows(swap_rows(grid.reference), grid.axes)
    assert sum(not ok for ok in verdicts) == 2


def test_moved_critical_temperature_raises_failed_frac(tmp_path):
    crit = workloads.CriticalTemp(1, tmp_path, 1, quick=True)
    tally = run.Tally()
    run.run_pass(crit.pass_calls(), tally)
    assert tally.failed == 0
    label, path, base = next(
        c for c in crit.configs if crit.outcomes[c[0]] == "critical_temperature"
    )
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(crit._call(label, path, base).argv) == 0
    tc = json.loads(buf.getvalue())["critical_temperature"]
    for shift in (10 * workloads.TOL, -10 * workloads.TOL):
        moved = json.dumps({"critical_temperature": tc + shift})
        tally = _failed_after(crit._call(label, path, base), edit_stdout=lambda _: moved)
        assert tally.attempted == 1 and tally.failed == 1


# ------------------------------------------------------------------- trace


def test_tracer_self_time_and_missing_names(monkeypatch):
    from omneg import smallmat

    monkeypatch.setattr(
        smallmat, "__all__", [n for n in smallmat.__all__ if n != "frob_norm"]
    )
    monkeypatch.setattr(tracer, "LAYERS", tracer.LAYERS + ("no_such_module",))
    tr = tracer.Tracer()
    assert "smallmat.frob_norm" not in tr.names and "smallmat.solve" in tr.names
    tr.install()
    try:
        sweep.evaluate_point(params.reference_params())
    finally:
        tr.uninstall()
    assert smallmat.solve.__name__ == "solve" and not hasattr(smallmat.solve, "__wrapped__")
    agg = tracer.aggregate(tr.spans)
    funcs = agg["functions"]
    assert "smallmat.frob_norm" not in funcs
    assert funcs["sweep.evaluate_point"]["calls"] == 1
    total_self = sum(f["self_s"] for f in funcs.values())
    assert total_self == pytest.approx(agg["root_s"], rel=1e-9)
    assert funcs["dynamics.stability"]["calls"] == 2


def test_tail_needs_ten_samples_beyond():
    assert run.tail(list(range(15))) == (7, 50.0)
    value, pct = run.tail(list(range(41)))
    assert value == 30 and pct == pytest.approx(75.0)
