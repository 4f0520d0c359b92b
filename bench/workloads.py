"""The three workloads: seeded inputs, CLI calls, and output checks.

A workload is a list of CLI calls (one "pass"). Every call goes through
``omneg.cli.main`` in-process and names the operations it is expected
to produce (rows or one search); its check returns how many of them
failed. Inputs come only from the seed; the program sees only the
generated config files.

figures        the five published datasets, fig2..fig5b at --parallel 1,
               checked against reference arrays from the baseline commit
grid_pool      one seeded two-axis grid at --parallel nproc; about half
               of its rows stop at codes 1, 2 or 5 before the solve;
               checked byte-for-byte against a serial run of the grid
critical_temp  a seeded list of base configs, each through critical-temp;
               each T_c checked by its definition with evaluate_point
"""

from __future__ import annotations

import collections
import csv
import dataclasses
import io
import json
import math
import os
import random
from pathlib import Path

import numpy as np

FIGURES = ("fig2", "fig3", "fig4", "fig5a", "fig5b")
REFERENCE = Path(__file__).resolve().parent / "reference" / "figures.npz"
# log_negativity may drift by EN_ATOL + EN_RTOL * |reference| before a row fails
EN_ATOL = 1e-9
EN_RTOL = 1e-7
# reference mechanical frequency (rad/s); written explicitly into every config
OMEGA_M = 2.0 * math.pi * 1.0e8
KAPPA = 8.81e7
T_LO, T_HI, TOL = 1e-3, 1.0, 1e-5
EARLY_CODES = (1, 2, 5)


@dataclasses.dataclass
class Call:
    """One CLI invocation and how to check what it produced."""

    label: str
    argv: list
    ops: int
    # (exit code, captured stdout) -> number of failed operations
    check: object
    out: str | None = None


def _fmt_list(values) -> str:
    return "list(" + ", ".join(repr(float(v)) for v in values) + ")"


def _write(path: Path, text: str) -> str:
    path.write_text(text, encoding="utf-8")
    return str(path)


def read_table(text: str):
    """(header, rows) of a CSV text; rows are lists of cells."""
    rows = list(csv.reader(io.StringIO(text)))
    if not rows:
        return [], []
    return rows[0], rows[1:]


# ----------------------------------------------------------------- figures


def load_reference(path: Path = REFERENCE) -> dict:
    """{figure: {"header", "axes", "code", "en"}} from the reference file."""
    with np.load(path, allow_pickle=False) as data:
        return {
            name: {
                "header": [str(h) for h in data[f"{name}_header"]],
                "axes": data[f"{name}_axes"],
                "code": data[f"{name}_code"],
                "en": data[f"{name}_en"],
            }
            for name in FIGURES
        }


def table_arrays(text: str) -> dict:
    """Reference arrays (header, axes, code, en) from one figure CSV."""
    header, rows = read_table(text)
    n_axes = header.index("nbar")
    en_col = header.index("log_negativity")
    code_col = header.index("error_code")
    return {
        "header": header,
        "axes": np.array([[float(c) for c in r[:n_axes]] for r in rows], dtype=float),
        "code": np.array([int(r[code_col]) for r in rows], dtype=np.int64),
        "en": np.array(
            [float(r[en_col]) if r[en_col] != "" else math.nan for r in rows],
            dtype=float,
        ),
    }


class Drift:
    """Largest log_negativity deviation from the reference seen so far."""

    def __init__(self):
        self.max_abs = 0.0
        self.max_rel = 0.0

    def update(self, got: float, want: float) -> None:
        diff = abs(got - want)
        self.max_abs = max(self.max_abs, diff)
        if want != 0.0:
            self.max_rel = max(self.max_rel, diff / abs(want))


def check_figure(text: str, ref: dict, drift: Drift | None = None) -> int:
    """Failed rows of one figure CSV against its reference arrays.

    A row fails when its axis values or error code differ from the
    reference row at the same position (so reordered rows fail), when
    its log_negativity is outside EN_ATOL + EN_RTOL * |ref| or empty
    where the reference is not, or when it is missing or surplus.
    """
    expected = len(ref["code"])
    header, rows = read_table(text)
    if header != ref["header"]:
        return expected
    n_axes = header.index("nbar")
    en_col = header.index("log_negativity")
    code_col = header.index("error_code")
    failed = abs(len(rows) - expected)
    for i, row in enumerate(rows[:expected]):
        want_en = float(ref["en"][i])
        try:
            axes_ok = all(
                float(row[j]) == float(ref["axes"][i, j]) for j in range(n_axes)
            )
            code_ok = int(row[code_col]) == int(ref["code"][i])
            cell = row[en_col]
            if math.isnan(want_en):
                en_ok = cell == ""
            else:
                got_en = float(cell)
                if drift is not None:
                    drift.update(got_en, want_en)
                en_ok = got_en == want_en or abs(got_en - want_en) <= (
                    EN_ATOL + EN_RTOL * abs(want_en)
                )
        except (ValueError, IndexError):
            axes_ok = code_ok = en_ok = False
        if not (axes_ok and code_ok and en_ok):
            failed += 1
    return min(failed, expected)


class Figures:
    """fig2..fig5b serially, in a seeded order per pass."""

    name = "figures"

    def __init__(self, seed: int, workdir: Path, workers: int, quick: bool):
        self.rng = random.Random(seed)
        self.workdir = workdir
        self.reference = load_reference()
        # quick mode keeps one plain sweep and one with ceiling probes
        self.names = ("fig2", "fig5a") if quick else FIGURES
        self.drift = Drift()
        self.workers = 1
        self.info = {"rows_per_pass": sum(len(self.reference[n]["code"]) for n in self.names)}

    def _call(self, name: str) -> Call:
        out = str(self.workdir / f"{name}.csv")
        ref = self.reference[name]

        def check(rc, _stdout):
            if rc != 0:
                return len(ref["code"])
            return check_figure(Path(out).read_text(encoding="utf-8"), ref, self.drift)

        return Call(name, [name, "--out", out, "--parallel", "1"], len(ref["code"]), check, out)

    def prelude(self) -> list:
        return []

    def pass_calls(self) -> list:
        order = list(self.names)
        self.rng.shuffle(order)
        return [self._call(name) for name in order]

    def trace_pair(self):
        """The same pass twice: once untraced, once traced."""
        calls = self.pass_calls()
        return calls, calls

    def report(self) -> dict:
        return {
            "max_abs_drift_log_negativity": self.drift.max_abs,
            "max_rel_drift_log_negativity": self.drift.max_rel,
            "tolerance": {"atol": EN_ATOL, "rtol": EN_RTOL},
            **self.info,
        }


# --------------------------------------------------------------- grid_pool


def grid_config(seed: int, quick: bool = False):
    """Config text and axis values of the seeded grid.

    Coulomb couplings at or above omega_m are rejected by validation
    (code 1); detunings from -0.6 to 0.2 omega_m put the pumped cavity
    at threshold (code 2) or the drift matrix unstable (code 5). The
    counts are fixed, so roughly the same share of rows stops before
    the solve on every seed.
    """
    rng = random.Random(seed)
    n_bad, n_lam, n_early, n_det = (2, 6, 3, 6) if quick else (12, 38, 20, 40)
    lam = sorted(
        [rng.uniform(1.0, 1.3) * OMEGA_M for _ in range(n_bad)]
        + [rng.uniform(0.3, 0.97) * OMEGA_M for _ in range(n_lam)]
    )
    det = sorted(
        [rng.uniform(-0.6, 0.2) * OMEGA_M for _ in range(n_early)]
        + [rng.uniform(0.35, 2.0) * OMEGA_M for _ in range(n_det)]
    )
    gain = rng.uniform(5e7, 8e7)
    phase = rng.uniform(0.0, math.pi / 8)
    text = "".join(
        [
            f"base.omega_m1 = {OMEGA_M!r}\n",
            f"base.omega_m2 = {OMEGA_M!r}\n",
            f"base.kappa = {KAPPA!r}\n",
            f"base.opa_gain = {gain!r}\n",
            f"base.opa_phase = {phase!r}\n",
            f"axes.coulomb_lambda = {_fmt_list(lam)}\n",
            f"axes.detuning = {_fmt_list(det)}\n",
        ]
    )
    return text, (("coulomb_lambda", lam), ("detuning", det))


def check_grid_rows(text: str, axes) -> list:
    """Per-row verdicts for a grid CSV: order, axis values, codes, E_N.

    Rows must follow the cartesian order of the axes (first slowest),
    carry an error code 0..7, and every code-0 row a finite E_N >= 0.
    """
    names = [name for name, _ in axes]
    combos = [(a, b) for a in axes[0][1] for b in axes[1][1]]
    header, rows = read_table(text)
    if header[: len(names)] != names or "log_negativity" not in header:
        return [False] * len(combos)
    en_col = header.index("log_negativity")
    code_col = header.index("error_code")
    verdicts = []
    for combo, row in zip(combos, rows):
        try:
            ok = tuple(float(c) for c in row[: len(names)]) == combo
            code = int(row[code_col])
            ok = ok and 0 <= code <= 7
            if ok and code == 0:
                en = float(row[en_col])
                ok = math.isfinite(en) and en >= 0.0
        except (ValueError, IndexError):
            ok = False
        verdicts.append(ok)
    verdicts.extend([False] * (len(combos) - len(verdicts)))
    return verdicts


def compare_lines(reference: str, text: str, verdicts) -> int:
    """Failed rows: lines differing from the serial reference, or bad rows."""
    ref_lines = reference.split("\n")[1:-1]
    lines = text.split("\n")[1:-1]
    if text.split("\n", 1)[0] != reference.split("\n", 1)[0]:
        return len(verdicts)
    failed = sum(
        1
        for i, ok in enumerate(verdicts)
        if not ok or i >= len(lines) or i >= len(ref_lines) or lines[i] != ref_lines[i]
    )
    failed += max(0, len(lines) - len(verdicts))
    return min(failed, len(verdicts))


class GridPool:
    """One seeded grid through `omneg sweep --parallel <workers>`."""

    name = "grid_pool"

    def __init__(self, seed: int, workdir: Path, workers: int, quick: bool):
        self.workdir = workdir
        self.workers = workers
        text, self.axes = grid_config(seed, quick)
        self.config = _write(workdir / "grid.cfg", text)
        self.rows = len(self.axes[0][1]) * len(self.axes[1][1])
        # until the serial prelude has run, every row counts as failed
        self.reference = ""
        self.verdicts = [False] * self.rows
        self.info = {"rows_per_pass": self.rows, "workers": workers}

    def _call(self, label: str, workers: int) -> Call:
        out = str(self.workdir / f"{label}.csv")

        def check(rc, _stdout):
            if rc != 0:
                return self.rows
            text = Path(out).read_text(encoding="utf-8")
            return compare_lines(self.reference, text, self.verdicts)

        argv = ["sweep", "--config", self.config, "--out", out, "--parallel", str(workers)]
        return Call(label, argv, self.rows, check, out)

    def prelude(self) -> list:
        """The serial run that every later pass must reproduce byte for byte."""
        call = self._call("serial", 1)

        def check(rc, _stdout):
            self.reference = Path(call.out).read_text(encoding="utf-8") if rc == 0 else ""
            self.verdicts = check_grid_rows(self.reference, self.axes)
            codes = collections.Counter(row[-1] for row in read_table(self.reference)[1])
            early = sum(codes.get(str(c), 0) for c in EARLY_CODES)
            self.info["error_codes"] = dict(sorted(codes.items()))
            self.info["early_exit_share"] = early / self.rows
            return sum(not ok for ok in self.verdicts)

        call.check = check
        return [call]

    def pass_calls(self) -> list:
        return [self._call("parallel", self.workers)]

    def trace_pair(self):
        # spans made in pool workers are lost, so only the serial half is traced
        return [self._call("serial-untraced", 1)], [self._call("serial-traced", 1)]

    def report(self) -> dict:
        return dict(self.info)


# ----------------------------------------------------------- critical_temp


def search_configs(seed: int, quick: bool = False) -> list:
    """Seeded base configs as {name: value}; values are absolute SI/rad/s.

    Most draws sit where entanglement exists at 1 mK and dies below
    1 K, so the search runs its full scan and bisection. Two configs
    have no Coulomb coupling (no entanglement at the floor) and two a
    pump above threshold (a point failure at the first probe).
    """
    rng = random.Random(seed)
    n_full, n_floor, n_threshold = (3, 1, 1) if quick else (36, 2, 2)
    configs = []
    for kind in ["full"] * n_full + ["floor"] * n_floor + ["threshold"] * n_threshold:
        detuning = rng.uniform(0.6, 1.0) * OMEGA_M
        cfg = {
            "omega_m1": OMEGA_M,
            "omega_m2": OMEGA_M,
            "kappa": KAPPA,
            "coulomb_lambda": rng.uniform(0.85, 0.98) * OMEGA_M,
            "detuning": detuning,
            "opa_gain": rng.uniform(0.0, 3e7),
            "opa_phase": rng.uniform(0.0, math.pi / 8),
            "power": rng.uniform(0.03, 0.1),
        }
        if kind == "floor":
            cfg["coulomb_lambda"] = 0.0
        elif kind == "threshold":
            cfg["opa_gain"] = 0.6 * math.hypot(KAPPA, detuning)
        configs.append(cfg)
    rng.shuffle(configs)
    return configs


def check_search(base, stdout: str, evaluate):
    """(ok, outcome) for one critical-temp output, checked by definition.

    A returned T_c needs E_N(T_c - TOL) > 0 and E_N(T_c + TOL) = 0; a
    NoEntanglementAtFloor needs E_N(t_lo) = 0; a NoDeathBelowCeiling
    needs E_N(t_hi) > 0; any other error needs a failing point code at
    t_lo. `evaluate` maps a SystemParams to an evaluate_point result.
    """

    def at(temperature):
        return evaluate(dataclasses.replace(base, temperature=temperature))

    def entangled(result):
        return result.error_code == 0 and result.log_negativity > 0.0

    def dead(result):
        return result.error_code == 0 and result.log_negativity == 0.0

    try:
        out = json.loads(stdout)
    except ValueError:
        return False, "unparsable"
    if "critical_temperature" in out:
        tc = out["critical_temperature"]
        if not isinstance(tc, float) or not (T_LO < tc < T_HI):
            return False, "critical_temperature"
        return entangled(at(tc - TOL)) and dead(at(tc + TOL)), "critical_temperature"
    error = out.get("error")
    if error == "NoEntanglementAtFloor":
        return dead(at(T_LO)), error
    if error == "NoDeathBelowCeiling":
        return entangled(at(T_HI)), error
    if isinstance(error, str):
        return at(T_LO).error_code != 0, error
    return False, "unparsable"


class CriticalTemp:
    """`omneg critical-temp` on each seeded config, one call per search."""

    name = "critical_temp"

    def __init__(self, seed: int, workdir: Path, workers: int, quick: bool):
        from omneg import config, sweep

        self.evaluate = sweep.evaluate_point
        self.configs = []
        for i, cfg in enumerate(search_configs(seed, quick)):
            text = "".join(f"base.{k} = {v!r}\n" for k, v in cfg.items())
            path = _write(workdir / f"search-{i:02d}.cfg", text)
            self.configs.append((f"search-{i:02d}", path, config.load_config(path)[0]))
        self.outcomes = {}
        self.workers = 1
        self.info = {"searches_per_pass": len(self.configs)}

    def _call(self, label, path, base) -> Call:
        def check(rc, stdout):
            if rc != 0:
                return 1
            ok, outcome = check_search(base, stdout, self.evaluate)
            self.outcomes[label] = outcome
            return 0 if ok else 1

        argv = [
            "critical-temp", "--config", path,
            "--t-lo", repr(T_LO), "--t-hi", repr(T_HI), "--tol", repr(TOL),
        ]
        return Call(label, argv, 1, check)

    def prelude(self) -> list:
        return []

    def pass_calls(self) -> list:
        return [self._call(*entry) for entry in self.configs]

    def trace_pair(self):
        calls = self.pass_calls()
        return calls, calls

    def report(self) -> dict:
        mix = collections.Counter(self.outcomes.values())
        return {**self.info, "outcome_mix": dict(sorted(mix.items()))}


WORKLOADS = {cls.name: cls for cls in (Figures, GridPool, CriticalTemp)}


def nproc() -> int:
    return len(os.sched_getaffinity(0))
