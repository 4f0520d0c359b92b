"""Parameter sweeps, figure datasets, CSV output, critical temperature."""

from __future__ import annotations

import csv
import dataclasses
import itertools
import math
import multiprocessing
import os

import numpy as np

from . import dynamics, entanglement, params as params_mod
from .config import MAX_GRID_POINTS, PARAM_NAMES, parse_config
from .dynamics import StabilityReport
from .entanglement import EntanglementResult
from .errors import (
    ConfigError,
    ErrorCode,
    NoDeathBelowCeiling,
    NoEntanglementAtFloor,
    PointFailure,
)
from .params import DerivedQuantities, SystemParams

__all__ = [
    "ErrorCode",
    "Stages",
    "run_stages",
    "PointResult",
    "SweepRow",
    "SweepSpec",
    "CSV_COLUMNS",
    "evaluate_point",
    "run_sweep",
    "write_csv",
    "figure_spec",
    "FIGURE_NAMES",
    "FIGURE_CONFIGS",
    "critical_temperature",
]


@dataclasses.dataclass(frozen=True)
class Stages:
    """Output of every pipeline stage at one point.

    A failing stage leaves its own field and every later one None and
    records its exception in ``failure``. ``nbar`` is oscillator 1's
    bath occupation, which no stage can fail to produce.
    """

    nbar: float
    derived: DerivedQuantities | None = None
    stability: StabilityReport | None = None
    entanglement: EntanglementResult | None = None
    failure: PointFailure | None = None

    def checked_en(self) -> float:
        """E_N, or the failure of the stage that stopped the run."""
        if self.failure is not None:
            raise self.failure
        return self.entanglement.log_negativity


def run_stages(p: SystemParams) -> Stages:
    """Run the pipeline once at one operating point.

    Stages: steady state (params.derive), drift and diffusion,
    stability, steady covariance, negativity of its oscillator block.
    The first PointFailure stops the run and is kept in the record.
    """
    nbar = params_mod.thermal_occupation(p.omega_m1, p.temperature)
    derived = report = ent = None
    try:
        derived = params_mod.derive(p)
        m = dynamics.build_drift(p, derived.g_m)
        d = dynamics.build_diffusion(p)
        report = dynamics.stability(m, omega_scale=p.omega_m1)
        report.require_stable()
        v = dynamics.steady_covariance(m, d, omega_scale=p.omega_m1)
        ent = entanglement.log_negativity(v[:4, :4])
    except PointFailure as exc:
        # kept without its traceback, whose frames link back to the
        # caller's local holding this record: a reference cycle per row
        return Stages(nbar, derived, report, ent, failure=exc.with_traceback(None))
    return Stages(nbar, derived, report, ent)


@dataclasses.dataclass(frozen=True)
class PointResult:
    """Derived columns of one grid point; None marks an empty CSV cell."""

    error_code: int
    nbar: float | None = None
    abs_c_s: float | None = None
    q1s: float | None = None
    g_m: float | None = None
    stable: bool | None = None
    max_real_part: float | None = None
    sigma: float | None = None
    varrho: float | None = None
    log_negativity: float | None = None


@dataclasses.dataclass(frozen=True)
class SweepRow:
    """One grid point: swept axis values plus the evaluated columns."""

    axis_values: tuple[float, ...]
    result: PointResult


@dataclasses.dataclass(frozen=True)
class SweepSpec:
    """A grid to evaluate: base point, ordered axes, output, workers."""

    base: SystemParams
    axes: tuple[tuple[str, tuple[float, ...]], ...]
    output_path: str | None = None
    parallel: int = 1


CSV_COLUMNS = (
    "nbar",
    "abs_c_s",
    "q1s",
    "g_m",
    "stable",
    "max_real_part",
    "sigma",
    "varrho",
    "log_negativity",
    "error_code",
)


def evaluate_point(p: SystemParams) -> PointResult:
    """Run the pipeline at one operating point and flatten it to a row.

    A failing stage flags the row with its error code and leaves every
    later column empty; columns already computed stay filled.
    """
    stages = run_stages(p)
    cols = {"nbar": stages.nbar}
    if stages.derived is not None:
        cols.update(
            abs_c_s=abs(stages.derived.c_s),
            q1s=stages.derived.q1s,
            g_m=stages.derived.g_m,
        )
    if stages.stability is not None:
        cols.update(
            stable=stages.stability.stable,
            max_real_part=stages.stability.max_real_part,
        )
    if stages.entanglement is not None:
        cols.update(
            sigma=stages.entanglement.sigma,
            varrho=stages.entanglement.varrho,
            log_negativity=stages.entanglement.log_negativity,
        )
    code = ErrorCode.OK if stages.failure is None else stages.failure.code
    return PointResult(error_code=code, **cols)


def _grid_task(task) -> PointResult:
    """Worker body: apply one grid point's overrides and evaluate."""
    base, items = task
    try:
        point = dataclasses.replace(base, **dict(items))
    except ValueError:
        return PointResult(error_code=ErrorCode.INVALID_PARAMS)
    return evaluate_point(point)


def _validate_spec(spec: SweepSpec) -> None:
    for name, values in spec.axes:
        if name not in PARAM_NAMES:
            raise ConfigError(f"unknown axis parameter {name!r}")
        if not values:
            raise ConfigError(f"axis {name!r} has no values")
    size = math.prod(len(values) for _, values in spec.axes)
    if size > MAX_GRID_POINTS:
        raise ConfigError(f"grid of {size} points exceeds the cap of {MAX_GRID_POINTS}")
    if not isinstance(spec.parallel, int) or spec.parallel < 1:
        raise ConfigError(f"parallel must be an integer >= 1, got {spec.parallel!r}")


def run_sweep(spec: SweepSpec) -> list[SweepRow]:
    """Evaluate the grid in lexicographic axis order and return its rows.

    The row order is the itertools.product order of the axes (first
    axis slowest) regardless of worker count, and each point is a pure
    function of its parameters, so reruns with different parallelism
    produce identical tables. The pool gets min(parallel, rows, CPUs)
    workers and is skipped when that is 1. With output_path set the
    table is also written as CSV; I/O failures propagate as OSError.
    """
    _validate_spec(spec)
    names = tuple(name for name, _ in spec.axes)
    combos = list(itertools.product(*(values for _, values in spec.axes)))
    tasks = [(spec.base, tuple(zip(names, combo))) for combo in combos]
    workers = min(spec.parallel, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        with multiprocessing.Pool(workers) as pool:
            results = pool.map(_grid_task, tasks)
    else:
        results = [_grid_task(t) for t in tasks]
    rows = [
        SweepRow(axis_values=tuple(combo), result=res)
        for combo, res in zip(combos, results)
    ]
    if spec.output_path is not None:
        write_csv(spec.output_path, names, rows)
    return rows


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(int(value))
    return f"{value:.17g}"


def write_csv(path, axis_names, rows) -> None:
    """Write rows as RFC-4180 CSV: header, 17-digit floats, \\n endings.

    The table is written beside the target and renamed over it, so a
    failed write leaves an existing file untouched and no partial file.
    """
    tmp = f"{path}.{os.urandom(8).hex()}.tmp"
    # 0o666 under the umask: the mode a plain open(path, "w") gives
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(list(axis_names) + list(CSV_COLUMNS))
            for row in rows:
                writer.writerow(
                    [_fmt(v) for v in row.axis_values]
                    + [_fmt(getattr(row.result, name)) for name in CSV_COLUMNS]
                )
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


# Each published curve family as a config text (docs/config.md). A fig5
# temperature axis ends at the lowest doubling of 8 mK at which all four
# drive powers give E_N = 0, so it brackets every power's entanglement death.
FIGURE_CONFIGS = {
    "fig2": """
        # Coulomb coupling families, pump off
        axes.coulomb_lambda = list(0.3, 0.5, 0.95) * omega_m1
        axes.detuning = linspace(0, 2, 401) * omega_m1
    """,
    "fig3": """
        # pump gain families at theta = 0
        base.coulomb_lambda_in_omega_m = 0.95
        base.opa_phase = 0
        axes.opa_gain = list(0, 2e7, 5e7, 8e7, 10e7, 12e7)
        axes.detuning = linspace(0, 2, 401) * omega_m1
    """,
    "fig4": """
        # pump phase families (0, pi/16, pi/6, pi/4) at the strongest fig3 gain
        base.coulomb_lambda_in_omega_m = 0.95
        base.opa_gain = 12e7
        axes.opa_phase = list(0, 0.19634954084936207, 0.5235987755982988, 0.7853981633974483)
        axes.detuning = linspace(0, 2, 401) * omega_m1
    """,
    "fig5a": """
        # drive power against temperature at gain 2e7, theta = pi/16
        base.coulomb_lambda_in_omega_m = 0.95
        base.detuning_in_omega_m = 0.75
        base.opa_phase = 0.19634954084936207
        base.opa_gain = 2e7
        axes.power = list(0.03, 0.05, 0.08, 0.10)
        axes.temperature = linspace(1e-3, 0.064, 201)
    """,
    "fig5b": """
        # drive power against temperature at gain 8e7, theta = pi/16
        base.coulomb_lambda_in_omega_m = 0.95
        base.detuning_in_omega_m = 0.75
        base.opa_phase = 0.19634954084936207
        base.opa_gain = 8e7
        axes.power = list(0.03, 0.05, 0.08, 0.10)
        axes.temperature = linspace(1e-3, 0.128, 201)
    """,
}
FIGURE_NAMES = tuple(FIGURE_CONFIGS)


def figure_spec(which: str, parallel: int = 1, output_path=None) -> SweepSpec:
    """SweepSpec for one of the published curve families.

    The grid is ``FIGURE_CONFIGS[which]`` read by ``parse_config``, so
    ``omneg sweep`` on that text writes the same table.
    """
    if which not in FIGURE_CONFIGS:
        raise ConfigError(f"unknown figure {which!r}; expected one of {FIGURE_NAMES}")
    base, axes = parse_config(FIGURE_CONFIGS[which])
    return SweepSpec(
        base=base, axes=tuple(axes), output_path=output_path, parallel=parallel
    )


_COARSE_SCAN_POINTS = 32


def critical_temperature(
    p: SystemParams, t_lo: float, t_hi: float, tol: float
) -> float:
    """Temperature where steady-state E_N falls to zero.

    A 32-point coarse scan over [t_lo, t_hi] brackets the last
    positive-to-zero crossing, then bisection narrows it to width tol
    or to float resolution, whichever comes first; the bracket midpoint
    comes back. Raises NoEntanglementAtFloor when
    E_N(t_lo) = 0 and NoDeathBelowCeiling when E_N(t_hi) > 0; pipeline
    failures at any probed temperature propagate.
    """
    if not (0.0 < t_lo < t_hi):
        raise ValueError(f"need 0 < t_lo < t_hi, got {t_lo}, {t_hi}")
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol}")

    def en_at(temperature: float) -> float:
        return run_stages(
            dataclasses.replace(p, temperature=temperature)
        ).checked_en()

    en_lo = en_at(t_lo)
    if en_lo <= 0.0:
        raise NoEntanglementAtFloor(
            f"no entanglement at the floor temperature {t_lo} K"
        )
    en_hi = en_at(t_hi)
    if en_hi > 0.0:
        raise NoDeathBelowCeiling(
            f"entanglement survives at the ceiling temperature {t_hi} K"
        )
    # linspace returns t_lo and t_hi exactly, so the guards' values end the scan
    grid = np.linspace(t_lo, t_hi, _COARSE_SCAN_POINTS)
    values = [en_lo, *(en_at(float(t)) for t in grid[1:-1]), en_hi]
    # values[0] > 0 >= values[-1], so a crossing exists
    for i in range(_COARSE_SCAN_POINTS - 1):
        if values[i] > 0.0 and values[i + 1] <= 0.0:
            lo, hi = float(grid[i]), float(grid[i + 1])
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break  # lo and hi are adjacent floats
        if en_at(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
