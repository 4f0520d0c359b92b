"""Parameter sweeps, figure datasets, CSV output, critical temperature."""

from __future__ import annotations

import csv
import dataclasses
import itertools
import math
import multiprocessing
import os
import typing

import numpy as np

from . import dynamics, entanglement, params as params_mod
from .config import MAX_GRID_POINTS, parse_config
from .dynamics import StabilityReport
from .entanglement import EntanglementResult
from .errors import (
    ConfigError,
    ErrorCode,
    InvalidParams,
    NoDeathBelowCeiling,
    NoEntanglementAtFloor,
    PointFailure,
)
from .params import PARAM_NAMES, DerivedQuantities, SystemParams

__all__ = [
    "ErrorCode",
    "Stages",
    "STACK_ROWS",
    "run_stages",
    "PointResult",
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
    bath occupation, None only when validation rejected the point.
    """

    nbar: float | None = None
    derived: DerivedQuantities | None = None
    stability: StabilityReport | None = None
    entanglement: EntanglementResult | None = None
    failure: PointFailure | None = None

    def checked_en(self) -> float:
        """E_N, or the failure of the stage that stopped the run."""
        if self.failure is not None:
            raise self.failure
        return self.entanglement.log_negativity


# rows per stack: stability, the Lyapunov solve and the negativity of up
# to this many points run as one call each, which shares their per-call
# overhead; 32 systems of 36x37 stay near 340 kB
STACK_ROWS = 32


def run_stages(base: SystemParams, overrides) -> list[Stages]:
    """Run the pipeline at base with each override dict applied, one Stages each.

    Stages: validation (``SystemParams(**{**vars(base), **changes})``;
    a rejected point fails with InvalidParams), steady state
    (params.derive), drift and diffusion, stability, steady covariance,
    negativity of its oscillator block. The first PointFailure stops a
    point's run and is kept in its record. Validation, steady state,
    drift and diffusion run point by point; the points that pass them
    go on in stacks of at most STACK_ROWS, in order, and each later
    stage is one stacked call per stack that returns each system's
    output or failure. A point's record is the same whatever other
    points share the call.
    """
    records = []
    pending = []
    for changes in overrides:
        try:
            # vars(base) is exactly its fields; replace walks them per row
            p = SystemParams(**{**vars(base), **changes})
        except ValueError as exc:
            records.append(Stages(failure=InvalidParams(str(exc))))
            continue
        nbar = params_mod.thermal_occupation(p.omega_m1, p.temperature)
        derived = None
        try:
            derived = params_mod.derive(p)
            m = dynamics.build_drift(p, derived.g_m)
            d = dynamics.build_diffusion(p)
        except PointFailure as exc:
            # kept without its traceback, whose frames link back to the
            # caller's local holding this record: a reference cycle per row
            records.append(Stages(nbar, derived, failure=exc.with_traceback(None)))
            continue
        pending.append((len(records), nbar, derived, m, d, p.omega_m1))
        records.append(None)  # filled in when its stack is run
        if len(pending) == STACK_ROWS:
            _run_stack(pending, records)
            pending = []
    if pending:
        _run_stack(pending, records)
    return records


def _run_stack(pending, records) -> None:
    """Stability, covariance and E_N of the pending points, one stacked call each."""
    index, nbar, derived, ms, ds, scales = zip(*pending)
    ms, ds, scales = np.array(ms), np.array(ds), np.array(scales)
    reports = dynamics.stability(ms, scales)
    # each point's latest stage output or failure; an unstable report is no
    # failure yet, so steady_covariance gets its row and returns one
    latest = list(reports)
    stages = (
        lambda rows: dynamics.steady_covariance(ms[rows], ds[rows], scales[rows]),
        lambda rows: entanglement.log_negativity(np.array([latest[j][:4, :4] for j in rows])),
    )
    for stage in stages:
        rows = [j for j, out in enumerate(latest) if not isinstance(out, PointFailure)]
        if rows:
            for j, out in zip(rows, stage(rows)):
                latest[j] = out
    for j, out in enumerate(latest):
        failed = isinstance(out, PointFailure)
        report = reports[j] if isinstance(reports[j], StabilityReport) else None
        records[index[j]] = Stages(nbar[j], derived[j], report,
                                   None if failed else out, out if failed else None)


class PointResult(typing.NamedTuple):
    """Derived columns of one grid point in CSV order; None marks an empty cell."""

    nbar: float | None = None
    abs_c_s: float | None = None
    q1s: float | None = None
    g_m: float | None = None
    stable: bool | None = None
    max_real_part: float | None = None
    sigma: float | None = None
    varrho: float | None = None
    log_negativity: float | None = None
    error_code: int = ErrorCode.OK


CSV_COLUMNS = PointResult._fields


def evaluate_point(p: SystemParams) -> PointResult:
    """Run the pipeline at one operating point and flatten it to a row.

    A failing stage flags the row with its error code and leaves every
    later column empty; columns already computed stay filled.
    """
    return _flatten(run_stages(p, [{}])[0])


def _flatten(stages: Stages) -> PointResult:
    """The CSV row of one point's pipeline record."""
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


def _grid_task(task) -> list[PointResult]:
    """Worker body: evaluate a contiguous run of grid points in order."""
    base, names, combos = task
    return [_flatten(s) for s in run_stages(base, [dict(zip(names, c)) for c in combos])]


def _validate_grid(axes, parallel) -> None:
    for name, values in axes:
        if name not in PARAM_NAMES:
            raise ConfigError(f"unknown axis parameter {name!r}")
        if not values:
            raise ConfigError(f"axis {name!r} has no values")
    size = math.prod(len(values) for _, values in axes)
    if size > MAX_GRID_POINTS:
        raise ConfigError(f"grid of {size} points exceeds the cap of {MAX_GRID_POINTS}")
    if not isinstance(parallel, int) or parallel < 1:
        raise ConfigError(f"parallel must be an integer >= 1, got {parallel!r}")


def run_sweep(base: SystemParams, axes, parallel: int = 1) -> list[PointResult]:
    """Evaluate the grid of axes [(name, values), ...] around base, one result per point.

    The results come in the itertools.product order of the axes (first
    axis slowest) regardless of worker count, and each point is a pure
    function of its parameters, so reruns with different parallelism
    produce identical tables. The pool gets min(parallel, points, CPUs)
    workers and is skipped when that is 1. Points go to run_stages in
    contiguous chunks of at most STACK_ROWS, at least one per worker.
    """
    _validate_grid(axes, parallel)
    names = tuple(name for name, _ in axes)
    combos = list(itertools.product(*(values for _, values in axes)))
    workers = min(parallel, len(combos), os.cpu_count() or 1)
    size = min(STACK_ROWS, -(-len(combos) // workers))
    tasks = [(base, names, combos[i:i + size]) for i in range(0, len(combos), size)]
    if workers > 1:
        with multiprocessing.Pool(workers) as pool:
            chunks = pool.map(_grid_task, tasks)
    else:
        chunks = [_grid_task(t) for t in tasks]
    return list(itertools.chain.from_iterable(chunks))


def _fmt(value) -> str:
    if type(value) is float:
        return f"{value:.17g}"
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(int(value))
    return f"{value:.17g}"


def write_csv(path, axes, results) -> None:
    """Write a grid's results as RFC-4180 CSV: header, 17-digit floats, \\n endings.

    The header is the axis names, then CSV_COLUMNS; each row is one grid
    point's axis values in run_sweep's order, then its result. The table
    is written beside the target and renamed over it, so a failed write
    leaves an existing file untouched and no partial file.
    """
    tmp = f"{path}.{os.urandom(8).hex()}.tmp"
    # 0o666 under the umask: the mode a plain open(path, "w") gives
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow([name for name, _ in axes] + list(CSV_COLUMNS))
            combos = itertools.product(*(values for _, values in axes))
            for combo, result in zip(combos, results, strict=True):
                writer.writerow([_fmt(v) for v in (*combo, *result)])
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


def figure_spec(which: str):
    """(base, axes) of one of the published curve families.

    The grid is ``FIGURE_CONFIGS[which]`` read by ``parse_config``, so
    ``omneg sweep`` on that text writes the same table.
    """
    if which not in FIGURE_CONFIGS:
        raise ConfigError(f"unknown figure {which!r}; expected one of {FIGURE_NAMES}")
    return parse_config(FIGURE_CONFIGS[which])


_COARSE_SCAN_POINTS = 32
# bisection steps whose possible midpoints share one run_stages call: at
# most 2**3 - 1 = 7 temperatures, all with one drift matrix
_BISECTION_LEVELS = 3


def critical_temperature(
    p: SystemParams, t_lo: float, t_hi: float, tol: float
) -> float:
    """Temperature where steady-state E_N falls to zero.

    A 32-point coarse scan over [t_lo, t_hi], one run_stages call,
    brackets the last positive-to-zero crossing, then bisection narrows
    it to width tol or to float resolution, whichever comes first; the
    bracket midpoint comes back. Each later run_stages call evaluates
    every midpoint the next three bisection steps could probe, and the
    steps then read the ones on their path: temperature enters only the
    diffusion, so those rows share one elimination. Raises
    NoEntanglementAtFloor when E_N(t_lo) = 0 and NoDeathBelowCeiling
    when E_N(t_hi) > 0; pipeline failures at any probed temperature
    propagate, and a failure at a midpoint off the path does not. The
    floor is judged first, then the ceiling, then the interior points.
    """
    if not (0.0 < t_lo < t_hi < math.inf):
        raise ValueError(f"need 0 < t_lo < t_hi < inf, got {t_lo}, {t_hi}")
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol}")

    def at(temperatures) -> list[Stages]:
        return run_stages(p, [{"temperature": t} for t in temperatures])

    # linspace returns t_lo and t_hi exactly, so the scan's ends are the guards
    grid = np.linspace(t_lo, t_hi, _COARSE_SCAN_POINTS)
    scan = at(grid.tolist())
    if scan[0].checked_en() <= 0.0:
        raise NoEntanglementAtFloor(
            f"no entanglement at the floor temperature {t_lo} K"
        )
    if scan[-1].checked_en() > 0.0:
        raise NoDeathBelowCeiling(
            f"entanglement survives at the ceiling temperature {t_hi} K"
        )
    values = [stages.checked_en() for stages in scan]
    # values[0] > 0 >= values[-1], so a crossing exists
    for i in range(_COARSE_SCAN_POINTS - 1):
        if values[i] > 0.0 and values[i + 1] <= 0.0:
            lo, hi = float(grid[i]), float(grid[i + 1])
    probed = {}
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break  # lo and hi are adjacent floats
        if mid not in probed:
            levels = _bisection_levels(lo, hi, tol)
            probed = dict(zip(levels, at(levels)))
        if probed[mid].checked_en() > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _bisection_levels(lo: float, hi: float, tol: float) -> list[float]:
    """Every midpoint the next _BISECTION_LEVELS bisection steps from [lo, hi] could probe.

    Level by level, with the bisection's own midpoint and stop tests, so
    the path it takes is among them.
    """
    levels, brackets = [], [(lo, hi)]
    for _ in range(_BISECTION_LEVELS):
        halves = []
        for a, b in brackets:
            mid = 0.5 * (a + b)
            if b - a > tol and a < mid < b:
                levels.append(mid)
                halves += [(a, mid), (mid, b)]
        brackets = halves
    return levels
