"""Command line front end.

Exit codes: 0 on success (including runs whose physics fails at some
grid point; those land in rows or in the JSON ``error`` field), 1 on
ConfigError, 2 on I/O failure. ``OMN_PARALLEL`` supplies the default
worker count when ``--parallel`` is absent. JSON output is strict
RFC 8259: a non-finite float is the string "inf", "-inf" or "nan".
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys

from . import config, params as params_mod, sweep
from .errors import (
    ConfigError,
    NoDeathBelowCeiling,
    NoEntanglementAtFloor,
    PointFailure,
)

__all__ = ["main", "build_parser"]


class _Parser(argparse.ArgumentParser):
    # argparse exits with its own code 2 on bad usage; route through
    # ConfigError so usage problems land on exit code 1
    def error(self, message):
        raise ConfigError(message)


_PARALLEL_HELP = "worker count (default 1; at most the CPU count and the row count)"


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="omneg",
        description=(
            "Steady-state entanglement of two Coulomb-coupled oscillators "
            "in a parametrically pumped cavity: single points, parameter "
            "sweeps, published curve families, critical temperatures."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    point = sub.add_parser(
        "point", help="evaluate one operating point and print JSON"
    )
    point.add_argument("--config", help="config file (base.* keys only)")
    point.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="NAME=VALUE",
        help="override one parameter (repeatable; last repeat wins)",
    )
    point.set_defaults(func=_cmd_point)

    swp = sub.add_parser("sweep", help="run a config-defined grid to CSV")
    swp.add_argument("--config", required=True, help="config file")
    swp.add_argument("--out", required=True, help="output CSV path")
    swp.add_argument("--parallel", type=int, help=_PARALLEL_HELP)
    swp.set_defaults(func=_cmd_grid)

    for name in sweep.FIGURE_NAMES:
        fig = sub.add_parser(name, help=f"emit the {name} curve family as CSV")
        fig.add_argument("--out", required=True, help="output CSV path")
        fig.add_argument("--parallel", type=int, help=_PARALLEL_HELP)
        fig.set_defaults(func=_cmd_grid)

    crit = sub.add_parser(
        "critical-temp", help="locate the entanglement death temperature"
    )
    crit.add_argument("--config", required=True, help="config file (base.* keys only)")
    crit.add_argument("--t-lo", type=float, default=1e-3, help="floor in K")
    crit.add_argument("--t-hi", type=float, default=1.0, help="ceiling in K")
    crit.add_argument(
        "--tol",
        type=float,
        default=1e-5,
        help="bracket width in K; bisection also stops at float resolution",
    )
    crit.set_defaults(func=_cmd_critical)
    return parser


def _workers(args) -> int:
    n = getattr(args, "parallel", None)
    if n is None:
        env = os.environ.get("OMN_PARALLEL")
        if env is None:
            return 1
        try:
            n = int(env)
        except ValueError:
            raise ConfigError(f"OMN_PARALLEL must be an integer, got {env!r}")
    if n < 1:
        raise ConfigError(f"worker count must be >= 1, got {n}")
    return n


def _load_point_config(path) -> params_mod.SystemParams:
    if path is None:
        return params_mod.reference_params()
    base, axes = config.load_config(path)
    if axes:
        raise ConfigError("this command takes base.* keys only, not axes.*")
    return base


def _cmd_point(args) -> int:
    point = config.apply_overrides(_load_point_config(args.config), args.set)
    (stages,) = sweep.run_stages(point, [{}])
    out = {
        "params": dataclasses.asdict(point),
        "derived": None,
        "stability": None,
        "entanglement": None,
        "error": None,
    }
    if stages.derived is not None:
        out["derived"] = dataclasses.asdict(stages.derived)
    if stages.stability is not None:
        out["stability"] = {
            "stable": stages.stability.stable,
            "max_real_part": stages.stability.max_real_part,
            "eigenvalues": [[z.real, z.imag] for z in stages.stability.eigenvalues],
        }
    if stages.entanglement is not None:
        out["entanglement"] = dataclasses.asdict(stages.entanglement)
    if stages.failure is not None:
        out["error"] = {
            "name": type(stages.failure).__name__,
            "detail": str(stages.failure),
        }
    print(json.dumps(_finite_json(out), indent=2, allow_nan=False))
    return 0


def _finite_json(value):
    """value with each non-finite float spelled as in the CSV: inf, -inf or nan."""
    if isinstance(value, dict):
        return {k: _finite_json(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_finite_json(v) for v in value]
    return f"{value:.17g}" if isinstance(value, float) and not math.isfinite(value) else value


def _cmd_grid(args) -> int:
    if args.command == "sweep":
        base, axes = config.load_config(args.config)
    else:
        base, axes = sweep.figure_spec(args.command)
    sweep.write_csv(args.out, axes, sweep.run_sweep(base, axes, _workers(args)))
    return 0


def _cmd_critical(args) -> int:
    base = _load_point_config(args.config)
    try:
        critical = sweep.critical_temperature(base, args.t_lo, args.t_hi, args.tol)
    except (NoEntanglementAtFloor, NoDeathBelowCeiling) as exc:
        print(json.dumps({"error": type(exc).__name__}))
        return 0
    except PointFailure as exc:
        print(json.dumps({"error": type(exc).__name__, "detail": str(exc)}))
        return 0
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    print(json.dumps({"critical_temperature": critical}))
    return 0


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2
