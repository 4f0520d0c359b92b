"""Steady-state entanglement of Coulomb-coupled oscillators in a pumped cavity.

The pipeline runs parameter validation -> params.derive (the classical
steady state) -> dynamics -> entanglement and is stated once, in
``sweep.run_stages(base, overrides)``: for each override dict it
returns every stage's output plus the failure that stopped it, running
the points' stability tests, Lyapunov solves and negativities in
stacks. ``evaluate_point`` (the CSV row), grid sweeps, the ``point``
command and ``critical_temperature`` all read that record; cli fronts
everything from the command line. All frequencies and rates are
angular (rad/s); vacuum variance is 1/2.

The package root exports the library entry points, the parameter
record, the error codes and the exceptions; every other name
is imported from its submodule.
"""

from .dynamics import build_diffusion, build_drift, steady_covariance
from .entanglement import log_negativity
from .errors import (
    ConfigError,
    DegenerateNormalMode,
    ErrorCode,
    EigenFailure,
    InvalidParams,
    NoDeathBelowCeiling,
    NoEntanglementAtFloor,
    NonPhysicalState,
    OmnegError,
    PointFailure,
    SingularSolve,
    ThresholdSingularity,
    UnstableSystem,
)
from .params import SystemParams, derive, reference_params
from .sweep import critical_temperature, figure_spec, run_sweep

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "SystemParams",
    "reference_params",
    "derive",
    "build_drift",
    "build_diffusion",
    "steady_covariance",
    "log_negativity",
    "run_sweep",
    "figure_spec",
    "critical_temperature",
    "ErrorCode",
    "OmnegError",
    "ConfigError",
    "PointFailure",
    "InvalidParams",
    "ThresholdSingularity",
    "DegenerateNormalMode",
    "UnstableSystem",
    "SingularSolve",
    "EigenFailure",
    "NonPhysicalState",
    "NoEntanglementAtFloor",
    "NoDeathBelowCeiling",
]
