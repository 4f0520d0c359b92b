"""Steady-state entanglement of Coulomb-coupled oscillators in a pumped cavity.

The pipeline runs params -> steady_state -> dynamics -> entanglement
and is stated once, in ``sweep.run_stages``: it returns every stage's
output plus the failure that stopped it. ``evaluate_point`` (the CSV
row), the ``point`` command, ``critical_temperature`` and the fig5
temperature ceiling all read that record; cli fronts everything from
the command line. All frequencies and rates are angular (rad/s);
vacuum variance is 1/2.
"""

from .config import load_config, parse_config
from .dynamics import (
    StabilityReport,
    build_diffusion,
    build_drift,
    evolve_covariance,
    stability,
    steady_covariance,
)
from .entanglement import (
    EntanglementResult,
    ReducedCovariance,
    log_negativity,
    reduce_mechanical,
)
from .errors import (
    ConfigError,
    DegenerateNormalMode,
    ErrorCode,
    EigenFailure,
    NoDeathBelowCeiling,
    NoEntanglementAtFloor,
    NonPhysicalState,
    OmnegError,
    PointFailure,
    SingularSolve,
    StepTooLarge,
    ThresholdSingularity,
    UnstableSystem,
)
from .params import (
    CONSTANTS,
    DerivedQuantities,
    SystemParams,
    coulomb_strength,
    derive,
    drive_amplitude,
    reference_params,
    single_photon_coupling,
    thermal_occupation,
)
from .steady_state import cavity_amplitude, displacements, effective_coupling
from .sweep import (
    CSV_COLUMNS,
    FIGURE_NAMES,
    PointResult,
    Stages,
    SweepRow,
    SweepSpec,
    critical_temperature,
    evaluate_point,
    figure_dataset,
    figure_spec,
    run_stages,
    run_sweep,
    write_csv,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "CONSTANTS",
    "SystemParams",
    "DerivedQuantities",
    "reference_params",
    "derive",
    "thermal_occupation",
    "drive_amplitude",
    "single_photon_coupling",
    "coulomb_strength",
    "cavity_amplitude",
    "displacements",
    "effective_coupling",
    "build_drift",
    "build_diffusion",
    "StabilityReport",
    "stability",
    "steady_covariance",
    "evolve_covariance",
    "ReducedCovariance",
    "EntanglementResult",
    "reduce_mechanical",
    "log_negativity",
    "parse_config",
    "load_config",
    "ErrorCode",
    "Stages",
    "run_stages",
    "PointResult",
    "SweepRow",
    "SweepSpec",
    "CSV_COLUMNS",
    "FIGURE_NAMES",
    "evaluate_point",
    "run_sweep",
    "write_csv",
    "figure_spec",
    "figure_dataset",
    "critical_temperature",
    "OmnegError",
    "ConfigError",
    "PointFailure",
    "ThresholdSingularity",
    "DegenerateNormalMode",
    "UnstableSystem",
    "SingularSolve",
    "EigenFailure",
    "NonPhysicalState",
    "StepTooLarge",
    "NoEntanglementAtFloor",
    "NoDeathBelowCeiling",
]
