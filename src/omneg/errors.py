"""Exception types shared across the package, per-row error codes, and unstack."""

import enum

__all__ = [
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
    "unstack",
]


class ErrorCode(enum.IntEnum):
    """Per-row outcome; nonzero rows carry empty entanglement columns."""

    OK = 0
    INVALID_PARAMS = 1
    THRESHOLD_SINGULARITY = 2
    DEGENERATE_NORMAL_MODE = 3
    EIGEN_FAILURE = 4
    UNSTABLE = 5
    SINGULAR_SOLVE = 6
    NONPHYSICAL_STATE = 7


class OmnegError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(OmnegError):
    """A config file or CLI argument violates the documented schema."""


class PointFailure(OmnegError):
    """Base for failures tied to a single parameter point.

    The sweep engine records these in the output row instead of aborting;
    each subclass carries the ErrorCode its row gets.
    """

    code: ErrorCode


class InvalidParams(PointFailure):
    """The point's parameters fail SystemParams validation."""

    code = ErrorCode.INVALID_PARAMS


class ThresholdSingularity(PointFailure):
    """Operation at or above the OPA parametric threshold.

    The linear steady state diverges when kappa^2 + Delta^2 - 4 C_g^2
    falls to (or below) zero.
    """

    code = ErrorCode.THRESHOLD_SINGULARITY


class DegenerateNormalMode(PointFailure):
    """omega_m1 - lambda^2 / omega_m2 <= 0.

    The Coulomb term leaves mode 1 no restoring force, so the static
    displacements are undefined; no steady state exists.
    """

    code = ErrorCode.DEGENERATE_NORMAL_MODE


class UnstableSystem(PointFailure):
    """The drift matrix has an eigenvalue at or beyond the stability margin."""

    code = ErrorCode.UNSTABLE


class SingularSolve(PointFailure):
    """A linear solve met a pivot below the singularity threshold."""

    code = ErrorCode.SINGULAR_SOLVE


class EigenFailure(PointFailure):
    """The eigenvalue iteration did not converge."""

    code = ErrorCode.EIGEN_FAILURE


class NonPhysicalState(PointFailure):
    """The reduced matrix is not a valid two-mode covariance matrix."""

    code = ErrorCode.NONPHYSICAL_STATE


def unstack(entries):
    """The one entry of a B = 1 stacked stage call; a PointFailure is raised."""
    (entry,) = entries
    if isinstance(entry, PointFailure):
        raise entry
    return entry


class NoEntanglementAtFloor(OmnegError):
    """Critical-temperature scan found no entanglement at its lower bound."""


class NoDeathBelowCeiling(OmnegError):
    """Entanglement persists at the scan's upper temperature bound."""
