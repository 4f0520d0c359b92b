"""Linearized fluctuation dynamics: drift, diffusion, stability, covariance.

Quadrature ordering is (dq1, dp1, dq2, dp2, dX, dY): oscillator 1,
oscillator 2, then the cavity amplitude and phase quadratures. Vacuum
variance is 1/2 in these units.
"""

from __future__ import annotations

import copy
import dataclasses
import math

import numpy as np

from . import smallmat
from .errors import EigenFailure, SingularSolve, UnstableSystem, unstack
from .params import thermal_occupation

__all__ = [
    "STABILITY_EPS_FRACTION",
    "RESIDUAL_RTOL",
    "build_drift",
    "build_diffusion",
    "StabilityReport",
    "stability",
    "steady_covariance",
]

# stability margin is STABILITY_EPS_FRACTION * omega_scale; must stay well
# below gamma_m/omega_m ~ 1e-6, the slowest genuine decay of a bare oscillator
STABILITY_EPS_FRACTION = 1e-9
# Lyapunov residual tolerance relative to ||D||_F
RESIDUAL_RTOL = 1e-9


def build_drift(params, g_m: float) -> np.ndarray:
    """Drift matrix of the linearized Langevin system.

    Rows follow the (dq1, dp1, dq2, dp2, dX, dY) ordering. The pump
    phase enters through cos/sin only, so it is reduced to (-pi, pi]
    first; that keeps the matrix exactly periodic in increments of
    2*pi whenever theta + 2*pi is representable.
    """
    theta = math.remainder(params.opa_phase, 2.0 * math.pi)
    two_g = 2.0 * params.opa_gain
    gc = two_g * math.cos(theta)
    gs = two_g * math.sin(theta)
    m = np.zeros((6, 6))
    m[0, 1] = params.omega_m1
    m[1, 0] = -params.omega_m1
    m[1, 1] = -params.gamma_m1
    m[1, 2] = -params.coulomb_lambda
    m[1, 4] = g_m
    m[2, 3] = params.omega_m2
    m[3, 0] = -params.coulomb_lambda
    m[3, 2] = -params.omega_m2
    m[3, 3] = -params.gamma_m2
    m[4, 4] = gc - params.kappa
    m[4, 5] = gs + params.detuning
    m[5, 0] = g_m
    m[5, 4] = gs - params.detuning
    m[5, 5] = -(gc + params.kappa)
    return m


def build_diffusion(params) -> np.ndarray:
    """Diagonal noise matrix: thermal kicks on momenta, vacuum on the field.

    Each oscillator's bath is at the shared temperature, with occupation
    n(omega_mi, T) at its own frequency.
    """
    therm1 = 2.0 * thermal_occupation(params.omega_m1, params.temperature) + 1.0
    therm2 = 2.0 * thermal_occupation(params.omega_m2, params.temperature) + 1.0
    return np.diag(
        [
            0.0,
            params.gamma_m1 * therm1,
            0.0,
            params.gamma_m2 * therm2,
            params.kappa,
            params.kappa,
        ]
    )


@dataclasses.dataclass(frozen=True)
class StabilityReport:
    """Spectral verdict on a drift matrix."""

    stable: bool
    max_real_part: float
    eigenvalues: tuple[complex, ...]

    def failure(self) -> UnstableSystem | None:
        """UnstableSystem unless the spectrum clears the margin, else None."""
        if self.stable:
            return None
        return UnstableSystem(
            f"drift spectrum reaches Re={self.max_real_part:.6g}; "
            "no steady covariance exists"
        )


def stability(m, omega_scale):
    """Check that every drift eigenvalue sits left of a small margin.

    The margin is STABILITY_EPS_FRACTION times omega_scale, a
    characteristic frequency of the system (omega_m1 in the pipeline),
    which must be positive.

    A stack m of shape (B, n, n) with omega_scale of shape (B,) takes
    one eigenvalue call for all B systems, with one row per distinct
    drift: rows whose m are equal byte for byte share its eigenvalues.
    It returns a list of B entries, each the system's StabilityReport
    or the PointFailure a single call would raise for it, and each
    report equals the single call's to the bit. When LAPACK fails on
    the stack (a non-finite or non-converging system), its systems are
    redone one at a time.
    """
    arr = np.asarray(m, dtype=float)
    if arr.ndim not in (2, 3) or arr.shape[-1] != arr.shape[-2]:
        raise ValueError(f"m must be a square matrix or a stack of them, got shape {arr.shape}")
    single = arr.ndim == 2
    if single:
        arr, omega_scale = arr[None], [omega_scale]
    if np.shape(omega_scale) != arr.shape[:1]:
        raise ValueError(f"omega_scale must hold one scale per system, "
                         f"got shape {np.shape(omega_scale)} for {arr.shape[0]}")
    scales = [float(s) for s in omega_scale]
    if not all(s > 0.0 for s in scales):
        raise ValueError(f"omega_scale must be positive, got {omega_scale}")
    group, _, firsts = _shared_drifts(arr)
    try:
        out = _reports(smallmat.eigenvalues(arr[firsts])[group], scales)
    except EigenFailure:
        # one system at a time, so each failure is its own
        out = []
        for mi, scale in zip(arr, scales):
            try:
                out.append(_reports(smallmat.eigenvalues(mi[None]), [scale])[0])
            except EigenFailure as exc:
                out.append(exc.with_traceback(None))
    return unstack(out) if single else out


def _reports(eigs, scales) -> list[StabilityReport]:
    """One StabilityReport per row of the (B, n) eigenvalues eigs."""
    # max is exact, so each row's maximum is the single call's
    maxes = eigs.real.max(axis=1).tolist()
    return [
        StabilityReport(
            stable=max_re < -(STABILITY_EPS_FRACTION * scale),
            max_real_part=max_re,
            eigenvalues=tuple(eig),
        )
        for eig, max_re, scale in zip(eigs.tolist(), maxes, scales)
    ]


def steady_covariance(m, d, omega_scale):
    """Steady covariance V solving M V + V M^T = -D.

    The 6x6 equation is vectorized row-major into a 36x36 linear solve;
    omega_scale sets the stability margin as in ``stability``. Raises
    EigenFailure when the drift spectrum cannot be computed (for
    example, a non-finite M), UnstableSystem when it fails the stability
    margin, and SingularSolve when the solve degenerates or leaves a
    residual above RESIDUAL_RTOL * ||D||_F; a V that overflows leaves a
    NaN residual, which fails that test too.

    Stacks m and d of shape (B, 6, 6) with omega_scale of shape (B,)
    are solved in one stacked elimination, with one Kronecker sum per
    distinct drift: rows whose M are equal byte for byte share it, each
    row's -D riding along as its own right-hand side. The call then
    returns a list of B entries, each the system's V or the PointFailure
    a single call would raise for it, and each V equals the single
    call's to the bit.
    """
    marr = np.asarray(m, dtype=float)
    darr = np.asarray(d, dtype=float)
    if (marr.shape != darr.shape or marr.ndim not in (2, 3)
            or marr.shape[-1] != marr.shape[-2]):
        raise ValueError(f"m and d must be matching square matrices, "
                         f"got {marr.shape} and {darr.shape}")
    single = marr.ndim == 2
    if single:
        marr, darr, omega_scale = marr[None], darr[None], [omega_scale]
    # one stacked stability call, which checks omega_scale as well; None
    # marks a stable system, still to be solved
    out = [r.failure() if isinstance(r, StabilityReport) else r
           for r in stability(marr, omega_scale)]
    solved = [i for i, v in enumerate(out) if v is None]
    if solved:
        ms, ds = marr[solved], darr[solved]
        n = ms.shape[-1]
        eye = np.eye(n)
        group, slot, firsts = _shared_drifts(ms)
        # huge entries overflow the Kronecker sum, the pivot threshold or
        # ||D||_F, and a failed system's NaN or inf fails the residual
        # test; all silently
        with np.errstate(all="ignore"):
            distinct = ms[firsts]
            # summed in place: one 36x36 stack fewer to allocate
            lhs = smallmat.kron(distinct, eye)
            lhs += smallmat.kron(eye, distinct)
            # each row's -D is its own right-hand side of its drift's
            # system; a group smaller than the largest pads with zeros
            rhs = np.zeros((len(firsts), max(slot) + 1, n * n))
            rhs[group, slot] = -ds.reshape(len(solved), n * n)
            vec, failures = smallmat.solve(lhs, rhs)
            v = vec[group, slot].reshape(-1, n, n)
            v = 0.5 * (v + v.transpose(0, 2, 1))
            residual = smallmat.frob_norm(ms @ v + v @ ms.transpose(0, 2, 1) + ds)
            dnorm = smallmat.frob_norm(ds)
        for j, i in enumerate(solved):
            if failures[group[j]] is not None:
                # a copy per row: raising an exception sets its traceback
                out[i] = copy.copy(failures[group[j]])
            elif not residual[j] <= RESIDUAL_RTOL * dnorm[j]:
                out[i] = SingularSolve(
                    f"Lyapunov residual {residual[j]:.3e} exceeds "
                    f"{RESIDUAL_RTOL:.0e} * ||D||_F = {RESIDUAL_RTOL * dnorm[j]:.3e}"
                )
            else:
                out[i] = v[j]
    return unstack(out) if single else out


def _shared_drifts(ms):
    """(group, slot, firsts): row j of the stack ms is slot[j] of group[j].

    Rows whose drifts are equal byte for byte form one group, so 0.0 and
    -0.0 stay apart; firsts holds each group's first row, in order.
    """
    raw = ms.tobytes()
    width = len(raw) // len(ms)
    index, group, slot, firsts, sizes = {}, [], [], [], []
    for j in range(len(ms)):
        g = index.setdefault(raw[j * width:(j + 1) * width], len(firsts))
        if g == len(firsts):
            firsts.append(j)
            sizes.append(0)
        group.append(g)
        slot.append(sizes[g])
        sizes[g] += 1
    return group, slot, firsts
