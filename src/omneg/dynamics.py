"""Linearized fluctuation dynamics: drift, diffusion, stability, covariance.

Quadrature ordering is (dq1, dp1, dq2, dp2, dX, dY): oscillator 1,
oscillator 2, then the cavity amplitude and phase quadratures. Vacuum
variance is 1/2 in these units.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from . import smallmat
from .errors import SingularSolve, StepTooLarge, UnstableSystem
from .params import thermal_occupation

__all__ = [
    "STABILITY_EPS_FRACTION",
    "RESIDUAL_RTOL",
    "build_drift",
    "build_diffusion",
    "StabilityReport",
    "stability",
    "steady_covariance",
    "evolve_covariance",
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

    def require_stable(self) -> None:
        """Raise UnstableSystem unless the spectrum clears the margin."""
        if not self.stable:
            raise UnstableSystem(
                f"drift spectrum reaches Re={self.max_real_part:.6g}; "
                "no steady covariance exists"
            )


def stability(m, omega_scale: float) -> StabilityReport:
    """Check that every drift eigenvalue sits left of a small margin.

    The margin is STABILITY_EPS_FRACTION times omega_scale, a
    characteristic frequency of the system (omega_m1 in the pipeline),
    which must be positive.
    """
    arr = np.asarray(m, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"m must be a square matrix, got shape {arr.shape}")
    if not omega_scale > 0.0:
        raise ValueError(f"omega_scale must be positive, got {omega_scale}")
    eig = smallmat.eigenvalues(arr)
    max_re = float(eig.real.max())
    margin = STABILITY_EPS_FRACTION * omega_scale
    return StabilityReport(
        stable=bool(max_re < -margin),
        max_real_part=max_re,
        eigenvalues=tuple(complex(z) for z in eig),
    )


def steady_covariance(m, d, omega_scale: float) -> np.ndarray:
    """Steady covariance V solving M V + V M^T = -D.

    The 6x6 equation is vectorized row-major into a 36x36 linear solve;
    omega_scale sets the stability margin as in ``stability``. Raises
    EigenFailure when the drift spectrum cannot be computed (for
    example, a non-finite M), UnstableSystem when it fails the stability
    margin, and SingularSolve when the solve degenerates or leaves a
    residual above RESIDUAL_RTOL * ||D||_F; a V that overflows leaves a
    NaN residual, which fails that test too.
    """
    marr = np.asarray(m, dtype=float)
    darr = np.asarray(d, dtype=float)
    if marr.shape != darr.shape or marr.ndim != 2 or marr.shape[0] != marr.shape[1]:
        raise ValueError(f"m and d must be matching square matrices, "
                         f"got {marr.shape} and {darr.shape}")
    stability(marr, omega_scale).require_stable()
    n = marr.shape[0]
    eye = np.eye(n)
    lhs = smallmat.kron(marr, eye) + smallmat.kron(eye, marr)
    vec = smallmat.solve(lhs, -darr.ravel())
    v = vec.reshape(n, n)
    v = 0.5 * (v + v.T)
    residual = smallmat.frob_norm(marr @ v + v @ marr.T + darr)
    dnorm = smallmat.frob_norm(darr)
    if not residual <= RESIDUAL_RTOL * dnorm:
        raise SingularSolve(
            f"Lyapunov residual {residual:.3e} exceeds "
            f"{RESIDUAL_RTOL:.0e} * ||D||_F = {RESIDUAL_RTOL * dnorm:.3e}"
        )
    return v


def evolve_covariance(m, d, v0, t_end: float, dt: float) -> np.ndarray:
    """Integrate dV/dt = M V + V M^T + D from V(0)=v0 to V(t_end).

    Classic fourth-order Runge-Kutta with fixed step h = t_end/N,
    N = ceil(t_end/dt). For this linear ODE every RK4 step applies one
    fixed affine map vec(V) -> A vec(V) + b, so the N-step composition
    is the N-th matrix power of that map in augmented form instead of N
    literal steps; it is the same map the literal loop would apply. dt
    must not exceed 0.1/||M||_2 (raises StepTooLarge).
    """
    marr = np.asarray(m, dtype=float)
    darr = np.asarray(d, dtype=float)
    varr = np.asarray(v0, dtype=float)
    n = marr.shape[0]
    if marr.shape != (n, n) or darr.shape != (n, n) or varr.shape != (n, n):
        raise ValueError("m, d, v0 must be square matrices of one size")
    if t_end < 0.0:
        raise ValueError(f"t_end must be >= 0, got {t_end}")
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    if t_end == 0.0:
        return np.array(varr, copy=True)
    mnorm = float(np.linalg.norm(marr, 2))
    if mnorm > 0.0 and dt > 0.1 / mnorm:
        raise StepTooLarge(
            f"dt={dt:.3e} exceeds the 0.1/||M||_2 = {0.1 / mnorm:.3e} cap"
        )
    nsteps = max(1, math.ceil(t_end / dt))
    h = t_end / nsteps

    eye = np.eye(n * n)
    eyen = np.eye(n)
    s = smallmat.kron(marr, eyen) + smallmat.kron(eyen, marr)
    hs = h * s
    # one RK4 step: vec(V) -> P(hS) vec(V) + h*Q(hS) vec(D)
    # P(z) = 1 + z + z^2/2 + z^3/6 + z^4/24, Q(z) = 1 + z/2 + z^2/6 + z^3/24
    step_a = eye + hs @ (eye + (hs / 2.0) @ (eye + (hs / 3.0) @ (eye + hs / 4.0)))
    dvec = darr.ravel()
    step_b = h * (dvec + hs @ (dvec / 2.0 + hs @ (dvec / 6.0 + hs @ (dvec / 24.0))))
    # symmetrize after every step so roundoff cannot skew V; row-major
    # vec(V^T) is vec(V) permuted by (i, j) -> (j, i)
    transpose = np.arange(n * n).reshape(n, n).T.ravel()
    # the step as one augmented matrix [[A, b], [0, 1]] acting on
    # (vec(V), 1), so nsteps steps are its nsteps-th power
    step = np.eye(n * n + 1)
    step[:-1, :-1] = 0.5 * (step_a + step_a[transpose])
    step[:-1, -1] = 0.5 * (step_b + step_b[transpose])
    total = np.linalg.matrix_power(step, nsteps)
    out = (total[:-1, :-1] @ varr.ravel() + total[:-1, -1]).reshape(n, n)
    return 0.5 * (out + out.T)
