"""Valid points, grid points, README's library chain, numpy oracles and a strict JSON reader.

Each oracle reaches its verdict by a route that shares no code with the
check it tests: eigenvalues of V + i Omega/2 for the uncertainty
relation, eigenvalues of i Omega V for the symplectic spectrum, the
Routh-Hurwitz minors of the characteristic polynomial for stability,
and the time integral of dV/dt for the steady Lyapunov solve. The
critical-temperature search has a sequential twin that probes one
temperature per pipeline run.
"""

import dataclasses
import itertools
import json
import math

import numpy as np
from hypothesis import strategies as st

from omneg import SystemParams, build_diffusion, build_drift, derive, steady_covariance, sweep
from omneg.errors import NoDeathBelowCeiling, NoEntanglementAtFloor

OMEGA = 2.0 * math.pi * 1e8

# valid parameters around the paper's defaults, with omega_m2 != omega_m1
VALID_BASES = st.builds(
    lambda lam_frac, w2_frac, detuning_frac, **kw: SystemParams(
        omega_m2=w2_frac * OMEGA,
        coulomb_lambda=lam_frac * math.sqrt(w2_frac) * OMEGA,
        detuning=detuning_frac * OMEGA,
        **kw,
    ),
    lam_frac=st.floats(-0.98, 0.98),
    w2_frac=st.floats(0.5, 1.5),
    detuning_frac=st.floats(0.3, 2.0),
    power=st.floats(0.01, 0.1),
    opa_gain=st.floats(0.0, 4e7),
    opa_phase=st.floats(-math.pi, math.pi),
)


def grid_points(base, axes, results):
    """(SystemParams, result) for each point of a run_sweep grid, in its order."""
    names = [name for name, _ in axes]
    combos = itertools.product(*(values for _, values in axes))
    return [
        (dataclasses.replace(base, **dict(zip(names, combo))), result)
        for combo, result in zip(combos, results, strict=True)
    ]


def strict_json(text):
    """json.loads that refuses NaN and Infinity, tokens RFC 8259 does not have."""

    def reject(token):
        raise ValueError(f"{token} is not a JSON token")

    return json.loads(text, parse_constant=reject)


# symplectic form of the two oscillators in (q1, p1, q2, p2) order
OMEGA_2 = np.kron(np.eye(2), [[0.0, 1.0], [-1.0, 0.0]])
# partial transpose: time reversal of oscillator 2, p2 -> -p2
PARTIAL_TRANSPOSE = np.diag([1.0, 1.0, 1.0, -1.0])


def readme_chain(p):
    """(M, D, V) of README's library example at p; a PointFailure propagates."""
    m = build_drift(p, derive(p).g_m)
    d = build_diffusion(p)
    return m, d, steady_covariance(m, d, omega_scale=p.omega_m1)


def uncertainty_margin(v4) -> float:
    """Smallest eigenvalue of V + i Omega/2; negative when V is not a state."""
    return float(np.linalg.eigvalsh(v4 + 0.5j * OMEGA_2).min())


def smallest_symplectic_eigenvalue(v4) -> float:
    """varrho: the smallest |eigenvalue| of i Omega V~, V~ the partial transpose."""
    tilde = PARTIAL_TRANSPOSE @ v4 @ PARTIAL_TRANSPOSE
    return float(np.abs(np.linalg.eigvals(1j * OMEGA_2 @ tilde)).min())


def hurwitz_stable(a) -> bool:
    """Routh-Hurwitz test: every root of det(sI - a) has negative real part.

    The characteristic polynomial s^n + c_1 s^(n-1) + ... + c_n comes
    from the Faddeev-LeVerrier recursion (traces only, no eigenvalues);
    the roots are in the open left half-plane exactly when every leading
    principal minor of its Hurwitz matrix H[i, j] = c_(2j - i + 1) is
    positive.
    """
    n = a.shape[0]
    coeffs = [1.0]
    mk = np.zeros_like(a)
    for k in range(1, n + 1):
        mk = a @ mk + coeffs[-1] * np.eye(n)
        coeffs.append(-np.trace(a @ mk) / k)
    hurwitz = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if 0 <= 2 * j - i + 1 <= n:
                hurwitz[i, j] = coeffs[2 * j - i + 1]
    return all(np.linalg.det(hurwitz[:k, :k]) > 0.0 for k in range(1, n + 1))


def evolve_covariance(m, d, v0, t_end: float, dt: float) -> np.ndarray:
    """Integrate dV/dt = M V + V M^T + D from V(0)=v0 to V(t_end).

    Classic fourth-order Runge-Kutta with fixed step h = t_end/N,
    N = ceil(t_end/dt), for square m, d, v0 of one size, t_end > 0 and
    dt <= 0.1/||M||_2. For this linear ODE every RK4 step applies one
    fixed affine map vec(V) -> A vec(V) + b, so the N-step composition
    is the N-th matrix power of that map in augmented form instead of N
    literal steps; it is the same map the literal loop would apply.
    """
    m, d, v0 = (np.asarray(x, dtype=float) for x in (m, d, v0))
    assert dt <= 0.1 / np.linalg.norm(m, 2), "RK4 step too large"
    n = m.shape[0]
    nsteps = max(1, math.ceil(t_end / dt))
    h = t_end / nsteps

    eye = np.eye(n * n)
    eyen = np.eye(n)
    hs = h * (np.kron(m, eyen) + np.kron(eyen, m))
    # one RK4 step: vec(V) -> P(hS) vec(V) + h*Q(hS) vec(D)
    # P(z) = 1 + z + z^2/2 + z^3/6 + z^4/24, Q(z) = 1 + z/2 + z^2/6 + z^3/24
    step_a = eye + hs @ (eye + (hs / 2.0) @ (eye + (hs / 3.0) @ (eye + hs / 4.0)))
    dvec = d.ravel()
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
    out = (total[:-1, :-1] @ v0.ravel() + total[:-1, -1]).reshape(n, n)
    return 0.5 * (out + out.T)


def sequential_critical_temperature(p, t_lo, t_hi, tol):
    """sweep.critical_temperature with one run_stages call per bisection probe.

    The same 32-point scan and guards, then one B = 1 ``sweep.run_stages``
    call per midpoint, looked up at call time so a test can wrap it.
    """

    def at(temperatures):
        return sweep.run_stages(p, [{"temperature": t} for t in temperatures])

    grid = np.linspace(t_lo, t_hi, 32)
    scan = at(grid.tolist())
    if scan[0].checked_en() <= 0.0:
        raise NoEntanglementAtFloor(f"no entanglement at the floor temperature {t_lo} K")
    if scan[-1].checked_en() > 0.0:
        raise NoDeathBelowCeiling(f"entanglement survives at the ceiling temperature {t_hi} K")
    values = [stages.checked_en() for stages in scan]
    for i in range(31):
        if values[i] > 0.0 and values[i + 1] <= 0.0:
            lo, hi = float(grid[i]), float(grid[i + 1])
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if at([mid])[0].checked_en() > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
