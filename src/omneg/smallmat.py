"""Small dense real-matrix kernels: eigenvalues, elimination, Kronecker.

Callers pass float64 ndarrays of the right shape; validation belongs to
the public entry points in ``dynamics`` and ``entanglement``, and
non-finite arithmetic is classified by their stage guards. Eigenvalues
go through LAPACK, whose own finiteness check turns a non-finite matrix
into EigenFailure. One local lockstep elimination, ``_eliminate``, serves
``solve`` and ``det``, so the pivot policy is explicit and written once.
They take stacks of matrices along a leading axis and eliminate a copy
with the systems on the last axis, which gives each numpy loop all the
systems' entries; the other kernels take one matrix or a stack.
"""

from __future__ import annotations

import numpy as np

from .errors import EigenFailure, SingularSolve

__all__ = ["eigenvalues", "solve", "det", "kron", "frob_norm"]

# pivots below PIVOT_RTOL * ||A||_inf count as singular
PIVOT_RTOL = 1e-14


def eigenvalues(a) -> np.ndarray:
    """All eigenvalues of a real square matrix, or of a stack, as complex128.

    A stack (B, n, n) gives (B, n) in one LAPACK call, each row the
    single call's eigenvalues to the bit; LAPACK raises for the whole
    stack when any system is non-finite or fails to converge.
    """
    try:
        w = np.linalg.eigvals(a)
    except np.linalg.LinAlgError as exc:
        raise EigenFailure(f"eigenvalue iteration failed: {exc}") from exc
    return np.asarray(w, dtype=complex)


def _eliminate(work, n):
    """Eliminate the first n columns of an (n, m, B) array in place, in lockstep.

    work[i, j, s] is entry (i, j) of system s. With the systems
    innermost, each numpy loop of the row update runs over all B systems
    at once (the subtraction over a row's remaining columns of all of
    them), not over one short row of one system; below about ten
    systems the rows are the longer loops, and such stacks run slower.
    At column k each system swaps in its own row of largest magnitude,
    then subtracts multiples of row k from the rows below in columns k+1
    on. Each element sees the same a - (a_ik / a_kk) * a_kj as in any
    other layout or alone, and each pivot stays on the diagonal. Returns
    each step's (B,) pivot offsets below row k, nonzero where a system
    swapped. Callers hold np.errstate, and a zero pivot's NaN and inf
    stay in its own system.
    """
    systems = np.arange(work.shape[2])
    offsets = []
    # the last column has no row below it to swap or update
    for k in range(n - 1):
        p = np.abs(work[k:, k]).argmax(axis=0)
        offsets.append(p)
        if np.count_nonzero(p):
            pivot_row = work[k + p, :, systems]
            work[k + p, :, systems] = work[k].T
            work[k] = pivot_row.T
        mult = work[k + 1:, k] / work[k, k]
        work[k + 1:, k + 1:] -= mult[:, None] * work[k, k + 1:]
    return offsets


def solve(a, b):
    """Solve A x = b by Gaussian elimination with partial pivoting.

    a is a stack (B, n, n) and b a stack (B, r, n), r right-hand sides
    per system; x has b's shape. ``_eliminate`` runs the systems in
    lockstep, and each right-hand side rides along as its own column,
    whose operations depend only on its system's matrix. So each x is
    its system's x for that b alone to the bit, and r right-hand sides
    cost one elimination. A pivot below PIVOT_RTOL * ||A||_inf marks a
    system singular at the first such column. Returns (x, failures):
    failures[i] is system i's SingularSolve or None, and a failed
    system's x is meaningless.
    """
    arr = np.asarray(a, dtype=float)
    rhs = np.asarray(b, dtype=float)
    size, n, _ = arr.shape
    # systems innermost; b rides along as columns n on, through the same
    # swaps and updates
    work = np.empty((n, n + rhs.shape[1], size))
    work[:, :n] = arr.transpose(1, 2, 0)
    work[:, n:] = rhs.transpose(2, 1, 0)
    threshold = PIVOT_RTOL * np.abs(arr).sum(axis=2).max(axis=1, initial=0.0)
    # the pivot test below reports a system that divided by a tiny pivot
    with np.errstate(all="ignore"):
        _eliminate(work, n)
        # each system's rows contiguous again: a strided dot below could
        # take another BLAS path and sum in another order
        u = work.transpose(2, 0, 1).copy()
        pivots = u[:, range(n), range(n)]
        # x[i, j] is system i's solution for its j-th right-hand side
        x = u[:, :, n:].transpose(0, 2, 1).copy()
        for k in range(n - 1, -1, -1):
            # (1, k) @ (k, 1) per right-hand side reduces as the 1-D dot product does
            dot = u[:, None, k, None, k + 1:n] @ x[:, :, k + 1:, None]
            x[:, :, k] = (x[:, :, k] - dot[..., 0, 0]) / pivots[:, k, None]
    bad = (np.abs(pivots) < threshold[:, None]) | (pivots == 0.0)
    failures = [None] * size
    for i in np.flatnonzero(bad.any(axis=1)):
        k = int(bad[i].argmax())
        failures[i] = SingularSolve(
            f"pivot {pivots[i, k]:.3e} below {threshold[i]:.3e} in column {k}"
        )
    return x, failures


def det(a):
    """Determinants of a (B, 4, 4) stack by pivoted elimination; overflow gives inf.

    ``_eliminate`` runs the systems in lockstep, so each of the B
    determinants equals its B = 1 call's float to the bit, whatever the
    memory layout of a. A zero pivot in the first three columns gives
    0.0 for its own system only.
    """
    # a copy with the systems innermost; a itself is left alone
    work = np.array(np.asarray(a, dtype=float).transpose(1, 2, 0), order="C")
    with np.errstate(all="ignore"):
        sign = (-1.0) ** sum(p != 0 for p in _eliminate(work, 4))
        out = sign * work[0, 0] * work[1, 1] * work[2, 2] * work[3, 3]
    out[(work[range(3), range(3)] == 0.0).any(axis=0)] = 0.0
    return out


def kron(a, b) -> np.ndarray:
    """Kronecker product of the last two axes; leading axes broadcast.

    Each entry is the one product a[..., i, j] * b[..., k, l] that
    ``np.kron`` forms, without its general-rank set-up.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    return out.reshape(*out.shape[:-4], a.shape[-2] * b.shape[-2], a.shape[-1] * b.shape[-1])


def frob_norm(arr):
    """Frobenius norm sqrt(sum a_ij^2) over the last two axes of an ndarray."""
    return np.sqrt((arr * arr).sum(axis=(-2, -1)))
