"""Small dense real-matrix kernels: eigenvalues, elimination, Kronecker.

Callers pass float64 ndarrays of the right shape; validation belongs to
the public entry points in ``dynamics`` and ``entanglement``, and
non-finite arithmetic is classified by their stage guards. Eigenvalues
go through LAPACK, whose own finiteness check turns a non-finite matrix
into EigenFailure. One local lockstep elimination, ``_eliminate``, serves
``solve`` and ``det``, so the pivot policy is explicit and written once.
They take stacks of matrices along a leading axis; the other kernels
take one matrix or a stack.
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
    """Eliminate the first n columns of a (B, n, m) stack in place, in lockstep.

    At column k each system swaps in its own row of largest magnitude,
    then subtracts multiples of row k from the rows below in columns k+1
    on. Each system sees the same per-element operations as alone, and
    each pivot stays on the diagonal. Returns each step's (B,) pivot
    offsets below row k, nonzero where a system swapped. work must be
    C-contiguous, so that its flat rows are a view; callers hold
    np.errstate, and a zero pivot's NaN and inf stay in its own rows.
    """
    rows = work.reshape(-1, work.shape[2])
    # row_k[k] holds the flat index of row k of every system
    row_k = np.arange(n)[:, None] + np.arange(0, len(work) * n, n)
    offsets = []
    # the last column has no row below it to swap or update
    for k in range(n - 1):
        p = np.abs(work[:, k:, k]).argmax(axis=1)
        offsets.append(p)
        if np.count_nonzero(p):
            flat = p + row_k[k]
            pivot_row = rows[flat]
            rows[flat] = work[:, k]
            work[:, k] = pivot_row
        mult = work[:, k + 1:, k, None] / work[:, k, None, k, None]
        work[:, k + 1:, k + 1:] -= mult * work[:, k, None, k + 1:]
    return offsets


def solve(a, b):
    """Solve A x = b by Gaussian elimination with partial pivoting.

    a is a stack (B, n, n). b is (B, n), one right-hand side per system,
    or (B, r, n), r of them; x has b's shape. ``_eliminate`` runs the
    systems in lockstep, and each right-hand side rides along as its own
    column, whose operations depend only on its system's matrix. So each
    x is its system's x for that b alone to the bit, and r right-hand
    sides cost one elimination. A pivot below PIVOT_RTOL * ||A||_inf
    marks a system singular at the first such column. Returns (x,
    failures): failures[i] is system i's SingularSolve or None, and a
    failed system's x is meaningless.
    """
    arr = np.asarray(a, dtype=float)
    rhs = np.asarray(b, dtype=float)
    one = rhs.ndim == 2
    if one:
        rhs = rhs[:, None]
    size, n, _ = arr.shape
    # b rides along as columns n on, through the same swaps and updates
    work = np.empty((size, n, n + rhs.shape[1]))
    work[:, :, :n] = arr
    work[:, :, n:] = rhs.transpose(0, 2, 1)
    threshold = PIVOT_RTOL * np.abs(arr).sum(axis=2).max(axis=1, initial=0.0)
    # the pivot test below reports a system that divided by a tiny pivot
    with np.errstate(all="ignore"):
        _eliminate(work, n)
        pivots = work[:, range(n), range(n)]
        # x[i, j] is system i's solution for its j-th right-hand side, and
        # flat lists them all, each beside its own system's pivots
        x = work[:, :, n:].transpose(0, 2, 1).copy()
        flat, x_col = x.reshape(-1, n), x[..., None]
        flat_pivots = np.repeat(pivots, x.shape[1], axis=0)
        for k in range(n - 1, -1, -1):
            # (1, k) @ (k, 1) per right-hand side reduces as the 1-D dot product does
            dot = work[:, None, k, None, k + 1:n] @ x_col[:, :, k + 1:]
            flat[:, k] = (flat[:, k] - dot.ravel()) / flat_pivots[:, k]
    bad = (np.abs(pivots) < threshold[:, None]) | (pivots == 0.0)
    failures = [None] * size
    for i in np.flatnonzero(bad.any(axis=1)):
        k = int(bad[i].argmax())
        failures[i] = SingularSolve(
            f"pivot {pivots[i, k]:.3e} below {threshold[i]:.3e} in column {k}"
        )
    return (x[:, 0] if one else x), failures


def det(a):
    """Determinants of a (B, 4, 4) stack by pivoted elimination; overflow gives inf.

    ``_eliminate`` runs the systems in lockstep, so each of the B
    determinants equals its B = 1 call's float to the bit. A zero pivot
    in the first three columns gives 0.0 for its own system only.
    """
    work = np.array(a, dtype=float, order="C")
    with np.errstate(all="ignore"):
        sign = (-1.0) ** sum(p != 0 for p in _eliminate(work, 4))
        out = sign * work[:, 0, 0] * work[:, 1, 1] * work[:, 2, 2] * work[:, 3, 3]
    out[(work[:, range(3), range(3)] == 0.0).any(axis=1)] = 0.0
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
