"""Small dense real-matrix kernels: eigenvalues, elimination, Kronecker.

Callers pass float64 ndarrays of the right shape; validation belongs to
the public entry points in ``dynamics`` and ``entanglement``, and
non-finite arithmetic is classified by their stage guards. Eigenvalues
go through LAPACK, whose own finiteness check turns a non-finite matrix
into EigenFailure; the elimination kernels are local so the pivot
policy stays explicit. ``solve`` and ``det`` take stacks of matrices
along a leading axis; the other kernels take one matrix or a stack.
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


def solve(a, b):
    """Solve A x = b by Gaussian elimination with partial pivoting.

    a is a stack (B, n, n) with b of shape (B, n); its systems are
    eliminated in lockstep: every system takes its own pivots and sees
    the same per-element operations as when solved alone, so its x is
    the same to the bit. A pivot magnitude below PIVOT_RTOL * ||A||_inf
    marks a system singular at the first column where it happens.
    Returns (x, failures), failures[i] being the SingularSolve of
    system i or None; the rows of x for failed systems are meaningless.
    """
    arr = np.asarray(a, dtype=float)
    size, n, _ = arr.shape
    # b rides along as column n, so row swaps and updates carry it with
    # the same operations as the matrix
    work = np.empty((size, n, n + 1))
    work[:, :, :n] = arr
    work[:, :, n] = b
    threshold = PIVOT_RTOL * np.abs(arr).sum(axis=2).max(axis=1, initial=0.0)
    rows = work.reshape(size * n, n + 1)
    # row_k[k] holds the flat index of row k of every system
    row_k = np.arange(n)[:, None] + np.arange(0, size * n, n)
    # a singular system divides by a zero or tiny pivot; its NaN and inf
    # stay in its own rows, and the pivot test below reports it
    with np.errstate(all="ignore"):
        for k in range(n):
            p = np.abs(work[:, k:, k]).argmax(axis=1)
            if np.count_nonzero(p):
                p += row_k[k]
                pivot_row = rows[p]
                rows[p] = work[:, k]
                work[:, k] = pivot_row
            mult = work[:, k + 1:, k, None] / work[:, k, None, k, None]
            work[:, k + 1:, k + 1:] -= mult * work[:, k, None, k + 1:]
        x = work[:, :, n].copy()
        x_col = x[:, :, None]
        for k in range(n - 1, -1, -1):
            # (1, k) @ (k, 1) per system reduces as the 1-D dot product does
            dot = work[:, k, None, k + 1:n] @ x_col[:, k + 1:]
            x[:, k] = (x[:, k] - dot[:, 0, 0]) / work[:, k, k]
    # each pivot stays on the diagonal once its column is eliminated
    pivots = work[:, range(n), range(n)]
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

    The systems are eliminated in lockstep and give an ndarray of B
    determinants: every system takes its own pivots and sees the same
    per-element operations as alone, so each equals its B = 1 call's
    float to the bit. A zero pivot gives 0.0 for its own system only.
    """
    work = np.array(a, dtype=float)
    size = len(work)
    sign = np.ones(size)
    dead = np.zeros(size, dtype=bool)
    rows = work.reshape(size * 4, 4)
    # row_k[k] holds the flat index of row k of every system
    row_k = np.arange(4)[:, None] + np.arange(0, size * 4, 4)
    # a system with a zero pivot divides by it; its NaN and inf stay in
    # its own rows and its determinant is set to 0.0 below
    with np.errstate(all="ignore"):
        for k in range(3):
            p = np.abs(work[:, k:, k]).argmax(axis=1)
            dead |= work[range(size), p + k, k] == 0.0
            if np.count_nonzero(p):
                sign[p != 0] *= -1.0
                p += row_k[k]
                pivot_row = rows[p]
                rows[p] = work[:, k]
                work[:, k] = pivot_row
            mult = work[:, k + 1:, k] / work[:, k, None, k]
            work[:, k + 1:, k + 1:] -= mult[:, :, None] * work[:, k, None, k + 1:]
        out = sign * work[:, 0, 0] * work[:, 1, 1] * work[:, 2, 2] * work[:, 3, 3]
    out[dead] = 0.0
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
