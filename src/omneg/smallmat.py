"""Small dense real-matrix kernels: eigenvalues, elimination, Kronecker.

Callers pass float64 ndarrays of the right shape; validation belongs to
the public entry points in ``dynamics`` and ``entanglement``, and
non-finite arithmetic is classified by their stage guards. Eigenvalues
go through LAPACK, whose own finiteness check turns a non-finite matrix
into EigenFailure; the elimination kernels are local so the pivot
policy stays explicit.
"""

from __future__ import annotations

import numpy as np

from .errors import EigenFailure, SingularSolve

__all__ = ["eigenvalues", "solve", "det", "kron", "frob_norm"]

# pivots below PIVOT_RTOL * ||A||_inf count as singular
PIVOT_RTOL = 1e-14


def eigenvalues(a) -> np.ndarray:
    """All eigenvalues of a real square matrix as complex128."""
    try:
        w = np.linalg.eigvals(a)
    except np.linalg.LinAlgError as exc:
        raise EigenFailure(f"eigenvalue iteration failed: {exc}") from exc
    return np.asarray(w, dtype=complex)


def solve(a, b) -> np.ndarray:
    """Solve A x = b by Gaussian elimination with partial pivoting.

    Raises SingularSolve when a pivot magnitude falls below
    PIVOT_RTOL * ||A||_inf.
    """
    arr = np.array(a, dtype=float)
    vec = np.array(b, dtype=float)
    n = arr.shape[0]
    anorm = float(np.abs(arr).sum(axis=1).max()) if n else 0.0
    threshold = PIVOT_RTOL * anorm
    for k in range(n):
        p = k + int(np.argmax(np.abs(arr[k:, k])))
        if abs(arr[p, k]) < threshold or arr[p, k] == 0.0:
            raise SingularSolve(
                f"pivot {arr[p, k]:.3e} below {threshold:.3e} in column {k}"
            )
        if p != k:
            arr[[k, p]] = arr[[p, k]]
            vec[[k, p]] = vec[[p, k]]
        mult = arr[k + 1:, k] / arr[k, k]
        arr[k + 1:, k + 1:] -= np.outer(mult, arr[k, k + 1:])
        vec[k + 1:] -= mult * vec[k]
    for k in range(n - 1, -1, -1):
        vec[k] = (vec[k] - arr[k, k + 1:] @ vec[k + 1:]) / arr[k, k]
    return vec


def det(a) -> float:
    """Determinant of a 2x2 (cofactor) or 4x4 (pivoted elimination) matrix."""
    arr = np.asarray(a, dtype=float)
    n = arr.shape[0]
    if n == 2:
        return float(arr[0, 0] * arr[1, 1] - arr[0, 1] * arr[1, 0])
    if n != 4:
        raise ValueError(f"det supports 2x2 and 4x4 only, got {n}x{n}")
    work = np.array(arr, dtype=float)
    sign = 1.0
    for k in range(3):
        p = k + int(np.argmax(np.abs(work[k:, k])))
        if work[p, k] == 0.0:
            return 0.0
        if p != k:
            work[[k, p]] = work[[p, k]]
            sign = -sign
        mult = work[k + 1:, k] / work[k, k]
        work[k + 1:, k + 1:] -= np.outer(mult, work[k, k + 1:])
    return float(sign * work[0, 0] * work[1, 1] * work[2, 2] * work[3, 3])


def kron(a, b) -> np.ndarray:
    """Kronecker product."""
    return np.kron(a, b)


def frob_norm(a) -> float:
    """Frobenius norm sqrt(sum a_ij^2)."""
    arr = np.asarray(a, dtype=float)
    return float(np.sqrt((arr * arr).sum()))
