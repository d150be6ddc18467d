"""Complex linear algebra primitives shared by the model builders, the
dynamics engine and the entanglement measures.

Operators and density matrices are plain dense complex ndarrays throughout;
only Liouvillian superoperators (see :mod:`rydpump.dynamics`) are sparse.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np


class BipartiteDims(NamedTuple):
    """Single-atom level counts of a two-atom system (atom 1 is the left
    Kronecker factor)."""

    dimA: int
    dimB: int


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return m.conj().T


def hermiticity_defect(m: np.ndarray) -> float:
    """max |M - M^dag|, the absolute deviation from Hermiticity."""
    return float(np.max(np.abs(m - dagger(m))))


def require_hermitian(m: np.ndarray, tol: float = 1e-10, name: str = "matrix") -> None:
    """Raise ValueError if the Hermiticity defect exceeds tol * max|M|."""
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be square, got shape {m.shape}")
    scale = float(np.max(np.abs(m)))
    defect = hermiticity_defect(m)
    if defect > tol * max(scale, np.finfo(float).tiny):
        raise ValueError(
            f"{name} is not Hermitian: max|M - M^dag| = {defect:.3e} "
            f"exceeds {tol:.1e} * max|M| = {tol * scale:.3e}"
        )


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product A (x) B; entry ((i*Brows+k),(j*Bcols+l)) = A[i,j]*B[k,l]."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError(f"kron expects 2-D matrices, got shapes {a.shape}, {b.shape}")
    return np.kron(a, b)


def partial_transpose(rho: np.ndarray, dims: BipartiteDims) -> np.ndarray:
    """Transpose subsystem A of a bipartite operator.

    Block (i, j) of the result (blocks of size dimB x dimB) equals block
    (j, i) of the input.  Involutive, trace- and Hermiticity-preserving.
    """
    rho = np.asarray(rho)
    da, db = int(dims[0]), int(dims[1])
    side = da * db
    if rho.shape != (side, side):
        raise ValueError(
            f"partial_transpose: expected a {side}x{side} matrix for dims "
            f"{da}x{db}, got shape {rho.shape}"
        )
    return (
        rho.reshape(da, db, da, db).transpose(2, 1, 0, 3).reshape(side, side)
    )


def hermitian_eigvals(m: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """Ascending real eigenvalues of a Hermitian matrix.

    The input must be Hermitian within ``tol`` (relative to its largest
    entry); a violation raises ValueError reporting the defect.
    """
    require_hermitian(m, tol=tol, name="eigvals input")
    return np.linalg.eigvalsh(m)

