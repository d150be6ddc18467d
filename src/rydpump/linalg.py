"""Complex linear algebra primitives shared by the model builders, the
dynamics engine and the entanglement measures.

Operators and density matrices are plain dense complex ndarrays throughout;
only Liouvillian superoperators (see :mod:`rydpump.dynamics`) are sparse.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

# hermitian_eigvals accepts a matrix whose Hermiticity defect is at most
# _HERMITIAN_RTOL times its largest entry.
_HERMITIAN_RTOL = 1e-10


class BipartiteDims(NamedTuple):
    """Single-atom level counts of a two-atom system (atom 1 is the left
    Kronecker factor)."""

    dimA: int
    dimB: int


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix in a stack."""
    return np.conj(m).swapaxes(-1, -2)


def hermiticity_defect(m: np.ndarray):
    """max |M - M^dag|: a float for one matrix, an array for a stack."""
    return np.max(np.abs(m - dagger(m)), axis=(-2, -1))


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product A (x) B; entry ((i*Brows+k),(j*Bcols+l)) = A[i,j]*B[k,l].

    One broadcast product, the one np.kron forms after its shape handling,
    so the result is the same to the bit at a fraction of the call cost."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError(f"kron expects 2-D matrices, got shapes {a.shape}, {b.shape}")
    (m, n), (p, q) = a.shape, b.shape
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(m * p, n * q)


def partial_transpose(rho: np.ndarray, dims: BipartiteDims) -> np.ndarray:
    """Transpose subsystem A of a bipartite operator, or of each one in a
    stack (..., dimA*dimB, dimA*dimB).

    Block (i, j) of the result (blocks of size dimB x dimB) equals block
    (j, i) of the input.  Involutive, trace- and Hermiticity-preserving.
    """
    rho = np.asarray(rho)
    da, db = int(dims[0]), int(dims[1])
    side = da * db
    if rho.shape[-2:] != (side, side):
        raise ValueError(
            f"partial_transpose: expected a {side}x{side} matrix for dims "
            f"{da}x{db}, got shape {rho.shape}"
        )
    return rho.reshape(rho.shape[:-2] + (da, db, da, db)).swapaxes(-4, -2).reshape(rho.shape)


def hermitian_eigvals(m: np.ndarray) -> np.ndarray:
    """Ascending real eigenvalues of a Hermitian matrix, or of each matrix
    in a stack (shape (..., n)).

    Every input must be square and Hermitian within _HERMITIAN_RTOL
    (relative to its largest entry); a violation raises ValueError
    reporting the defect of the first failing matrix.
    """
    m = np.asarray(m)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"eigvals input must be square, got shape {m.shape}")
    scale = np.max(np.abs(m), axis=(-2, -1))
    defect = hermiticity_defect(m)
    bad = defect > _HERMITIAN_RTOL * np.maximum(scale, np.finfo(float).tiny)
    if np.any(bad):
        k = np.argmax(bad)  # flat index of the first failing matrix
        raise ValueError(
            f"eigvals input is not Hermitian: max|M - M^dag| = {defect.flat[k]:.3e} "
            f"exceeds {_HERMITIAN_RTOL:.1e} * max|M| = {_HERMITIAN_RTOL * scale.flat[k]:.3e}"
        )
    return np.linalg.eigvalsh(m)
