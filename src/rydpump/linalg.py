"""Complex linear algebra primitives shared by the model builders, the
dynamics engine and the entanglement measures.

Operators and density matrices are plain dense complex ndarrays throughout;
only Liouvillian superoperators (see :mod:`rydpump.dynamics`) are sparse.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

# hermitian_eigvals accepts a matrix whose Hermiticity defect is at most
# _HERMITIAN_RTOL times its largest entry.
_HERMITIAN_RTOL = 1e-10

# Work over a stack of matrices goes in blocks of this many bytes of
# matrices (at least one matrix), so that no temporary grows with the stack.
# A block's temporaries stay below glibc's initial mmap threshold, 128 KiB
# with malloc's header, so they come from memory the allocator keeps
# between calls.  Blocks twice as large fault pages in again on every
# repeated Bell evolve; blocks half as large add per-block calls that show
# in the qutrit evolve's check.
_BLOCK_BYTES = 120 << 10


class BipartiteDims(NamedTuple):
    """Single-atom level counts of a two-atom system (atom 1 is the left
    Kronecker factor)."""

    dimA: int
    dimB: int


def hermiticity_defect(m: np.ndarray):
    """max |M - M^dag|: a float for one matrix, an array for a stack."""
    return np.max(np.abs(m - np.conj(m).mT), axis=(-2, -1))


def partial_transpose(rho: np.ndarray, dims: BipartiteDims) -> np.ndarray:
    """Transpose subsystem A of a bipartite operator, or of each one in a
    stack (..., dimA*dimB, dimA*dimB).

    Block (i, j) of the result (blocks of size dimB x dimB) equals block
    (j, i) of the input.  Involutive, trace- and Hermiticity-preserving.
    """
    rho = np.asarray(rho)
    da, db = check_bipartite(rho.shape, dims)
    return rho.reshape(rho.shape[:-2] + (da, db, da, db)).swapaxes(-4, -2).reshape(rho.shape)


def check_bipartite(shape: tuple, dims: BipartiteDims) -> tuple[int, int]:
    """(dimA, dimB) of dims; ValueError unless an operator, or a stack of
    operators, of this shape acts on their product space."""
    da, db = int(dims[0]), int(dims[1])
    side = da * db
    if shape[-2:] != (side, side):
        raise ValueError(
            f"partial_transpose: expected a {side}x{side} matrix for dims "
            f"{da}x{db}, got shape {shape}"
        )
    return da, db


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


def blocks(count: int, item_bytes: int) -> list:
    """Slices that cover range(count) in order, each of at most
    _BLOCK_BYTES // item_bytes items, and of at least one."""
    size = max(1, _BLOCK_BYTES // item_bytes)
    return [slice(start, min(start + size, count)) for start in range(0, count, size)]


def over_blocks(f, stack: np.ndarray):
    """f(stack) for a function f that maps a stack (k, n, n) of matrices to
    one result per matrix, (k, ...), evaluated block by block (blocks) over
    the flattened leading axes of stack (..., n, n).

    A single matrix, and a stack that fits in one block, go to f as they
    are.  Otherwise the results are written into one array, so the call
    holds the result and one block's temporaries of f.  Each matrix's
    result does not depend on the block it is in, and the blocks run in
    order: f raises for the earliest matrix that it rejects, as on the
    whole stack."""
    stack = np.asarray(stack)
    count = math.prod(stack.shape[:-2])  # 1 for a single matrix
    if count <= 1 or stack.nbytes <= _BLOCK_BYTES:
        return f(stack)
    parts = blocks(count, stack.nbytes // count)
    flat = stack.reshape((-1,) + stack.shape[-2:])
    first = f(flat[parts[0]])
    out = np.empty((count,) + first.shape[1:], dtype=first.dtype)
    out[parts[0]] = first
    for part in parts[1:]:
        out[part] = f(flat[part])
    return out.reshape(stack.shape[:-2] + first.shape[1:])
