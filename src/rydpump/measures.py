"""Figures of merit: fidelity, CHSH correlation, negativity, populations.

Each measure takes one state (d, d) or a stack (..., d, d).  CHSH,
negativity and populations evaluate a stack over blocks of its leading
axes (linalg.over_blocks; linalg._BLOCK_BYTES, 120 KiB, of states per
block), so a call holds its result and one block's temporaries: the
stack plus one block, never a temporary the size of the stack.  A
state's value does not depend on the block it is in, and a stack that
fits in one block, such as the single state of a sweep point, is
evaluated as it is.  Fidelity's temporary is 1/d of the stack.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .linalg import (BipartiteDims, check_bipartite, hermitian_eigvals, over_blocks,
                     partial_transpose)

SQRT2 = math.sqrt(2.0)


def _pauli_fa() -> tuple[np.ndarray, np.ndarray]:
    """sigma_x and sigma_y acting on the {|f>, |a>} subspace of a 3-level atom
    (|f> -> qubit 0, |a> -> qubit 1; zero row/column on |r>)."""
    sx = np.zeros((3, 3), dtype=complex)
    sx[0, 1] = sx[1, 0] = 1.0
    sy = np.zeros((3, 3), dtype=complex)
    sy[0, 1] = -1j
    sy[1, 0] = 1j
    return sx, sy


@functools.lru_cache(maxsize=None)
def chsh_operator(triplet_frame: bool = False) -> np.ndarray:
    """Four-term Bell operator on the 9-level two-atom space.

    Settings: atom 1 measures sigma_y and sigma_x; atom 2 measures
    (-sigma_y - sigma_x)/sqrt(2) and (sigma_y - sigma_x)/sqrt(2).  The
    singlet attains the maximal violation 2*sqrt(2).  With
    triplet_frame=True the atom-2 operators are conjugated by sigma_z
    (sigma_x -> -sigma_x, sigma_y -> -sigma_y), the settings under which
    the triplet attains 2*sqrt(2) instead.

    The result is cached and read-only: a repeated call returns the same
    array.
    """
    sx, sy = _pauli_fa()
    s = -1.0 if triplet_frame else 1.0
    a_plus = s * (-sy - sx) / SQRT2
    a_minus = s * (sy - sx) / SQRT2
    op = np.kron(sy, a_plus) + np.kron(sx, a_plus) + np.kron(sx, a_minus) - np.kron(sy, a_minus)
    op.flags.writeable = False
    return op


def _value(val: np.ndarray, rho: np.ndarray, what: str):
    """Real part of a measure: a float for one state, an array for a stack.
    An imaginary part beyond 1e-10 on any state raises ValueError."""
    imag = np.abs(val.imag).max(initial=0.0)
    if imag > 1e-10:
        raise ValueError(f"{what} has imaginary part {imag:.2e}; rho not Hermitian?")
    return float(val.real) if rho.ndim == 2 else val.real


def fidelity(psi: np.ndarray, rho: np.ndarray):
    """Overlap <psi|rho|psi> of a pure target with a density matrix, or
    with each one in a stack (..., d, d)."""
    psi = np.asarray(psi, dtype=complex).ravel()
    rho = np.asarray(rho)
    if rho.shape[-2:] != (psi.size, psi.size):
        raise ValueError(
            f"dimension mismatch: state has {psi.size} components, rho has shape {rho.shape}"
        )
    norm = np.linalg.norm(psi)
    if abs(norm - 1.0) > 1e-10:
        raise ValueError(f"target state must be unit norm, got |psi| = {norm:.12g}")
    return _value(np.vecdot(psi, rho @ psi), rho, "<psi|rho|psi>")


def chsh_correlation(rho: np.ndarray, triplet_frame: bool = False):
    """Tr(O_CHSH rho) for a 9-level Bell-scheme density matrix, or for each
    one in a stack (..., 9, 9).

    Values above 2 violate the Bell inequality; 2*sqrt(2) is the quantum
    maximum.  See chsh_operator for the triplet_frame switch.
    """
    rho = np.asarray(rho)
    if rho.shape[-2:] != (9, 9):
        raise ValueError(f"CHSH correlation needs a 9x9 Bell-scheme state, got shape {rho.shape}")
    op = chsh_operator(triplet_frame)
    val = over_blocks(lambda r: (op @ r).trace(axis1=-2, axis2=-1), rho)
    return _value(val, rho, "Tr(O rho)")


def negativity(rho: np.ndarray, dims: BipartiteDims):
    """Entanglement negativity (||rho^T_A||_1 - 1) / 2 of a state, or of
    each one in a stack (..., d, d).

    The equivalent form sum_j (|lambda_j| - lambda_j)/2 over the partial
    transpose spectrum is evaluated alongside as a permanent self-check;
    disagreement beyond 1e-10 raises RuntimeError.
    """
    rho = np.asarray(rho)
    check_bipartite(rho.shape, dims)  # names the whole stack's shape, not a block's
    from_norm = over_blocks(lambda r: _negativity(r, dims), rho)
    return float(from_norm) if from_norm.ndim == 0 else from_norm


def _negativity(rho: np.ndarray, dims: BipartiteDims) -> np.ndarray:
    lam = hermitian_eigvals(partial_transpose(rho, dims))
    from_norm = (np.sum(np.abs(lam), axis=-1) - 1.0) / 2.0
    from_negatives = np.sum((np.abs(lam) - lam) / 2.0, axis=-1)
    disagree = np.abs(from_norm - from_negatives) > 1e-10
    if np.any(disagree):
        k = np.argmax(disagree)  # flat index of the first failing state
        raise RuntimeError(
            f"negativity definitions disagree: trace-norm form {float(from_norm.flat[k])!r} vs "
            f"negative-eigenvalue form {float(from_negatives.flat[k])!r} (is trace(rho) = 1?)"
        )
    return from_norm


def populations(rho: np.ndarray, basis) -> np.ndarray:
    """Diagonal expectations <b|rho|b> for a list of unit kets: shape
    (len(basis),) for one state, (..., len(basis)) for a stack."""
    rho = np.asarray(rho)
    kets = [np.asarray(b, dtype=complex).ravel() for b in basis]
    for k, b in enumerate(kets):
        if rho.shape[-2:] != (b.size, b.size):
            raise ValueError(
                f"dimension mismatch: basis state {k} has {b.size} components, "
                f"rho has shape {rho.shape}"
            )
    kets = np.array(kets).reshape(len(kets), rho.shape[-1])
    # matvec and vecdot repeat np.vdot(b, rho @ b) per state and ket, to the bit.
    return over_blocks(lambda r: np.vecdot(kets, np.matvec(r[..., None, :, :], kets)).real, rho)
