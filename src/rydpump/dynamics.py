"""Liouvillian construction, time propagation and steady-state solvers.

Density matrices are vectorized by column stacking, so left and right
multiplication become Kronecker factors:

    vec(A rho B) = (B^T (x) A) vec(rho)

and the generator of

    d(rho)/dt = i[rho, H] + sum_k [ L_k rho L_k^dag
                                    - (L_k^dag L_k rho + rho L_k^dag L_k)/2 ]

is assembled term by term as a sparse matrix acting on vectors of length
dim^2.  The generator is time independent, so propagation reduces to
powers of a single short-time propagator expm(L*dt).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .linalg import dagger, hermiticity_defect
from .models import SystemModel


class NonUniqueSteadyStateError(RuntimeError):
    """The Liouvillian null space is not one-dimensional."""


class ConvergenceError(RuntimeError):
    """An integrator or solver failed to meet its tolerance."""


# Relative tolerance within which two propagation steps share one propagator.
_STEP_SNAP_RTOL = 1e-8


def vec(rho: np.ndarray) -> np.ndarray:
    """Column-stack a matrix into a vector."""
    return np.asarray(rho).reshape(-1, order="F")


def unvec(v: np.ndarray, dim: int) -> np.ndarray:
    """Inverse of vec; a stack (..., dim^2) of vectors gives (..., dim, dim)."""
    v = np.asarray(v)
    return v.reshape(v.shape[:-1] + (dim, dim)).swapaxes(-1, -2)


@dataclass
class Liouvillian:
    """Sparse superoperator on column-stacked density matrices.

    gamma_scale is the largest total decay rate (spectral norm of
    sum_k L_k^dag L_k); it sets the natural sampling step of the
    long-time steady-state backend.
    """

    dim: int
    superop: sp.csr_matrix
    gamma_scale: float
    _norm_1: float | None = field(default=None, repr=False)

    @property
    def norm_1(self) -> float:
        """Exact 1-norm of the superoperator (max column abs sum)."""
        if self._norm_1 is None:
            if self.superop.nnz == 0:
                self._norm_1 = 0.0
            else:
                self._norm_1 = float(np.max(np.abs(self.superop).sum(axis=0)))
        return self._norm_1

    def apply(self, rho: np.ndarray) -> np.ndarray:
        """Evaluate d(rho)/dt for a dense density matrix."""
        return unvec(self.superop @ vec(rho), self.dim)


def build_liouvillian(model: SystemModel) -> Liouvillian:
    """Assemble the master-equation generator of a SystemModel."""
    d = model.dim
    eye = sp.identity(d, dtype=complex, format="csr")
    ham = sp.csr_matrix(model.hamiltonian)
    # i[rho, H] = i (rho H - H rho)
    gen = 1j * (sp.kron(ham.T, eye, format="csr") - sp.kron(eye, ham, format="csr"))
    total_decay = np.zeros((d, d), dtype=complex)
    for op in model.lindblads:
        c = sp.csr_matrix(op)
        cdc = (c.getH() @ c).tocsr()
        gen = gen + sp.kron(c.conj(), c, format="csr") \
            - 0.5 * sp.kron(eye, cdc, format="csr") \
            - 0.5 * sp.kron(cdc.T, eye, format="csr")
        total_decay += cdc.toarray()
    rates = np.linalg.eigvalsh((total_decay + dagger(total_decay)) / 2)
    gamma_scale = float(rates[-1]) if len(model.lindblads) else 0.0
    return Liouvillian(dim=d, superop=gen.tocsr(), gamma_scale=gamma_scale)


@dataclass
class Trajectory:
    """Time grid and the states at those times, shape (nt, dim, dim)."""

    times: np.ndarray
    states: np.ndarray


def _require_density(rho: np.ndarray, dim: int, tol: float = 1e-10) -> np.ndarray:
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (dim, dim):
        raise ValueError(f"initial state must be {dim}x{dim}, got shape {rho.shape}")
    defect = hermiticity_defect(rho)
    if defect > tol:
        raise ValueError(f"initial state is not Hermitian: max|rho - rho^dag| = {defect:.2e}")
    tr = complex(np.trace(rho))
    if abs(tr - 1.0) > tol:
        raise ValueError(f"initial state must have unit trace, got trace = {tr:.12g}")
    min_eig = float(np.linalg.eigvalsh(rho)[0])
    if min_eig < -tol:
        raise ValueError(f"initial state is not positive semidefinite: min eigenvalue = {min_eig:.2e}")
    return rho


def _check_physical(states: np.ndarray, t: np.ndarray) -> None:
    """Raise ConvergenceError at the earliest unphysical state of a stack,
    naming its first failed check: trace, Hermiticity, positivity."""
    tr_err = np.abs(np.trace(states, axis1=-2, axis2=-1) - 1.0)
    defect = hermiticity_defect(states)
    min_eig = np.linalg.eigvalsh((states + dagger(states)) / 2)[:, 0]
    failed = np.argwhere(np.column_stack([tr_err > 1e-6, defect > 1e-8, min_eig < -1e-6]))
    if failed.size == 0:
        return
    k, check = failed[0]
    msg = (f"trace drifted by {tr_err[k]:.2e}", f"Hermiticity defect {defect[k]:.2e}",
           f"negative eigenvalue {min_eig[k]:.2e}")[check]
    raise ConvergenceError(f"{msg} at t = {t[k]:.6g} s")


def evolve(L: Liouvillian, rho0: np.ndarray, t_grid) -> Trajectory:
    """Propagate a density matrix over a time grid.

    Exact matrix-exponential propagators are applied per grid step (one
    expm per distinct step size; local error at rounding level).  Trace,
    Hermiticity and positivity are verified at every grid point
    (ConvergenceError names the earliest violation).

    Parameters
    ----------
    L : Liouvillian
    rho0 : ndarray
        Valid density matrix (Hermitian, unit trace, PSD to 1e-10).
    t_grid : array_like
        Strictly increasing times in seconds, starting at 0.

    Returns
    -------
    Trajectory
        The times and the states, a stack of shape (nt, dim, dim) that
        every measure accepts as it is.
    """
    t = np.asarray(t_grid, dtype=float)
    if t.ndim != 1 or t.size < 1:
        raise ValueError("t_grid must be a 1-D array of times")
    if abs(t[0]) > 1e-15:
        raise ValueError(f"t_grid must start at 0, got t[0] = {t[0]!r}")
    if t.size > 1 and np.any(np.diff(t) <= 0):
        raise ValueError("t_grid must be strictly increasing")
    rho = _require_density(rho0, L.dim)
    states = unvec(_propagate_expm(L, vec(rho), t), L.dim)
    _check_physical(states, t)
    return Trajectory(times=t, states=states)


def _propagate_expm(L: Liouvillian, v0: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Step through t with cached dense propagators expm(L*dt).

    Step sizes within _STEP_SNAP_RTOL/||L||_1 of each other share one
    propagator; the induced local error ||L||*|dt - dt_ref| stays below
    _STEP_SNAP_RTOL per step.
    """
    out = np.empty((t.size, v0.size), dtype=complex)
    out[0] = v0
    if t.size == 1:
        return out
    snap = _STEP_SNAP_RTOL / max(L.norm_1, 1.0)
    cache: list = []  # (dt_ref, propagator)
    v = v0
    for k, dt in enumerate(np.diff(t), start=1):
        prop = None
        for dt_ref, p in cache:
            if abs(dt - dt_ref) <= snap:
                prop = p
                break
        if prop is None:
            prop = sla.expm((L.superop * dt).toarray())
            cache.append((dt, prop))
        v = prop @ v
        out[k] = v
    return out


def steady_state(
    L: Liouvillian,
    *,
    method: str = "nullspace",
    rtol: float = 1e-8,
    null_cutoff: float = 1e-10,
    max_doublings: int = 60,
    return_info: bool = False,
):
    """Solve L rho = 0 with unit trace.

    Backends
    --------
    "nullspace"
        Dense SVD of the superoperator.  Detects a degenerate (non-unique)
        steady state from a second near-null singular direction and raises
        NonUniqueSteadyStateError.
    "evolve"
        Long-time propagation by repeated squaring of a short-time
        propagator (step 1/gamma_scale, horizon doubled until the residual
        criterion holds).  Converges to *a* steady state; it cannot detect
        degeneracy on its own.

    Either backend returns rho with relative residual
    ||L vec(rho)|| / (||L||_1 ||vec(rho)||) <= rtol, Hermitian, trace
    exactly renormalized to 1; otherwise ConvergenceError reports the
    achieved residual.  With return_info=True a dict with the backend
    name, residual and diagnostics is returned alongside.
    """
    if method == "nullspace":
        rho, info = _steady_nullspace(L, rtol, null_cutoff)
    elif method == "evolve":
        rho, info = _steady_evolve(L, rtol, max_doublings)
    else:
        raise ValueError(f"unknown method {method!r}; expected 'nullspace' or 'evolve'")
    return (rho, info) if return_info else rho


def _residual(L: Liouvillian, v: np.ndarray) -> float:
    scale = max(L.norm_1, np.finfo(float).tiny)
    return float(np.linalg.norm(L.superop @ v) / (scale * np.linalg.norm(v)))


def _finalize(L: Liouvillian, v: np.ndarray, rtol: float, info: dict):
    rho = unvec(v, L.dim)
    rho = (rho + dagger(rho)) / 2.0
    tr = complex(np.trace(rho))
    if abs(tr) < 1e-6 * np.linalg.norm(rho):
        raise NonUniqueSteadyStateError(
            "steady-state candidate is traceless; the stationary subspace is degenerate"
        )
    rho = rho / tr.real
    res = _residual(L, vec(rho))
    info["residual"] = res
    if res > rtol:
        raise ConvergenceError(
            f"steady-state residual {res:.3e} exceeds tolerance {rtol:.1e} "
            f"(backend {info['method']})"
        )
    return rho, info


def _steady_nullspace(L: Liouvillian, rtol: float, null_cutoff: float):
    mat = L.superop.toarray()
    _, svals, vh = sla.svd(mat)
    if svals[0] == 0.0:
        raise NonUniqueSteadyStateError(
            "non-unique steady state: zero Liouvillian, every state is stationary"
        )
    near_null = int(np.sum(svals <= null_cutoff * svals[0]))
    if near_null == 0:
        raise ConvergenceError(
            f"no null direction found: smallest relative singular value "
            f"{svals[-1] / svals[0]:.3e} exceeds cutoff {null_cutoff:.1e}"
        )
    if near_null > 1:
        shown = ", ".join(f"{s / svals[0]:.1e}" for s in svals[-near_null:][:4])
        if near_null > 4:
            shown += ", ..."
        raise NonUniqueSteadyStateError(
            f"non-unique steady state: {near_null} singular directions below "
            f"{null_cutoff:.1e} * sigma_max (relative values {shown})"
        )
    v = vh[-1].conj()
    info = {"method": "nullspace", "second_smallest_rel": float(svals[-2] / svals[0])}
    return _finalize(L, v, rtol, info)


def _steady_evolve(L: Liouvillian, rtol: float, max_doublings: int):
    if L.gamma_scale <= 0.0:
        raise NonUniqueSteadyStateError(
            "no dissipative channels: long-time propagation cannot converge"
        )
    if max_doublings < 1:
        raise ValueError(f"max_doublings must be >= 1, got {max_doublings}")
    d = L.dim
    dt = 1.0 / L.gamma_scale
    prop = sla.expm((L.superop * dt).toarray())
    v = vec(np.eye(d, dtype=complex) / d)
    horizon = 0.0
    res_prev = math.inf
    res = _residual(L, v)
    for k in range(max_doublings):
        v = prop @ v
        horizon += dt * 2.0**k
        v = v / np.trace(unvec(v, d)).real  # guard against rounding drift
        res = _residual(L, v)
        # Once below tolerance, keep doubling to the numerical floor: stop
        # when the residual no longer improves (or is already negligible).
        if res <= rtol and (res <= 1e-13 or res > 0.25 * res_prev):
            break
        res_prev = res
        prop = prop @ prop
    else:
        if res > rtol:
            raise ConvergenceError(
                f"long-time propagation did not converge: residual {res:.3e} after "
                f"{max_doublings} doublings ({horizon:.3g} s of model time)"
            )
    info = {"method": "evolve", "doublings": k + 1, "model_time": horizon}
    return _finalize(L, v, rtol, info)
