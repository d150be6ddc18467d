"""Liouvillian construction, time propagation and steady-state solvers.

Density matrices are vectorized by column stacking, so left and right
multiplication become Kronecker factors:

    vec(A rho B) = (B^T (x) A) vec(rho)

With the non-Hermitian effective Hamiltonian H_eff = H - (i/2) sum_k L_k^dag L_k,
the generator of

    d(rho)/dt = -i H_eff rho + i rho H_eff^dag + sum_k L_k rho L_k^dag

is the sparse matrix -i (I (x) H_eff) + i (conj(H_eff) (x) I) + sum_k conj(L_k) (x) L_k
acting on vectors of length dim^2.  The generator is time independent,
so propagation reduces to powers of a single short-time propagator
expm(L*dt).
"""

from __future__ import annotations

import math
import warnings
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

# A steady state is accepted when its error bound ||L vec(rho)||_2 / gap
# is at most _ERROR_BOUND_MAX and its smallest eigenvalue is at least
# _MIN_EIGENVALUE.  A residual alone does not certify it: ||L|| is set by
# the detuning, about 1e4 times the relaxation rates.
_ERROR_BOUND_MAX = 1e-8
_MIN_EIGENVALUE = -1e-9

# A gap at or below _GAP_FLOOR * eps * ||L||_1 is the rounding floor of a
# computed eigenvalue: the stationary subspace is degenerate.
_GAP_FLOOR = 1e3

# e-folds after which the slowest mode has decayed below machine epsilon.
_EPS_E_FOLDS = -math.log(np.finfo(float).eps)


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
    jumps = [sp.csr_matrix(op) for op in model.lindblads]
    decay = sum((c.getH() @ c for c in jumps), sp.csr_matrix((d, d), dtype=complex))
    heff = sp.csr_matrix(model.hamiltonian) - 0.5j * decay
    gen = -1j * sp.kron(eye, heff, format="csr") + 1j * sp.kron(heff.conj(), eye, format="csr")
    for c in jumps:
        gen = gen + sp.kron(c.conj(), c, format="csr")
    decay = decay.toarray()
    rates = np.linalg.eigvalsh((decay + dagger(decay)) / 2)
    gamma_scale = float(rates[-1]) if jumps else 0.0
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
    max_doublings: int = 60,
    return_info: bool = False,
):
    """Solve L rho = 0 with unit trace.

    Both backends factor L once by dense LU, with its first row (the
    rho_00 equation) replaced by the trace functional.  The same factors
    give the Liouvillian gap, the slowest relaxation rate -Re(lambda)
    over the nonzero eigenvalues of L (Minganti et al., PRA 98, 042118):
    on traceless vectors the bordered solve applies the Drazin inverse of
    L, and its two eigenvalues mu of largest modulus (ARPACK) give
    gap = min -Re(1/mu).  These belong to the modes of smallest |lambda|,
    so a weakly damped mode that oscillates fast can be missed, and the
    gap then reads high.  An exactly zero pivot, or a gap at the rounding
    floor 1e3 * eps * ||L||_1, raises NonUniqueSteadyStateError.

    Backends
    --------
    "nullspace"
        The bordered solve with right-hand side e_0.
    "evolve"
        Propagation of I/dim by repeated squaring of expm(L/gamma_scale),
        with the horizon doubled until exp(-gap * horizon) < eps.

    rho is returned Hermitian with trace exactly 1.  ConvergenceError is
    raised when the relative residual ||L vec(rho)|| / (||L||_1 ||vec(rho)||)
    exceeds rtol, when the error bound ||L vec(rho)||_2 / gap exceeds
    1e-8, or when an eigenvalue of rho is below -1e-9.  With
    return_info=True a dict with the backend name ("method"), "gap" (1/s),
    "residual", "error_bound" and backend diagnostics is returned too.
    """
    if method not in ("nullspace", "evolve"):
        raise ValueError(f"unknown method {method!r}; expected 'nullspace' or 'evolve'")
    if method == "evolve" and L.gamma_scale <= 0.0:
        raise NonUniqueSteadyStateError(
            "no dissipative channels: long-time propagation cannot converge"
        )
    lu = _bordered_lu(L)
    gap = _liouvillian_gap(L, lu)
    if method == "nullspace":
        e0 = np.zeros(L.dim**2, dtype=complex)
        e0[0] = 1.0
        v = sla.lu_solve(lu, e0)
        info = {"method": "nullspace"}
    else:
        v, info = _steady_evolve(L, gap, max_doublings)
    info["gap"] = gap
    rho, info = _finalize(L, v, rtol, info)
    return (rho, info) if return_info else rho


def _bordered_lu(L: Liouvillian):
    """LU factors of L with row 0 replaced by the trace functional."""
    d = L.dim
    mat = L.superop.toarray()
    mat[0] = 0.0
    mat[0, :: d + 1] = 1.0
    with warnings.catch_warnings():
        # An exactly zero pivot is reported below as non-uniqueness.
        warnings.simplefilter("ignore", sla.LinAlgWarning)
        lu = sla.lu_factor(mat, overwrite_a=True)
    zero = np.flatnonzero(np.diagonal(lu[0]) == 0.0)
    if zero.size:
        raise NonUniqueSteadyStateError(
            f"non-unique steady state: {zero.size} exactly zero pivot(s) in the "
            f"LU factors of the trace-bordered Liouvillian"
        )
    return lu


def _liouvillian_gap(L: Liouvillian, lu) -> float:
    """Smallest relaxation rate of L, from the trace-bordered LU factors."""
    # Imported here: scipy.sparse.linalg would add to every CLI start-up.
    from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigs

    n = L.dim**2

    def drazin(y):
        # Solves L x = y - tr(y) e_0 with tr(x) = 0: on traceless y this is
        # the Drazin inverse of L, whose eigenvalues are 1/lambda.
        rhs = np.array(y, dtype=complex).reshape(n)
        rhs[0] = 0.0
        return sla.lu_solve(lu, rhs, check_finite=False)

    # A fixed start vector makes the gap reproducible from run to run.
    v0 = np.random.default_rng(0).standard_normal(n).astype(complex)
    try:
        mu = eigs(LinearOperator((n, n), matvec=drazin, dtype=complex), k=2, which="LM",
                  v0=v0, return_eigenvectors=False)
    except ArpackNoConvergence as exc:
        raise ConvergenceError(f"Liouvillian gap: {exc}") from None
    gap = float(np.min(-(1.0 / mu).real))
    floor = _GAP_FLOOR * np.finfo(float).eps * L.norm_1
    if gap <= floor:
        raise NonUniqueSteadyStateError(
            f"non-unique steady state: Liouvillian gap {gap:.3e} 1/s is at the "
            f"rounding floor {floor:.1e} 1/s"
        )
    return gap


def _finalize(L: Liouvillian, v: np.ndarray, rtol: float, info: dict):
    """Hermitian unit-trace rho from v, certified by info["gap"]."""
    rho = unvec(v, L.dim)
    rho = (rho + dagger(rho)) / 2.0
    rho = rho / np.trace(rho).real
    v = vec(rho)
    defect = float(np.linalg.norm(L.superop @ v))
    res = defect / float(max(L.norm_1, np.finfo(float).tiny) * np.linalg.norm(v))
    bound = defect / info["gap"]
    info["residual"] = res
    info["error_bound"] = bound
    backend = info["method"]
    if res > rtol:
        raise ConvergenceError(
            f"steady-state residual {res:.3e} exceeds tolerance {rtol:.1e} (backend {backend})"
        )
    if bound > _ERROR_BOUND_MAX:
        raise ConvergenceError(
            f"steady-state error bound ||L rho|| / gap = {bound:.3e} exceeds "
            f"{_ERROR_BOUND_MAX:.0e} (backend {backend})"
        )
    min_eig = float(np.linalg.eigvalsh(rho)[0])
    if min_eig < _MIN_EIGENVALUE:
        raise ConvergenceError(
            f"steady state has eigenvalue {min_eig:.3e} below {_MIN_EIGENVALUE:.0e} "
            f"(backend {backend})"
        )
    return rho, info


def _steady_evolve(L: Liouvillian, gap: float, max_doublings: int):
    if max_doublings < 1:
        raise ValueError(f"max_doublings must be >= 1, got {max_doublings}")
    d = L.dim
    dt = 1.0 / L.gamma_scale
    # After k doublings the horizon is dt * (2^k - 1).
    doublings = max(1, math.ceil(math.log2(_EPS_E_FOLDS / (gap * dt) + 1.0)))
    if doublings > max_doublings:
        raise ConvergenceError(
            f"long-time propagation needs {doublings} horizon doublings to relax the "
            f"slowest mode (gap {gap:.3e} 1/s), more than max_doublings = {max_doublings}"
        )
    prop = sla.expm((L.superop * dt).toarray())
    v = vec(np.eye(d, dtype=complex) / d)
    for k in range(doublings):
        if k:
            prop = prop @ prop
        v = prop @ v
        v = v / np.trace(unvec(v, d)).real  # guard against rounding drift
    info = {"method": "evolve", "doublings": doublings, "model_time": dt * (2.0**doublings - 1.0)}
    return v, info
