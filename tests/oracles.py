"""Independent oracles shared by the test modules: dense generators,
steady states, relaxation rates and ||L^D||_2 computed without the
package's plans, real form or in-place loops, a long-double expm, and
the trace-bordered real form gathered densely into band storage."""

import math
from unittest import mock

import numpy as np
import pytest
from scipy.linalg import lu_factor, lu_solve
from scipy.linalg.lapack import dgbtrs

from rydpump import dynamics
from rydpump.dynamics import (_DRAZIN_MARGIN, _DRAZIN_RTOL, _DRAZIN_STEPS, _bordered_lu,
                              _drazin_norm, unvec, vec)


def kron_liouvillian(h, lindblads):
    """Dense generator summed term by term from np.kron (independent oracle
    for the sparse assembly)."""
    eye = np.eye(h.shape[0])
    gen = -1j * (np.kron(eye, h) - np.kron(h.T, eye))
    for c in lindblads:
        cdc = c.conj().T @ c
        gen = gen + np.kron(c.conj(), c) - 0.5 * np.kron(eye, cdc) - 0.5 * np.kron(cdc.T, eye)
    return gen


def refined_steady_state(h, lindblads):
    """Unit-trace state of the dense generator with its first row replaced
    by the trace functional: one complex LU solve and three refinement
    steps, each residual computed in np.longdouble (oracle for the LU
    backend that uses neither T, L.real nor the plans, and that stays
    accurate at slow gaps off resonance)."""
    d = h.shape[0]
    mat = kron_liouvillian(h, lindblads)
    mat[0] = 0.0
    mat[0, ::d + 1] = 1.0
    lu = lu_factor(mat)
    b = np.zeros(d * d, dtype=np.clongdouble)
    b[0] = 1.0
    x = lu_solve(lu, b.astype(complex)).astype(np.clongdouble)
    for _ in range(3):
        x += lu_solve(lu, (b - mat.astype(np.clongdouble) @ x).astype(complex))
    return unvec(x.astype(complex), d)


def dense_rates(h, lindblads):
    """Relaxation rates -Re(lambda) of all eigenvalues, ascending, from a
    dense eigvals of the complex vec generator (oracle for the gap, which
    comes from the real form); the first is the stationary eigenvalue and
    the second the gap."""
    return np.sort(-np.linalg.eigvals(kron_liouvillian(h, lindblads)).real)


def dense_hermitian_basis(d):
    """Columns vec(B) of |i><i|, (|i><j| + |j><i|)/sqrt2 and
    i(|j><i| - |i><j|)/sqrt2 (i < j), built from outer products (oracle
    for the sparse index arithmetic)."""
    eye = np.eye(d)
    pairs = [(i, j) for i in range(d) for j in range(i + 1, d)]
    mats = [np.outer(eye[i], eye[i]) for i in range(d)]
    mats += [(np.outer(eye[i], eye[j]) + np.outer(eye[j], eye[i])) / math.sqrt(2) for i, j in pairs]
    mats += [1j * (np.outer(eye[j], eye[i]) - np.outer(eye[i], eye[j])) / math.sqrt(2)
             for i, j in pairs]
    return np.column_stack([vec(b) for b in mats])


def longdouble_expm(a):
    """expm(a) by Taylor series and scaling and squaring in np.longdouble."""
    a = np.asarray(a, dtype=np.longdouble)
    norm = float(np.max(np.abs(a).sum(axis=0)))
    squarings = max(0, math.ceil(math.log2(norm / 0.25))) if norm > 0 else 0
    a = a / np.longdouble(2) ** squarings
    term = out = np.eye(a.shape[0], dtype=np.longdouble)
    for k in range(1, 40):
        term = term @ a / k
        out = out + term
        if np.max(np.abs(term)) <= np.finfo(np.longdouble).eps * 1e-3:
            break
    for _ in range(squarings):
        out = out @ out
    return out


def dense_drazin_norm(L):
    """||P B^-1 E P||_2 from a dense inverse and SVD: B is the trace-bordered
    real form, E zeroes entry 0 and P projects out the trace (oracle for
    _drazin_norm's power iteration)."""
    d, n = L.dim, L.dim**2
    border = L.real.copy()
    border[0] = 0.0
    border[0, :d] = 1.0
    proj = np.eye(n)
    proj[:d, :d] -= 1.0 / d
    drop0 = np.eye(n)
    drop0[0, 0] = 0.0
    return float(np.linalg.norm(proj @ np.linalg.inv(border) @ drop0 @ proj, 2))


def bordered_real_form(L):
    """L.real, a new Fortran-ordered array, with row 0 replaced by the
    trace functional."""
    mat = L.real
    mat[0] = 0.0
    mat[0, : L.dim] = 1.0
    return mat


def gathered_band(L, layout):
    """dgbtrf's band array, (2 kl + ku + 1, n) Fortran-ordered, of the dense
    bordered_real_form(L) in the band layout's order, gathered entry by
    entry; it asserts first that perm = argsort(inv) is a permutation and
    that every nonzero of the permuted form lies within the layout's kl and
    ku (oracle for the band assembly, which sums the terms straight into
    band storage)."""
    n = L.dim**2
    perm, kl, ku = np.argsort(layout.inv), layout.kl, layout.ku
    assert np.array_equal(np.sort(perm), np.arange(n))
    assert np.array_equal(layout.inv[perm], np.arange(n))
    dense = bordered_real_form(L)[np.ix_(perm, perm)]
    i, j = np.nonzero(dense)
    assert np.all(j - i <= ku) and np.all(i - j <= kl)
    ab = np.zeros((2 * kl + ku + 1, n), order="F")
    for k in range(-kl, ku + 1):  # the diagonal k above the main one
        cols = np.arange(max(k, 0), min(n, n + k))
        ab[kl + ku - k, cols] = dense[cols - k, cols]
    return ab


def loop_drazin_norm(L, lu):
    """The power loop _drazin_norm replaced: in the original coordinates,
    a fresh vector from each of scipy's band solves, which the band layout's
    order is applied to and undone around explicitly, the trace projected
    out after both solves, and the vector scaled at the top of each step.
    Returns its estimate times the margin and its number of steps (oracle
    for the in-place loop in the band order, equal to it up to rounding)."""
    d = L.dim
    ab, piv, layout = lu
    kl, ku, inv = layout.kl, layout.ku, layout.inv
    perm = np.argsort(inv)
    assert np.array_equal(inv[perm], np.arange(d * d))
    x = np.random.default_rng(0).standard_normal(d * d)
    x[:d] -= x[:d].sum() / d
    est = 0.0
    for step in range(1, _DRAZIN_STEPS + 1):
        x /= math.sqrt(x @ x)
        x[0] = 0.0
        y = dgbtrs(ab, kl, ku, x[perm], piv)[0][inv]
        y[:d] -= y[:d].sum() / d
        x = dgbtrs(ab, kl, ku, y[perm], piv, trans=1)[0][inv]
        x[0] = 0.0
        x[:d] -= x[:d].sum() / d
        prev, est = est, math.sqrt(math.sqrt(x @ x))
        if abs(est - prev) <= _DRAZIN_RTOL * est:
            break
    return _DRAZIN_MARGIN * est, step


def assert_drazin_norm_matches_loop(L, rel=1e-12):
    """_drazin_norm is within rel of loop_drazin_norm, after as many steps:
    pairs of a band solve and a transposed band solve on the same factors."""
    lu = _bordered_lu(L)
    want, steps = loop_drazin_norm(L, lu)
    with mock.patch.object(dynamics, "_gbtrs", wraps=dynamics._gbtrs) as gbtrs:
        got = _drazin_norm(L, lu)
    assert [c.kwargs.get("trans", 0) for c in gbtrs.call_args_list] == [0, 1] * steps
    assert all(c.args[0] is lu[0] and c.args[4] is lu[1] for c in gbtrs.call_args_list)
    assert got == pytest.approx(want, rel=rel, abs=0)
