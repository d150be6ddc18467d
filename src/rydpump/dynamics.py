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

L maps Hermitian matrices to Hermitian matrices, so in an orthonormal
Hermitian basis it is a real matrix (the coherence-vector form of a
Lindblad generator).  The basis T takes |i><i| first, so the trace is the
sum of the first dim coordinates, then (|i><j| + |j><i|)/sqrt2 and
i(|j><i| - |i><j|)/sqrt2 for i < j; it is kept once, as its two-entry rows
(_hermitian_rows), which every change of basis gathers from.
Liouvillian.real assembles the dense real form T^dag L T, Fortran-ordered,
which evolve's expm and the gap read.  The steady state factors the same
form, trace-bordered, as a band matrix.  One plan per pattern, _real_plan,
lists the form's terms, which both sum.  The band layout belongs to the
factorisation: a plan's first band LU orders the coordinates by
Cuthill-McKee and keeps that layout on the plan, so expm and the gap never
run it.  At dim 20 it leaves 129 of 400 diagonals either side, so the band
LU does about half the work of a dense one.  The LU, its error
certificate and the gap work in real arithmetic, which costs about a
third of the complex products.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
from scipy.sparse import _sparsetools

from .linalg import blocks, hermiticity_defect
from .models import SystemModel


class NonUniqueSteadyStateError(RuntimeError):
    """The Liouvillian null space is not one-dimensional."""


class ConvergenceError(RuntimeError):
    """An integrator or solver failed to meet its tolerance."""


# Relative tolerance within which two propagation steps share one propagator.
_STEP_SNAP_RTOL = 1e-8

# A steady state is accepted when its relative residual is at most
# _RESIDUAL_RTOL, its error bound ||L^D||_2 ||L vec(rho)||_2 at most
# _ERROR_BOUND_MAX and its smallest eigenvalue at least _MIN_EIGENVALUE.
# The error rho - rho_ss is traceless, so it equals L^D (L vec(rho)), L^D
# the Drazin inverse, for any L.  A residual alone does not certify a
# state: ||L|| is set by the detuning, about 1e4 times the relaxation rates.
_ERROR_BOUND_MAX = 1e-8
_MIN_EIGENVALUE = -1e-9
_RESIDUAL_RTOL = 1e-8
# An initial state is Hermitian, of unit trace and PSD to _DENSITY_TOL.
_DENSITY_TOL = 1e-10

# ||L^D||_2 is estimated by power iteration, stopped once two consecutive
# estimates agree to _DRAZIN_RTOL or after _DRAZIN_STEPS steps.  Power
# iteration converges from below; _DRAZIN_MARGIN covers what is left.
_DRAZIN_RTOL = 1e-3
_DRAZIN_STEPS = 8
_DRAZIN_MARGIN = 1.05

# A rate (the gap, or 1/||L^D||_2) at or below _GAP_FLOOR * eps * ||L||_1
# is the rounding floor of a computed eigenvalue: the stationary subspace
# is degenerate.
_GAP_FLOOR = 1e3

# A Cholesky factorisation that runs to completion on a d x d matrix A is
# exact for some A + dA with ||dA||_2 <= d (d + 1) u ||A + dA||_2, u = eps/2
# (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
# Thm 10.5), and ||A + dA||_2 <= tr(A + dA), about 1 for a unit-trace
# state: below 5e-14 at d = 20.  Success on rho - (b + margin) I, rho Hermitian,
# with margin the larger of _CHOLESKY_MARGIN and 4 d (d + 1) eps, therefore
# proves a smallest eigenvalue of at least b (-1e-6 in evolve, -1e-9 for a
# steady state), with room for complex arithmetic and for eigvalsh's own
# error.
_CHOLESKY_MARGIN = 1e-12
_EPS, _TINY, _HUGE = np.finfo(float).eps, np.finfo(float).tiny, np.finfo(float).max

# LAPACK's band LU and solve of the float64 real form, called directly: the
# wrappers' finiteness scans and checks cost more than a Bell solve.
_gbtrf = sla.lapack.dgbtrf
_gbtrs = sla.lapack.dgbtrs
_potrf = sla.lapack.zpotrf
# scipy's CSR matrix-vector kernel, which superop @ v reaches after its dispatch.
_csr_matvec = _sparsetools.csr_matvec

# The "evolve" backend doubles its horizon at most _MAX_DOUBLINGS times.
_MAX_DOUBLINGS = 60


def vec(rho: np.ndarray) -> np.ndarray:
    """Column-stack a matrix into a vector."""
    return np.asarray(rho).reshape(-1, order="F")


def unvec(v: np.ndarray, dim: int) -> np.ndarray:
    """Inverse of vec; a stack (..., dim^2) of vectors gives (..., dim, dim)."""
    v = np.asarray(v)
    return v.reshape(v.shape[:-1] + (dim, dim)).swapaxes(-1, -2)


@dataclass(eq=False)
class Liouvillian:
    """Sparse superoperator on column-stacked density matrices, with decay,
    the matrix sum_k L_k^dag L_k of its jump operators.

    gamma_scale, the largest total decay rate (spectral norm of decay),
    sets the natural sampling step of the long-time steady-state backend;
    it and norm_1 are computed on first read and kept.
    """

    dim: int
    superop: sp.csr_matrix
    decay: np.ndarray

    @functools.cached_property
    def gamma_scale(self) -> float:
        """Largest eigenvalue of decay, which is Hermitian as built."""
        return float(np.linalg.eigvalsh(self.decay)[-1])

    @functools.cached_property
    def norm_1(self) -> float:
        """Exact 1-norm of the superoperator (max column abs sum)."""
        s = self.superop
        return float(np.bincount(s.indices, np.abs(s.data), minlength=self.dim**2).max())

    @property
    def real(self) -> np.ndarray:
        """A new dense float64 real form T^dag L T, T from _hermitian_rows,
        Fortran-ordered; each read assembles it afresh.

        Each stored entry L[r, c] adds Re(conj(T[r, k]) L[r, c] T[c, l]) to
        R[k, l] for the at most 2 entries of rows r and c of T.  Every such
        factor of T is real or imaginary, so for a finite L that real part
        is one product of real numbers, (a part) b, with part the real or
        the imaginary part of L[r, c]: the bytes of the complex product,
        up to the sign of a zero, which a sum from +0 does not keep.

        The factors a and b, the part each term reads and the target
        positions depend only on the superop's pattern and the mask of its
        nonzero parts, so they come from the plan per pattern (_real_plan)
        that the band LU reads too; a read sums its terms with one bincount."""
        plan, terms = _real_terms(self)
        n = self.dim**2
        # bincount of no entries gives integers; the form is float64 for every L.
        return np.bincount(plan.dense, terms, minlength=n * n) \
            .astype(float, copy=False).reshape(n, n, order="F")


@functools.lru_cache(maxsize=None)
def _hermitian_rows(d: int):
    """The unitary T, whose columns are the vecs of the Hermitian basis, as
    read-only (d^2, 2) arrays col and scale: row r of T is scale[r, 0] at
    col[r, 0] plus 1j * scale[r, 1] at col[r, 1] > col[r, 0] (a diagonal
    row: 0 at column 0)."""
    i, j = np.triu_indices(d, k=1)
    ij, ji = i + j * d, j + i * d  # vec positions of |i><j| and |j><i|
    pair = d + np.arange(i.size)
    s = 1.0 / math.sqrt(2.0)
    col, scale = np.zeros((d * d, 2), dtype=np.intp), np.zeros((d * d, 2))
    col[::d + 1, 0], scale[::d + 1, 0] = np.arange(d), 1.0
    col[ij] = col[ji] = np.column_stack([pair, pair + i.size])
    scale[ij], scale[ji] = [s, -s], [s, s]
    return _frozen(col, scale)


def _from_coords(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write T x, for real coordinates x (..., d^2), into out, a C-contiguous
    complex array of the same shape, and return out.

    Row r of T is a real scale[r, 0] at col[r, 0] plus an imaginary
    1j * scale[r, 1] at col[r, 1], so Re and Im of (T x)_r are one product
    each: a gather of col into the float view of out, a scale and an add
    of +0 make them with no temporary.  For finite x these are the bytes
    of the sparse product, which rounds each product once and sums from +0."""
    col, scale = _hermitian_rows(math.isqrt(x.shape[-1]))
    flat = out.view(float)
    # mode="clip" writes into out directly; "raise" would buffer (col is in range).
    np.take(x, col.ravel(), axis=-1, out=flat, mode="clip")
    flat *= scale.ravel()
    flat += 0.0  # no entry ends at -0
    return out


def _to_coords(v: np.ndarray, d: int) -> np.ndarray:
    """Re T^dag v, each sum from 0 over T's rows in order, by one bincount."""
    col, scale = _hermitian_rows(d)
    return np.bincount(col.ravel(), (scale * np.column_stack([v.real, v.imag])).ravel(),
                       minlength=d * d)


# Plans hold index arrays that depend only on the dimensions and nonzero
# pattern of their inputs, never on the values; a sweep reuses one pattern
# at every point.  Each cache keeps this many patterns.
_PLAN_CACHE_SIZE = 16


def _frozen(*arrays):
    for a in arrays:
        a.flags.writeable = False
    return arrays


@functools.lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _generator_plan(d: int, h_mask: bytes, jump_mask: bytes):
    """build_liouvillian's plan for an H and a stack of jumps c, (k, d, d),
    with these nonzero masks: read-only index arrays for decay and for the
    generator, and an empty d^2 x d^2 complex CSR matrix.

    Decay: the flat positions in c of the two factors of every product
    conj(c[o, r, i]) c[o, r, l] over pairs of entries in one row of one
    operator, and the flat position (o, i, l) each product adds to.

    Generator: the triplets of sum_t scale[t] * kron(left[t], right[t]),
    with left = [I, conj(H_eff), conj(c_1), ...] and right = [H_eff, I, c_1,
    ...].  H_eff = H - (i/2) decay is taken nonzero wherever H is or a decay
    product adds to; the plan counts those entries, and build_liouvillian
    makes the triplets of any that cancel exactly add nothing.  Every pair
    of nonzero entries left[t, ai, aj], right[t, bi, bj] gives a triplet at
    (ai*d + bi, aj*d + bj).  Sorted stably by position, each entry's
    triplets stay in term order.  The plan lists the first triplet of every
    entry, then the others, and holds for each the positions of its two
    factors in build_liouvillian's flat factor values and its term scale;
    for the others, the entry they add to; the row and column of every
    entry; and the CSR row pointer of the entries, which holds while none
    is zero.

    The count and the CSR matrix follow the arrays.  The CSR matrix is
    never handed out: build_liouvillian takes a shallow copy and gives it
    its own data, indices and indptr, which the plan already made valid,
    canonical and of scipy's index dtype.  The constructor would re-derive
    that dtype and scan both index arrays."""
    n = d * d
    jumps = np.frombuffer(jump_mask, dtype=bool).reshape(-1, d, d)
    # Every pair (i, l) of entries in row r of jump o (np.nonzero of 4-D is ~15x slower).
    pair = jumps[:, :, :, None] & jumps[:, :, None, :]
    o, r, i, l = np.unravel_index(np.flatnonzero(pair), pair.shape)
    heff = np.frombuffer(h_mask, dtype=bool).reshape(d, d).copy()
    heff.flat[i * d + l] = True
    eye = np.eye(d, dtype=bool)
    left = np.concatenate([[eye, heff], jumps])
    right = np.concatenate([[heff, eye], jumps])
    # Flat positions a in left[t] and b in right[t] of every pair, term by term.
    a, b, t = [], [], []
    for k, (at, bt) in enumerate(zip(map(np.flatnonzero, left), map(np.flatnonzero, right))):
        a.append(np.repeat(at, bt.size))
        b.append(np.tile(bt, at.size))
        t.append(np.full(at.size * bt.size, k))
    a, b, t = map(np.concatenate, (a, b, t))
    (ai, aj), (bi, bj) = np.divmod(a, d), np.divmod(b, d)
    pos = (ai * d + bi) * n + aj * d + bj
    order = np.argsort(pos, kind="stable")
    pos = pos[order]
    new = np.ones(pos.size, dtype=bool)
    new[1:] = pos[1:] != pos[:-1]
    # The first triplet of every entry, then the rest, each in sorted order.
    take = np.concatenate([order[new], order[~new]])
    scale = np.array([-1j, 1j] + [1.0] * (len(left) - 2))
    # Positions in the factor values: 1, H_eff, the jumps (jumps.size
    # entries), conj(H_eff), the conjugate jumps.
    flat_l = np.where(t == 0, 0, 1 + jumps.size + t * n + a)
    flat_r = np.where(t == 1, 0, 1 + b + np.maximum(t - 1, 0) * n)
    slot = np.cumsum(new)[~new] - 1
    entry = pos[new]
    # scipy's index dtype for a CSR matrix of this size.
    index = np.int32 if max(n, entry.size) <= np.iinfo(np.int32).max else np.int64
    base = (o * d + r) * d
    return _frozen(base + i, base + l, (o * d + i) * d + l, flat_l[take], flat_r[take],
                   scale[t[take]], slot, entry // n, (entry % n).astype(index),
                   np.searchsorted(entry // n, np.arange(n + 1)).astype(index)) \
        + (np.count_nonzero(heff), sp.csr_matrix((n, n), dtype=complex))


def build_liouvillian(model: SystemModel) -> Liouvillian:
    """Assemble the master-equation generator of a SystemModel.

    Each term, -i(I (x) H_eff), i(conj(H_eff) (x) I) and conj(c) (x) c per
    jump in order, is the Kronecker product of two dense dim x dim
    operators A and B.  Every pair of nonzero entries A[ai, aj], B[bi, bj]
    gives the triplet (ai*dim + bi, aj*dim + bj, A[ai, aj]*B[bi, bj]); the
    triplets of each entry are summed in term order, left to right, and
    exact zeros are dropped.  Entry for entry this is the generator that
    sparse Kronecker products and sparse additions give, without their
    per-call cost.

    Which entries pair, where each triplet lands and the order of the sums
    depend only on dim and the nonzero masks of H and the jumps, so they
    are planned once per pattern, with the pairing of decay =
    sum_k c_k^dag c_k (_generator_plan).  A call forms decay, writes the
    factor values once, flat (the identity's 1, H_eff, the jumps and their
    conjugates), gathers each triplet's two factors from them, multiplies,
    sums each entry's triplets and drops the entries that are zero; every
    value is recomputed from H and the jumps at every call.  While no entry
    is zero, the result takes copies of the plan's column indices and row
    pointer.  The CSR matrix is a shallow copy of the plan's empty one given
    these arrays, so scipy does not check them again.  gamma_scale is left
    to its first read, from decay.
    """
    d = model.dim
    n = d * d
    c = np.asarray(model.lindblads, dtype=complex).reshape(-1, d, d)
    first, second, target, li, ri, scale, slot, row, col, indptr, heff_nnz, empty = \
        _generator_plan(d, np.not_equal(model.hamiltonian, 0).tobytes(), (c != 0).tobytes())
    # decay is rounded exactly as scipy.sparse rounds the sum of c^dag @ c:
    # over the rows of each operator in order, then over the operators, each
    # product as (ar br - ai bi, ar bi + ai br).  numpy's complex multiply
    # may fuse these and round otherwise.
    a, b = c.take(first), c.take(second)
    prod = np.empty(a.size, dtype=complex)
    prod.real = a.real * b.real + a.imag * b.imag
    prod.imag = a.real * b.imag - a.imag * b.real
    per_op = np.zeros(c.shape, dtype=complex)
    np.add.at(per_op.reshape(-1), target, prod)  # repeated indices add in order
    decay = per_op.sum(axis=0)
    m = c.size
    factors = np.empty(1 + 2 * (n + m), dtype=complex)
    factors[0] = 1.0
    heff = factors[1:n + 1].reshape(d, d)
    np.subtract(model.hamiltonian, 0.5j * decay, out=heff)
    factors[n + 1:n + m + 1] = c.reshape(-1)
    np.conjugate(factors[1:n + m + 1], out=factors[n + m + 1:])
    vals = factors[li] * factors[ri] * scale
    if np.count_nonzero(heff) < heff_nnz:
        # An entry of H_eff cancelled exactly: its triplets, the ones with a
        # zero factor, become -0, which adds nothing to a sum, signed zeros
        # included, so every entry is the sum of the others alone.
        vals[(factors[li] == 0) | (factors[ri] == 0)] = complex(-0.0, -0.0)
    data = vals[: row.size]
    np.add.at(data, slot, vals[row.size:])  # an entry's triplets add in order
    if data.all():
        col, indptr = col.copy(), indptr.copy()
    else:
        keep = data != 0
        data, col = data[keep], col[keep]
        indptr = np.searchsorted(row[keep], np.arange(n + 1)).astype(col.dtype)
    # copy.copy's shallow copy, without its dispatch.
    gen = sp.csr_matrix.__new__(sp.csr_matrix)
    vars(gen).update(vars(empty))
    gen.data, gen.indices, gen.indptr = data, col, indptr
    return Liouvillian(d, gen, decay)


class _BandLayout(NamedTuple):
    """The band layout of the trace-bordered real form B of a plan's
    pattern: B'[i, j] = B[perm[i], perm[j]], perm[inv[k]] = k, nonzero only
    for -kl <= j - i <= ku, held as dgbtrf's Fortran-ordered (ldab, n)
    array, B'[i, j] at row kl + ku + i - j of column j."""

    kl: int
    ku: int
    ldab: int
    zero: int           # inv[0], the position of entry 0
    inv: np.ndarray
    band: np.ndarray    # the band positions of the plan's terms off row 0, which come first
    border: np.ndarray  # the trace row's band positions
    pops: np.ndarray    # inv[:d], the positions of the populations
    start: np.ndarray   # _drazin_norm's start vector, in the band order


@dataclass(frozen=True, eq=False)
class _RealPlan:
    """The real-form terms of a CSR pattern of a d x d system, which
    L.real and the band LU both sum, and the band layout that only the band
    LU reads, built on its first read and kept on the plan."""

    d: int
    at: np.ndarray     # each term's part, by its position in the float view of the data,
    a: np.ndarray      # and its real factors
    b: np.ndarray
    dense: np.ndarray  # each term's flat position l n + k of (k, l) in the dense form

    @functools.cached_property
    def layout(self) -> _BandLayout:
        """The Cuthill-McKee layout of the band's pattern: the trace
        functional in row 0 (ones in the first d columns) and the terms off
        row 0.  The start vector is fixed and seeded, traceless and of unit
        norm."""
        d, n = self.d, self.d**2
        m = np.count_nonzero(self.dense % n)
        col, row = np.divmod(self.dense[:m], n)
        row, col = np.append(row, np.zeros(d, dtype=row.dtype)), np.append(col, np.arange(d))
        perm = _cuthill_mckee(n, row, col)
        inv = np.argsort(perm)
        i, j = inv[row], inv[col]
        kl, ku = int(max(0, (i - j).max())), int(max(0, (j - i).max()))
        ldab = 2 * kl + ku + 1
        band = j * ldab + kl + ku + i - j
        start = np.random.default_rng(0).standard_normal(n)
        start[:d] -= start[:d].sum() / d
        start /= math.sqrt(start @ start) or 1.0  # d = 1 has no traceless vector
        return _BandLayout(kl, ku, ldab, int(inv[0]),
                           *_frozen(inv, band[:m], band[m:], inv[:d], start[perm]))


@functools.lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _real_plan(d: int, index: str, indptr: bytes, indices: bytes, nonzero: bytes) -> _RealPlan:
    """The real-form plan of a CSR pattern, given nonzero, the nonzero mask
    of the float view of its data (the real and imaginary parts).

    Its terms come in the order (entry of row r of T, entry of row c of T,
    stored entry), those in row 0 of the form last.  Entry 0 of a row of T
    is real, entry 1 imaginary, so Re(conj(T[r, k]) (x + iy) T[c, l]) is
    (a x) b when both entries are 0 or both 1, and (a y) b otherwise, with
    a = Re T[r, k] (both 0), -Re T[r, k] (0 and 1) or Im T[r, k] (1 and
    either), and b = Re T[c, l] or Im T[c, l].  Terms with a zero factor
    (entry 1 of a diagonal row) or a zero part add only zeros to a sum
    from +0 and are left out; every key keeps the order of its other
    terms.  With real amplitudes about half the parts are zero: keyed on
    the CSR pattern alone, the band at fig8a would be 38 diagonals either
    side in place of 27.  The band layout is left to the plan's first
    factorisation (_RealPlan.layout)."""
    n = d * d
    rows, scale = _hermitian_rows(d)
    ptr = np.frombuffer(indptr, dtype=index)
    r = np.repeat(np.arange(n), np.diff(ptr))
    c = np.frombuffer(indices, dtype=index)
    # Arrays (2, 2, nnz), indexed by the entries of rows r and c of T.
    keys = rows.take(c, axis=0).T[None] * n + rows.take(r, axis=0).T[:, None]
    at = 2 * np.arange(c.size) + np.array([[0, 1], [1, 0]])[:, :, None]
    re_r, im_r = scale.take(r, axis=0).T
    re_c, im_c = scale.take(c, axis=0).T
    a = np.array([[re_r, -re_r], [im_r, im_r]])
    b = np.array([[re_c, im_c], [re_c, im_c]])
    keep = (a != 0) & (b != 0) & np.frombuffer(nonzero, dtype=bool)[at]
    # Row 0's keys are no other row's, so moving them last keeps every key's order.
    last = np.argsort(keys[keep] % n == 0, kind="stable")
    return _RealPlan(d, *_frozen(*(x[keep][last] for x in (at, a, b, keys))))


def _real_terms(L: Liouvillian):
    """The real-form plan of L and the value a * part * b of each of its
    terms, which L.real and the band LU each sum with one bincount."""
    s = L.superop
    parts = np.ascontiguousarray(s.data, dtype=complex).view(float)
    plan = _real_plan(L.dim, s.indices.dtype.char, s.indptr.tobytes(), s.indices.tobytes(),
                      (parts != 0).tobytes())
    return plan, plan.a * parts[plan.at] * plan.b


def _cuthill_mckee(n: int, row: np.ndarray, col: np.ndarray) -> np.ndarray:
    """The Cuthill-McKee order (Cuthill & McKee, Proc. 24th ACM Natl.
    Conf., 157 (1969)) of the symmetrised pattern (row, col) of an n x n
    matrix: a breadth-first search of each component from its node of
    least degree, neighbours visited by (degree, index).  Ties go to the
    lower index, so the order depends on the pattern alone.

    Its reverse, the usual choice for envelope solvers, has the same band
    and so the same band LU cost, but off resonance the band LU rounded
    worse in it.  Over 30 detuned qutrit points, _drazin_norm and a power
    loop that rounds otherwise (the test suite's oracle) disagreed by up
    to 1.8e-11 relative in the reverse order, 1.5e-13 in this one, and
    2.8e-12 with the dense LU in the original order."""
    pair = np.unique(np.concatenate([row * n + col, col * n + row]))
    u, w = np.divmod(pair[pair // n != pair % n], n)
    degree = np.bincount(u, minlength=n)
    nbrs = w[np.lexsort((w, degree[w], u))].tolist()
    ptr = np.concatenate([[0], np.cumsum(degree)]).tolist()
    seen, order = [False] * n, []
    for root in np.argsort(degree, kind="stable").tolist():
        if seen[root]:
            continue
        seen[root] = True
        head = len(order)
        order.append(root)
        while head < len(order):
            v = order[head]
            head += 1
            for x in nbrs[ptr[v]:ptr[v + 1]]:
                if not seen[x]:
                    seen[x] = True
                    order.append(x)
    return np.array(order, dtype=np.intp)


@dataclass
class Trajectory:
    """Time grid and the states at those times, shape (nt, dim, dim)."""

    times: np.ndarray
    states: np.ndarray


def _require_density(rho: np.ndarray, dim: int) -> np.ndarray:
    rho = np.asarray(rho, dtype=complex)
    if not np.isfinite(rho).all():
        raise ValueError("initial state has a non-finite entry")
    if rho.shape != (dim, dim):
        raise ValueError(f"initial state must be {dim}x{dim}, got shape {rho.shape}")
    defect = hermiticity_defect(rho)
    if defect > _DENSITY_TOL:
        raise ValueError(f"initial state is not Hermitian: max|rho - rho^dag| = {defect:.2e}")
    tr = complex(np.trace(rho))
    if abs(tr - 1.0) > _DENSITY_TOL:
        raise ValueError(f"initial state must have unit trace, got trace = {tr:.12g}")
    min_eig = float(np.linalg.eigvalsh(rho)[0])
    if min_eig < -_DENSITY_TOL:
        raise ValueError(f"initial state is not positive semidefinite: min eigenvalue = {min_eig:.2e}")
    return rho


def _check_physical(states: np.ndarray, t: np.ndarray) -> None:
    """Raise ConvergenceError at the earliest unphysical state of a stack,
    naming its first failed check: finiteness, trace, positivity.

    The states are Hermitian by construction, T x of real coordinates.  The
    rule is finite entries, |tr(rho) - 1| <= 1e-6 and a smallest eigenvalue
    of at least -1e-6.  The blocks of the stack (linalg.blocks) are checked
    in order.  When the trace holds on every state of a block, one batched
    Cholesky factorisation of a copy of the block, shifted by just under
    1e-6, decides the last: success proves it, and any failure (or
    non-finite entry) leaves the decision, and the message, to the
    eigenvalues of the block's finite states.  No state's checks depend on
    its block, so the error names the whole stack's earliest failure.
    """
    for part in blocks(len(states), math.prod(states.shape[1:]) * states.itemsize):
        block = states[part]
        tr_err = np.abs(np.trace(block, axis1=-2, axis2=-1) - 1.0)
        # max() is nan, and the comparison False, if any entry is not finite.
        if tr_err.max() <= 1e-6 and _positive_by_cholesky(block.copy(), -1e-6):
            continue
        finite = np.isfinite(block).all(axis=(-2, -1))
        min_eig = np.zeros(len(block))
        min_eig[finite] = np.linalg.eigvalsh(block[finite])[:, 0]
        failed = np.argwhere(np.column_stack([~finite, tr_err > 1e-6, min_eig < -1e-6]))
        if failed.size:
            k, check = failed[0]
            msg = ("non-finite state", f"trace drifted by {tr_err[k]:.2e}",
                   f"negative eigenvalue {min_eig[k]:.2e}")[check]
            raise ConvergenceError(f"{msg} at t = {t[part][k]:.6g} s")


def _positive_by_cholesky(herm: np.ndarray, bound: float) -> bool:
    """True if the Hermitian matrix herm, or every matrix of a stack, has
    its smallest eigenvalue at or above bound (negative), proven by a
    Cholesky factorisation of herm shifted by -bound minus a margin for its
    rounding (_CHOLESKY_MARGIN); False if any factorisation fails or has a
    non-finite pivot, which proves nothing.  Callers pass a copy, Hermitian
    by construction: only its lower triangle is read, and the shift may
    overwrite its diagonal.  An entry that is not finite stops the
    factorisation, or as +inf on the diagonal leaves an infinite pivot."""
    herm = np.ascontiguousarray(herm)
    d = herm.shape[-1]
    # The diagonal is every (d + 1)-th entry of each contiguous matrix.
    herm.reshape(herm.shape[:-2] + (d * d,))[..., :: d + 1] += \
        -bound - max(_CHOLESKY_MARGIN, 4 * d * (d + 1) * _EPS)
    if herm.ndim == 2:
        # LAPACK directly: np.linalg.cholesky costs more than a small factorisation.
        factor, info = _potrf(herm, lower=True, overwrite_a=True, clean=False)
        if info:
            return False
    else:
        try:
            factor = np.linalg.cholesky(herm)
        except np.linalg.LinAlgError:
            return False
    return bool(np.isfinite(factor.diagonal(0, -2, -1)).all())


def evolve(L: Liouvillian, rho0: np.ndarray, t_grid) -> Trajectory:
    """Propagate a density matrix over a time grid.

    Exact matrix-exponential propagators are applied per grid step (one
    expm per distinct step size; local error at rounding level).  They
    act on the real coordinates of rho in the Hermitian basis (L.real),
    so every state is exactly Hermitian by construction.  The coordinates
    are stepped and converted to matrices one block of samples at a time
    (linalg.blocks, 120 KiB of states), straight into the returned stack.
    Finiteness, trace and positivity are checked at every grid point
    (ConvergenceError names the earliest violation).  Positivity is
    certified by one batched Cholesky factorisation per block, shifted by
    just under 1e-6; only when a check fails are the eigenvalues computed,
    to decide and name it.  Past expm the call holds the stack plus one
    block, so a long run peaks at about its own stack.

    Parameters
    ----------
    L : Liouvillian
    rho0 : ndarray
        Valid density matrix (finite, Hermitian, unit trace, PSD to 1e-10).
    t_grid : array_like
        Strictly increasing finite times in seconds, starting at 0.

    Returns
    -------
    Trajectory
        The times and the states, a stack of shape (nt, dim, dim) that
        every measure accepts as it is.
    """
    t = np.asarray(t_grid, dtype=float)
    if t.ndim != 1 or t.size < 1:
        raise ValueError("t_grid must be a 1-D array of times")
    if not np.isfinite(t).all():
        raise ValueError("t_grid must hold finite times")
    if abs(t[0]) > 1e-15:
        raise ValueError(f"t_grid must start at 0, got t[0] = {t[0]!r}")
    if t.size > 1 and np.any(np.diff(t) <= 0):
        raise ValueError("t_grid must be strictly increasing")
    _require_finite(L)
    rho = _require_density(rho0, L.dim)
    states = unvec(_propagate_expm(L, vec(rho), t), L.dim)
    _check_physical(states, t)
    return Trajectory(times=t, states=states)


def _propagate_expm(L: Liouvillian, v0: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Step through t with cached dense propagators expm(L.real*dt) on the
    real coordinates of the Hermitian basis; return the vecs, (nt, dim^2).

    Step sizes within _STEP_SNAP_RTOL/||L||_1 of each other share one
    propagator; the induced local error ||L||*|dt - dt_ref| stays below
    _STEP_SNAP_RTOL per step.  A step takes the propagator of the earliest
    reference step it snaps to, and a step that snaps to none becomes a
    reference, which takes its own propagator.  Every step's propagator
    is chosen first.

    While expm runs, the call holds no array of its own of n^2 or nt * n
    entries (n = dim^2) beyond the propagators already made: each expm gets
    a freshly scaled real form, and the stack is allocated after the last
    propagator.  expm's own workspace of about 5 n^2 entries then sets the
    call's peak.  Holding both across expm at fig5-inset raised that peak
    by 2.6 MB, and glibc then gave about 11 MB back to the OS after each
    call and faulted it in again on the next.

    The returned complex stack of vecs is then the only array of nt rows.
    The steps go in blocks of its rows (linalg.blocks): a block's
    coordinates are stepped in place in one buffer, each row from the one
    before it, and _from_coords writes them into the block's rows of the
    stack.  A state's arithmetic does not depend on its block.
    """
    snap = _STEP_SNAP_RTOL / max(L.norm_1, 1.0)
    dts = np.diff(t)
    which = np.full(dts.size, -1)  # index into props of each step's propagator
    props = []
    # _check_physical names a state that overflowed; expm need not warn.
    with np.errstate(over="ignore", invalid="ignore"):
        while (free := np.flatnonzero(which < 0)).size:
            ref = dts[free[0]]
            which[free[np.abs(dts[free] - ref) <= snap]] = len(props)
            props.append(sla.expm(L.real * ref))
        vecs = np.empty((t.size, L.dim**2), dtype=complex)
        parts = blocks(t.size - 1, vecs[0].nbytes)  # the steps, into samples 1, 2, ...
        # Row 0 holds the sample before the block, rows 1, 2, ... its samples.
        x = np.empty((parts[0].stop + 1 if parts else 1, L.dim**2))
        x[0] = _to_coords(v0, L.dim)
        _from_coords(x[:1], vecs[:1])
        steps = which.tolist()
        rows = list(x)  # views, made once: a step is one dgemv into the next row
        for part in parts:
            m = part.stop - part.start
            for k, i in enumerate(steps[part], start=1):
                np.dot(props[i], rows[k - 1], out=rows[k])
            _from_coords(x[1:m + 1], vecs[part.start + 1:part.stop + 1])
            x[0] = x[m]
        return vecs


def steady_state(L: Liouvillian, *, method: str = "nullspace", return_info: bool = False):
    """Solve L rho = 0 with unit trace.

    Both backends factor the real form T^dag L T once by band LU, with its
    first row (the rho_00 equation) replaced by the trace functional, the
    sum of the first dim coordinates.  The band layout of the plan per
    pattern that L.real reads too (_real_plan) orders the coordinates by
    Cuthill-McKee; the band array is assembled in that order straight from
    the generator's entries, and LAPACK dgbtrf factors it in place.  On
    traceless vectors the bordered solve applies the Drazin inverse L^D,
    and the same factors certify the state: its error rho - rho_ss =
    L^D (L vec(rho)) is at most ||L^D||_2 ||L vec(rho)||_2, with ||L^D||_2
    on the traceless subspace estimated by power iteration (group-inverse
    perturbation theory, Meyer, SIAM Rev. 17, 443 (1975)).  An exactly
    zero pivot, or 1/||L^D||_2 at the rounding floor 1e3 * eps * ||L||_1,
    raises NonUniqueSteadyStateError.  The solve and the certificate run
    with numpy's overflow warnings off: a sum of squares that overflows is
    taken again scaled (_norm2), and a norm that stays non-finite fails
    the certificate.

    Backends
    --------
    "nullspace"
        The bordered solve with right-hand side e_0, mapped back from
        Hermitian-basis coordinates.
    "evolve"
        Propagation of I/dim by repeated squaring of expm(L/gamma_scale).
        It propagates the complex generator, so each doubling ends with the
        projection (rho + rho^dag)/2, and it certifies itself: it stops at
        the first doubling where the error bound of the projected state did
        not fall, or is at most 1e-8 and no longer halves, and after 60
        doublings at most.  Its state bottoms out at ||L vec(rho)||_2 of
        about 1e-9 to 5e-9, so where the slowest relaxation rate is below
        about 0.1 1/s (||L^D||_2 above about 10 s) its error bound exceeds
        1e-8 and ConvergenceError is raised, while "nullspace" passes.

    rho is returned C-ordered, Hermitian by construction and with trace
    exactly 1; it is checked for residual, error bound and positivity, and
    the generator for finiteness.  ConvergenceError is raised when
    the relative residual ||L vec(rho)|| / (||L||_1 ||vec(rho)||) exceeds
    1e-8, when the error bound ||L^D||_2 ||L vec(rho)||_2 exceeds 1e-8, or
    when an eigenvalue of rho is below -1e-9.  With
    return_info=True a dict is returned too: the backend name ("method"),
    "drazin_norm" (the bound on ||L^D||_2, in s), "residual" and
    "error_bound", and for "evolve" also "doublings" and "model_time" (s).
    """
    if method not in ("nullspace", "evolve"):
        raise ValueError(f"unknown method {method!r}; expected 'nullspace' or 'evolve'")
    if method == "evolve" and L.gamma_scale <= 0.0:
        raise NonUniqueSteadyStateError(
            "no dissipative channels: long-time propagation cannot converge"
        )
    with np.errstate(over="ignore"):
        lu = _bordered_lu(L)
        drazin_norm = _drazin_norm(L, lu)
        if method == "nullspace":
            ab, piv, layout = lu
            e0 = np.zeros(L.dim**2)
            e0[layout.zero] = 1.0
            x = _gbtrs(ab, layout.kl, layout.ku, e0, piv, overwrite_b=True)[0]
            v = _from_coords(x[layout.inv], np.empty(e0.size, dtype=complex))
            info = {"method": "nullspace"}
        else:
            v, info = _steady_evolve(L, drazin_norm)
        info["drazin_norm"] = drazin_norm
        rho, info = _finalize(L, v, info)
    return (rho, info) if return_info else rho


def _require_finite(L: Liouvillian) -> None:
    if not np.isfinite(L.superop.data).all():
        raise ValueError("the Liouvillian has a non-finite entry")


def _bordered_lu(L: Liouvillian):
    """Band LU factors and pivots of the real form with row 0 (the rho_00
    equation) replaced by the trace functional, the sum of the first dim
    coordinates, in the order of the band layout of its real-form plan
    (_real_plan), and that layout, which the plan's first call builds.

    The terms of the plan off row 0 are summed straight into the layout's
    band array by one bincount, the terms that Liouvillian.real sums into
    the dense form, and the trace row's ones are written in: the array
    holds the bytes of the bordered L.real, gathered in the layout's
    order.  It is a new Fortran-ordered array, so dgbtrf overwrites it and
    nothing is copied.  The factors' diagonal, in row kl + ku, holds the pivots."""
    _require_finite(L)
    plan, terms = _real_terms(L)
    layout, n = plan.layout, L.dim**2
    # bincount of no entries gives integers; the array is float64 for every L.
    ab = np.bincount(layout.band, terms[:layout.band.size], minlength=layout.ldab * n) \
        .astype(float, copy=False)
    ab[layout.border] = 1.0  # the trace functional
    lu, piv, info = _gbtrf(ab.reshape(layout.ldab, n, order="F"), layout.kl, layout.ku,
                           overwrite_ab=True)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of LAPACK dgbtrf")
    pivots = lu[layout.kl + layout.ku]
    if np.count_nonzero(pivots) < pivots.size:
        raise NonUniqueSteadyStateError(
            f"non-unique steady state: {np.count_nonzero(pivots == 0.0)} exactly zero "
            f"pivot(s) in the LU factors of the trace-bordered Liouvillian"
        )
    return lu, piv, layout


def _drazin_norm(L: Liouvillian, lu) -> float:
    """||L^D||_2 on traceless vectors, in seconds, from the trace-bordered
    band LU factors of the real form: power iteration's estimate times
    _DRAZIN_MARGIN.

    The operator is P B^-1 E P: E zeroes entry 0, B^-1 is the bordered
    solve and P projects out the trace.  Its adjoint P E B^-T P is the
    transposed solve on the same factors.  Power iteration on their
    product runs in the band order, where E zeroes entry layout.zero and
    P subtracts the mean of the populations at layout.pops, from the
    layout's fixed seeded start vector; every step is recomputed from the
    call's factors.  Row 0 of B is the trace functional, so B^-1 E x is
    traceless up to rounding and the P between the solves is left out.  A
    step solves in place in one vector: E, the two solves, E and P, and
    the norm, by which the next step's vector is scaled.

    The vector has norm c = root**2, the power of four at or below
    ||L||_1, in place of 1, and the estimate is sqrt(||x||_2) / root.
    Scaling by a power of two is exact in binary floating point, so the
    estimate is the unit vector's to the bit wherever both stay in range.
    When every rate of the generator is scaled by one factor s, a unit
    vector comes out of the two solves scaled by 1/s**2, and at fig2 it
    leaves the float range for s outside about 1e-153 to 1e155; the
    vector of norm c stays in range from s = 1e-150 to 1e280.
    """
    d = L.dim
    ab, piv, layout = lu
    kl, ku, zero, pops = layout.kl, layout.ku, layout.zero, layout.pops
    root = math.ldexp(1.0, (math.frexp(L.norm_1)[1] - 1) // 2)
    scale = root * root
    x = layout.start * scale
    est = 0.0
    for _ in range(_DRAZIN_STEPS):
        x[zero] = 0.0
        # x is contiguous float64, so overwrite_b solves into x itself.
        _gbtrs(ab, kl, ku, x, piv, overwrite_b=True)
        _gbtrs(ab, kl, ku, x, piv, trans=1, overwrite_b=True)
        x[zero] = 0.0
        head = x[pops]
        head -= head.sum() / d
        x[pops] = head
        length = _norm2(x)
        prev, est = est, math.sqrt(length) / root
        if abs(est - prev) <= _DRAZIN_RTOL * est:
            break
        x /= length
        x *= scale
    norm = _DRAZIN_MARGIN * est
    floor = _GAP_FLOOR * _EPS * L.norm_1
    if not norm * floor < 1.0:  # also catches a norm that overflowed to inf or nan
        shown = f"= {norm:.3e} s is" if math.isfinite(norm) else "is not finite,"
        raise NonUniqueSteadyStateError(
            f"non-unique steady state: ||L^D||_2 {shown} at the rounding "
            f"floor, 1/||L^D||_2 <= {floor:.1e} 1/s"
        )
    return norm


def liouvillian_gap(L: Liouvillian) -> float:
    """The Liouvillian gap in 1/s: the slowest relaxation rate, the least
    -Re(lambda) over the eigenvalues of L but the one nearest 0, the steady
    state's (Minganti et al., PRA 98, 042118 (2018)); 1/gap is the
    preparation time scale.

    It comes from the dense eigenvalues of the real form L.real, about
    1.4 ms at dim 9 and 50 ms at dim 20, so it is only reported: no
    steady-state backend computes it.  A non-finite generator raises
    ValueError, and a gap at the rounding floor 1e3 * eps * ||L||_1
    NonUniqueSteadyStateError.  A one-level generator has no mode that
    relaxes, so its gap is inf, the least over an empty set, and 1/gap = 0.
    """
    _require_finite(L)
    lam = np.linalg.eigvals(L.real)
    gap = float(np.min(-np.delete(lam, np.argmin(np.abs(lam))).real, initial=math.inf))
    floor = _GAP_FLOOR * _EPS * L.norm_1
    if gap <= floor:
        raise NonUniqueSteadyStateError(
            f"non-unique steady state: Liouvillian gap {gap:.3e} 1/s is at the "
            f"rounding floor {floor:.1e} 1/s"
        )
    return gap


def residual(L: Liouvillian, rho: np.ndarray) -> tuple[float, float]:
    """||L vec(rho)||_2 and the relative residual
    ||L vec(rho)||_2 / (||L||_1 ||vec(rho)||_2) of a density matrix.

    The product is scipy's CSR kernel into a zeroed vector, the call that
    L.superop @ v makes, and each norm the sum of the dot products of the
    real and imaginary parts that np.linalg.norm takes: the same bytes
    without their per-call checks."""
    v = vec(rho)
    defect = _defect(L, v)
    return defect, defect / (max(L.norm_1, _TINY) * _norm2(v))


def _defect(L: Liouvillian, v: np.ndarray) -> float:
    """||L v||_2 of a complex vector v."""
    s = L.superop
    out = np.zeros(v.size, dtype=complex)
    _csr_matvec(v.size, v.size, s.indptr, s.indices, s.data, v, out)
    return _norm2(out)


def _norm2(v: np.ndarray) -> float:
    """np.linalg.norm of a real or complex vector, to the bit where its sum
    of squares is a positive normal float.  Elsewhere the real and
    imaginary parts are divided by their largest magnitude first, so no
    square overflows or underflows."""
    re, im = v.real, v.imag
    sq = re.dot(re) + im.dot(im)
    if _TINY <= sq <= _HUGE:
        return math.sqrt(sq)
    top = float(max(np.abs(re).max(), np.abs(im).max()))
    if not 0.0 < top < math.inf:  # zero, or inf or nan entries
        return top
    re, im = re / top, im / top
    return top * math.sqrt(re.dot(re) + im.dot(im))


def _finalize(L: Liouvillian, v: np.ndarray, info: dict):
    """C-ordered unit-trace rho from the vec v of a Hermitian matrix,
    certified by info["drazin_norm"]."""
    rho = unvec(v, L.dim).copy()
    rho /= rho.trace().real
    defect, res = residual(L, rho)
    bound = info["drazin_norm"] * defect
    info["residual"] = res
    info["error_bound"] = bound
    backend = info["method"]
    if res > _RESIDUAL_RTOL:
        raise ConvergenceError(
            f"steady-state residual {res:.3e} exceeds tolerance {_RESIDUAL_RTOL:.1e} "
            f"(backend {backend})"
        )
    if bound > _ERROR_BOUND_MAX:
        raise ConvergenceError(
            f"steady-state error bound ||L^D|| ||L rho|| = {bound:.3e} exceeds "
            f"{_ERROR_BOUND_MAX:.0e} (backend {backend})"
        )
    if _positive_by_cholesky(rho.copy(), _MIN_EIGENVALUE):
        return rho, info
    # Only a failed proof pays for the eigenvalues, which decide and name it.
    min_eig = float(np.linalg.eigvalsh(rho)[0])
    if min_eig < _MIN_EIGENVALUE:
        raise ConvergenceError(
            f"steady state has eigenvalue {min_eig:.3e} below {_MIN_EIGENVALUE:.0e} "
            f"(backend {backend})"
        )
    return rho, info


def _steady_evolve(L: Liouvillian, drazin_norm: float):
    """vec of the Hermitian part of I/dim propagated by repeated squaring of
    expm(L dt), dt = 1/gamma_scale, and its info.  After each doubling of the
    horizon dt (2^k - 1) the state is certified, drazin_norm ||L vec(rho)||_2;
    the propagation stops at the first doubling where that bound did not
    fall, or is at most _ERROR_BOUND_MAX and no longer halves."""
    d = L.dim
    dt = 1.0 / L.gamma_scale
    prop = sla.expm((L.superop * dt).toarray())
    v = vec(np.eye(d, dtype=complex) / d)
    prev = math.inf
    for doublings in range(1, _MAX_DOUBLINGS + 1):
        if doublings > 1:
            prop = prop @ prop
        v = prop @ v
        v = v / np.trace(unvec(v, d)).real  # guard against rounding drift
        rho = unvec(v, d)  # the complex propagation leaves anti-Hermitian rounding
        herm = vec((rho + rho.conj().T) / 2.0)
        bound = drazin_norm * _defect(L, herm)
        # A nan bound did not fall either.
        if not bound < prev or (bound <= _ERROR_BOUND_MAX and 2.0 * bound > prev):
            break
        prev = bound
    info = {"method": "evolve", "doublings": doublings,
            "model_time": dt * (2.0**doublings - 1.0)}
    return herm, info
