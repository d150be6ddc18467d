import collections
import dataclasses
import math
import tracemalloc
import warnings
from unittest import mock

import mpmath
import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp
from scipy.linalg import expm
from scipy.linalg.lapack import dgbtrf

from rydpump.dynamics import (
    ConvergenceError,
    Liouvillian,
    NonUniqueSteadyStateError,
    _DRAZIN_MARGIN,
    _DRAZIN_RTOL,
    _STEP_SNAP_RTOL,
    _bordered_lu,
    _check_physical,
    _drazin_norm,
    _finalize,
    _from_coords,
    _generator_plan,
    _hermitian_rows,
    _positive_by_cholesky,
    _propagate_expm,
    _real_plan,
    _to_coords,
    build_liouvillian,
    evolve,
    liouvillian_gap,
    residual,
    steady_state,
    unvec,
    vec,
)
import rydpump
from rydpump import dynamics, grid, linalg
from rydpump.cli import main
from rydpump.linalg import BipartiteDims
from rydpump.measures import fidelity
from rydpump.models import (
    PRESET_NAMES,
    ModelParams,
    SchemeVariant,
    SystemModel,
    build_model,
    caption_params,
    figure_preset,
    find_figure,
)

from conftest import random_density, trace_distance
from oracles import (assert_drazin_norm_matches_loop, dense_drazin_norm, dense_hermitian_basis,
                     dense_rates, gathered_band, kron_liouvillian, longdouble_expm,
                     refined_steady_state)

BELL = SchemeVariant("bell", "singlet")


def master_equation_rhs(h, lindblads, rho):
    """Direct dense evaluation of the master-equation right-hand side
    (independent oracle for the vectorized superoperator)."""
    out = 1j * (rho @ h - h @ rho)
    for c in lindblads:
        cd = c.conj().T
        cdc = cd @ c
        out = out + c @ rho @ cd - 0.5 * (cdc @ rho + rho @ cdc)
    return out


def sparse_kron_liouvillian(model):
    """Superoperator and gamma_scale from sp.kron products summed by sparse
    additions (oracle for build_liouvillian's COO triplets, which must give
    the same entries bit for bit)."""
    d = model.dim
    eye = sp.identity(d, dtype=complex, format="csr")
    jumps = [sp.csr_matrix(op) for op in model.lindblads]
    decay = sum((c.getH() @ c for c in jumps), sp.csr_matrix((d, d), dtype=complex))
    heff = sp.csr_matrix(model.hamiltonian) - 0.5j * decay
    gen = -1j * sp.kron(eye, heff, format="csr") + 1j * sp.kron(heff.conj(), eye, format="csr")
    for c in jumps:
        gen = gen + sp.kron(c.conj(), c, format="csr")
    decay = decay.toarray()
    rates = np.linalg.eigvalsh((decay + decay.conj().mT) / 2)
    return gen.tocsr(), float(rates[-1]) if jumps else 0.0


def sparse_product_real_form(L):
    """(T^dag superop T).real and the max column abs sum from scipy.sparse
    products, T the sparse form of the outer-product basis (oracle for
    Liouvillian.real and norm_1, which gather the same products from the
    CSR arrays and T's rows)."""
    T = sparse_hermitian_basis(L.dim)
    real = (T.conj().T @ L.superop @ T).toarray().real
    norm_1 = float(np.max(np.abs(L.superop).sum(axis=0))) if L.superop.nnz else 0.0
    return real, norm_1


def sparse_hermitian_basis(d):
    """dense_hermitian_basis(d) as a scipy CSC matrix, whose products sum
    each entry from 0 over the stored entries in order (oracle for the
    gathers from T's rows)."""
    return sp.csc_matrix(dense_hermitian_basis(d))


def complex_expm_states(L, rho0, t):
    """States on a uniform grid t from the complex propagator
    expm(superop*dt) applied to vec(rho0) step by step (the complex path,
    kept as an oracle for the real-form propagation)."""
    prop = expm((L.superop * (t[1] - t[0])).toarray())
    out = [vec(rho0)]
    for _ in t[1:]:
        out.append(prop @ out[-1])
    return unvec(np.array(out), L.dim)


def figure_run(name):
    """Model, Liouvillian, initial state and time grid of a figure's evolve run."""
    fig, pre = find_figure(name), figure_preset(name)
    m = build_model(pre.params, pre.variant)
    t = np.linspace(0.0, fig.t_max_ms * 1e-3, fig.samples)
    return m, build_liouvillian(m), m.initial_density(fig.initial), t


def random_model(rng, dim_a=3, dim_b=3, n_lindblads=4):
    """Synthetic model with O(1) parameters (not from the builders)."""
    d = dim_a * dim_b
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    h = (a + a.conj().T) / 2
    ls = tuple(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
               for _ in range(n_lindblads))
    return SystemModel(
        dims=BipartiteDims(dim_a, dim_b), hamiltonian=h, lindblads=ls,
        named_states={}, variant=BELL,
    )


def bell_model(**caption):
    base = dict(rabi_optical=2 * np.pi * 0.036e6, detuning=2 * np.pi * 3.435e6,
                gamma=1673.0)
    base["rabi_microwave_1"] = 0.004 * base["rabi_optical"]
    base["rydberg_U"] = 2 * base["detuning"]
    base.update(caption)
    return build_model(ModelParams(**base), BELL)


# ------------------------------------------------------------ liouvillian

def test_liouvillian_zero_model():
    # A generator with no stored entries: its real form is still a float64,
    # Fortran-ordered zero matrix, the steady state is not unique and every
    # state of a time series is the initial one.
    m = bell_model(rabi_optical=0.0, rabi_microwave_1=0.0, detuning=0.0,
                   rydberg_U=0.0, gamma=0.0)
    L = build_liouvillian(m)
    assert L.superop.nnz == 0
    assert L.norm_1 == 0.0
    assert L.gamma_scale == 0.0
    real = L.real
    assert real.dtype == np.float64 and real.flags.f_contiguous and real.flags.writeable
    assert real.shape == (81, 81) and not real.any()
    with pytest.raises(NonUniqueSteadyStateError, match="exactly zero pivot"):
        steady_state(L)
    with pytest.raises(NonUniqueSteadyStateError, match="no dissipative channels"):
        steady_state(L, method="evolve")
    rho0 = m.initial_density("singlet")
    states = evolve(L, rho0, np.linspace(0.0, 5e-3, 6)).states
    assert (states == states[0]).all()
    assert np.max(np.abs(states[0] - rho0)) <= 1e-15


def test_liouvillian_without_jumps():
    m = random_model(np.random.default_rng(3), n_lindblads=0)
    m.hamiltonian[:] = 0.0
    L = build_liouvillian(m)
    assert (L.superop.shape, L.superop.nnz, L.gamma_scale) == ((81, 81), 0, 0.0)


def assert_same_csr(got, want):
    assert got.shape == want.shape
    for name in ("data", "indices", "indptr"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert np.array_equal(a, b), name


@pytest.mark.parametrize("name", PRESET_NAMES + ("random",))
def test_liouvillian_matches_sparse_kron_chain(name):
    # The COO triplets give the entries that sp.kron products and sparse
    # additions give, bit for bit, with the same rounding of sum c^dag c.
    if name == "random":
        rng = np.random.default_rng(11)
        models = [random_model(rng, n_lindblads=n) for n in (0, 1, 4, 7)]
    else:
        pre = figure_preset(name)
        models = [build_model(pre.params, pre.variant)]
    for m in models:
        L = build_liouvillian(m)
        want, gamma_scale = sparse_kron_liouvillian(m)
        assert_same_csr(L.superop, want)
        assert L.gamma_scale == gamma_scale


def cancelling_model(levels=(1.0, 2, 3, 4, 5, 6)):
    """H = diag(levels) on a 2 x 3 system and one jump sqrt(1/2) I: the
    decay terms cancel exactly (-g/2 - g/2 + g) on every diagonal entry of
    the generator, and the Hamiltonian terms wherever two levels agree."""
    d = len(levels)
    return SystemModel(dims=BipartiteDims(2, 3), hamiltonian=np.diag(levels).astype(complex),
                       lindblads=(np.sqrt(0.5) * np.eye(d, dtype=complex),),
                       named_states={}, variant=BELL)


def test_liouvillian_drops_terms_that_cancel():
    # With distinct levels, d of the d^2 entries are exact zeros.
    d = 6
    m = cancelling_model()
    L = build_liouvillian(m)
    dense = kron_liouvillian(m.hamiltonian, m.lindblads)
    assert L.superop.nnz == np.count_nonzero(dense) == d * d - d
    assert np.array_equal(L.superop.toarray(), dense)
    assert_same_csr(L.superop, sparse_kron_liouvillian(m)[0])


def test_liouvillian_matches_dense_oracle(rng):
    for _ in range(5):
        m = random_model(rng)
        L = build_liouvillian(m)
        rho = random_density(rng, 9)
        got = unvec(L.superop @ vec(rho), 9)
        want = master_equation_rhs(m.hamiltonian, m.lindblads, rho)
        assert np.max(np.abs(got - want)) <= 1e-12


@pytest.mark.parametrize("name", ["fig2", "fig6-point"])
def test_liouvillian_matches_kron_formula(name, rng):
    # -i(I kron H_eff) + i(conj(H_eff) kron I) + sum conj(c) kron c against the
    # dense term-by-term formula: same entries, no stored zeros, same rates.
    pre = figure_preset(name)
    models = [build_model(pre.params, pre.variant), random_model(rng)]
    for m in models:
        L = build_liouvillian(m)
        want = kron_liouvillian(m.hamiltonian, m.lindblads)
        got = L.superop.toarray()
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))
        assert L.superop.nnz == np.count_nonzero(want)
        decay = sum(c.conj().T @ c for c in m.lindblads)
        assert L.gamma_scale == pytest.approx(np.linalg.eigvalsh(decay)[-1], rel=1e-12)


@pytest.mark.parametrize("d", [2, 9, 20])
def test_hermitian_basis_is_unitary_onto_hermitian_matrices(d, rng):
    # T's table matches the outer-product basis row by row: each row's
    # nonzero entries, in column order, are scale[r, 0] and 1j * scale[r, 1]
    # at col[r, 0] < col[r, 1], and a diagonal row pads with 0 at column 0.
    col, scale = _hermitian_rows(d)
    assert col.shape == scale.shape == (d * d, 2)
    assert col.dtype == np.intp and scale.dtype == np.float64
    want = dense_hermitian_basis(d)
    assert np.max(np.abs(want.conj().T @ want - np.eye(d * d))) <= 1e-15
    for r, row in enumerate(want):
        at = np.flatnonzero(row)
        assert at.size in (1, 2)
        assert np.array_equal(col[r, :at.size], at)
        assert np.array_equal(scale[r, :at.size] * [1, 1j][:at.size], row[at])
        if at.size == 1:
            assert (col[r, 1], scale[r, 1]) == (0, 0.0)
    x = rng.normal(size=(5, d * d))
    rho = unvec(_from_coords(x, np.empty(x.shape, dtype=complex)), d)
    assert np.array_equal(rho, unvec((want @ x.T).T, d))
    assert np.array_equal(rho, rho.conj().swapaxes(-1, -2))
    # The diagonal is the first d coordinates, so the trace is their sum.
    assert np.array_equal(np.diagonal(rho, axis1=-2, axis2=-1), x[:, :d] + 0j)


@pytest.mark.parametrize("d", [2, 9, 20])
def test_coordinate_maps_match_sparse_products(d, rng):
    # T x, for one vector and for a stack, and Re T^dag v gather from T's
    # rows the bytes of the sparse products, signed zeros included: a
    # sparse product sums each entry from +0, so -0 never survives.
    T = sparse_hermitian_basis(d)
    n = d * d

    def with_zeros(a):
        a[rng.random(a.shape) < 0.2] = 0.0
        a[rng.random(a.shape) < 0.2] = -0.0
        return a

    x = with_zeros(rng.normal(size=(7, n)))
    assert np.signbit(x[x == 0]).any() and not np.signbit(x[x == 0]).all()
    got = _from_coords(x[0], np.empty(n, dtype=complex))
    assert got.tobytes() == (T @ x[0]).tobytes()
    stack = _from_coords(x, np.empty((7, n), dtype=complex))
    assert stack.flags.c_contiguous
    assert stack.tobytes() == (T @ x.T).T.tobytes()
    vs = np.empty((2, n), dtype=complex)
    vs.real, vs.imag = with_zeros(rng.normal(size=(2, n))), with_zeros(rng.normal(size=(2, n)))
    for v in (*vs, stack[1]):
        assert _to_coords(v, d).tobytes() == (T.conj().T @ v).real.tobytes()


@pytest.mark.parametrize("name", ["fig2", "fig6-point", "random"])
def test_real_form_is_liouvillian_in_hermitian_basis(name, rng):
    if name == "random":
        m = random_model(rng)
    else:
        pre = figure_preset(name)
        m = build_model(pre.params, pre.variant)
    L = build_liouvillian(m)
    T = dense_hermitian_basis(m.dim)
    want = T.conj().T @ L.superop.toarray() @ T
    scale = np.max(np.abs(want))
    assert np.max(np.abs(want.imag)) <= 1e-15 * scale
    assert L.real.dtype == np.float64
    assert np.max(np.abs(L.real - want.real)) <= 1e-15 * scale
    assert L.real is not L.real  # a new array on every read, which the LU overwrites


@pytest.mark.parametrize("name", PRESET_NAMES + ("random",))
def test_real_form_and_norm_match_sparse_products(name):
    # The bincount over CSR entries gives the sparse products' real form bit
    # for bit at the presets; on random complex models the order of the
    # sums may differ in the last bit.
    if name == "random":
        rng = np.random.default_rng(5)
        models = [random_model(rng, n_lindblads=n) for n in (0, 1, 4, 7)]
    else:
        pre = figure_preset(name)
        models = [build_model(pre.params, pre.variant)]
    for m in models:
        L = build_liouvillian(m)
        real, norm_1 = sparse_product_real_form(L)
        assert L.real.flags["F_CONTIGUOUS"]
        if name == "random":
            assert np.max(np.abs(L.real - real)) <= 1e-14 * np.max(np.abs(real))
        else:
            assert np.array_equal(L.real, real)
        assert L.norm_1 == norm_1


def test_liouvillian_preserves_hermiticity_and_trace(rng):
    m = random_model(rng)
    L = build_liouvillian(m)
    for _ in range(5):
        rho = random_density(rng, 9)
        out = unvec(L.superop @ vec(rho), 9)
        assert np.max(np.abs(out - out.conj().T)) <= 1e-12
        assert abs(np.trace(out)) <= 1e-12


# ------------------------------------------------------------ assembly plans

def index_path_decay(c):
    """sum_k c_k^dag c_k by the per-call index path: every pair (i, l) of
    nonzero entries in row r of jump o, listed by explicit loops at every
    call (oracle for build_liouvillian's decay)."""
    n_ops, d, _ = c.shape
    quads = [(o, r, i, l) for o in range(n_ops) for r in range(d)
             for i in np.flatnonzero(c[o, r]) for l in np.flatnonzero(c[o, r])]
    o, r, i, l = np.array(quads, dtype=np.intp).reshape(-1, 4).T
    a, b = c[o, r, i], c[o, r, l]
    prod = np.empty(o.size, dtype=complex)
    prod.real = a.real * b.real + a.imag * b.imag
    prod.imag = a.real * b.imag - a.imag * b.real
    per_op = np.zeros((n_ops, d, d), dtype=complex)
    np.add.at(per_op, (o, i, l), prod)
    return per_op.sum(axis=0)


def kron_factors(model):
    """The jump stack and the left and right Kronecker factor stacks of
    build_liouvillian, with its term scales."""
    d = model.dim
    c = np.asarray(model.lindblads, dtype=complex).reshape(-1, d, d)
    heff = np.asarray(model.hamiltonian, dtype=complex) - 0.5j * index_path_decay(c)
    eye = np.eye(d, dtype=complex)
    left = np.concatenate([[eye, heff.conj()], c.conj()])
    right = np.concatenate([[heff, eye], c])
    return c, left, right, np.array([-1j, 1j] + [1.0] * len(c))


def index_path_liouvillian(model):
    """Superop by the per-call index path: COO triplets from np.nonzero of
    the factors, sorted stably by position, one csr_matrix conversion and
    eliminate_zeros (oracle for the plan-built generator)."""
    d = model.dim
    _, left, right, scale = kron_factors(model)
    # Every pair of nonzero entries left[t, ai, aj], right[t, bi, bj], by
    # explicit loops in term order.
    terms = [(t, ai, aj, bi, bj) for t in range(len(left))
             for ai, aj in zip(*np.nonzero(left[t])) for bi, bj in zip(*np.nonzero(right[t]))]
    t, ai, aj, bi, bj = np.array(terms, dtype=np.intp).reshape(-1, 5).T
    rows = ai * d + bi
    cols = aj * d + bj
    vals = left[t, ai, aj] * right[t, bi, bj] * scale[t]
    order = np.argsort(rows * d * d + cols, kind="stable")
    gen = sp.csr_matrix((vals[order], (rows[order], cols[order])), shape=(d * d, d * d))
    gen.eliminate_zeros()
    return gen


def basis_rows(d):
    """The nonzero entries of each row of dense_hermitian_basis(d), in column
    order, padded to two with 0 at column 0: columns and values, (2, d^2)."""
    T = dense_hermitian_basis(d)
    col, val = np.zeros((2, d * d), dtype=np.intp), np.zeros((2, d * d), dtype=complex)
    for r, row in enumerate(T):
        at = np.flatnonzero(row)
        col[:at.size, r], val[:at.size, r] = at, row[at]
    return col, val


def index_path_real(L):
    """Liouvillian.real by per-call gathers from the CSR arrays and from the
    rows of the outer-product basis (oracle for its plan)."""
    n = L.dim**2
    s = L.superop
    col, val = basis_rows(L.dim)
    r = np.repeat(np.arange(n), np.diff(s.indptr))
    x = val.take(r, axis=1).conj() * s.data
    terms = (x[:, None] * val.take(s.indices, axis=1)).real
    keys = col.take(r, axis=1)[:, None] * n + col.take(s.indices, axis=1)
    return np.bincount(keys.ravel(), terms.ravel(), minlength=n * n).reshape(n, n)


def assert_canonical_csr(s):
    """s is a valid CSR matrix in canonical form, with int32 indices, and
    equals the matrix that scipy's validating constructor makes of its
    arrays, entry for entry."""
    assert type(s) is sp.csr_matrix and s.dtype == complex
    n = s.shape[0]
    s.check_format(full_check=True)
    assert s.indices.dtype == s.indptr.dtype == np.int32
    rows = np.repeat(np.arange(n), np.diff(s.indptr))
    assert np.all(np.diff(rows * n + s.indices) > 0)  # sorted and unique in each row
    assert s.has_sorted_indices and s.has_canonical_format
    want = sp.csr_matrix((s.data.copy(), s.indices.copy(), s.indptr.copy()), shape=s.shape)
    assert want.has_sorted_indices and want.has_canonical_format
    assert_same_csr(s, want)
    assert (s != want).nnz == 0


def assert_plans_match_index_path(m):
    """Generator, real form and decay operator equal the per-call index
    path byte for byte, signed zeros included; the generator is a valid
    canonical CSR matrix."""
    L = build_liouvillian(m)
    assert_canonical_csr(L.superop)
    want = index_path_liouvillian(m)
    for name in ("data", "indices", "indptr"):
        got, ref = getattr(L.superop, name), getattr(want, name)
        assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes(), name
    assert L.real.tobytes() == index_path_real(L).tobytes()
    assert L.decay.tobytes() == index_path_decay(kron_factors(m)[0]).tobytes()
    return L


def zero_or(lo, hi):
    return st.one_of(st.just(0.0), st.floats(lo, hi))


# The Fig. 8 and Fig. 9 ranges with exact zeros of Omega, omega, gamma and
# Delta, which change the nonzero pattern, and microwave phases of both
# signs (including -0.0).
PLAN_PARAMS = st.fixed_dictionaries({
    "rabi_mhz": zero_or(0.02, 0.10),
    "microwave_rel": st.floats(-0.0125, 0.0125),
    "delta_mhz": zero_or(0.5, 5.0),
    "urr_mhz": zero_or(1.0, 10.0),
    "gamma_khz": zero_or(0.25, 2.5),
})


@settings(max_examples=40, deadline=None, derandomize=True)
@given(target=st.sampled_from(["singlet", "triplet", "phi", "phi_prime"]), p=PLAN_PARAMS,
       seed=st.integers(0, 2**32 - 1))
def test_plans_match_index_path(target, p, seed):
    scheme = "bell" if target in ("singlet", "triplet") else "qutrit"
    assert_plans_match_index_path(build_model(caption_params(**p), SchemeVariant(scheme, target)))
    # A synthetic model with complex entries and a random sparsity pattern.
    rng = np.random.default_rng(seed)
    m = random_model(rng, n_lindblads=int(rng.integers(0, 4)))
    m.hamiltonian[rng.random(m.hamiltonian.shape) < 0.5] = 0.0
    m.hamiltonian[:] = (m.hamiltonian + m.hamiltonian.conj().T) / 2
    for op in m.lindblads:
        op[rng.random(op.shape) < 0.8] = 0.0
    assert_plans_match_index_path(m)


def test_plans_keep_signed_zeros():
    # A purely imaginary Hamiltonian gives entries with a part that is -0.0
    # in every triplet; summing from the first triplet keeps the sign, as
    # scipy's sum of duplicates does (a sum from +0.0 would not).
    a = np.array([[0, 1, -2, 0], [-1, 0, 0.5, 3], [2, -0.5, 0, 1], [0, -3, -1, 0]])
    jump = np.zeros((4, 4), dtype=complex)
    jump[0, 1] = 1j
    m = SystemModel(dims=BipartiteDims(2, 2), hamiltonian=1j * a, lindblads=(jump,),
                    named_states={}, variant=BELL)
    parts = assert_plans_match_index_path(m).superop.data.view(float)
    assert np.any(np.signbit(parts) & (parts == 0))


def edge_models():
    """Hand-built models where a plan's term-by-term pairing meets factors
    with no nonzero entry: no jumps, an all-zero jump beside a nonzero one,
    an all-zero H, and d = 1."""
    def model(dims, h, jumps):
        d = math.prod(dims)
        return SystemModel(dims=BipartiteDims(*dims), hamiltonian=np.asarray(h, dtype=complex),
                           lindblads=np.asarray(jumps, dtype=complex).reshape(-1, d, d),
                           named_states={}, variant=BELL)

    h = random_model(np.random.default_rng(0), 2, 2).hamiltonian
    jump = np.zeros((4, 4), dtype=complex)
    jump[0, 2], jump[1, 3], jump[0, 3] = 1.0, 0.5j, -0.25
    return {
        "no jumps": model((2, 2), h, []),
        "zero jump beside a nonzero one": model((2, 2), h, [np.zeros((4, 4)), jump]),
        "zero H": model((2, 2), np.zeros((4, 4)), [jump]),
        "zero H, no jumps": model((2, 2), np.zeros((4, 4)), []),
        "d = 1": model((1, 1), [[0.7]], [[[0.0]], [[1.0 - 0.5j]]]),
        "d = 1, zero H": model((1, 1), [[0.0]], [[[2.0]]]),
    }


@pytest.mark.parametrize("name", list(edge_models()))
def test_plans_match_index_path_at_edge_patterns(name):
    assert_plans_match_index_path(edge_models()[name])


def test_real_plan_is_keyed_by_indices_too():
    # Superops that share indptr but not their column indices get plans of
    # their own.
    pre = figure_preset("fig2")
    L = build_liouvillian(build_model(pre.params, pre.variant))
    s, n = L.superop, L.dim**2
    for shift in (0, 1, 0):
        other = sp.csr_matrix((s.data, (s.indices + shift) % n, s.indptr), shape=s.shape)
        M = Liouvillian(dim=L.dim, superop=other, decay=L.decay)
        assert M.real.tobytes() == index_path_real(M).tobytes()


def test_plans_serve_interleaved_models():
    # Bell, qutrit and gamma = 0 models, each pattern its own plan, built in
    # turn twice: every build equals the index path.
    pre = [figure_preset(name) for name in ("fig2", "fig6-point")]
    models = [build_model(p.params, p.variant) for p in pre]
    models += [build_model(dataclasses.replace(p.params, gamma=0.0), p.variant) for p in pre]
    for _ in range(2):
        for m in models:
            assert_plans_match_index_path(m)


def test_plan_reuse_drops_entries_that_cancel():
    # Two models with one nonzero pattern: H diagonal, one jump sqrt(g) I.
    # With two equal levels in the second, its entries between those levels
    # cancel exactly (-g/2 - g/2 + g, and -i h + i h) and are dropped,
    # although its triplets come from the first model's plan.
    d = 6
    distinct, repeated = cancelling_model(), cancelling_model((1.0, 2, 3, 4, 5, 5))
    first = assert_plans_match_index_path(distinct)
    hits = _generator_plan.cache_info().hits
    second = assert_plans_match_index_path(repeated)
    assert _generator_plan.cache_info().hits == hits + 1
    assert first.superop.nnz == d * d - d
    assert second.superop.nnz == d * d - d - 2
    dense = kron_liouvillian(repeated.hamiltonian, repeated.lindblads)
    assert np.array_equal(second.superop.toarray(), dense)


# Misses and hits of each plan cache over a 4-point sweep of one pattern.
PLAN_CACHES = {_generator_plan: (1, 3), _real_plan: (1, 3)}


def test_sweep_misses_each_plan_once(capsys):
    for cache in PLAN_CACHES:
        cache.cache_clear()
    assert main(["sweep", "--preset", "fig8a", "--axis", "rabi-mhz", "0.02", "0.1", "2",
                 "--axis", "microwave-rel", "0.002", "0.01", "2", "--reduce", "chsh",
                 "--no-timestamp"]) == 0
    for cache, want in PLAN_CACHES.items():
        info = cache.cache_info()
        assert (info.misses, info.hits) == want, cache.__name__
        assert info.maxsize is not None


def test_steady_state_and_real_form_read_one_plan():
    # One generator solved by steady_state, then read by L.real and
    # liouvillian_gap, makes one real-form plan and no other, and its
    # dense form, which leaves out the terms of every zero part, is still
    # the index path's byte for byte (fig8a's amplitudes are real).
    pre = figure_preset("fig8a")
    L = build_liouvillian(build_model(pre.params, pre.variant))
    assert np.count_nonzero(L.superop.data.view(float) == 0) > 0
    caches = [f for f in vars(dynamics).values() if hasattr(f, "cache_info")]
    for cache in caches:
        cache.cache_clear()
    steady_state(L)
    real = L.real
    liouvillian_gap(L)
    misses = {f.__name__: f.cache_info().misses for f in caches if f.cache_info().misses}
    assert misses == {"_hermitian_rows": 1, "_real_plan": 1}
    assert _real_plan.cache_info().hits == 2
    assert real.tobytes() == index_path_real(L).tobytes()


def test_band_layout_is_built_only_by_a_factorisation():
    # evolve and liouvillian_gap read the real-form terms alone: from an
    # empty plan cache neither runs Cuthill-McKee or a band solve, and
    # evolve makes one expm per distinct step (a preset's grid is uniform,
    # so one).  The first steady state of a pattern builds the layout once
    # and keeps it on the plan, so a second call does not build it again.
    calls = collections.Counter()

    def counting(name, f):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return f(*args, **kwargs)
        return wrapper

    names = ("_cuthill_mckee", "_gbtrf", "_gbtrs")
    with mock.patch.multiple(dynamics, **{n: counting(n, getattr(dynamics, n)) for n in names}), \
            mock.patch.object(dynamics.sla, "expm", counting("expm", expm)):
        for name in ("fig3", "fig5-inset"):
            _real_plan.cache_clear()
            calls.clear()
            fig, pre = find_figure(name), figure_preset(name)
            m = build_model(pre.params, pre.variant)
            t = np.linspace(0.0, fig.t_max_ms * 1e-3, fig.samples)
            evolve(build_liouvillian(m), m.initial_density(fig.initial), t)
            assert calls == {"expm": 1}, name
        _real_plan.cache_clear()
        calls.clear()
        pre = figure_preset("fig8a")
        L = build_liouvillian(build_model(pre.params, pre.variant))
        liouvillian_gap(L)
        assert calls["_cuthill_mckee"] == 0
        for _ in range(2):
            steady_state(L)
            assert calls["_cuthill_mckee"] == 1
    assert _real_plan.cache_info().misses == 1


def generator_plan(model):
    """build_liouvillian's plan of a model: its arrays, then its count of
    H_eff entries and its empty CSR matrix."""
    c = kron_factors(model)[0]
    return _generator_plan(model.dim, (model.hamiltonian != 0).tobytes(), (c != 0).tobytes())


@pytest.mark.parametrize("name", ["fig8a", "fig6-point"])
def test_each_build_looks_up_one_plan(name):
    # build_model hands over its jumps as one complex stack, and each
    # build_liouvillian call makes one generator-plan lookup.
    pre = figure_preset(name)
    m = build_model(pre.params, pre.variant)
    assert type(m.lindblads) is np.ndarray and m.lindblads.dtype == complex
    assert m.lindblads.shape == ({"bell": 4, "qutrit": 9}[pre.variant.scheme], m.dim, m.dim)
    for _ in range(3):
        before = _generator_plan.cache_info()
        build_liouvillian(m)
        after = _generator_plan.cache_info()
        assert after.hits + after.misses == before.hits + before.misses + 1


def test_plans_match_index_path_where_heff_cancels():
    # H_01 = 0.5i (c^dag c)_01 = -0.5, so H_eff_01 is an exact zero that the
    # plan, which takes H_eff nonzero wherever H is, still pairs.  Its
    # triplets add nothing, not even the sign of a zero part, and the
    # entries that hold only them are dropped.
    jump = np.zeros((4, 4), dtype=complex)
    jump[0, :2] = -1j, 1.0
    h = np.zeros((4, 4), dtype=complex)
    h[:2, :2] = [[1.0, -0.5], [-0.5, 1.0]]
    m = SystemModel(dims=BipartiteDims(2, 2), hamiltonian=h, lindblads=(jump,),
                    named_states={}, variant=BELL)
    assert (h - 0.5j * jump.conj().T @ jump)[0, 1] == 0
    L = assert_plans_match_index_path(m)
    entry_rows = generator_plan(m)[7]
    assert L.superop.nnz < entry_rows.size


def test_plan_arrays_are_read_only():
    pre = figure_preset("fig2")
    m = build_model(pre.params, pre.variant)
    L = build_liouvillian(m)
    plan = real_plan(L)
    layout = _bordered_lu(L)[2]
    assert layout is plan.layout
    plans = [generator_plan(m)[:-2],
             [a for a in (*vars(plan).values(), *layout) if isinstance(a, np.ndarray)],
             _hermitian_rows(m.dim)]
    assert len(plans[1]) == 9
    for plan in plans:
        for a in plan:
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[...] = 0


@pytest.mark.parametrize("name", PRESET_NAMES + ("cancelling",))
def test_superop_is_canonical_csr(name):
    if name == "cancelling":
        m = cancelling_model()
    else:
        pre = figure_preset(name)
        m = build_model(pre.params, pre.variant)
    assert_canonical_csr(build_liouvillian(m).superop)


@pytest.mark.parametrize("levels", [(1.0, 2, 3, 4, 5, 6), (1.0, 2, 3, 4, 5, 5)])
def test_superops_of_one_plan_share_no_writable_array(levels):
    # Two builds from one plan, with no entry cancelling and with entries
    # dropped: their arrays are writable and shared with neither each other,
    # the plan nor the empty matrix they are copied from, which stays empty.
    m = cancelling_model(levels)
    first, second = build_liouvillian(m).superop, build_liouvillian(m).superop
    *plan, _, template = generator_plan(m)
    fixed = plan + [template.data, template.indices, template.indptr]
    arrays = [(s, name, getattr(s, name)) for s in (first, second)
              for name in ("data", "indices", "indptr")]
    for s, name, a in arrays:
        assert a.flags.writeable, name
        for t, other, b in arrays:
            assert s is t or not np.shares_memory(a, b), (name, other)
        for b in fixed:
            assert not np.shares_memory(a, b), name
    assert template.nnz == 0 and template.shape == first.shape


def test_returned_superop_arrays_are_its_own():
    # Writing into one result's arrays leaves the next build unchanged.
    pre = figure_preset("fig2")
    m = build_model(pre.params, pre.variant)
    first = build_liouvillian(m)
    for name in ("data", "indices", "indptr"):
        getattr(first.superop, name)[...] = 0
    assert_plans_match_index_path(m)


def test_liouvillian_gamma_scale():
    m = bell_model()
    L = build_liouvillian(m)
    # |rr> decays at gamma from each atom
    assert L.gamma_scale == pytest.approx(2 * 1673.0, rel=1e-12)


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_gamma_scale_is_computed_on_first_read(name):
    pre = figure_preset(name)
    m = build_model(pre.params, pre.variant)
    L = build_liouvillian(m)
    assert "gamma_scale" not in vars(L)
    decay = sum(c.conj().T @ c for c in m.lindblads)
    assert L.gamma_scale == float(np.linalg.eigvalsh((decay + decay.conj().mT) / 2)[-1])
    assert vars(L)["gamma_scale"] == L.gamma_scale


def test_sweep_never_computes_gamma_scale(monkeypatch):
    built = []

    def recording(model):
        built.append(build_liouvillian(model))
        return built[-1]

    monkeypatch.setattr(dynamics, "build_liouvillian", recording)
    pre = figure_preset("fig8a")
    _, values, errors = rydpump.sweep(find_figure("fig8a").caption, pre.variant,
                                      [("rabi-mhz", 0.02, 0.1, 2), ("microwave-rel", 0.002, 0.01, 2)],
                                      "chsh")
    assert errors == [""] * 4 and np.isfinite(values).all()
    assert len(built) == 4
    assert all("gamma_scale" not in vars(L) for L in built)


# ----------------------------------------------------------------- evolve

def test_evolve_stationary_diagonal():
    m = bell_model(rabi_optical=0.0, rabi_microwave_1=0.0, gamma=0.0)
    L = build_liouvillian(m)
    rho0 = m.initial_density("ff")
    traj = evolve(L, rho0, np.linspace(0, 1e-3, 5))
    for state in traj.states:
        assert np.max(np.abs(state - rho0)) <= 1e-12


def test_evolve_closed_form_decay():
    # Omega = omega = 0, start |rr>: population decays as exp(-2 gamma t)
    gamma = 1673.0
    m = bell_model(rabi_optical=0.0, rabi_microwave_1=0.0, gamma=gamma)
    L = build_liouvillian(m)
    rho0 = m.initial_density("rr")
    t = np.linspace(0, 2e-3, 9)
    traj = evolve(L, rho0, t)
    rr = m.state("rr")
    for k, tk in enumerate(t):
        pop = np.vdot(rr, traj.states[k] @ rr).real
        assert pop == pytest.approx(np.exp(-2 * gamma * tk), abs=1e-10)


def test_evolve_semigroup_property():
    m = bell_model()
    L = build_liouvillian(m)
    rho0 = m.initial_density("mix4")
    one_hop = evolve(L, rho0, np.array([0.0, 2.5e-3])).states[-1]
    two_hop = evolve(L, evolve(L, rho0, np.array([0.0, 1.0e-3])).states[-1],
                     np.array([0.0, 1.5e-3])).states[-1]
    assert trace_distance(one_hop, two_hop) <= 1e-7


def test_evolve_physicality_along_trajectory():
    m = bell_model()
    L = build_liouvillian(m)
    traj = evolve(L, m.initial_density("mix4"), np.linspace(0, 50e-3, 51))
    for state in traj.states:
        assert abs(np.trace(state).real - 1.0) <= 1e-6
        assert np.linalg.eigvalsh(state)[0] >= -1e-6
        assert np.max(np.abs(state - state.conj().T)) <= 1e-8


def test_evolve_contraction_of_trace_distance(rng):
    m = random_model(rng)
    L = build_liouvillian(m)
    t = np.linspace(0, 2.0, 6)
    traj1 = evolve(L, random_density(rng, 9), t)
    traj2 = evolve(L, random_density(rng, 9), t)
    dists = [trace_distance(a, b) for a, b in zip(traj1.states, traj2.states)]
    for before, after in zip(dists, dists[1:]):
        assert after <= before + 1e-7


def test_evolve_expm_matches_adaptive(rng):
    m = random_model(rng, n_lindblads=2)
    L = build_liouvillian(m)
    rho0 = random_density(rng, 9)
    t = np.linspace(0, 1.5, 4)
    a = evolve(L, rho0, t)
    # reference: adaptive Runge-Kutta on the vectorized master equation
    ref = solve_ivp(lambda _t, v: L.superop @ v, (t[0], t[-1]), vec(rho0), t_eval=t,
                    method="DOP853", rtol=1e-10, atol=1e-12)
    assert ref.success
    b = [unvec(v, 9) for v in ref.y.T]
    assert max(trace_distance(x, y) for x, y in zip(a.states, b)) <= 1e-8


@pytest.mark.parametrize("name", ["fig3", "fig5-inset"])
def test_evolve_matches_complex_expm_path(name):
    m, L, rho0, t = figure_run(name)
    states = evolve(L, rho0, t).states
    assert np.max(np.abs(states - complex_expm_states(L, rho0, t))) <= 2e-10


def test_evolve_matches_longdouble_reference():
    # The real generator, its propagator and the propagation all in
    # extended precision at fig3 (301 samples over 300 ms).
    m, L, rho0, t = figure_run("fig3")
    T = dense_hermitian_basis(L.dim).astype(np.clongdouble)
    gen = (T.conj().T @ L.superop.toarray().astype(np.clongdouble) @ T).real
    prop = longdouble_expm(gen * (t[1] - t[0]))
    x = (T.conj().T @ vec(rho0)).real
    ref = [x]
    for _ in t[1:]:
        x = prop @ x
        ref.append(x)
    ref = unvec((np.array(ref) @ T.T).astype(complex), L.dim)
    assert np.max(np.abs(evolve(L, rho0, t).states - ref)) <= 2e-10


class COrderedLiouvillian(Liouvillian):
    """A Liouvillian whose real form is C-ordered."""

    @property
    def real(self):
        return np.ascontiguousarray(Liouvillian.real.fget(self))


@pytest.mark.parametrize("name", ["fig3", "fig5-inset"])
def test_propagation_does_not_depend_on_real_form_layout(name):
    # evolve reads the Fortran-ordered L.real that the LU factors: expm
    # copies its argument into C-ordered scratch, so the propagator and
    # every state are the bytes a C-ordered form gives.
    m, L, rho0, t = figure_run(name)
    dt = t[1] - t[0]
    prop = expm(L.real * dt)
    assert prop.flags["C_CONTIGUOUS"]
    assert prop.tobytes() == expm(np.ascontiguousarray(L.real) * dt).tobytes()
    c_ordered = COrderedLiouvillian(L.dim, L.superop, L.decay)
    assert c_ordered.real.flags["C_CONTIGUOUS"]
    assert evolve(L, rho0, t).states.tobytes() == evolve(c_ordered, rho0, t).states.tobytes()


def test_evolve_states_are_contiguous_per_state():
    # Each state is one contiguous block, d^2 complex entries after the
    # previous one; the stacked measures are several times slower on a
    # strided stack.
    m, L, rho0, t = figure_run("fig2-inset")
    d = L.dim
    states = evolve(L, rho0, t[:7]).states
    assert states.strides == (d * d * 16, 16, d * 16)
    assert states.swapaxes(-1, -2).flags.c_contiguous


def test_evolve_names_first_unphysical_sample():
    # The negated generator of pure decay (Omega = omega = 0) keeps trace
    # and Hermiticity but pumps population back into |rr>, driving the
    # lower levels negative; the error names the first sample whose
    # minimum eigenvalue, from an independent dense expm, is below -1e-6.
    m = bell_model(rabi_optical=0.0, rabi_microwave_1=0.0)
    L = build_liouvillian(m)
    anti = Liouvillian(dim=L.dim, superop=-L.superop, decay=L.decay)
    rho0 = m.initial_density("rr")
    t = np.linspace(0.0, 2.5e-9, 11)
    gen = -L.superop.toarray()
    min_eigs = [np.linalg.eigvalsh(unvec(expm(gen * tk) @ vec(rho0), 9))[0] for tk in t]
    first = int(np.argmax(np.array(min_eigs) < -1e-6))
    assert 1 < first < t.size - 1
    with pytest.raises(ConvergenceError, match="negative eigenvalue") as err:
        evolve(anti, rho0, t)
    assert str(err.value).endswith(f"at t = {t[first]:.6g} s")


def test_check_physical_reports_earliest_sample_and_first_check():
    t = np.array([0.0, 1.0, 2.0, 3.0])
    states = np.stack([np.eye(2, dtype=complex) / 2] * 4)
    states[2] = np.diag([1.2, -0.2])          # negative eigenvalue at t = 2
    states[3] = np.diag([1.1, 0.0])           # trace drift at t = 3
    with pytest.raises(ConvergenceError, match=r"negative eigenvalue .* at t = 2 s"):
        _check_physical(states, t)
    states[1] = np.diag([1.1, -0.2])          # trace and eigenvalue fail at t = 1
    with pytest.raises(ConvergenceError, match=r"trace drifted by .* at t = 1 s"):
        _check_physical(states, t)


def eigvalsh_physical_error(states, t):
    """The eigvalsh-only physicality rule on Hermitian states, kept as the
    oracle of the Cholesky fast path: the message ConvergenceError carries,
    or None."""
    tr_err = np.abs(np.trace(states, axis1=-2, axis2=-1) - 1.0)
    min_eig = np.linalg.eigvalsh(states)[:, 0]
    failed = np.argwhere(np.column_stack([tr_err > 1e-6, min_eig < -1e-6]))
    if failed.size == 0:
        return None
    k, check = failed[0]
    msg = (f"trace drifted by {tr_err[k]:.2e}", f"negative eigenvalue {min_eig[k]:.2e}")[check]
    return f"{msg} at t = {t[k]:.6g} s"


def state_with_min_eigenvalue(rng, d, lam_min):
    """Hermitian unit-trace d x d state whose smallest eigenvalue is lam_min."""
    rest = rng.uniform(0.5, 1.5, d - 1)
    lam = np.concatenate([[lam_min], rest * (1.0 - lam_min) / rest.sum()])
    u = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))[0]
    rho = (u * lam) @ u.conj().T
    return (rho + rho.conj().T) / 2


@pytest.mark.parametrize("d", [2, 9, 20])
def test_check_physical_decides_as_eigvalsh_rule(d, rng):
    # Probe states at, just either side of, and well clear of the -1e-6
    # threshold, placed first, in the middle or only at the last sample of
    # a stack of clearly positive states.
    probes = [-1e-6 - 1e-13, -1e-6 + 1e-13, -1e-6 - 1e-9, -1e-6 + 1e-9, -1e-6,
              -1e-3, 0.0, 1e-3]
    nt = 7
    t = np.linspace(0.0, 6e-3, nt)
    for lam in probes:
        for k in (0, nt // 2, nt - 1):
            states = np.stack([state_with_min_eigenvalue(rng, d, 0.01 / d) for _ in range(nt)])
            states[k] = state_with_min_eigenvalue(rng, d, lam)
            want = eigvalsh_physical_error(states, t)
            if want is None:
                _check_physical(states, t)
            else:
                with pytest.raises(ConvergenceError) as err:
                    _check_physical(states, t)
                assert str(err.value) == want
            # A Cholesky success is a proof: it never passes what the rule
            # fails.  From -1e-6 + 1e-9 up it succeeds, so the fast path decides.
            if _positive_by_cholesky(states.copy(), -1e-6):
                assert want is None
            else:
                assert lam < -1e-6 + 1e-9


def test_check_physical_falls_back_for_trace_and_non_finite_states(rng):
    t = np.linspace(0.0, 1.0, 4)
    states = np.stack([state_with_min_eigenvalue(rng, 9, 0.001) for _ in range(4)])
    states[3, 0, 0] += 2e-6                    # trace fails only at the last sample
    with pytest.raises(ConvergenceError) as err:
        _check_physical(states, t)
    assert str(err.value) == eigvalsh_physical_error(states, t)
    states[3, 0, 0] -= 2e-6
    states[2, 4, 4] = np.nan                   # nan passes no comparison
    # The eigenvalue rule alone fails on a non-finite stack: eigvalsh does
    # not converge.  A non-finite state is named before its other checks,
    # and the eigenvalues of the finite states decide the rest.
    with pytest.raises(np.linalg.LinAlgError):
        eigvalsh_physical_error(states, t)
    with pytest.raises(ConvergenceError) as err:
        _check_physical(states, t)
    assert str(err.value) == f"non-finite state at t = {t[2]:.6g} s"
    states[1, 0, 0] += 2e-6                    # an earlier trace failure is named first
    with pytest.raises(ConvergenceError) as err:
        _check_physical(states, t)
    assert str(err.value) == eigvalsh_physical_error(states[:2], t[:2])
    states[1, 0, 0] -= 2e-6
    states[3, 1, 2] = np.inf                   # the earliest of two non-finite states
    with pytest.raises(ConvergenceError, match=r"^non-finite state at t = 0\.666667 s$"):
        _check_physical(states, t)


def test_check_physical_across_blocks_decides_as_eigvalsh_rule(rng):
    # A stack of 3B + 5 states, B per block, is checked block by block: the
    # error names the earliest failing sample of the whole stack and its
    # first failed check, and a block whose Cholesky proof fails while its
    # eigenvalues pass does not raise, nor stop the later blocks' checks.
    d = 9
    B = linalg._BLOCK_BYTES // (d * d * 16)
    nt = 3 * B + 5
    t = np.linspace(0.0, 1.0, nt)
    clean = np.stack([state_with_min_eigenvalue(rng, d, 0.01 / d) for _ in range(nt)])

    def check(states, want):
        if want is None:
            _check_physical(states, t)
        else:
            with pytest.raises(ConvergenceError) as err:
                _check_physical(states, t)
            assert str(err.value) == want

    # The earliest failure lies in a later block, before another failure.
    states = clean.copy()
    states[2 * B + 3] = state_with_min_eigenvalue(rng, d, -1e-3)
    states[3 * B + 1, 0, 0] += 2e-6
    check(states, eigvalsh_physical_error(states, t))
    assert "negative eigenvalue" in eigvalsh_physical_error(states, t)

    # A non-finite state in one block, a trace drift in an earlier one, and
    # the other way round.  The states are Hermitian, as evolve's are: the
    # proof reads only the lower triangle.
    states = clean.copy()
    states[B + 4, 2, 3] = states[B + 4, 3, 2] = np.nan
    states[3, 0, 0] += 2e-6
    check(states, eigvalsh_physical_error(states[:B], t[:B]))
    states[3, 0, 0] -= 2e-6
    states[2 * B + 2, 0, 0] += 2e-6
    check(states, f"non-finite state at t = {t[B + 4]:.6g} s")

    # The proof fails on the second block, whose eigenvalues pass.
    states = clean.copy()
    states[B + 2] = state_with_min_eigenvalue(rng, d, -1e-6 + 1e-13)
    assert not _positive_by_cholesky(states[B:2 * B].copy(), -1e-6)
    assert eigvalsh_physical_error(states, t) is None
    check(states, None)
    states[2 * B + 7] = state_with_min_eigenvalue(rng, d, -1e-3)
    check(states, eigvalsh_physical_error(states, t))
    assert f"at t = {t[2 * B + 7]:.6g} s" in eigvalsh_physical_error(states, t)


def test_evolve_names_a_state_that_overflows():
    # Over 1e20 s the propagators of fig3 overflow: the first non-finite
    # state is named, with no eigenvalue computed on it.
    m, L, rho0, _ = figure_run("fig3")
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(ConvergenceError, match=r"^non-finite state at t = 5e\+19 s$"):
        evolve(L, rho0, np.linspace(0.0, 1e20, 3))


def zero_liouvillian(d):
    """A generator that every state solves: residual and error bound are 0,
    so only the positivity check can reject a state in _finalize."""
    return Liouvillian(d, sp.csr_matrix((d * d, d * d), dtype=complex), np.zeros((d, d)))


@pytest.mark.parametrize("d", [9, 20])
@pytest.mark.parametrize("bound", [-1e-9, -1e-6])
def test_positivity_helper_proves_each_bound(bound, d, rng):
    # One helper serves both rules: -1e-9 for a steady state (_finalize) and
    # -1e-6 along a trajectory (_check_physical).  At half the bound the
    # shifted Cholesky proves the state positive enough; at twice the bound
    # it proves nothing, and the eigenvalues reject the state with the
    # message they always gave.
    passing = state_with_min_eigenvalue(rng, d, bound / 2)
    failing = state_with_min_eigenvalue(rng, d, 2 * bound)
    assert _positive_by_cholesky(passing.copy(), bound)
    assert not _positive_by_cholesky(failing.copy(), bound)
    if bound == -1e-9:
        def check(rho):
            _finalize(zero_liouvillian(d), vec(rho), {"method": "nullspace", "drazin_norm": 1.0})
        want = "steady state has eigenvalue -2.000e-09 below -1e-09 (backend nullspace)"
    else:
        def check(rho):
            _check_physical(rho[None], np.zeros(1))
        want = "negative eigenvalue -2.00e-06 at t = 0 s"
    check(passing)
    with pytest.raises(ConvergenceError) as err:
        check(failing)
    assert str(err.value) == want


@pytest.mark.parametrize("i, j, bad", [(3, 1, np.nan), (4, 4, np.inf), (5, 2, np.inf)])
def test_positivity_helper_proves_nothing_for_non_finite_entries(i, j, bad, rng):
    # A NaN or an off-diagonal inf stops the factorisation; +inf on the
    # diagonal lets it finish with an infinite pivot.  Either way the helper
    # proves nothing and the eigenvalues decide, here by failing.
    rho = state_with_min_eigenvalue(rng, 9, 0.01)
    rho[i, j] = bad
    rho[j, i] = np.conj(bad)
    assert not _positive_by_cholesky(rho.copy(), -1e-9)
    assert not _positive_by_cholesky(np.stack([rho, rho]), -1e-6)
    with np.errstate(invalid="ignore"), pytest.raises(np.linalg.LinAlgError):
        _finalize(zero_liouvillian(9), vec(rho), {"method": "nullspace", "drazin_norm": 1.0})


def test_finalize_decides_by_eigenvalues_within_the_cholesky_margin(rng):
    # A steady state 5e-13 above the -1e-9 floor fails the Cholesky proof,
    # whose shift keeps _CHOLESKY_MARGIN (1e-12) in hand, so its eigenvalues
    # decide and accept it.  One 1e-12 below the floor is rejected.
    d = 9
    info = {"method": "nullspace", "drazin_norm": 1.0}
    near = state_with_min_eigenvalue(rng, d, -1e-9 + 5e-13)
    with mock.patch.object(np.linalg, "eigvalsh", wraps=np.linalg.eigvalsh) as eig:
        rho, out = _finalize(zero_liouvillian(d), vec(near), dict(info))
    assert eig.call_count == 1
    assert np.max(np.abs(rho - near)) <= 1e-15 and out["error_bound"] == 0.0
    below = state_with_min_eigenvalue(rng, d, -1e-9 - 1e-12)
    with pytest.raises(ConvergenceError, match=r"^steady state has eigenvalue -1\.001e-09 "
                       r"below -1e-09 \(backend nullspace\)$"):
        _finalize(zero_liouvillian(d), vec(below), dict(info))


def loop_propagate(L, v0, t):
    """The per-step loop _propagate_expm replaced: the propagator looked up
    at every step and the state reallocated (oracle, bit for bit)."""
    T = sparse_hermitian_basis(L.dim)
    x = (T.conj().T @ v0).real
    out = np.empty((t.size, x.size))
    out[0] = x
    snap = _STEP_SNAP_RTOL / max(L.norm_1, 1.0)
    cache = []
    for k, dt in enumerate(np.diff(t), start=1):
        prop = None
        for dt_ref, p in cache:
            if abs(dt - dt_ref) <= snap:
                prop = p
                break
        if prop is None:
            prop = expm(L.real * dt)
            cache.append((dt, prop))
        x = prop @ x
        out[k] = x
    return np.ascontiguousarray((T @ out.T).T)


def test_propagate_matches_per_step_loop():
    m, L, rho0, t = figure_run("fig3")
    v0 = vec(rho0)
    snap = _STEP_SNAP_RTOL / L.norm_1
    a, b = 1e-3, 2.5e-3
    grids = {
        "uniform": t,
        "two samples": t[:2],
        "one sample": t[:1],
        "alternating": np.concatenate([[0.0], np.cumsum([a, b] * 20)]),
        # within the snap of the first reference, then just beyond it, and
        # back to a reference made earlier
        "snapped": np.concatenate([[0.0], np.cumsum(
            [a, a + 0.5 * snap, b, a - 0.9 * snap, a + 3 * snap, b + 0.2 * snap, a] * 5)]),
        "all distinct": np.concatenate([[0.0], np.cumsum(a * 1.1 ** np.arange(12))]),
    }
    for name, grid in grids.items():
        got = _propagate_expm(L, v0, grid)
        want = loop_propagate(L, v0, grid)
        assert got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name


def test_steps_beyond_the_snap_take_their_own_propagators():
    # At fig3 the snap is 4.5e-16 s.  Steps of 1 ms and 1 ms + 1e-12 s differ
    # by 2000 snaps but by 1e-9 relative: each takes its own expm.
    _, L, rho0, _ = figure_run("fig3")
    a, delta = 1e-3, 1e-12
    assert _STEP_SNAP_RTOL / L.norm_1 < delta < 1e-3 / L.norm_1
    with mock.patch.object(dynamics.sla, "expm", wraps=expm) as spy:
        evolve(L, rho0, np.array([0.0, a, 2 * a + delta]))
    assert spy.call_count == 2


def traced_peak(f) -> int:
    """The largest total of traced allocations live at once during f()."""
    tracemalloc.start()
    try:
        f()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("grid", ["one step", "two steps"])
def test_evolve_holds_nothing_across_expm(grid):
    # At fig5-inset (n = 400) expm's own workspace sets evolve's traced peak:
    # neither the real form nor the 401 x n coordinate stack is live while an
    # expm runs.  With a second step size, the first propagator (8 n^2 bytes)
    # is held across the second expm, and nothing more.
    _, L, rho0, t = figure_run("fig5-inset")
    n = L.dim**2
    held = 0
    if grid == "two steps":
        t = np.concatenate([t[:201], t[200] + 2 * (t[201:] - t[200])])
        held = 8 * n * n
    evolve(L, rho0, t)  # the cached plans and properties, once
    alone = max(traced_peak(lambda: expm(L.real * dt)) for dt in np.unique(np.diff(t)[[0, -1]]))
    assert traced_peak(lambda: evolve(L, rho0, t)) <= alone + held + 0.1e6


def test_evolve_rejects_initial_state_one_micro_off():
    # 1e-6 off unit trace, or Hermitian, or PSD is far outside the 1e-10
    # tolerance of an initial state.
    m = bell_model()
    L = build_liouvillian(m)
    t = np.array([0.0, 1e-4])
    good = m.initial_density("mix4")
    bad = good.copy()
    bad[0, 0] += 1e-6
    with pytest.raises(ValueError, match="unit trace"):
        evolve(L, bad, t)
    bad = good.copy()
    bad[0, 1] = 1e-6
    with pytest.raises(ValueError, match="not Hermitian"):
        evolve(L, bad, t)
    bad = good.copy()
    bad[8, 8], bad[0, 0] = -1e-6, bad[0, 0] + 1e-6
    with pytest.raises(ValueError, match="positive semidefinite"):
        evolve(L, bad, t)


def test_evolve_rejects_bad_initial_states():
    m = bell_model()
    L = build_liouvillian(m)
    t = np.array([0.0, 1e-4])
    good = m.initial_density("ff")
    with pytest.raises(ValueError, match="Hermitian"):
        bad = good.copy(); bad[0, 1] = 1.0
        evolve(L, bad, t)
    with pytest.raises(ValueError, match="trace"):
        evolve(L, 2.0 * good, t)
    with pytest.raises(ValueError, match="positive semidefinite"):
        bad = good.copy(); bad[0, 0] = -0.1; bad[1, 1] = 1.1
        evolve(L, bad, t)
    with pytest.raises(ValueError, match="start at 0"):
        evolve(L, good, np.array([1e-4, 2e-4]))
    with pytest.raises(ValueError, match="strictly increasing"):
        evolve(L, good, np.array([0.0, 1e-4, 1e-4]))
    with pytest.raises(ValueError, match=r"^initial state must be 9x9, got shape \(4, 4\)$"):
        evolve(L, np.eye(4) / 4, t)
    with pytest.raises(ValueError, match="^t_grid must be a 1-D array of times$"):
        evolve(L, good, t[None])


def test_evolve_rejects_non_finite_input():
    # Non-finite times and generator entries are rejected before the
    # propagator loop, where a NaN step snaps to no reference step.
    m = bell_model()
    good = m.initial_density("ff")
    for t in ([0.0, np.nan], [0.0, np.inf]):
        with pytest.raises(ValueError, match="finite times"):
            evolve(build_liouvillian(m), good, np.array(t))
    broken = build_liouvillian(m)
    broken.superop.data[0] = np.nan
    with pytest.raises(ValueError, match="the Liouvillian has a non-finite entry"):
        evolve(broken, good, np.array([0.0, 1e-4]))
    assert np.isfinite(build_liouvillian(m).superop.data).all()


@pytest.mark.parametrize("value, entries", [(np.nan, [(0, 0)]), (np.inf, [(1, 2), (2, 1)])],
                         ids=["nan", "inf-pair"])
def test_evolve_rejects_non_finite_initial_state(value, entries):
    # A NaN on the diagonal, or an inf pair that keeps rho Hermitian, is bad
    # input, reported before any check or eigensolve could warn or fail.
    m, L, rho0, t = figure_run("fig3")
    bad = rho0.astype(complex)
    for i, j in entries:
        bad[i, j] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^initial state has a non-finite entry$"):
            evolve(L, bad, t)


# ----------------------------------------------------------- steady states

def test_steady_state_degenerate_decay_only():
    # no drives: the whole ground manifold is stationary
    m = bell_model(rabi_optical=0.0, rabi_microwave_1=0.0)
    L = build_liouvillian(m)
    with pytest.raises(NonUniqueSteadyStateError, match="non-unique"):
        steady_state(L)


def test_steady_state_fig2_fidelity():
    pre = figure_preset("fig2")
    m = build_model(pre.params, pre.variant)
    L = build_liouvillian(m)
    rho, info = steady_state(L, return_info=True)
    assert info["residual"] <= 1e-8
    assert fidelity(m.state("S"), rho) == pytest.approx(0.999, abs=0.005)


def test_steady_state_backends_agree():
    pre = figure_preset("fig2")
    m = build_model(pre.params, pre.variant)
    L = build_liouvillian(m)
    rho_a = steady_state(L, method="nullspace")
    rho_b, info = steady_state(L, method="evolve", return_info=True)
    assert info["residual"] <= 1e-8
    assert trace_distance(rho_a, rho_b) <= 1e-5


def test_steady_state_is_fixed_point_of_evolution():
    pre = figure_preset("fig2")
    m = build_model(pre.params, pre.variant)
    L = build_liouvillian(m)
    rho = steady_state(L)
    later = evolve(L, rho, np.array([0.0, 5e-3])).states[-1]
    assert trace_distance(rho, later) <= 1e-9


def off_resonant_qutrit(urr_mhz, delta_mhz):
    """The generator at fig6-point with U_rr and Delta replaced."""
    caption = dict(find_figure("fig6-point").caption, urr_mhz=urr_mhz, delta_mhz=delta_mhz)
    return build_liouvillian(build_model(caption_params(**caption), SchemeVariant("qutrit", "phi")))


@pytest.mark.parametrize("urr_mhz, delta_mhz", [(2.0, 0.9), (3.0, 1.35)])
def test_steady_evolve_backend_off_resonance(urr_mhz, delta_mhz):
    # Delta 10 % below U_rr/2 at fig6-point: slow gaps (about 0.05 1/s).
    # The evolve backend propagates the complex generator and reaches
    # ||L vec(rho)||_2 / gap of 4.4e-9 to 5.8e-9 here.  Propagating the real
    # form instead leaves all rounding error in the Hermitian part, which
    # the Hermitian projection cannot remove: 8.4e-9 to 9.2e-9 here.  The
    # certificate ||L^D||_2 ||L vec(rho)||_2 is 1.4-1.5 times the first
    # (6.3e-9 and 7.8e-9 with BLAS on one thread).
    L = off_resonant_qutrit(urr_mhz, delta_mhz)
    rho, info = steady_state(L, method="evolve", return_info=True)
    assert np.linalg.norm(L.superop @ vec(rho)) / liouvillian_gap(L) <= 7e-9
    assert info["error_bound"] <= 1e-8
    assert np.max(np.abs(rho - steady_state(L))) <= 1e-8


@pytest.mark.parametrize("point, doublings", [
    ("fig2", 13), ("fig8a", 12), ("fig6-point", 13),
    pytest.param((2.0, 0.9), 21, id="off-resonance-urr-2"),
    pytest.param((3.0, 1.35), 21, id="off-resonance-urr-3")])
def test_steady_evolve_stops_on_its_certificate(point, doublings):
    # The evolve backend stops at the first doubling where the certificate
    # ||L^D||_2 ||L vec(rho)||_2 of its state did not fall, or is at most
    # 1e-8 and no longer halves.  At the presets it falls below 1e-8 after
    # 10-12 doublings and levels off one doubling later; off resonance
    # (the points above, gap about 0.05 1/s) it levels off at 6e-9 to 8e-9
    # after 21.
    if isinstance(point, str):
        pre = figure_preset(point)
        L = build_liouvillian(build_model(pre.params, pre.variant))
    else:
        L = off_resonant_qutrit(*point)
    _, info = steady_state(L, method="evolve", return_info=True)
    assert info["doublings"] == doublings
    assert info["model_time"] == (1.0 / L.gamma_scale) * (2.0**doublings - 1.0)
    assert info["error_bound"] <= 1e-8


def test_steady_evolve_doubles_long_enough_for_a_slow_cascade():
    # A three-level cascade 2 -> 1 -> 0 whose slow rate kappa is 1e-11 of
    # the fast one (gamma_scale 1 1/s, so dt = 1 s).  Level 2 empties only
    # after many slow lifetimes, 2^k s >> 1/kappa, about 46 doublings: the
    # backend keeps doubling while its certificate falls, and certifies the
    # exact steady state |0><0|.
    kappa = 1e-11
    jumps = np.zeros((2, 3, 3), dtype=complex)
    jumps[0, 0, 1] = 1.0
    jumps[1, 1, 2] = math.sqrt(kappa)
    h = np.diag([0.0, 0.3, 0.7]).astype(complex)
    m = SystemModel(dims=BipartiteDims(1, 3), hamiltonian=h, lindblads=jumps, named_states={},
                    variant=BELL)
    rho, info = steady_state(build_liouvillian(m), method="evolve", return_info=True)
    assert info["model_time"] * kappa > 20
    assert info["error_bound"] <= 1e-8
    assert np.max(np.abs(rho - np.diag([1.0, 0.0, 0.0]))) <= 1e-12


def test_steady_evolve_renormalises_each_doubling(monkeypatch):
    # At this weakly pumped qutrit point the squared propagator loses
    # trace: a vector propagated without renormalisation keeps 0.94 of it
    # after 40 doublings and none after 55.  Renormalised at each doubling,
    # the state's bound levels off near 1.3e-5 after about 34 doublings and
    # the backend names it; without that, the vanishing trace shrinks the
    # bound, the doubling runs on and the state comes out nan.
    doublings = []
    finalize = dynamics._finalize
    monkeypatch.setattr(dynamics, "_finalize",
                        lambda L, v, info: doublings.append(info["doublings"])
                        or finalize(L, v, info))
    m = build_model(caption_params(rabi_mhz=0.003, microwave_rel=5e-5, urr_mhz=6.87,
                                   gamma_khz=1.673), SchemeVariant("qutrit", "phi"))
    with pytest.raises(ConvergenceError, match=r"= 1\.2\d+e-05 exceeds 1e-08 \(backend evolve\)"):
        steady_state(build_liouvillian(m), method="evolve")
    assert len(doublings) == 1 and 30 <= doublings[0] <= 40


def test_steady_state_unique_for_all_presets():
    # every benchmark operating point has a one-dimensional stationary space
    from rydpump.models import PRESET_NAMES, build_model

    for name in PRESET_NAMES:
        pre = figure_preset(name)
        liouv = build_liouvillian(build_model(pre.params, pre.variant))
        rho, info = steady_state(liouv, return_info=True)
        assert info["residual"] <= 1e-8, name
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)


def test_steady_state_unknown_method():
    L = build_liouvillian(bell_model())
    with pytest.raises(ValueError, match="method"):
        steady_state(L, method="magic")


def test_steady_state_evolve_requires_dissipation():
    m = bell_model(gamma=0.0)
    L = build_liouvillian(m)
    with pytest.raises(NonUniqueSteadyStateError, match="dissipative"):
        steady_state(L, method="evolve")


def test_steady_state_matches_30_digit_solve():
    # The trace-bordered system of the dense kron generator solved with
    # 30-digit arithmetic: the LU state agrees to rounding level.
    pre = figure_preset("fig2")
    m = build_model(pre.params, pre.variant)
    mat = kron_liouvillian(m.hamiltonian, m.lindblads)
    mat[0] = 0.0
    mat[0, ::10] = 1.0
    with mpmath.workdps(30):
        x = mpmath.lu_solve(mpmath.matrix(mat.tolist()), mpmath.matrix([1] + [0] * 80))
        ref = unvec(np.array([complex(x[i]) for i in range(81)]), 9)
    rho = steady_state(build_liouvillian(m))
    assert np.max(np.abs(rho - (ref + ref.conj().T) / 2)) <= 1e-13
    assert np.max(np.abs(refined_steady_state(m.hamiltonian, m.lindblads) - ref)) <= 1e-18


# The Bell point off resonance whose gap is 7.8e-3 1/s: the dense SVD null
# vector is 1.9e-8 from its certified LU state there, the bound 2e-9.
SLOW_OFF_RESONANCE = dict(rabi_mhz=0.0223, microwave_rel=0.0033, urr_mhz=7.04,
                          delta_mhz=7.04 / 2 * 1.029, gamma_khz=1.63)


@pytest.mark.parametrize("name", PRESET_NAMES + ("off-resonance",))
def test_steady_state_within_its_bound_of_refined_oracle(name):
    if name == "off-resonance":
        m = build_model(caption_params(**SLOW_OFF_RESONANCE), BELL)
    else:
        pre = figure_preset(name)
        m = build_model(pre.params, pre.variant)
    L = build_liouvillian(m)
    rho, info = steady_state(L, return_info=True)
    assert np.linalg.norm(rho - refined_steady_state(m.hamiltonian, m.lindblads)) \
        <= info["error_bound"]
    if name == "off-resonance":
        assert liouvillian_gap(L) == pytest.approx(7.8e-3, rel=1e-2)


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_steady_state_matches_refined_and_gap_oracles(name):
    # The state is checked against the refined dense solve (within 1e-13,
    # as on the grids below), the gap against the dense eigenvalues.
    pre = figure_preset(name)
    m = build_model(pre.params, pre.variant)
    L = build_liouvillian(m)
    rho, info = steady_state(L, return_info=True)
    assert np.max(np.abs(rho - refined_steady_state(m.hamiltonian, m.lindblads))) <= 1e-13
    assert liouvillian_gap(L) == pytest.approx(dense_rates(m.hamiltonian, m.lindblads)[1],
                                               rel=1e-7)
    assert info["error_bound"] <= 1e-10


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_drazin_norm_brackets_dense_oracle(name):
    # Power iteration converges from below: the margin puts the estimate
    # above the dense norm, and the stopping rule keeps it within 1e-3 below.
    pre = figure_preset(name)
    L = build_liouvillian(build_model(pre.params, pre.variant))
    norm = _drazin_norm(L, _bordered_lu(L))
    exact = dense_drazin_norm(L)
    assert norm >= exact >= norm / _DRAZIN_MARGIN * (1 - _DRAZIN_RTOL)
    rho, info = steady_state(L, return_info=True)
    assert info["drazin_norm"] == norm
    assert info["error_bound"] == norm * np.linalg.norm(L.superop @ vec(rho))


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_drazin_norm_matches_power_loop_oracle(name):
    pre = figure_preset(name)
    assert_drazin_norm_matches_loop(build_liouvillian(build_model(pre.params, pre.variant)))


def test_sweep_path_skips_the_gap(monkeypatch):
    # Neither backend computes the gap, with or without return_info: the
    # evolve backend stops on its own certificate.
    calls = []

    def recording(L):
        calls.append(L)
        return liouvillian_gap(L)

    monkeypatch.setattr(dynamics, "liouvillian_gap", recording)
    pre = figure_preset("fig8a")
    L = build_liouvillian(build_model(pre.params, pre.variant))
    steady_state(L)
    _, info = steady_state(L, return_info=True)
    assert calls == []
    assert set(info) == {"method", "drazin_norm", "residual", "error_bound"}
    _, info = steady_state(L, method="evolve", return_info=True)
    assert calls == []
    assert set(info) == {"method", "doublings", "model_time", "drazin_norm", "residual",
                         "error_bound"}


@pytest.mark.parametrize("name", PRESET_NAMES + ("random",))
def test_bordered_lu_matches_lu_factor_of_real_form(name):
    # The band array summed from the generator and factored in place gives
    # scipy's dgbtrf factors and pivots of the dense bordered L.real
    # gathered into band storage in the band layout's order, byte for byte.
    if name == "random":
        rng = np.random.default_rng(5)
        models = [random_model(rng, n_lindblads=n) for n in (0, 1, 4, 7)]
    else:
        pre = figure_preset(name)
        models = [build_model(pre.params, pre.variant)]
    for m in models:
        L = build_liouvillian(m)
        lu, piv, layout = _bordered_lu(L)
        want_lu, want_piv, info = dgbtrf(gathered_band(L, layout), layout.kl, layout.ku)
        assert info == 0
        assert lu.flags["F_CONTIGUOUS"] and lu.dtype == np.float64
        assert lu.shape == (layout.ldab, L.dim**2) == want_lu.shape
        assert lu.tobytes(order="F") == want_lu.tobytes(order="F")
        assert piv.dtype == want_piv.dtype and piv.tobytes() == want_piv.tobytes()


def test_bordered_lu_raises_on_illegal_lapack_argument(monkeypatch):
    import rydpump.dynamics as dyn

    def illegal(ab, kl, ku, overwrite_ab):
        return ab, np.arange(ab.shape[1], dtype=np.int32), -4

    monkeypatch.setattr(dyn, "_gbtrf", illegal)
    pre = figure_preset("fig8a")
    L = build_liouvillian(build_model(pre.params, pre.variant))
    with pytest.raises(ValueError, match="argument 4 of LAPACK dgbtrf"):
        steady_state(L)


def real_plan(L):
    """The real-form plan of a generator, which L.real and _bordered_lu read;
    its band layout is built on the first read of plan.layout."""
    s = L.superop
    return _real_plan(L.dim, s.indices.dtype.char, s.indptr.tobytes(), s.indices.tobytes(),
                      (s.data.view(float) != 0).tobytes())


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1),
       dims=st.sampled_from([(1, 1), (1, 2), (2, 2), (2, 3), (3, 3)]), real=st.booleans())
def test_band_plan_holds_every_nonzero_of_random_patterns(seed, dims, real):
    # A synthetic model with a random sparsity pattern and complex or real
    # amplitudes: the layout's order is a permutation, every nonzero of the
    # bordered real form lies inside its band (gathered_band checks both),
    # and the band LU is the gathered band's, or fails on its zero pivots.
    rng = np.random.default_rng(seed)
    m = random_model(rng, *dims, n_lindblads=int(rng.integers(0, 4)))
    m.hamiltonian[rng.random(m.hamiltonian.shape) < 0.5] = 0.0
    m.hamiltonian[:] = (m.hamiltonian + m.hamiltonian.conj().T) / 2
    for op in m.lindblads:
        op[rng.random(op.shape) < 0.8] = 0.0
    if real:
        m = dataclasses.replace(m, hamiltonian=m.hamiltonian.real.astype(complex),
                                lindblads=tuple(op.real.astype(complex) for op in m.lindblads))
    L = build_liouvillian(m)
    layout = real_plan(L).layout
    want_lu, want_piv, _ = dgbtrf(gathered_band(L, layout), layout.kl, layout.ku)
    if np.all(want_lu[layout.kl + layout.ku] != 0.0):
        lu, piv, got = _bordered_lu(L)
        assert got is layout
        assert lu.tobytes(order="F") == want_lu.tobytes(order="F")
        assert piv.tobytes() == want_piv.tobytes()
    else:
        with pytest.raises(NonUniqueSteadyStateError, match="exactly zero pivot"):
            _bordered_lu(L)


def test_band_plan_is_keyed_on_the_nonzero_parts():
    # Every amplitude of fig8a is real, so many parts of the generator's
    # entries are zero.  Keyed on the mask of its parts, the plan leaves
    # them out of the pattern, and the band keeps 27 diagonals either side;
    # the same CSR pattern with every part nonzero gets a plan of its own,
    # with a wider band that still holds every nonzero of its form.
    pre = figure_preset("fig8a")
    L = build_liouvillian(build_model(pre.params, pre.variant))
    s = L.superop
    parts = s.data.view(float).copy()
    assert np.count_nonzero(parts == 0) > parts.size // 4
    parts[parts == 0] = 1.0
    full = Liouvillian(L.dim, sp.csr_matrix((parts.view(complex), s.indices, s.indptr),
                                            shape=s.shape), L.decay)
    layout, wide = real_plan(L).layout, real_plan(full).layout
    assert (layout.kl, layout.ku) == (27, 27)
    assert wide.kl > layout.kl and wide.ku > layout.ku
    gathered_band(L, layout)
    gathered_band(full, wide)


def test_steady_state_of_one_level():
    # d = 1 has no traceless vector: the band layout's start is zero, so
    # ||L^D||_2 on the traceless subspace comes out 0, with no warning, and
    # the one state is certified.
    m = edge_models()["d = 1"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rho, info = steady_state(build_liouvillian(m), return_info=True)
    assert rho.tolist() == [[1.0]]
    assert info["drazin_norm"] == info["error_bound"] == 0.0


def reproduced_models(figure, tmp_path):
    """The model of every grid point of `rydpump reproduce figure`."""
    made = []

    def recording(*args, **kwargs):
        made.append(build_model(*args, **kwargs))
        return made[-1]

    with mock.patch.object(grid.models, "build_model", recording):
        assert main(["reproduce", figure, "--out-dir", str(tmp_path), "--no-timestamp"]) == 0
    return made


@pytest.mark.parametrize("figure", ["fig5", "fig6", "fig8a", "fig9c"])
def test_band_lu_state_matches_refined_oracle_on_grids(figure, tmp_path):
    # The band LU's state, solved in the layout's order, read at most 1.8e-14
    # off the refined dense solve on these grids (fig9c); the dense LU in
    # the original order read 1.0e-14 (fig6).
    models = reproduced_models(figure, tmp_path)
    assert len(models) == math.prod(axis[3] for axis in find_figure(
        "fig6-point" if figure == "fig6" else figure).axes)
    for m in models:
        rho = steady_state(build_liouvillian(m))
        assert np.max(np.abs(rho - refined_steady_state(m.hamiltonian, m.lindblads))) <= 1e-13


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_steady_state_rejects_non_finite_liouvillian(bad):
    # Reported as a non-finite generator, not as ||L^D||_2 = nan (non-unique).
    pre = figure_preset("fig8a")
    L = build_liouvillian(build_model(pre.params, pre.variant))
    s = L.superop.copy()
    s.data[3] = bad
    M = Liouvillian(dim=L.dim, superop=s, decay=L.decay)
    with pytest.raises(ValueError, match="non-finite"):
        steady_state(M)
    with pytest.raises(ValueError, match="non-finite"):
        liouvillian_gap(M)


def test_finalize_rejects_state_off_along_slowest_mode():
    # fig6-point state plus 1 % (2-norm) along the slowest eigenmode: its
    # relative residual (3.8e-9) passes the tolerance 1e-8, but it is 1e-2 from
    # the steady state and has an eigenvalue of -3.6e-3.
    pre = figure_preset("fig6-point")
    L = build_liouvillian(build_model(pre.params, pre.variant))
    rho = steady_state(L)
    lam, modes = np.linalg.eig(L.superop.toarray())
    slow = np.argsort(-lam.real)[1]
    x = unvec(modes[:, slow], L.dim)
    x = (x + x.conj().T) / 2
    v = vec(rho + 0.01 * np.linalg.norm(rho) * x / np.linalg.norm(x))
    with pytest.raises(ConvergenceError, match="error bound"):
        _finalize(L, v, {"method": "nullspace", "drazin_norm": dense_drazin_norm(L)})
    # With ||L^D|| small enough to pass the bound, the negative eigenvalue fails.
    with pytest.raises(ConvergenceError, match="eigenvalue -3.6"):
        _finalize(L, v, {"method": "nullspace", "drazin_norm": 1e-12})


def steady_and_mode(name, pick):
    """Liouvillian, steady state, its info and a unit Hermitian mode of the
    generator at a preset; pick chooses the mode from the eigenvalues."""
    pre = figure_preset(name)
    L = build_liouvillian(build_model(pre.params, pre.variant))
    rho, info = steady_state(L, return_info=True)
    lam, modes = np.linalg.eig(L.superop.toarray())
    x = unvec(modes[:, pick(lam)], L.dim)
    x = (x + x.conj().T) / 2
    return L, rho, info, x / np.linalg.norm(x)


def test_finalize_rejects_error_bound_between_gate_and_percent():
    # fig2 state plus 1e-5 of the slowest mode: relative residual 1.3e-11,
    # certificate 1.1e-5, between the 1e-8 gate and 1e-2.
    L, rho, info, x = steady_and_mode("fig2", lambda lam: np.argsort(-lam.real)[1])
    v = vec(rho + 1e-5 * x)
    defect, res = residual(L, unvec(v, L.dim))
    assert res < 1e-10 and 1e-6 < info["drazin_norm"] * defect < 1e-4
    with pytest.raises(ConvergenceError, match="error bound"):
        _finalize(L, v, {"method": "nullspace", "drazin_norm": info["drazin_norm"]})


def test_finalize_rejects_residual_between_gate_and_percent():
    # fig2 state plus 1e-5 of the mode of largest |lambda|: relative
    # residual 9.8e-6, between the 1e-8 gate and 1e-2.
    L, rho, info, x = steady_and_mode("fig2", lambda lam: np.argmax(np.abs(lam)))
    v = vec(rho + 1e-5 * x)
    assert 1e-6 < residual(L, unvec(v, L.dim))[1] < 1e-4
    with pytest.raises(ConvergenceError, match="steady-state residual"):
        _finalize(L, v, {"method": "nullspace", "drazin_norm": info["drazin_norm"]})


DEGENERATE = {
    "zero": ("bell", dict()),
    "decay-only": ("bell", dict(gamma_khz=1.0)),
    "bell-Omega-0": ("bell", dict(microwave_mhz=1.44e-4, delta_mhz=3.435, gamma_khz=1.673)),
    "qutrit-omega-0": ("qutrit", dict(rabi_mhz=0.055, delta_mhz=2.0, gamma_khz=1.0)),
}


def assert_degenerate(case, method, return_info):
    scheme, caption = DEGENERATE[case]
    target = "singlet" if scheme == "bell" else "phi"
    L = build_liouvillian(build_model(caption_params(**caption), SchemeVariant(scheme, target)))
    want = "dissipative" if case == "zero" and method == "evolve" else "non-unique"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonUniqueSteadyStateError, match=want):
            steady_state(L, method=method, return_info=return_info)


@pytest.mark.parametrize("method", ["nullspace", "evolve"])
@pytest.mark.parametrize("case", sorted(DEGENERATE))
def test_steady_state_degenerate_without_noise(case, method):
    # Each of these generators has an exactly degenerate stationary
    # subspace: an exactly zero pivot, reported without a warning.
    assert_degenerate(case, method, return_info=False)


@pytest.mark.parametrize("method", ["nullspace", "evolve"])
@pytest.mark.parametrize("case", sorted(DEGENERATE))
def test_steady_state_degenerate_with_info(case, method):
    # Asking for the diagnostics as well reports the same non-uniqueness.
    assert_degenerate(case, method, return_info=True)


@pytest.mark.parametrize("case", sorted(DEGENERATE))
def test_liouvillian_gap_reports_degenerate(case):
    # Read on its own, the gap of a degenerate generator sits at the
    # rounding floor: NonUniqueSteadyStateError, without a warning.
    scheme, caption = DEGENERATE[case]
    target = "singlet" if scheme == "bell" else "phi"
    L = build_liouvillian(build_model(caption_params(**caption), SchemeVariant(scheme, target)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonUniqueSteadyStateError, match="rounding floor"):
            liouvillian_gap(L)


@pytest.mark.parametrize("case", sorted(DEGENERATE))
def test_bordered_lu_reports_exact_zero_pivots(case):
    # dgbtrf's info > 0 is not the test: every exactly zero pivot is
    # counted, as many as the band factors of the gathered dense form hold.
    scheme, caption = DEGENERATE[case]
    target = "singlet" if scheme == "bell" else "phi"
    L = build_liouvillian(build_model(caption_params(**caption), SchemeVariant(scheme, target)))
    layout = real_plan(L).layout
    lu, _, info = dgbtrf(gathered_band(L, layout), layout.kl, layout.ku)
    zeros = int(np.sum(lu[layout.kl + layout.ku] == 0.0))
    assert zeros >= 1 and info > 0
    with pytest.raises(NonUniqueSteadyStateError, match=f"{zeros} exactly zero pivot"):
        steady_state(L)


def test_liouvillian_gap_of_one_level_is_inf():
    # One level has no mode that relaxes: the gap is inf, so 1/gap = 0,
    # as the steady state's drazin_norm is.
    L = Liouvillian(1, sp.csr_matrix((1, 1), dtype=complex), np.zeros((1, 1)))
    assert liouvillian_gap(L) == math.inf
    rho, info = steady_state(L, return_info=True)
    assert rho.tolist() == [[1.0]] and info["drazin_norm"] == 0.0


def precessing_qubit(kappa):
    """A qubit, dims (2, 1), precessing at 2 pi x 5 MHz and decaying at
    kappa: its coherence is a nearly undamped oscillating mode (rate
    kappa/2, frequency 3.1e7 1/s) as kappa -> 0."""
    w = 2 * np.pi * 5e6
    lower = np.sqrt(kappa) * np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
    return SystemModel(
        dims=BipartiteDims(2, 1), hamiltonian=np.diag([w / 2, -w / 2]).astype(complex),
        lindblads=(lower,), named_states={}, variant=BELL,
    )


@pytest.mark.parametrize("return_info", [False, True])
@pytest.mark.parametrize("method", ["nullspace", "evolve"])
def test_steady_state_nearly_undamped_mode(method, return_info):
    # Unique at kappa = 1e-3 (|g><g|); from 1e-6 on, the rates sit at the
    # rounding floor 1e3 * eps * ||L||_1 (7e-6 1/s) and the state is
    # reported as non-unique, with or without return_info, as is the gap.
    ground = np.diag([0.0, 1.0]).astype(complex)
    out = steady_state(build_liouvillian(precessing_qubit(1e-3)), method=method,
                       return_info=return_info)
    rho = out[0] if return_info else out
    assert np.max(np.abs(rho - ground)) <= 1e-12
    for kappa in (1e-6, 1e-8, 1e-10):
        L = build_liouvillian(precessing_qubit(kappa))
        with pytest.raises(NonUniqueSteadyStateError, match="non-unique"):
            steady_state(L, method=method, return_info=return_info)
        with pytest.raises(NonUniqueSteadyStateError, match="non-unique"):
            liouvillian_gap(L)


def test_steady_state_bell_without_microwave_is_unique():
    # omega = 0 with Omega > 0 pumps everything into |aa>: unique, with a
    # slow but nonzero gap (2.3e-2 1/s), unlike the qutrit scheme.
    m = bell_model(rabi_microwave_1=0.0)
    L = build_liouvillian(m)
    rho = steady_state(L)
    assert fidelity(m.state("aa"), rho) == pytest.approx(1.0, abs=1e-12)
    gap = liouvillian_gap(L)
    assert gap == pytest.approx(2.3e-2, rel=0.01)
    assert gap == pytest.approx(dense_rates(m.hamiltonian, m.lindblads)[1], rel=1e-3)


def test_evolve_peaks_at_its_stack():
    # A long run holds its state stack and one block: 20001 fig3 samples
    # (a 25.9 MB stack) once peaked at three stacks, 78.4 MB.
    _, L, rho0, t = figure_run("fig3")
    t = np.linspace(0.0, t[-1], 20001)
    evolve(L, rho0, t[:3])  # the cached plans and properties, once
    states = []
    peak = traced_peak(lambda: states.append(evolve(L, rho0, t).states))
    assert peak <= states[0].nbytes + 1e6
