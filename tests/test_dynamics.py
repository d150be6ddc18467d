import numpy as np
import pytest
from scipy.integrate import solve_ivp

from scipy.linalg import expm

from rydpump.dynamics import (
    ConvergenceError,
    Liouvillian,
    NonUniqueSteadyStateError,
    _check_physical,
    build_liouvillian,
    evolve,
    steady_state,
    unvec,
    vec,
)
from rydpump.linalg import BipartiteDims
from rydpump.measures import fidelity
from rydpump.models import (
    ModelParams,
    SchemeVariant,
    SystemModel,
    build_bell_model,
    figure_preset,
)

from conftest import random_density, trace_distance

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


def random_model(rng, dim_a=3, dim_b=3, n_lindblads=4):
    """Synthetic model with O(1) parameters (not from the builders)."""
    d = dim_a * dim_b
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    h = (a + a.conj().T) / 2
    ls = tuple(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
               for _ in range(n_lindblads))
    return SystemModel(
        dims=BipartiteDims(dim_a, dim_b), hamiltonian=h, lindblads=ls,
        basis_labels=(("x",) * dim_a, ("x",) * dim_b), named_states={},
        variant=BELL, params=ModelParams(1, 1, 1, 1, 1),
    )


def bell_model(**caption):
    base = dict(rabi_optical=2 * np.pi * 0.036e6, detuning=2 * np.pi * 3.435e6,
                gamma=1673.0)
    base["rabi_microwave_1"] = 0.004 * base["rabi_optical"]
    base["rydberg_U"] = 2 * base["detuning"]
    base.update(caption)
    return build_bell_model(ModelParams(**base), BELL)


# ------------------------------------------------------------ liouvillian

def test_liouvillian_zero_model():
    m = bell_model(rabi_optical=0.0, rabi_microwave_1=0.0, detuning=0.0,
                   rydberg_U=0.0, gamma=0.0)
    L = build_liouvillian(m)
    assert L.superop.nnz == 0
    assert L.norm_1 == 0.0


def test_liouvillian_matches_dense_oracle(rng):
    for _ in range(5):
        m = random_model(rng)
        L = build_liouvillian(m)
        rho = random_density(rng, 9)
        got = unvec(L.superop @ vec(rho), 9)
        want = master_equation_rhs(m.hamiltonian, m.lindblads, rho)
        assert np.max(np.abs(got - want)) <= 1e-12
        assert np.array_equal(L.apply(rho), got)


def test_liouvillian_preserves_hermiticity_and_trace(rng):
    m = random_model(rng)
    L = build_liouvillian(m)
    for _ in range(5):
        rho = random_density(rng, 9)
        out = unvec(L.superop @ vec(rho), 9)
        assert np.max(np.abs(out - out.conj().T)) <= 1e-12
        assert abs(np.trace(out)) <= 1e-12


def test_liouvillian_gamma_scale():
    m = bell_model()
    L = build_liouvillian(m)
    # |rr> decays at gamma from each atom
    assert L.gamma_scale == pytest.approx(2 * 1673.0, rel=1e-12)


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


def test_evolve_names_first_unphysical_sample():
    # The negated generator of pure decay (Omega = omega = 0) keeps trace
    # and Hermiticity but pumps population back into |rr>, driving the
    # lower levels negative; the error names the first sample whose
    # minimum eigenvalue, from an independent dense expm, is below -1e-6.
    m = bell_model(rabi_optical=0.0, rabi_microwave_1=0.0)
    L = build_liouvillian(m)
    anti = Liouvillian(dim=L.dim, superop=-L.superop, gamma_scale=L.gamma_scale)
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
    states[3, 0, 1] = 1e-3                     # Hermiticity defect at t = 3
    with pytest.raises(ConvergenceError, match=r"negative eigenvalue .* at t = 2 s"):
        _check_physical(states, t)
    states[1] = np.diag([1.1, -0.2])          # trace and eigenvalue fail at t = 1
    with pytest.raises(ConvergenceError, match=r"trace drifted by .* at t = 1 s"):
        _check_physical(states, t)
    states[1] = np.diag([0.5, 0.5])
    states[1, 1, 0] = 2.0                      # Hermiticity and eigenvalue fail at t = 1
    with pytest.raises(ConvergenceError, match=r"Hermiticity defect .* at t = 1 s"):
        _check_physical(states, t)


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


# ----------------------------------------------------------- steady states

def test_steady_state_degenerate_decay_only():
    # no drives: the whole ground manifold is stationary
    m = bell_model(rabi_optical=0.0, rabi_microwave_1=0.0)
    L = build_liouvillian(m)
    with pytest.raises(NonUniqueSteadyStateError, match="non-unique"):
        steady_state(L)


def test_steady_state_fig2_fidelity():
    pre = figure_preset("fig2")
    m = build_bell_model(pre.params, pre.variant)
    L = build_liouvillian(m)
    rho, info = steady_state(L, return_info=True)
    assert info["residual"] <= 1e-8
    assert fidelity(m.state("S"), rho) == pytest.approx(0.999, abs=0.005)


def test_steady_state_backends_agree():
    pre = figure_preset("fig2")
    m = build_bell_model(pre.params, pre.variant)
    L = build_liouvillian(m)
    rho_a = steady_state(L, method="nullspace")
    rho_b, info = steady_state(L, method="evolve", return_info=True)
    assert info["residual"] <= 1e-8
    assert trace_distance(rho_a, rho_b) <= 1e-5


def test_steady_state_is_fixed_point_of_evolution():
    pre = figure_preset("fig2")
    m = build_bell_model(pre.params, pre.variant)
    L = build_liouvillian(m)
    rho = steady_state(L)
    later = evolve(L, rho, np.array([0.0, 5e-3])).states[-1]
    assert trace_distance(rho, later) <= 1e-9


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
