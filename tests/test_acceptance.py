"""Acceptance suite: one test per benchmark criterion, each printing a
[PASS]/[FAIL] line with the measured value and its tolerance.

Run with `pytest -s tests/test_acceptance.py` to see every line.
"""

import math

import numpy as np
import pytest

from rydpump.dynamics import build_liouvillian, evolve, steady_state, unvec, vec
from rydpump.linalg import BipartiteDims
from rydpump.measures import chsh_correlation, fidelity, negativity
from rydpump.models import (
    ModelParams,
    SchemeVariant,
    SystemModel,
    build_model,
    build_model as build_bell_model,
    build_model as build_qutrit_model,
    caption_params,
    figure_preset,
)

from conftest import random_density, trace_distance
from test_dynamics import master_equation_rhs, random_model
from test_models import bell_params, qutrit_params


def report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def fig2_steady():
    pre = figure_preset("fig2")
    model = build_bell_model(pre.params, pre.variant)
    rho = steady_state(build_liouvillian(model))
    return model, rho


@pytest.fixture(scope="module")
def fig3_trajectory():
    pre = figure_preset("fig3")
    model = build_bell_model(pre.params, pre.variant)
    liouv = build_liouvillian(model)
    t = np.linspace(0.0, 0.3, 151)
    traj = evolve(liouv, model.initial_density(pre.initial_state), t)
    return model, traj


@pytest.fixture(scope="module")
def fig5_trajectory():
    pre = figure_preset("fig5-inset")
    model = build_qutrit_model(pre.params, pre.variant)
    liouv = build_liouvillian(model)
    t = np.linspace(0.0, 0.2, 201)
    traj = evolve(liouv, model.initial_density(pre.initial_state), t)
    return model, traj


@pytest.fixture(scope="module")
def fig6_steady():
    pre = figure_preset("fig6-point")
    model = build_qutrit_model(pre.params, pre.variant)
    rho = steady_state(build_liouvillian(model))
    return model, rho


def test_criterion_1_bell_fidelity(fig2_steady):
    model, rho = fig2_steady
    fid = fidelity(model.state("S"), rho)
    # note which decay-rate convention reproduces the benchmark
    pre_ang = figure_preset("fig2", gamma_angular=True)
    model_ang = build_bell_model(pre_ang.params, pre_ang.variant)
    fid_ang = fidelity(model_ang.state("S"), steady_state(build_liouvillian(model_ang)))
    print(f"[NOTE] gamma convention: plain-rate fidelity {fid:.6f}, "
          f"angular-rate fidelity {fid_ang:.6f} (plain rate reproduces the benchmark)")
    report("criterion 1 (Bell singlet fidelity)", abs(fid - 0.999) <= 0.005,
           f"steady fidelity {fid:.6f}, expected 0.999 +/- 0.005")


def test_criterion_2_chsh_time_series(fig3_trajectory):
    _, traj = fig3_trajectory
    chsh = np.array([chsh_correlation(rho) for rho in traj.states])
    in_band = np.abs(chsh - 2.821) <= 0.01
    entered = np.argmax(in_band) if in_band.any() else None
    ok = in_band.any() and bool(in_band[entered:].all())
    t_enter = traj.times[entered] * 1e3 if entered is not None else math.nan
    report("criterion 2 (CHSH correlation time series)", ok,
           f"enters 2.821 +/- 0.01 at t = {t_enter:.0f} ms and stays "
           f"(final value {chsh[-1]:.4f})")


def test_criterion_3_triplet_variant():
    pre = figure_preset("fig2")
    variant = SchemeVariant("bell", "triplet")
    model = build_bell_model(pre.params, variant)
    rho = steady_state(build_liouvillian(model))
    fid = fidelity(model.state("T"), rho)
    chsh = chsh_correlation(rho, triplet_frame=True)
    ok = abs(fid - 0.999) <= 0.005 and abs(chsh - 2.821) <= 0.01
    report("criterion 3 (triplet variant)", ok,
           f"fidelity {fid:.6f} (0.999 +/- 0.005), CHSH {chsh:.4f} (2.821 +/- 0.01)")


def test_criterion_4_fidelity_increases_with_interaction():
    fids = []
    for urr in np.linspace(1.0, 8.0, 5):
        params = caption_params(rabi_mhz=0.036, microwave_rel=0.004,
                                urr_mhz=float(urr), gamma_khz=1.673)
        model = build_bell_model(params, SchemeVariant("bell", "singlet"))
        rho = steady_state(build_liouvillian(model))
        fids.append(fidelity(model.state("S"), rho))
    ok = all(b > a for a, b in zip(fids, fids[1:]))
    report("criterion 4 (fidelity monotone in U_rr)", ok,
           "fidelity over U_rr/2pi in [1, 8] MHz: "
           + ", ".join(f"{f:.4f}" for f in fids))


def test_criterion_5_qutrit_population(fig5_trajectory):
    model, traj = fig5_trajectory
    phi = model.state("phi")
    pop = float(np.real(np.vdot(phi, traj.states[-1] @ phi)))
    report("criterion 5 (three-dimensional target population)", pop > 0.91,
           f"population of phi at t = 200 ms is {pop:.4f}, required > 0.91")


def test_criterion_6_negativity_peak(fig6_steady):
    model, rho = fig6_steady
    neg = negativity(rho, model.dims)
    report("criterion 6 (peak negativity)", abs(neg - 0.9995) <= 0.002,
           f"steady negativity {neg:.6f}, expected 0.9995 +/- 0.002")


def test_criterion_7_phi_prime_variant():
    pre = figure_preset("fig6-point")
    variant = SchemeVariant("qutrit", "phi_prime")
    model = build_qutrit_model(pre.params, variant)
    rho = steady_state(build_liouvillian(model))
    fid = fidelity(model.state("phi_prime"), rho)
    neg = negativity(rho, model.dims)
    report("criterion 7 (phi-prime variant)", fid > 0.99 and neg > 0.99,
           f"fidelity {fid:.6f} and negativity {neg:.6f}, both required > 0.99")


def test_criterion_8a_trajectory_physicality(fig3_trajectory, fig5_trajectory):
    worst_tr, worst_eig = 0.0, 0.0
    for _, traj in (fig3_trajectory, fig5_trajectory):
        for rho in traj.states:
            worst_tr = max(worst_tr, abs(np.trace(rho).real - 1.0))
            worst_eig = min(worst_eig, float(np.linalg.eigvalsh(rho)[0]))
    ok = worst_tr <= 1e-6 and worst_eig >= -1e-6
    report("criterion 8a (trace preservation and positivity)", ok,
           f"max |tr - 1| = {worst_tr:.2e} (<= 1e-6), "
           f"min eigenvalue = {worst_eig:.2e} (>= -1e-6)")


def test_criterion_8b_dark_state_identities():
    cases = [
        ("bell", "singlet", "S", bell_params),
        ("bell", "triplet", "T", bell_params),
        ("qutrit", "phi", "phi", qutrit_params),
        ("qutrit", "phi_prime", "phi_prime", qutrit_params),
    ]
    worst = 0.0
    for scheme, target, state, make in cases:
        params = make(rabi_optical=0.0, detuning=0.0, rydberg_U=0.0)
        model = build_model(params, SchemeVariant(scheme, target))
        worst = max(worst, float(np.max(np.abs(model.hamiltonian @ model.state(state)))))
    report("criterion 8b (microwave dark-state identities)", worst < 1e-14,
           f"max |H_mw |target>| over all four variants = {worst:.2e} (< 1e-14)")


def test_criterion_8c_lindblad_expansion_identities():
    # matrix identities between the constructed jump operators and their
    # ground-basis expansions, at the physical benchmark parameters
    from test_models import (
        test_bell_lindblads_match_basis_change_expansions as bell_check,
        test_qutrit_lindblads_match_basis_change_expansions as qutrit_check,
    )
    bell_check()
    qutrit_check()
    report("criterion 8c (jump-operator basis-change identities)", True,
           "all 4 Bell and 9 qutrit operators match their expansions to 1e-12")


def test_criterion_8d_negativity_definitions():
    from rydpump.linalg import hermitian_eigvals, partial_transpose
    rng = np.random.default_rng(8)
    worst = 0.0
    for da, db in ((2, 2), (3, 3), (5, 4)):
        for _ in range(100):
            rho = random_density(rng, da * db)
            dims = BipartiteDims(da, db)
            lam = hermitian_eigvals(partial_transpose(rho, dims))
            eq17 = (np.sum(np.abs(lam)) - 1) / 2
            eq19 = np.sum((np.abs(lam) - lam) / 2)
            worst = max(worst, abs(eq17 - eq19))
            assert negativity(rho, dims) == pytest.approx(eq17, abs=1e-10)
    report("criterion 8d (negativity definition equivalence)", worst <= 1e-10,
           f"max |trace-norm form - negative-eigenvalue form| = {worst:.2e} "
           f"over 100 random states each of size 4, 9, 20")


def test_criterion_8e_steady_backend_agreement():
    pre = figure_preset("fig2")
    liouv = build_liouvillian(build_bell_model(pre.params, pre.variant))
    rho_null = steady_state(liouv, method="nullspace")
    rho_prop = steady_state(liouv, method="evolve")
    dist = trace_distance(rho_null, rho_prop)
    report("criterion 8e (steady-state backend agreement)", dist <= 1e-5,
           f"trace distance between null-space and propagation backends = {dist:.2e}")


def test_criterion_8f_liouvillian_oracle():
    rng = np.random.default_rng(88)
    worst = 0.0
    for _ in range(10):
        model = random_model(rng)
        liouv = build_liouvillian(model)
        rho = random_density(rng, 9)
        got = unvec(liouv.superop @ vec(rho), 9)
        want = master_equation_rhs(model.hamiltonian, model.lindblads, rho)
        worst = max(worst, float(np.max(np.abs(got - want))))
    report("criterion 8f (superoperator vs direct evaluation)", worst <= 1e-12,
           f"max entrywise deviation over 10 random 9-level models = {worst:.2e}")


def _grid_measures(scheme, target, base, axes):
    """Steady-state fidelity and CHSH/negativity over a caption-unit grid."""
    variant = SchemeVariant(scheme, target)
    values = []
    for x in axes[0][1]:
        for y in axes[1][1]:
            caption = dict(base)
            caption[axes[0][0]] = float(x)
            caption[axes[1][0]] = float(y)
            rel = caption.pop("microwave_rel", None)
            params = caption_params(microwave_rel=rel, **caption)
            model = build_model(params, variant)
            rho = steady_state(build_liouvillian(model))
            fid = fidelity(model.state(model.variant.target_state), rho)
            chsh = chsh_correlation(rho) if scheme == "bell" else math.nan
            values.append((fid, chsh))
    return values


def test_criterion_9_robustness_grids():
    omega_grid = [("rabi_mhz", np.linspace(0.02, 0.10, 5)),
                  ("microwave_rel", np.linspace(0.002, 0.010, 5))]
    u_gamma_grid = [("urr_mhz", np.linspace(1.0, 8.0, 5)),
                    ("gamma_khz", np.linspace(0.5, 2.5, 5))]
    drive_vals = _grid_measures("bell", "singlet",
                                {"gamma_khz": 1.0, "urr_mhz": 4.0}, omega_grid)
    decay_vals = _grid_measures("bell", "singlet",
                                {"rabi_mhz": 0.036, "microwave_rel": 0.004}, u_gamma_grid)
    checks = {
        "fidelity over (Omega, omega)": np.mean([f > 0.9 for f, _ in drive_vals]),
        "CHSH over (Omega, omega)": np.mean([b > 2.2 for _, b in drive_vals]),
        "fidelity over (U_rr, gamma)": np.mean([f > 0.9 for f, _ in decay_vals]),
        "CHSH over (U_rr, gamma)": np.mean([b > 2.2 for _, b in decay_vals]),
    }
    ok = all(frac >= 0.6 for frac in checks.values())
    detail = "; ".join(f"{name}: {frac:.0%} of grid" for name, frac in checks.items())
    report("criterion 9 (robustness grids)", ok, detail + " (each required >= 60%)")
