"""Property and metamorphic tests of the steady-state backends over random
physical parameters, inside the ranges the robustness figures scan."""

import cmath
import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg.lapack import dgbtrf

from rydpump.dynamics import (_DRAZIN_MARGIN, _DRAZIN_RTOL, ConvergenceError, _bordered_lu,
                              build_liouvillian, liouvillian_gap, steady_state)
from rydpump.grid import measure_columns, steady_point
from rydpump.measures import chsh_correlation, fidelity, negativity
from rydpump.models import (FIGURES, SchemeVariant, SystemModel, build_model, caption_params,
                            figure_preset)

from oracles import (assert_drazin_norm_matches_loop, dense_drazin_norm, dense_rates,
                     gathered_band, refined_steady_state)

# Caption-unit ranges of the Fig. 8 and Fig. 9 grids, at resonant pumping
# (Delta = U_rr / 2) as on those grids.
PARAMS = st.fixed_dictionaries({
    "rabi_mhz": st.floats(0.02, 0.10),
    "microwave_rel": st.floats(0.002, 0.0125),
    "urr_mhz": st.floats(1.0, 10.0),
    "gamma_khz": st.floats(0.25, 2.5),
})

# The same ranges with Delta up to 10 % off U_rr / 2, where slow gaps (down
# to about 1e-3 1/s) and non-normal generators test the certificate against
# the refined dense solve.  The evolve backend is compared on resonance
# only: its ||L vec(rho)|| floor of about 1e-9 fails the 1e-8 bound there.
DETUNED = st.fixed_dictionaries({
    "rabi_mhz": st.floats(0.02, 0.10),
    "microwave_rel": st.floats(0.002, 0.0125),
    "urr_mhz": st.floats(1.0, 10.0),
    "delta_rel": st.floats(0.9, 1.1),
    "gamma_khz": st.floats(0.25, 2.5),
})

# Beyond the figures: Omega/2pi up to 0.2 MHz and omega/Omega up to 0.05,
# inputs the CLI accepts, with Delta at U_rr / 2 or up to 10 % off it.
WIDE = st.fixed_dictionaries({
    "rabi_mhz": st.floats(0.02, 0.2),
    "microwave_rel": st.floats(0.002, 0.05),
    "urr_mhz": st.floats(1.0, 10.0),
    "delta_rel": st.one_of(st.just(1.0), st.floats(0.9, 1.1)),
    "gamma_khz": st.floats(0.25, 2.5),
})

# The first target of each pair; the local unitary a -> -a on atom 2 maps
# its model and state onto the second.
PARTNER = {"bell": ("singlet", "triplet"), "qutrit": ("phi", "phi_prime")}

SETTINGS = settings(max_examples=10, deadline=None, derandomize=True)


def _model(scheme, target, p):
    caption = dict(p)
    if "delta_rel" in caption:
        caption["delta_mhz"] = caption["urr_mhz"] / 2 * caption.pop("delta_rel")
    return build_model(caption_params(**caption), SchemeVariant(scheme, target))


def _assert_drazin_norm_brackets_dense(L, info):
    # Power iteration converges from below: the margin puts the estimate
    # above the dense norm, and the stopping rule keeps it within 1e-3 below.
    exact = dense_drazin_norm(L)
    assert info["drazin_norm"] >= exact
    assert exact >= info["drazin_norm"] / _DRAZIN_MARGIN * (1 - _DRAZIN_RTOL)


def _assert_within_bound_of_refined_oracle(m, rho, info):
    # The certificate is a bound: the state lies within it of the refined
    # dense solve.
    dist = np.linalg.norm(rho - refined_steady_state(m.hamiltonian, m.lindblads))
    assert dist <= info["error_bound"]


def _flip_a_on_atom2(model):
    """The local unitary I (x) diag(1, -1, 1, ...) on atom 2."""
    da, db = model.dims
    u2 = np.eye(db)
    u2[1, 1] = -1.0
    return np.kron(np.eye(da), u2)


@pytest.mark.parametrize("scheme", ["bell", "qutrit"])
@SETTINGS
@given(p=PARAMS)
# A weakly damped mode oscillating at about 487 1/s relaxes at 15.573 1/s
# here, more slowly than the Bell modes of smallest |lambda| (15.617 1/s).
@example(p={"rabi_mhz": 0.0625, "microwave_rel": 0.0078125, "urr_mhz": 1.0, "gamma_khz": 1.0})
def test_steady_state_physical_and_backends_agree(scheme, p):
    m = _model(scheme, PARTNER[scheme][0], p)
    L = build_liouvillian(m)
    rho, info = steady_state(L, return_info=True)
    assert np.array_equal(rho, rho.conj().T)
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-14)
    assert np.linalg.eigvalsh(rho)[0] >= -1e-9
    assert info["error_bound"] <= 1e-8
    _assert_within_bound_of_refined_oracle(m, rho, info)
    _assert_drazin_norm_brackets_dense(L, info)
    rates = dense_rates(m.hamiltonian, m.lindblads)
    assert abs(liouvillian_gap(L) - rates[1]) <= 1e-6 * rates[1]
    if scheme == "bell":  # the propagation backend costs ~0.4 s per qutrit point
        assert np.max(np.abs(rho - steady_state(L, method="evolve"))) <= 1e-8


@pytest.mark.parametrize("scheme", ["bell", "qutrit"])
@SETTINGS
@given(p=DETUNED)
def test_certificate_and_gap_off_resonance(scheme, p):
    m = _model(scheme, PARTNER[scheme][0], p)
    L = build_liouvillian(m)
    rho, info = steady_state(L, return_info=True)
    assert np.array_equal(rho, rho.conj().T)
    assert np.linalg.eigvalsh(rho)[0] >= -1e-9
    assert info["error_bound"] <= 1e-8
    _assert_within_bound_of_refined_oracle(m, rho, info)
    _assert_drazin_norm_brackets_dense(L, info)
    rates = dense_rates(m.hamiltonian, m.lindblads)
    assert abs(liouvillian_gap(L) - rates[1]) <= 1e-6 * rates[1]


@pytest.mark.parametrize("scheme", ["bell", "qutrit"])
@SETTINGS
@given(p=WIDE)
# A Bell point slightly off resonance where the power iteration for
# ||L^D||_2 settles near the second singular value of the operator.
@example(p={"rabi_mhz": 0.14441, "microwave_rel": 0.049461, "urr_mhz": 8.2622,
            "delta_mhz": 4.1722, "gamma_khz": 2.3989})
# A targeted search's largest distance over bound, off resonance where the
# bound sits near the rounding of its own residual: ||rho - rho_ref||_F
# reads 2.2e-14 against a bound of 3.5e-13 (ratio 0.061) for Bell, and
# 0.0057 of the bound for qutrit.
@example(p={"rabi_mhz": 0.181, "microwave_rel": 0.0075, "urr_mhz": 1.0, "delta_mhz": 0.45,
            "gamma_khz": 1.0})
def test_certified_state_within_its_bound_beyond_the_figures(scheme, p):
    m = _model(scheme, PARTNER[scheme][0], p)
    try:
        rho, info = steady_state(build_liouvillian(m), return_info=True)
    except ConvergenceError:
        return  # no certificate to check
    _assert_within_bound_of_refined_oracle(m, rho, info)


@pytest.mark.parametrize("scheme", ["bell", "qutrit"])
@SETTINGS
@given(p=WIDE, target=st.sampled_from([0, 1]))
def test_band_plan_holds_every_nonzero_beyond_the_figures(scheme, p, target):
    # The layout's order is a permutation and every nonzero of the bordered
    # real form lies inside its band (gathered_band checks both), and the
    # band factors are those of the gathered dense form.
    L = build_liouvillian(_model(scheme, PARTNER[scheme][target], p))
    lu, piv, layout = _bordered_lu(L)
    want_lu, want_piv, info = dgbtrf(gathered_band(L, layout), layout.kl, layout.ku)
    assert info == 0
    assert lu.tobytes(order="F") == want_lu.tobytes(order="F")
    assert piv.tobytes() == want_piv.tobytes()


@pytest.mark.parametrize("scheme", ["bell", "qutrit"])
@SETTINGS
@given(p=PARAMS)
def test_drazin_norm_matches_power_loop_oracle(scheme, p):
    assert_drazin_norm_matches_loop(build_liouvillian(_model(scheme, PARTNER[scheme][0], p)))


@pytest.mark.parametrize("scheme", ["bell", "qutrit"])
@SETTINGS
@given(p=DETUNED)
def test_drazin_norm_matches_power_loop_oracle_off_resonance(scheme, p):
    # Off resonance ||L||_1 ||L^D||_2 reaches about 3e9, and the two loops'
    # rounding differs by up to 1.3e-12; a relative change of 1e-16 in the
    # oracle's start vector alone moves its estimate by up to 6e-12 there.
    assert_drazin_norm_matches_loop(build_liouvillian(_model(scheme, PARTNER[scheme][0], p)),
                                    rel=1e-11)


def test_drazin_norm_starts_from_a_unit_vector():
    # A wide-box Bell point, found by a scan of 300 points, where a start
    # vector of norm 8.66 (the seeded vector before its normalisation)
    # gives a first estimate that the second matches to 1e-3 by chance:
    # that loop stops after two steps at 0.555 s, below the dense norm
    # 0.841 s.  From the unit start the loop runs six steps, as the
    # oracle's does, and brackets the dense norm.
    p = {"rabi_mhz": 0.135, "microwave_rel": 0.03964, "urr_mhz": 5.864, "delta_mhz": 2.664,
         "gamma_khz": 4.132}
    L = build_liouvillian(_model("bell", "singlet", p))
    assert_drazin_norm_matches_loop(L)
    _, info = steady_state(L, return_info=True)
    _assert_drazin_norm_brackets_dense(L, info)


@pytest.mark.parametrize("scheme", ["bell", "qutrit"])
@SETTINGS
@given(p=PARAMS)
def test_local_unitary_maps_target_pair(scheme, p):
    first, second = (_model(scheme, t, p) for t in PARTNER[scheme])
    rho1 = steady_state(build_liouvillian(first))
    rho2 = steady_state(build_liouvillian(second))
    u = _flip_a_on_atom2(first)
    assert np.max(np.abs(u @ rho1 @ u.conj().T - rho2)) <= 1e-10
    target = first.variant.target_state, second.variant.target_state
    assert fidelity(second.state(target[1]), rho2) == pytest.approx(
        fidelity(first.state(target[0]), rho1), abs=1e-10)
    assert negativity(rho2, second.dims) == pytest.approx(negativity(rho1, first.dims), abs=1e-10)
    if scheme == "bell":
        assert chsh_correlation(rho2, triplet_frame=True) == pytest.approx(
            chsh_correlation(rho1), abs=1e-10)


@pytest.mark.parametrize("scheme", ["bell", "qutrit"])
@SETTINGS
@given(p=PARAMS, phase=st.floats(-math.pi, math.pi).filter(lambda x: abs(math.sin(x)) > 0.01))
@example(p={"rabi_mhz": 0.036, "microwave_rel": 0.004, "urr_mhz": 4.0, "gamma_khz": 1.0},
         phase=1.7)
def test_optical_phase_leaves_measures(scheme, p, phase):
    # Omega -> Omega e^{i phase} is undone by phasing each atom's Rydberg
    # levels, which no ground-manifold measure sees.  It also puts complex
    # Hamiltonian entries through the generator's plans, which no preset does.
    m = _model(scheme, PARTNER[scheme][0], p)
    params = caption_params(**p)
    params = dataclasses.replace(params, rabi_optical=params.rabi_optical * cmath.exp(1j * phase))
    shifted = build_model(params, m.variant)
    assert np.any(shifted.hamiltonian.imag)
    outputs = ["populations", "fidelity", "negativity"] + (["chsh"] if scheme == "bell" else [])
    _, before = measure_columns(m, outputs, steady_state(build_liouvillian(m))[None])
    _, after = measure_columns(shifted, outputs, steady_state(build_liouvillian(shifted))[None])
    assert np.max(np.abs(after - before)) <= 1e-10


@SETTINGS
@given(p=PARAMS)
def test_bell_singlet_steady_state_is_swap_symmetric(p):
    # The atom swap S|ab> = |ba> commutes with the singlet scheme's steady state.
    m = _model("bell", "singlet", p)
    rho = steady_state(build_liouvillian(m))
    d = m.dims.dimA
    swap = np.eye(d * d)[[b * d + a for a in range(d) for b in range(d)]]
    assert np.max(np.abs(swap @ rho @ swap.T - rho)) <= 1e-12


@pytest.mark.parametrize("scheme", ["bell", "qutrit"])
@SETTINGS
@given(p=PARAMS, order=st.data())
def test_level_permutation_permutes_steady_state(scheme, p, order):
    # Relabelling each atom's levels by permutations P and Q is the change of
    # basis U = P (x) Q of H, every jump and the named kets: the steady state
    # becomes U rho U^T, and fidelity and negativity do not move.  The
    # permuted H and jumps have nonzero patterns that no preset has, which
    # puts the generator plan's predicted H_eff pattern to the test.
    m = _model(scheme, PARTNER[scheme][0], p)
    perms = [order.draw(st.permutations(range(n))) for n in m.dims]
    u = np.kron(*(np.eye(n)[perm] for n, perm in zip(m.dims, perms)))
    relabelled = SystemModel(
        dims=m.dims, hamiltonian=u @ m.hamiltonian @ u.T, lindblads=u @ m.lindblads @ u.T,
        named_states={k: u @ v for k, v in m.named_states.items()}, variant=m.variant)
    rho = steady_state(build_liouvillian(m))
    moved = steady_state(build_liouvillian(relabelled))
    assert np.max(np.abs(moved - u @ rho @ u.T)) <= 1e-12
    target = m.variant.target_state
    assert fidelity(relabelled.state(target), moved) == pytest.approx(
        fidelity(m.state(target), rho), abs=1e-12)
    assert negativity(moved, m.dims) == pytest.approx(negativity(rho, m.dims), abs=1e-12)


def _rescaled_point(preset, s):
    """steady_point at the preset's caption with every rate scaled by s:
    Omega, Delta (U_rr = 2 Delta follows) and gamma; omega/Omega stays."""
    caption = dict(FIGURES[preset].caption)
    assert set(caption) == {"rabi_mhz", "microwave_rel", "delta_mhz", "gamma_khz"}
    for key in ("rabi_mhz", "delta_mhz", "gamma_khz"):
        caption[key] *= s
    variant = figure_preset(preset).variant
    outputs = ["populations", "fidelity", "negativity"] + (["chsh"] if variant.record.qubits else [])
    return steady_point(caption, variant, outputs, "nullspace")


@pytest.mark.parametrize("preset", ["fig2", "fig6-point"])
@pytest.mark.parametrize("s", [1e-150, 1e-80, 1e80, 1e150, 1e200])
def test_rescaled_rates_keep_the_certified_state(preset, s):
    # Scaling every rate by s maps L to s L: the steady state stays, and
    # ||L^D||_2 scales by 1/s.  The state is certified at every s, with a
    # positive bound, where a unit power-iteration vector or a plain sum of
    # squares leaves the float range.  At 1e-150 and 1e200 a norm's plain
    # sum of squares overflows before the scaled sum is taken, and
    # steady_state writes no warning of it.
    _, want, base = _rescaled_point(preset, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, got, info = _rescaled_point(preset, s)
    assert np.max(np.abs(got - want)) <= 1e-12
    assert info["drazin_norm"] * s == pytest.approx(base["drazin_norm"], rel=1e-3)
    assert info["error_bound"] > 0.0
