"""Property and metamorphic tests of the steady-state backends over random
physical parameters, inside the ranges the robustness figures scan."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rydpump.dynamics import build_liouvillian, steady_state
from rydpump.linalg import kron
from rydpump.measures import chsh_correlation, fidelity, negativity
from rydpump.models import SchemeVariant, build_model, caption_params

from test_dynamics import dense_rates, svd_steady_state

# Caption-unit ranges of the Fig. 8 and Fig. 9 grids, at resonant pumping
# (Delta = U_rr / 2) as on those grids.
PARAMS = st.fixed_dictionaries({
    "rabi_mhz": st.floats(0.02, 0.10),
    "microwave_rel": st.floats(0.002, 0.0125),
    "urr_mhz": st.floats(1.0, 10.0),
    "gamma_khz": st.floats(0.25, 2.5),
})

# The first target of each pair; the local unitary a -> -a on atom 2 maps
# its model and state onto the second.
PARTNER = {"bell": ("singlet", "triplet"), "qutrit": ("phi", "phi_prime")}

SETTINGS = settings(max_examples=10, deadline=None, derandomize=True)


def _model(scheme, target, p):
    return build_model(caption_params(**p), SchemeVariant(scheme, target))


def _flip_a_on_atom2(model):
    """The local unitary I (x) diag(1, -1, 1, ...) on atom 2."""
    da, db = model.dims
    u2 = np.eye(db)
    u2[1, 1] = -1.0
    return kron(np.eye(da), u2)


@pytest.mark.parametrize("scheme", ["bell", "qutrit"])
@SETTINGS
@given(p=PARAMS)
def test_steady_state_physical_and_backends_agree(scheme, p):
    m = _model(scheme, PARTNER[scheme][0], p)
    L = build_liouvillian(m)
    rho, info = steady_state(L, return_info=True)
    assert np.array_equal(rho, rho.conj().T)
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-14)
    assert np.linalg.eigvalsh(rho)[0] >= -1e-9
    assert info["error_bound"] <= 1e-8
    # The gap comes from the modes of smallest |lambda|: it is the rate of
    # one true mode and never below the slowest one, but can miss a weakly
    # damped fast-oscillating mode that relaxes more slowly.
    rates = dense_rates(m.hamiltonian, m.lindblads)
    assert np.min(np.abs(rates[1:] - info["gap"])) <= 1e-6 * info["gap"]
    assert info["gap"] >= rates[1] * (1 - 1e-6)
    assert np.max(np.abs(rho - svd_steady_state(m.hamiltonian, m.lindblads))) <= 1e-8
    if scheme == "bell":  # the propagation backend costs ~0.4 s per qutrit point
        assert np.max(np.abs(rho - steady_state(L, method="evolve"))) <= 1e-8


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
