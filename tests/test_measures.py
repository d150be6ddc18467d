import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from rydpump import linalg
from rydpump.dynamics import build_liouvillian, evolve
from rydpump.linalg import BipartiteDims, hermitian_eigvals, partial_transpose
from rydpump.measures import (
    chsh_correlation,
    chsh_operator,
    fidelity,
    negativity,
    populations,
)
from rydpump.grid import measure_columns
from rydpump.models import (
    SCHEMES, SchemeVariant, build_model, figure_preset, find_figure,
)

from conftest import random_density, random_unitary

SQRT8 = 2 * math.sqrt(2)


def bell_states():
    pre = figure_preset("fig2")
    return build_model(pre.params, pre.variant).named_states


def qutrit_states():
    pre = figure_preset("fig5")
    return build_model(pre.params, pre.variant).named_states


# --------------------------------------------------------------- fidelity

def test_fidelity_pure_state_self():
    s = bell_states()["S"]
    assert fidelity(s, np.outer(s, s.conj())) == pytest.approx(1.0, abs=1e-14)


def test_fidelity_orthogonal():
    st = bell_states()
    s, t = st["S"], st["T"]
    assert fidelity(s, np.outer(t, t.conj())) == pytest.approx(0.0, abs=1e-14)


def test_fidelity_linear_and_bounded(rng):
    s = bell_states()["S"]
    rho1, rho2 = random_density(rng, 9), random_density(rng, 9)
    lam = 0.3
    mix = lam * rho1 + (1 - lam) * rho2
    assert fidelity(s, mix) == pytest.approx(
        lam * fidelity(s, rho1) + (1 - lam) * fidelity(s, rho2), abs=1e-12)
    for rho in (rho1, rho2, mix):
        assert -1e-12 <= fidelity(s, rho) <= 1 + 1e-12


def test_fidelity_errors():
    s = bell_states()["S"]
    with pytest.raises(ValueError, match="dimension"):
        fidelity(s, np.eye(4) / 4)
    with pytest.raises(ValueError, match="unit norm"):
        fidelity(2 * s, np.eye(9) / 9)


# ------------------------------------------------------------------- chsh

def test_chsh_operator_hermitian_and_tsirelson_norm():
    for frame in (False, True):
        op = chsh_operator(triplet_frame=frame)
        assert np.max(np.abs(op - op.conj().T)) == 0.0
        eig = np.linalg.eigvalsh(op)
        assert max(abs(eig[0]), abs(eig[-1])) == pytest.approx(SQRT8, abs=1e-12)


def test_chsh_operator_built_once_and_read_only():
    for frame in (False, True):
        op = chsh_operator(frame)
        assert chsh_operator(frame) is op
        assert not op.flags.writeable
        with pytest.raises(ValueError):
            op[0, 0] = 1.0
    assert not np.array_equal(chsh_operator(False), chsh_operator(True))


def test_chsh_singlet_maximal_violation():
    s = bell_states()["S"]
    assert chsh_correlation(np.outer(s, s.conj())) == pytest.approx(SQRT8, abs=1e-12)


def test_chsh_triplet_needs_flipped_frame():
    t = bell_states()["T"]
    rho = np.outer(t, t.conj())
    assert chsh_correlation(rho) == pytest.approx(-SQRT8, abs=1e-12)
    assert chsh_correlation(rho, triplet_frame=True) == pytest.approx(SQRT8, abs=1e-12)


def test_chsh_column_of_every_qubit_target_is_maximal():
    # measure_columns reads the CHSH frame from the sign of the atom-2
    # microwave in the scheme record, so every target state of every qubit
    # scheme reaches the quantum maximum in its own column.
    params = figure_preset("fig2").params
    cases = [(name, target) for name, record in SCHEMES.items() if record.qubits
             for target in record.targets]
    assert ("bell", "triplet") in cases
    for name, target in cases:
        model = build_model(params, SchemeVariant(name, target))
        ket = model.state(model.variant.target_state)
        names, values = measure_columns(model, ["chsh"], np.outer(ket, ket.conj())[None])
        assert names == ["chsh"]
        assert abs(values[0, 0] - SQRT8) <= 1e-12, (name, target)


def test_chsh_mixed_ground_state_vanishes():
    pre = figure_preset("fig2")
    m = build_model(pre.params, pre.variant)
    assert chsh_correlation(m.initial_density("mix4")) == pytest.approx(0.0, abs=1e-12)


def test_chsh_separable_bound(rng):
    # convex mixtures of product states stay below the classical bound 2
    for _ in range(50):
        rho = np.zeros((9, 9), dtype=complex)
        weights = rng.dirichlet(np.ones(4))
        for w in weights:
            rho += w * np.kron(random_density(rng, 3), random_density(rng, 3))
        assert abs(chsh_correlation(rho)) <= 2.0 + 1e-9


def test_chsh_tsirelson_bound_any_state(rng):
    for _ in range(50):
        assert abs(chsh_correlation(random_density(rng, 9))) <= SQRT8 + 1e-9


def test_chsh_dimension_error():
    with pytest.raises(ValueError, match="9x9"):
        chsh_correlation(np.eye(4) / 4)


# -------------------------------------------------------------- negativity

def test_negativity_product_state(rng):
    rho = np.kron(random_density(rng, 3), random_density(rng, 3))
    assert negativity(rho, BipartiteDims(3, 3)) <= 1e-12


def test_negativity_two_qubit_singlet():
    s = np.array([0, 1, -1, 0]) / math.sqrt(2)
    assert negativity(np.outer(s, s), BipartiteDims(2, 2)) == pytest.approx(0.5, abs=1e-12)


def test_negativity_maximally_entangled_qutrit_pair():
    # |phi> embedded in the 5x4 space of the qutrit scheme
    phi = qutrit_states()["phi"]
    rho = np.outer(phi, phi.conj())
    assert negativity(rho, BipartiteDims(5, 4)) == pytest.approx(1.0, abs=1e-12)


def test_negativity_definitions_agree(rng):
    # trace-norm form vs negative-eigenvalue form, recomputed here
    from rydpump.linalg import hermitian_eigvals, partial_transpose
    for da, db in ((2, 2), (3, 3), (5, 4)):
        for _ in range(20):
            rho = random_density(rng, da * db)
            n = negativity(rho, BipartiteDims(da, db))
            lam = hermitian_eigvals(partial_transpose(rho, BipartiteDims(da, db)))
            assert n == pytest.approx((np.sum(np.abs(lam)) - 1) / 2, abs=1e-10)
            assert n == pytest.approx(np.sum((np.abs(lam) - lam) / 2), abs=1e-10)


def test_negativity_self_check_tolerance(rng):
    # The two forms differ by (tr rho - 1)/2: a trace 1 + 1e-9 puts them
    # 5e-10 apart, beyond the 1e-10 self-check; 1 + 1e-11 stays within it.
    rho = random_density(rng, 9)
    with pytest.raises(RuntimeError, match="disagree"):
        negativity(rho * (1 + 1e-9), BipartiteDims(3, 3))
    assert math.isfinite(negativity(rho * (1 + 1e-11), BipartiteDims(3, 3)))


def test_negativity_local_unitary_invariance(rng):
    rho = random_density(rng, 9)
    u = np.kron(random_unitary(rng, 3), random_unitary(rng, 3))
    before = negativity(rho, BipartiteDims(3, 3))
    after = negativity(u @ rho @ u.conj().T, BipartiteDims(3, 3))
    assert abs(before - after) <= 1e-9


def test_negativity_dimension_error():
    with pytest.raises(ValueError):
        negativity(np.eye(9) / 9, BipartiteDims(5, 4))


# ------------------------------------------------------------- populations

def test_populations_uniform_mixture():
    pre = figure_preset("fig2")
    m = build_model(pre.params, pre.variant)
    basis = [ket for _, ket in m.population_basis()]
    pops = populations(m.initial_density("mix4"), basis)
    assert np.allclose(pops, 0.25, atol=1e-12)


def test_populations_pure_singlet():
    pre = figure_preset("fig2")
    m = build_model(pre.params, pre.variant)
    basis = [ket for _, ket in m.population_basis()]
    pops = populations(m.initial_density("S"), basis)
    assert np.allclose(pops, [0.0, 1.0, 0.0, 0.0], atol=1e-12)


def test_populations_completeness(rng):
    # over a complete orthonormal basis the populations sum to 1
    rho = random_density(rng, 9)
    basis = list(np.eye(9))
    assert np.sum(populations(rho, basis)) == pytest.approx(1.0, abs=1e-10)


def test_populations_dimension_error():
    with pytest.raises(ValueError, match="dimension"):
        populations(np.eye(9) / 9, [np.ones(4) / 2])


# ------------------------------------------------------------------ stacks

@pytest.mark.parametrize("preset, target", [
    ("fig2", "singlet"), ("fig2", "triplet"), ("fig5", "phi"), ("fig5", "phi_prime"),
])
def test_stacked_measures_match_per_state_loop(rng, preset, target):
    pre = figure_preset(preset)
    m = build_model(pre.params, SchemeVariant(pre.variant.scheme, target))
    d, psi = m.dim, m.state(target)
    kets = [ket for _, ket in m.population_basis()]
    stack = np.array([random_density(rng, d) for _ in range(6)]).reshape(2, 3, d, d)
    flat = stack.reshape(6, d, d)
    frame = target == "triplet"
    cases = [
        (lambda r: fidelity(psi, r), True),
        (lambda r: populations(r, kets), False),
        (lambda r: negativity(r, m.dims), True),
        (lambda r: partial_transpose(r, m.dims), False),
        (lambda r: hermitian_eigvals(r), False),
    ]
    if m.variant.scheme == "bell":
        cases.append((lambda r: chsh_correlation(r, triplet_frame=frame), True))
    for measure, scalar in cases:
        loop = [measure(rho) for rho in flat]
        if scalar:
            assert all(type(v) is float for v in loop)
        got = measure(stack)
        assert got.shape == (2, 3) + np.shape(loop[0])
        assert np.max(np.abs(got.reshape(np.shape(loop)) - np.array(loop))) <= 1e-14

    # one non-Hermitian member still fails every measure that checks
    bad = flat.copy()
    bad[4] = bad[4] + 1e-3j * np.outer(psi, psi.conj())
    checked = [lambda r: fidelity(psi, r), lambda r: negativity(r, m.dims),
               lambda r: hermitian_eigvals(r)]
    if m.variant.scheme == "bell":
        checked.append(lambda r: chsh_correlation(r, triplet_frame=frame))
    for measure in checked:
        with pytest.raises(ValueError, match="imaginary part|not Hermitian"):
            measure(bad)


# ------------------------------------------------------------------ blocks

def bits(x):
    """The float64 bit patterns of a measure's value, a float or an array."""
    return np.asarray(x, dtype=float).view(np.int64)


@pytest.mark.parametrize("preset, target", [("fig2", "singlet"), ("fig5", "phi")])
def test_blocked_measures_are_bit_identical(rng, preset, target):
    # A stack that spans several blocks gives, state by state, the bits of
    # one evaluation of the whole stack (the block size patched out of
    # reach), whichever block a state falls in.
    pre = figure_preset(preset)
    m = build_model(pre.params, SchemeVariant(pre.variant.scheme, target))
    d, psi = m.dim, m.state(target)
    kets = [ket for _, ket in m.population_basis()]
    B = linalg._BLOCK_BYTES // (d * d * 16)
    assert B >= 2
    states = np.array([random_density(rng, d) for _ in range(3 * B + 5)])
    cases = [lambda r: fidelity(psi, r), lambda r: populations(r, kets),
             lambda r: negativity(r, m.dims)]
    if m.variant.scheme == "bell":
        cases += [lambda r: chsh_correlation(r), lambda r: chsh_correlation(r, triplet_frame=True)]
    stacks = [states[:count] for count in (1, B - 1, B, B + 1, 3 * B + 5)]
    stacks.append(states[:2 * B + 2].reshape(2, B + 1, d, d))  # two leading axes
    stacks.append(states[0])  # one state
    for measure in cases:
        for stack in stacks:
            got = measure(stack)
            with mock.patch.object(linalg, "_BLOCK_BYTES", 2**62):
                want = measure(stack)
            assert np.shape(got) == np.shape(want)
            assert np.array_equal(bits(got), bits(want))
            if stack.ndim == 2 and measure is not cases[1]:
                assert type(got) is float


def traced_peak(f) -> int:
    """The largest total of traced allocations live at once during f()."""
    tracemalloc.start()
    try:
        f()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("preset, output, samples", [
    ("fig3", "chsh", 3001), ("fig5-inset", "populations", None),
])
def test_measure_columns_peak_near_their_output(preset, output, samples):
    # A stack's measures hold their result and one block's temporaries,
    # never a temporary as large as the stack (3.9 MB of fig3 states, 2.6
    # MB of fig5-inset states).
    fig, pre = find_figure(preset), figure_preset(preset)
    m = build_model(pre.params, pre.variant)
    t = np.linspace(0.0, fig.t_max_ms * 1e-3, samples or fig.samples)
    states = evolve(build_liouvillian(m), m.initial_density(fig.initial), t).states
    measure_columns(m, [output], states[:3])  # the cached operators, once
    values = []
    peak = traced_peak(lambda: values.append(measure_columns(m, [output], states)[1]))
    assert peak <= values[0].nbytes + 1e6
