import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rydpump.cli import RunSetup
from rydpump.dynamics import build_liouvillian, evolve, steady_state
from rydpump.linalg import BipartiteDims
from rydpump.models import (
    SCHEMES,
    ModelParams,
    SchemeVariant,
    SystemModel,
    angular_mhz,
    build_model,
    caption_params,
    decay_rate_khz,
    figure_preset,
    preset_caption,
    PRESET_NAMES,
)

BELL = SchemeVariant("bell", "singlet")
BELL_T = SchemeVariant("bell", "triplet")
QUTRIT = SchemeVariant("qutrit", "phi")
QUTRIT_P = SchemeVariant("qutrit", "phi_prime")


def bell_params(**kw):
    base = dict(rabi_optical=1.3, rabi_microwave_1=0.7, detuning=2.1,
                rydberg_U=4.2, gamma=0.9)
    base.update(kw)
    return ModelParams(**base)


def qutrit_params(**kw):
    base = dict(rabi_optical=1.3, rabi_microwave_1=0.7, rabi_microwave_2=0.7,
                detuning=2.1, rydberg_U=4.2, gamma=0.9)
    base.update(kw)
    return ModelParams(**base)


# ---------------------------------------------------------------- bell scheme

def test_bell_single_atom_entries():
    p = bell_params()
    m = build_model(p, BELL)
    h = m.hamiltonian
    # <f|H_j|r> = Omega/2 and <r|H_j|r> = -Delta, read off the two-atom matrix
    idx = {lab: i for i, lab in enumerate(("f", "a", "r"))}

    def two(l1, l2):
        return idx[l1] * 3 + idx[l2]

    assert h[two("f", "f"), two("r", "f")] == p.rabi_optical / 2
    assert h[two("a", "f"), two("a", "r")] == p.rabi_optical / 2
    assert h[two("r", "f"), two("r", "f")] == -p.detuning
    assert h[two("f", "r"), two("f", "r")] == -p.detuning
    assert h[two("f", "f"), two("a", "f")] == p.rabi_microwave_1 / 2


def test_bell_interaction_term():
    p = bell_params(rabi_optical=0.0, rabi_microwave_1=0.0, detuning=0.0)
    h = build_model(p, BELL).hamiltonian
    expected = np.zeros((9, 9))
    expected[8, 8] = p.rydberg_U
    assert np.array_equal(h, expected)


def test_bell_resonant_pumping_cancellation():
    p = bell_params(detuning=2.1, rydberg_U=4.2)
    h = build_model(p, BELL).hamiltonian
    assert h[8, 8] == 0.0  # -2*Delta + U_rr


def test_bell_microwave_dark_states():
    # microwave-only Hamiltonian annihilates the variant's target exactly
    p = bell_params(rabi_optical=0.0, detuning=0.0, rydberg_U=0.0)
    for variant, dark, bright in ((BELL, "S", "T"), (BELL_T, "T", "S")):
        m = build_model(p, variant)
        assert np.max(np.abs(m.hamiltonian @ m.state(dark))) < 1e-14
        assert np.max(np.abs(m.hamiltonian @ m.state(bright))) > 0.1


def test_bell_lindblads_match_basis_change_expansions():
    # L1..L4 rewritten in the triplet-singlet basis, e.g.
    # L1 |ra> = sqrt(gamma/2) (|T> + |S>)/sqrt(2), as matrix identities
    p = bell_params(gamma=2.0)
    m = build_model(p, BELL)
    amp = math.sqrt(p.gamma / 2)
    st = m.named_states
    plus = (st["T"] + st["S"]) / math.sqrt(2)
    minus = (st["T"] - st["S"]) / math.sqrt(2)

    def op(*terms):
        return amp * sum(np.outer(ket, st[bra].conj()) for ket, bra in terms)

    expected = [
        op((st["fr"], "rr"), (plus, "ra"), (st["ff"], "rf")),
        op((st["ar"], "rr"), (minus, "rf"), (st["aa"], "ra")),
        op((st["rf"], "rr"), (minus, "ar"), (st["ff"], "fr")),
        op((st["ra"], "rr"), (plus, "fr"), (st["aa"], "ar")),
    ]
    assert len(m.lindblads) == 4
    for built, want in zip(m.lindblads, expected):
        assert np.max(np.abs(built - want)) <= 1e-12 * amp


def test_build_model_dispatch():
    assert build_model(bell_params(), BELL).dim == 9
    assert build_model(qutrit_params(), QUTRIT).dim == 20


# -------------------------------------------------------------- qutrit scheme

def test_qutrit_atom1_entries():
    p = qutrit_params(rabi_optical=1.0 + 2.0j)
    h1 = build_model(p, QUTRIT).hamiltonian[:, :]
    # row |rL f|, col |f f| carries Omega*/2; diagonal |rL f> carries -Delta
    rl_f = 3 * 4 + 0
    f_f = 0
    assert h1[rl_f, f_f] == np.conj(p.rabi_optical) / 2
    assert h1[rl_f, rl_f] == -p.detuning
    rr_a = 4 * 4 + 1
    a_a = 1 * 4 + 1
    assert h1[rr_a, a_a] == np.conj(p.rabi_optical) / 2


def test_qutrit_atom2_entries():
    p = qutrit_params()
    h = build_model(p, QUTRIT).hamiltonian
    g_idx, r_idx = 2, 3
    assert h[0 * 4 + g_idx, 0 * 4 + r_idx] == p.rabi_optical / 2
    assert h[0 * 4 + r_idx, 0 * 4 + r_idx] == -p.detuning


def test_qutrit_interaction_term():
    p = qutrit_params(rabi_optical=0.0, rabi_microwave_1=0.0,
                      rabi_microwave_2=0.0, detuning=0.0)
    h = build_model(p, QUTRIT).hamiltonian
    expected = np.zeros((20, 20))
    expected[3 * 4 + 3, 3 * 4 + 3] = p.rydberg_U  # |rL r>
    expected[4 * 4 + 3, 4 * 4 + 3] = p.rydberg_U  # |rR r>
    assert np.array_equal(h, expected)


def test_qutrit_resonant_pumping_cancellation():
    h = build_model(qutrit_params(), QUTRIT).hamiltonian
    assert h[3 * 4 + 3, 3 * 4 + 3] == 0.0
    assert h[4 * 4 + 3, 4 * 4 + 3] == 0.0


def test_qutrit_microwave_dark_states():
    p = qutrit_params(rabi_optical=0.0, detuning=0.0, rydberg_U=0.0)
    for variant, dark in ((QUTRIT, "phi"), (QUTRIT_P, "phi_prime")):
        m = build_model(p, variant)
        assert np.max(np.abs(m.hamiltonian @ m.state(dark))) < 1e-14
        # the other eight ground-basis states are not dark
        for name, ket in m.population_basis():
            if name != dark:
                assert np.max(np.abs(m.hamiltonian @ ket)) > 1e-3


def test_qutrit_microwave_sign_pattern():
    # phi variant: atom-1 terms +omega/2, atom-2 terms -omega/2
    p = qutrit_params(rabi_optical=0.0, detuning=0.0, rydberg_U=0.0)
    h = build_model(p, QUTRIT).hamiltonian
    assert h[0 * 4 + 0, 1 * 4 + 0] == p.rabi_microwave_1 / 2      # |fa><aa| atom 1
    assert h[0 * 4 + 0, 0 * 4 + 1] == -p.rabi_microwave_2 / 2     # atom 2 flipped
    hp = build_model(p, QUTRIT_P).hamiltonian
    assert hp[0 * 4 + 0, 0 * 4 + 1] == p.rabi_microwave_2 / 2


def test_qutrit_lindblads_match_basis_change_expansions():
    # the nine jump operators rewritten over the ground-manifold basis,
    # e.g. L_{rL,f} |rL f> = sqrt(gamma/3) (phi/sqrt3 + varphi/sqrt6 + psi/sqrt2)
    p = qutrit_params(gamma=3.0)
    m = build_model(p, QUTRIT)
    amp = math.sqrt(p.gamma / 3)
    st = m.named_states
    comb_f = st["phi"] / math.sqrt(3) + st["varphi"] / math.sqrt(6) + st["psi"] / math.sqrt(2)
    comb_a = st["phi"] / math.sqrt(3) - math.sqrt(6) / 3 * st["varphi"]
    comb_g = st["phi"] / math.sqrt(3) + st["varphi"] / math.sqrt(6) - st["psi"] / math.sqrt(2)

    def op(*terms):
        return amp * sum(np.outer(ket, st[bra].conj()) for ket, bra in terms)

    expected = {}
    for ryd in ("rL", "rR"):
        expected[f"{ryd},f"] = op((st["fr"], f"{ryd}r"), (st["fa"], f"{ryd}a"),
                                  (st["fg"], f"{ryd}g"), (comb_f, f"{ryd}f"))
        expected[f"{ryd},a"] = op((st["ar"], f"{ryd}r"), (st["af"], f"{ryd}f"),
                                  (st["ag"], f"{ryd}g"), (comb_a, f"{ryd}a"))
        expected[f"{ryd},g"] = op((st["gr"], f"{ryd}r"), (st["gf"], f"{ryd}f"),
                                  (st["ga"], f"{ryd}a"), (comb_g, f"{ryd}g"))
    expected["r,f"] = op((st["rLf"], "rLr"), (st["rRf"], "rRr"), (st["af"], "ar"),
                         (st["gf"], "gr"), (comb_f, "fr"))
    expected["r,a"] = op((st["rLa"], "rLr"), (st["rRa"], "rRr"), (st["fa"], "fr"),
                         (st["ga"], "gr"), (comb_a, "ar"))
    expected["r,g"] = op((st["rLg"], "rLr"), (st["rRg"], "rRr"), (st["ag"], "ar"),
                         (st["fg"], "fr"), (comb_g, "gr"))

    order = ["rL,f", "rL,a", "rL,g", "rR,f", "rR,a", "rR,g", "r,f", "r,a", "r,g"]
    assert len(m.lindblads) == 9
    for built, key in zip(m.lindblads, order):
        assert np.max(np.abs(built - expected[key])) <= 1e-12 * amp, key


def test_named_states_unit_norm():
    for model in (build_model(bell_params(), BELL),
                  build_model(qutrit_params(), QUTRIT)):
        for name, ket in model.named_states.items():
            assert abs(np.linalg.norm(ket) - 1.0) <= 1e-12, name


def test_named_states_checked_once_per_scheme(monkeypatch):
    # The unit-norm check runs where the kets are built and cached: a record
    # whose superposition is not normalised fails there.
    from dataclasses import replace

    from rydpump.models import _plan

    bad = replace(SCHEMES["bell"], superpositions={"S": ((1, "fa"), (1, "fa"))})
    monkeypatch.setitem(SCHEMES, "unnormalised", bad)
    try:
        with pytest.raises(AssertionError, match="unit norm"):
            _plan("unnormalised")
    finally:
        _plan.cache_clear()


@pytest.mark.parametrize("scheme", ["bell", "qutrit"])
def test_product_states_match_kron_formula(scheme):
    if scheme == "bell":
        m = build_model(bell_params(), BELL)
    else:
        m = build_model(qutrit_params(), QUTRIT)
    labels_a, labels_b = m.variant.record.levels
    da, db = len(labels_a), len(labels_b)
    eye_a, eye_b = np.eye(da, dtype=complex), np.eye(db, dtype=complex)
    products = [f"{la}{lb}" for la in labels_a for lb in labels_b]
    for i, la in enumerate(labels_a):
        for j, lb in enumerate(labels_b):
            ket = m.named_states[f"{la}{lb}"]
            assert ket.dtype == complex
            assert np.array_equal(ket, np.kron(eye_a[i], eye_b[j]))
    # Each ket owns its data: writing to one leaves the others unchanged.
    before = {name: m.named_states[name].copy() for name in m.named_states}
    m.named_states[products[0]][:] = 7.0
    for name in products[1:] + [n for n in m.named_states if n not in products]:
        assert np.array_equal(m.named_states[name], before[name]), name


def test_initial_density_mixtures():
    m = build_model(bell_params(), BELL)
    rho = m.initial_density("mix4")
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
    for _, ket in m.population_basis():
        assert np.vdot(ket, rho @ ket).real == pytest.approx(0.25, abs=1e-12)
    mq = build_model(qutrit_params(), QUTRIT)
    rho9 = mq.initial_density("mix9")
    for _, ket in mq.population_basis():
        assert np.vdot(ket, rho9 @ ket).real == pytest.approx(1 / 9, abs=1e-12)
    with pytest.raises(ValueError):
        m.initial_density("mix9")


def test_state_aliases():
    m = build_model(bell_params(), BELL)
    assert np.array_equal(m.state("singlet"), m.state("S"))
    with pytest.raises(KeyError, match="unknown state"):
        m.state("nope")


def test_ground_ff_is_not_a_state_name():
    # The basis label ff names the ground product state; no other spelling does.
    m = build_model(bell_params(), BELL)
    with pytest.raises(KeyError, match=r"unknown state 'ground-ff'; known: \["):
        m.state("ground-ff")


# ------------------------------------------------------- params and variants

def test_params_validation():
    with pytest.raises(ValueError, match="gamma"):
        bell_params(gamma=-1.0)
    with pytest.raises(ValueError, match="detuning"):
        bell_params(detuning=-0.1)
    with pytest.raises(ValueError, match="rabi_optical"):
        bell_params(rabi_optical=float("nan"))


def test_params_accept_numpy_reals():
    # numpy integer and floating scalars are finite nonnegative reals too;
    # a numpy nan or negative value fails with the same message as a float.
    for v in (np.int64(2), np.float32(2.0)):
        assert bell_params(detuning=v).detuning == 2
    for v in (np.float64("nan"), np.float32("nan"), np.int64(-1), np.float32(-0.5)):
        with pytest.raises(ValueError, match=r"^detuning must be a finite nonnegative real, got "):
            bell_params(detuning=v)


def test_variant_validation():
    with pytest.raises(ValueError, match="scheme"):
        SchemeVariant("ladder", "singlet")
    with pytest.raises(ValueError, match="target"):
        SchemeVariant("bell", "phi")


def test_unit_conversions():
    assert angular_mhz(0.036) == pytest.approx(2 * math.pi * 0.036e6, rel=1e-15)
    assert decay_rate_khz(1.673) == 1673.0
    assert decay_rate_khz(1.673, angular=True) == pytest.approx(2 * math.pi * 1673.0, rel=1e-15)


def test_caption_params_delta_urr_coupling():
    p = caption_params(rabi_mhz=0.036, microwave_rel=0.004, delta_mhz=3.435, gamma_khz=1.673)
    assert p.rydberg_U == pytest.approx(2 * p.detuning, rel=1e-15)
    q = caption_params(rabi_mhz=0.036, urr_mhz=4.0, gamma_khz=1.0)
    assert q.detuning == pytest.approx(q.rydberg_U / 2, rel=1e-15)
    both = caption_params(rabi_mhz=0.1, delta_mhz=1.0, urr_mhz=3.0, gamma_khz=1.0)
    assert both.rydberg_U == pytest.approx(angular_mhz(3.0), rel=1e-15)
    assert both.detuning == pytest.approx(angular_mhz(1.0), rel=1e-15)


def test_caption_params_takes_one_microwave_amplitude():
    with pytest.raises(ValueError, match="^give either microwave_rel or microwave_mhz, not both$"):
        caption_params(rabi_mhz=0.036, microwave_rel=0.004, microwave_mhz=0.1)


# -------------------------------------------------------------------- presets

def test_preset_fig3_caption_values():
    pre = figure_preset("fig3")
    p = pre.params
    assert p.rabi_optical == pytest.approx(angular_mhz(0.036), rel=1e-15)
    assert p.rabi_microwave_1 == pytest.approx(0.004 * p.rabi_optical, rel=1e-15)
    assert p.detuning == pytest.approx(angular_mhz(3.435), rel=1e-15)
    assert p.rydberg_U == pytest.approx(2 * p.detuning, rel=1e-15)
    assert p.gamma == 1673.0
    assert pre.variant == SchemeVariant("bell", "singlet")
    assert pre.initial_state == "mix4"


def test_preset_fig5_inset_caption_values():
    pre = figure_preset("fig5-inset")
    p = pre.params
    assert p.rabi_optical == pytest.approx(angular_mhz(0.055), rel=1e-15)
    assert p.rabi_microwave_1 == pytest.approx(0.0075 * p.rabi_optical, rel=1e-15)
    assert p.detuning == pytest.approx(angular_mhz(2.0), rel=1e-15)
    assert p.gamma == 1000.0
    assert pre.initial_state == "mix9"


def test_preset_fig6_point_caption_values():
    pre = figure_preset("fig6-point")
    assert pre.params.detuning == pytest.approx(angular_mhz(4.8705), rel=1e-15)
    assert pre.params.gamma == 1033.0
    assert pre.variant.scheme == "qutrit"


def test_preset_gamma_angular_switch():
    plain = figure_preset("fig2").params.gamma
    ang = figure_preset("fig2", gamma_angular=True).params.gamma
    assert ang == pytest.approx(2 * math.pi * plain, rel=1e-15)


def test_preset_unknown_lists_names():
    with pytest.raises(ValueError) as err:
        figure_preset("fig99")
    for name in PRESET_NAMES:
        assert name in str(err.value)


def test_preset_caption_round_trip():
    # every preset re-serializes to its quoted caption values
    for name in PRESET_NAMES:
        spec = preset_caption(name)
        p = figure_preset(name).params
        mhz = angular_mhz(1.0)
        assert p.rabi_optical / mhz == pytest.approx(spec["rabi_mhz"], rel=1e-12)
        assert p.gamma / 1e3 == pytest.approx(spec["gamma_khz"], rel=1e-12)
        if "delta_mhz" in spec:
            assert p.detuning / mhz == pytest.approx(spec["delta_mhz"], rel=1e-12)
        if "urr_mhz" in spec:
            assert p.rydberg_U / mhz == pytest.approx(spec["urr_mhz"], rel=1e-12)
        if "microwave_rel" in spec:
            ratio = p.rabi_microwave_1 / p.rabi_optical
            assert ratio == pytest.approx(spec["microwave_rel"], rel=1e-12)



# --------------------------------------------------------------- config files
# ModelParams field names in a --config file, read by the one config parser.

def params_from_config(path):
    return caption_params(**RunSetup({"scheme": "bell", "config": str(path)}).caption)


def test_params_from_config_mapping(tmp_path):
    cfg = tmp_path / "model.cfg"
    values = {"rabi_optical": "0.036", "rabi_microwave_1": "0.000144",
              "detuning": "3.435", "gamma": "1.673"}
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
    p = params_from_config(cfg)
    assert p.rabi_optical == pytest.approx(angular_mhz(0.036), rel=1e-15)
    assert p.rydberg_U == pytest.approx(2 * p.detuning, rel=1e-15)
    assert p.gamma == 1673.0


def test_params_from_config_file(tmp_path):
    cfg = tmp_path / "model.cfg"
    cfg.write_text("# comment\nrabi_optical = 0.055\nrydberg_U = 4.0\ngamma = 1.0\n")
    p = params_from_config(cfg)
    assert p.detuning == pytest.approx(angular_mhz(2.0), rel=1e-15)


def test_params_from_config_rejects_unknown_key(tmp_path):
    cfg = tmp_path / "model.cfg"
    cfg.write_text("omega = 1.0\n")
    with pytest.raises(ValueError, match="unknown config key 'omega'"):
        params_from_config(cfg)


# ------------------------------------------------- scheme records and builder
# The two builders that wrote each scheme out by hand, kept as the oracle of
# the one builder that reads a scheme record.  Their bodies are unchanged
# but for names: the level constants and the product-state helper carry an
# ORACLE_/oracle_ prefix, the atom-2 microwave sign, once a SchemeVariant
# property, is oracle_atom2_microwave_sign, and they return the SystemModel
# without the package's model checks.

ORACLE_BELL_LEVELS = ("f", "a", "r")
ORACLE_QUTRIT_LEVELS_A = ("f", "a", "g", "rL", "rR")
ORACLE_QUTRIT_LEVELS_B = ("f", "a", "g", "r")


def oracle_atom2_microwave_sign(variant):
    return +1 if variant.target in ("singlet", "phi_prime") else -1


def oracle_product_states(labels_a, labels_b) -> dict:
    eye = np.eye(len(labels_a) * len(labels_b), dtype=complex)
    labels = [f"{la}{lb}" for la in labels_a for lb in labels_b]
    return {label: row.copy() for label, row in zip(labels, eye)}


def oracle_bell_model(params, variant):
    if variant.scheme != "bell":
        raise ValueError(f"oracle_bell_model requires scheme 'bell', got {variant.scheme!r}")
    omega = complex(params.rabi_microwave_1)
    big_o = complex(params.rabi_optical)

    def single_atom(om: complex) -> np.ndarray:
        return np.array(
            [
                [0.0, om / 2.0, big_o / 2.0],
                [np.conj(om) / 2.0, 0.0, 0.0],
                [np.conj(big_o) / 2.0, 0.0, -params.detuning],
            ],
            dtype=complex,
        )

    eye3 = np.eye(3, dtype=complex)
    ham = np.kron(single_atom(omega), eye3) + np.kron(eye3, single_atom(
        oracle_atom2_microwave_sign(variant) * omega))
    rr = 2 * 3 + 2
    ham[rr, rr] += params.rydberg_U

    amp = math.sqrt(params.gamma / 2.0)
    lindblads = []
    for atom in (0, 1):
        for ground in (0, 1):  # f, a
            jump = np.zeros((3, 3), dtype=complex)
            jump[ground, 2] = amp
            lindblads.append(np.kron(jump, eye3) if atom == 0 else np.kron(eye3, jump))

    states = oracle_product_states(ORACLE_BELL_LEVELS, ORACLE_BELL_LEVELS)
    states["S"] = (states["fa"] - states["af"]) / math.sqrt(2.0)
    states["T"] = (states["fa"] + states["af"]) / math.sqrt(2.0)

    return SystemModel(
        dims=BipartiteDims(3, 3),
        hamiltonian=ham,
        lindblads=tuple(lindblads),
        named_states=states,
        variant=variant,
    )


def oracle_qutrit_model(params, variant):
    if variant.scheme != "qutrit":
        raise ValueError(f"oracle_qutrit_model requires scheme 'qutrit', got {variant.scheme!r}")
    om1 = complex(params.rabi_microwave_1)
    om2 = oracle_atom2_microwave_sign(variant) * complex(params.rabi_microwave_2)
    big_o = complex(params.rabi_optical)
    delta = params.detuning

    h1 = np.zeros((5, 5), dtype=complex)
    h1[0, 1] = om1 / 2.0; h1[1, 0] = np.conj(om1) / 2.0
    h1[1, 2] = om1 / 2.0; h1[2, 1] = np.conj(om1) / 2.0
    h1[0, 3] = big_o / 2.0; h1[3, 0] = np.conj(big_o) / 2.0
    h1[1, 4] = big_o / 2.0; h1[4, 1] = np.conj(big_o) / 2.0
    h1[3, 3] = -delta
    h1[4, 4] = -delta

    h2 = np.zeros((4, 4), dtype=complex)
    h2[0, 1] = om2 / 2.0; h2[1, 0] = np.conj(om2) / 2.0
    h2[1, 2] = om2 / 2.0; h2[2, 1] = np.conj(om2) / 2.0
    h2[2, 3] = big_o / 2.0; h2[3, 2] = np.conj(big_o) / 2.0
    h2[3, 3] = -delta

    eye5, eye4 = np.eye(5, dtype=complex), np.eye(4, dtype=complex)
    ham = np.kron(h1, eye4) + np.kron(eye5, h2)
    for rydberg_1 in (3, 4):  # |rL r>, |rR r> shifted by the same U_rr
        idx = rydberg_1 * 4 + 3
        ham[idx, idx] += params.rydberg_U

    amp = math.sqrt(params.gamma / 3.0)
    lindblads = []
    for rydberg_1 in (3, 4):
        for ground in (0, 1, 2):
            jump = np.zeros((5, 5), dtype=complex)
            jump[ground, rydberg_1] = amp
            lindblads.append(np.kron(jump, eye4))
    for ground in (0, 1, 2):
        jump = np.zeros((4, 4), dtype=complex)
        jump[ground, 3] = amp
        lindblads.append(np.kron(eye5, jump))

    states = oracle_product_states(ORACLE_QUTRIT_LEVELS_A, ORACLE_QUTRIT_LEVELS_B)
    ff, aa, gg = states["ff"], states["aa"], states["gg"]
    states["phi"] = (ff + aa + gg) / math.sqrt(3.0)
    states["phi_prime"] = (ff - aa + gg) / math.sqrt(3.0)
    states["psi"] = (ff - gg) / math.sqrt(2.0)
    states["varphi"] = (ff - 2.0 * aa + gg) / math.sqrt(6.0)

    return SystemModel(
        dims=BipartiteDims(5, 4),
        hamiltonian=ham,
        lindblads=tuple(lindblads),
        named_states=states,
        variant=variant,
    )


ORACLE = {"bell": oracle_bell_model, "qutrit": oracle_qutrit_model}
ORACLE_LEVELS = {"bell": (ORACLE_BELL_LEVELS, ORACLE_BELL_LEVELS),
                 "qutrit": (ORACLE_QUTRIT_LEVELS_A, ORACLE_QUTRIT_LEVELS_B)}
ALL_VARIANTS = (BELL, BELL_T, QUTRIT, QUTRIT_P)


def assert_same_array(built, want, what):
    assert (built.dtype, built.shape) == (want.dtype, want.shape), what
    assert built.tobytes() == want.tobytes(), what


def assert_matches_oracle(params, variant):
    built, want = build_model(params, variant), ORACLE[variant.scheme](params, variant)
    assert built.dims == want.dims
    assert built.variant.record.levels == ORACLE_LEVELS[variant.scheme]
    assert_same_array(built.hamiltonian, want.hamiltonian, "hamiltonian")
    assert len(built.lindblads) == len(want.lindblads)
    for k, (op, want_op) in enumerate(zip(built.lindblads, want.lindblads)):
        assert_same_array(op, want_op, f"lindblads[{k}]")
    assert list(built.named_states) == list(want.named_states)
    for name, ket in built.named_states.items():
        assert_same_array(ket, want.named_states[name], name)
    return built


@pytest.mark.parametrize("preset", PRESET_NAMES)
def test_builder_matches_oracle_at_presets(preset):
    # Every target of the preset's scheme, at the preset's parameters; the
    # generator keeps its sparsity (533 entries Bell, 2970 qutrit).
    pre = figure_preset(preset)
    for variant in ALL_VARIANTS:
        if variant.scheme == pre.variant.scheme:
            model = assert_matches_oracle(pre.params, variant)
            nnz = build_liouvillian(model).superop.nnz
            assert nnz == {"bell": 533, "qutrit": 2970}[variant.scheme]


# Complex drives and nonnegative rates, each sometimes exactly zero.
DRIVE = st.one_of(st.just(0j), st.complex_numbers(max_magnitude=1e9, allow_nan=False,
                                                   allow_infinity=False))
RATE = st.one_of(st.just(0.0), st.floats(0.0, 1e9))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(variant=st.sampled_from(ALL_VARIANTS), rabi=DRIVE, mw1=DRIVE, mw2=DRIVE, delta=RATE,
       urr=RATE, gamma=RATE)
def test_builder_matches_oracle_at_random_params(variant, rabi, mw1, mw2, delta, urr, gamma):
    params = ModelParams(rabi_optical=rabi, rabi_microwave_1=mw1, rabi_microwave_2=mw2,
                         detuning=delta, rydberg_U=urr, gamma=gamma)
    assert_matches_oracle(params, variant)


# Complex drives of the Fig. 8 and Fig. 9 grid magnitudes at resonant
# pumping, each with its own phase: a real Omega would hide a dropped conj.
PHASE = st.floats(-math.pi, math.pi)


@settings(max_examples=6, deadline=None, derandomize=True)
@given(variant=st.sampled_from(ALL_VARIANTS), rabi_mhz=st.floats(0.02, 0.10),
       rel1=st.floats(0.002, 0.0125), rel2=st.floats(0.002, 0.0125), phases=st.tuples(
           PHASE, PHASE, PHASE), urr_mhz=st.floats(1.0, 10.0), gamma_khz=st.floats(0.25, 2.5))
@example(variant=BELL, rabi_mhz=0.036, rel1=0.004, rel2=0.004, phases=(0.5, -1.2, 2.0),
         urr_mhz=6.87, gamma_khz=1.673)
@example(variant=BELL_T, rabi_mhz=0.036, rel1=0.004, rel2=0.004, phases=(-2.5, 0.3, 1.0),
         urr_mhz=6.87, gamma_khz=1.673)
@example(variant=QUTRIT, rabi_mhz=0.055, rel1=0.0075, rel2=0.0075, phases=(1.1, 0.4, -0.7),
         urr_mhz=4.0, gamma_khz=1.0)
@example(variant=QUTRIT_P, rabi_mhz=0.055, rel1=0.0075, rel2=0.005, phases=(-0.3, 2.9, 1.7),
         urr_mhz=4.0, gamma_khz=1.0)
def test_hermitian_by_construction(variant, rabi_mhz, rel1, rel2, phases, urr_mhz, gamma_khz):
    # Nothing in the package checks Hermiticity at run time: H, the decay
    # matrix sum c^dag c, the evolve states and both steady states are
    # exactly Hermitian as built.
    rabi = angular_mhz(rabi_mhz)
    p = ModelParams(rabi_optical=rabi * np.exp(1j * phases[0]),
                    rabi_microwave_1=rel1 * rabi * np.exp(1j * phases[1]),
                    rabi_microwave_2=rel2 * rabi * np.exp(1j * phases[2]),
                    detuning=angular_mhz(urr_mhz) / 2, rydberg_U=angular_mhz(urr_mhz),
                    gamma=decay_rate_khz(gamma_khz))
    m = build_model(p, variant)
    h = m.hamiltonian
    assert np.array_equal(h, h.conj().mT)
    assert all(c.shape == h.shape for c in m.lindblads)
    L = build_liouvillian(m)
    assert np.array_equal(L.decay, L.decay.conj().mT)
    states = evolve(L, m.initial_density("mix4" if m.dim == 9 else "mix9"),
                    np.linspace(0.0, 2e-3, 5)).states
    assert np.array_equal(states, states.conj().mT)
    for method in ("nullspace", "evolve"):
        rho = steady_state(L, method=method)
        assert np.array_equal(rho, rho.conj().mT), method


def test_records_count_the_papers_structural_claim():
    # The Bell scheme drives one optical transition per atom and has one
    # Rydberg interaction; the qutrit scheme drives three and has two.
    bell, qutrit = SCHEMES["bell"], SCHEMES["qutrit"]
    assert [len(pairs) for pairs in bell.optical] == [1, 1]
    assert len(bell.pair_shifts) == 1
    assert [len(pairs) for pairs in qutrit.optical] == [2, 1]
    assert len(qutrit.pair_shifts) == 2
    assert bell.qubits and not qutrit.qubits
    for name, variant in (("bell", BELL), ("qutrit", QUTRIT)):
        scheme = SCHEMES[name]
        la, lb = scheme.levels
        # Only U_rr set: H is U_rr on every pair shift and zero elsewhere, so
        # the one rydberg_U field sets every interaction alike.
        p = ModelParams(rabi_optical=0.0, rabi_microwave_1=0.0, detuning=0.0, rydberg_U=3.7,
                        gamma=0.0)
        want = np.zeros((len(la) * len(lb),) * 2)
        for a, b in scheme.pair_shifts:
            k = la.index(a) * len(lb) + lb.index(b)
            want[k, k] = 3.7
        assert np.array_equal(build_model(p, variant).hamiltonian, want)
        # Each branch decays at gamma / (number of ground levels of its atom):
        # gamma/2 on each of the four Bell branches, gamma/3 on the nine qutrit ones.
        assert [len(ground) for ground in scheme.ground] == {"bell": [2, 2], "qutrit": [3, 3]}[name]
        p = ModelParams(rabi_optical=1.3, rabi_microwave_1=0.7, rabi_microwave_2=0.7,
                        detuning=2.1, rydberg_U=4.2, gamma=6.0)
        jumps = build_model(p, variant).lindblads
        per_branch, branches = {"bell": (3.0, 4), "qutrit": (2.0, 9)}[name]
        assert [float(np.max(np.abs(op))) ** 2 for op in jumps] == \
            pytest.approx([per_branch] * branches, rel=1e-14)


@pytest.mark.parametrize("preset", ["fig2", "fig6-point"])
def test_model_plan_is_read_only_and_models_own_their_arrays(preset):
    # The per-scheme plan holds the identities, the jump scatter positions,
    # the named kets and the Kronecker gathers of H, all read-only; a built
    # model's jumps and kets are its own, so writing into them leaves the
    # next build unchanged.
    from rydpump.models import _plan

    pre = figure_preset(preset)
    atoms, _, (_, flat, owner), (_, kets), hams = _plan(pre.variant.scheme)
    for array in [atom[0] for atom in atoms] + [flat, owner, kets, *hams]:
        assert not array.flags.writeable
    first = build_model(pre.params, pre.variant)
    for array in list(first.lindblads) + list(first.named_states.values()):
        array[...] = 7.0
    assert_matches_oracle(pre.params, pre.variant)
