"""Model builders for the two dissipative Rydberg-pumping schemes.

Bell scheme
    Two atoms with ground states |f>, |a> and one Rydberg state |r> each
    (basis order f, a, r).  An optical field drives |f> -> |r> with Rabi
    frequency Omega and detuning -Delta; a microwave couples |f> <-> |a>
    with Rabi frequency omega.  A single Rydberg interaction U_rr shifts
    |rr>; choosing U_rr = 2*Delta makes |ff> -> |rr> resonant (Rydberg
    pumping).  Spontaneous emission |r> -> |f>, |a> at rate gamma/2 per
    branch pumps the system into the microwave dark state: the singlet
    |S> = (|fa> - |af>)/sqrt(2), or the triplet |T> with a pi relative
    phase on the atom-2 microwave.

Qutrit scheme
    Atom 1 has ground states |f>, |a>, |g> and Rydberg states |rL>, |rR>
    (basis order f, a, g, rL, rR); atom 2 has |f>, |a>, |g>, |r>.  The
    optical field drives f->rL and a->rR on atom 1 and g->r on atom 2,
    all with Rabi frequency Omega and detuning -Delta.  Two equal Rydberg
    interactions U_rr shift |rL r> and |rR r>, making |fg> -> |rL r> and
    |ag> -> |rR r> resonant at U_rr = 2*Delta.  Microwave chains
    f<->a<->g on both atoms (amplitudes omega_1, omega_2) make
    |phi> = (|ff> + |aa> + |gg>)/sqrt(3) dark for omega_2 = -omega_1, or
    |phi'> = (|ff> - |aa> + |gg>)/sqrt(3) dark for omega_2 = +omega_1.
    Each Rydberg state decays to the three ground states at gamma/3 per
    branch.

Unit conventions
    All frequencies in ModelParams are angular (rad/s); gamma is a plain
    rate (1/s).  Helper constructors accept the "/2pi MHz" values used
    when quoting such parameters (X/2pi = v MHz  ->  X = 2*pi*v*1e6) and
    gamma in kHz.  A quoted "gamma = v kHz" is read as the plain rate
    v*1e3 by default; pass gamma_angular=True to read it as 2*pi*v*1e3
    instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .linalg import BipartiteDims, hermiticity_defect, kron

TWO_PI = 2.0 * math.pi

BELL_LEVELS = ("f", "a", "r")
QUTRIT_LEVELS_A = ("f", "a", "g", "rL", "rR")
QUTRIT_LEVELS_B = ("f", "a", "g", "r")

# Population bases used for time-series output: the triplet-singlet basis of
# the Bell ground manifold and the nine-state basis spanning the qutrit-pair
# ground manifold.
BELL_POPULATION_BASIS = ("ff", "S", "T", "aa")
QUTRIT_POPULATION_BASIS = ("fa", "fg", "af", "ag", "gf", "ga", "phi", "varphi", "psi")


def angular_mhz(value_mhz: float) -> float:
    """Convert a quoted 'X/2pi = v MHz' to the angular frequency X in rad/s."""
    return TWO_PI * value_mhz * 1e6


def decay_rate_khz(value_khz: float, angular: bool = False) -> float:
    """Convert a quoted 'gamma = v kHz' to a rate in 1/s.

    Plain-rate reading by default; angular=True multiplies by 2*pi.
    """
    rate = value_khz * 1e3
    return TWO_PI * rate if angular else rate


@dataclass(frozen=True)
class ModelParams:
    """Physical parameters of either scheme, in angular units (rad/s; gamma 1/s).

    rabi_microwave_1 drives atom 1; rabi_microwave_2 drives atom 2 in the
    qutrit scheme (the Bell scheme uses rabi_microwave_1 for both atoms).
    Microwave amplitudes may carry a sign or phase; the scheme variant
    applies its own sign pattern on top (see SchemeVariant).
    """

    rabi_optical: complex        # Omega
    rabi_microwave_1: complex    # omega (Bell) or omega_1 (qutrit)
    detuning: float              # Delta >= 0
    rydberg_U: float             # U_rr >= 0
    gamma: float                 # decay rate, 1/s
    rabi_microwave_2: complex = 0.0  # omega_2; unused by the Bell scheme

    def __post_init__(self):
        for name in ("detuning", "rydberg_U", "gamma"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v)) or v < 0:
                raise ValueError(f"{name} must be a finite nonnegative real, got {v!r}")
        for name in ("rabi_optical", "rabi_microwave_1", "rabi_microwave_2"):
            v = complex(getattr(self, name))
            if not (math.isfinite(v.real) and math.isfinite(v.imag)):
                raise ValueError(f"{name} must be finite, got {v!r}")

    @property
    def is_resonant_pumping(self) -> bool:
        """True when U_rr = 2*Delta within 1e-9 relative (resonant pumping)."""
        return abs(self.rydberg_U - 2.0 * self.detuning) <= 1e-9 * max(self.detuning, 1.0)


_VALID_TARGETS = {"bell": ("singlet", "triplet"), "qutrit": ("phi", "phi_prime")}

# Named-state key of each preparation target.
_TARGET_STATE = {"singlet": "S", "triplet": "T", "phi": "phi", "phi_prime": "phi_prime"}


@dataclass(frozen=True)
class SchemeVariant:
    """Scheme selector plus microwave phase pattern.

    The target fixes the sign of the atom-2 microwave relative to atom 1:
    + for singlet, - for triplet (a pi relative phase), - for phi, and
    + for phi_prime.  In every case the chosen target is the dark state
    of the resulting microwave Hamiltonian.
    """

    scheme: str
    target: str

    def __post_init__(self):
        if self.scheme not in _VALID_TARGETS:
            raise ValueError(f"unknown scheme {self.scheme!r}; expected 'bell' or 'qutrit'")
        if self.target not in _VALID_TARGETS[self.scheme]:
            raise ValueError(
                f"target {self.target!r} invalid for scheme {self.scheme!r}; "
                f"expected one of {_VALID_TARGETS[self.scheme]}"
            )

    @property
    def atom2_microwave_sign(self) -> int:
        return +1 if self.target in ("singlet", "phi_prime") else -1

    @property
    def target_state(self) -> str:
        """Key of the target state in SystemModel.named_states."""
        return _TARGET_STATE[self.target]


@dataclass(frozen=True)
class SystemModel:
    """A fully assembled two-atom open system.

    hamiltonian is Hermitian with side dims.dimA * dims.dimB; every Lindblad
    operator has the same side; named_states maps state names to unit kets.
    """

    dims: BipartiteDims
    hamiltonian: np.ndarray
    lindblads: tuple
    basis_labels: tuple
    named_states: dict
    variant: SchemeVariant
    params: ModelParams

    @property
    def dim(self) -> int:
        return self.dims.dimA * self.dims.dimB

    def state(self, name: str) -> np.ndarray:
        """Named unit ket.  Accepts the aliases singlet/triplet/ground-ff."""
        key = _STATE_ALIASES.get(name, name)
        try:
            return self.named_states[key]
        except KeyError:
            raise KeyError(
                f"unknown state {name!r}; known: {sorted(self.named_states)}"
            ) from None

    def initial_density(self, name: str) -> np.ndarray:
        """Initial density matrix from a state id.

        Any named state gives the corresponding pure state; 'mix4' (Bell)
        and 'mix9' (qutrit) give the uniform mixture over the population
        basis of the scheme.
        """
        if name in ("mix4", "mix9"):
            basis = self.population_basis()
            want = 4 if name == "mix4" else 9
            if len(basis) != want:
                raise ValueError(f"initial state {name!r} not defined for this scheme")
            return sum(np.outer(v, v.conj()) for _, v in basis) / len(basis)
        v = self.state(name)
        return np.outer(v, v.conj())

    def population_basis(self) -> list:
        """(name, ket) pairs of the scheme's ground-manifold basis."""
        names = BELL_POPULATION_BASIS if self.variant.scheme == "bell" else QUTRIT_POPULATION_BASIS
        return [(n, self.named_states[n]) for n in names]


_STATE_ALIASES = {
    "singlet": "S",
    "triplet": "T",
    "ground-ff": "ff",
    "phi-prime": "phi_prime",
}


def _product_states(labels_a, labels_b) -> dict:
    """Product kets |la lb>: the rows of the identity, in kron order, each
    its own copy."""
    eye = np.eye(len(labels_a) * len(labels_b), dtype=complex)
    labels = [f"{la}{lb}" for la in labels_a for lb in labels_b]
    return {label: row.copy() for label, row in zip(labels, eye)}


def _check_model(model: SystemModel) -> SystemModel:
    defect = hermiticity_defect(model.hamiltonian)
    scale = max(float(np.max(np.abs(model.hamiltonian))), np.finfo(float).tiny)
    if defect > 1e-12 * scale:
        raise AssertionError(f"assembled Hamiltonian not Hermitian (defect {defect:.2e})")
    side = model.hamiltonian.shape[0]
    if any(op.shape != (side, side) for op in model.lindblads):
        raise AssertionError("jump operator side differs from the Hamiltonian")
    norms = np.linalg.norm(np.array(list(model.named_states.values())), axis=1)
    if np.abs(norms - 1.0).max() > 1e-12:
        raise AssertionError("named state is not unit norm")
    return model


def build_bell_model(params: ModelParams, variant: SchemeVariant) -> SystemModel:
    """Assemble the 9-level Bell-scheme system.

    H = H1 (x) I2 + I1 (x) H2 + U_rr |rr><rr| with the single-atom matrix
    (basis f, a, r)

        [[0,        omega/2, Omega/2],
         [omega*/2, 0,       0      ],
         [Omega*/2, 0,       -Delta ]]

    and four Lindblad operators sqrt(gamma/2) |f><r|, sqrt(gamma/2) |a><r|
    on each atom.  The triplet variant flips the sign of the atom-2
    microwave amplitude.
    """
    if variant.scheme != "bell":
        raise ValueError(f"build_bell_model requires scheme 'bell', got {variant.scheme!r}")
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
    ham = kron(single_atom(omega), eye3) + kron(eye3, single_atom(variant.atom2_microwave_sign * omega))
    rr = 2 * 3 + 2
    ham[rr, rr] += params.rydberg_U

    amp = math.sqrt(params.gamma / 2.0)
    lindblads = []
    for atom in (0, 1):
        for ground in (0, 1):  # f, a
            jump = np.zeros((3, 3), dtype=complex)
            jump[ground, 2] = amp
            lindblads.append(kron(jump, eye3) if atom == 0 else kron(eye3, jump))

    states = _product_states(BELL_LEVELS, BELL_LEVELS)
    states["S"] = (states["fa"] - states["af"]) / math.sqrt(2.0)
    states["T"] = (states["fa"] + states["af"]) / math.sqrt(2.0)

    return _check_model(
        SystemModel(
            dims=BipartiteDims(3, 3),
            hamiltonian=ham,
            lindblads=tuple(lindblads),
            basis_labels=(BELL_LEVELS, BELL_LEVELS),
            named_states=states,
            variant=variant,
            params=params,
        )
    )


def build_qutrit_model(params: ModelParams, variant: SchemeVariant) -> SystemModel:
    """Assemble the 20-level qutrit-scheme system.

    Atom 1 (basis f, a, g, rL, rR) carries microwave chain f<->a<->g with
    amplitude omega_1 and optical couplings f->rL, a->rR; atom 2 (basis
    f, a, g, r) carries the same chain with amplitude +/- omega_2 and
    optical coupling g->r.  Both Rydberg interactions carry the same
    strength U_rr; nine Lindblad operators sqrt(gamma/3) (ground><Rydberg)
    describe the decay.
    """
    if variant.scheme != "qutrit":
        raise ValueError(f"build_qutrit_model requires scheme 'qutrit', got {variant.scheme!r}")
    om1 = complex(params.rabi_microwave_1)
    om2 = variant.atom2_microwave_sign * complex(params.rabi_microwave_2)
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
    ham = kron(h1, eye4) + kron(eye5, h2)
    for rydberg_1 in (3, 4):  # |rL r>, |rR r> shifted by the same U_rr
        idx = rydberg_1 * 4 + 3
        ham[idx, idx] += params.rydberg_U

    amp = math.sqrt(params.gamma / 3.0)
    lindblads = []
    for rydberg_1 in (3, 4):
        for ground in (0, 1, 2):
            jump = np.zeros((5, 5), dtype=complex)
            jump[ground, rydberg_1] = amp
            lindblads.append(kron(jump, eye4))
    for ground in (0, 1, 2):
        jump = np.zeros((4, 4), dtype=complex)
        jump[ground, 3] = amp
        lindblads.append(kron(eye5, jump))

    states = _product_states(QUTRIT_LEVELS_A, QUTRIT_LEVELS_B)
    ff, aa, gg = states["ff"], states["aa"], states["gg"]
    states["phi"] = (ff + aa + gg) / math.sqrt(3.0)
    states["phi_prime"] = (ff - aa + gg) / math.sqrt(3.0)
    states["psi"] = (ff - gg) / math.sqrt(2.0)
    states["varphi"] = (ff - 2.0 * aa + gg) / math.sqrt(6.0)

    return _check_model(
        SystemModel(
            dims=BipartiteDims(5, 4),
            hamiltonian=ham,
            lindblads=tuple(lindblads),
            basis_labels=(QUTRIT_LEVELS_A, QUTRIT_LEVELS_B),
            named_states=states,
            variant=variant,
            params=params,
        )
    )


def build_model(params: ModelParams, variant: SchemeVariant) -> SystemModel:
    """Dispatch to the builder matching variant.scheme."""
    if variant.scheme == "bell":
        return build_bell_model(params, variant)
    return build_qutrit_model(params, variant)


def caption_params(
    *,
    rabi_mhz: float = 0.0,
    microwave_rel: float | None = None,
    microwave_mhz: float | None = None,
    microwave2_mhz: float | None = None,
    delta_mhz: float | None = None,
    urr_mhz: float | None = None,
    gamma_khz: float = 0.0,
    gamma_angular: bool = False,
) -> ModelParams:
    """Build ModelParams from caption-style units.

    Frequencies are "/2pi MHz" values; gamma is in kHz (plain rate unless
    gamma_angular).  The microwave amplitude is given either relative to
    Omega (microwave_rel) or absolutely (microwave_mhz); atom 2 defaults
    to the same magnitude unless microwave2_mhz is given.  When only one
    of delta_mhz / urr_mhz is given the other follows from U_rr = 2*Delta;
    when neither is given both are zero.
    """
    if microwave_rel is not None and microwave_mhz is not None:
        raise ValueError("give either microwave_rel or microwave_mhz, not both")
    rabi = angular_mhz(rabi_mhz)
    if microwave_mhz is not None:
        mw1 = angular_mhz(microwave_mhz)
    elif microwave_rel is not None:
        mw1 = microwave_rel * rabi
    else:
        mw1 = 0.0
    mw2 = angular_mhz(microwave2_mhz) if microwave2_mhz is not None else mw1

    if delta_mhz is None and urr_mhz is None:
        delta, urr = 0.0, 0.0
    elif delta_mhz is None:
        urr = angular_mhz(urr_mhz)
        delta = urr / 2.0
    elif urr_mhz is None:
        delta = angular_mhz(delta_mhz)
        urr = 2.0 * delta
    else:
        delta = angular_mhz(delta_mhz)
        urr = angular_mhz(urr_mhz)

    return ModelParams(
        rabi_optical=rabi,
        rabi_microwave_1=mw1,
        rabi_microwave_2=mw2,
        detuning=delta,
        rydberg_U=urr,
        gamma=decay_rate_khz(gamma_khz, angular=gamma_angular),
    )


class Preset(NamedTuple):
    """Operating point of one benchmark figure."""

    params: ModelParams
    variant: SchemeVariant
    initial_state: str


@dataclass(frozen=True)
class Figure:
    """One benchmark figure: its operating point, the defaults of an
    `evolve` run from it, and the data `rydpump reproduce` writes for it.

    caption holds caption_params keywords.  reproduce writes a steady-state
    grid over axes ((name, lo, hi, steps) in CLI axis names) reduced to
    the reduce measure, or, without axes, the evolve time series.
    """

    name: str
    scheme: str
    target: str
    initial: str
    caption: dict
    t_max_ms: float = 100.0
    samples: int = 101
    output: str = "populations"
    axes: tuple = ()
    reduce: str = "fidelity"
    reproduce: str = ""  # reproduce name when it differs from the preset name


_FIG2 = dict(rabi_mhz=0.036, microwave_rel=0.004, delta_mhz=3.435, gamma_khz=1.673)
_FIG5 = dict(rabi_mhz=0.055, microwave_rel=0.0075, delta_mhz=2.0, gamma_khz=1.0)
_FIG8 = dict(rabi_mhz=0.036, microwave_rel=0.004, urr_mhz=4.0, gamma_khz=1.0)
_FIG9 = dict(rabi_mhz=0.055, microwave_rel=0.0075, urr_mhz=6.0, gamma_khz=1.0)
_URR_LINE = (("urr-mhz", 1.0, 8.0, 15),)
_URR_GAMMA = (("urr-mhz", 1.0, 8.0, 5), ("gamma-khz", 0.5, 2.5, 5))
_DRIVES_BELL = (("rabi-mhz", 0.02, 0.10, 5), ("microwave-rel", 0.002, 0.010, 5))
_DRIVES_QUTRIT = (("rabi-mhz", 0.03, 0.08, 5), ("microwave-rel", 0.0025, 0.0125, 5))

# Sweep-style figures (fig2, fig5, fig6, fig8*, fig9*) carry the nominal
# point of the figure as their operating point.
FIGURES = {
    f.name: f
    for f in (
        Figure("fig2", "bell", "singlet", "ff", _FIG2, axes=_URR_LINE),
        Figure("fig2-inset", "bell", "singlet", "mix4", _FIG2, t_max_ms=300.0, samples=301),
        Figure("fig3", "bell", "singlet", "mix4", _FIG2, t_max_ms=300.0, samples=301,
               output="chsh"),
        Figure("fig5", "qutrit", "phi", "mix9", _FIG5, axes=_URR_LINE),
        Figure("fig5-inset", "qutrit", "phi", "mix9", _FIG5, t_max_ms=200.0, samples=401),
        Figure("fig6-point", "qutrit", "phi", "mix9",
               dict(_FIG5, delta_mhz=4.8705, gamma_khz=1.033),
               axes=(("urr-mhz", 1.0, 10.0, 5), ("gamma-khz", 0.25, 2.5, 5)),
               reduce="negativity", reproduce="fig6"),
        Figure("fig8a", "bell", "singlet", "ff", _FIG8, axes=_DRIVES_BELL),
        Figure("fig8b", "bell", "singlet", "ff", _FIG2, axes=_URR_GAMMA),
        Figure("fig8c", "bell", "singlet", "ff", _FIG8, axes=_DRIVES_BELL, reduce="chsh"),
        Figure("fig8d", "bell", "singlet", "ff", _FIG2, axes=_URR_GAMMA, reduce="chsh"),
        Figure("fig9a", "qutrit", "phi", "mix9", _FIG9, axes=_DRIVES_QUTRIT),
        Figure("fig9b", "qutrit", "phi", "mix9", dict(_FIG9, urr_mhz=4.0), axes=_URR_GAMMA),
        Figure("fig9c", "qutrit", "phi", "mix9", _FIG9, axes=_DRIVES_QUTRIT,
               reduce="negativity"),
    )
}

PRESET_NAMES = tuple(sorted(FIGURES))


def find_figure(name: str) -> Figure:
    """The Figure record of a preset name."""
    try:
        return FIGURES[name]
    except KeyError:
        raise ValueError(
            f"unknown preset {name!r}; valid presets: {', '.join(PRESET_NAMES)}"
        ) from None


def figure_preset(name: str, gamma_angular: bool = False) -> Preset:
    """Parameter set, scheme variant and initial state of a benchmark figure."""
    fig = find_figure(name)
    return Preset(
        params=caption_params(gamma_angular=gamma_angular, **fig.caption),
        variant=SchemeVariant(scheme=fig.scheme, target=fig.target),
        initial_state=fig.initial,
    )


def preset_caption(name: str) -> dict:
    """Raw caption-unit values of a preset (for re-serialization checks)."""
    fig = find_figure(name)
    return dict(scheme=fig.scheme, target=fig.target, initial=fig.initial, **fig.caption)
