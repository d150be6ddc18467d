"""Model builders for the two dissipative Rydberg-pumping schemes.

Each scheme is a record in SCHEMES; build_model derives the Hamiltonian,
the jump operators and the named states from it.

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

import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .linalg import BipartiteDims

TWO_PI = 2.0 * math.pi
# The types ModelParams takes for a real parameter (bool is an int).
_REAL_TYPES = (int, float, np.integer, np.floating)


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
    Microwave amplitudes may carry a sign or phase; the target applies its
    own sign on top (see Scheme.targets).
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
            if not (isinstance(v, _REAL_TYPES) and math.isfinite(v)) or v < 0:
                raise ValueError(f"{name} must be a finite nonnegative real, got {v!r}")
        for name in ("rabi_optical", "rabi_microwave_1", "rabi_microwave_2"):
            v = complex(getattr(self, name))
            if not (math.isfinite(v.real) and math.isfinite(v.imag)):
                raise ValueError(f"{name} must be finite, got {v!r}")


@dataclass(frozen=True)
class Scheme:
    """One pumping scheme as data; build_model derives the system from it.

    Rydberg levels are the level names starting with "r" and follow the
    ground levels.  A scheme's first target is its default.
    """

    levels: tuple            # (atom 1 levels, atom 2 levels), in basis order
    optical: tuple           # per atom, (lower, upper) couplings at Rabi frequency Omega
    pair_shifts: tuple       # (atom 1 level, atom 2 level) pairs shifted by U_rr
    microwave_2: str         # ModelParams field that drives the atom-2 microwave
    targets: dict            # target -> (named state, sign of the atom-2 microwave)
    superpositions: dict     # named state -> ((integer weight, product label), ...)
    population_basis: tuple  # named states spanning the ground manifold, for output

    @property
    def ground(self) -> tuple:
        """Ground levels of each atom."""
        return tuple(tuple(lv for lv in atom if not lv.startswith("r")) for atom in self.levels)

    @property
    def qubits(self) -> bool:
        """True when each atom's ground manifold is a qubit {|f>, |a>}, the
        space on which the CHSH measure is defined."""
        return all(len(ground) == 2 for ground in self.ground)


SCHEMES = {
    "bell": Scheme(
        levels=(("f", "a", "r"), ("f", "a", "r")),
        optical=((("f", "r"),), (("f", "r"),)),
        pair_shifts=(("r", "r"),),
        microwave_2="rabi_microwave_1",
        targets={"singlet": ("S", +1), "triplet": ("T", -1)},
        superpositions={"S": ((1, "fa"), (-1, "af")), "T": ((1, "fa"), (1, "af"))},
        # The triplet-singlet basis of the Bell ground manifold.
        population_basis=("ff", "S", "T", "aa"),
    ),
    "qutrit": Scheme(
        levels=(("f", "a", "g", "rL", "rR"), ("f", "a", "g", "r")),
        optical=((("f", "rL"), ("a", "rR")), (("g", "r"),)),
        pair_shifts=(("rL", "r"), ("rR", "r")),
        microwave_2="rabi_microwave_2",
        targets={"phi": ("phi", -1), "phi_prime": ("phi_prime", +1)},
        superpositions={
            "phi": ((1, "ff"), (1, "aa"), (1, "gg")),
            "phi_prime": ((1, "ff"), (-1, "aa"), (1, "gg")),
            "psi": ((1, "ff"), (-1, "gg")),
            "varphi": ((1, "ff"), (-2, "aa"), (1, "gg")),
        },
        # Nine states spanning the qutrit-pair ground manifold.
        population_basis=("fa", "fg", "af", "ag", "gf", "ga", "phi", "varphi", "psi"),
    ),
}


@dataclass(frozen=True)
class SchemeVariant:
    """Scheme selector plus preparation target.

    The target fixes the sign of the atom-2 microwave relative to atom 1
    (Scheme.targets; the triplet's - is a pi relative phase).  In every
    case the chosen target is the dark state of the resulting microwave
    Hamiltonian.
    """

    scheme: str
    target: str

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}; expected 'bell' or 'qutrit'")
        if self.target not in self.record.targets:
            raise ValueError(
                f"target {self.target!r} invalid for scheme {self.scheme!r}; "
                f"expected one of {tuple(self.record.targets)}"
            )

    @property
    def record(self) -> Scheme:
        """The scheme's record in SCHEMES."""
        return SCHEMES[self.scheme]

    @property
    def target_state(self) -> str:
        """Key of the target state in SystemModel.named_states."""
        return self.record.targets[self.target][0]


@dataclass(frozen=True)
class SystemModel:
    """A fully assembled two-atom open system.

    hamiltonian is Hermitian with side dims.dimA * dims.dimB; lindblads is
    a sequence of jump operators of the same side, which build_model gives
    as one complex (k, side, side) stack; named_states maps state names to
    unit kets.
    """

    dims: BipartiteDims
    hamiltonian: np.ndarray
    lindblads: Sequence[np.ndarray]
    named_states: dict
    variant: SchemeVariant

    @property
    def dim(self) -> int:
        return self.dims.dimA * self.dims.dimB

    def state(self, name: str) -> np.ndarray:
        """Named unit ket.  Also accepts the scheme's target names (with '-'
        for '_'), each naming its target state."""
        target = self.variant.record.targets.get(name.replace("-", "_"))
        key = target[0] if target else name
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
            if name != f"mix{len(basis)}":
                raise ValueError(f"initial state {name!r} not defined for this scheme")
            return sum(np.outer(v, v.conj()) for _, v in basis) / len(basis)
        v = self.state(name)
        return np.outer(v, v.conj())

    def population_basis(self) -> list:
        """(name, ket) pairs of the scheme's ground-manifold basis."""
        return [(n, self.named_states[n]) for n in self.variant.record.population_basis]


@functools.lru_cache(maxsize=None)
def _plan(name: str) -> tuple:
    """What build_model needs of a scheme that no parameter value changes,
    all read-only: per atom its identity and the indices of its microwave
    pairs, optical pairs, ground levels and Rydberg levels; the two-atom
    diagonal indices that U_rr shifts; the jump operators' shape, the flat
    positions of their nonzero entries in one (k, d, d) stack and the atom
    of each; the names of the named kets and the kets, one per row,
    checked unit norm; and the gathers of kron(h1, I) + kron(I, h2): the
    flat positions in h1 and in h2 that each entry reads, and the entries
    of the identities each is multiplied by."""
    scheme = SCHEMES[name]
    atoms = []
    for levels, ground, optical in zip(scheme.levels, scheme.ground, scheme.optical):
        g = tuple(map(levels.index, ground))
        pairs = tuple((levels.index(lower), levels.index(upper)) for lower, upper in optical)
        atoms.append((np.eye(len(levels), dtype=complex), tuple(zip(g, g[1:])), pairs, g,
                      tuple(i for i in range(len(levels)) if i not in g)))
    la, lb = scheme.levels
    side = len(la) * len(lb)
    shifts = tuple(la.index(a) * len(lb) + lb.index(b) for a, b in scheme.pair_shifts)
    # Each jump |g><r| of one atom, in build_model's order, as a unit
    # Kronecker product with the other atom's identity.
    (eye_a, *_), (eye_b, *_) = atoms
    units, owner = [], []
    for n, (eye, _, _, ground, rydberg) in enumerate(atoms):
        for r in rydberg:
            for g in ground:
                jump = np.zeros(eye.shape)
                jump[g, r] = 1.0
                units.append(np.kron(jump, eye_b) if n == 0 else np.kron(eye_a, jump))
                owner.append(n)
    flat = np.flatnonzero(np.array(units))
    jumps = ((len(units), side, side), flat, np.array(owner, dtype=np.intp)[flat // side**2])
    # Entry (i*nb + k, j*nb + l) of the Kronecker products.
    i, k, j, l = np.indices((len(la), len(lb), len(la), len(lb))).reshape(4, side, side)
    hams = (i * len(la) + j, eye_b[k, l], eye_a[i, j], k * len(lb) + l)
    # Product kets |la lb> are the rows of the identity, in kron order.
    kets = dict(zip([a + b for a in la for b in lb], np.eye(side, dtype=complex)))
    for state, terms in scheme.superpositions.items():
        ket = sum(w * kets[label] for w, label in terms)
        kets[state] = ket / math.sqrt(sum(w * w for w, _ in terms))
    names, rows = tuple(kets), np.array(list(kets.values()))
    if np.abs(np.linalg.norm(rows, axis=1) - 1.0).max() > 1e-12:
        raise AssertionError("named state is not unit norm")
    for array in [atom[0] for atom in atoms] + list(jumps[1:]) + [rows, *hams]:
        array.flags.writeable = False
    return tuple(atoms), shifts, jumps, (names, rows), hams


def build_model(params: ModelParams, variant: SchemeVariant) -> SystemModel:
    """Assemble the two-atom system of variant's scheme from its record.

    H = H1 (x) I2 + I1 (x) H2 + U_rr (sum of |ab><ab| over the pair shifts).
    The single-atom H_j holds omega_j/2 on each pair of consecutive ground
    levels and Omega/2 on each optical pair above the diagonal, their
    conjugates below it, and -Delta on each Rydberg level; omega_2 carries
    the target's sign.  Each Rydberg level r decays to each ground level g
    of its atom through sqrt(gamma/n) |g><r|, n the atom's number of ground
    levels; the jump operators come atom by atom, then by r, then by g, in
    one (k, side, side) stack.
    H is exactly Hermitian and every jump has its side by construction.
    """
    scheme = variant.record
    atoms, shifts, (shape, flat, owner), (names, kets), (at_1, eye_2, eye_1, at_2) = \
        _plan(variant.scheme)
    sign = scheme.targets[variant.target][1]
    microwaves = (complex(params.rabi_microwave_1),
                  sign * complex(getattr(params, scheme.microwave_2)))
    big_o = complex(params.rabi_optical)

    singles = []
    for (eye, microwave, optical, _, rydberg), om in zip(atoms, microwaves):
        h = np.zeros(eye.shape, dtype=complex)
        for pairs, amp in ((microwave, om), (optical, big_o)):
            for i, j in pairs:
                h[i, j] = amp / 2.0
                h[j, i] = amp.conjugate() / 2.0
        for r in rydberg:
            h[r, r] = -params.detuning
        singles.append(h)
    # kron(h1, I) + kron(I, h2), each entry the product that kron forms.
    h1, h2 = singles
    ham = h1.take(at_1) * eye_2 + eye_1 * h2.take(at_2)
    for k in shifts:
        ham[k, k] += params.rydberg_U

    # One scatter fills every jump, each entry sqrt(gamma/n) of its atom.
    jumps = np.zeros(shape, dtype=complex)
    amps = np.array([math.sqrt(params.gamma / len(ground)) for _, _, _, ground, _ in atoms])
    jumps.put(flat, amps.take(owner))

    return SystemModel(
        dims=BipartiteDims(len(h1), len(h2)),
        hamiltonian=ham,
        lindblads=jumps,
        named_states=dict(zip(names, kets.copy())),
        variant=variant,
    )


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

    delta = angular_mhz(delta_mhz) if delta_mhz is not None else None
    urr = angular_mhz(urr_mhz) if urr_mhz is not None else None
    if delta is None:
        delta = 0.0 if urr is None else urr / 2.0
    if urr is None:
        urr = 2.0 * delta

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
