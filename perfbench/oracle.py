"""Independent dense reference for the benchmark's output checks.

The only thing taken from the package under test is the model: its
Hamiltonian and jump operators from `rydpump.models.build_model`.  The
generator, the steady state, the propagation and every measure are
rebuilt here from their textbook formulas with dense numpy arrays, so a
defect in the package's own Liouvillian, solvers or measures shows up as
a deviation.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg

from rydpump import models

# Largest accepted |program - oracle| for any reported measure.  Every
# measure is O(1); the dense SVD and the package's solver agree to about
# 1e-12, and 1e-6 leaves room for a future solver with a looser but still
# physical residual without hiding a wrong answer.
TOLERANCE = 1e-6

# Reference values of the source paper's operating points, at the
# precision they are quoted.
REFERENCE_VALUES = (
    ("fig2", "fidelity", 0.998862, 5e-7),
    ("fig2", "chsh", 2.8242, 5e-5),
    ("fig6-point", "negativity", 0.997026, 5e-7),
)

_LEVELS = {"bell": (("f", "a", "r"), ("f", "a", "r")),
           "qutrit": (("f", "a", "g", "rL", "rR"), ("f", "a", "g", "r"))}


def liouvillian(h: np.ndarray, jumps) -> np.ndarray:
    """Dense generator on column-stacked states, vec(A X B) = (B^T kron A) vec(X)."""
    d = h.shape[0]
    eye = np.eye(d)
    gen = -1j * (np.kron(eye, h) - np.kron(h.T, eye))
    for c in jumps:
        cdc = c.conj().T @ c
        gen = gen + np.kron(c.conj(), c) - 0.5 * np.kron(eye, cdc) - 0.5 * np.kron(cdc.T, eye)
    return gen


def _to_density(v: np.ndarray, d: int) -> np.ndarray:
    rho = v.reshape((d, d), order="F")
    rho = (rho + rho.conj().T) / 2
    return rho / np.trace(rho).real


def steady_state(h: np.ndarray, jumps) -> np.ndarray:
    """Unit-trace state spanned by the right singular vector of the smallest singular value."""
    _, _, vh = np.linalg.svd(liouvillian(h, jumps))
    return _to_density(vh[-1].conj(), h.shape[0])


def evolve_at(h: np.ndarray, jumps, rho0: np.ndarray, times) -> list:
    """States expm(L t) rho0 at each time, each propagated directly from t = 0."""
    gen = liouvillian(h, jumps)
    v0 = rho0.reshape(-1, order="F")
    return [_to_density(scipy.linalg.expm(gen * t) @ v0, h.shape[0]) for t in times]


def kets(scheme: str) -> dict:
    """Product kets '<level1><level2>' plus the scheme's entangled targets."""
    la, lb = _LEVELS[scheme]
    d = len(la) * len(lb)
    out = {}
    for i, a in enumerate(la):
        for j, b in enumerate(lb):
            v = np.zeros(d, dtype=complex)
            v[i * len(lb) + j] = 1.0
            out[a + b] = v
    if scheme == "bell":
        out["S"] = (out["fa"] - out["af"]) / math.sqrt(2)
        out["T"] = (out["fa"] + out["af"]) / math.sqrt(2)
    else:
        ff, aa, gg = out["ff"], out["aa"], out["gg"]
        out["phi"] = (ff + aa + gg) / math.sqrt(3)
        out["phi_prime"] = (ff - aa + gg) / math.sqrt(3)
        out["varphi"] = (ff - 2 * aa + gg) / math.sqrt(6)
        out["psi"] = (ff - gg) / math.sqrt(2)
    return out


POPULATION_BASIS = {
    "bell": ("ff", "S", "T", "aa"),
    "qutrit": ("fa", "fg", "af", "ag", "gf", "ga", "phi", "varphi", "psi"),
}

TARGET_KET = {"singlet": "S", "triplet": "T", "phi": "phi", "phi_prime": "phi_prime"}


def initial_density(scheme: str, name: str) -> np.ndarray:
    """'mix4' / 'mix9': uniform mixture of the population basis; else a pure named state."""
    k = kets(scheme)
    names = POPULATION_BASIS[scheme] if name in ("mix4", "mix9") else (name,)
    return sum(np.outer(k[n], k[n].conj()) for n in names) / len(names)


def fidelity(psi: np.ndarray, rho: np.ndarray) -> float:
    return float(np.real(psi.conj() @ rho @ psi))


def populations(rho: np.ndarray, scheme: str) -> list:
    k = kets(scheme)
    return [fidelity(k[n], rho) for n in POPULATION_BASIS[scheme]]


def chsh(rho: np.ndarray, triplet_frame: bool = False) -> float:
    """E(A1,B1) + E(A2,B1) + E(A2,B2) - E(A1,B2) on the {f, a} qubit of each atom.

    A1 = sigma_y, A2 = sigma_x, B1 = -(sigma_y + sigma_x)/sqrt(2),
    B2 = (sigma_y - sigma_x)/sqrt(2); the triplet frame conjugates the
    atom-2 settings by sigma_z.  The correlators only see the ground-qubit
    block of rho, since the operators vanish on |r>.
    """
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]])
    sz = np.diag([1.0, -1.0])
    b1 = -(sy + sx) / math.sqrt(2)
    b2 = (sy - sx) / math.sqrt(2)
    if triplet_frame:
        b1, b2 = sz @ b1 @ sz, sz @ b2 @ sz
    ground = [0, 1, 3, 4]  # ff, fa, af, aa in the 3x3 product basis
    block = rho[np.ix_(ground, ground)]

    def corr(a, b):
        return np.real(np.trace(np.kron(a, b) @ block))

    return float(corr(sy, b1) + corr(sx, b1) + corr(sx, b2) - corr(sy, b2))


def negativity(rho: np.ndarray, da: int, db: int) -> float:
    """Sum of |negative eigenvalues| of the partial transpose on atom 1."""
    pt = np.empty_like(rho)
    for i in range(da):
        for j in range(da):
            pt[i * db:(i + 1) * db, j * db:(j + 1) * db] = rho[j * db:(j + 1) * db, i * db:(i + 1) * db]
    lam = np.linalg.eigvalsh(pt)
    return float(-np.sum(lam[lam < 0]))


def measure(name: str, rho: np.ndarray, model) -> list:
    """Oracle values of one CLI output, in its column order."""
    scheme, target = model.variant.scheme, model.variant.target
    if name == "populations":
        return populations(rho, scheme)
    if name == "fidelity":
        return [fidelity(kets(scheme)[TARGET_KET[target]], rho)]
    if name == "chsh":
        return [chsh(rho, triplet_frame=target == "triplet")]
    if name == "negativity":
        la, lb = _LEVELS[scheme]
        return [negativity(rho, len(la), len(lb))]
    raise ValueError(f"no oracle for measure {name!r}")


def preset_model(preset: str, overrides: dict | None = None):
    """build_model at a preset's caption values with caption-unit overrides
    applied; an override of None removes the preset's value."""
    spec = models.preset_caption(preset)
    variant = models.SchemeVariant(scheme=spec.pop("scheme"), target=spec.pop("target"))
    spec.pop("initial")
    for key, value in (overrides or {}).items():
        if value is None:
            spec.pop(key, None)
        else:
            spec[key] = value
    return models.build_model(models.caption_params(**spec), variant)


def reference_deviations() -> list:
    """(preset, measure, oracle value, quoted value, allowed) for each reference value."""
    out = []
    for preset, name, quoted, allowed in REFERENCE_VALUES:
        model = preset_model(preset)
        rho = steady_state(model.hamiltonian, model.lindblads)
        out.append((preset, name, measure(name, rho, model)[0], quoted, allowed))
    return out
