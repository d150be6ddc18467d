"""Caption overrides, measure checks and columns, steady-state points and
parameter grids of them.

Traced layers are called through their module attribute (models.build_model,
dynamics.steady_state, ...), so a tracer that replaces them sees every call.
"""

from __future__ import annotations

import inspect
import math

import numpy as np

from . import dynamics, measures, models

AXIS_NAMES = ("rabi-mhz", "microwave-rel", "delta-mhz", "urr-mhz", "gamma-khz")
SCALAR_MEASURES = ("fidelity", "chsh", "negativity")
MEASURES = ("populations", *SCALAR_MEASURES)
# A sweep grid holds at most _MAX_POINTS points; the largest figure's holds 25.
_MAX_POINTS = 10**6
_OTHER = {"microwave_rel": "microwave_mhz", "microwave_mhz": "microwave_rel"}
_CAPTION_PARAMS = tuple(inspect.signature(models.caption_params).parameters)


def override(caption: dict, key: str, value: float) -> None:
    """Set caption[key] = value in place, as a config field, a flag or a
    sweep axis does; microwave_rel and microwave_mhz drop each other."""
    caption[key] = value
    caption.pop(_OTHER.get(key), None)


def check_measures(variant: models.SchemeVariant, names) -> None:
    """Raise ValueError unless names is a non-empty list of distinct
    MEASURES that the variant's scheme defines (chsh needs a qubit scheme)."""
    if not names:
        raise ValueError(
            f"--outputs names no measure; expected a comma list of {', '.join(MEASURES)}"
        )
    for i, name in enumerate(names):
        if name not in MEASURES:
            raise ValueError(f"unknown output {name!r}; expected one of {', '.join(MEASURES)}")
        if name in names[:i]:
            raise ValueError(f"output {name!r} is given twice")
        if name == "chsh" and not variant.record.qubits:
            raise ValueError("the chsh measure is only defined for the bell scheme")


def measure_columns(model: models.SystemModel, outputs, states: np.ndarray):
    """Column names and values[n, ncol] of the requested measures over a
    stack of states (n, dim, dim)."""
    names, cols = [], []
    for name in outputs:
        if name == "populations":
            basis = model.population_basis()
            names += [f"pop_{label}" for label, _ in basis]
            cols += list(measures.populations(states, [ket for _, ket in basis]).T)
        elif name == "fidelity":
            names.append("fidelity")
            cols.append(measures.fidelity(model.state(model.variant.target_state), states))
        elif name == "chsh":
            names.append("chsh")
            # A target with a negative atom-2 microwave is read in the triplet frame.
            flip = model.variant.record.targets[model.variant.target][1] < 0
            cols.append(measures.chsh_correlation(states, triplet_frame=flip))
        elif name == "negativity":
            names.append("negativity")
            cols.append(measures.negativity(states, model.dims))
    return names, np.array(cols).T


def steady_point(caption: dict, variant: models.SchemeVariant, outputs, method: str):
    """(names, values, info) of the steady state at caption, solved by
    method ("nullspace" or "evolve"): the column names and values (ncol,)
    of the outputs measures, and steady_state's info dict."""
    model = models.build_model(models.caption_params(**caption), variant)
    rho, info = dynamics.steady_state(dynamics.build_liouvillian(model), method=method,
                                      return_info=True)
    names, values = measure_columns(model, outputs, rho[None])
    return names, values[0], info


def _point(variant, reduce: str, caption: dict, axis_values):
    """(value, "") of the reduce measure of the steady state at a copy of
    caption with each (key, value) of axis_values applied through
    override, or (nan, "{Type}: {message}") when the point fails."""
    point = dict(caption)
    for key, value in axis_values:
        override(point, key, value)
    try:
        return float(steady_point(point, variant, [reduce], "nullspace")[1][0]), ""
    except Exception as exc:  # per-point failures recorded, sweep continues
        return math.nan, f"{type(exc).__name__}: {exc}"


def sweep(caption: dict, variant: models.SchemeVariant, axes, reduce: str):
    """Steady-state reduce measure over a 1-D or 2-D grid of caption values.

    caption holds caption_params keywords (gamma_angular=True among them
    reads every point's gamma_khz as angular) and axes one or two
    (name, lo, hi, steps) specs: name in AXIS_NAMES and not repeated, lo
    and hi finite, steps an integer of at least 2, and at most _MAX_POINTS
    points in all.  reduce must pass check_measures and be one of
    SCALAR_MEASURES, and every caption key must be a caption_params
    keyword; every check runs before the first point (a caption value
    that caption_params rejects fails its points).  Each point applies
    every axis value through override: a delta_mhz or urr_mhz that
    caption holds stays put, and a leg that neither caption nor an axis
    gives follows from U_rr = 2 Delta.  Points run in row-major order.
    Returns coords (points, axes), values (points,) and one error text per
    point, "" unless it failed.
    """
    check_measures(variant, [reduce])
    for key in caption:
        if key not in _CAPTION_PARAMS:
            raise ValueError(f"unknown caption key {key!r}; expected one of "
                             f"{', '.join(_CAPTION_PARAMS)}")
    if not axes:
        raise ValueError("sweep requires at least one --axis NAME MIN MAX STEPS")
    if len(axes) > 2:
        raise ValueError("sweep supports at most two axes")
    bounds = []
    for spec in axes:
        name = spec[0]
        if name not in AXIS_NAMES:
            raise ValueError(f"unknown axis {name!r}; expected one of {', '.join(AXIS_NAMES)}")
        try:
            lo, hi = float(spec[1]), float(spec[2])
        except (TypeError, ValueError):
            raise ValueError(
                f"axis {name!r} needs numeric MIN and MAX, got {spec[1]!r} and {spec[2]!r}"
            ) from None
        try:
            steps = int(spec[3])
            if not isinstance(spec[3], str) and steps != spec[3]:
                raise ValueError  # int() truncates a fractional number
        except (TypeError, ValueError, OverflowError):
            raise ValueError(f"axis {name!r} needs an integer STEPS, got {spec[3]!r}") from None
        if steps < 2:
            raise ValueError(f"axis {name!r} needs steps >= 2, got {steps}")
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError(f"axis {name!r} needs finite MIN and MAX, got {lo} and {hi}")
        if name in (other[0] for other in axes[:len(bounds)]):
            raise ValueError(f"axis {name!r} is given twice")
        bounds.append((lo, hi, steps))
    points = math.prod(steps for _, _, steps in bounds)
    if points > _MAX_POINTS:
        sizes = ", ".join(f"{spec[0]} STEPS {steps}" for spec, (_, _, steps) in zip(axes, bounds))
        raise ValueError(f"a sweep grid holds at most {_MAX_POINTS} points, got {points}: {sizes}")
    if reduce not in SCALAR_MEASURES:
        raise ValueError(f"sweep reduce must be a scalar measure ({', '.join(SCALAR_MEASURES)})")

    keys = [spec[0].replace("-", "_") for spec in axes]
    grids = np.meshgrid(*(np.linspace(*b) for b in bounds), indexing="ij")
    coords = np.column_stack([g.ravel() for g in grids])
    # One point's caption at a time: a grid may hold _MAX_POINTS points.
    values, errors = np.empty(points), []
    for i, row in enumerate(coords):
        values[i], error = _point(variant, reduce, caption, zip(keys, row.tolist()))
        errors.append(error)
    return coords, values, errors
