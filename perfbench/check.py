"""Checks of the CLI output of one workload against the oracle.

An item (grid point or time sample) fails when its row is missing or
malformed, its coordinate is not the requested one, its `error` column is
non-empty, its value is not finite, or, for the seeded sample of rows
checked against the oracle, its value misses the oracle by more than
`oracle.TOLERANCE`.
"""

from __future__ import annotations

import csv
import io
import math
import random
from dataclasses import dataclass

import numpy as np

import oracle
from workloads import items_of


@dataclass(frozen=True)
class Spec:
    """What one argv asks for, read back from the argv itself."""

    kind: str
    preset: str
    measure: str
    axes: tuple = ()          # sweep: (name, lo, hi, steps)
    t_max_ms: float = 0.0     # evolve
    samples: int = 0


def parse_argv(argv: list) -> Spec:
    def flag(name):
        return argv[argv.index(name) + 1]

    if argv[0] == "sweep":
        axes = tuple((argv[i + 1], float(argv[i + 2]), float(argv[i + 3]), int(argv[i + 4]))
                     for i, tok in enumerate(argv) if tok == "--axis")
        return Spec("sweep", flag("--preset"), flag("--reduce"), axes=axes)
    return Spec("evolve", flag("--preset"), flag("--outputs"),
                t_max_ms=float(flag("--t-max-ms")), samples=int(flag("--samples")))


def _grid_point(spec: Spec, row: int) -> list:
    """Axis values of a row of the row-major grid."""
    coords = []
    for _, lo, hi, steps in reversed(spec.axes):
        row, k = divmod(row, steps)
        coords.append(float(np.linspace(lo, hi, steps)[k]))
    return coords[::-1]


def _caption_overrides(spec: Spec, coords: list) -> dict:
    """Caption-unit values of a grid point; U_rr = 2*Delta follows the swept leg."""
    over = {}
    for (axis, *_), value in zip(spec.axes, coords):
        over[axis.replace("-", "_")] = value
        if axis == "urr-mhz":
            over["delta_mhz"] = None
        elif axis == "delta-mhz":
            over["urr_mhz"] = None
    return over


def sample_rows(argv: list, seed: int, k: int) -> list:
    """Seeded rows to check against the oracle (an evolve sample always includes the last row)."""
    n = items_of(argv)
    rng = random.Random(f"perfbench-check:{int(seed)}")
    rows = set(rng.sample(range(n), min(k, n)))
    if argv[0] == "evolve":
        rows.add(n - 1)
    return sorted(rows)


def oracle_rows(spec: Spec, rows: list) -> dict:
    """row index -> oracle values of the row's measure columns."""
    if spec.kind == "sweep":
        out = {}
        for r in rows:
            model = oracle.preset_model(spec.preset, _caption_overrides(spec, _grid_point(spec, r)))
            rho = oracle.steady_state(model.hamiltonian, model.lindblads)
            out[r] = oracle.measure(spec.measure, rho, model)
        return out
    model = oracle.preset_model(spec.preset)
    rho0 = oracle.initial_density(model.variant.scheme, oracle.models.preset_caption(spec.preset)["initial"])
    times = [_evolve_time_ms(spec, r) * 1e-3 for r in rows]
    states = oracle.evolve_at(model.hamiltonian, model.lindblads, rho0, times)
    return {r: oracle.measure(spec.measure, rho, model) for r, rho in zip(rows, states)}


def _evolve_time_ms(spec: Spec, row: int) -> float:
    return spec.t_max_ms * row / (spec.samples - 1)


def _columns(spec: Spec) -> list:
    if spec.kind == "sweep":
        return [a[0].replace("-", "_") for a in spec.axes] + [spec.measure, "error"]
    if spec.measure == "populations":
        scheme = oracle.models.preset_caption(spec.preset)["scheme"]
        return ["time_ms"] + [f"pop_{n}" for n in oracle.POPULATION_BASIS[scheme]]
    return ["time_ms", spec.measure]


@dataclass(frozen=True)
class Result:
    failed: int
    max_dev: float
    reason: str


def check_output(argv: list, text: str, reference: dict) -> Result:
    """Failed items of one CLI output, and its largest deviation from `reference`."""
    spec = parse_argv(argv)
    n = items_of(argv)
    lines = text.splitlines()
    if not lines or not lines[0].startswith(f"# rydpump {spec.kind}"):
        return Result(n, math.nan, "missing '# rydpump' header line")
    table = list(csv.reader(io.StringIO("\n".join(lines[1:]))))
    columns = _columns(spec)
    if not table or table[0] != columns:
        return Result(n, math.nan, f"columns {table[0] if table else None} != {columns}")
    rows = table[1:]
    failed = max(n - len(rows), 0)
    max_dev = 0.0
    reasons = [f"{len(rows)} rows, expected {n}"] if len(rows) != n else []
    for r, row in enumerate(rows[:n]):
        problem, dev = _row_problem(spec, r, row, columns, reference)
        if problem:
            failed += 1
            reasons.append(f"row {r}: {problem}")
        max_dev = max(max_dev, dev)
    return Result(failed, max_dev, "; ".join(reasons[:3]))


def _row_problem(spec: Spec, r: int, row: list, columns: list, reference: dict):
    """(what is wrong with the row or "", its deviation from the oracle or 0)."""
    if len(row) != len(columns):
        return f"{len(row)} cells, expected {len(columns)}", 0.0
    if spec.kind == "sweep":
        if row[-1]:
            return f"error column {row[-1]!r}", 0.0
        row = row[:-1]
        want = _grid_point(spec, r)
        tol = [1e-12 * max(abs(w), 1.0) for w in want]
    else:
        want = [_evolve_time_ms(spec, r)]
        tol = [1e-9 * max(spec.t_max_ms, 1.0)]
    try:
        cells = [float(c) for c in row]
    except ValueError:
        return f"unparsable cell in {row}", 0.0
    if not all(math.isfinite(c) for c in cells):
        return f"non-finite value in {row}", 0.0
    if any(abs(c - w) > t for c, w, t in zip(cells, want, tol)):
        return f"coordinates {cells[:len(want)]} != {want}", 0.0
    if r not in reference:
        return "", 0.0
    dev = max(abs(c - o) for c, o in zip(cells[len(want):], reference[r]))
    if dev > oracle.TOLERANCE:
        return f"misses the oracle by {dev:.3e}", dev
    return "", dev
