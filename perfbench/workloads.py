"""Benchmark workloads and their seeded argv generator.

Each workload is one `rydpump` command line taken from a figure of the
source paper.  The seed jitters the grid bounds (sweeps) or the duration
(evolve) by a few percent, so runs with different seeds solve different
but equally sized problems.  The same seed always gives a byte-identical
argv; the program under test receives nothing but that argv.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# Relative jitter applied independently to every sweep grid bound.
GRID_JITTER = 0.03


@dataclass(frozen=True)
class Workload:
    """One benchmark command.

    kind is "sweep" or "evolve".  A sweep has `axes` of
    (name, lo, hi, steps) and reduces each grid point to `measure`.  An
    evolve run has `samples` points spaced `step_ms` apart, and the seed
    shifts the sample count by at most `max_shift`, so the step, and with
    it the cost of one time step, is the same for every seed.
    """

    name: str
    kind: str
    preset: str
    why: str
    measure: str
    axes: tuple = ()
    step_ms: float = 0.0
    samples: int = 0
    max_shift: int = 0


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="qutrit-grid", kind="sweep", preset="fig6-point", measure="negativity",
            axes=(("urr-mhz", 1.0, 10.0, 5), ("gamma-khz", 0.25, 2.5, 5)),
            why="Fig. 6 grid at d=20: the dense steady-state solve of the 400x400 "
                "generator dominates, Liouvillian assembly second",
        ),
        Workload(
            name="bell-grid", kind="sweep", preset="fig8a", measure="chsh",
            axes=(("rabi-mhz", 0.02, 0.10, 10), ("microwave-rel", 0.002, 0.010, 10)),
            why="Fig. 8 grid at d=9: Liouvillian assembly and per-point model and "
                "CLI overhead dominate, the small solve is cheap",
        ),
        Workload(
            name="qutrit-evolve", kind="evolve", preset="fig5-inset", measure="populations",
            step_ms=0.5, samples=401, max_shift=8,
            why="Fig. 5 inset at d=20: one dense expm of the 400x400 generator "
                "dominates the time series",
        ),
        Workload(
            name="bell-chsh-evolve", kind="evolve", preset="fig3", measure="chsh",
            step_ms=1.0, samples=301, max_shift=9,
            why="Fig. 3 CHSH series at d=9: per-sample measures and per-step "
                "physicality checks dominate short runs",
        ),
    )
}


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def make_argv(name: str, seed: int) -> list:
    """The seeded command line of one workload (without the program name)."""
    w = WORKLOADS[name]
    # A string seed is hashed with SHA-512, so it does not depend on
    # PYTHONHASHSEED or the interpreter run.
    rng = random.Random(f"perfbench:{name}:{int(seed)}")
    if w.kind == "sweep":
        argv = ["sweep", "--preset", w.preset]
        for axis, lo, hi, steps in w.axes:
            lo *= 1.0 + rng.uniform(-GRID_JITTER, GRID_JITTER)
            hi *= 1.0 + rng.uniform(-GRID_JITTER, GRID_JITTER)
            argv += ["--axis", axis, _fmt(lo), _fmt(hi), str(steps)]
        argv += ["--reduce", w.measure]
    else:
        samples = w.samples + rng.randint(-w.max_shift, w.max_shift)
        argv = ["evolve", "--preset", w.preset,
                "--t-max-ms", _fmt(w.step_ms * (samples - 1)), "--samples", str(samples),
                "--outputs", w.measure]
    return argv + ["--no-timestamp"]


def items_of(argv: list) -> int:
    """Work items one invocation of argv produces: grid points or time samples."""
    if argv[0] == "sweep":
        n = 1
        for i, tok in enumerate(argv):
            if tok == "--axis":
                n *= int(argv[i + 4])
        return n
    return int(argv[argv.index("--samples") + 1])
