"""Per-point cost of each traced layer of a `rydpump` sweep, in one process.

    python3 tools/point_costs.py [--calls N] ARGV...

runs `rydpump ARGV` through `rydpump.cli.main` in this interpreter: one
warm-up call (imports, plan caches, lazy set-up), then N timed calls
(default 25).  During the timed calls each layer below is wrapped by a
timer; a layer's time in a call is the time spent inside it (its
callees included), divided by the number of sweep points of the call
(`grid._point` calls).  It prints, per layer, the minimum and the median
over the calls of those microseconds per point, and how often the layer
ran per point:

- `grid._point`, the whole point, and `grid.measure_columns`;
- the benchmark's traced layers `models.caption_params`,
  `models.build_model`, `dynamics.build_liouvillian` and
  `dynamics.steady_state`;
- inside `steady_state`: `dynamics._bordered_lu` (the real form's band
  array and its band LU), `dynamics._drazin_norm` (the certificate's
  power iteration),
  `dynamics._from_coords` (the solution's map back to a vec),
  `dynamics.residual` and `dynamics._positive_by_cholesky`.

Every timer adds a few tenths of a microsecond to its layer and to the
layers around it, so compare runs of this tool with each other, not
with the benchmark's untraced throughput.  The call's stdout and stderr
are discarded; the exit status is the first nonzero exit status of a
call, else 0.  Pin BLAS to one thread (`OMP_NUM_THREADS=1
OPENBLAS_NUM_THREADS=1`), as the benchmark does, to compare runs.  Only
the standard library and `rydpump` are used; the package is imported
from `src/` beside this file unless `PYTHONPATH` names another copy
first.

Example, the benchmark's Fig. 8 grid (100 Bell points):

    python3 tools/point_costs.py sweep --preset fig8a \\
        --axis rabi-mhz 0.02 0.1 10 --axis microwave-rel 0.002 0.01 10 --reduce chsh
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (module, attribute) of each timed layer, in print order; the first is the point.
LAYERS = (
    ("grid", "_point"),
    ("models", "caption_params"),
    ("models", "build_model"),
    ("dynamics", "build_liouvillian"),
    ("dynamics", "steady_state"),
    ("dynamics", "_bordered_lu"),
    ("dynamics", "_drazin_norm"),
    ("dynamics", "_from_coords"),
    ("dynamics", "residual"),
    ("dynamics", "_positive_by_cholesky"),
    ("grid", "measure_columns"),
)


def _call(argv: list) -> int:
    """One rydpump call, its output discarded; its exit status."""
    from rydpump import cli

    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


def _timed(f, totals: dict, name: str):
    """f, adding each call's seconds and count to totals[name]."""
    @functools.wraps(f)
    def wrapper(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return f(*args, **kwargs)
        finally:
            seconds, count = totals[name]
            totals[name] = (seconds + time.perf_counter() - t0, count + 1)
    return wrapper


def measure(argv: list, calls: int = 25) -> dict:
    """Warm up, then time `calls` calls with every layer wrapped: a dict
    with "layers" (name -> list of µs per point, one per call), "per_point"
    (name -> calls of the layer per point in the last call), "points" (sweep
    points per call) and "status"."""
    from rydpump import dynamics, grid, models

    modules = {"grid": grid, "models": models, "dynamics": dynamics}
    codes = [_call(argv)]
    names = [f"{module}.{attr}" for module, attr in LAYERS]
    originals = [getattr(modules[module], attr) for module, attr in LAYERS]
    per_call = {name: [] for name in names}
    totals = {}
    try:
        for (module, attr), name, f in zip(LAYERS, names, originals):
            setattr(modules[module], attr, _timed(f, totals, name))
        for _ in range(calls):
            totals.clear()
            totals.update((name, (0.0, 0)) for name in names)
            codes.append(_call(argv))
            points = max(totals[names[0]][1], 1)
            for name in names:
                per_call[name].append(1e6 * totals[name][0] / points)
    finally:
        for (module, attr), f in zip(LAYERS, originals):
            setattr(modules[module], attr, f)
    status = next((code for code in codes if code), 0)
    return {"layers": per_call, "per_point": {name: totals[name][1] / points for name in names},
            "points": totals[names[0]][1], "status": status}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--calls", type=int, default=25, help="timed calls after the warm-up")
    p.add_argument("rydpump_argv", nargs=argparse.REMAINDER, help="the rydpump command line")
    args = p.parse_args(argv)
    if args.calls < 1 or not args.rydpump_argv:
        p.error("give --calls >= 1 and a rydpump command line")
    r = measure(args.rydpump_argv, args.calls)
    print(f"argv   {' '.join(args.rydpump_argv)}")
    print(f"points {r['points']} per call, {args.calls} calls")
    print(f"{'layer':34} {'min_us':>9} {'median_us':>9} {'calls/pt':>8}")
    for name, us in r["layers"].items():
        print(f"{name:34} {min(us):9.1f} {statistics.median(us):9.1f} "
              f"{r['per_point'][name]:8.2f}")
    return r["status"]


if __name__ == "__main__":
    sys.path.append(str(ROOT / "src"))
    sys.exit(main())
