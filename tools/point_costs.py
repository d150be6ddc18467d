"""Page faults, traced peak and per-layer cost of repeated `rydpump` calls, in one process.

    python3 tools/point_costs.py [--calls N] ARGV...

runs `rydpump ARGV` through `rydpump.cli.main` in this interpreter: one
warm-up call (imports, plan caches, lazy set-up), then N counted calls
(default 25), one call under `tracemalloc` and N timed calls.  It prints

- the minor page faults of each counted call, the `ru_minflt` delta of
  `resource.getrusage` around it, with the system CPU time it took;
- the traced peak of the `tracemalloc` call: the largest total of the
  Python and NumPy allocations it saw live at once;
- per layer below, the minimum and the median over the timed calls of
  the microseconds spent inside the layer (its callees included) per
  sweep point of the call (`grid._point` calls; per call when there are
  none), and how often the layer ran per point:
  - `grid._point`, the whole point, and `grid.measure_columns`;
  - the benchmark's traced layers `models.caption_params`,
    `models.build_model`, `dynamics.build_liouvillian` and
    `dynamics.steady_state`;
  - inside `steady_state`: `dynamics._bordered_lu` (the real form's band
    array and its band LU), `dynamics._drazin_norm` (the certificate's
    power iteration), `dynamics._from_coords` (the solution's map back
    to a vec), `dynamics.residual` and `dynamics._positive_by_cholesky`;
  - inside `evolve`: `dynamics._propagate_expm` (the propagation) and
    `dynamics._check_physical` (the per-sample physicality check).

Only the timed calls run with the layer timers; each timer adds a few
tenths of a microsecond to its layer and to the layers around it, so
compare runs of this tool with each other, not with the benchmark's
untraced throughput.  The benchmark harness times whole calls and reads
the process's peak RSS; neither shows the pages a call gives back to the
OS and faults in again on the next call, or what the call holds at its
peak.  Whether freed memory is kept for the next call is up to the C
allocator (for glibc, its dynamic mmap and trim thresholds; see
mallopt(3)), so the fault counts are for the allocator and settings of
the run.

The calls' stdout is discarded.  The exit status is the first nonzero
exit status of a call, argparse's rejections included, and that call's
stderr is written to stderr; else it is 0.  Pin BLAS to one thread
(`OMP_NUM_THREADS=1 OPENBLAS_NUM_THREADS=1`), as the benchmark does, to
compare runs.  Only the standard library and `rydpump` are used; the
package is imported from `src/` beside this file unless `PYTHONPATH`
names another copy first.

Examples, the benchmark's Fig. 8 grid (100 Bell points) and the Fig. 5
inset series:

    python3 tools/point_costs.py sweep --preset fig8a \\
        --axis rabi-mhz 0.02 0.1 10 --axis microwave-rel 0.002 0.01 10 --reduce chsh
    python3 tools/point_costs.py evolve --preset fig5-inset --outputs populations
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import resource
import statistics
import sys
import time
import tracemalloc
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
    ("dynamics", "_propagate_expm"),
    ("dynamics", "_check_physical"),
)


def _call(argv: list) -> tuple[int, str]:
    """One rydpump call, its stdout discarded: its exit status and stderr."""
    from rydpump import cli

    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejected the argv
            code = exc.code if isinstance(exc.code, int) else 2
    return code, err.getvalue()


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
    """Warm up, then `calls` counted calls, one traced call and `calls`
    timed calls with every layer wrapped: a dict with "faults" and "sys_s"
    (one per counted call), "peak_bytes" (of the traced call), "layers"
    (name -> list of µs per point, one per timed call), "per_point" (name
    -> calls of the layer per point in the last call), "points" (sweep
    points per call), and "status" and "stderr" of the first call that
    failed (0 and "" when none did)."""
    from rydpump import dynamics, grid, models

    results, faults, sys_s = [_call(argv)], [], []
    for _ in range(calls):
        before = resource.getrusage(resource.RUSAGE_SELF)
        results.append(_call(argv))
        after = resource.getrusage(resource.RUSAGE_SELF)
        faults.append(after.ru_minflt - before.ru_minflt)
        sys_s.append(after.ru_stime - before.ru_stime)
    tracemalloc.start()
    try:
        results.append(_call(argv))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    modules = {"grid": grid, "models": models, "dynamics": dynamics}
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
            results.append(_call(argv))
            points = max(totals[names[0]][1], 1)
            for name in names:
                per_call[name].append(1e6 * totals[name][0] / points)
    finally:
        for (module, attr), f in zip(LAYERS, originals):
            setattr(modules[module], attr, f)
    status, stderr = next((r for r in results if r[0]), (0, ""))
    return {"faults": faults, "sys_s": sys_s, "peak_bytes": peak, "layers": per_call,
            "per_point": {name: totals[name][1] / points for name in names},
            "points": totals[names[0]][1], "status": status, "stderr": stderr}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--calls", type=int, default=25,
                   help="counted calls, and timed calls, after the warm-up")
    p.add_argument("rydpump_argv", nargs=argparse.REMAINDER, help="the rydpump command line")
    args = p.parse_args(argv)
    if args.calls < 1 or not args.rydpump_argv:
        p.error("give --calls >= 1 and a rydpump command line")
    r = measure(args.rydpump_argv, args.calls)
    print(f"argv              {' '.join(args.rydpump_argv)}")
    print(f"minor faults/call {' '.join(map(str, r['faults']))}")
    print(f"system ms/call    {' '.join(f'{1e3 * s:.1f}' for s in r['sys_s'])}")
    print(f"traced peak MB    {r['peak_bytes'] / 1e6:.2f}")
    print(f"points            {r['points']} per call, {args.calls} calls")
    print(f"{'layer':34} {'min_us':>9} {'median_us':>9} {'calls/pt':>8}")
    for name, us in r["layers"].items():
        print(f"{name:34} {min(us):9.1f} {statistics.median(us):9.1f} "
              f"{r['per_point'][name]:8.2f}")
    sys.stderr.write(r["stderr"])
    return r["status"]


if __name__ == "__main__":
    sys.path.append(str(ROOT / "src"))
    sys.exit(main())
