"""Page faults and traced memory peak of repeated `rydpump` calls in one process.

    python3 tools/footprint.py [--calls N] ARGV...

runs `rydpump ARGV` through `rydpump.cli.main` in this interpreter: one
warm-up call (imports, plan caches, lazy set-up), then N counted calls
(default 5), then one more call under `tracemalloc`.  It prints

- the minor page faults of each counted call, the `ru_minflt` delta of
  `resource.getrusage` around it, with the system CPU time it took;
- the traced peak of the last call: the largest total of the Python and
  NumPy allocations `tracemalloc` saw live at once during it.

The benchmark harness times whole calls and reads the process's peak
RSS; neither shows the pages a call gives back to the OS and faults in
again on the next call, or what the call holds at its peak.  Whether
freed memory is kept for the next call is up to the C allocator (for
glibc, its dynamic mmap and trim thresholds; see mallopt(3)), so the
fault counts are for the allocator and settings of the run.  The call's
stdout and stderr are discarded; the exit status is the first nonzero
exit status of a call, else 0.  Pin BLAS to one thread
(`OMP_NUM_THREADS=1 OPENBLAS_NUM_THREADS=1`), as the benchmark does, to
compare runs.  Only the standard library and `rydpump` are used; the
package is imported from `src/` beside this file unless `PYTHONPATH`
names another copy first.

Example, the Fig. 5 inset series:

    python3 tools/footprint.py evolve --preset fig5-inset --outputs populations
"""

from __future__ import annotations

import argparse
import contextlib
import io
import resource
import sys
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _call(argv: list) -> int:
    """One rydpump call, its output discarded; its exit status."""
    from rydpump import cli

    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


def measure(argv: list, calls: int = 5) -> dict:
    """Warm up, then the minor faults and system seconds of each of `calls`
    calls and the traced peak (bytes) of one more: a dict with the keys
    "faults", "sys_s", "peak_bytes" and "status"."""
    codes, faults, sys_s = [_call(argv)], [], []
    for _ in range(calls):
        before = resource.getrusage(resource.RUSAGE_SELF)
        codes.append(_call(argv))
        after = resource.getrusage(resource.RUSAGE_SELF)
        faults.append(after.ru_minflt - before.ru_minflt)
        sys_s.append(after.ru_stime - before.ru_stime)
    tracemalloc.start()
    try:
        codes.append(_call(argv))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    status = next((code for code in codes if code), 0)
    return {"faults": faults, "sys_s": sys_s, "peak_bytes": peak, "status": status}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--calls", type=int, default=5, help="counted calls after the warm-up")
    p.add_argument("rydpump_argv", nargs=argparse.REMAINDER, help="the rydpump command line")
    args = p.parse_args(argv)
    if args.calls < 1 or not args.rydpump_argv:
        p.error("give --calls >= 1 and a rydpump command line")
    r = measure(args.rydpump_argv, args.calls)
    print(f"argv              {' '.join(args.rydpump_argv)}")
    print(f"minor faults/call {' '.join(map(str, r['faults']))}")
    print(f"system ms/call    {' '.join(f'{1e3 * s:.1f}' for s in r['sys_s'])}")
    print(f"traced peak MB    {r['peak_bytes'] / 1e6:.2f}")
    return r["status"]


if __name__ == "__main__":
    sys.path.append(str(ROOT / "src"))
    sys.exit(main())
