"""rydpump benchmark: CLI workloads timed end to end and traced per layer.

One run measures one workload in this interpreter, with the BLAS thread
count pinned to 1:

    python3 perfbench/run.py --workload qutrit-grid --seed 1 --seconds 12 --trace 0

1. The run imports `rydpump.cli`, makes one warm-up call, then calls
   `rydpump.cli.main(argv)` in a closed loop (one client, next call
   when the previous returns) for --seconds, on the workload's seeded
   argv.  throughput is items / time of the fastest call; an item is a
   grid point (sweep) or a time sample (evolve).  peak_rss_mb is the
   run's peak resident set after the loop.  setup_s is the median, over
   SETUP_SAMPLES fresh interpreters started between calls, of the time
   from interpreter start to the end of `import rydpump.cli`.
2. After the loop every distinct output is checked (see check.py): rows,
   coordinates and error column for every item, and a seeded sample of
   rows against the independent oracle (oracle.py), which is itself
   checked against the paper's reference values.

With --trace 1 the loop alternates untraced calls with calls traced by
spans.Tracer, and the run reports per-layer figures per call instead:
`<span>.calls`, `<span>.self_s`, `<span>.fail`, the summed Liouvillian
nnz, trace.overhead (untraced / traced throughput of the fastest calls) and
check.max_ref_dev (largest |program - oracle| on the sampled rows).

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  --out FILE appends the full record
(seed, argv, environment, metrics, failed_frac) as a JSON line;
`--compare BASE NEW` prints each metric of NEW as a ratio to BASE.
`--workload all` runs every workload, each in its own interpreter.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

from workloads import WORKLOADS, items_of, make_argv

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PINNED = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"}
SETUP_SAMPLES = 3
ORACLE_ROWS = 4
SETUP_CODE = "import time, rydpump.cli; print(time.monotonic())"


def measure_setup(n: int) -> list:
    """Seconds from interpreter start to the end of `import rydpump.cli`, n times."""
    env = {**os.environ, **PINNED, "PYTHONPATH": str(SRC)}
    samples = []
    for _ in range(n):
        # CLOCK_MONOTONIC is shared by all processes, so the child's reading
        # after its import minus ours before the spawn is its set-up time.
        t0 = time.monotonic()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(proc.stdout.split()[-1]) - t0)
    return samples


def invoke(cli, argv: list):
    """One call of cli.main with its output captured: (exit code, stdout, stderr, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejected the argv
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash fails this call's items; the loop goes on
            code = -1
            err.write(traceback.format_exc())
    return code, out.getvalue(), err.getvalue(), time.perf_counter() - t0


def closed_loop(cli, argv: list, seconds: float, tracer=None, setup_samples: int = 0) -> dict:
    """Call cli.main(argv) back to back until the calls have taken `seconds`.

    With a tracer, odd calls are traced and even calls are not, and the
    loop runs until it has at least one of each.  The set-up samples are
    taken between calls, spread evenly over the loop, so that they see the
    same host conditions as the calls.

    Each pair of calls is pinned to the next of the CPUs the run may use.
    On a shared host a neighbour can slow one CPU for tens of seconds
    while another stays quiet; rotating lets the fastest call find the
    quiet one.
    """
    cpus = sorted(os.sched_getaffinity(0))
    items = items_of(argv)
    outputs: Counter = Counter()
    errors: Counter = Counter()
    call_s = {False: [], True: []}
    setup = []
    busy = 0.0
    calls = nonzero = 0
    while busy < seconds or not call_s[False] or (tracer is not None and not call_s[True]):
        if len(setup) < setup_samples and busy >= len(setup) * seconds / setup_samples:
            setup += measure_setup(1)
        traced = tracer is not None and calls % 2 == 1
        os.sched_setaffinity(0, {cpus[calls // 2 % len(cpus)]})
        if traced:
            tracer.invocation = calls
            tracer.install()
        try:
            code, text, err, dt = invoke(cli, argv)
        finally:
            if traced:
                tracer.uninstall()
        calls += 1
        busy += dt
        call_s[traced].append(dt)
        if code == 0:
            outputs[text] += 1
        else:
            nonzero += 1
            errors[f"exit {code}: {err.strip()[-300:]}"] += 1
    os.sched_setaffinity(0, cpus)
    setup += measure_setup(setup_samples - len(setup))
    return {"items": items, "calls": calls, "outputs": outputs, "nonzero": nonzero,
            "errors": errors, "call_s": call_s[False], "traced_call_s": call_s[True],
            "setup": setup}


def count_failed(argv: list, loop: dict, reference: dict):
    """(failed items, largest oracle deviation, problems) over all calls of a loop."""
    import check

    failed = loop["nonzero"] * loop["items"]
    problems = list(loop["errors"])
    max_dev = 0.0
    for text, count in loop["outputs"].items():
        result = check.check_output(argv, text, reference)
        failed += result.failed * count
        max_dev = max(max_dev, result.max_dev)
        if result.reason:
            problems.append(f"{count} call(s): {result.reason}")
    return failed, max_dev, problems


def environment() -> dict:
    """What the numbers depend on besides the workload."""
    import numpy
    import scipy

    files = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    for p in files:
        digest.update(p.relative_to(ROOT).as_posix().encode() + b"\0" + p.read_bytes())
    try:
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or None
    except OSError:
        git = None
    return {
        "git_revision": git,
        "src_sha256": digest.hexdigest(),
        "src_lines": sum(len(p.read_text().splitlines()) for p in files),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {k: os.environ.get(k) for k in PINNED},
        "nproc": len(os.sched_getaffinity(0)),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, spans_path) -> dict:
    import check
    import oracle

    argv = make_argv(name, seed)
    import rydpump.cli as cli

    warm = invoke(cli, argv)
    tracer = None
    if trace:
        from spans import Tracer
        tracer = Tracer()
    loop = closed_loop(cli, argv, seconds, tracer, 0 if trace else SETUP_SAMPLES)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    rows = check.sample_rows(argv, seed, ORACLE_ROWS)
    reference = check.oracle_rows(check.parse_argv(argv), rows)
    failed, max_dev, problems = count_failed(argv, loop, reference)
    if warm[0] != 0:
        problems.append(f"warm-up call exited {warm[0]}: {warm[2].strip()[-300:]}")
    refs = oracle.reference_deviations()
    bad_refs = [r for r in refs if abs(r[2] - r[3]) > r[4]]
    problems += [f"oracle {p} {m} = {v:.7g}, quoted {q}" for p, m, v, q, _ in bad_refs]

    attempted = loop["calls"] * loop["items"]
    if trace:
        from spans import layer_metrics
        metrics = layer_metrics(tracer.spans, len(loop["traced_call_s"]))
        metrics["trace.overhead"] = (min(loop["traced_call_s"]) / min(loop["call_s"]), "ratio")
        metrics["check.max_ref_dev"] = (max_dev, "abs")
        if spans_path:
            tracer.write(spans_path)
    else:
        metrics = {
            "throughput": (loop["items"] / min(loop["call_s"]), "1/s"),
            "setup_s": (statistics.median(loop["setup"]), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return {
        "workload": name, "seed": seed, "argv": argv, "seconds": seconds, "trace": int(trace),
        "calls": loop["calls"], "call_s": loop["call_s"], "failed_frac": failed / attempted,
        "max_ref_dev": max_dev, "oracle_rows": rows, "problems": problems,
        "setup_samples": loop["setup"], "environment": environment(),
        "result": result,
    }


def print_record(rec: dict) -> None:
    print(f"workload {rec['workload']}  seed {rec['seed']}  calls {rec['calls']}")
    print("argv: rydpump " + " ".join(rec["argv"]))
    for key, m in rec["result"]["metrics"].items():
        print(f"  {key:40s} {m['value']:14.6g} {m['unit']}")
    res = rec["result"]
    print(f"  {'failed_frac':40s} {rec['failed_frac']:14.6g} "
          f"({res['failed']} of {res['attempted']} items)")
    print(f"  oracle rows {rec['oracle_rows']}: max |program - oracle| = {rec['max_ref_dev']:.3g}")
    for p in rec["problems"][:10]:
        print(f"  PROBLEM {p}")


def run_all(args) -> int:
    """Every workload in its own interpreter; one table, then the combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.out:
            cmd += ["--out", args.out]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        *table, last = proc.stdout.splitlines()
        print("\n".join(table))
        res = json.loads(last)
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for key, m in res["metrics"].items():
            combined["metrics"][f"{name}/{key}"] = m
    print(json.dumps(combined))
    return 0


def _load(path: str) -> dict:
    """(workload, trace) -> metric -> median value over the records of a file."""
    groups: dict = {}
    for line in Path(path).read_text().splitlines():
        if line.strip():
            rec = json.loads(line)
            per = groups.setdefault((rec["workload"], rec["trace"]), {})
            for key, m in rec["result"]["metrics"].items():
                per.setdefault(key, ([], m["unit"]))[0].append(m["value"])
            per.setdefault("failed_frac", ([], "1"))[0].append(rec["failed_frac"])
    return {g: {k: (statistics.median(v), u) for k, (v, u) in per.items()}
            for g, per in groups.items()}


def compare(base_path: str, new_path: str) -> int:
    """Print each metric of NEW as a ratio to BASE (medians over each file's runs)."""
    base, new = _load(base_path), _load(new_path)
    print(f"{'workload':18s} {'metric':42s} {'base':>12s} {'new':>12s} {'new/base':>9s} unit")
    for group in sorted(new):
        if group not in base:
            print(f"{group[0]:18s} (trace {group[1]}) not in {base_path}")
            continue
        for key, (value, unit) in new[group].items():
            if key not in base[group]:
                continue
            b = base[group][key][0]
            ratio = f"{value / b:9.4f}" if b else "      n/a"
            print(f"{group[0]:18s} {key:42s} {b:12.5g} {value:12.5g} {ratio} {unit}")
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", help="workload name, or 'all'")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0, help="length of the timed loop")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="append the run record to this JSON-lines file")
    p.add_argument("--spans", help="with --trace 1, write the spans to this JSON-lines file")
    p.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"),
                   help="print NEW's metrics as ratios to BASE's (result files of --out)")
    args = p.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if not (SRC / "rydpump" / "cli.py").is_file():
        print(f"error: no program to benchmark: {SRC / 'rydpump' / 'cli.py'} is missing",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        p.error(f"--workload must be one of {', '.join(WORKLOADS)} or all")
    rec = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.spans)
    if args.out:
        with open(args.out, "a") as fh:
            fh.write(json.dumps(rec) + "\n")
    print_record(rec)
    print(json.dumps(rec["result"]))
    return 0


if __name__ == "__main__":
    # BLAS reads its thread count when numpy loads, so pin it before any
    # module that imports numpy.
    os.environ.update(PINNED)
    sys.path.insert(0, str(SRC))
    sys.exit(main())
