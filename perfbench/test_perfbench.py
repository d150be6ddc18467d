"""Tests of the benchmark itself: python -m pytest perfbench/test_perfbench.py"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import check  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, GRID_JITTER, items_of, make_argv  # noqa: E402

# A 2x2 Bell grid: the smallest sweep the checks handle like a real workload.
SMALL_SWEEP = ["sweep", "--preset", "fig8a", "--axis", "rabi-mhz", "0.02", "0.1", "2",
               "--axis", "microwave-rel", "0.002", "0.01", "2", "--reduce", "chsh",
               "--no-timestamp"]


def _cli_output(argv):
    import rydpump.cli

    code, text, err, _ = run.invoke(rydpump.cli, argv)
    assert code == 0, err
    return text


def test_argv_is_deterministic_per_seed():
    for name, w in WORKLOADS.items():
        argvs = [make_argv(name, seed) for seed in range(1, 6)]
        assert argvs == [make_argv(name, seed) for seed in range(1, 6)]
        assert len({" ".join(a) for a in argvs}) > 1, f"{name}: the seed changes nothing"
        for argv in argvs:
            if w.kind == "sweep":
                spec = check.parse_argv(argv)
                for (_, lo, hi, steps), (_, lo0, hi0, steps0) in zip(spec.axes, w.axes):
                    assert steps == steps0
                    assert abs(lo / lo0 - 1) <= GRID_JITTER + 1e-5
                    assert abs(hi / hi0 - 1) <= GRID_JITTER + 1e-5
            else:
                spec = check.parse_argv(argv)
                assert math.isclose(spec.t_max_ms / (spec.samples - 1), w.step_ms)
                assert abs(spec.samples - w.samples) <= w.max_shift


def test_argv_is_byte_identical_across_interpreters():
    code = ("import json, workloads; "
            "print(json.dumps({n: workloads.make_argv(n, 7) for n in workloads.WORKLOADS}))")
    outs = {
        subprocess.run([sys.executable, "-c", code], cwd=HERE, capture_output=True, check=True,
                       env={**os.environ, "PYTHONHASHSEED": h}).stdout
        for h in ("1", "2")
    }
    assert len(outs) == 1
    assert json.loads(outs.pop()) == {n: make_argv(n, 7) for n in WORKLOADS}


def test_oracle_reproduces_reference_values():
    got = {(p, m): v for p, m, v, _, _ in oracle.reference_deviations()}
    assert abs(got["fig2", "fidelity"] - 0.998862) <= 5e-7
    assert abs(got["fig2", "chsh"] - 2.8242) <= 5e-5
    assert abs(got["fig6-point", "negativity"] - 0.997026) <= 5e-7


def test_oracle_measures_on_maximally_entangled_targets():
    k = oracle.kets("bell")
    singlet = oracle.initial_density("bell", "S")
    assert math.isclose(oracle.chsh(singlet), 2 * math.sqrt(2), rel_tol=1e-12)
    triplet = oracle.initial_density("bell", "T")
    assert math.isclose(oracle.chsh(triplet, triplet_frame=True), 2 * math.sqrt(2), rel_tol=1e-12)
    assert math.isclose(oracle.fidelity(k["S"], singlet), 1.0)
    phi = oracle.initial_density("qutrit", "phi")
    assert math.isclose(oracle.negativity(phi, 5, 4), 1.0, rel_tol=1e-12)
    assert math.isclose(sum(oracle.populations(oracle.initial_density("qutrit", "mix9"), "qutrit")), 1.0)


def test_self_time_is_duration_minus_child_coverage():
    S = spans.Span
    synthetic = [
        S("cli.main", 0.0, 10.0, -1, 1),
        S("dynamics.evolve", 1.0, 4.0, 0, 1),
        S("measures.populations", 2.0, 3.0, 1, 1),
        S("dynamics.steady_state", 3.0, 6.0, 0, 1),     # overlaps its sibling: counted once
        S("measures.negativity", 9.0, 12.0, 0, 1),      # runs past its parent: clipped
        S("cli.main", 20.0, 21.0, -1, 2),
    ]
    assert spans.self_times(synthetic) == [10.0 - 5.0 - 1.0, 2.0, 1.0, 3.0, 3.0, 1.0]
    m = spans.layer_metrics(synthetic, invocations=2)
    assert m["cli.main.calls"] == (1.0, "count")
    assert m["cli.main.self_s"] == ((4.0 + 1.0) / 2, "s")
    assert m["dynamics.evolve.self_s"] == (1.0, "s")
    assert m["measures.fidelity.calls"] == (0.0, "count")


def test_tracer_records_nested_spans_and_restores_the_package():
    import rydpump.cli
    import rydpump.measures

    originals = (rydpump.cli.main, rydpump.measures.partial_transpose)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert rydpump.cli.main is not originals[0]
        assert run.invoke(rydpump.cli, SMALL_SWEEP)[0] == 0
        try:
            rydpump.measures.fidelity([1.0, 0.0], [[1.0]])
        except ValueError:
            pass
    finally:
        tracer.uninstall()
    assert (rydpump.cli.main, rydpump.measures.partial_transpose) == originals
    names = [s.name for s in tracer.spans]
    assert names[0] == "cli.main" and tracer.spans[0].parent == -1
    assert names.count("dynamics.steady_state") == 4
    assert all(s.parent == 0 for s in tracer.spans[1:-1] if s.name == "dynamics.steady_state")
    assert sum(s.nnz for s in tracer.spans) == 4 * 533
    assert tracer.spans[-1].name == "measures.fidelity" and tracer.spans[-1].failed


def test_injected_failing_item_raises_failed_frac():
    text = _cli_output(SMALL_SWEEP)
    reference = check.oracle_rows(check.parse_argv(SMALL_SWEEP), range(4))
    n = items_of(SMALL_SWEEP)

    def failed(outputs, nonzero=0):
        loop = {"items": n, "outputs": Counter(outputs), "nonzero": nonzero, "errors": Counter()}
        return run.count_failed(SMALL_SWEEP, loop, reference)[0]

    assert failed({text: 3}) == 0
    lines = text.splitlines()
    with_error = "\n".join(lines[:3] + [lines[3] + "ConvergenceError: injected"] + lines[4:])
    assert failed({text: 3, with_error: 2}) == 2
    cells = lines[4].split(",")
    cells[2] = repr(float(cells[2]) + 1e-3)
    off_oracle = "\n".join(lines[:4] + [",".join(cells)] + lines[5:])
    assert failed({off_oracle: 1}) == 1
    assert failed({text: 1}, nonzero=1) == n
    assert failed({text.replace("chsh", "fidelity"): 1}) == n


def test_compare_prints_ratios_with_base(tmp_path, capsys):
    def record(value):
        return json.dumps({"workload": "bell-grid", "trace": 0, "failed_frac": 0.0,
                           "result": {"metrics": {"throughput": {"value": value, "unit": "1/s"}}}})

    (tmp_path / "base").write_text(record(50.0) + "\n" + record(70.0) + "\n")
    (tmp_path / "new").write_text(record(90.0) + "\n")
    assert run.main(["--compare", str(tmp_path / "base"), str(tmp_path / "new")]) == 0
    row = next(line for line in capsys.readouterr().out.splitlines() if "throughput" in line)
    assert row.split()[2:5] == ["60", "90", "1.5000"]


def test_run_without_the_program_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "bell-grid",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
