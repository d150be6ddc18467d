"""Smoke test of tools/point_costs.py, the page-fault, traced-peak and layer meter."""

import importlib.util
from pathlib import Path

from rydpump import dynamics, grid, models

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("point_costs", ROOT / "tools" / "point_costs.py")
point_costs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(point_costs)

NAMES = [f"{module}.{attr}" for module, attr in point_costs.LAYERS]
EVOLVE_LAYERS = ["dynamics._propagate_expm", "dynamics._check_physical"]
HEADER = ["argv", "minor", "system", "traced", "points", "layer"]
SMALL_BELL = ["sweep", "--preset", "fig8a", "--axis", "rabi-mhz", "0.02", "0.1", "2",
              "--axis", "microwave-rel", "0.002", "0.01", "2", "--reduce", "chsh",
              "--no-timestamp"]
SHORT_BELL = ["evolve", "--preset", "fig3", "--t-max-ms", "5", "--samples", "6",
              "--no-timestamp"]


def test_small_bell_sweep(capsys):
    originals = [getattr(mod, attr) for mod, attr in
                 ((grid, "_point"), (models, "build_model"), (dynamics, "residual"))]
    r = point_costs.measure(SMALL_BELL, calls=3)
    assert r["status"] == 0 and r["stderr"] == "" and r["points"] == 4
    assert list(r["layers"]) == NAMES
    # Every sweep layer, and each part of the steady state, runs once a
    # point; evolve's parts never run.
    sweep = [name for name in NAMES if name not in EVOLVE_LAYERS]
    assert all(len(us) == 3 and min(us) > 0.0 for name, us in r["layers"].items()
               if name in sweep)
    assert all(r["per_point"][name] == 1.0 for name in sweep)
    assert all(r["per_point"][name] == 0.0 for name in EVOLVE_LAYERS)
    point = r["layers"]["grid._point"]
    assert all(r["layers"][name][k] < point[k] for name in sweep[1:] for k in range(3))
    # The wrappers are gone after the run.
    assert [grid._point, models.build_model, dynamics.residual] == originals
    assert point_costs.main(["--calls", "2", *SMALL_BELL]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert [row.split()[0] for row in rows[:6]] == HEADER
    assert len(rows[1].split()[2:]) == len(rows[2].split()[2:]) == 2
    assert [row.split()[0] for row in rows[6:]] == NAMES


def test_short_bell_evolve(capsys):
    r = point_costs.measure(SHORT_BELL, calls=3)
    assert r["status"] == 0 and r["points"] == 0
    assert len(r["faults"]) == len(r["sys_s"]) == 3
    assert all(isinstance(n, int) and n >= 0 for n in r["faults"])
    assert min(r["sys_s"]) >= 0.0
    # At least the 81 x 81 real form (52 kB) and its expm are live at once.
    assert r["peak_bytes"] > 81 * 81 * 8
    # Without sweep points the layers read per call: one propagation and
    # one physicality check.
    assert all(r["per_point"][name] == 1.0 and min(r["layers"][name]) > 0.0
               for name in EVOLVE_LAYERS)
    assert point_costs.main(["--calls", "2", *SHORT_BELL]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert [row.split()[0] for row in rows[:6]] == HEADER
    assert len(rows[1].split()[2:]) == len(rows[2].split()[2:]) == 2


def test_rejected_evolve_sets_the_status():
    # --samples 1 over a nonzero time span is an invalid spec: exit status 2.
    r = point_costs.measure(["evolve", "--preset", "fig3", "--t-max-ms", "1", "--samples", "1"],
                            calls=1)
    assert r["status"] == 2


def test_rejected_run_sets_the_status(capsys):
    # A repeated axis is an invalid spec: exit status 2, no point solved,
    # and the CLI's error line on stderr.
    argv = ["sweep", "--preset", "fig8a", "--axis", "rabi-mhz", "0.02", "0.1", "2",
            "--axis", "rabi-mhz", "0.02", "0.1", "2"]
    r = point_costs.measure(argv, calls=1)
    assert r["status"] == 2 and r["points"] == 0
    assert point_costs.main(["--calls", "1", *argv]) == 2
    assert capsys.readouterr().err == "error: axis 'rabi-mhz' is given twice\n"


def test_argparse_rejection_is_reported(capsys):
    # argparse's SystemExit is the call's status, and its message is kept.
    assert point_costs.main(["--calls", "1", "evolve", "--presett", "fig3"]) == 2
    assert "error: unrecognized arguments: --presett fig3" in capsys.readouterr().err
