"""Smoke test of tools/point_costs.py, the per-point layer timer."""

import importlib.util
from pathlib import Path

from rydpump import dynamics, grid, models

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("point_costs", ROOT / "tools" / "point_costs.py")
point_costs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(point_costs)

SMALL_BELL = ["sweep", "--preset", "fig8a", "--axis", "rabi-mhz", "0.02", "0.1", "2",
              "--axis", "microwave-rel", "0.002", "0.01", "2", "--reduce", "chsh",
              "--no-timestamp"]


def test_small_bell_sweep(capsys):
    originals = [getattr(mod, attr) for mod, attr in
                 ((grid, "_point"), (models, "build_model"), (dynamics, "residual"))]
    r = point_costs.measure(SMALL_BELL, calls=3)
    assert r["status"] == 0 and r["points"] == 4
    names = [f"{module}.{attr}" for module, attr in point_costs.LAYERS]
    assert list(r["layers"]) == names
    assert all(len(us) == 3 and min(us) > 0.0 for us in r["layers"].values())
    # Every traced layer, and each part of the steady state, runs once a point.
    assert all(r["per_point"][name] == 1.0 for name in names)
    point = r["layers"]["grid._point"]
    assert all(r["layers"][name][k] < point[k] for name in names[1:] for k in range(3))
    # The wrappers are gone after the run.
    assert [grid._point, models.build_model, dynamics.residual] == originals
    assert point_costs.main(["--calls", "2", *SMALL_BELL]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert [row.split()[0] for row in rows[:3]] == ["argv", "points", "layer"]
    assert [row.split()[0] for row in rows[3:]] == names


def test_rejected_run_sets_the_status():
    # A repeated axis is an invalid spec: exit status 2, no point solved.
    r = point_costs.measure(["sweep", "--preset", "fig8a", "--axis", "rabi-mhz", "0.02", "0.1",
                             "2", "--axis", "rabi-mhz", "0.02", "0.1", "2"], calls=1)
    assert r["status"] == 2 and r["points"] == 0
