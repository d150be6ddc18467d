"""Smoke test of tools/footprint.py, the page-fault and traced-peak meter."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("footprint", ROOT / "tools" / "footprint.py")
footprint = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(footprint)

SHORT_BELL = ["evolve", "--preset", "fig3", "--t-max-ms", "5", "--samples", "6",
              "--no-timestamp"]


def test_short_bell_evolve(capsys):
    r = footprint.measure(SHORT_BELL, calls=3)
    assert r["status"] == 0
    assert len(r["faults"]) == len(r["sys_s"]) == 3
    assert all(isinstance(n, int) and n >= 0 for n in r["faults"])
    assert min(r["sys_s"]) >= 0.0
    # At least the 81 x 81 real form (52 kB) and its expm are live at once.
    assert r["peak_bytes"] > 81 * 81 * 8
    assert footprint.main(["--calls", "2", *SHORT_BELL]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert [row.split()[0] for row in rows] == ["argv", "minor", "system", "traced"]
    assert len(rows[1].split()[2:]) == len(rows[2].split()[2:]) == 2


def test_rejected_run_sets_the_status():
    # --samples 1 over a nonzero time span is an invalid spec: exit status 2.
    r = footprint.measure(["evolve", "--preset", "fig3", "--t-max-ms", "1", "--samples", "1"],
                          calls=1)
    assert r["status"] == 2
