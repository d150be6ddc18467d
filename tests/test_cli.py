import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rydpump
from rydpump import models
from rydpump.cli import _REPRODUCE, AXIS_NAMES, RunSetup, main


def run(args):
    return main(args)


def read_csv(path):
    lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    rows = list(csv.reader(lines))
    header, data = rows[0], rows[1:]
    return header, data


def test_steady_fig2_fidelity(tmp_path):
    out = tmp_path / "steady.csv"
    code = run(["steady", "--preset", "fig2", "--delta-mhz", "3.435",
                "--out", str(out), "--no-timestamp"])
    assert code == 0
    header, data = read_csv(out)
    fid = float(data[0][header.index("fidelity")])
    assert fid == pytest.approx(0.999, abs=0.005)
    assert data[0][header.index("backend")] == "nullspace"
    assert float(data[0][header.index("residual")]) <= 1e-8


def test_steady_degenerate_exit_code(capsys):
    code = run(["steady", "--scheme", "bell", "--rabi-mhz", "0",
                "--microwave", "0", "--gamma-khz", "1.0"])
    assert code == 4
    assert "non-unique" in capsys.readouterr().err


def test_steady_evolve_degenerate_exit_code(capsys):
    # Long-time propagation converges to one of the stationary states; the
    # gap certificate rejects it like the nullspace backend does.
    code = run(["steady", "--scheme", "bell", "--rabi-mhz", "0",
                "--microwave", "0", "--gamma-khz", "1.0", "--method", "evolve"])
    assert code == 4
    assert "non-unique" in capsys.readouterr().err


def test_steady_zero_liouvillian_exit_code(capsys):
    code = run(["steady", "--scheme", "bell", "--rabi-mhz", "0", "--microwave", "0"])
    assert code == 4
    assert "non-unique" in capsys.readouterr().err


def test_evolve_stationary_rows_identical(tmp_path):
    out = tmp_path / "flat.csv"
    code = run(["evolve", "--scheme", "bell", "--gamma-khz", "0", "--rabi-mhz", "0",
                "--microwave", "0", "--initial", "singlet", "--t-max-ms", "5",
                "--samples", "6", "--outputs", "populations",
                "--out", str(out), "--no-timestamp"])
    assert code == 0
    header, data = read_csv(out)
    assert header[0] == "time_ms"
    values = {tuple(row[1:]) for row in data}
    assert len(values) == 1  # identical measure columns at every time


def test_evolve_mix4_initial_populations(tmp_path):
    out = tmp_path / "mix.csv"
    code = run(["evolve", "--preset", "fig2-inset", "--t-max-ms", "1",
                "--samples", "3", "--out", str(out), "--no-timestamp"])
    assert code == 0
    header, data = read_csv(out)
    assert header == ["time_ms", "pop_ff", "pop_S", "pop_T", "pop_aa"]
    first = [float(x) for x in data[0][1:]]
    assert np.allclose(first, 0.25, atol=1e-9)


def test_evolve_invalid_samples(capsys):
    code = run(["evolve", "--scheme", "bell", "--initial", "ff",
                "--t-max-ms", "1", "--samples", "1"])
    assert code == 2
    assert "samples" in capsys.readouterr().err


def test_unknown_preset_lists_names(capsys):
    code = run(["steady", "--preset", "fig99"])
    assert code == 2
    err = capsys.readouterr().err
    assert "fig2" in err and "fig6-point" in err


def test_chsh_invalid_for_qutrit(capsys):
    code = run(["steady", "--preset", "fig6-point", "--outputs", "chsh"])
    assert code == 2
    assert "chsh" in capsys.readouterr().err


def test_unknown_output_name(capsys):
    code = run(["steady", "--preset", "fig2", "--outputs", "entropy"])
    assert code == 2
    assert "entropy" in capsys.readouterr().err


def test_missing_scheme(capsys):
    code = run(["steady", "--rabi-mhz", "0.01"])
    assert code == 2
    assert "scheme" in capsys.readouterr().err


def test_sweep_degenerate_grid_identical_values(tmp_path):
    out = tmp_path / "sweep.csv"
    code = run(["sweep", "--scheme", "bell", "--rabi-mhz", "0.036",
                "--microwave-rel", "0.004", "--gamma-khz", "1.673",
                "--axis", "urr-mhz", "4", "4", "2",
                "--axis", "gamma-khz", "1.673", "1.673", "2",
                "--reduce", "fidelity", "--out", str(out), "--no-timestamp"])
    assert code == 0
    header, data = read_csv(out)
    assert header == ["urr_mhz", "gamma_khz", "fidelity", "error"]
    assert len(data) == 4
    fids = {row[2] for row in data}
    assert len(fids) == 1
    assert all(row[3] == "" for row in data)


def test_sweep_records_per_point_failures(tmp_path):
    # gamma = 0 rows cannot converge to a unique steady state; the sweep
    # must keep going and record the error
    out = tmp_path / "sweep_err.csv"
    code = run(["sweep", "--scheme", "bell", "--rabi-mhz", "0.036",
                "--microwave-rel", "0.004",
                "--axis", "gamma-khz", "0", "1.673", "2",
                "--urr-mhz", "6.87",
                "--reduce", "fidelity", "--out", str(out), "--no-timestamp"])
    assert code == 0
    header, data = read_csv(out)
    assert len(data) == 2
    assert data[0][-1] != "" and math.isnan(float(data[0][header.index("fidelity")]))
    assert data[1][-1] == "" and float(data[1][header.index("fidelity")]) > 0.99


def test_sweep_row_major_order_and_delta_coupling(tmp_path):
    out = tmp_path / "grid.csv"
    code = run(["sweep", "--preset", "fig2",
                "--axis", "urr-mhz", "2", "8", "2",
                "--axis", "gamma-khz", "1", "2", "2",
                "--out", str(out), "--no-timestamp"])
    assert code == 0
    header, data = read_csv(out)
    coords = [(float(r[0]), float(r[1])) for r in data]
    assert coords == [(2, 1), (2, 2), (8, 1), (8, 2)]
    # Delta follows U_rr/2 even though the preset pins delta_mhz: fidelity
    # at U/2pi = 8 must beat U/2pi = 2 by a clear margin
    assert float(data[2][2]) > float(data[0][2])


def test_sweep_workers_match_serial(tmp_path):
    args = ["sweep", "--preset", "fig2", "--axis", "urr-mhz", "2", "6", "3",
            "--no-timestamp"]
    a, b = tmp_path / "serial.csv", tmp_path / "par.csv"
    assert run(args + ["--out", str(a)]) == 0
    assert run(args + ["--out", str(b), "--workers", "3"]) == 0
    assert a.read_text() == b.read_text()


def test_sweep_axis_validation(capsys):
    assert run(["sweep", "--preset", "fig2"]) == 2
    assert run(["sweep", "--preset", "fig2", "--axis", "urr-mhz", "1", "2", "1"]) == 2
    assert run(["sweep", "--preset", "fig2", "--axis", "bogus", "1", "2", "2"]) == 2
    assert run(["sweep", "--preset", "fig2", "--axis", "urr-mhz", "1", "2", "2",
                "--reduce", "populations"]) == 2


def test_determinism_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["evolve", "--preset", "fig2-inset", "--t-max-ms", "2", "--samples", "4",
            "--no-timestamp"]
    assert run(args + ["--out", str(a)]) == 0
    assert run(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_timestamp_header_present_by_default(tmp_path):
    out = tmp_path / "ts.csv"
    assert run(["steady", "--preset", "fig2", "--out", str(out)]) == 0
    assert "# generated:" in out.read_text()


def test_json_format_mirrors_csv(tmp_path):
    out_c, out_j = tmp_path / "o.csv", tmp_path / "o.json"
    args = ["steady", "--preset", "fig2", "--no-timestamp"]
    assert run(args + ["--out", str(out_c)]) == 0
    assert run(args + ["--out", str(out_j), "--format", "json"]) == 0
    doc = json.loads(out_j.read_text())
    header, data = read_csv(out_c)
    assert doc["columns"] == header
    assert doc["command"] == "steady"
    for got, want in zip(doc["rows"][0], data[0]):
        if isinstance(got, float):
            assert got == pytest.approx(float(want), rel=1e-15)
        else:
            assert str(got) == want


def test_sweep_json_writes_null_for_failed_points(tmp_path):
    # Omega = 0 leaves the ground manifold stationary: that point fails
    out = tmp_path / "sweep.json"
    code = run(["sweep", "--preset", "fig2", "--axis", "rabi-mhz", "0", "0.036", "2",
                "--format", "json", "--out", str(out), "--no-timestamp"])
    assert code == 0

    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    doc = json.loads(out.read_text(), parse_constant=reject)
    assert doc["columns"] == ["rabi_mhz", "fidelity", "error"]
    (_, failed, err0), (_, fid, err1) = doc["rows"]
    assert failed is None and "NonUniqueSteadyStateError" in err0
    assert fid > 0.99 and err1 == ""


@pytest.mark.parametrize("command", [["evolve", "--preset", "fig3"],
                                     ["steady", "--preset", "fig2"]])
def test_empty_outputs_rejected(command, capsys):
    assert run(command + ["--outputs", ","]) == 2
    assert "--outputs" in capsys.readouterr().err


def test_config_file_and_flag_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "scheme = bell\n"
        "rabi-mhz = 0.036\n"
        "microwave-rel = 0.004\n"
        "gamma-khz = 1.673\n"
        "urr_mhz = 2.0   # flag-style key, dash/underscore insensitive\n"
    )
    out1 = tmp_path / "cfg1.csv"
    assert run(["steady", "--config", str(cfg), "--out", str(out1), "--no-timestamp"]) == 0
    header, data = read_csv(out1)
    fid_low = float(data[0][header.index("fidelity")])
    out2 = tmp_path / "cfg2.csv"
    assert run(["steady", "--config", str(cfg), "--urr-mhz", "6.87",
                "--out", str(out2), "--no-timestamp"]) == 0
    _, data2 = read_csv(out2)
    fid_high = float(data2[0][header.index("fidelity")])
    assert fid_high > fid_low  # the explicit flag overrode the config value


def test_config_field_name_keys(tmp_path):
    cfg = tmp_path / "fields.cfg"
    cfg.write_text(
        "# Delta only: U_rr follows as 2*Delta\n"
        "scheme = bell\nrabi_optical = 0.036\nrabi_microwave_1 = 0.000144\n"
        "detuning = 3.435\ngamma = 1.673\n"
    )
    out = tmp_path / "f.csv"
    assert run(["steady", "--config", str(cfg), "--out", str(out), "--no-timestamp"]) == 0
    header, data = read_csv(out)
    assert float(data[0][header.index("fidelity")]) == pytest.approx(0.999, abs=0.005)

    # Each field-name file gives the same bytes as its twin: rydberg_U alone
    # implies Delta = U_rr/2, and rabi_microwave_2 defaults to rabi_microwave_1.
    twins = [
        ("scheme = bell\nrabi_optical = 0.036\nmicrowave_rel = 0.004\n"
         "rydberg_U = 6.87\ngamma = 1.673\n",
         "scheme = bell\nrabi-mhz = 0.036\nmicrowave-rel = 0.004\n"
         "urr-mhz = 6.87\ngamma-khz = 1.673\n"),
        ("scheme = qutrit\nrabi_optical = 0.055\nrabi_microwave_1 = 0.0004125\n"
         "detuning = 2.0\ngamma = 1.0\n",
         "scheme = qutrit\nrabi-mhz = 0.055\nrabi_microwave_1 = 0.0004125\n"
         "rabi_microwave_2 = 0.0004125\ndelta-mhz = 2.0\ngamma-khz = 1.0\n"),
    ]
    for k, (fields, flags) in enumerate(twins):
        outs = []
        for name, text in (("fields", fields), ("flags", flags)):
            cfg = tmp_path / f"{name}{k}.cfg"
            cfg.write_text(text)
            outs.append(tmp_path / f"{name}{k}.csv")
            assert run(["steady", "--config", str(cfg), "--out", str(outs[-1]),
                        "--no-timestamp"]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()
        header, data = read_csv(outs[0])
        assert float(data[0][header.index("fidelity")]) > 0.98  # resonant pumping


def test_config_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    for key in ("volume", "omega"):
        cfg.write_text(f"{key} = 11\n")
        assert run(["steady", "--config", str(cfg)]) == 2
        assert key in capsys.readouterr().err


def test_config_invalid_values(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("scheme = foo\n")
    assert run(["steady", "--config", str(cfg)]) == 2
    assert "unknown scheme 'foo'" in capsys.readouterr().err
    cfg.write_text("preset = fig2\ngamma-angular = ture\n")
    assert run(["steady", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "gamma-angular" in err and "ture" in err


def test_config_boolean_spellings(tmp_path):
    def steady(*args):
        out = tmp_path / "out.csv"
        assert run(["steady", *args, "--out", str(out), "--no-timestamp"]) == 0
        return out.read_bytes()

    cfg = tmp_path / "b.cfg"
    plain, angular = steady("--preset", "fig2"), steady("--preset", "fig2", "--gamma-angular")
    assert plain != angular
    for word, want in (("On", angular), ("YES", angular), ("1", angular),
                       ("off", plain), ("False", plain), ("0", plain)):
        cfg.write_text(f"preset = fig2\ngamma_angular = {word}\n")
        assert steady("--config", str(cfg)) == want, word


def test_import_leaves_out_scipy_integrate():
    src = str(Path(rydpump.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, rydpump.cli; print('scipy.integrate' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=120)
    assert done.stdout.strip() == "False"


def test_reproduce_figures_resolve():
    # Every reproduce target resolves to a valid run without solving.
    assert sorted(_REPRODUCE) == [
        "fig2", "fig2-inset", "fig3", "fig5", "fig5-inset", "fig6",
        "fig8a", "fig8b", "fig8c", "fig8d", "fig9a", "fig9b", "fig9c",
    ]
    for name, fig in _REPRODUCE.items():
        assert fig.name in models.PRESET_NAMES, name
        setup = RunSetup({"preset": fig.name, "reduce": fig.reduce})
        model = setup.model()
        model.initial_density(setup.initial)
        if fig.axes:
            assert all(axis in AXIS_NAMES for axis, *_ in fig.axes), name
            assert setup.validate_outputs([fig.reduce]) != ["populations"], name
        else:
            setup.validate_outputs(setup.outputs)


def test_reproduce_fig2(tmp_path):
    code = run(["reproduce", "fig2", "--out-dir", str(tmp_path), "--no-timestamp"])
    assert code == 0
    header, data = read_csv(tmp_path / "fig2.csv")
    assert header == ["urr_mhz", "fidelity", "error"]
    assert len(data) == 15
    fids = [float(r[1]) for r in data]
    assert fids[-1] > fids[0]


def test_reproduce_fig3_band(tmp_path):
    code = run(["reproduce", "fig3", "--out-dir", str(tmp_path), "--no-timestamp"])
    assert code == 0
    header, data = read_csv(tmp_path / "fig3.csv")
    assert header == ["time_ms", "chsh"]
    final = float(data[-1][1])
    assert final == pytest.approx(2.821, abs=0.01)
