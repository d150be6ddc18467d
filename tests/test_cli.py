import csv
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np
import pytest

import rydpump
from rydpump import dynamics, models
from rydpump.cli import (_OPTIONS, _REPRODUCE, RunSetup, _load_config, _outputs, _parser, main,
                         write_table)
from rydpump.grid import AXIS_NAMES, SCALAR_MEASURES, check_measures


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
    # Long-time propagation would converge to one of the stationary states;
    # the bordered LU's zero pivot rejects the model first, as for nullspace.
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


def test_evolve_rejects_non_finite_t_max(capsys):
    for t_max in ("inf", "nan"):
        assert run(["evolve", "--preset", "fig3", f"--t-max-ms={t_max}", "--samples", "5"]) == 2
        assert f"t-max-ms must be finite, got {t_max}" in capsys.readouterr().err


@pytest.mark.parametrize("argv, code, err", [
    pytest.param(["evolve", "--preset", preset, "--t-max-ms", "1e23", "--samples", "3"], 3,
                 "non-finite state at t = 5e+19 s", id=preset)
    for preset in ("fig3", "fig5-inset")
] + [
    pytest.param(["steady", "--preset", "fig2", "--delta-mhz", "2e301", "--urr-mhz", "0"], 2,
                 "the Liouvillian has a non-finite entry", id="steady-fig2-delta-2e301"),
])
def test_evolve_overflow_is_a_numerical_failure(argv, code, err, capsys):
    # Over 1e23 ms the propagators overflow: the first non-finite state is
    # a numerical failure (exit 3), not an invalid specification, and its
    # one error line is all that is written, with no floating-point warning.
    # A detuning of 2e301 MHz overflows H itself, and the generator's
    # finiteness check rejects it (exit 2) with no warning either.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(argv) == code
    assert capsys.readouterr().err == f"error: {err}\n"


# The head of each run's error line, after "error: non-unique steady state: ".
NORM_AT_FLOOR = "||L^D||_2 {} at the rounding floor, 1/||L^D||_2 <= "
NOT_FINITE = NORM_AT_FLOOR.format("is not finite,")


@pytest.mark.parametrize("flags, head", [
    (["--urr-mhz", "0", "--delta-mhz", "1e50"], NORM_AT_FLOOR.format("= 2.782e+100 s is")),
    (["--urr-mhz", "0", "--delta-mhz", "1e100"], NOT_FINITE),
    (["--gamma-khz", "1e-300"], NOT_FINITE),
    (["--gamma-khz", "1e300"], NOT_FINITE),
    (["--microwave-rel", "1e300"],
     "1 exactly zero pivot(s) in the LU factors of the trace-bordered Liouvillian\n"),
], ids=[f"flags{i}" for i in range(5)])
def test_non_finite_drazin_norm_is_named_not_printed(flags, head, capsys):
    # Where the generator's scale defeats the power iteration, ||L^D||_2
    # comes out inf or nan: the steady state is not unique (exit 4), and the
    # one error line says the norm is not finite rather than print it.  At
    # Delta/2pi = 1e50 MHz the norm comes out finite, still at the floor,
    # and is printed; at omega/Omega = 1e300 the band LU meets an exactly
    # zero pivot first.
    assert run(["steady", "--preset", "fig2", *flags]) == 4
    err = capsys.readouterr().err
    assert err.startswith(f"error: non-unique steady state: {head}")
    assert err.count("\n") == 1 and err.count("error:") == 1
    assert not {"nan", "inf"} & set(err.replace(",", " ").split())


def test_sweep_over_overflowing_points_writes_no_warning(capsys):
    # Every point fails, in its error cell; the run succeeds and writes
    # nothing to stderr, numpy's floating-point warnings included.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["sweep", "--preset", "fig2", "--axis", "delta-mhz", "1e301", "2e301", "2",
                    "--axis", "urr-mhz", "0", "1", "2", "--no-timestamp"]) == 0
    out = capsys.readouterr()
    assert out.err == ""
    rows = list(csv.reader(out.out.splitlines()[2:]))
    assert len(rows) == 4
    assert [row[2] for row in rows] == ["nan"] * 4
    # At 1e301 MHz the generator is finite but ||L^D||_2 comes out nan; at
    # 2e301 MHz H overflows.
    assert all(row[3].startswith("NonUniqueSteadyStateError: ") for row in rows[:2])
    assert {row[3] for row in rows[2:]} == {"ValueError: the Liouvillian has a non-finite entry"}


@pytest.mark.parametrize("samples", ["0", "-3", "5"])
def test_evolve_needs_one_sample_at_time_zero(samples, capsys):
    # A zero-length grid has exactly one sample; the error names the flag.
    assert run(["evolve", "--preset", "fig3", "--samples", samples, "--t-max-ms", "0"]) == 2
    assert capsys.readouterr().err == (
        f"error: samples must be 1 when t-max-ms is 0, got {samples}\n")


def test_evolve_one_sample_at_time_zero(capsys):
    assert run(["evolve", "--preset", "fig3", "--samples", "1", "--t-max-ms", "0",
                "--outputs", "populations", "--no-timestamp"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3 and lines[2].startswith("0.00000000000000000e+00,")


@pytest.mark.parametrize("argv, config, err", [
    (["steady"], "preset = fig2\nnot a pair\n",
     "{cfg}:2: expected 'key = value', got 'not a pair'"),
    (["steady"], "preset = fig2\nformat = xml\n", "unknown format 'xml'; expected csv or json"),
    (["evolve", "--scheme", "bell"], None, "no initial state given: use --initial or --preset"),
    (["evolve", "--preset", "fig3", "--t-max-ms", "-1"], None,
     "t-max-ms must be nonnegative, got -1.0"),
    (["sweep", "--preset", "fig2", "--axis", "urr-mhz", "1", "8", "3", "--axis", "gamma-khz",
      "0.5", "2.5", "3", "--axis", "rabi-mhz", "0.02", "0.1", "3"], None,
     "sweep supports at most two axes"),
])
def test_invalid_run_message(argv, config, err, tmp_path, capsys):
    # A config line without '=', a config format that is neither csv nor
    # json, an evolve with no initial state, a negative duration and a
    # third sweep axis each exit 2 with their message and no output.
    if config is not None:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config)
        argv = argv + ["--config", str(cfg)]
    assert run(argv) == 2
    out = capsys.readouterr()
    assert (out.out, out.err) == ("", f"error: {err.format(cfg=tmp_path / 'run.cfg')}\n")


def test_evolve_unknown_initial_message(capsys):
    # The message is printed as it is, not as the repr of a KeyError's text.
    assert run(["evolve", "--preset", "fig3", "--initial", "zz"]) == 2
    assert capsys.readouterr().err == (
        "error: unknown state 'zz'; known: "
        "['S', 'T', 'aa', 'af', 'ar', 'fa', 'ff', 'fr', 'ra', 'rf', 'rr']\n")


def test_run_too_large_for_memory_is_one_error_line(monkeypatch, capsys):
    # The time grid of 2^31 * 1000 samples needs 15.6 TiB: numpy raises a
    # MemoryError, which the stub raises without allocating anything.
    msg = ("Unable to allocate 15.6 TiB for an array with shape (2147483648000,) "
           "and data type float64")

    def no_memory(*args, **kwargs):
        raise MemoryError(msg)

    monkeypatch.setattr(np, "linspace", no_memory)
    assert run(["evolve", "--preset", "fig3", "--samples", "2147483648000"]) == 2
    out = capsys.readouterr()
    assert (out.out, out.err) == ("", f"error: {msg}\n")


@pytest.mark.parametrize("command", ["steady", "sweep"])
def test_initial_is_offered_only_to_evolve(command, capsys):
    # steady and sweep read no initial state, so they reject the flag.
    argv = [command, "--preset", "fig2", "--initial", "ff"]
    if command == "sweep":
        argv += ["--axis", "urr-mhz", "6", "8", "2"]
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments: --initial ff" in capsys.readouterr().err


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


def test_sweep_axis_validation(capsys):
    assert run(["sweep", "--preset", "fig2"]) == 2
    assert run(["sweep", "--preset", "fig2", "--axis", "urr-mhz", "1", "2", "1"]) == 2
    assert run(["sweep", "--preset", "fig2", "--axis", "bogus", "1", "2", "2"]) == 2
    assert run(["sweep", "--preset", "fig2", "--axis", "urr-mhz", "1", "2", "2",
                "--reduce", "populations"]) == 2
    capsys.readouterr()
    # Each axis is checked before any point is solved, and the error names it.
    for axes, text in (
            ([["urr-mhz", "1", "8", "3"], ["urr-mhz", "1", "2", "2"]], "'urr-mhz' is given twice"),
            ([["urr-mhz", "nan", "8", "3"]], "'urr-mhz' needs finite MIN and MAX"),
            ([["gamma-khz", "1", "inf", "3"]], "'gamma-khz' needs finite MIN and MAX"),
            ([["urr-mhz", "1", "8", "3.5"]], "'urr-mhz' needs an integer STEPS, got '3.5'"),
            ([["urr-mhz", "abc", "8", "3"]],
             "'urr-mhz' needs numeric MIN and MAX, got 'abc' and '8'"),
            ([["gamma-khz", "1", "2", "2"], ["rabi-mhz", "0.1", "x", "2"]],
             "'rabi-mhz' needs numeric MIN and MAX, got '0.1' and 'x'")):
        argv = ["sweep", "--preset", "fig2"] + [a for axis in axes for a in ["--axis", *axis]]
        assert run(argv) == 2, axes
        assert text in capsys.readouterr().err, axes
    # Delta and U_rr are two axes, not one given twice.
    assert run(["sweep", "--preset", "fig2", "--axis", "delta-mhz", "1", "4", "2",
                "--axis", "urr-mhz", "2", "8", "2", "--no-timestamp"]) == 0
    rows = capsys.readouterr().out.splitlines()[2:]
    assert len(rows) == 4 and all(row.endswith(",") for row in rows)  # no error text


@pytest.mark.parametrize("axes, sizes", [
    ([["rabi-mhz", "0", "1", "99999999999999999999999"]],
     "99999999999999999999999: rabi-mhz STEPS 99999999999999999999999"),
    ([["rabi-mhz", "0", "1", "2000"], ["microwave-rel", "0", "0.01", "1000"]],
     "2000000: rabi-mhz STEPS 2000, microwave-rel STEPS 1000"),
])
def test_sweep_grid_is_capped_before_it_is_built(axes, sizes, monkeypatch, capsys):
    # A grid of more than 10**6 points is rejected, with its axes and their
    # STEPS named, before any grid array is made or any point solved.
    def no_grid(*args, **kwargs):
        raise AssertionError("grid built")
    monkeypatch.setattr(np, "linspace", no_grid)
    argv = ["sweep", "--preset", "fig2"] + [a for axis in axes for a in ["--axis", *axis]]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err == f"error: a sweep grid holds at most 1000000 points, got {sizes}\n"
    # A grid of exactly 10**6 points passes the cap and is built.
    with pytest.raises(AssertionError, match="grid built"):
        run(["sweep", "--preset", "fig2", "--axis", "rabi-mhz", "0", "1", "1000",
             "--axis", "gamma-khz", "0.5", "2.5", "1000"])


BELL_CAPTION = dict(rabi_mhz=0.036, microwave_rel=0.004, gamma_khz=1.673)
BELL = models.SchemeVariant("bell", "singlet")


def test_sweep_makes_each_point_when_it_reaches_it(monkeypatch):
    # The sweep holds the coordinates, the values and the error texts, and
    # one point's caption at a time: with the solve stubbed, a 300 x 300
    # grid peaks under 8 MB (a caption per point made up front took 30 MB).
    last = {}
    monkeypatch.setattr(rydpump.grid, "steady_point",
                        lambda caption, *args: last.update(caption) or (["chsh"], [2.5], {}))
    axes = [("rabi-mhz", 0.01, 0.1, 300), ("microwave-rel", 0.001, 0.01, 300)]
    tracemalloc.start()
    try:
        coords, values, errors = rydpump.sweep(BELL_CAPTION, BELL, axes, "chsh")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8e6
    assert coords.shape == (90000, 2) and coords[-1].tolist() == [0.1, 0.01]
    assert (values == 2.5).all() and errors == [""] * 90000
    assert last == dict(BELL_CAPTION, rabi_mhz=0.1, microwave_rel=0.01)


def steady_value(caption, variant=BELL, measure="fidelity"):
    """The measure of the steady state at caption, solved directly."""
    model = models.build_model(models.caption_params(**caption), variant)
    rho = dynamics.steady_state(dynamics.build_liouvillian(model))
    return float(rydpump.grid.measure_columns(model, [measure], rho[None])[1][0, 0])


def test_sweep_function_row_major_with_errors():
    coords, values, errors = rydpump.sweep(
        dict(BELL_CAPTION, urr_mhz=6.87), BELL,
        [("gamma-khz", 0.0, 1.673, 2), ("rabi-mhz", 0.0, 0.036, 2)], "fidelity")
    assert coords.tolist() == [[0.0, 0.0], [0.0, 0.036], [1.673, 0.0], [1.673, 0.036]]
    assert all(math.isnan(v) for v in values[:3])
    # Each failed point keeps its "{Type}: {message}" text and the sweep goes on.
    assert all(e.startswith("NonUniqueSteadyStateError: non-unique steady state")
               for e in errors[:3])
    assert errors[3] == "" and values[3] == steady_value(dict(BELL_CAPTION, urr_mhz=6.87))


def test_sweep_function_checks_reduce_before_solving(monkeypatch):
    # The library sweep rejects what the CLI rejects, before any point is solved.
    solved = []
    monkeypatch.setattr(dynamics, "steady_state", lambda *args, **kw: solved.append(args))
    qutrit, caption = models.SchemeVariant("qutrit", "phi"), models.FIGURES["fig6-point"].caption
    for variant, reduce, text in ((qutrit, "chsh", "only defined for the bell scheme"),
                                  (BELL, "populations", "must be a scalar measure"),
                                  (BELL, "bogus", "unknown output 'bogus'")):
        with pytest.raises(ValueError, match=text):
            rydpump.sweep(caption, variant, [("urr-mhz", 1.0, 8.0, 3)], reduce)
    assert solved == []


def test_sweep_function_rejects_an_unknown_caption_key(monkeypatch):
    # A key that caption_params does not take is rejected before any point
    # is solved; a value it rejects fails only the points that keep it.
    solved = []
    steady_state = dynamics.steady_state
    monkeypatch.setattr(dynamics, "steady_state",
                        lambda *args, **kw: solved.append(args) or steady_state(*args, **kw))
    with pytest.raises(ValueError, match=r"^unknown caption key 'bogus'; expected one of "
                                         r"rabi_mhz, microwave_rel, .*, gamma_angular$"):
        rydpump.sweep(dict(BELL_CAPTION, bogus=1.0), BELL, [("urr-mhz", 1.0, 8.0, 2)], "fidelity")
    assert solved == []
    negative = dict(BELL_CAPTION, gamma_khz=-1.0)
    _, values, errors = rydpump.sweep(negative, BELL, [("urr-mhz", 6.0, 8.0, 2)], "fidelity")
    assert errors == ["ValueError: gamma must be a finite nonnegative real, got -1000.0"] * 2
    assert all(math.isnan(v) for v in values) and solved == []
    _, values, errors = rydpump.sweep(negative, BELL, [("gamma-khz", 1.0, 2.0, 2)], "fidelity")
    assert errors == ["", ""] and all(0 < v <= 1 for v in values) and len(solved) == 2


def test_sweep_function_needs_integral_steps(monkeypatch):
    # A fractional STEPS is rejected before any point is solved, as the CLI
    # rejects "3.5"; an integral one runs that many points.
    solved = []
    steady_state = dynamics.steady_state
    monkeypatch.setattr(dynamics, "steady_state",
                        lambda *args, **kw: solved.append(args) or steady_state(*args, **kw))
    with pytest.raises(ValueError, match=r"axis 'urr-mhz' needs an integer STEPS, got 3\.5"):
        rydpump.sweep(BELL_CAPTION, BELL, [("urr-mhz", 1.0, 8.0, 3.5)], "fidelity")
    assert solved == []
    coords, _, errors = rydpump.sweep(BELL_CAPTION, BELL, [("urr-mhz", 1.0, 8.0, 3)], "fidelity")
    assert coords.ravel().tolist() == [1.0, 4.5, 8.0] and errors == ["", "", ""]
    assert len(solved) == 3


def test_sweep_function_names_the_axis_of_a_non_numeric_bound(monkeypatch):
    # MIN and MAX are converted after the axis name is checked, and an
    # error names the axis; no point is solved.
    solved = []
    monkeypatch.setattr(dynamics, "steady_state", lambda *args, **kw: solved.append(args))
    for spec, text in ((("urr-mhz", "abc", 8, 3), r"axis 'urr-mhz' needs numeric MIN and MAX, "
                                                  r"got 'abc' and 8"),
                       (("gamma-khz", 1.0, None, 3), r"axis 'gamma-khz' needs numeric MIN and "
                                                     r"MAX, got 1\.0 and None"),
                       (("bogus", "abc", 8, 3), r"unknown axis 'bogus'")):
        with pytest.raises(ValueError, match=text):
            rydpump.sweep(BELL_CAPTION, BELL, [spec], "fidelity")
    assert solved == []


def test_sweep_reduces_to_the_presets_measure(capsys):
    # Without --reduce a sweep reduces to its preset's measure.
    for preset, measure in (("fig6-point", "negativity"), ("fig2", "fidelity")):
        assert run(["sweep", "--preset", preset, "--axis", "urr-mhz", "1", "10", "2",
                    "--no-timestamp"]) == 0
        assert capsys.readouterr().out.splitlines()[1] == f"urr_mhz,{measure},error"


def test_sweep_function_missing_leg_follows_the_swept_one():
    # The caption gives neither Delta nor U_rr: each swept U_rr brings its
    # resonant Delta = U_rr/2, and each swept Delta its U_rr = 2*Delta.
    for axis, key in (("urr-mhz", "urr_mhz"), ("delta-mhz", "delta_mhz")):
        coords, values, errors = rydpump.sweep(BELL_CAPTION, BELL, [(axis, 2.0, 4.0, 2)],
                                               "fidelity")
        assert errors == ["", ""]
        for (x,), got in zip(coords, values):
            assert got == steady_value(dict(BELL_CAPTION, **{key: x}))
    # A leg the caption gives stays put.
    _, values, _ = rydpump.sweep(dict(BELL_CAPTION, delta_mhz=3.0), BELL,
                                 [("urr-mhz", 6.0, 8.0, 2)], "fidelity")
    assert values.tolist() == [steady_value(dict(BELL_CAPTION, delta_mhz=3.0, urr_mhz=u))
                               for u in (6.0, 8.0)]


def test_sweep_function_sweeps_a_preset_like_the_cli(capsys):
    # A preset's caption without its Delta sweeps as `sweep --preset` does
    # along U_rr: each swept U_rr brings Delta = U_rr/2.
    caption = dict(models.FIGURES["fig6-point"].caption)
    del caption["delta_mhz"]
    axes = [("urr-mhz", 6.0, 10.0, 2), ("gamma-khz", 0.5, 2.5, 2)]
    variant = models.figure_preset("fig6-point").variant
    _, values, errors = rydpump.sweep(caption, variant, axes, "negativity")
    argv = ["sweep", "--preset", "fig6-point"]
    for name, lo, hi, steps in axes:
        argv += ["--axis", name, str(lo), str(hi), str(steps)]
    assert errors == [""] * 4
    assert [f"{v:.17e}" for v in values] == [
        f"{v:.17e}" for v in cli_values(capsys, argv, "negativity")]


def test_sweep_reads_gamma_angular_from_the_caption(capsys):
    # gamma_angular is a caption_params keyword, so a caption may hold it;
    # every point then reads gamma_khz as angular, as --gamma-angular does.
    axes = [("urr-mhz", 1, 8, 3), ("gamma-khz", 0.5, 2.5, 2)]
    variant = models.figure_preset("fig8b").variant
    caption = dict(models.FIGURES["fig8b"].caption)
    del caption["delta_mhz"]  # as `sweep --preset fig8b` drops it along U_rr
    _, values, errors = rydpump.sweep(dict(caption, gamma_angular=True), variant, axes,
                                      "fidelity")
    _, plain, _ = rydpump.sweep(caption, variant, axes, "fidelity")
    argv = ["sweep", "--preset", "fig8b", "--gamma-angular"]
    for name, lo, hi, steps in axes:
        argv += ["--axis", name, str(lo), str(hi), str(steps)]
    assert errors == [""] * 6
    assert [f"{v:.17e}" for v in values] == [f"{v:.17e}" for v in cli_values(capsys, argv)]
    assert not np.array_equal(values, plain)


def test_override_rule():
    # The microwave spellings replace each other; a leg of Delta and U_rr
    # never drops the other.
    caption = {"microwave_mhz": 1.0, "delta_mhz": 3.0}
    rydpump.grid.override(caption, "microwave_rel", 0.004)
    rydpump.grid.override(caption, "urr_mhz", 6.0)
    assert caption == {"microwave_rel": 0.004, "delta_mhz": 3.0, "urr_mhz": 6.0}
    rydpump.grid.override(caption, "microwave_mhz", 2.0)
    rydpump.grid.override(caption, "delta_mhz", 2.0)
    assert caption == {"microwave_mhz": 2.0, "delta_mhz": 2.0, "urr_mhz": 6.0}


FIG2_DRIVES = dict(rabi_mhz=0.036, microwave_rel=0.004, gamma_khz=1.673)


@pytest.mark.parametrize("preset, flags, fields, axes, legs", [
    ("fig2", {}, {}, [], {"delta_mhz": 3.435}),
    ("fig2", {"urr_mhz": 6.0}, {}, [], {"urr_mhz": 6.0}),
    ("fig2", {"delta_mhz": 3.0}, {}, [], {"delta_mhz": 3.0}),
    ("fig2", {"delta_mhz": 3.0, "urr_mhz": 6.5}, {}, [], {"delta_mhz": 3.0, "urr_mhz": 6.5}),
    ("fig2", {}, {}, [["urr-mhz", "1", "8", "3"]], {}),
    ("fig2", {"delta_mhz": 3.0}, {}, [["urr-mhz", "1", "8", "3"]], {"delta_mhz": 3.0}),
    ("fig2", {}, {"detuning": 3.0}, [], {"delta_mhz": 3.0}),
    ("fig8a", {}, {}, [["delta-mhz", "1", "3", "2"]], {}),
])
def test_run_setup_caption(preset, flags, fields, axes, legs, tmp_path):
    # The preset's Delta and U_rr are one default: a field, a flag or an
    # axis that gives either leg drops both, and every leg the user gives
    # stays.  The caption holds no axis value; the sweep sets those.
    opts = {"preset": preset, "axis": axes or None, **flags}
    if fields:
        config = tmp_path / "run.cfg"
        config.write_text("".join(f"{key} = {value}\n" for key, value in fields.items()))
        opts["config"] = str(config)
    drives = FIG2_DRIVES if preset == "fig2" else dict(FIG2_DRIVES, gamma_khz=1.0)
    assert RunSetup(opts).caption == {**drives, **legs}


def cli_values(capsys, argv, column="fidelity"):
    """The values of one column of the table a CLI run writes to stdout."""
    assert run(argv + ["--no-timestamp"]) == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if not l.startswith("#")]
    rows = list(csv.reader(lines))
    return [float(r[rows[0].index(column)]) for r in rows[1:]]


def test_steady_one_leg_flag_follows_like_sweep(capsys):
    # fig2 pins Delta; a U_rr flag replaces it, so Delta = U_rr/2 follows in
    # steady exactly as it does at a sweep point.
    steady = cli_values(capsys, ["steady", "--preset", "fig2", "--urr-mhz", "6"])
    swept = cli_values(capsys, ["sweep", "--preset", "fig2", "--axis", "urr-mhz", "6", "6", "2"])
    assert steady == swept[:1] == [9.98561674816442535e-01]


def test_steady_both_legs_given_stay_put(capsys):
    got = cli_values(capsys, ["steady", "--preset", "fig2", "--delta-mhz", "3", "--urr-mhz", "6"])
    assert got == [steady_value(dict(BELL_CAPTION, delta_mhz=3.0, urr_mhz=6.0))]


def test_sweep_over_urr_keeps_explicit_delta(capsys):
    got = cli_values(capsys, ["sweep", "--preset", "fig2", "--delta-mhz", "3",
                     "--axis", "urr-mhz", "2", "8", "2"])
    assert got == [steady_value(dict(BELL_CAPTION, delta_mhz=3.0, urr_mhz=u)) for u in (2, 8)]


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


def test_json_timestamp_is_utc_and_the_only_difference(capsys):
    # Without --no-timestamp the JSON document gains one key, "generated",
    # the UTC time of the run to the second.
    argv = ["steady", "--preset", "fig2", "--format", "json"]
    before = datetime.now(timezone.utc).replace(microsecond=0)
    assert run(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    generated = datetime.fromisoformat(doc.pop("generated"))
    assert generated.utcoffset() == timedelta(0)
    assert before <= generated <= datetime.now(timezone.utc)
    assert run(argv + ["--no-timestamp"]) == 0
    assert doc == json.loads(capsys.readouterr().out)


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


@pytest.mark.parametrize("command, name", [
    (["steady", "--preset", "fig2", "--outputs", "fidelity,fidelity"], "fidelity"),
    (["evolve", "--preset", "fig3", "--outputs", "chsh,chsh"], "chsh")])
def test_repeated_output_rejected(command, name, capsys):
    assert run(command) == 2
    captured = capsys.readouterr()
    assert f"output {name!r} is given twice" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("command", [
    ["steady", "--config", "{tmp}/missing.cfg"],
    ["steady", "--preset", "fig2", "--out", "{tmp}/no/such/dir/x.csv"],
    ["reproduce", "fig3", "--out-dir", "{tmp}/no/such/dir"],
], ids=["config", "out", "out-dir"])
def test_file_errors_are_invalid_specifications(command, tmp_path, capsys):
    # A file that cannot be read or written is a bad specification: exit 2
    # with a one-line message, not a traceback.
    code = run([arg.format(tmp=tmp_path) for arg in command])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "No such file or directory" in err
    assert not (tmp_path / "no").exists()


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


def test_workers_option_is_gone(tmp_path, capsys):
    # Sweep points run in one process: no flag or config key selects a pool.
    sweep = ["sweep", "--preset", "fig2", "--axis", "urr-mhz", "2", "6", "2"]
    for argv in (sweep + ["--workers", "2"], ["reproduce", "fig2", "--workers", "2",
                                              "--out-dir", str(tmp_path)]):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments: --workers 2" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())
    cfg = tmp_path / "workers.cfg"
    cfg.write_text("workers = 2\n")
    assert run(sweep + ["--config", str(cfg)]) == 2
    assert capsys.readouterr().err == f"error: unknown config key 'workers' in {cfg}\n"
    with pytest.raises(TypeError, match="workers"):
        rydpump.sweep(BELL_CAPTION, BELL, [("urr-mhz", 2.0, 6.0, 2)], "fidelity", workers=2)


def test_config_rejects_a_repeated_key(tmp_path, capsys):
    # Keys compare normalised, so rabi-mhz and rabi_mhz are one key.  A
    # flag name beside a field name for the same value stays allowed.
    cfg = tmp_path / "twice.cfg"
    for text, key in (("preset = fig2\npreset = fig6-point\n", "preset"),
                      ("preset = fig2\nrabi-mhz = 0.05\nrabi_mhz = 0.036\n", "rabi_mhz"),
                      ("scheme = bell\ngamma = 1\nGamma = 2\n", "Gamma")):
        cfg.write_text(text)
        assert run(["steady", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        out = capsys.readouterr()
        assert (out.out, out.err) == ("", f"error: config key {key!r} is given twice in {cfg}\n")
    assert not (tmp_path / "o").exists()
    cfg.write_text("scheme = bell\ndetuning = 3.0\ndelta-mhz = 3.435\n")
    assert _load_config(str(cfg), {"scheme": None, "delta_mhz": None}) == \
        {"scheme": "bell", "delta_mhz": 3.435}


def test_config_invalid_values(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("scheme = foo\n")
    assert run(["steady", "--config", str(cfg)]) == 2
    assert "unknown scheme 'foo'" in capsys.readouterr().err
    cfg.write_text("preset = fig2\ngamma-angular = ture\n")
    assert run(["steady", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "gamma-angular" in err and "ture" in err
    # Every value error names the key and the file, not only the boolean's.
    for command, text, needs in (
            ("evolve", "samples = 2.5", "'samples' in {} needs an integer, got '2.5'"),
            ("steady", "gamma = fast", "'gamma' in {} needs a number, got 'fast'")):
        cfg.write_text(f"preset = fig2\n{text}\n")
        assert run([command, "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == f"error: config key {needs.format(cfg)}\n"


# Every (subcommand, key) of cli._OPTIONS whose dest the subcommand's
# parser lacks, with a value that is valid where the key is read.
IGNORED_KEYS = [("evolve", "method", "evolve"), ("evolve", "reduce", "chsh"),
                ("steady", "initial", "ff"), ("steady", "reduce", "chsh"),
                ("steady", "samples", "7"), ("steady", "t-max-ms", "5"),
                ("sweep", "initial", "ff"), ("sweep", "method", "evolve"),
                ("sweep", "outputs", "chsh"), ("sweep", "samples", "7"),
                ("sweep", "t_max_ms", "5")]
CONFIG_RUNS = {"evolve": ["evolve", "--preset", "fig3"],
               "steady": ["steady", "--preset", "fig2"],
               "sweep": ["sweep", "--preset", "fig8a", "--axis", "rabi-mhz", "0.02", "0.1", "2"]}


@pytest.mark.parametrize("command, key, value", IGNORED_KEYS,
                         ids=[f"{c}-{k}" for c, k, _ in IGNORED_KEYS])
def test_config_rejects_a_key_its_subcommand_does_not_read(command, key, value, tmp_path,
                                                           capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = {value}\n")
    assert run(CONFIG_RUNS[command] + ["--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    out = capsys.readouterr()
    assert (out.out, out.err) == ("", f"error: unknown config key {key!r} in {cfg}\n")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", sorted(CONFIG_RUNS))
def test_config_keys_are_the_dests_of_the_subcommand(command, tmp_path):
    # A flag-name key is accepted exactly when the subcommand's parser has
    # its dest; both spellings of a dest name the same key.
    dests = vars(_parser().parse_args([command]))
    cfg = tmp_path / "run.cfg"
    for dest, kind in _OPTIONS.items():
        for key in (dest, dest.replace("_", "-")):
            cfg.write_text(f"{key} = 1\n")
            if dest in dests:
                assert _load_config(str(cfg), dests) == {dest: kind("1")}, (command, key)
            else:
                with pytest.raises(ValueError, match=f"^unknown config key {key!r} in "):
                    _load_config(str(cfg), dests)


@pytest.mark.parametrize("command, text, rows, column, cell", [
    ("evolve", "samples = 7", 7, "time_ms", None),
    ("steady", "method = evolve", 1, "backend", "evolve"),
    ("sweep", "reduce = chsh", 2, "chsh", None),
])
def test_config_sets_what_its_subcommand_reads(command, text, rows, column, cell, tmp_path):
    cfg, out = tmp_path / "run.cfg", tmp_path / "out.csv"
    cfg.write_text(text + "\n")
    assert run(CONFIG_RUNS[command] + ["--config", str(cfg), "--out", str(out),
                                       "--no-timestamp"]) == 0
    header, data = read_csv(out)
    assert len(data) == rows and column in header
    assert cell is None or [row[header.index(column)] for row in data] == [cell]


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


def test_import_leaves_out_multiprocessing():
    # Sweeps run in one process, so nothing imports multiprocessing.
    src = str(Path(rydpump.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, rydpump.cli; print('multiprocessing' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=120)
    assert done.stdout.strip() == "False"


def test_import_leaves_out_scipy_sparse_linalg():
    # scipy.sparse.linalg would add to every CLI start-up; nothing uses it.
    src = str(Path(rydpump.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, rydpump.cli; print('scipy.sparse.linalg' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=120)
    assert done.stdout.strip() == "False"


def test_sweep_leaves_out_scipy_sparse_linalg(tmp_path):
    # Sweep points are certified without the gap or scipy.sparse.linalg.
    src = str(Path(rydpump.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = tmp_path / "sweep.csv"
    code = ("import sys\nfrom rydpump.cli import main\n"
            f"code = main(['sweep', '--preset', 'fig8a', '--axis', 'rabi-mhz', '0.02', '0.1', '2', "
            f"'--axis', 'microwave-rel', '0.002', '0.01', '2', '--reduce', 'chsh', "
            f"'--out', {str(out)!r}])\n"
            "print(code, 'scipy.sparse.linalg' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=120)
    assert done.stdout.splitlines()[-1] == "0 False"
    _, data = read_csv(out)
    assert len(data) == 4 and all(row[-1] == "" for row in data)


@pytest.mark.parametrize("method", ["nullspace", "evolve"])
def test_steady_leaves_out_scipy_sparse_linalg(tmp_path, method):
    # Neither backend imports scipy.sparse.linalg: both certify the state
    # from the bordered LU, and the evolve backend computes no gap.
    src = str(Path(rydpump.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = tmp_path / "steady.csv"
    code = ("import sys\nfrom rydpump.cli import main\n"
            f"code = main(['steady', '--preset', 'fig8a', '--method', {method!r}, "
            f"'--out', {str(out)!r}])\n"
            "print(code, 'scipy.sparse.linalg' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=120)
    assert done.stdout.splitlines()[-1] == "0 False"
    header, data = read_csv(out)
    assert header[-2:] == ["residual", "backend"] and data[0][-1] == method


@pytest.mark.parametrize("method", ["nullspace", "evolve"])
def test_steady_residual_is_the_certified_one(method, capsys):
    # The residual column is the one steady_state certified, bit for bit.
    assert run(["steady", "--preset", "fig8a", "--method", method, "--format", "json",
                "--no-timestamp"]) == 0
    row = json.loads(capsys.readouterr().out)["rows"][0]
    pre = models.figure_preset("fig8a")
    L = dynamics.build_liouvillian(models.build_model(pre.params, pre.variant))
    _, info = dynamics.steady_state(L, method=method, return_info=True)
    assert row[-2:] == [info["residual"], method]


def test_steady_evolve_fails_where_its_certificate_levels_off(monkeypatch, capsys):
    # Off resonance at fig2 the evolve state's certificate levels off near
    # 4e-8: the backend stops where it no longer falls, after 23 of its 60
    # doublings, and the state fails the 1e-8 bound (exit 3).
    # The bordered solve passes at the same point.
    doublings = []
    finalize = dynamics._finalize
    monkeypatch.setattr(dynamics, "_finalize",
                        lambda L, v, info: doublings.append(info.get("doublings"))
                        or finalize(L, v, info))
    argv = ["steady", "--preset", "fig2", "--urr-mhz", "6", "--delta-mhz", "3.15",
            "--gamma-khz", "1.673", "--no-timestamp", "--method"]
    assert run(argv + ["evolve"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: steady-state error bound ||L^D|| ||L rho|| = ")
    assert err.endswith(" exceeds 1e-08 (backend evolve)\n")
    assert len(doublings) == 1 and 20 <= doublings[0] <= 30
    assert run(argv + ["nullspace"]) == 0
    assert doublings[1:] == [None]


def test_steady_evolve_doubles_until_its_certificate_levels_off(capsys):
    # With a 100 kHz decay and a slow pump the certificate keeps falling for
    # 44 doublings and levels off at 1.3e-6; a backend that stopped after 40
    # would report 1.2e-4.  The state fails the 1e-8 bound either way.
    assert run(["steady", "--scheme", "bell", "--rabi-mhz", "1e-4", "--microwave-rel", "1e-6",
                "--urr-mhz", "6", "--delta-mhz", "3", "--gamma-khz", "1e5",
                "--method", "evolve"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: steady-state error bound ||L^D|| ||L rho|| = ")
    assert float(err.split(" = ")[1].split()[0]) < 1e-5


def test_steady_computes_the_residual_once(monkeypatch):
    # steady prints the residual that steady_state certified; the only
    # call to dynamics.residual is _finalize's.
    calls = []
    residual = dynamics.residual
    monkeypatch.setattr(dynamics, "residual",
                        lambda *args: calls.append(args) or residual(*args))
    for method in ("nullspace", "evolve"):
        assert run(["steady", "--preset", "fig8a", "--method", method, "--no-timestamp"]) == 0
        assert len(calls) == 1, method
        calls.clear()


def csv_writer_table(command, columns, rows):
    """The table text of write_table's former per-cell path: f"{v:.17e}" for
    every float and str() otherwise, each row through csv.writer (oracle for
    the single template).  The rows are written with the line terminator
    "\r\n", which makes csv.writer quote a cell holding a bare "\r" too, and
    each row then ends in "\n"."""
    buf = io.StringIO()
    buf.write(f"# rydpump {command}\n")
    csv.writer(buf, lineterminator="\n").writerow(columns)
    for row in rows:
        line = io.StringIO()
        csv.writer(line, lineterminator="\r\n").writerow(
            [f"{v:.17e}" if isinstance(v, float) else str(v) for v in row])
        buf.write(line.getvalue()[:-2] + "\n")
    return buf.getvalue()


SPECIAL_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308,
                  1.0, -2.5e-17, 0.1, 123456789.123456789]
ERROR_TEXTS = ["", "ConvergenceError: residual 1.2e-07 exceeds tolerance 1.0e-08",
               "a, b", 'say "hi"', "line\nbreak", "cr\rlf", ",", '"', " lead", "trail ", "x"]


@pytest.mark.parametrize("with_text", [False, True])
def test_write_table_csv_matches_csv_writer(with_text, tmp_path):
    rng = np.random.default_rng(7)
    values = rng.choice(SPECIAL_FLOATS, size=(40, 3))
    values[:13, 0] = SPECIAL_FLOATS
    columns = ["x", "y", "z"]
    rows = values.tolist()
    text = None
    if with_text:
        text = [ERROR_TEXTS[k % len(ERROR_TEXTS)] for k in range(len(rows))]
        columns = columns + ["error"]
        rows = [r + [t] for r, t in zip(rows, text)]
    out = tmp_path / "t.csv"
    write_table(str(out), "sweep", columns, values, "csv", False, text=text)
    assert out.read_bytes() == csv_writer_table("sweep", columns, rows).encode()
    # csv.reader reads every cell back, text cells with "\r" or "\n" included.
    with open(out, newline="") as f:
        assert next(f) == "# rydpump sweep\n"
        table = list(csv.reader(f))
    assert table[0] == columns and len(table) == len(rows) + 1
    if text is not None:
        assert [r[-1] for r in table[1:]] == text
    # JSON is unchanged: a non-finite value is null, text cells stay strings.
    out = tmp_path / "t.json"
    write_table(str(out), "sweep", columns, values, "json", False, text=text)
    doc = {"command": "sweep", "columns": columns,
           "rows": [[None if isinstance(v, float) and not math.isfinite(v) else v for v in r]
                    for r in rows]}
    assert out.read_text() == json.dumps(doc, indent=1, allow_nan=False) + "\n"


def test_parser_reused_across_calls(capsys):
    # main builds its parser once per process; a run after other runs, or
    # after a rejected argv, prints what a fresh interpreter prints.
    sweep = ["sweep", "--preset", "fig8a", "--axis", "rabi-mhz", "0.02", "0.1", "2",
             "--axis", "microwave-rel", "0.002", "0.01", "2", "--reduce", "chsh",
             "--no-timestamp"]
    evolve = ["evolve", "--preset", "fig3", "--t-max-ms", "3", "--samples", "4",
              "--no-timestamp"]
    steady = ["steady", "--preset", "fig2", "--format", "json", "--no-timestamp"]
    src = str(Path(rydpump.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    fresh = {
        tuple(argv): subprocess.Popen([sys.executable, "-m", "rydpump.cli", *argv], env=env,
                                      stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                                      text=True)
        for argv in (sweep, evolve, steady)
    }
    try:
        outputs = []
        for argv in (sweep, ["sweep", "--axis", "rabi-mhz", "1"], evolve, steady, sweep):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejects the argv
                code = exc.code
            outputs.append((argv, code, capsys.readouterr().out))
        want = {argv: proc.communicate(timeout=120)[0] for argv, proc in fresh.items()}
    finally:
        for proc in fresh.values():
            proc.kill()
            proc.wait()
    assert [code for _, code, _ in outputs] == [0, 2, 0, 0, 0]
    assert all(proc.returncode == 0 for proc in fresh.values())
    for argv, _, out in outputs[:1] + outputs[2:]:
        assert out == want[tuple(argv)], argv
    assert _parser() is _parser()
    assert len(_parser().parse_args(sweep).axis) == 2


def test_reproduce_figures_resolve():
    # Every reproduce target resolves to a valid run without solving.
    assert sorted(_REPRODUCE) == [
        "fig2", "fig2-inset", "fig3", "fig5", "fig5-inset", "fig6",
        "fig8a", "fig8b", "fig8c", "fig8d", "fig9a", "fig9b", "fig9c",
    ]
    for name, fig in _REPRODUCE.items():
        assert fig.name in models.PRESET_NAMES, name
        # The defaults that cmd_sweep and cmd_evolve read from the preset.
        setup = RunSetup({"preset": fig.name})
        assert setup.fig is fig and setup.run is fig, name
        model = setup.model()
        model.initial_density(setup.fig.initial)
        if fig.axes:
            assert all(axis in AXIS_NAMES for axis, *_ in fig.axes), name
            check_measures(setup.variant, [setup.run.reduce])
            assert setup.run.reduce in SCALAR_MEASURES, name
        else:
            outputs = _outputs(setup, [setup.run.output])
            assert outputs == [fig.output], name
            check_measures(setup.variant, outputs)


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
