"""Command-line front end: evolve, steady, sweep, reproduce.

Flags use caption units: --rabi-mhz and --delta-mhz / --urr-mhz are /2pi
MHz values, --microwave-rel is the ratio omega/Omega, --gamma-khz is a
plain rate in kHz (--gamma-angular reads it as 2*pi*kHz instead).  Each
subcommand's parser owns its options: a --config key is one of its own
long flags other than --config, --axis, --out and --no-timestamp, or a
ModelParams field name, and any other key is an error.  Flags override
the config file, in which a flag name overrides a ModelParams field name
for the same value; both, and sweep axes, override the preset's values
(grid.override).  RunSetup resolves the model that every subcommand
shares, and each cmd_* reads and defaults its own options.  The preset's
Delta and U_rr are one default: a given U_rr or Delta replaces both, and
a leg that nothing gives follows from U_rr = 2*Delta.  steady solves its
point with grid.steady_point, and sweep and reproduce compute their
grids with grid.sweep.

Exit codes: 0 success, 2 invalid specification (also a config file that
cannot be read, an output path that cannot be written or a run too large
for memory), 3 numerical failure, 4 non-unique steady state.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import dynamics, models
from .grid import (AXIS_NAMES, MEASURES, check_measures, measure_columns, override,
                   steady_point, sweep)

EXIT_OK = 0
EXIT_INVALID_SPEC = 2
EXIT_NUMERICAL = 3
EXIT_DEGENERATE = 4

# reproduce targets by name: the figure whose data each one writes.
_REPRODUCE = {f.reproduce or f.name: f for f in models.FIGURES.values()}


def _norm_key(key: str) -> str:
    return key.strip().lower().replace("-", "").replace("_", "")


_CONFIG_BOOL = {"1": True, "true": True, "yes": True, "on": True,
                "0": False, "false": False, "no": False, "off": False}
_NEEDS = {float: "a number", int: "an integer", bool: "a boolean (1/true/yes/on or 0/false/no/off)"}
# The type of the value of every config-settable argparse dest.  A config
# key (compared dash/underscore insensitively) is one of these dests of the
# subcommand's own flags; the caption flags are the sweep axes.
_OPTIONS = {
    **{name.replace("-", "_"): float for name in AXIS_NAMES},
    "preset": str, "scheme": str, "target": str, "gamma_angular": bool, "initial": str,
    "t_max_ms": float, "samples": int, "outputs": str, "format": str, "method": str,
    "reduce": str,
}
_OPTION_KEYS = {_norm_key(dest): dest for dest in _OPTIONS}

# ModelParams field names are also accepted in config files, with absolute
# caption units (/2pi MHz; gamma in kHz); each maps to its caption key.
_CONFIG_FIELDS = {
    _norm_key(field): key
    for field, key in [
        ("rabi_optical", "rabi_mhz"), ("rabi_microwave_1", "microwave_mhz"),
        ("rabi_microwave_2", "microwave2_mhz"), ("detuning", "delta_mhz"),
        ("rydberg_U", "urr_mhz"), ("gamma", "gamma_khz"),
    ]
}


# The caption keys a config field or a flag can set, in the order they are
# applied: microwave_rel, set after microwave_mhz, replaces it.
_CAPTION_KEYS = ("microwave_mhz", "microwave2_mhz", *(a.replace("-", "_") for a in AXIS_NAMES))


def _load_config(path: str, opts: dict) -> dict:
    """Read a flat 'key = value' file ('#' comments) into one mapping of
    flag-style values and caption values given by ModelParams field name.
    A flag-name key is accepted only when its dest is a key of opts, the
    subcommand's argparse dests; it wins over a field name for the same
    caption key.  A key given twice, in any spelling, is an error."""
    flags: dict = {}
    fields: dict = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        norm = _norm_key(key)
        dest = _OPTION_KEYS.get(norm)
        if dest in opts:
            into, kind = flags, _OPTIONS[dest]
        elif norm in _CONFIG_FIELDS:
            into, dest, kind = fields, _CONFIG_FIELDS[norm], float
        else:
            raise ValueError(f"unknown config key {key!r} in {path}")
        if dest in into:  # one dest per normalised key, in flags as in fields
            raise ValueError(f"config key {key!r} is given twice in {path}")
        try:
            into[dest] = _CONFIG_BOOL[value.lower()] if kind is bool else kind(value)
        except (ValueError, KeyError):
            raise ValueError(
                f"config key {key!r} in {path} needs {_NEEDS[kind]}, got {value!r}"
            ) from None
    return {**fields, **flags}


class RunSetup:
    """The model that every subcommand resolves.

    opts maps the subcommand's argparse dest names to values; None means
    not given.  The given values override the config file's, which
    override the preset's.  Each command reads and defaults its own run
    options from the merged mapping self.opts, the preset self.fig (None
    without --preset) and self.run, the preset or else Figure itself.
    """

    def __init__(self, opts: dict):
        self.opts = opts = {
            **(_load_config(opts["config"], opts) if opts.get("config") else {}),
            **{dest: value for dest, value in opts.items() if value is not None}}
        self.fig = fig = models.find_figure(opts["preset"]) if opts.get("preset") else None
        self.run = fig or models.Figure

        scheme = opts.get("scheme", fig.scheme if fig else None)
        if scheme is None:
            raise ValueError("no scheme given: use --scheme or --preset")
        # A scheme's first target is its default; SchemeVariant reports an unknown scheme.
        record = models.SCHEMES.get(scheme)
        target = opts.get("target",
                          fig.target if fig else next(iter(record.targets)) if record else "")
        self.variant = models.SchemeVariant(scheme=scheme, target=target.replace("-", "_"))

        # Caption-unit values: the preset's, overridden by the given ones.
        # The preset's Delta and U_rr are one default, dropped when a
        # config field, a flag or an axis gives either leg.
        given = {key: opts[key] for key in _CAPTION_KEYS if key in opts}
        self.caption = dict(fig.caption) if fig else {}
        legs = {"delta_mhz", "urr_mhz"}
        if legs & {*given, *(spec[0].replace("-", "_") for spec in opts.get("axis", ()))}:
            for key in legs:
                self.caption.pop(key, None)
        for key, value in given.items():
            override(self.caption, key, value)
        if opts.get("gamma_angular"):
            self.caption["gamma_angular"] = True

        self.format = opts.get("format", "csv")
        if self.format not in ("csv", "json"):
            raise ValueError(f"unknown format {self.format!r}; expected csv or json")

    def model(self) -> models.SystemModel:
        return models.build_model(models.caption_params(**self.caption), self.variant)


def _outputs(setup: RunSetup, default: list) -> list:
    """The --outputs names of a run, or default when none are given."""
    text = setup.opts.get("outputs")
    return default if text is None else [o.strip() for o in text.split(",") if o.strip()]


def _csv_field(text: str) -> str:
    """One text cell as csv.writer writes it inside a row of several cells:
    quoted when it holds a comma, a quote, a carriage return or a line
    feed.  The writer quotes a cell holding any character of its line
    terminator, so "\r\n" makes it quote a bare carriage return too."""
    if not text:
        return text
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\r\n").writerow([text])
    return buf.getvalue()[:-2]


def write_table(out, command: str, columns, values, fmt: str, timestamp: bool,
                text=None) -> None:
    """Emit a CSV or JSON table to a path or stdout.

    values holds the numeric columns, one row per table row; text, when
    given, holds one string per row for a trailing text column.
    """
    rows = np.asarray(values, dtype=float).tolist()
    if fmt == "csv":
        buf = io.StringIO()
        buf.write(f"# rydpump {command}\n")
        if timestamp:
            now = datetime.now(timezone.utc).isoformat(timespec="seconds")
            buf.write(f"# generated: {now}\n")
        csv.writer(buf, lineterminator="\n").writerow(columns)
        # "%.17e" writes a float as f"{v:.17e}" does, nan, inf and -0.0
        # included, and none of those cells needs quoting.
        template = ",".join(["%.17e"] * (len(columns) - (text is not None)))
        lines = [template % tuple(r) for r in rows]
        if text is not None:
            lines = [f"{line},{_csv_field(t)}" for line, t in zip(lines, text)]
        buf.writelines(line + "\n" for line in lines)
        payload = buf.getvalue()
    else:
        doc = {"command": command}
        if timestamp:
            doc["generated"] = datetime.now(timezone.utc).isoformat(timespec="seconds")
        doc["columns"] = list(columns)
        # JSON has no NaN or infinity: a failed value is written as null.
        doc["rows"] = [[v if math.isfinite(v) else None for v in r] for r in rows]
        if text is not None:
            for r, t in zip(doc["rows"], text):
                r.append(t)
        payload = json.dumps(doc, indent=1, allow_nan=False) + "\n"
    if out is None:
        sys.stdout.write(payload)
    else:
        Path(out).write_text(payload)
        print(f"wrote {out}")


def cmd_evolve(args) -> int:
    setup = RunSetup(vars(args))
    initial = setup.opts.get("initial", setup.fig.initial if setup.fig else None)
    if initial is None:
        raise ValueError("no initial state given: use --initial or --preset")
    outputs = _outputs(setup, [setup.run.output])
    check_measures(setup.variant, outputs)
    t_max_ms = setup.opts.get("t_max_ms", setup.run.t_max_ms)
    samples = setup.opts.get("samples", setup.run.samples)
    if t_max_ms < 0:
        raise ValueError(f"t-max-ms must be nonnegative, got {t_max_ms}")
    if not math.isfinite(t_max_ms):
        raise ValueError(f"t-max-ms must be finite, got {t_max_ms}")
    if t_max_ms > 0 and samples < 2:
        raise ValueError(f"samples must be >= 2 when t-max-ms > 0, got {samples}")
    if t_max_ms == 0 and samples != 1:
        raise ValueError(f"samples must be 1 when t-max-ms is 0, got {samples}")
    model = setup.model()
    rho0 = model.initial_density(initial)
    liouv = dynamics.build_liouvillian(model)
    t = np.linspace(0.0, t_max_ms * 1e-3, samples)
    traj = dynamics.evolve(liouv, rho0, t)
    names, values = measure_columns(model, outputs, traj.states)
    write_table(args.out, "evolve", ["time_ms"] + names,
                np.column_stack([traj.times * 1e3, values]), setup.format, not args.no_timestamp)
    return EXIT_OK


def cmd_steady(args) -> int:
    setup = RunSetup(vars(args))
    default = ["fidelity", "chsh" if setup.variant.record.qubits else "negativity"]
    outputs = _outputs(setup, default)
    check_measures(setup.variant, outputs)
    method = setup.opts.get("method", "nullspace")
    names, values, info = steady_point(setup.caption, setup.variant, outputs, method)
    row = values.tolist() + [info["residual"]]
    write_table(args.out, "steady", names + ["residual", "backend"], [row], setup.format,
                not args.no_timestamp, text=[method])
    return EXIT_OK


def cmd_sweep(args) -> int:
    setup = RunSetup(vars(args))
    reduce = setup.opts.get("reduce", setup.run.reduce)
    coords, values, errors = sweep(setup.caption, setup.variant, args.axis, reduce)
    names = [spec[0].replace("-", "_") for spec in args.axis] + [reduce, "error"]
    write_table(args.out, "sweep", names, np.column_stack([coords, values]), setup.format,
                not args.no_timestamp, text=errors)
    return EXIT_OK


def cmd_reproduce(args) -> int:
    fig = _REPRODUCE[args.figure]
    run = argparse.Namespace(preset=fig.name, gamma_angular=args.gamma_angular, axis=fig.axes,
                             out=str(Path(args.out_dir) / f"{args.figure}.csv"),
                             no_timestamp=args.no_timestamp)
    return cmd_sweep(run) if fig.axes else cmd_evolve(run)


# Flags that reproduce shares with the other subcommands.
_GAMMA_ANGULAR = dict(action="store_true", default=None,
                      help="interpret --gamma-khz as an angular 2*pi*kHz rate")
_NO_TIMESTAMP = dict(action="store_true",
                     help="omit the timestamp line for byte-reproducible output")


def _add_model_args(p: argparse.ArgumentParser):
    g = p.add_argument_group("model")
    g.add_argument("--preset", help="benchmark preset (e.g. fig2, fig3, fig5-inset, fig6-point)")
    g.add_argument("--config", help="key-value config file; explicit flags override it")
    g.add_argument("--scheme", choices=tuple(models.SCHEMES))
    targets = [t for record in models.SCHEMES.values() for t in record.targets]
    g.add_argument("--target", choices=tuple(dict.fromkeys(
        name for t in targets for name in (t.replace("_", "-"), t))))
    g.add_argument("--rabi-mhz", type=float, help="optical Rabi frequency Omega/2pi in MHz")
    g.add_argument("--microwave-rel", type=float, help="microwave amplitude as omega/Omega")
    g.add_argument("--delta-mhz", type=float, help="detuning Delta/2pi in MHz (default U_rr/2)")
    g.add_argument("--urr-mhz", type=float, help="Rydberg interaction U_rr/2pi in MHz (default 2*Delta)")
    g.add_argument("--gamma-khz", type=float, help="decay rate in kHz (plain rate)")
    g.add_argument("--gamma-angular", **_GAMMA_ANGULAR)
    return g


def _add_output_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", help="output file (default: print to stdout)")
    p.add_argument("--format", choices=("csv", "json"), default=None)
    p.add_argument("--no-timestamp", **_NO_TIMESTAMP)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rydpump",
        description="Dissipative Rydberg-pumping entanglement simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("evolve", help="integrate the master equation over a time grid")
    # Only evolve reads an initial state.
    _add_model_args(p).add_argument(
        "--initial", help="initial state id (e.g. ff, mix4, mix9, singlet, phi)")
    p.add_argument("--t-max-ms", type=float, help="evolution time in ms")
    p.add_argument("--samples", type=int, help="number of grid points (>= 2, or 1 at --t-max-ms 0)")
    p.add_argument("--outputs", help=f"comma list: {','.join(MEASURES)}")
    _add_output_args(p)
    p.set_defaults(func=cmd_evolve)

    p = sub.add_parser("steady", help="solve for the steady state and its measures")
    _add_model_args(p)
    p.add_argument("--method", choices=("nullspace", "evolve"), default=None,
                   help="steady-state backend (default nullspace)")
    p.add_argument("--outputs", help="comma list of measures")
    _add_output_args(p)
    p.set_defaults(func=cmd_steady)

    p = sub.add_parser("sweep", help="steady-state measure over a 1-D or 2-D parameter grid")
    _add_model_args(p)
    p.add_argument("--axis", nargs=4, action="append", metavar=("NAME", "MIN", "MAX", "STEPS"),
                   help=f"swept parameter ({', '.join(AXIS_NAMES)}); repeat for 2-D")
    p.add_argument("--reduce", help="measure evaluated at each grid point (default: the "
                   "preset's, else fidelity)")
    _add_output_args(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("reproduce", help="write the data behind one benchmark figure")
    p.add_argument("figure", choices=sorted(_REPRODUCE))
    p.add_argument("--out-dir", default=".", help="directory for <figure>.csv")
    p.add_argument("--gamma-angular", **_GAMMA_ANGULAR)
    p.add_argument("--no-timestamp", **_NO_TIMESTAMP)
    p.set_defaults(func=cmd_reproduce)

    return parser


# The parser depends on nothing in argv, so main builds it once per process.
_parser = functools.lru_cache(maxsize=1)(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # The package reports every non-finite result itself, so numpy's
    # floating-point warnings would only repeat it before the error line.
    try:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return args.func(args)
    except (dynamics.NonUniqueSteadyStateError, dynamics.ConvergenceError, ValueError,
            KeyError, OSError, MemoryError) as exc:
        # A KeyError's str() is the repr of its message.
        print(f"error: {exc.args[0] if isinstance(exc, KeyError) else exc}", file=sys.stderr)
        if isinstance(exc, dynamics.NonUniqueSteadyStateError):
            return EXIT_DEGENERATE
        return EXIT_NUMERICAL if isinstance(exc, dynamics.ConvergenceError) else EXIT_INVALID_SPEC


if __name__ == "__main__":
    sys.exit(main())
