"""Byte-for-byte gate on the outputs the program writes.

    python3 tools/gate_outputs.py --base REV

regenerates 112 gated outputs twice, from the source of git revision REV
and from the working tree, and compares the two byte for byte.  REV's
source is extracted with `git archive` into a temporary directory, so the
repository itself is not touched.  Every output comes from a fresh
interpreter with BLAS pinned to one thread and an 80-column terminal.
The gated outputs are:

- the CSV of every `reproduce --no-timestamp` figure;
- `steady` CSV and JSON, for both backends, at fig2, fig6-point, fig8a
  and fig9c, for the preset's target and again for the other target of
  its scheme (triplet at fig2 and fig8a, phi-prime at fig6-point and
  fig9c), which no figure uses;
- `steady` CSV and JSON, for both backends, of two runs that override a
  preset value by flag: `--preset fig2 --urr-mhz 6`, whose Delta follows
  from U_rr = 2 Delta, and `--preset fig6-point --gamma-khz 0.5`;
- `steady` CSV and JSON, for both backends, at a Bell point off fig8a
  (Omega/2pi = 0.0625 MHz, omega/Omega = 0.0078125, U_rr/2pi = 1 MHz,
  gamma = 1 kHz) whose slowest mode is weakly damped and oscillates fast,
  so it is not among the modes of smallest |lambda|;
- `evolve` CSV and JSON at fig3, fig5-inset and fig2-inset, the CHSH
  series of fig3 with target triplet (the triplet frame), and fig3 with
  `--urr-mhz 6`;
- `evolve` CSV of two long runs whose stacks span many blocks of the
  blocked propagation, check and measures: fig3 over 3001 samples with
  populations, fidelity and chsh, and fig5-inset over 1201 samples with
  populations, fidelity and negativity;
- the CSV of a `sweep --preset fig6-point` without `--reduce`, which
  reduces to the preset's measure;
- the CSV of two sweeps that pin the rule for a preset's Delta and U_rr:
  `--preset fig2 --delta-mhz 3` along `urr-mhz`, where the given Delta
  stays beside the swept U_rr, and `--preset fig8a` along `delta-mhz`,
  where the swept Delta replaces the preset's U_rr;
- the CSV of a `sweep --preset fig8b --gamma-angular` over fig8b's two
  axes, and of a `steady --config FILE` run whose file holds
  `preset = fig2` and `gamma-angular = yes`: the flag and the config key
  that read gamma as an angular rate;
- the CSV of a `steady --config FILE` run whose file gives the Bell
  scheme by ModelParams field names (`rabi_microwave_1` among them) and
  Delta both as `detuning` and as `delta-mhz`, where the flag name wins,
  and of the same run with `--microwave-rel 0.004`, which replaces the
  file's absolute microwave amplitude;
- the CSV of two `steady` runs at fig2 with Omega, Delta and gamma
  scaled by one factor, 1e-80 and 1e180: the generator scales and the
  steady state does not, so the measures are fig2's (before the scaled
  ||L^D||_2 iteration and norm, the first exited 4 and the second 3);
- the CSV of two CHSH sweeps at fig8a whose grids start at a degenerate
  point, gamma = 0 and Omega = 0, where the steady state is not unique:
  they pin the `error` column, and at gamma = 0 a generator with entries
  that cancel exactly;
- the stdout of every demo;
- the stdout of `rydpump --help` and of each subcommand's `--help`;
- the stderr and exit status of invalid runs that the measure checks
  reject: an unknown `--outputs` name, chsh on a qutrit preset, an empty
  `--outputs`, a repeated `--outputs` name, and a sweep reducing to
  populations or to an unknown name; of an `evolve` from an unknown
  `--initial` state; of an `evolve` at fig3 over 1e23 ms, whose
  propagators overflow to non-finite states; of a `steady` at fig2 with
  `--delta-mhz 2e301 --urr-mhz 0`, whose Hamiltonian overflows (no
  floating-point warning may precede its error line); of a sweep axis
  whose MIN is not a number; of three `evolve` runs at `--t-max-ms 0` whose
  `--samples` is 0, -3 or 5 (a zero-length grid has exactly one sample);
  of a `steady --method evolve` run off resonance at fig2 whose
  certificate levels off above the 1e-8 bound; and of an `evolve` with
  no initial state, an `evolve` at fig3 over -1 ms and a sweep with three
  axes; of a `steady` at fig2 with `--delta-mhz 1e50 --urr-mhz 0`, whose
  ||L^D||_2 is not finite; of a sweep whose STEPS of 1e23 exceeds the
  grid cap; of a `steady --config FILE` run whose file holds
  `preset = fig2` and `samples = 7`, a key that only `evolve` reads; and
  of one whose file gives `rabi-mhz` and then `rabi_mhz`, one key twice.

For each output that differs it prints the largest difference between
corresponding numbers, or where the text first differs when the numbers
do not line up.  The exit status is 0 when every output is identical and
1 otherwise.  A full run takes a few minutes, so it is not part of the
test suite.
"""

from __future__ import annotations

import argparse
import io
import os
import re
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PINNED = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
REPRODUCE = ("fig2", "fig2-inset", "fig3", "fig5", "fig5-inset", "fig6", "fig8a", "fig8b",
             "fig8c", "fig8d", "fig9a", "fig9b", "fig9c")
STEADY = ("fig2", "fig6-point", "fig8a", "fig9c")
# The target of each steady preset that its figure does not use.
OTHER_TARGET = {"fig2": "triplet", "fig8a": "triplet", "fig6-point": "phi-prime",
                "fig9c": "phi-prime"}
EVOLVE = ("fig3", "fig5-inset", "fig2-inset")
# Long evolve runs, CSV only, whose stacks span many blocks.
LONG_EVOLVE = (("fig3-3001", ["--preset", "fig3", "--samples", "3001", "--outputs",
                              "populations,fidelity,chsh"]),
               ("fig5-inset-1201", ["--preset", "fig5-inset", "--samples", "1201", "--outputs",
                                    "populations,fidelity,negativity"]))
# Runs that override a preset value by flag: one U_rr leg of a Bell preset,
# and a qutrit point away from its preset.
OVERRIDES = (("fig2-urr-6", ["--preset", "fig2", "--urr-mhz", "6"]),
             ("fig6-point-gamma-0.5", ["--preset", "fig6-point", "--gamma-khz", "0.5"]))
# A Bell point whose slowest mode (-15.573 +- 487i 1/s) is not among the
# modes of smallest |lambda|: its evolve output pins where that backend's
# certificate stops.
SLOW_MODE = ("fig8a-slow-mode", ["--preset", "fig8a", "--rabi-mhz", "0.0625", "--microwave-rel",
                                 "0.0078125", "--urr-mhz", "1", "--gamma-khz", "1"])
SUBCOMMANDS = ("evolve", "steady", "sweep", "reproduce")
SWEEP = ["sweep", "--preset", "fig2", "--axis", "urr-mhz", "1", "8", "3"]
# A sweep that reduces to its preset's measure, which is not fidelity.
PRESET_SWEEP = ["sweep", "--preset", "fig6-point", "--axis", "urr-mhz", "1", "10", "2"]
# Sweeps along a leg of a preset: a given Delta stays beside the swept U_rr,
# and a swept Delta replaces the preset's U_rr.
LEG_SWEEPS = (("fig2-delta-3-urr", ["sweep", "--preset", "fig2", "--delta-mhz", "3", "--axis",
                                    "urr-mhz", "6", "8", "2"]),
              ("fig8a-delta", ["sweep", "--preset", "fig8a", "--axis", "delta-mhz", "1", "3",
                               "2"]))
# The angular gamma reading, by flag over fig8b's two axes and by config key
# at fig2.  The config file is written into the directory given as {out}.
ANGULAR_SWEEP = ["sweep", "--preset", "fig8b", "--gamma-angular", "--axis", "urr-mhz", "1", "8",
                 "5", "--axis", "gamma-khz", "0.5", "2.5", "5"]
ANGULAR_CONFIG = ("gamma-angular.cfg", "preset = fig2\ngamma-angular = yes\n")
# A Bell point by ModelParams field names, with Delta given twice: the flag
# name delta-mhz wins over the field name detuning.
FIELDS_CONFIG = ("fields.cfg", "scheme = bell\nrabi_optical = 0.036\n"
                 "rabi_microwave_1 = 0.0002\ndetuning = 3.0\ndelta-mhz = 3.435\n"
                 "gamma = 1.673\n")
# A key of another subcommand: steady has no --samples, so its config
# file may not set it either.
IGNORED_CONFIG = ("samples.cfg", "preset = fig2\nsamples = 7\n")
# One key twice, in two spellings that normalise alike.
REPEATED_CONFIG = ("repeated.cfg", "preset = fig2\nrabi-mhz = 0.05\nrabi_mhz = 0.036\n")
CONFIGS = (ANGULAR_CONFIG, FIELDS_CONFIG, IGNORED_CONFIG, REPEATED_CONFIG)
# fig2 with Omega, Delta and gamma scaled by 1e-80 and by 1e180.
RESCALED = (("fig2-rescaled-1e-80", ["--rabi-mhz", "3.6e-82", "--delta-mhz", "3.435e-80",
                                     "--gamma-khz", "1.673e-80"]),
            ("fig2-rescaled-1e180", ["--rabi-mhz", "3.6e178", "--delta-mhz", "3.435e180",
                                     "--gamma-khz", "1.673e180"]))
# CHSH sweeps whose first point is degenerate (no decay, no optical drive),
# so they write the error column too.
DEGENERATE_SWEEPS = (("fig8a-gamma-chsh", ["gamma-khz", "0", "1", "3"]),
                     ("fig8a-rabi-chsh", ["rabi-mhz", "0", "0.1", "3"]))
INVALID = (("steady-outputs-bogus", ["steady", "--preset", "fig2", "--outputs", "bogus"]),
           ("steady-qutrit-chsh", ["steady", "--preset", "fig6-point", "--outputs", "chsh"]),
           ("evolve-outputs-empty", ["evolve", "--preset", "fig3", "--outputs", ","]),
           ("steady-outputs-repeated", ["steady", "--preset", "fig2", "--outputs",
                                        "fidelity,fidelity"]),
           ("sweep-reduce-populations", SWEEP + ["--reduce", "populations"]),
           ("sweep-reduce-bogus", SWEEP + ["--reduce", "bogus"]),
           ("evolve-initial-unknown", ["evolve", "--preset", "fig3", "--initial", "zz"]),
           ("evolve-overflow", ["evolve", "--preset", "fig3", "--t-max-ms", "1e23",
                                "--samples", "3"]),
           ("steady-overflow", ["steady", "--preset", "fig2", "--delta-mhz", "2e301",
                                "--urr-mhz", "0"]),
           ("sweep-axis-not-a-number", ["sweep", "--preset", "fig2", "--axis", "urr-mhz",
                                        "abc", "8", "3"]),
           ("evolve-samples-zero", ["evolve", "--preset", "fig3", "--samples", "0",
                                    "--t-max-ms", "0"]),
           ("evolve-samples-negative", ["evolve", "--preset", "fig3", "--samples", "-3",
                                        "--t-max-ms", "0"]),
           ("evolve-samples-at-time-zero", ["evolve", "--preset", "fig3", "--samples", "5",
                                            "--t-max-ms", "0"]),
           ("steady-evolve-bound-levels-off", ["steady", "--preset", "fig2", "--urr-mhz", "6",
                                               "--delta-mhz", "3.15", "--gamma-khz", "1.673",
                                               "--method", "evolve"]),
           ("evolve-no-initial", ["evolve", "--scheme", "bell"]),
           ("evolve-t-max-negative", ["evolve", "--preset", "fig3", "--t-max-ms", "-1"]),
           ("sweep-three-axes", SWEEP + ["--axis", "gamma-khz", "0.5", "2.5", "3", "--axis",
                                         "rabi-mhz", "0.02", "0.1", "3"]),
           ("steady-drazin-norm-not-finite", ["steady", "--preset", "fig2", "--delta-mhz",
                                              "1e50", "--urr-mhz", "0"]),
           ("sweep-grid-over-cap", ["sweep", "--preset", "fig2", "--axis", "rabi-mhz", "0", "1",
                                    "99999999999999999999999"]),
           ("steady-config-ignored-key", ["steady", "--config", f"{{out}}/{IGNORED_CONFIG[0]}"]),
           ("steady-config-repeated-key", ["steady", "--config",
                                           f"{{out}}/{REPEATED_CONFIG[0]}"]))
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*(?:[eE][-+]?\d+)?|nan|inf)")


def jobs(tree: Path) -> list:
    """(output name, argv) of every gated output; reproduce writes its CSV
    into the directory given as {out}, which also holds the config files
    of the config runs, and the others are read from stdout."""
    cli = [sys.executable, "-m", "rydpump.cli"]
    out = [(f"reproduce/{fig}.csv", cli + ["reproduce", fig, "--out-dir", "{out}", "--no-timestamp"])
           for fig in REPRODUCE]
    steady = []
    for preset in STEADY:
        steady += [(preset, ["--preset", preset]),
                   (f"{preset}-{OTHER_TARGET[preset]}",
                    ["--preset", preset, "--target", OTHER_TARGET[preset]])]
    for name, spec in steady + list(OVERRIDES) + [SLOW_MODE]:
        for method in ("nullspace", "evolve"):
            for fmt in ("csv", "json"):
                out.append((f"steady/{name}-{method}.{fmt}",
                            cli + ["steady", *spec, "--method", method, "--format", fmt,
                                   "--no-timestamp"]))
    evolve = [(preset, ["--preset", preset]) for preset in EVOLVE]
    evolve.append(("fig3-triplet-chsh", ["--preset", "fig3", "--target", "triplet",
                                         "--outputs", "chsh"]))
    evolve.append(("fig3-urr-6", ["--preset", "fig3", "--urr-mhz", "6"]))
    for name, spec in evolve:
        for fmt in ("csv", "json"):
            out.append((f"evolve/{name}.{fmt}",
                        cli + ["evolve", *spec, "--format", fmt, "--no-timestamp"]))
    out += [(f"evolve/{name}.csv", cli + ["evolve", *spec, "--no-timestamp"])
            for name, spec in LONG_EVOLVE]
    out.append(("sweep/fig6-point-urr.csv", cli + PRESET_SWEEP + ["--no-timestamp"]))
    out += [(f"sweep/{name}.csv", cli + argv + ["--no-timestamp"]) for name, argv in LEG_SWEEPS]
    out.append(("sweep/fig8b-gamma-angular.csv", cli + ANGULAR_SWEEP + ["--no-timestamp"]))
    out.append(("steady/fig2-config-gamma-angular.csv",
                cli + ["steady", "--config", f"{{out}}/{ANGULAR_CONFIG[0]}", "--no-timestamp"]))
    fields = cli + ["steady", "--config", f"{{out}}/{FIELDS_CONFIG[0]}", "--no-timestamp"]
    out += [("steady/bell-config-fields.csv", fields),
            ("steady/bell-config-fields-microwave-rel.csv", fields + ["--microwave-rel", "0.004"])]
    out += [(f"steady/{name}.csv", cli + ["steady", "--preset", "fig2", *flags, "--no-timestamp"])
            for name, flags in RESCALED]
    out += [(f"sweep/{name}.csv", cli + ["sweep", "--preset", "fig8a", "--axis", *axis,
                                         "--reduce", "chsh", "--no-timestamp"])
            for name, axis in DEGENERATE_SWEEPS]
    for demo in sorted((tree / "demos").glob("[0-9]*.py")):
        out.append((f"demos/{demo.name}.stdout", [sys.executable, str(demo)]))
    out.append(("help/rydpump.stdout", cli + ["--help"]))
    out += [(f"help/{sub}.stdout", cli + [sub, "--help"]) for sub in SUBCOMMANDS]
    out += [(f"invalid/{name}.stderr", cli + argv) for name, argv in INVALID]
    return out


def generate(tree: Path, dest: Path) -> dict:
    """Run every job from the source in tree; return {name: bytes}.  A job
    that exits non-zero contributes its exit status and stderr too, and
    the config directory's path reads {out}."""
    env = {**os.environ, **PINNED, "COLUMNS": "80", "PYTHONPATH": str(tree / "src")}
    results = {}
    outdir = dest / "reproduce"
    outdir.mkdir(parents=True)
    for name, text in CONFIGS:
        (outdir / name).write_text(text)
    for name, argv in jobs(tree):
        argv = [a.replace("{out}", str(outdir)) for a in argv]
        proc = subprocess.run(argv, cwd=tree, env=env, capture_output=True, timeout=600)
        if name.startswith("reproduce/") and proc.returncode == 0:
            data = (outdir / Path(name).name).read_bytes()
        else:
            data = proc.stdout
        if proc.returncode != 0:
            data += f"\n[exit {proc.returncode}]\n".encode() + proc.stderr
        # A message that names a config file names it as {out}/NAME, so
        # both trees write the same bytes.
        results[name] = data.replace(str(outdir).encode(), b"{out}")
        print(f"  {name}", file=sys.stderr)
    return results


def describe(base: bytes, new: bytes) -> str:
    """The largest difference between corresponding numbers of two texts,
    or the first line at which they differ."""
    a, b = base.decode(errors="replace"), new.decode(errors="replace")
    xa, xb = NUMBER.findall(a), NUMBER.findall(b)
    if len(xa) == len(xb) and NUMBER.sub("#", a) == NUMBER.sub("#", b):
        worst, where = 0.0, ("", "")
        for u, v in zip(xa, xb):
            if u != v:
                fu, fv = float(u), float(v)
                diff = abs(fu - fv) if fu == fu and fv == fv else float("inf")
                if diff >= worst:
                    worst, where = diff, (u, v)
        return f"largest difference {worst:.3e} ({where[0]} -> {where[1]})"
    la, lb = a.splitlines(), b.splitlines()
    k = next((i for i, (u, v) in enumerate(zip(la, lb)) if u != v), min(len(la), len(lb)))
    return (f"text differs at line {k + 1}: {la[k] if k < len(la) else '<end>'!r} -> "
            f"{lb[k] if k < len(lb) else '<end>'!r}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--base", required=True, help="git revision to compare the working tree with")
    args = p.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="gate-outputs-") as tmp:
        tmp = Path(tmp)
        archive = subprocess.run(["git", "archive", args.base], cwd=ROOT, capture_output=True,
                                 check=True).stdout
        base_tree = tmp / "base"
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(base_tree, filter="data")
        print(f"generating from {args.base}", file=sys.stderr)
        base = generate(base_tree, tmp / "base-out")
        print("generating from the working tree", file=sys.stderr)
        new = generate(ROOT, tmp / "new-out")
    differ = 0
    for name in sorted(set(base) | set(new)):
        a, b = base.get(name), new.get(name)
        if a == b:
            continue
        differ += 1
        if a is None or b is None:
            print(f"{name}: only in {'the working tree' if a is None else args.base}")
        else:
            print(f"{name}: {describe(a, b)}")
    print(f"{len(base | new) - differ} of {len(base | new)} outputs identical")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
