"""The paper's data as committed reference values.

tests/data/reference/ holds the 13 `rydpump reproduce FIG --no-timestamp`
CSVs, written at one BLAS thread.  Each test regenerates one figure in
this process and compares it with its reference: the comment line, the
header and every `error` cell exactly, every numeric cell within
REFERENCE_ATOL.  That is about 26 times the largest difference between
1 and 2 BLAS threads (3.8e-12, fig5-inset), so the reference holds at
either thread count, and far below any figure's resolution.  A change
that moves a number by design regenerates the files (see README) and
states the largest move per file; a move that is not explained fails
here.
"""

import csv
import math
from pathlib import Path

import pytest

from rydpump.cli import _REPRODUCE, main

REFERENCE = Path(__file__).resolve().parent / "data" / "reference"
REFERENCE_ATOL = 1e-10


def read_table(path: Path):
    """(comment line, header, rows of cells) of a reproduce CSV."""
    with path.open(newline="") as f:
        comment = f.readline()
        header, *rows = list(csv.reader(f))
    return comment, header, rows


def test_every_figure_has_a_reference():
    assert sorted(p.stem for p in REFERENCE.glob("*.csv")) == sorted(_REPRODUCE)


@pytest.mark.parametrize("figure", sorted(_REPRODUCE))
def test_reproduce_matches_reference(figure, tmp_path, capsys):
    assert main(["reproduce", figure, "--out-dir", str(tmp_path), "--no-timestamp"]) == 0
    capsys.readouterr()
    comment, header, rows = read_table(tmp_path / f"{figure}.csv")
    want_comment, want_header, want_rows = read_table(REFERENCE / f"{figure}.csv")
    assert (comment, header) == (want_comment, want_header)
    assert len(rows) == len(want_rows)
    worst = 0.0
    for k, (row, want) in enumerate(zip(rows, want_rows)):
        assert len(row) == len(want) == len(header), k
        for name, got, ref in zip(header, row, want):
            if name == "error":
                assert got == ref, (k, name)
                continue
            a, b = float(got), float(ref)
            if math.isnan(b):
                assert math.isnan(a), (k, name, got)
                continue
            worst = max(worst, abs(a - b))
            assert abs(a - b) <= REFERENCE_ATOL, (k, name, got, ref)
    assert worst <= REFERENCE_ATOL
