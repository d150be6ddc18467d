"""Call budget of one steady-state sweep point.

A warm sweep point (plan caches filled by an earlier sweep), at the Bell
`fig8a` pattern and at the qutrit `fig6-point` pattern, makes exactly one
band LU factorisation (dgbtrf), one band solve for the state plus a solve
and a transposed solve per ||L^D||_2 power step (dgbtrs), one Cholesky
positivity proof (zpotrf) and one residual, and builds no scipy.sparse
matrix through its constructor.  A change that adds a call to the point
fails here, not only in timings.
"""

from unittest import mock

import pytest
import scipy.sparse as sp

import rydpump
from rydpump import dynamics, grid, models

from oracles import loop_drazin_norm

# Axes and reduce measure of each preset's sweep: 2 x 2 points.
SWEEPS = {
    "fig8a": ((("rabi-mhz", 0.02, 0.10, 2), ("microwave-rel", 0.002, 0.010, 2)), "chsh"),
    "fig6-point": ((("urr-mhz", 1.0, 10.0, 2), ("gamma-khz", 0.25, 2.5, 2)), "negativity"),
}
# The base class whose __init__ every scipy.sparse constructor runs.
SPARSE_BASE = next(c for c in sp.csr_matrix.__mro__ if c.__name__ == "_spbase")


def run_sweep(preset):
    # As on the command line, an axis along a leg drops the preset's legs,
    # so Delta follows U_rr = 2 Delta along the urr axis of fig6-point.
    axes, reduce = SWEEPS[preset]
    caption = dict(models.FIGURES[preset].caption)
    if preset == "fig6-point":
        del caption["delta_mhz"]
    return rydpump.sweep(caption, models.figure_preset(preset).variant, axes, reduce)


def counting(events, name, f):
    def wrapper(*args, **kwargs):
        events.append(name)
        return f(*args, **kwargs)
    return wrapper


@pytest.mark.parametrize("preset", list(SWEEPS))
def test_sweep_point_call_budget(preset):
    want = run_sweep(preset)  # warm: every plan cache holds the pattern
    events, generators = [], []
    point, steady = grid._point, dynamics.steady_state

    def traced_steady(L, **kwargs):
        generators.append(L)
        return steady(L, **kwargs)

    patches = [mock.patch.object(grid, "_point", counting(events, "point", point)),
               mock.patch.object(dynamics, "steady_state", traced_steady),
               mock.patch.object(SPARSE_BASE, "__init__",
                                 counting(events, "sparse", SPARSE_BASE.__init__))]
    patches += [mock.patch.object(dynamics, name, counting(events, name, getattr(dynamics, name)))
                for name in ("_gbtrf", "_gbtrs", "_potrf", "residual")]
    for p in patches:
        p.start()
    try:
        got = run_sweep(preset)
    finally:
        for p in reversed(patches):
            p.stop()
    assert got[0].tolist() == want[0].tolist() and got[1].tolist() == want[1].tolist()
    assert got[2] == want[2] == [""] * 4

    per_point = []
    for name in events:
        if name == "point":
            per_point.append([])
        else:
            per_point[-1].append(name)
    assert len(per_point) == len(generators) == 4
    for calls, L in zip(per_point, generators):
        steps = loop_drazin_norm(L, dynamics._bordered_lu(L))[1]
        assert 1 <= steps <= dynamics._DRAZIN_STEPS
        assert calls.count("_gbtrf") == 1
        assert calls.count("_gbtrs") == 1 + 2 * steps
        assert calls.count("_potrf") == 1
        assert calls.count("residual") == 1
        assert calls.count("sparse") == 0
        assert len(calls) == 4 + 2 * steps  # nothing else that was counted
