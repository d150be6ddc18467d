"""Per-layer spans recorded from outside the package.

`Tracer.install` replaces each traced public function, wherever a
`rydpump` module holds it, with a wrapper that records one span per call:
name, start, end, parent span, invocation id, and whether it raised.
Spans stay in memory until the run ends.  A span's self time is its
duration minus the part of it that its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import json
from dataclasses import dataclass
from time import perf_counter

# (module, function) of every traced call.  The span name is "module.function".
TARGETS = (
    ("cli", "main"),
    ("models", "caption_params"),
    ("models", "build_model"),
    ("dynamics", "build_liouvillian"),
    ("dynamics", "steady_state"),
    ("dynamics", "evolve"),
    ("measures", "fidelity"),
    ("measures", "chsh_correlation"),
    ("measures", "negativity"),
    ("measures", "populations"),
    ("linalg", "partial_transpose"),
    ("linalg", "hermitian_eigvals"),
)
SPAN_NAMES = tuple(f"{m}.{f}" for m, f in TARGETS)
MODULES = ("rydpump", "rydpump.cli", "rydpump.models", "rydpump.dynamics",
           "rydpump.measures", "rydpump.linalg")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int          # index into the span list, -1 for a root
    invocation: int
    failed: bool = False
    nnz: int = 0         # superop.nnz of a build_liouvillian result


class Tracer:
    """Records spans while installed; `uninstall` restores the originals."""

    def __init__(self):
        self.spans: list = []
        self.invocation = 0
        self._stack: list = []
        self._patched: list = []  # (module, attribute, original)

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, perf_counter(), 0.0, stack[-1] if stack else -1, self.invocation)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.failed = True
                raise
            finally:
                span.end = perf_counter()
                stack.pop()
            if name == "dynamics.build_liouvillian":
                span.nnz = int(result.superop.nnz)
            return result

        return wrapper

    def install(self) -> None:
        modules = [importlib.import_module(m) for m in MODULES]
        for mod_name, fn_name in TARGETS:
            original = getattr(importlib.import_module(f"rydpump.{mod_name}"), fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def write(self, path) -> None:
        """Write the spans as JSON lines."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(vars(span)) + "\n")


def self_times(spans: list) -> list:
    """Duration of each span minus the union of its children's intervals within it."""
    children: dict = {}
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s.start
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, reach), min(hi, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((s.end - s.start) - covered)
    return out


def layer_metrics(spans: list, invocations: int) -> dict:
    """Per CLI invocation: calls, self seconds and failed calls of every span
    name, plus the summed nnz of the assembled Liouvillians."""
    calls = dict.fromkeys(SPAN_NAMES, 0)
    self_s = dict.fromkeys(SPAN_NAMES, 0.0)
    fail = dict.fromkeys(SPAN_NAMES, 0)
    nnz = 0
    for span, own in zip(spans, self_times(spans)):
        calls[span.name] += 1
        self_s[span.name] += own
        fail[span.name] += span.failed
        nnz += span.nnz
    out = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = (calls[name] / invocations, "count")
        out[f"{name}.self_s"] = (self_s[name] / invocations, "s")
        out[f"{name}.fail"] = (fail[name] / invocations, "count")
    out["dynamics.build_liouvillian.nnz"] = (nnz / invocations, "count")
    return out
