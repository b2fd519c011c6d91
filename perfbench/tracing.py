"""Spans around g2chow's public functions, recorded from outside the package.

``traced(tracer)`` replaces each function in ``TARGETS`` by a wrapper that
opens a span, and restores the originals on exit.  Besides the defining
module it rebinds every copy a g2chow module took with
``from .x import y`` (``cli`` calls ``certify`` that way), so no call path
escapes the trace.  Spans stay in memory until ``write_spans``.

With ``count_fractions`` set, a ``sys.setprofile`` hook counts calls into
``fractions.py`` and charges each to the layer of the innermost open span.
The hook multiplies run time several-fold, so counting runs in a pass of
its own and its timings are discarded.
"""

from __future__ import annotations

import contextlib
import fractions
import functools
import importlib
import json
import sys
import time
from collections import Counter

LAYERS = ("cli", "parshin_catalog", "fibre_model", "boundary_engine", "consani_complex", "exactlin")

TARGETS = {
    "cli": ("main",),
    "parshin_catalog": ("build_case", "build_kulikov_complex"),
    "fibre_model": ("graph_from_json", "validate", "intersection_matrix"),
    "boundary_engine": ("certify", "collino_boundary", "solve_vertical", "closed_form_vertical"),
    "exactlin": (
        "solve_affine", "rref", "rank", "gram", "kernel_basis", "negative_semidefinite_rank", "RatMatrix.matmul",
    ),
    "consani_complex": (
        "gamma_matrix", "rho_matrix", "check_identities", "pch_rank", "complex_from_fibre_graph",
    ),
}

# functions whose input matrices are summed into exactlin.cells_in
_CELL_COUNTED = {"exactlin.rref", "exactlin.rank", "exactlin.kernel_basis", "exactlin.RatMatrix.matmul"}
_FRACTIONS_FILE = fractions.__file__

NAME, LAYER, START, END, PARENT, OP = range(6)


class Tracer:
    """In-memory spans ``[name, layer, start, end, parent, op]`` plus the
    counts taken at the same boundaries."""

    def __init__(self, count_fractions: bool = False):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op: int | None = None
        self.cells_in = 0
        self.graphs: dict[int, object] = {}
        self.count_fractions = count_fractions
        self.fraction_calls: Counter = Counter()

    def open(self, name: str, layer: str) -> int:
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, layer, 0.0, 0.0, parent, self.op])
        self.stack.append(index)
        self.spans[index][START] = time.perf_counter()
        return index

    def close(self, index: int) -> None:
        self.spans[index][END] = time.perf_counter()
        self.stack.pop()

    @contextlib.contextmanager
    def span(self, name: str, layer: str = "perfbench"):
        index = self.open(name, layer)
        try:
            yield
        finally:
            self.close(index)

    def _profile(self, frame, event, arg) -> None:
        if event == "call" and frame.f_code.co_filename == _FRACTIONS_FILE:
            self.fraction_calls[self.spans[self.stack[-1]][LAYER] if self.stack else None] += 1

    def _wrap(self, name: str, layer: str, fn):
        tracer = self
        counts_cells = name in _CELL_COUNTED
        is_solve = name == "boundary_engine.solve_vertical"

        @functools.wraps(fn)
        def traced_call(*args, **kwargs):
            if counts_cells:
                tracer.cells_in += sum(m.nrows * m.ncols for m in args[:2] if hasattr(m, "nrows"))
            elif is_solve:
                tracer.graphs[id(args[0])] = args[0]
            index = tracer.open(name, layer)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(index)

        return traced_call


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Install ``tracer``'s wrappers for the duration of the block."""
    restore: list[tuple[object, str, object]] = []
    modules = [m for n, m in list(sys.modules.items()) if n == "g2chow" or n.startswith("g2chow.")]
    try:
        for layer, names in TARGETS.items():
            module = importlib.import_module(f"g2chow.{layer}")
            for qualname in names:
                owner_name, _, attr = qualname.rpartition(".")
                owner = getattr(module, owner_name) if owner_name else module
                original = getattr(owner, attr)
                wrapper = tracer._wrap(f"{layer}.{qualname}", layer, original)
                if owner_name:
                    restore.append((owner, attr, original))
                    setattr(owner, attr, wrapper)
                    continue
                for mod in modules:
                    for binding, value in list(vars(mod).items()):
                        if value is original:
                            restore.append((mod, binding, original))
                            setattr(mod, binding, wrapper)
        if tracer.count_fractions:
            sys.setprofile(tracer._profile)
        yield tracer
    finally:
        if tracer.count_fractions:
            sys.setprofile(None)
        for owner, attr, original in reversed(restore):
            setattr(owner, attr, original)


def self_times(spans: list[list]) -> tuple[dict[str, int], dict[str, float]]:
    """Calls and self time per span name; self time is the span's duration
    minus the time covered by its child spans (children never overlap)."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    calls: Counter = Counter()
    selfs: Counter = Counter()
    for s, covered in zip(spans, child):
        calls[s[NAME]] += 1
        selfs[s[NAME]] += s[END] - s[START] - covered
    return dict(calls), dict(selfs)


def write_spans(path, spans: list[list]) -> None:
    """One JSON object per span, times relative to the first span."""
    origin = spans[0][START] if spans else 0.0
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        for s in spans:
            handle.write(json.dumps({
                "name": s[NAME], "start": s[START] - origin, "end": s[END] - origin,
                "parent": s[PARENT], "op": s[OP],
            }) + "\n")
