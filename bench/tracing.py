"""Span tracing of the eoa3 package from outside it.

The traced run wraps the public functions listed in ``TRACED`` at every
binding the package holds (``eoa3.qcore.reduced_density`` and
``eoa3.assistance.reduced_density`` are the same function object, so both
names get the same wrapper).  ``PureState`` and ``DensityMatrix`` are traced
through their constructors, which is where they validate.  Nothing under
``src/`` changes; the wrappers are removed when the run ends.

Each call records one span ``[name, start_ns, end_ns, parent, item]`` in
memory.  A span's self time is its duration minus the durations of its
direct children; a layer's self time is the sum over its functions.
"""

from __future__ import annotations

import csv
import functools
import importlib
import time
from contextlib import contextmanager

# layer (package module) -> traced public names defined in that module
TRACED = {
    "qcore": ("PureState", "DensityMatrix", "reduced_density", "schmidt_decompose", "haar_random_pure"),
    "monotones": ("cut_entanglement", "wootters_concurrence", "three_tangle", "pure_cut_concurrence"),
    "assistance": (
        "commuting_charlie_basis",
        "theorem1_measurement",
        "average_post_measurement",
        "verify_theorem1",
        "lossless_classifier",
        "eoa_numeric",
        "eoa_density",
        "corollary_check",
        "analyze",
    ),
    "states": ("generate",),
    "ensembles": ("entangled_decomposition", "s0_assistance"),
    "cli": ("main",),
}

SPAN_NAMES = tuple(f"{layer}.{fn}" for layer, fns in TRACED.items() for fn in fns)
_MODULES = ("eoa3",) + tuple(f"eoa3.{layer}" for layer in TRACED)


class Tracer:
    """In-memory span recorder; ``item`` tags spans with the current item id."""

    def __init__(self):
        self.spans = []
        self.item = -1
        self._stack = []

    def _wrap(self, name_id, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name_id, 0, 0, stack[-1] if stack else -1, self.item]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    @contextmanager
    def installed(self):
        """Wrap every traced function at every package binding; restore on exit."""
        modules = [importlib.import_module(name) for name in _MODULES]
        undo = []
        try:
            for name_id, span_name in enumerate(SPAN_NAMES):
                layer, fn_name = span_name.split(".")
                home = importlib.import_module(f"eoa3.{layer}")
                original = getattr(home, fn_name)
                if isinstance(original, type):
                    init = original.__init__
                    undo.append((original, "__init__", init))
                    original.__init__ = self._wrap(name_id, init)
                    continue
                wrapper = self._wrap(name_id, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            undo.append((module, attr, value))
                            setattr(module, attr, wrapper)
            yield self
        finally:
            for owner, attr, value in reversed(undo):
                setattr(owner, attr, value)

    def self_times_ns(self):
        """Per-span-name (calls, self_ns) and the total duration of root spans."""
        child_ns = [0] * len(self.spans)
        for name_id, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        calls = [0] * len(SPAN_NAMES)
        self_ns = [0] * len(SPAN_NAMES)
        root_ns = 0
        for (name_id, start, end, parent, _), covered in zip(self.spans, child_ns):
            calls[name_id] += 1
            self_ns[name_id] += end - start - covered
            if parent < 0:
                root_ns += end - start
        return calls, self_ns, root_ns

    def write_csv(self, path):
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(("span", "name", "start_ns", "end_ns", "parent", "item"))
            for idx, (name_id, start, end, parent, item) in enumerate(self.spans):
                writer.writerow((idx, SPAN_NAMES[name_id], start, end, parent, item))


def layer_metrics(tracer: Tracer, loop_ns: float, items: int) -> dict:
    """Per-layer and per-function metrics of one traced loop.

    ``loop_ns`` is the summed wall time of the traced units; the part no
    root span covers is the harness's own (input generation, checks).
    """
    calls, self_ns, root_ns = tracer.self_times_ns()
    out = {}
    layer_ns = dict.fromkeys(TRACED, 0)
    for name_id, span_name in enumerate(SPAN_NAMES):
        layer_ns[span_name.split(".")[0]] += self_ns[name_id]
        out[f"{span_name}.calls_per_item"] = calls[name_id] / items
        out[f"{span_name}.self_us_per_call"] = (
            self_ns[name_id] / calls[name_id] / 1e3 if calls[name_id] else 0.0
        )
    for layer, ns in layer_ns.items():
        out[f"{layer}.self_share"] = ns / loop_ns
    out["harness.self_share"] = (loop_ns - root_ns) / loop_ns
    return out
