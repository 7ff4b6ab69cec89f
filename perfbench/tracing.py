"""Span tracing installed from outside the package.

A `Tracer` wraps public gmdiff names so that every call records a span
(name, start, end, parent, op). Spans stay in memory and are written once,
when the run ends. A name is wrapped in every gmdiff module namespace that
holds it (``density`` lives in ``mixture``, ``bounds`` and ``metrics``), so
no caller can reach the unwrapped function. Wrappers return the wrapped
call's result unchanged; they only read the clock.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

# (layer module, qualified name) of every traced public name. The layer
# names are the package modules; see README.md for what each span should move.
TARGETS = (
    ("cli", "main"),
    ("fileio", "load_spec"),
    ("schedules", "uniform_grid"),
    ("samples", "SampleBatch.to_csv"),
    ("samples", "SampleBatch.from_csv"),
    ("mixture", "score"),
    ("mixture", "score_jacobian"),
    ("mixture", "density"),
    ("mixture", "sample_array"),
    ("forward", "marginal_at"),
    ("solvers", "FourierField.__call__"),
    ("solvers", "ScoreModel.__call__"),
    ("solvers", "make_score_model"),
    ("solvers", "step_ei"),
    ("solvers", "run_sampler"),
    ("solvers", "run_predictor_corrector"),
    ("bounds", "bound_report"),
    ("bounds", "calibrate_region"),
    ("bounds", "region_mask"),
    ("metrics", "jacobian_spectral_probe"),
    ("metrics", "spectral_norms"),
    ("metrics", "reference_cell_masses"),
    ("metrics", "kl_histogram"),
    ("metrics", "moment_diagnostics"),
)

ROOT_SPAN = "op"


def span_name(module: str, qualname: str) -> str:
    return f"{module}.{qualname}"


# counters read from a traced call's result, summed per op
OBSERVERS = {
    "bounds.region_mask": lambda mask: {"passed": int(mask.sum()), "points": int(mask.size)},
    "metrics.kl_histogram": lambda res: {"clamped_cells": int(res.clamped_cells)},
}


class MissingTarget(LookupError):
    """A traced name no longer exists in the package."""


class Tracer:
    """In-memory span recorder. Spans of one op share its op index."""

    def __init__(self):
        self.spans: list[list] = []     # [name, start, end, parent, op]
        self.counters: dict[int, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self.op = -1
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if observe is not None:
                counts = self.counters[self.op]
                for key, value in observe(result).items():
                    counts[f"{name}.{key}"] += value
            return result

        return traced

    def run_op(self, op_index: int, fn):
        """Call fn under a root span; every span it causes is tagged op_index."""
        self.op = op_index
        try:
            return self.wrap(ROOT_SPAN, fn)()
        finally:
            self.op = -1

    def breakdown(self, op_index: int) -> dict[str, dict[str, float]]:
        """Per name: calls, total seconds and self seconds within one op.

        Self time is a span's duration minus the durations of its direct
        children; calls are single-threaded, so children never overlap.
        """
        idx = [i for i, s in enumerate(self.spans) if s[4] == op_index]
        self_s = {i: self.spans[i][2] - self.spans[i][1] for i in idx}
        for i in idx:
            parent = self.spans[i][3]
            if parent >= 0:
                self_s[parent] -= self.spans[i][2] - self.spans[i][1]
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for i in idx:
            name, start, end = self.spans[i][:3]
            row = out[name]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += self_s[i]
        return dict(out)

    def durations(self, name: str) -> list[float]:
        return [s[2] - s[1] for s in self.spans if s[0] == name]

    def write(self, path: Path) -> None:
        cols = list(zip(*self.spans)) if self.spans else [[]] * 5
        payload = {key: list(col) for key, col in
                   zip(("name", "start", "end", "parent", "op"), cols)}
        path.write_text(json.dumps(payload) + "\n")


def _gmdiff_modules() -> list:
    return [m for key, m in sorted(sys.modules.items())
            if m is not None and (key == "gmdiff" or key.startswith("gmdiff."))]


def resolve(gm, module: str, qualname: str):
    """(owner, attribute) for a traced name; raises MissingTarget if gone."""
    owner = getattr(gm, module, None)
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
    if owner is None or parts[-1] not in vars(owner):
        raise MissingTarget(f"gmdiff.{module}.{qualname} no longer exists")
    return owner, parts[-1]


def install(tracer: Tracer, gm, targets=TARGETS) -> list:
    """Wrap each target everywhere it is bound; returns the undo list for
    `uninstall`. Raises MissingTarget, wrapping nothing, if a name is gone."""
    resolved = [(span_name(m, q), *resolve(gm, m, q)) for m, q in targets]
    modules = _gmdiff_modules()
    undo = []
    for name, owner, attr in resolved:
        raw = vars(owner)[attr]
        if isinstance(owner, type):
            # a method: patch the class, which every namespace shares
            if isinstance(raw, classmethod):
                wrapped = classmethod(tracer.wrap(name, raw.__func__))
            else:
                wrapped = tracer.wrap(name, raw)
            undo.append((owner, attr, raw))
            setattr(owner, attr, wrapped)
            continue
        wrapped = tracer.wrap(name, raw)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is raw:
                    undo.append((mod, key, raw))
                    setattr(mod, key, wrapped)
    return undo


def uninstall(undo: list) -> None:
    for owner, attr, raw in reversed(undo):
        setattr(owner, attr, raw)
