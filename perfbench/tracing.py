"""Span recorder that times runoff's public functions from outside.

`install()` replaces each traced function with a timing wrapper in every
`runoff.*` namespace that binds it. The modules re-bind names with
`from ... import`, so patching only the defining module would leave
internal calls untimed. Spans live in flat arrays (name, start, end,
parent, op) and are written out once, when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array
from contextlib import contextmanager

import numpy as np

# Per-layer functions, by module. Dotted names are methods.
TRACED = {
    "triangle": (
        "cumulate",
        "validate",
        "column_partial_sum",
        "IncrementalTriangle.with_cell",
    ),
    "chainladder": (
        "estimate_development_factors",
        "estimate_sigmas",
        "project_ultimates",
        "reserves",
        "mse_accident_year",
        "mse_total",
    ),
    "bornhuetter": ("default_priors", "bf_reserves"),
    "impact": (
        "d_ln_f",
        "impact_reserve_ay",
        "impact_reserve_total",
        "impact_bf_ay",
        "impact_bf_total",
        "impact_mse_ay",
        "impact_mse_total",
        "marginal_contributions",
    ),
    "quantile": ("fit_lognormal", "inv_std_normal_cdf", "impact_quantile"),
    "oracle": (
        "fd_derivative",
        "verify_reserve_impacts",
        "verify_mse_components",
        "verify_quantile_impacts",
    ),
    "cli": ("ingest", "compute", "render_csv", "render_json", "render_svg"),
}
SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns)
NAMESPACES = ("runoff",) + tuple(f"runoff.{mod}" for mod in TRACED)


class Recorder:
    """Spans of the current process, appended by the wrappers."""

    def __init__(self):
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self._stack = [-1]
        self._op = -1

    @contextmanager
    def op_scope(self, op_id: int):
        """Tag the spans recorded inside with op_id."""
        self._op = op_id
        try:
            yield
        finally:
            self._op = -1

    def wrap(self, name_id: int, fn):
        stack = self._stack
        starts, ends = self.start, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            self.name.append(name_id)
            self.parent.append(stack[-1])
            self.op.append(self._op)
            ends.append(0.0)
            stack.append(idx)
            starts.append(time.perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = time.perf_counter()
                stack.pop()

        return traced

    def arrays(self) -> dict:
        """The spans as numpy views: name index, start, end, parent index, op id."""
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "op": np.frombuffer(self.op, dtype=np.int32),
        }



def save(path, spans: dict) -> None:
    """Write spans, with the span names, as one .npz file."""
    np.savez(path, names=np.array(SPAN_NAMES), **spans)


def install(recorder: Recorder) -> None:
    """Wrap every traced function wherever a runoff namespace binds it."""
    modules = [importlib.import_module(name) for name in NAMESPACES]
    for name_id, span in enumerate(SPAN_NAMES):
        mod_name, _, attr = span.partition(".")
        home = importlib.import_module(f"runoff.{mod_name}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(home, cls_name)
            setattr(cls, meth, recorder.wrap(name_id, getattr(cls, meth)))
            continue
        original = getattr(home, attr)
        wrapped = recorder.wrap(name_id, original)
        for module in modules:
            if getattr(module, attr, None) is original:
                setattr(module, attr, wrapped)


def self_times(spans) -> tuple:
    """(calls, self seconds) per span name: duration minus child spans."""
    name, parent = spans["name"], spans["parent"]
    dur = spans["end"] - spans["start"]
    child = np.zeros(len(dur))
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    n = len(SPAN_NAMES)
    calls = np.bincount(name, minlength=n)
    self_s = np.bincount(name, weights=dur - child, minlength=n)
    return calls, self_s


def layer_metrics(calls, self_s, n_ops: int, op_seconds: float) -> dict:
    """Per-op calls and self time per function, and each module's share."""
    out = {}
    module_self = dict.fromkeys(TRACED, 0.0)
    for idx, span in enumerate(SPAN_NAMES):
        out[f"{span}.calls_per_op"] = (float(calls[idx]) / n_ops, "count")
        out[f"{span}.self_ms_per_op"] = (1e3 * float(self_s[idx]) / n_ops, "ms")
        module_self[span.partition(".")[0]] += float(self_s[idx])
    for mod, total in module_self.items():
        out[f"{mod}.self_share"] = (total / op_seconds, "ratio")
    return out
