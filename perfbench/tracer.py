"""Outside-in tracer for bcfrac's layers.

The tracer records spans from outside the program: it replaces every module
binding of selected public functions with a timing wrapper, and puts the
originals back when the traced pass ends.  Nothing inside ``src/`` knows
about it.  Spans (name, layer, start, end, parent, item id) stay in memory;
counts are taken from the call arguments and results after the pass, so the
wrappers themselves do little more than read the clock.

``weighted_cr`` and ``hypercomplex`` are not wrapped: their work runs inside
integrand callables and bicomplex arithmetic that other layers invoke, so it
counts toward the caller's self time.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter
from dataclasses import dataclass
from typing import Any, Optional

import numpy as np

from perfbench import listed_metrics

#: (module, function, layer, argument captured for counts).
TARGETS = (
    ("bcfrac.cli", "load_config", "cli", None),
    ("bcfrac.cli", "run_suite", "cli", None),
    ("bcfrac.presets", "parse_plane_expression", "presets", None),
    ("bcfrac.quadrature_verify", "run_identity", "quadrature_verify", None),
    ("bcfrac.quadrature_verify", "convergence_study", "quadrature_verify", None),
    ("bcfrac.quadrature_verify", "gauss_residual", "quadrature_verify", None),
    ("bcfrac.quadrature_verify", "borel_pompeiu_classical", "quadrature_verify", None),
    ("bcfrac.quadrature_verify", "frac_gauss_residual", "quadrature_verify", None),
    ("bcfrac.quadrature_verify", "bg_gauss_residual", "quadrature_verify", None),
    ("bcfrac.quadrature_verify", "frac_bp_reconstruct", "quadrature_verify", None),
    ("bcfrac.quadrature_verify", "trace_component", "trace_field", "xs"),
    ("bcfrac.quadrature_verify", "frac_cr_component", "trace_field", "xs"),
    ("bcfrac.frac_cr_bicomplex", "axis_integral", "frac_cr_bicomplex", "targets"),
    ("bcfrac.frac_cr_bicomplex", "axis_derivative", "frac_cr_bicomplex", None),
    ("bcfrac.frac_cr_bicomplex", "inversion_check", "frac_cr_bicomplex", None),
    ("bcfrac.frac_cr_bicomplex", "compose_derivative_of_integral", "frac_cr_bicomplex", None),
    ("bcfrac.frac_cr_bicomplex", "remainder_R", "frac_cr_bicomplex", None),
    ("bcfrac.frac_cr_bicomplex", "factorization_check", "frac_cr_bicomplex", None),
    ("bcfrac.frac_cr_bicomplex", "frac_cr_apply", "frac_cr_bicomplex", None),
    ("bcfrac.frac_cr_bicomplex", "lambda_residual", "frac_cr_bicomplex", None),
    ("bcfrac.frac_cr_bicomplex", "trace_sum", "frac_cr_bicomplex", None),
    ("bcfrac.fracops1d", "prop_frac_integral", "fracops1d", ("t", "q")),
    ("bcfrac.fracops1d", "prop_frac_derivative", "fracops1d", None),
    ("bcfrac.fracops1d", "tabulate", "fracops1d", None),
    ("bcfrac.fracops1d", "refined_rule", "fracops1d", "result"),
)

LAYERS = ("cli", "presets", "quadrature_verify", "trace_field", "frac_cr_bicomplex", "fracops1d")

#: Per-layer metrics as BENCHMARK.json lists them: (name, unit), each a
#: total over one pass over all items of the workload.  Counts repeat exactly
#: between two traced runs of the same seed; times are medians over the
#: traced passes of a run.
PER_LAYER = listed_metrics("per_layer")

#: Metrics that must repeat exactly between traced passes of one seed.
COUNT_METRICS = tuple(name for name, unit in PER_LAYER if unit == "count") + (
    "frac_cr_bicomplex.axis_integral_unique_ratio",
)

ITEM = "item"


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float = float("nan")
    parent: Optional[int] = None
    item: Optional[str] = None
    payload: Any = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _marked(value) -> bool:
    return callable(value) and getattr(value, "_perfbench_traced", False)


def _package_modules(package: str) -> list:
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == package or name.startswith(package + "."))]


def installed_wrappers(package: str = "bcfrac") -> list:
    """Module bindings under ``package`` that currently hold a tracer wrapper."""
    return [f"{mod.__name__}.{attr}" for mod in _package_modules(package)
            for attr, value in vars(mod).items() if _marked(value)]


class Tracer:
    """Span recorder that wraps module bindings while installed."""

    def __init__(self, targets=TARGETS, package: str = "bcfrac"):
        self.targets = targets
        self.package = package
        self.spans: list = []
        self.errors: Counter = Counter()
        self.missing: list = []
        self.item: Optional[str] = None
        self._stack: list = []
        self._restore: list = []

    # -- installation ------------------------------------------------

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = _package_modules(self.package)
        for modname, fname, layer, capture in self.targets:
            home = sys.modules.get(modname)
            original = getattr(home, fname, None) if home is not None else None
            if original is None or _marked(original):
                self.missing.append(f"{modname}.{fname}")
                continue
            wrapper = self._wrap(original, f"{modname.rsplit('.', 1)[-1]}.{fname}", layer, capture)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._restore.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore.clear()

    def _wrap(self, fn, name: str, layer: str, capture):
        binder = inspect.signature(fn)
        spans, stack, errors = self.spans, self._stack, self.errors

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            payload = None
            if capture is not None and capture != "result":
                bound = binder.bind(*args, **kwargs).arguments
                payload = tuple(bound.get(c) for c in capture) if isinstance(capture, tuple) \
                    else bound.get(capture)
            span = Span(name, layer, 0.0, parent=parent, item=self.item, payload=payload)
            stack.append(len(spans))
            spans.append(span)
            span.start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                span.end = time.perf_counter()
                if parent is None or spans[parent].layer != layer:
                    errors[layer] += 1
                raise
            finally:
                stack.pop()
            span.end = time.perf_counter()
            if capture == "result":
                span.payload = np.shape(out[0])
            return out

        wrapper._perfbench_traced = True
        return wrapper

    # -- item roots ----------------------------------------------------

    def begin_item(self, item: str) -> None:
        self.item = item
        self._stack.append(len(self.spans))
        self.spans.append(Span(ITEM, "bench", time.perf_counter(), item=item))

    def end_item(self) -> None:
        index = self._stack.pop()
        self.spans[index].end = time.perf_counter()
        self.item = None


# ----------------------------------------------------------------------
# derivation


def self_times(spans: list) -> np.ndarray:
    """Duration of each span minus the durations of its direct children."""
    own = np.array([s.seconds for s in spans], dtype=float)
    out = own.copy()
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.seconds
    return out


def _outermost(spans: list, names: tuple) -> list:
    """Spans named in ``names`` with no ancestor also named in ``names``."""
    out = []
    for s in spans:
        if s.name not in names:
            continue
        p = s.parent
        while p is not None and spans[p].name not in names:
            p = spans[p].parent
        if p is None:
            out.append(s)
    return out


def _inclusive(spans: list, *names: str) -> float:
    return float(sum(s.seconds for s in _outermost(spans, names)))


def _calls(spans: list, name: str) -> list:
    return [s for s in spans if s.name == name]


def layer_metrics(spans: list, errors: Counter) -> dict:
    """Per-layer metrics of one traced pass (or of one traced set-up)."""
    self_s = self_times(spans)
    layer_self = Counter()
    for s, own in zip(spans, self_s):
        layer_self[s.layer] += own
    item_s = float(sum(s.seconds for s in spans if s.name == ITEM))

    axis = _calls(spans, "frac_cr_bicomplex.axis_integral")
    axis_targets = [np.asarray(s.payload, dtype=float).ravel() for s in axis]
    n_axis = int(sum(t.size for t in axis_targets))
    n_axis_unique = int(sum(np.unique(t).size for t in axis_targets))

    integral = _calls(spans, "fracops1d.prop_frac_integral")
    sizes = [(int(np.size(t)), int(q.n)) for t, q in (s.payload for s in integral)]
    int_nodes = sum(size * n for size, n in sizes)
    integral_s = _inclusive(spans, "fracops1d.prop_frac_integral")

    refined = _calls(spans, "fracops1d.refined_rule")
    field_roots = _outermost(spans, ("quadrature_verify.trace_component",
                                     "quadrature_verify.frac_cr_component"))

    m = {
        "cli.load_config_s": _inclusive(spans, "cli.load_config"),
        "presets.parse_plane_expression_calls": len(_calls(spans, "presets.parse_plane_expression")),
        "presets.parse_plane_expression_s": _inclusive(spans, "presets.parse_plane_expression"),
        "quadrature_verify.self_s": float(layer_self["quadrature_verify"]),
        "quadrature_verify.frac_bp_reconstruct_s": _inclusive(spans, "quadrature_verify.frac_bp_reconstruct"),
        "quadrature_verify.frac_gauss_residual_s": _inclusive(spans, "quadrature_verify.frac_gauss_residual"),
        "quadrature_verify.run_identity_calls": len(_calls(spans, "quadrature_verify.run_identity")),
        "trace_field.points": int(sum(np.size(s.payload) for s in field_roots)),
        "trace_field.s": float(sum(s.seconds for s in field_roots)),
        "frac_cr_bicomplex.axis_integral_calls": len(axis),
        "frac_cr_bicomplex.axis_integral_targets": n_axis,
        "frac_cr_bicomplex.axis_integral_unique_ratio": n_axis_unique / n_axis if n_axis else 1.0,
        "frac_cr_bicomplex.self_s": float(layer_self["frac_cr_bicomplex"]),
        "frac_cr_bicomplex.compose_s": _inclusive(spans, "frac_cr_bicomplex.compose_derivative_of_integral"),
        "frac_cr_bicomplex.remainder_s": _inclusive(spans, "frac_cr_bicomplex.remainder_R"),
        "frac_cr_bicomplex.factorization_check_s": _inclusive(spans, "frac_cr_bicomplex.factorization_check"),
        "fracops1d.integral_calls": len(integral),
        "fracops1d.integral_targets": sum(size for size, _ in sizes),
        "fracops1d.integral_nodes": int_nodes,
        "fracops1d.integral_s": integral_s,
        "fracops1d.ns_per_node": integral_s * 1e9 / int_nodes if int_nodes else 0.0,
        "fracops1d.derivative_calls": len(_calls(spans, "fracops1d.prop_frac_derivative")),
        "fracops1d.derivative_s": _inclusive(spans, "fracops1d.prop_frac_derivative"),
        "fracops1d.tabulate_calls": len(_calls(spans, "fracops1d.tabulate")),
        "fracops1d.tabulate_s": _inclusive(spans, "fracops1d.tabulate"),
        "fracops1d.refined_rule_calls": len(refined),
        "fracops1d.refined_rule_nodes": int(sum(int(np.prod(s.payload)) for s in refined)),
        "fracops1d.refined_rule_s": _inclusive(spans, "fracops1d.refined_rule"),
    }
    for layer in LAYERS:
        m[f"{layer}.errors"] = int(errors[layer])
        m[f"share.{layer}"] = float(layer_self[layer]) / item_s if item_s else 0.0
    return m


def span_rows(spans: list) -> list:
    """Spans as JSON rows ``[name, layer, start, end, parent, item]``."""
    return [[s.name, s.layer, s.start, s.end, s.parent, s.item] for s in spans]
