"""The benchmark tracer (perfbench/tracer.py) wraps program functions by
module and name, so a rename in the package would silently drop their spans
from the per-layer metrics."""

import importlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.tracer import TARGETS  # noqa: E402

#: Targets whose functions are deleted; the tracer keeps them until its
#: reference is next recorded.
STALE = {"bg_gauss_residual", "refined_rule"}


def test_every_tracer_target_resolves():
    unresolved = [f"{module}.{name}" for module, name, _, _ in TARGETS
                  if name not in STALE
                  and not callable(getattr(importlib.import_module(module), name, None))]
    assert unresolved == []
    assert ("bcfrac.fracops1d", "tabulate") in {(module, name) for module, name, _, _ in TARGETS}


def test_every_captured_argument_is_a_parameter_of_its_target():
    # the tracer binds captured arguments by name; a renamed parameter would
    # silently capture None
    import inspect

    unbound = []
    for module, name, _, capture in TARGETS:
        if name in STALE or capture in (None, "result"):
            continue
        params = inspect.signature(getattr(importlib.import_module(module), name)).parameters
        names = capture if isinstance(capture, tuple) else (capture,)
        unbound += [f"{module}.{name}({arg})" for arg in names if arg not in params]
    assert unbound == []


def test_identities_reach_the_cr_field_through_quadrature_verify(monkeypatch):
    # frac_cr_component is defined in frac_cr_bicomplex; the tracer's
    # trace_field spans wrap it by its quadrature_verify binding, so the Gauss
    # identity and the deep area map must look it up there
    from bcfrac import (FracParams, Phi4, ProductFunction, Quadrature1D, RectDomain,
                        SurfacePatch, WeightPair)
    from bcfrac import quadrature_verify as qv

    assert ("bcfrac.quadrature_verify", "frac_cr_component") in {
        (module, name) for module, name, _, _ in TARGETS}
    real, components = qv.frac_cr_component, []

    def counting(ix, iy, p, wp, l, xs, ys):
        components.append(l)
        return real(ix, iy, p, wp, l, xs, ys)

    monkeypatch.setattr(qv, "frac_cr_component", counting)
    rect = RectDomain(0, 1, 0, 1, 0, 1, 0, 1)
    p = FracParams(rect, (0.5,) * 4, (1, 0, 1, 0), Phi4.fractal(1, 1, 1, 1), Quadrature1D(n=32))
    F = ProductFunction.from_holomorphic(lambda z: z**2, lambda z: 2 * z)
    W, Z = rect.point(0.45, 0.4, 0.55, 0.6), rect.point(0.5, 0.55, 0.45, 0.5)
    wp, lam = WeightPair.classical(), ProductFunction.constant(0.0)
    patch = SurfacePatch.inside(rect, m=4, k=4)

    qv.frac_gauss_residual(F, W, p, wp, lam, patch)
    assert components == [1, 2]
    components.clear()
    qv.frac_bp_reconstruct(F, W, Z, p, wp, lam, patch)
    assert set(components) == {1, 2}
