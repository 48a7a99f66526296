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
