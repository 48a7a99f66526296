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
