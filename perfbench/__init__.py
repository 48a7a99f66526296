"""Seeded end-to-end benchmark of ``bcfrac verify`` with outside-in layer tracing.

Run ``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>``
from the repository root; see ``perfbench/run.py`` for the metrics it prints.
"""

import json
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def listed_metrics(kind: str) -> list:
    """``(name, unit)`` of each ``end_to_end`` or ``per_layer`` metric that
    BENCHMARK.json lists, in its order."""
    return [(m["name"], m["unit"]) for m in json.loads(SPEC.read_text())[kind]]
