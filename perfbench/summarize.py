"""Summarize the run records under ``perfbench/out/``.

    python3 perfbench/summarize.py [--out summary.json]

Groups the records that ``perfbench/run.py`` writes by workload and prints,
for every metric, the run count, the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the quartile spread as a share
of the median, which is how run-to-run spread is judged against each
end-to-end metric's bound.  Traced records also give the median time of
each item, so every built-in preset has a median, not a single run, and
their counts are compared across the traced runs of each workload and seed:
any count that differs between two runs is printed and makes the exit code 2.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"


def spread(values: list) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"runs": len(values), "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def summarize(records: list) -> dict:
    out = {}
    for rec in records:
        wl = out.setdefault(rec["workload"], {"seeds": [], "metrics": {}, "item_s_median": {},
                                              "failed": 0})
        wl["seeds"].append(rec["seed"])
        wl["failed"] += sum(rec["failures"].values())
        for name, m in rec["metrics"].items():
            wl["metrics"].setdefault(name, {"unit": m["unit"], "values": []})["values"].append(m["value"])
        for name, seconds in rec.get("item_s_median", {}).items():
            wl["item_s_median"].setdefault(name, []).append(seconds)
    for wl in out.values():
        for m in wl["metrics"].values():
            m.update(spread(m.pop("values")))
        wl["item_s_median"] = {k: statistics.median(v) for k, v in wl["item_s_median"].items()}
    return out


def count_mismatches(records: list) -> dict:
    """Count metrics that differ between traced runs of the same workload and
    seed, as ``{"<workload> seed <n>": [metric, ...]}``."""
    if str(ROOT) not in sys.path:
        sys.path.insert(0, str(ROOT))
    from perfbench.tracer import COUNT_METRICS

    groups = {}
    for rec in records:
        if rec["trace"]:
            groups.setdefault(f"{rec['workload']} seed {rec['seed']}", []).append(rec["metrics"])
    out = {}
    for key, runs in groups.items():
        differ = [name for name in COUNT_METRICS
                  if any(m[name]["value"] != runs[0][name]["value"] for m in runs[1:])]
        if differ:
            out[key] = differ
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=None, help="also write the summary as JSON")
    args = parser.parse_args(argv)
    records = [json.loads(p.read_text()) for p in sorted(OUT.glob("*-trace[01]-*.json"))]
    if not records:
        print(f"no run records under {OUT}", file=sys.stderr)
        return 1
    summary = summarize(records)
    for workload, wl in summary.items():
        print(f"{workload}: seeds {sorted(set(wl['seeds']))}, failed items {wl['failed']}")
        for name, m in wl["metrics"].items():
            print(f"  {name:48s} {m['median']:12.6g} {m['unit']:6s} "
                  f"q1 {m['q1']:.6g} q3 {m['q3']:.6g} spread {m['spread']:.3f} ({m['runs']} runs)")
    mismatches = count_mismatches(records)
    for key, names in mismatches.items():
        print(f"counts differ between traced runs of {key}: {', '.join(names)}")
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 2 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
