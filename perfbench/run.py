"""Seeded end-to-end benchmark of ``bcfrac verify``.

    python3 perfbench/run.py --workload trace-gauss --seed 0 --seconds 6 --trace 0

generates the workload's config from the seed (``perfbench/generate.py``),
hands it to fresh worker processes (``perfbench/worker.py``) as their only
input and prints one line per metric, then, as the last line, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.

With ``--trace 0``, ``COLD_SAMPLES`` fresh workers run one after another;
each sets up, runs one cold pass over all items and then warm passes (whole
passes, at least one) for its share ``--seconds / COLD_SAMPLES``, so the
warm samples come from three windows spread over the run.  Because passes
are whole, a run lasts longer than ``--seconds`` when a pass is longer than
that share.  The metrics are
the end-to-end ones:

* ``setup_s``: median over the workers of ``import bcfrac`` plus
  ``bcfrac.cli.load_config`` of the workload config;
* ``cold_pass_s``: median over the workers of their first pass over all
  items (lazy imports and first-call caches included);
* ``items_per_s``: items per second of the median warm pass;
* ``item_s_p50`` and ``item_s_tail``: warm per-item wall time; the tail is
  the highest percentile of 50, 75, 90, 95, 99 and 99.9 with at least ten
  samples beyond it (the median when there are fewer than twenty samples);
* ``pass_frac``: share of attempted items that passed the correctness gate
  (one minus the failure share; a metric that is never zero);
* ``peak_rss_mb``: median over the workers of their peak resident memory.

With ``--trace 1`` a separate run alternates untraced and traced passes (at
least two traced passes, whose counts must agree) and prints the per-layer
metrics of ``perfbench/tracer.py``.  The metric names and units are those
that BENCHMARK.json lists.  Workers run single threaded (BLAS thread count
1).  One record per run, the generated configs and the spans are written
under ``perfbench/out/``; ``perfbench/summarize.py`` reads the records.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
WORKER = ROOT / "perfbench" / "worker.py"

COLD_SAMPLES = 3
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
BLAS_THREADS = "1"
#: Time allowed beyond ``--seconds`` for the workers' set-up, cold passes and
#: the whole passes that run past their share of ``--seconds``.
TIME_MARGIN_S = 160.0


def tail_percentile(n: int) -> float:
    """Highest ladder percentile with at least ten of ``n`` samples beyond it."""
    for q in TAIL_LADDER:
        if round(n * (100.0 - q) / 100.0, 9) >= 10.0:
            return q
    return 50.0


def fail_counts(items: list) -> dict:
    """Failures by type among attempted items."""
    counts = {}
    for item in items:
        if item["failure"]:
            counts[item["failure"]] = counts.get(item["failure"], 0) + 1
    return counts


def fail_frac(items: list) -> float:
    return sum(fail_counts(items).values()) / len(items)


def deterministic(passes: list) -> bool:
    """Every pass must give every item bit-identical residuals."""
    first = [i["residuals"] for i in passes[0]["items"]]
    return all([i["residuals"] for i in p["items"]] == first for p in passes[1:])


def end_to_end(results: list) -> tuple:
    """End-to-end metrics from the fresh workers' results."""
    import numpy as np

    warm = [p for r in results for p in r["warm"]]
    samples = np.array([i["seconds"] for p in warm for i in p["items"]])
    q = tail_percentile(samples.size)
    attempted = [i for r in results for p in (r["cold"], *r["warm"]) for i in p["items"]]
    values = {
        "setup_s": statistics.median(r["setup_s"] for r in results),
        "cold_pass_s": statistics.median(r["cold"]["seconds"] for r in results),
        "items_per_s": len(warm[0]["items"]) / statistics.median(p["seconds"] for p in warm),
        "item_s_p50": float(np.median(samples)),
        "item_s_tail": float(np.percentile(samples, q)),
        "pass_frac": 1.0 - fail_frac(attempted),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
    }
    return values, {"tail_percentile": q, "warm_samples": int(samples.size),
                    "setup_samples": [r["setup_s"] for r in results],
                    "cold_samples": [r["cold"]["seconds"] for r in results]}


def _worker_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0",
               OPENBLAS_NUM_THREADS=BLAS_THREADS, OMP_NUM_THREADS=BLAS_THREADS,
               MKL_NUM_THREADS=BLAS_THREADS)
    return env


def _call_worker(args: list, deadline: float) -> dict:
    """Run one worker to completion (killed at the deadline) and parse the
    JSON on its last output line."""
    proc = subprocess.run([sys.executable, str(WORKER), *args], env=_worker_env(), cwd=ROOT,
                          capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args[0]} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def environment() -> dict:
    import numpy
    import scipy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "blas_threads": BLAS_THREADS, "load": "closed loop, 1 caller, --jobs 1"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="bcfrac end-to-end benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    started = time.monotonic()
    deadline = started + args.seconds + TIME_MARGIN_S
    # turn SIGTERM into SystemExit so that subprocess.run kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "bcfrac" / "__init__.py").is_file():
        print(f"no bcfrac sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT))
    from perfbench import generate, listed_metrics

    if args.workload not in generate.WORKLOADS:
        print(f"unknown workload {args.workload!r}; known: {', '.join(generate.WORKLOADS)}",
              file=sys.stderr)
        return 2
    tag = f"{args.workload}-seed{args.seed}"
    config = str(generate.write_config(args.workload, args.seed, OUT / f"{tag}.json"))
    run_args = ["run", "--config", config, "--workload", args.workload]
    if args.seed == generate.DEFAULT_SEED:
        run_args += ["--reference", str(ROOT / "perfbench" / "reference.json")]

    try:
        if args.trace:
            spans = OUT / f"{tag}-spans.json"
            results = [_call_worker(run_args + ["--seconds", str(args.seconds), "--trace", "1",
                                                "--spans", str(spans)], deadline)]
        else:
            share = str(args.seconds / COLD_SAMPLES)
            results = [_call_worker(run_args + ["--seconds", share, "--trace", "0"], deadline)
                       for _ in range(COLD_SAMPLES)]
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"benchmark worker failed: {exc}", file=sys.stderr)
        return 3

    result = results[-1]
    passes = [p for r in results for p in (r["cold"], *r["warm"], *r.get("traced", []))]
    items = [i for p in passes for i in p["items"]]
    failures = fail_counts(items)
    correct = not failures and deterministic(passes)
    if args.trace:
        correct = correct and result["counts_repeat"]
        values = result["layers"]
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in listed_metrics("per_layer")}
        items_by_name = {}
        for p in result["warm"]:
            for i in p["items"]:
                items_by_name.setdefault(i["name"], []).append(i["seconds"])
        extra = {"item_s_median": {k: statistics.median(v) for k, v in items_by_name.items()},
                 "counts_repeat": result["counts_repeat"],
                 "missing_targets": result["missing_targets"], "spans": str(spans)}
    else:
        values, extra = end_to_end(results)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in listed_metrics("end_to_end")}
    extra.update(environment=environment(), failures=failures,
                 fail_frac=fail_frac(items),
                 errors=sorted({i["error"] for i in items if i["error"]}))

    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    for key, value in extra.items():
        print(f"# {key}: {json.dumps(value)}")
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "metrics": metrics, **extra,
              "run_wall_s": time.monotonic() - started}
    record_path = OUT / f"{tag}-trace{args.trace}-{time.time_ns()}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"correct": bool(correct), "attempted": len(items),
                      "failed": sum(failures.values()), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
