"""Benchmark worker: one fresh process that sets up bcfrac and runs a workload.

``perfbench/run.py`` starts it in ``run`` mode.  Modes:

* ``run``: time ``import bcfrac`` plus ``bcfrac.cli.load_config``, run a
  cold pass over every item, then whole warm passes until ``--seconds``
  have elapsed (at least one), each followed by a traced pass under
  ``--trace 1`` (at least two, so that the count check compares two
  passes); prints one JSON result line;
* ``reference``: run the checked-in default-seed configs once and record
  the residuals that later runs of the default seed are gated against
  (``PYTHONPATH=src python3 perfbench/worker.py reference``; needed only
  when a workload changes).

The load is a closed loop: one caller, and each item waits for its verdict
before the next starts, as ``bcfrac verify`` runs with ``--jobs 1``.  Only
the standard library is imported before ``bcfrac`` so that the set-up time
includes numpy, scipy and, for expression presets, sympy.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = ROOT / "perfbench" / "reference.json"
CONFIGS = ROOT / "perfbench" / "configs"
#: Share by which a default-seed residual may exceed its reference residual.
RESIDUAL_BOUND = 0.1


def set_up(config: str):
    """Import bcfrac and parse the workload; returns ``(cli, configs, seconds)``."""
    t0 = time.perf_counter()
    import bcfrac.cli as cli

    configs = cli.load_config(config)
    seconds = time.perf_counter() - t0
    src = (ROOT / "src").resolve()
    if src not in Path(cli.__file__).resolve().parents:
        raise RuntimeError(f"bcfrac imported from {cli.__file__}, not from {src}")
    return cli, configs, seconds


def gate(cfg, entry: dict, reports: list, ref):
    """Failure type of one finished item, or ``None`` when it is correct.

    Residuals must be finite at every level (checked here, not through the
    runner's verdict, which lets NaN through), the finest level must pass its
    tolerance, and with a reference residual the finest level may not exceed
    it by more than ``RESIDUAL_BOUND`` (one-sided: more accurate is fine).
    """
    for r in reports:
        if not (math.isfinite(r.res_l1) and math.isfinite(r.res_l2)):
            return "NonFiniteResidual"
    final = reports[-1]
    if not (max(final.res_l1, final.res_l2) <= cfg.tolerance and entry["passed"]):
        return "ToleranceExceeded"
    if ref is not None:
        for got, want in zip((final.res_l1, final.res_l2), ref):
            if got > want * (1.0 + RESIDUAL_BOUND) + 1e-6 * cfg.tolerance:
                return "ResidualRegression"
    return None


def run_item(cli, cfg, ref, tracer=None) -> dict:
    """Run one experiment entry through ``cli.run_suite`` and gate it.

    Exceptions are caught here, recorded by type and counted as failures."""
    reports, error = None, None
    t0 = time.perf_counter()
    if tracer is not None:
        tracer.begin_item(cfg.name)
    try:
        summary, by_name = cli.run_suite([cfg])
        reports, entry = by_name[cfg.name], summary["experiments"][0]
    except Exception as exc:  # an item must never crash the run
        failure, error = type(exc).__name__, traceback.format_exc(limit=4)
    finally:
        if tracer is not None:
            tracer.end_item()
    seconds = time.perf_counter() - t0
    residuals = None
    if reports is not None:
        failure = gate(cfg, entry, reports, ref)
        residuals = [[float(r.res_l1), float(r.res_l2)] for r in reports]
    return {"name": cfg.name, "seconds": seconds, "failure": failure,
            "residuals": residuals, "error": error}


def run_pass(cli, configs, refs: dict, tracer=None) -> dict:
    t0 = time.perf_counter()
    items = [run_item(cli, cfg, refs.get(cfg.name), tracer) for cfg in configs]
    return {"seconds": time.perf_counter() - t0, "items": items}


def _assert_untraced() -> None:
    from perfbench.tracer import installed_wrappers

    left = installed_wrappers()
    if left:
        raise RuntimeError(f"tracer wrappers still installed: {left}")


def _load_refs(path, workload) -> dict:
    if not path:
        return {}
    return json.loads(Path(path).read_text())["workloads"][workload]


def _run(args) -> dict:
    sys.path.insert(0, str(ROOT))
    if args.trace:
        import bcfrac.cli  # noqa: F401  (the wrappers need the modules loaded)
        from perfbench import tracer as tr

        setup_tracer = tr.Tracer()
        setup_tracer.install()
        try:
            cli, configs, setup_s = set_up(args.config)
        finally:
            setup_tracer.uninstall()
    else:
        cli, configs, setup_s = set_up(args.config)
    refs = _load_refs(args.reference, args.workload)
    _assert_untraced()
    cold = run_pass(cli, configs, refs)
    result = {"setup_s": setup_s, "cold": cold}

    warm, traced, metrics = [], [], []
    t_start = time.perf_counter()
    while (time.perf_counter() - t_start < args.seconds
           or (args.trace and len(traced) < 2)):
        _assert_untraced()
        warm.append(run_pass(cli, configs, refs))
        if args.trace:
            t = tr.Tracer()
            t.install()
            try:
                traced.append(run_pass(cli, configs, refs, tracer=t))
            finally:
                t.uninstall()
            metrics.append((t, tr.layer_metrics(t.spans, t.errors)))
    result["warm"] = warm
    if args.trace:
        result["traced"] = traced
        setup = tr.layer_metrics(setup_tracer.spans, setup_tracer.errors)
        result["layers"], result["counts_repeat"] = combine(
            setup, [m for _, m in metrics], warm, traced)
        result["missing_targets"] = sorted(set(setup_tracer.missing + metrics[0][0].missing))
        if args.spans:
            Path(args.spans).write_text(json.dumps({
                "setup": tr.span_rows(setup_tracer.spans),
                "passes": [tr.span_rows(t.spans) for t, _ in metrics],
            }))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return result


def combine(setup: dict, per_pass: list, warm: list, traced: list) -> tuple:
    """Per-layer metrics of a traced run from the set-up's and each traced
    pass's ``layer_metrics``: times are medians over the traced passes, counts
    are taken from the first and must repeat in every other.  Returns
    ``(metrics, counts_repeat)``."""
    from perfbench import tracer as tr

    out = {}
    for name, _ in tr.PER_LAYER:
        if name == "trace_overhead":
            continue
        values = [m[name] for m in per_pass]
        out[name] = values[0] if name in tr.COUNT_METRICS else statistics.median(values)
    repeat = all(m[name] == per_pass[0][name] for m in per_pass for name in tr.COUNT_METRICS)
    for name in ("cli.load_config_s", "presets.parse_plane_expression_calls",
                 "presets.parse_plane_expression_s"):
        out[name] = setup[name]
    for layer in ("cli", "presets"):
        out[f"{layer}.errors"] += setup[f"{layer}.errors"]
    out["trace_overhead"] = (statistics.median(p["seconds"] for p in traced)
                             / statistics.median(p["seconds"] for p in warm))
    return out, repeat


def _reference() -> int:
    """Record the default-seed residuals of every workload."""
    sys.path.insert(0, str(ROOT))
    from perfbench.generate import DEFAULT_SEED, WORKLOADS

    data = {"seed": DEFAULT_SEED, "workloads": {}}
    for workload in WORKLOADS:
        cli, configs, _ = set_up(str(CONFIGS / f"{workload}.json"))
        items = run_pass(cli, configs, {})["items"]
        bad = [i["name"] for i in items if i["failure"]]
        if bad:
            raise RuntimeError(f"{workload}: items failed while recording references: {bad}")
        data["workloads"][workload] = {i["name"]: i["residuals"][-1] for i in items}
    REFERENCE.write_text(json.dumps(data, indent=1) + "\n")
    print(REFERENCE)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="perfbench worker process")
    sub = parser.add_subparsers(dest="mode", required=True)
    p_run = sub.add_parser("run")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--workload", required=True)
    p_run.add_argument("--seconds", type=float, required=True)
    p_run.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p_run.add_argument("--reference", default=None)
    p_run.add_argument("--spans", default=None)
    sub.add_parser("reference")
    args = parser.parse_args(argv)

    if args.mode == "reference":
        return _reference()
    print(json.dumps(_run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
