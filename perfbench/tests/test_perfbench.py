"""Self-tests of the benchmark harness (generator, tracer, gate)."""

import json
import math
import sys
import time
import types
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import pytest

ROOT = Path(__file__).resolve().parents[2]
for path in (ROOT, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from bcfrac.cli import load_config  # noqa: E402
from bcfrac.quadrature_verify import ResidualReport  # noqa: E402
from perfbench import generate, listed_metrics, run, summarize, tracer, worker  # noqa: E402


class TestGenerator:
    @pytest.mark.parametrize("workload", generate.WORKLOADS)
    def test_deterministic_per_seed_and_differs_across_seeds(self, workload):
        assert generate.workload_config(workload, 7) == generate.workload_config(workload, 7)
        assert generate.workload_config(workload, 7) != generate.workload_config(workload, 8)

    @pytest.mark.parametrize("workload", generate.WORKLOADS)
    def test_default_configs_are_checked_in_and_load(self, workload):
        # preset entries are copied from the live presets, so only the
        # generated entries are compared with the checked-in file
        path = ROOT / "perfbench" / "configs" / f"{workload}.json"
        checked_in = json.loads(path.read_text())["experiments"]
        expected = generate.workload_config(workload, generate.DEFAULT_SEED)["experiments"]
        presets = generate.PRESET_ITEMS[workload]
        assert [e for e in checked_in if e["name"] not in presets] == [
            e for e in expected if e["name"] not in presets]
        names = [cfg.name for cfg in load_config(str(path))]
        assert names == [e["name"] for e in expected]

    def test_preset_entries_are_carried_once_and_unchanged(self):
        from bcfrac.presets import EXPERIMENT_PRESETS

        shipped = {e["name"]: e for bundle in EXPERIMENT_PRESETS.values() for e in bundle}
        carried = [n for names in generate.PRESET_ITEMS.values() for n in names]
        assert len(carried) == len(set(carried)) and set(carried) <= set(shipped)
        for workload, names in generate.PRESET_ITEMS.items():
            entries = {e["name"]: e for e in generate.workload_config(workload, 3)["experiments"]}
            for name in names:
                assert entries[name] == json.loads(json.dumps(shipped[name]))

    def test_rejects_weights_and_scale_functions_outside_the_regime(self):
        base = generate.workload_config("trace-gauss", 0)["experiments"][0]
        with pytest.raises(ValueError, match="orientation"):
            generate.check_entry(dict(base, weights="constant:1+0i,-1i"))
        with pytest.raises(ValueError, match="partials"):
            generate.check_entry(dict(base, phi="fractal:0.5,0.6,0.7,0.8"))  # touches 0


def _fake_module(name, **functions):
    mod = types.ModuleType(name)
    for fname, fn in functions.items():
        setattr(mod, fname, fn)
    sys.modules[name] = mod
    return mod


class TestTracer:
    def test_self_time_arithmetic(self):
        spans = [
            tracer.Span("item", "bench", 0.0, 10.0),
            tracer.Span("a.outer", "a", 1.0, 9.0, parent=0),
            tracer.Span("b.inner", "b", 2.0, 5.0, parent=1),
            tracer.Span("b.inner", "b", 6.0, 8.0, parent=1),
        ]
        assert tracer.self_times(spans).tolist() == [2.0, 3.0, 3.0, 2.0]

    def test_nested_calls_through_module_bindings(self):
        def inner(fail=False):
            time.sleep(0.01)
            if fail:
                raise ZeroDivisionError("injected")
            return 1

        def outer(fail=False):
            time.sleep(0.01)
            return sys.modules["fakepkg.low"].inner(fail) + 1

        _fake_module("fakepkg")
        low = _fake_module("fakepkg.low", inner=inner)
        high = _fake_module("fakepkg.high", outer=outer, inner=inner)  # second binding
        targets = (("fakepkg.high", "outer", "a", None), ("fakepkg.low", "inner", "b", None))
        t = tracer.Tracer(targets, package="fakepkg")
        try:
            t.install()
            assert high.inner is low.inner and tracer.installed_wrappers("fakepkg")
            t.begin_item("x")
            assert high.outer() == 2
            t.end_item()
            with pytest.raises(ZeroDivisionError):
                high.outer(fail=True)
        finally:
            t.uninstall()
            for name in ("fakepkg", "fakepkg.low", "fakepkg.high"):
                sys.modules.pop(name)
        assert low.inner is inner and high.inner is inner and high.outer is outer
        assert tracer.installed_wrappers("fakepkg") == []

        item, out, inn = t.spans[:3]
        assert [s.name for s in t.spans[:3]] == ["item", "high.outer", "low.inner"]
        assert (out.parent, inn.parent, out.item, inn.item) == (0, 1, "x", "x")
        own = tracer.self_times(t.spans)
        assert math.isclose(own[1], out.seconds - inn.seconds)
        assert own[2] == pytest.approx(inn.seconds) and inn.seconds >= 0.01
        # the injected exception escapes both layers once each
        assert t.errors == {"a": 1, "b": 1}

    def test_untraced_pass_runs_without_wrappers(self, tmp_path):
        import bcfrac.cli as cli

        entry = dict(generate.workload_config("trace-gauss", 0)["experiments"][0], m=8, k=8, n=64)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"experiments": [entry]}))
        configs = load_config(str(path))

        t = tracer.Tracer()
        t.install()
        try:
            with pytest.raises(RuntimeError, match="still installed"):
                worker._assert_untraced()
        finally:
            t.uninstall()
        worker._assert_untraced()
        result = worker.run_pass(cli, configs, {})
        assert t.spans == [] and tracer.installed_wrappers() == []
        assert [i["failure"] for i in result["items"]] == [None]


def _report(value):
    return ResidualReport("frac-gauss", 8, 8, 64, value, value)


class TestGate:
    def test_fail_frac_counts_nan_and_exceptions(self):
        outcomes = {"nan": float("nan"), "ok": 1e-9, "worse": 2e-9}

        def run_suite(configs):
            cfg = configs[0]
            if cfg.name == "raises":
                raise ZeroDivisionError("injected")
            rep = _report(outcomes[cfg.name])
            passed = rep.max_residual() <= cfg.tolerance  # NaN slips through max()
            return ({"experiments": [{"passed": passed}]}, {cfg.name: [rep]})

        fake_cli = SimpleNamespace(run_suite=run_suite)
        configs = [SimpleNamespace(name=n, tolerance=1e-6) for n in ("nan", "raises", "ok", "worse")]
        refs = {"ok": [1e-9, 1e-9], "worse": [1e-9, 1e-9]}
        items = worker.run_pass(fake_cli, configs, refs)["items"]
        assert [i["failure"] for i in items] == [
            "NonFiniteResidual", "ZeroDivisionError", None, "ResidualRegression"]
        assert run.fail_counts(items) == {
            "NonFiniteResidual": 1, "ZeroDivisionError": 1, "ResidualRegression": 1}
        assert run.fail_frac(items) == 0.75
        assert "ZeroDivisionError: injected" in items[1]["error"]

    def test_tail_percentile_keeps_ten_samples_beyond(self):
        assert [run.tail_percentile(n) for n in (12, 21, 40, 99, 100, 1000)] == [
            50.0, 50.0, 75.0, 75.0, 90.0, 99.0]


def _pass(seconds, names=("a", "b")):
    return {"seconds": seconds, "items": [
        {"name": n, "seconds": seconds / len(names), "failure": None, "residuals": [[0.0, 0.0]],
         "error": None} for n in names]}


class TestMetrics:
    def test_workloads_match_benchmark_json(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        assert [w["name"] for w in spec["workloads"]] == list(generate.WORKLOADS)

    def test_harness_emits_every_end_to_end_metric(self):
        results = [{"setup_s": 0.5 + w, "cold": _pass(2.0), "warm": [_pass(1.0), _pass(1.1)],
                    "peak_rss_mb": 200.0} for w in (0.0, 0.1, 0.2)]
        values, _ = run.end_to_end(results)
        assert list(values) == [name for name, _ in listed_metrics("end_to_end")]
        assert values["setup_s"] == 0.6 and values["pass_frac"] == 1.0

    def test_harness_emits_every_per_layer_metric_and_checks_counts(self):
        empty = tracer.layer_metrics([], Counter())
        values, repeat = worker.combine(empty, [empty, dict(empty)], [_pass(1.0)], [_pass(1.2)])
        assert sorted(values) == sorted(name for name, _ in listed_metrics("per_layer"))
        assert repeat and values["trace_overhead"] == pytest.approx(1.2)
        changed = dict(empty, **{"fracops1d.integral_calls": 1})
        assert not worker.combine(empty, [empty, changed], [_pass(1.0)], [_pass(1.0)])[1]

    def test_summary_reports_counts_that_differ_across_traced_runs(self):
        def record(calls, seed=0):
            metrics = {name: {"value": 0, "unit": unit} for name, unit in tracer.PER_LAYER}
            metrics["fracops1d.integral_calls"]["value"] = calls
            return {"workload": "w", "seed": seed, "trace": 1, "metrics": metrics}

        assert summarize.count_mismatches([record(3), record(3), record(4, seed=1)]) == {}
        assert summarize.count_mismatches([record(3), record(4)]) == {
            "w seed 0": ["fracops1d.integral_calls"]}
