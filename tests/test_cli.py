import json
import re
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bcfrac.cli import emit_report, load_config, main, run_suite
from bcfrac.errors import ConfigError
from bcfrac.presets import (
    _in_grammar,
    field_preset,
    parse_complex_literal,
    parse_plane_expression,
    phi_preset,
    weight_preset,
)

QUICK = {
    "name": "quick", "identity": "gauss-weighted",
    "domain": [0, 1, 0, 1, 0, 1, 0, 1],
    "weights": "classical", "phi": "linear",
    "alpha": [0.5, 0.5, 0.5, 0.5], "sigma": [1, 0, 1, 0],
    "field": "poly", "m": 8, "k": 8, "n": 64,
    "tolerance": 1e-8, "levels": 1,
}


def write_config(tmp_path, experiments):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"experiments": experiments}))
    return str(path)


class TestExpressions:
    def test_polynomial(self):
        pf = parse_plane_expression("x^2 + 2*y")
        assert pf.f(3.0, 1.0) == 11.0
        assert pf.dx(3.0, 1.0) == 6.0
        assert pf.dy(3.0, 1.0) == 2.0

    def test_transcendentals_and_i(self):
        import numpy as np

        pf = parse_plane_expression("exp(x) * cos(y) + i * sin(y)")
        got = pf.f(0.5, 0.25)
        assert abs(got - (np.exp(0.5) * np.cos(0.25) + 1j * np.sin(0.25))) < 1e-12

    def test_rejects_unknown_tokens(self):
        with pytest.raises(ConfigError):
            parse_plane_expression("__import__('os')")
        with pytest.raises(ConfigError):
            parse_plane_expression("x + q")

    def test_long_digit_run_is_rejected_quickly(self):
        # a nested-quantifier token regex backtracks exponentially here
        t0 = time.perf_counter()
        with pytest.raises(ConfigError, match="outside the supported grammar"):
            parse_plane_expression("1" * 40 + "#")
        assert time.perf_counter() - t0 < 0.5

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from(["1", "2.", ".5", "e", "E", "+", "-", "x", "y", "i", "p",
                                     "pi", "ex", "exp", "sin", "cos", "s", " ", "\t", "*", "/",
                                     "^", "(", ")", ",", "q", "#", "_"]), max_size=6))
    def test_token_scan_accepts_the_documented_grammar(self, pieces):
        text = "".join(pieces)
        # the grammar as one regex, safe on these short inputs
        grammar = re.compile(
            r"^(\s*(\d+\.?\d*([eE][+-]?\d+)?|x|y|i|pi|exp|sin|cos|[-+*/^()\s,.]))*\s*$")
        assert _in_grammar(text) == bool(grammar.match(text))

    def test_complex_literal(self):
        assert parse_complex_literal("1+2i") == 1 + 2j
        assert parse_complex_literal("-0.5i") == -0.5j
        with pytest.raises(ConfigError):
            parse_complex_literal("two")


class TestPresets:
    def test_weight_presets(self):
        weight_preset("classical")
        wp = weight_preset("constant:1+1i,1-1i")
        assert wp.const_values[0] == 1 + 1j
        weight_preset("scaled-classical:1 + x^2")
        with pytest.raises(ConfigError):
            weight_preset("nope")

    def test_phi_presets(self):
        phi_preset("linear")
        phi_preset("fractal:0.5,0.6,0.7,0.8")
        phi_preset("custom:x + 2*y|x + y")
        with pytest.raises(ConfigError):
            phi_preset("fractal:2,0.5,0.5,0.5")

    def test_field_presets(self):
        for name in ("poly", "exp", "affine", "conjugate", "one"):
            field_preset(name)
        with pytest.raises(ConfigError):
            field_preset("mystery")


class TestConfigValidation:
    def test_missing_field_diagnostic(self, tmp_path):
        entry = {k: v for k, v in QUICK.items() if k != "tolerance"}
        path = write_config(tmp_path, [entry])
        with pytest.raises(ConfigError, match=r"experiments\[0\].tolerance"):
            load_config(path)

    def test_unknown_field_diagnostic(self, tmp_path):
        entry = dict(QUICK, surprise=1)
        path = write_config(tmp_path, [entry])
        with pytest.raises(ConfigError, match="surprise"):
            load_config(path)

    def test_unknown_identity(self, tmp_path):
        entry = dict(QUICK, identity="nope")
        path = write_config(tmp_path, [entry])
        with pytest.raises(ConfigError, match="identity"):
            load_config(path)

    def test_empty_experiments(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"experiments": []}))
        with pytest.raises(ConfigError, match="nonempty"):
            load_config(str(path))

    def test_preset_expansion(self, tmp_path):
        path = write_config(tmp_path, ["classical"])
        configs = load_config(path)
        assert [c.identity for c in configs] == ["gauss-weighted", "borel-pompeiu"]

    def test_reconstruction_with_nonconstant_weights_rejected_at_parse_time(self, tmp_path):
        entry = dict(QUICK, identity="frac-borel-pompeiu", weights="scaled-classical:1+x")
        path = write_config(tmp_path, [entry])
        with pytest.raises(ConfigError, match=r"experiments\[0\].weights: .*constant weights"):
            load_config(path)

    def test_fractal_phi_on_domain_touching_zero_rejected(self, tmp_path):
        # x^(d-1) is infinite at x = 0, so the partials are not finite there
        entry = dict(QUICK, identity="frac-gauss", phi="fractal:0.5,0.6,0.7,0.8")
        path = write_config(tmp_path, [entry])
        with pytest.raises(ConfigError, match=r"experiments\[0\].phi: .*finite"):
            load_config(path)

    def test_margin_leaving_no_patch_rejected(self, tmp_path):
        path = write_config(tmp_path, [dict(QUICK, margin=0.6)])
        with pytest.raises(ConfigError, match=r"experiments\[0\].margin"):
            load_config(path)

    @pytest.mark.parametrize("fd_step", [0.0, -1e-3, 0.5, 10.0, "small"])
    def test_fd_step_outside_half_span_rejected(self, tmp_path, fd_step):
        path = write_config(tmp_path, [dict(QUICK, identity="trace-inversion", fd_step=fd_step)])
        with pytest.raises(ConfigError, match=r"experiments\[0\].fd_step"):
            load_config(path)

    def test_fd_step_checked_against_shortest_axis(self, tmp_path):
        entry = dict(QUICK, domain=[0, 1, 0, 1, 0, 0.2, 0, 1])
        with pytest.raises(ConfigError, match=r"experiments\[0\].fd_step"):
            load_config(write_config(tmp_path, [dict(entry, fd_step=0.15)]))
        (cfg,) = load_config(write_config(tmp_path, [dict(entry, fd_step=0.05)]))
        assert cfg.setup.params.fd_step == 0.05

    def test_negative_margin_rejected(self, tmp_path):
        for identity in ("gauss-weighted", "frac-gauss"):
            path = write_config(tmp_path, [dict(QUICK, identity=identity, margin=-0.5)])
            with pytest.raises(ConfigError, match=r"experiments\[0\].margin"):
                load_config(path)
        (cfg,) = load_config(write_config(tmp_path, [dict(QUICK, margin=0.0)]))
        assert cfg.setup.patch.bounds1 == (0.0, 1.0, 0.0, 1.0)

    @pytest.mark.parametrize("key, value", [
        ("m", "eight"), ("m", 8.9), ("m", 8.0), ("m", True), ("n", None),
        ("levels", 1.5), ("levels", False),
        ("tolerance", "tiny"), ("tolerance", float("nan")), ("tolerance", True),
        ("margin", "wide"), ("margin", float("inf")),
        ("alpha", [None, 0.5, 0.5, 0.5]), ("alpha", 0.5), ("sigma", [1, 0, 1, "0"]),
        ("include_area", "false"), ("include_area", 0),
    ])
    def test_malformed_field_is_a_named_error(self, tmp_path, key, value):
        path = write_config(tmp_path, [dict(QUICK, **{key: value})])
        with pytest.raises(ConfigError, match=rf"experiments\[0\]\.{key}"):
            load_config(path)
        assert main(["verify", "--config", path, "--out", str(tmp_path / "o")]) == 2

    def test_typed_fields_keep_their_values(self, tmp_path):
        entry = dict(QUICK, m=8, tolerance=1, margin=0, include_area=False, sigma=[1, 0, 1, 0])
        (cfg,) = load_config(write_config(tmp_path, [entry]))
        assert cfg.resolution.m == 8 and cfg.tolerance == 1.0
        assert cfg.setup.include_area is False

    def test_multiplier_unavailable_diagnostic(self, tmp_path):
        entry = dict(QUICK, identity="frac-gauss", sigma=[0.7, 0, 0.7, 0],
                     phi="fractal:0.5,0.5,0.5,0.5",
                     domain=[0.5, 1.5] * 4)
        path = write_config(tmp_path, [entry])
        with pytest.raises(ConfigError, match="multiplier"):
            load_config(path)


class TestRunSuite:
    def test_pass_and_reports(self, tmp_path):
        configs = load_config(write_config(tmp_path, [QUICK]))
        summary, reports = run_suite(configs)
        assert summary["all_passed"]
        paths = emit_report(reports, summary, tmp_path / "out")
        names = {p.name for p in paths}
        assert names == {"quick.csv", "summary.json"}
        loaded = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert loaded["experiments"][0]["passed"]

    def test_deterministic_csv(self, tmp_path):
        configs = load_config(write_config(tmp_path, [QUICK]))
        for out in ("a", "b"):
            summary, reports = run_suite(configs)
            emit_report(reports, summary, tmp_path / out)

        def data_columns(path):
            return ["," .join(line.split(",")[:-1])
                    for line in Path(path).read_text().splitlines()]

        assert data_columns(tmp_path / "a" / "quick.csv") == \
            data_columns(tmp_path / "b" / "quick.csv")
        assert (tmp_path / "a" / "summary.json").read_text() == \
            (tmp_path / "b" / "summary.json").read_text()

    def test_exit_codes(self, tmp_path, capsys):
        ok = write_config(tmp_path, [QUICK])
        assert main(["verify", "--config", ok, "--out", str(tmp_path / "o1")]) == 0
        failing = write_config(tmp_path, [dict(QUICK, field="conjugate", tolerance=1e-30)])
        assert main(["verify", "--config", failing, "--out", str(tmp_path / "o2")]) == 1
        broken = write_config(tmp_path, [dict(QUICK, identity="nope")])
        assert main(["verify", "--config", broken, "--out", str(tmp_path / "o3")]) == 2

    def test_runtime_error_exits_2_not_as_a_fail(self, tmp_path, monkeypatch, capsys):
        import bcfrac.cli as cli
        from bcfrac.errors import QuadratureError

        def crash(identity, setup, res):
            raise QuadratureError("self-estimate 1e-3 above tolerance")

        monkeypatch.setattr(cli, "run_identity", crash)
        cfg = write_config(tmp_path, [QUICK])
        assert main(["verify", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.strip() == "runtime error: QuadratureError: self-estimate 1e-3 above tolerance"

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_runtime_error_keeps_finished_experiments(self, tmp_path, capsys, jobs):
        # the reconstruction point lies outside a patch inset by 0.49
        edge = dict(QUICK, name="edge", identity="borel-pompeiu", margin=0.49)
        cfg = write_config(tmp_path, [QUICK, edge, dict(QUICK, name="after")])
        out = tmp_path / "o"
        assert main(["verify", "--config", cfg, "--out", str(out), "--jobs", str(jobs)]) == 2
        assert sorted(p.name for p in out.iterdir()) == ["quick.csv", "summary.json"]
        summary = json.loads((out / "summary.json").read_text())
        assert [e["name"] for e in summary["experiments"]] == ["quick"]
        assert summary["experiments"][0]["passed"] and not summary["all_passed"]
        assert summary["error"] == {"experiment": "edge", "type": "WOnBoundaryError",
                                    "message": "reconstruction point too close to the contour"}
        assert "PASS quick" in capsys.readouterr().out

    def test_run_suite_still_raises(self, tmp_path):
        from bcfrac.errors import WOnBoundaryError

        edge = dict(QUICK, name="edge", identity="borel-pompeiu", margin=0.49)
        with pytest.raises(WOnBoundaryError):
            run_suite(load_config(write_config(tmp_path, [QUICK, edge])))

    def test_nan_residual_never_passes(self, tmp_path, monkeypatch):
        import bcfrac.cli as cli
        from bcfrac import ResidualReport

        def nan_report(identity, setup, res):
            return ResidualReport(identity, res.m, res.k, res.n, 0.5, float("nan"))

        monkeypatch.setattr(cli, "run_identity", nan_report)
        cfg = write_config(tmp_path, [dict(QUICK, tolerance=1.0)])
        summary, _ = run_suite(load_config(cfg))
        assert not summary["experiments"][0]["passed"]
        assert not summary["all_passed"]
        assert main(["verify", "--config", cfg, "--out", str(tmp_path / "o")]) == 1

    def test_parallel_matches_serial(self, tmp_path):
        configs = load_config(write_config(tmp_path, [QUICK, dict(QUICK, name="quick2")]))
        s1, r1 = run_suite(configs, jobs=1)
        s2, r2 = run_suite(configs, jobs=2)
        assert [e["max_residual"] for e in s1["experiments"]] == \
            [e["max_residual"] for e in s2["experiments"]]


class TestOtherCommands:
    def test_list_presets(self, capsys):
        assert main(["list-presets"]) == 0
        out = capsys.readouterr().out
        assert "bg-reduction" in out and "fractal" in out

    def test_oracle_ops(self, capsys):
        for op in ("rl-power", "eigen", "rl-const-derivative", "hausdorff"):
            assert main(["oracle", op, "--n", "256"]) == 0
            out = capsys.readouterr().out
            assert "abs-error" in out

    def test_oracle_accuracy(self, capsys):
        main(["oracle", "eigen", "--alpha", "0.25", "--sigma", "0.6",
              "--beta", "1.5", "--t", "0.9", "--n", "2048"])
        out = capsys.readouterr().out
        err = float(out.strip().split("abs-error=")[1])
        assert err < 1e-4
