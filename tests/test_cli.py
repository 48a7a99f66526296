import ast
import dataclasses
import json
import math
import os
import platform
import re
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bcfrac import IDENTITIES, cli, quadrature_verify
from bcfrac.cli import emit_report, load_config, main, run_suite
from bcfrac.errors import ConfigError
from bcfrac.frac_cr_bicomplex import RectDomain
from bcfrac.fracops1d import _auto_grading
from bcfrac.presets import (
    _Parser,
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


#: Random expressions over the whole grammar, x and y drawn twice as often
#: as any constant.  Numbers are written as floats, so sympy folds a power
#: such as 2^2^2^2 in floating point, not as an exact integer; they stay near
#: 1, so constant parts rarely reach the 1e6 where two roundings of
#: cos(exp(2^2^2)) already differ by 1e-10.
EXPRESSIONS = st.recursive(
    st.sampled_from(["x", "y", "x", "y", "i", "pi", "2.", ".5", "1.5", "0.7153", "2.5e-1"]),
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from(["+", "-", "*", "/", "^", "**", " + ", " * ", " ^ "]),
                  inner).map("".join),
        st.tuples(st.sampled_from(["-", "+"]), inner).map("".join),
        st.tuples(st.sampled_from(["exp", "sin", "cos", ""]), inner).map(lambda t: f"{t[0]}({t[1]})"),
    ),
    max_leaves=6,
)
#: Points with no special value in either coordinate, in every quadrant;
#: numpy scalars, so the oracle's x/0 is inf as in the compiled closures.
GENERIC_POINTS = [(np.float64(x), np.float64(y))
                  for x, y in ((0.37, 1.21), (-1.13, 0.59), (1.71, -0.83), (-0.46, -1.52))]


class TestExpressions:
    def test_polynomial(self):
        pf = parse_plane_expression("x^2 + 2*y")
        assert pf.f(3.0, 1.0) == 11.0
        assert pf.dx(3.0, 1.0) == 6.0
        assert pf.dy(3.0, 1.0) == 2.0

    def test_transcendentals_and_i(self):
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
    # an exponent may not follow the first digit of an earlier exponent
    # ("1e1e1"), but a second number may start after it ("1e12e1")
    @example(["1e1e1"])
    @example(["1.e1e1"])
    @example(["1e12e1"])
    @example(["2.2.e1"])
    def test_token_scan_accepts_the_documented_grammar(self, pieces):
        text = "".join(pieces)
        # the grammar as one regex, safe on these short inputs
        grammar = re.compile(
            r"^(\s*(\d+\.?\d*([eE][+-]?\d+)?|x|y|i|pi|exp|sin|cos|[-+*/^()\s,.]))*\s*$")
        try:
            _Parser(text)  # the constructor scans the tokens
        except ConfigError as exc:
            assert "outside the supported grammar" in str(exc)
            return
        assert grammar.match(text)

    @pytest.mark.parametrize("field, template", [("weights", "scaled-classical:{}"),
                                                 ("phi", "custom:{}|x + y")])
    @pytest.mark.parametrize("expr, position", [("x,y", 1), ("exp(x, y)", 5), ("(x", 2), ("x)", 1),
                                                ("", 0), ("2x", 1), ("x^", 2)])
    def test_malformed_expression_exits_2_naming_field_and_position(
            self, tmp_path, capsys, field, template, expr, position):
        path = write_config(tmp_path, [dict(QUICK, **{field: template.format(expr)})])
        assert main(["verify", "--config", path, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: experiments[0].{field}: ")
        assert f"at position {position}" in err

    @pytest.mark.parametrize("expr, value", [
        (".5*x", lambda x, y: .5 * x),
        ("x**2", lambda x, y: x**2),
        ("x^-2", lambda x, y: x**-2),
        ("-x^2", lambda x, y: -x**2),
        ("2^3^2", lambda x, y: 2**3**2),
        ("1. + 1e-3*y", lambda x, y: 1. + 1e-3 * y),
        ("i*pi", lambda x, y: 1j * math.pi),
    ])
    def test_python_precedence_and_literals(self, expr, value):
        pf = parse_plane_expression(expr)
        for x, y in ((3.0, 1.0), (-1.5, 2.0)):
            assert pf.f(x, y) == value(x, y)

    @pytest.mark.parametrize("expr, f, dx, dy", [
        ("x/y", lambda x, y: x / y, lambda x, y: 1 / y, lambda x, y: -x / y**2),
        ("x/2", lambda x, y: x / 2, lambda x, y: 0.5, lambda x, y: 0.0),
        ("x^y", lambda x, y: x**y, lambda x, y: y * x**(y - 1), lambda x, y: x**y * math.log(x)),
        ("2^(x*y)", lambda x, y: 2**(x * y), lambda x, y: 2**(x * y) * math.log(2) * y,
         lambda x, y: 2**(x * y) * math.log(2) * x),
        ("sin(x*y) - cos(x)", lambda x, y: math.sin(x * y) - math.cos(x),
         lambda x, y: y * math.cos(x * y) + math.sin(x), lambda x, y: x * math.cos(x * y)),
        ("exp(-x^2)/(1 + y)", lambda x, y: math.exp(-x**2) / (1 + y),
         lambda x, y: -2 * x * math.exp(-x**2) / (1 + y), lambda x, y: -math.exp(-x**2) / (1 + y)**2),
    ])
    def test_derivative_rules(self, expr, f, dx, dy):
        pf = parse_plane_expression(expr)
        for x, y in ((0.37, 1.21), (1.71, 0.59)):
            for got, want in ((pf.f, f), (pf.dx, dx), (pf.dy, dy)):
                assert got(x, y) == pytest.approx(want(x, y), rel=1e-14, abs=1e-15)

    def test_compiled_closures_broadcast(self):
        pf = parse_plane_expression("y + 2")
        xs = np.linspace(0.0, 1.0, 5)
        assert pf.f(xs, 0.5).shape == (5,) and pf.dx(xs, 0.5).shape == (5,)
        np.testing.assert_array_equal(pf.dy(xs, 0.5), np.ones(5))

    @pytest.mark.parametrize("deepest", [
        "-" + "(" * 127 + "x" + ")" * 127,
        "-x" + "*x" * 127,  # a derivative tree of depth 254
        "-" * 255 + "x",
        "sin(" * 85 + "x" + ")" * 85,
        "---" + "x^(" * 63 + "x" + ")" * 63,  # a log in every derivative level
    ])
    def test_expression_length_is_capped(self, deepest):
        # each of these has 256 tokens, the most accepted: it parses,
        # differentiates and evaluates inside the recursion limit
        pf = parse_plane_expression(deepest)
        with np.errstate(all="ignore"):
            assert all(np.shape(fn(np.ones(3), 0.5)) == (3,) for fn in (pf.f, pf.dx, pf.dy))
        with pytest.raises(ConfigError, match="more than 256 tokens at position"):
            parse_plane_expression("+" + deepest)

    @pytest.mark.parametrize("char", ["x", "."])
    def test_long_expression_refused_before_it_is_scanned(self, char):
        # the 257th token stops the scan; the best of five runs takes < 1 ms
        def refuse():
            start = time.perf_counter()
            with pytest.raises(ConfigError, match="more than 256 tokens at position 256"):
                parse_plane_expression(char * 5000)
            return time.perf_counter() - start

        assert min(refuse() for _ in range(5)) < 1e-3

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(EXPRESSIONS)
    def test_compiler_agrees_with_sympy(self, text):
        # sympy is the oracle only: parse_expr, diff, lambdify, with pi the
        # double math.pi as in the compiler.  Agreement is relative to
        # max(1, |value|), so that 1e-16 against an exact 0 passes.  Points
        # where a 1e-10 step in x or y moves the oracle by more than 1e-8 of
        # that scale are skipped: there rounding alone separates two correct
        # evaluations (sin(2^(3/y)) near y = 0).
        import sympy as sp
        from sympy.parsing.sympy_parser import parse_expr

        try:
            pf = parse_plane_expression(text)
        except ConfigError as exc:  # a constant such as 1/(2 - 2) or exp(exp(9))
            assert "no finite" in str(exc)
            return
        sx, sy = sp.symbols("x y", real=True)
        local = {"x": sx, "y": sy, "i": sp.I, "pi": sp.Float(math.pi),
                 "exp": sp.exp, "sin": sp.sin, "cos": sp.cos}
        expr = parse_expr(text.replace("^", "**"), local_dict=local)
        with np.errstate(all="ignore"):
            for mine, e in zip((pf.f, pf.dx, pf.dy), (expr, sp.diff(expr, sx), sp.diff(expr, sy))):
                if e.has(sp.zoo):  # x/(y - y) is x/0, which lambdify cannot print
                    continue
                oracle = sp.lambdify((sx, sy), e, modules="numpy")
                for x, y in GENERIC_POINTS:
                    try:  # a printed Python constant keeps Python's 1j/0 error
                        want = complex(oracle(x, y))
                        moved = max(np.abs(oracle(x + 1e-10, y) - want),
                                    np.abs(oracle(x, y + 1e-10) - want))
                    except ZeroDivisionError:
                        continue
                    got = complex(mine(x, y))
                    scale = max(1.0, np.abs(want))  # np.abs: |1e308 + 1e308j| is inf, not an error
                    if not (np.isfinite(got) and np.isfinite(want)) or moved > 1e-8 * scale:
                        continue
                    assert np.abs(got - want) <= 1e-12 * max(scale, np.abs(got)), (e, x, y, got, want)

    def test_load_config_does_not_import_sympy(self, tmp_path):
        entry = dict(QUICK, weights="scaled-classical:1 + 0.5*x*y", phi="custom:x + 2*y|exp(x) + y")
        path = write_config(tmp_path, [entry])
        code = ("import sys; from bcfrac.cli import load_config; "
                f"load_config({path!r}); print('sympy' in sys.modules)")
        src = str(Path(__file__).resolve().parent.parent / "src")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env={"PATH": os.environ.get("PATH", ""), "PYTHONPATH": src}, check=True)
        assert out.stdout.strip() == "False"

    def test_complex_literal(self):
        assert parse_complex_literal("1+2i") == 1 + 2j
        assert parse_complex_literal("-0.5i") == -0.5j
        with pytest.raises(ConfigError):
            parse_complex_literal("two")


class TestPresets:
    def test_weight_presets(self):
        rect = RectDomain(0, 1, 0, 1, 0, 1, 0, 1)
        weight_preset("classical", rect)
        wp = weight_preset("constant:1+1i,1-1i", rect)
        assert wp.const_values[0] == 1 + 1j
        weight_preset("scaled-classical:1 + x^2", rect)
        with pytest.raises(ConfigError):
            weight_preset("nope", rect)

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


def patch_run_identity(monkeypatch, fn):
    """Stand ``fn`` in for ``quadrature_verify.run_identity``, which every
    experiment of the runner calls through ``convergence_study``; returns
    the original."""
    original = quadrature_verify.run_identity
    monkeypatch.setattr(quadrature_verify, "run_identity", fn)
    return original


def coarse_reconstruction_at_run_time(monkeypatch):
    """Run every ``borel-pompeiu`` experiment at m = 4, where the excluded
    band around the contour, two area panels wide, reaches the
    reconstruction point: past the load-time check, the reconstruction
    itself raises."""
    from bcfrac.quadrature_verify import Resolution

    def coarse(identity, setup, res, held=None):
        if identity == "borel-pompeiu":
            res = Resolution(4, res.k, res.n)
        return run_identity(identity, setup, res, held)

    run_identity = patch_run_identity(monkeypatch, coarse)


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

    @pytest.mark.parametrize("m", [4, 5])
    def test_reconstruction_point_is_checked_before_any_experiment_runs(
            self, tmp_path, monkeypatch, capsys, m):
        # at m = 5 two mesh widths of the unit domain's patch (0.28) reach
        # past the point's distance to the contour (0.25)
        calls = []
        patch_run_identity(monkeypatch, lambda *args: calls.append(args))
        edge = dict(QUICK, name="edge", identity="borel-pompeiu", m=m)
        path = write_config(tmp_path, ["bg-reduction", edge])
        with pytest.raises(ConfigError, match=r"experiments\[2\]\.m: reconstruction point too "
                                              r"close to the contour"):
            load_config(path)
        out = tmp_path / "o"
        assert main(["verify", "--config", path, "--out", str(out)]) == 2
        std = capsys.readouterr()
        assert std.out == "" and std.err.startswith("configuration error: experiments[2].m: ")
        assert calls == [] and not out.exists()
        load_config(write_config(tmp_path, [dict(edge, m=6)]))  # 0.23 < 0.25

    def test_top_level_list_is_a_named_error(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps([QUICK]))
        with pytest.raises(ConfigError, match="JSON object"):
            load_config(str(path))
        assert main(["verify", "--config", str(path), "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("kind", ["directory", "not-utf8"])
    def test_unreadable_config_is_a_configuration_error(self, tmp_path, capsys, kind):
        path = tmp_path / "cfg.json"
        if kind == "directory":
            path.mkdir()
        else:
            path.write_bytes(b'{"experiments": ["bg-reduction"]} \xff\xfe')
        with pytest.raises(ConfigError, match=re.escape(str(path))):
            load_config(str(path))
        out = tmp_path / "o"
        assert main(["verify", "--config", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("configuration error: ")
        assert not out.exists()

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

    @pytest.mark.parametrize("weights, domain", [
        ("scaled-classical:1 + i*x", [0, 1] * 4),
        ("scaled-classical:1/x", [0, 1] * 4),
        ("scaled-classical:1/x", [0.5, 1.5, 0.5, 1.5, 0, 1, 0, 1]),  # only component 2 reaches 0
    ])
    def test_scaled_classical_factor_must_be_real_and_finite(self, tmp_path, weights, domain):
        path = write_config(tmp_path, [dict(QUICK, weights=weights, domain=domain)])
        with pytest.raises(ConfigError, match=r"experiments\[0\]\.weights: .*real and finite"):
            load_config(path)

    @pytest.mark.parametrize("weights", ["constant:nan,1i", "constant:1e400,1i", "constant:1,nani"])
    def test_constant_weights_must_be_finite(self, tmp_path, weights):
        # a NaN weight ran to a FAIL with residual nan and exit 1
        path = write_config(tmp_path, [dict(QUICK, weights=weights)])
        with pytest.raises(ConfigError, match=r"experiments\[0\]\.weights: .*not finite"):
            load_config(path)
        assert main(["verify", "--config", path, "--out", str(tmp_path / "o")]) == 2

    def test_scaled_classical_factor_finite_away_from_its_pole(self, tmp_path):
        entry = dict(QUICK, weights="scaled-classical:1/x", domain=[0.5, 1.5] * 4)
        (cfg,) = load_config(write_config(tmp_path, [entry]))
        assert cfg.setup.wp.phi1.f(0.5, 1.0) == 2j

    @pytest.mark.parametrize("phi", ["custom:x + y + i*x|x + y", "custom:x + y|x + y + i"])
    def test_custom_scale_components_must_be_real(self, tmp_path, phi):
        path = write_config(tmp_path, [dict(QUICK, phi=phi)])
        with pytest.raises(ConfigError, match=r"experiments\[0\]\.phi: .*real"):
            load_config(path)

    def test_fractal_phi_on_domain_touching_zero_rejected(self, tmp_path):
        # x^(d-1) is infinite at x = 0, so the partials are not finite there
        entry = dict(QUICK, identity="frac-gauss", phi="fractal:0.5,0.6,0.7,0.8")
        path = write_config(tmp_path, [entry])
        with pytest.raises(ConfigError, match=r"experiments\[0\].phi: .*finite"):
            load_config(path)

    @pytest.mark.parametrize("key, value", [
        ("m", "eight"), ("m", 8.9), ("m", 8.0), ("m", True), ("n", None),
        ("levels", 1.5), ("levels", False),
        ("tolerance", "tiny"), ("tolerance", float("nan")), ("tolerance", True),
        ("fd_step", 1e-4), ("grading", 2.0),  # fixed in the program, as is margin below
        ("alpha", [None, 0.5, 0.5, 0.5]), ("alpha", 0.5), ("sigma", [1, 0, 1, "0"]),
        ("sigma", [1, 0, 1]), ("sigma", [2, 0, 1, 0]), ("sigma", [0, 0, 1, 0]),
        ("include_area", "false"), ("include_area", 0),
        ("domain", 5), ("domain", [[0], 1, 0, 1, 0, 1, 0, 1]),
        ("domain", [0, float("inf"), 0, 1, 0, 1, 0, 1]), ("domain", [0, True, 0, 1, 0, 1, 0, 1]),
        ("weights", 5), ("phi", 5), ("margin", 0.15), ("margin", "wide"), ("margin", float("inf")),
        ("k", 2), ("n", 3),  # the small resolution is the one named
    ])
    def test_malformed_field_is_a_named_error(self, tmp_path, key, value):
        path = write_config(tmp_path, [dict(QUICK, **{key: value})])
        unknown = ": unknown field$" if key in ("fd_step", "grading", "margin") else ""
        with pytest.raises(ConfigError, match=rf"experiments\[0\]\.{key}{unknown}"):
            load_config(path)
        assert main(["verify", "--config", path, "--out", str(tmp_path / "o")]) == 2

    # fd_step, grading and margin are fixed in the program: a config that
    # still sets one is refused by name at any value, the old validators'
    # rejects included, and the fixed value is what every run uses
    def refuse_unknown(self, tmp_path, key, value, **fields):
        path = write_config(tmp_path, [dict(QUICK, **fields, **{key: value})])
        with pytest.raises(ConfigError, match=rf"experiments\[0\]\.{key}: unknown field$"):
            load_config(path)
        assert main(["verify", "--config", path, "--out", str(tmp_path / "o")]) == 2

    def test_margin_leaving_no_patch_rejected(self, tmp_path):
        self.refuse_unknown(tmp_path, "margin", 0.6)
        (cfg,) = load_config(write_config(tmp_path, [dict(QUICK, domain=[0, 2, 0, 1] * 2)]))
        assert cfg.setup.patch.component_bounds(1) == pytest.approx((0.3, 1.7, 0.15, 0.85))

    @pytest.mark.parametrize("fd_step", [0.0, -1e-3, 0.5, 10.0, "small"])
    def test_fd_step_outside_half_span_rejected(self, tmp_path, fd_step):
        self.refuse_unknown(tmp_path, "fd_step", fd_step, identity="trace-inversion")

    def test_fd_step_checked_against_shortest_axis(self, tmp_path):
        entry = dict(QUICK, identity="trace-inversion", domain=[0, 1, 0, 1, 0, 0.2, 0, 1])
        for fd_step in (0.15, 0.05):
            self.refuse_unknown(tmp_path, "fd_step", fd_step, **entry)
        # the fixed step, 1e-4 of each axis's span, fits the shortest axis too
        (cfg,) = load_config(write_config(tmp_path, [entry]))
        summary, _ = run_suite([cfg])
        assert np.isfinite(summary["experiments"][0]["max_residual"])

    def test_negative_margin_rejected(self, tmp_path):
        for identity in ("gauss-weighted", "frac-gauss"):
            self.refuse_unknown(tmp_path, "margin", -0.5, identity=identity)
        (cfg,) = load_config(write_config(tmp_path, [QUICK]))
        assert cfg.setup.patch.component_bounds(1) == pytest.approx((0.15, 0.85, 0.15, 0.85))

    def test_grading_below_one_names_its_field(self, tmp_path):
        for grading in (0.5, 1):
            self.refuse_unknown(tmp_path, "grading", grading)
        # the automatic exponent, min(max(2/beta, 1), 10), never falls below one
        assert [_auto_grading(beta) for beta in (0.1, 0.4, 1.0, 2.5, 5.0)] == [10.0, 5.0, 2.0, 1.0, 1.0]

    @pytest.mark.parametrize("name", ["", ".", "..", "../escaped", "a/b", "a\\b", "nul\0",
                                      None, 5])
    def test_name_must_be_a_plain_file_stem(self, tmp_path, name):
        path = write_config(tmp_path, [dict(QUICK, name=name)])
        with pytest.raises(ConfigError, match=r"experiments\[0\]\.name"):
            load_config(path)
        assert main(["verify", "--config", path, "--out", str(tmp_path / "o")]) == 2
        assert not (tmp_path / "escaped.csv").exists()

    def test_repeated_name_rejected(self, tmp_path):
        path = write_config(tmp_path, [QUICK, dict(QUICK, n=32)])
        with pytest.raises(ConfigError, match=r"experiments\[1\]\.name: .*experiments\[0\]"):
            load_config(path)
        path = write_config(tmp_path, ["classical", "classical"])
        with pytest.raises(ConfigError, match=r"experiments\[2\]\.name"):
            load_config(path)
        assert main(["verify", "--config", path, "--out", str(tmp_path / "o")]) == 2

    def test_docstring_schema_lists_every_accepted_field(self):
        doc = cli.__doc__.split("::", 1)[1].split("CSV rows", 1)[0]
        documented = [k for k in re.findall(r'"(\w+)":', doc) if k != "experiments"]
        assert sorted(documented) == sorted(cli._REQUIRED + tuple(cli._DEFAULTS))

    def test_typed_fields_keep_their_values(self, tmp_path):
        entry = dict(QUICK, identity="frac-borel-pompeiu", m=8, tolerance=1, include_area=False,
                     sigma=[1, 0, 1, 0])
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

    @pytest.mark.parametrize("identity", ["frac-gauss", "factorization", "frac-borel-pompeiu"])
    def test_multiplier_failing_its_pde_rejected(self, tmp_path, capsys, identity):
        # at sigma = 1e-9 the multiplier's slope (1 - sigma)/sigma is 1e9, and
        # its rounding leaves a PDE residual of 2.7e-7 on the patch probes
        entry = dict(QUICK, identity=identity, weights="constant:1+0.3i,0.2+1.1i",
                     sigma=[1e-9, 0, 1e-9, 0], n=32)
        out = tmp_path / "o"
        assert main(["verify", "--config", write_config(tmp_path, [entry]),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: experiments[0].sigma: multiplier PDE residual")
        assert not out.exists()

    @pytest.mark.parametrize("identity", ["frac-gauss", "factorization"])
    def test_multiplier_whose_exponential_overflows_rejected(self, tmp_path, capsys, identity):
        # at sigma = (1e-9, 0, 1, 0) the classical multiplier solves its PDE,
        # but its slope of about 1e9 takes exp(lambda) past the float range
        entry = dict(QUICK, identity=identity, sigma=[1e-9, 0, 1, 0])
        out = tmp_path / "o"
        assert main(["verify", "--config", write_config(tmp_path, [entry]),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: experiments[0].sigma: multiplier reaches "
                              "|Re lambda| = 2.000e+09 on the rectangle")
        assert "Traceback" not in err and not out.exists()

    def test_overflowing_multiplier_is_no_concern_of_trace_inversion(self, tmp_path):
        entry = dict(QUICK, identity="trace-inversion", sigma=[1e-9, 0, 1, 0])
        (cfg,) = load_config(write_config(tmp_path, [entry]))
        assert cfg.identity == "trace-inversion"

    def test_multiplier_of_a_zero_theta_is_a_configuration_error(self, tmp_path, capsys):
        # the multiplier's slope is Dphi*(1 - sigma)/(sigma*theta): no value at theta = 0
        entry = dict(QUICK, identity="frac-gauss", weights="constant:0,1", sigma=[0.7, 0, 0.7, 0])
        out = tmp_path / "o"
        assert main(["verify", "--config", write_config(tmp_path, [entry]),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: experiments[0].sigma: multiplier unavailable: ")
        assert "Traceback" not in err and not out.exists()

    @pytest.mark.parametrize("identity", ["gauss-weighted", "frac-gauss", "factorization"])
    def test_pair_vanishing_on_the_grid_rejected(self, tmp_path, capsys, identity):
        # with theta = phi_w = 0 both sides of these identities are zero, and
        # each passed at a residual of exactly 0 at every level
        entry = dict(QUICK, identity=identity, weights="constant:0,0", levels=2)
        path = write_config(tmp_path, [entry])
        with pytest.raises(ConfigError, match=r"experiments\[0\]\.weights: .*both vanish"):
            load_config(path)
        out = tmp_path / "o"
        assert main(["verify", "--config", path, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("configuration error: experiments[0].weights")
        assert not out.exists()

    @pytest.mark.parametrize("weights", ["scaled-classical:-1", "constant:1,-1"])
    @pytest.mark.parametrize("identity", ["borel-pompeiu", "frac-borel-pompeiu"])
    def test_reconstructions_refuse_a_pair_without_a_kernel(self, tmp_path, weights, identity):
        # a non-constant pair, or one that reverses orientation, has no
        # Cauchy kernel; borel-pompeiu used to check the classical pair instead
        path = write_config(tmp_path, [dict(QUICK, identity=identity, weights=weights)])
        with pytest.raises(ConfigError, match=r"experiments\[0\]\.weights: .*(constant|orientation)"):
            load_config(path)
        assert main(["verify", "--config", path, "--out", str(tmp_path / "o")]) == 2

    # orientation preserving, but |a|^2 - |b|^2 of the straightening map
    # overflows (1e308) or rounds to zero (1e-20): borel-pompeiu ran to a FAIL
    # with residual nan, after RuntimeWarnings
    @pytest.mark.parametrize("weights", ["constant:1e308,1e308i", "constant:1,1e-20i"])
    @pytest.mark.parametrize("identity", ["borel-pompeiu", "frac-borel-pompeiu"])
    def test_reconstructions_refuse_a_pair_without_a_finite_kernel(self, tmp_path, capsys,
                                                                    weights, identity):
        path = write_config(tmp_path, [dict(QUICK, identity=identity, weights=weights)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match=r"experiments\[0\]\.weights: .*finite and positive"):
                load_config(path)
            assert main(["verify", "--config", path, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith("configuration error: experiments[0].weights")

    def test_domain_whose_span_overflows_rejected(self, tmp_path, capsys):
        # both bounds are finite, b - a is not: the loader named phi, after
        # numpy overflow warnings
        path = write_config(tmp_path, [dict(QUICK, domain=[-1e308, 1e308, 0, 1, 0, 1, 0, 1])])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match=r"experiments\[0\]\.domain: .*span"):
                load_config(path)
            assert main(["verify", "--config", path, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith("configuration error: experiments[0].domain")

    @pytest.mark.parametrize("identity", ["gauss-weighted", "borel-pompeiu", "trace-inversion",
                                          "factorization", "frac-gauss"])
    def test_include_area_only_where_it_is_read(self, tmp_path, identity):
        path = write_config(tmp_path, [dict(QUICK, identity=identity, include_area=False)])
        with pytest.raises(ConfigError, match=r"experiments\[0\]\.include_area: only frac-borel"):
            load_config(path)
        # the default value, written out, still loads
        (cfg,) = load_config(write_config(tmp_path, [dict(QUICK, identity=identity,
                                                          include_area=True)]))
        assert cfg.setup.include_area is True

    @pytest.mark.parametrize("identity", ["gauss-weighted", "borel-pompeiu"])
    def test_scheme_only_where_a_1d_rule_runs(self, tmp_path, identity):
        # neither classical identity runs a 1-D rule, so a scheme would be
        # ignored
        entry = dict(QUICK, identity=identity, m=16, k=16, tolerance=1e-3)
        path = write_config(tmp_path, [dict(entry, scheme="gauss_jacobi")])
        with pytest.raises(ConfigError, match=r"experiments\[0\]\.scheme: only an identity"):
            load_config(path)
        (cfg,) = load_config(write_config(tmp_path, [dict(entry, scheme="graded")]))
        assert cfg.setup.params.quadrature.scheme == "graded"

    @pytest.mark.parametrize("identity", ["trace-inversion", "factorization", "frac-gauss",
                                          "frac-borel-pompeiu"])
    def test_identities_with_a_1d_rule_take_either_scheme(self, tmp_path, identity):
        path = write_config(tmp_path, [dict(QUICK, identity=identity, scheme="gauss_jacobi")])
        (cfg,) = load_config(path)
        assert cfg.setup.params.quadrature.scheme == "gauss_jacobi"


def _parsed(module):
    return ast.parse(Path(module.__file__).read_text())


def _docstrings(tree) -> set:
    """``id`` of every docstring node of a module, class or function."""
    return {id(node.body[0].value) for node in ast.walk(tree)
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
            and node.body and isinstance(node.body[0], ast.Expr)
            and isinstance(node.body[0].value, ast.Constant)}


def _is_record(node) -> bool:
    """Whether ``node`` is ``REGISTRY[...]``, one identity's record."""
    return (isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)
            and node.value.id == "REGISTRY")


class TestIdentityRecords:
    """The loader and the runner ask an identity's record
    (``quadrature_verify.REGISTRY``), never its name."""

    def test_cli_holds_no_identity_name(self):
        tree = _parsed(cli)
        docstrings = _docstrings(tree)
        # a message may name an identity; a constant equal to one is a name test
        assert [node.value for node in ast.walk(tree)
                if isinstance(node, ast.Constant) and isinstance(node.value, str)
                and node.value in IDENTITIES and id(node) not in docstrings] == []

    def test_every_field_is_read_by_name_and_none_by_position(self):
        runner = next(node for node in _parsed(quadrature_verify).body
                      if isinstance(node, ast.FunctionDef) and node.name == "run_identity")
        read = set()
        for tree in (_parsed(cli), runner):
            assigned = [node for node in ast.walk(tree)
                        if isinstance(node, ast.Assign) and _is_record(node.value)]
            assert assigned and all(isinstance(t, ast.Name) for a in assigned for t in a.targets)
            records = {t.id for a in assigned for t in a.targets}
            assert not any(isinstance(node, ast.Subscript)
                           and (_is_record(node.value) or isinstance(node.value, ast.Name)
                                and node.value.id in records) for node in ast.walk(tree))
            read |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
                     and isinstance(node.value, ast.Name) and node.value.id in records}
        assert read == {f.name for f in dataclasses.fields(quadrature_verify.Identity)}

    def test_readme_table_matches_the_records(self):
        # columns in field order after the residual: patch, n, multiplier,
        # kernel, point, area, level-free part (a callable or None)
        fields = [f.name for f in dataclasses.fields(quadrature_verify.Identity)][1:]
        lines = (Path(__file__).resolve().parent.parent / "README.md").read_text().splitlines()
        start = next(i for i, line in enumerate(lines) if line.startswith("| identity | records"))
        rows = {}
        for line in lines[start + 2:start + 2 + len(IDENTITIES)]:
            name, *cells = (cell.strip() for cell in line.strip("|").split("|"))
            assert set(cells) <= {"yes", "no"} and len(cells) == len(fields)
            rows[name.strip("`")] = [cell == "yes" for cell in cells]
        assert lines[start + 2 + len(IDENTITIES)] == ""
        assert rows == {name: [bool(getattr(rec, f)) for f in fields]
                        for name, rec in quadrature_verify.REGISTRY.items()}
        assert list(rows) == list(IDENTITIES)


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
        from bcfrac.errors import StepError

        def crash(identity, setup, res, held=None):
            raise StepError("finite-difference step 10.0 invalid for span 1.0")

        patch_run_identity(monkeypatch, crash)
        cfg = write_config(tmp_path, [QUICK])
        assert main(["verify", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.strip() == "runtime error: StepError: finite-difference step 10.0 invalid for span 1.0"

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_runtime_error_keeps_finished_experiments(self, tmp_path, monkeypatch, capsys, jobs):
        coarse_reconstruction_at_run_time(monkeypatch)
        edge = dict(QUICK, name="edge", identity="borel-pompeiu")
        cfg = write_config(tmp_path, [QUICK, edge, dict(QUICK, name="after")])
        out = tmp_path / "o"
        assert main(["verify", "--config", cfg, "--out", str(out), "--jobs", str(jobs)]) == 2
        assert sorted(p.name for p in out.iterdir()) == ["quick.csv", "summary.json"]
        summary = json.loads((out / "summary.json").read_text())
        assert [e["name"] for e in summary["experiments"]] == ["quick"]
        assert summary["experiments"][0]["passed"] and not summary["all_passed"]
        assert summary["error"] == {
            "experiment": "edge", "type": "WOnBoundaryError",
            "message": "reconstruction point too close to the contour: 0.25 from component 1's "
                       "edge, not more than two mesh widths (0.35) at m = 4"}
        assert "PASS quick" in capsys.readouterr().out

    def test_out_that_cannot_be_a_directory_is_refused_before_any_run(
            self, tmp_path, monkeypatch, capsys):
        calls = []
        patch_run_identity(monkeypatch, lambda *args: calls.append(args))
        out = tmp_path / "taken"
        out.write_text("a file\n")
        cfg = write_config(tmp_path, [QUICK])
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 2
        std = capsys.readouterr()
        assert std.out == "" and std.err.startswith("output error: FileExistsError: ")
        assert calls == [] and out.read_text() == "a file\n"

    def test_failed_report_write_is_an_output_error(self, tmp_path, capsys):
        out = tmp_path / "o"
        (out / "quick.csv").mkdir(parents=True)  # the report's path is taken by a directory
        assert main(["verify", "--config", write_config(tmp_path, [QUICK]),
                     "--out", str(out)]) == 2
        std = capsys.readouterr()
        assert std.err.startswith("output error: IsADirectoryError: ")
        assert "Traceback" not in std.err

    def test_any_exception_of_an_experiment_is_a_runtime_error(self, tmp_path, monkeypatch, capsys):
        # a real allocation of this size could take the machine's memory; the
        # stand-in raises what numpy raises then
        def second_runs_out(identity, setup, res, held=None):
            seen.append(identity)
            if len(seen) == 2:
                raise MemoryError("Unable to allocate 7.45 GiB")
            return run_identity(identity, setup, res, held)

        seen = []
        run_identity = patch_run_identity(monkeypatch, second_runs_out)
        names = ["first", "second", "third"]
        cfg = write_config(tmp_path, [dict(QUICK, name=name) for name in names])
        out = tmp_path / "o"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 2
        assert sorted(p.name for p in out.iterdir()) == ["first.csv", "summary.json"]
        summary = json.loads((out / "summary.json").read_text())
        assert [e["name"] for e in summary["experiments"]] == ["first"]
        assert summary["error"] == {"experiment": "second", "type": "MemoryError",
                                    "message": "Unable to allocate 7.45 GiB"}
        std = capsys.readouterr()
        assert "PASS first" in std.out
        assert std.err.strip() == "runtime error: MemoryError: Unable to allocate 7.45 GiB"
        seen.clear()
        with pytest.raises(MemoryError):
            run_suite(load_config(cfg))

    def test_run_suite_still_raises(self, tmp_path, monkeypatch):
        from bcfrac.errors import WOnBoundaryError

        coarse_reconstruction_at_run_time(monkeypatch)
        edge = dict(QUICK, name="edge", identity="borel-pompeiu")
        with pytest.raises(WOnBoundaryError):
            run_suite(load_config(write_config(tmp_path, [QUICK, edge])))

    def test_nan_residual_never_passes(self, tmp_path, monkeypatch):
        from bcfrac import ResidualReport

        def nan_report(identity, setup, res, held=None):
            return ResidualReport(identity, res.m, res.k, res.n, 0.5, float("nan"))

        patch_run_identity(monkeypatch, nan_report)
        cfg = write_config(tmp_path, [dict(QUICK, tolerance=1.0)])
        summary, _ = run_suite(load_config(cfg))
        assert not summary["experiments"][0]["passed"]
        assert not summary["all_passed"]
        assert main(["verify", "--config", cfg, "--out", str(tmp_path / "o")]) == 1

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_coarse_level_never_passes(self, tmp_path, bad):
        # the finest level alone is finite and inside the tolerance; the
        # fitted order of the study is NaN
        from bcfrac import ResidualReport

        cfg = load_config(write_config(tmp_path, [dict(QUICK, tolerance=1.0, levels=2)]))[0]
        reports = [ResidualReport("gauss-weighted", 8, 8, 64, bad, 1e-3),
                   ResidualReport("gauss-weighted", 16, 16, 128, 1e-4, 1e-4)]
        summary, _ = cli._summarize([(cfg, reports)])
        assert summary["experiments"][0]["max_residual"] == 1e-4
        assert not summary["experiments"][0]["passed"]
        assert not summary["all_passed"]

    @pytest.mark.parametrize("flag, value", [
        ("--levels", "0"), ("--levels", "-3"), ("--jobs", "0"), ("--jobs", "-2"),
        ("--levels", "two"),
    ])
    def test_counts_below_one_rejected_naming_the_flag(self, tmp_path, capsys, flag, value):
        cfg = write_config(tmp_path, [QUICK])
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--config", cfg, "--out", str(out), flag, value])
        assert exc.value.code == 2
        assert f"argument {flag}: must be an integer of at least 1" in capsys.readouterr().err
        assert not out.exists()  # nothing ran

    def test_levels_override_zero_is_not_the_config_levels(self, tmp_path):
        configs = load_config(write_config(tmp_path, [dict(QUICK, levels=2)]))
        with pytest.raises(ValueError, match="at least one level"):
            list(cli._run_experiments(configs, 0, 1))
        ((_, reports),) = cli._run_experiments(configs, 1, 1)
        assert len(reports) == 1

    def test_parallel_matches_serial(self, tmp_path):
        path = write_config(tmp_path, [QUICK, dict(QUICK, name="quick2")])
        for jobs in ("1", "2"):
            assert main(["verify", "--config", path, "--out", str(tmp_path / jobs),
                         "--jobs", jobs]) == 0
        s1, s2 = (json.loads((tmp_path / jobs / "summary.json").read_text()) for jobs in "12")
        assert s1 == s2
        assert [e["name"] for e in s1["experiments"]] == ["quick", "quick2"]

    def test_small_proportion_inversion_study_converges(self, tmp_path):
        # sigma = 0.05 on a custom scale function of range 2 per axis: the
        # composition's series once read 2.9e-4 here at order 0.07
        entry = {"name": "small-sigma", "identity": "trace-inversion",
                 "domain": [0, 1, 0, 1, 0, 1, 0, 1], "weights": "classical",
                 "phi": "custom:x + x^3 + y|x + y + y^3", "alpha": [0.5] * 4,
                 "sigma": [0.05] * 4, "field": "poly", "m": 16, "k": 16, "n": 512,
                 "tolerance": 1e-4, "levels": 3}
        summary, _ = run_suite(load_config(write_config(tmp_path, [entry])))
        (result,) = summary["experiments"]
        assert result["passed"] and result["order"] >= 1.9

    #: A trace-inversion study on the unit domain under a linear phi.
    TINY = {"identity": "trace-inversion", "domain": [0, 1] * 4, "weights": "classical",
            "phi": "linear", "alpha": [0.5] * 4, "field": "poly", "m": 8, "k": 8, "n": 256,
            "tolerance": 1e-4, "levels": 3}

    def test_tiny_proportion_inversion_study_converges(self, tmp_path):
        # |c| U(t) reaches 1666 at sigma = 6e-4: the composition's series
        # overflowed to nan here before its expansion was shifted by U(t)
        entry = dict(self.TINY, name="tiny-sigma", sigma=[6e-4] * 4)
        summary, _ = run_suite(load_config(write_config(tmp_path, [entry])))
        (result,) = summary["experiments"]
        assert result["passed"] and result["order"] >= 1.9

    def test_vanishing_proportion_is_a_finite_fail(self, tmp_path, capsys):
        # sigma = 1e-9 on one axis is accepted but not resolved by the rules
        # (0.97 at the finest level): a numerical FAIL, not nan
        path = write_config(tmp_path, [dict(self.TINY, name="vanishing", sigma=[1e-9, 0, 1, 0])])
        assert main(["verify", "--config", path, "--out", str(tmp_path / "o")]) == 1
        out = capsys.readouterr().out
        assert out.startswith("FAIL vanishing") and "nan" not in out


class TestRuntime:
    def test_verify_runs_every_bundle_without_scipy(self, tmp_path):
        from bcfrac.presets import EXPERIMENT_PRESETS

        path = tmp_path / "bundles.json"
        path.write_text(json.dumps({"experiments": list(EXPERIMENT_PRESETS)}))
        code = ("import sys; from bcfrac.cli import main; "
                f"rc = main(['verify', '--config', {str(path)!r}, '--out', {str(tmp_path / 'o')!r}]); "
                "print(sorted(m for m in ('scipy', 'sympy') if m in sys.modules)); sys.exit(rc)")
        src = str(Path(__file__).resolve().parent.parent / "src")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env={"PATH": os.environ.get("PATH", ""), "PYTHONPATH": src,
                                  "OPENBLAS_NUM_THREADS": "1"}, timeout=300)
        lines = out.stdout.strip().splitlines()
        assert out.returncode == 0, out.stdout + out.stderr  # every experiment passed
        assert len([line for line in lines if line.startswith("PASS ")]) == \
            sum(map(len, EXPERIMENT_PRESETS.values()))
        assert lines[-1] == "[]"

    @pytest.fixture
    def fresh_allocator_setting(self):
        from bcfrac.cli import _keep_freed_memory

        _keep_freed_memory.cache_clear()
        yield _keep_freed_memory
        _keep_freed_memory.cache_clear()

    def test_allocator_setting_is_made_once(self, fresh_allocator_setting, monkeypatch, tmp_path):
        import ctypes
        from types import SimpleNamespace

        calls = []

        def mallopt(param, value):
            calls.append((param, value))
            return 1

        monkeypatch.setattr(ctypes, "CDLL", lambda name: SimpleNamespace(mallopt=mallopt))
        fresh_allocator_setting()
        fresh_allocator_setting()
        run_suite(load_config(write_config(tmp_path, [QUICK])))
        assert calls == [(-1, 64 << 20), (-3, 32 << 20)]  # M_TRIM_THRESHOLD, M_MMAP_THRESHOLD

    def test_allocator_setting_reports_a_refused_value(self, fresh_allocator_setting, monkeypatch):
        import ctypes
        from types import SimpleNamespace

        calls = []

        def mallopt(param, value):
            calls.append(param)
            return 0 if param == -1 else 1

        monkeypatch.setattr(ctypes, "CDLL", lambda name: SimpleNamespace(mallopt=mallopt))
        assert fresh_allocator_setting() is False
        assert calls == [-1, -3]  # a refused value does not stop the other setting

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's mallopt values")
    def test_glibc_takes_both_settings(self, fresh_allocator_setting):
        assert fresh_allocator_setting() is True

    def test_allocator_setting_without_a_c_library(self, fresh_allocator_setting, monkeypatch,
                                                   tmp_path):
        import ctypes

        def no_libc(name):
            raise OSError("no C library")

        monkeypatch.setattr(ctypes, "CDLL", no_libc)
        assert fresh_allocator_setting() is False
        summary, _ = run_suite(load_config(write_config(tmp_path, [QUICK])))
        assert summary["all_passed"]


class TestOtherCommands:
    def test_list_presets(self, capsys):
        assert main(["list-presets"]) == 0
        out = capsys.readouterr().out
        assert "bg-reduction" in out and "fractal" in out

    def test_oracle_ops(self, capsys):
        for op in ("rl-power", "eigen", "rl-const-derivative"):
            assert main(["oracle", op, "--n", "256"]) == 0
            out = capsys.readouterr().out
            assert "abs-error" in out

    @pytest.mark.parametrize("argv, cause", [
        (["rl-power", "--beta", "0"], "ValueError: math domain error"),  # pole of gamma
        (["rl-power", "--beta", "200"], "OverflowError"),
        (["rl-const-derivative", "--alpha", "1"], "ValueError"),
        (["rl-power", "--t", "5"], "DomainError"),
        (["rl-const-derivative", "--t", "0"], "ZeroDivisionError"),  # t^-alpha at t = 0
    ])
    def test_oracle_input_errors_exit_2(self, capsys, argv, cause):
        assert main(["oracle", *argv, "--n", "64"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("oracle error: ") and cause in err

    def test_oracle_eigen_refuses_sigma_zero(self, capsys):
        # the rate (sigma - 1)/sigma of the eigen oracle's tempered input has
        # no value at sigma = 0; unchecked, it ended in a ZeroDivisionError
        # traceback with exit 1, the code of a numerical FAIL
        assert main(["oracle", "eigen", "--sigma", "0", "--n", "64"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("oracle error: ValueError: eigen needs sigma > 0")

    def test_oracle_power_rule_on_the_affine_row(self, capsys):
        # criterion 03's power-rule case and bound; the identity weight of the
        # oracle declares exponent 1, so the graded rule takes the reference row
        from bcfrac.cli import _oracle_weight

        assert _oracle_weight("identity").exponent == 1.0
        main(["oracle", "rl-power", "--alpha", "0.25", "--beta", "1.5", "--t", "0.8",
              "--n", "32768"])
        err = float(capsys.readouterr().out.strip().split("abs-error=")[1])
        assert err <= 1e-6

    def test_oracle_accuracy(self, capsys):
        main(["oracle", "eigen", "--alpha", "0.25", "--sigma", "0.6",
              "--beta", "1.5", "--t", "0.9", "--n", "2048"])
        out = capsys.readouterr().out
        err = float(out.strip().split("abs-error=")[1])
        assert err < 1e-4
