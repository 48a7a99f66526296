"""Configuration-driven experiment runner.

A configuration file is JSON with one key ``experiments`` holding a list;
each entry is either the name of a built-in preset bundle or a dictionary
with the fields below; ``scheme``, ``include_area`` and ``levels`` may be
left out, and any other field is refused::

    {
      "experiments": [
        "bg-reduction",
        {
          "name": "my-run",            unique experiment id, the CSV's file stem
          "identity": "frac-gauss",    one of the registered identities
          "domain": [0,1,0,1,0,1,0,1], rectangle bounds a1,b1,c1,d1,a2,b2,c2,d2
          "weights": "classical",      classical | constant:a+bi,c+di
                                       | scaled-classical:<expr in x,y>
          "phi": "linear",             linear | fractal:d0,d1,d2,d3
                                       | custom:<expr>|<expr>
          "alpha": [0.5,0.5,0.5,0.5],  orders per trace direction
          "sigma": [1,0,1,0],          proportions per trace direction
          "field": "poly",             test input F (see field presets)
          "m": 32, "k": 32, "n": 512,  area/boundary/1-D resolutions
          "scheme": "graded",          graded | gauss_jacobi
          "include_area": true,        keep the area term of reconstructions
          "tolerance": 1e-6,           pass/fail threshold (finest level)
          "levels": 1                  refinement levels (>1 fits an order)
        }
      ]
    }

CSV rows carry the schema
``identity,m,k,n,res_l1,res_l2,order,seconds``; wall-clock seconds are
reported but excluded from determinism comparisons.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import BcfracError, ConfigError, DomainError, UnsupportedWeightsError, WOnBoundaryError
from .frac_cr_bicomplex import (
    FracParams,
    lambda_for_constant_weights,
    lambda_residual,
)
from .fracops1d import FracSpec, Quadrature1D, ScalarWeightFn, prop_frac_derivative, prop_frac_integral, hausdorff_derivative
from .presets import (
    EXPERIMENT_PRESETS,
    field_preset,
    phi_preset,
    rect_from_bounds,
    weight_preset,
)
from .quadrature_verify import (
    IDENTITIES,
    Resolution,
    ResidualReport,
    SurfacePatch,
    VerificationSetup,
    check_reconstruction_point,
    convergence_study,
    run_identity,
)
from .weighted_cr import CauchyKernel, ProductFunction

_REQUIRED = ("name", "identity", "domain", "weights", "phi", "alpha", "sigma",
             "field", "m", "k", "n", "tolerance")
_DEFAULTS = {"include_area": True, "levels": 1, "scheme": "graded"}


@dataclass
class ExperimentConfig:
    """Validated form of one experiment entry."""

    name: str
    identity: str
    setup: VerificationSetup
    resolution: Resolution
    tolerance: float
    levels: int


def _config_error(index, key, message):
    raise ConfigError(f"experiments[{index}].{key}: {message}")


def _integer(index, key, value) -> int:
    """A JSON integer (a boolean or a float such as 8.9 is refused)."""
    if isinstance(value, bool) or not isinstance(value, int):
        _config_error(index, key, f"must be an integer, got {value!r}")
    return value


def _number(index, key, value) -> float:
    """A finite JSON number (a boolean, a string or null is refused)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        _config_error(index, key, f"must be a finite number, got {value!r}")
    return float(value)


def _numbers(index, key, value) -> tuple:
    """A list of finite numbers (a tuple too: the presets write their bounds so)."""
    if not isinstance(value, (list, tuple)):
        _config_error(index, key, f"must be a list of numbers, got {value!r}")
    return tuple(_number(index, f"{key}[{j}]", v) for j, v in enumerate(value))


def _text(index, key, value) -> str:
    """A JSON string: a preset name, possibly with an expression."""
    if not isinstance(value, str):
        _config_error(index, key, f"must be a string, got {value!r}")
    return value


def parse_experiment(entry: dict, index: int) -> ExperimentConfig:
    for key in _REQUIRED:
        if key not in entry:
            _config_error(index, key, "missing required field")
    known = set(_REQUIRED) | set(_DEFAULTS)
    for key in entry:
        if key not in known:
            _config_error(index, key, "unknown field")
    merged = {**_DEFAULTS, **entry}

    name = merged["name"]
    if (not isinstance(name, str) or name in ("", ".", "..")
            or any(ch in name for ch in "/\\\0")):
        _config_error(index, "name", f"must be a plain file name, got {name!r}")
    if merged["identity"] not in IDENTITIES:
        _config_error(index, "identity", f"unknown identity; known: {', '.join(IDENTITIES)}")
    bounds = _numbers(index, "domain", merged["domain"])
    weights, phi_name = _text(index, "weights", merged["weights"]), _text(index, "phi", merged["phi"])
    try:
        rect = rect_from_bounds(bounds)
    except (ConfigError, ValueError) as exc:
        _config_error(index, "domain", str(exc))
    try:
        wp = weight_preset(weights, rect)
        if merged["identity"] == "frac-borel-pompeiu":
            CauchyKernel(wp)  # the reconstruction kernel needs constant weights
    except (ConfigError, UnsupportedWeightsError) as exc:
        _config_error(index, "weights", str(exc))
    try:
        phi = phi_preset(phi_name)
        phi.validate(rect)
    except (ConfigError, DomainError) as exc:
        _config_error(index, "phi", str(exc))
    try:
        F = field_preset(merged["field"])
    except ConfigError as exc:
        _config_error(index, "field", str(exc))

    m, k, n = (_integer(index, key, merged[key]) for key in ("m", "k", "n"))
    for key, value in (("m", m), ("k", k), ("n", n)):
        if value < 4:
            _config_error(index, key, "resolutions must be at least 4")
    tolerance = _number(index, "tolerance", merged["tolerance"])
    if tolerance <= 0:
        _config_error(index, "tolerance", "tolerance must be positive")
    levels = _integer(index, "levels", merged["levels"])
    if levels < 1:
        _config_error(index, "levels", "levels must be at least 1")

    try:
        quad = Quadrature1D(n=n, scheme=merged["scheme"])
    except ValueError as exc:
        _config_error(index, "scheme", str(exc))
    alpha, sigma = (_numbers(index, key, merged[key]) for key in ("alpha", "sigma"))
    for key, value, check in (("alpha", alpha, FracParams.check_alpha),
                              ("sigma", sigma, FracParams.check_sigma)):
        try:
            check(value)
        except ValueError as exc:
            _config_error(index, key, str(exc))
    params = FracParams(rect, alpha, sigma, phi, quad)
    patch = SurfacePatch.inside(rect, m=m, k=k)
    W = rect.point(0.45, 0.4, 0.55, 0.6)
    if merged["identity"] == "borel-pompeiu":
        # refinement levels only raise m, so the first level decides
        try:
            check_reconstruction_point(W, patch)
        except WOnBoundaryError as exc:
            _config_error(index, "m", str(exc))

    sig = params.sigma
    lam = ProductFunction.constant(0.0)
    if (not (sig.z1 == 1 and sig.z2 == 1)
            and merged["identity"] in ("factorization", "frac-gauss", "frac-borel-pompeiu")):
        try:
            lam = lambda_for_constant_weights(wp, params)
        except BcfracError as exc:
            _config_error(index, "sigma", f"multiplier unavailable: {exc}")
        # a proportion near zero makes (1 - sigma)/sigma so large that the
        # multiplier's rounding error no longer solves its PDE
        lres = lambda_residual(lam, wp, params, patch.probes())
        if not lres <= 1e-8:
            _config_error(index, "sigma", f"multiplier PDE residual {lres:.3e} exceeds 1e-8")
    if not isinstance(merged["include_area"], bool):
        _config_error(index, "include_area", f"must be true or false, got {merged['include_area']!r}")
    setup = VerificationSetup(
        F=F, wp=wp, params=params, lam=lam, W=W,
        Z=rect.point(0.5, 0.55, 0.45, 0.5),
        patch=patch,
        include_area=merged["include_area"],
    )
    return ExperimentConfig(name, merged["identity"], setup,
                            Resolution(m, k, n), tolerance, levels)


def load_config(path: str) -> list:
    try:
        raw = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    entries = raw.get("experiments") if isinstance(raw, dict) else None
    if not isinstance(entries, list) or not entries:
        raise ConfigError("config needs a JSON object with a nonempty 'experiments' list")
    expanded = []
    for i, entry in enumerate(entries):
        if isinstance(entry, str):
            if entry not in EXPERIMENT_PRESETS:
                raise ConfigError(
                    f"experiments[{i}]: unknown preset {entry!r}; "
                    f"known: {', '.join(sorted(EXPERIMENT_PRESETS))}"
                )
            expanded.extend(EXPERIMENT_PRESETS[entry])
        elif isinstance(entry, dict):
            expanded.append(entry)
        else:
            raise ConfigError(f"experiments[{i}]: must be a preset name or a table")
    configs, first_index = [], {}
    for i, entry in enumerate(expanded):
        cfg = parse_experiment(entry, i)
        j = first_index.setdefault(cfg.name, i)
        if j != i:  # the name keys the CSV, the report and the summary entry
            _config_error(i, "name", f"{cfg.name!r} repeats the name of experiments[{j}]")
        configs.append(cfg)
    return configs


#: glibc's ``mallopt`` parameter number of ``M_TRIM_THRESHOLD``.
_M_TRIM_THRESHOLD = -1
#: Free memory that glibc's ``free`` keeps at the top of the heap before it
#: returns it to the OS (the default is 128 KB).
_TRIM_THRESHOLD_BYTES = 64 << 20


@lru_cache(maxsize=None)
def _keep_freed_memory() -> None:
    """Let the heap keep up to ``_TRIM_THRESHOLD_BYTES`` of freed memory.

    The experiments allocate and free the same numpy temporaries (the 1-D
    rule blocks, kernel sums, trace fields) on every run.  With the default
    threshold, each freed block goes back to the OS and the next run faults
    it in again.  Measured per warm pass of the three perfbench workloads
    (trace-gauss, deep-reconstruction, trace-inversion), in process, three
    processes of five passes each: 12.2k / 23.5k / 77-89k minor faults with
    the default and at most 22 / 1 / 57 with this setting; trace-gauss
    passes 0.040-0.065 s -> 0.025-0.040 s; the same peak RSS.  A no-op where
    the process's C library cannot be loaded or has no ``mallopt``.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD_BYTES)


def _run_experiments(configs: list, levels_override: Optional[int], jobs: int):
    """Yield ``(config, reports)`` in config order; a runtime error propagates
    at the position of the experiment that raised it."""
    _keep_freed_memory()

    def run_one(cfg: ExperimentConfig):
        levels = cfg.levels if levels_override is None else levels_override
        if levels == 1:
            return [run_identity(cfg.identity, cfg.setup, cfg.resolution)]
        return convergence_study(cfg.identity, cfg.setup, cfg.resolution, levels)

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            yield from zip(configs, pool.map(run_one, configs))
    else:
        for cfg in configs:
            yield cfg, run_one(cfg)


def _summarize(finished: list):
    """``(summary, reports_by_name)`` of finished ``(config, reports)`` pairs."""
    summary = {"experiments": [], "all_passed": True}
    reports_by_name = {}
    for cfg, reports in finished:
        final = reports[-1]
        residual = final.max_residual()
        passed = bool(np.isfinite(residual) and residual <= cfg.tolerance)  # NaN never passes
        summary["experiments"].append({
            "name": cfg.name,
            "identity": cfg.identity,
            "max_residual": residual,
            "order": None if final.order is None else float(final.order),
            "tolerance": float(cfg.tolerance),
            "passed": passed,
        })
        summary["all_passed"] = summary["all_passed"] and passed
        reports_by_name[cfg.name] = reports
    return summary, reports_by_name


def run_suite(configs: list, levels_override: Optional[int] = None, jobs: int = 1):
    """Execute every experiment; returns ``(summary, reports_by_name)``.

    The first runtime error propagates, so callers count it as a failure."""
    return _summarize(list(_run_experiments(configs, levels_override, jobs)))


def emit_report(reports_by_name: dict, summary: dict, out_dir: str) -> list:
    """Write one CSV per experiment plus a JSON summary; returns the paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for name, reports in reports_by_name.items():
        path = out / f"{name}.csv"
        lines = [ResidualReport.CSV_HEADER]
        lines.extend(r.csv_row() for r in reports)
        path.write_text("\n".join(lines) + "\n")
        written.append(path)
    spath = out / "summary.json"
    spath.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    written.append(spath)
    return written


def _cmd_verify(args) -> int:
    try:
        configs = load_config(args.config)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    finished, error = [], None
    try:
        for item in _run_experiments(configs, args.levels, args.jobs):
            finished.append(item)
    except BcfracError as exc:
        error = exc
    summary, reports = _summarize(finished)
    if error is not None:
        # the experiments that finished are kept, and the cause recorded
        summary["all_passed"] = False
        summary["error"] = {"experiment": configs[len(finished)].name,
                            "type": type(error).__name__, "message": str(error)}
    emit_report(reports, summary, args.out)
    for entry in summary["experiments"]:
        status = "PASS" if entry["passed"] else "FAIL"
        order = "" if entry["order"] is None else f" order={entry['order']:.2f}"
        print(f"{status} {entry['name']} [{entry['identity']}] "
              f"residual={entry['max_residual']:.3e} tol={entry['tolerance']:.1e}{order}")
    if error is not None:
        # exit 2, not the exit 1 of a numerical FAIL
        print(f"runtime error: {type(error).__name__}: {error}", file=sys.stderr)
        return 2
    return 0 if summary["all_passed"] else 1


def _cmd_list_presets(_args) -> int:
    print("experiment bundles:")
    for name, entries in EXPERIMENT_PRESETS.items():
        ids = ", ".join(e["identity"] for e in entries)
        print(f"  {name}: {ids}")
    print("weights: classical | constant:a+bi,c+di | scaled-classical:<expr in x,y>")
    print("phi: linear | fractal:d0,d1,d2,d3 | custom:<expr>|<expr>")
    print("fields: poly, exp, affine, conjugate, one")
    print("identities: " + ", ".join(IDENTITIES))
    return 0


def _oracle_weight(which: str) -> ScalarWeightFn:
    if which == "identity":
        return ScalarWeightFn(phi=lambda t: t,
                              dphi=lambda t: np.ones_like(np.asarray(t, dtype=float)),
                              lo=0.0, hi=2.0, exponent=1.0)
    return ScalarWeightFn(phi=lambda t: t + t**3, dphi=lambda t: 1.0 + 3.0 * t**2,
                          lo=0.0, hi=2.0)


def _cmd_oracle(args) -> int:
    try:
        closed, engine = _oracle_values(args)
    except (BcfracError, ValueError, ArithmeticError) as exc:
        # a point or an order outside its range, or a closed form at a pole
        # (of math.gamma, or a zero divisor or base)
        print(f"oracle error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    err = abs(complex(engine) - complex(closed))
    print(f"closed-form={complex(closed):.12g} engine={complex(engine):.12g} abs-error={err:.3e}")
    return 0


def _oracle_values(args) -> tuple:
    """``(closed form, engine value)`` of one oracle op."""
    q = Quadrature1D(n=args.n)
    if args.op == "rl-power":
        # classical left integral of (t-a)^(beta-1) at proportion one
        w = _oracle_weight("identity")
        spec = FracSpec(args.alpha, 1.0, w)
        closed = math.gamma(args.beta) / math.gamma(args.beta + args.alpha) * args.t ** (args.beta + args.alpha - 1)
        engine = prop_frac_integral(lambda tau: tau ** (args.beta - 1.0), spec, "left", args.t, q)
    elif args.op == "eigen":
        # tempered power input reproduced in closed form under the cubic weight
        w = _oracle_weight("cubic")
        spec = FracSpec(args.alpha, args.sigma, w)
        if args.sigma == 0.0:
            raise ValueError("eigen needs sigma > 0: its input exp(c*phi) has c = (sigma - 1)/sigma")
        c = (args.sigma - 1.0) / args.sigma
        pt = args.t + args.t**3
        closed = (math.gamma(args.beta) / (args.sigma ** args.alpha * math.gamma(args.beta + args.alpha))
                  * np.exp(c * pt) * pt ** (args.beta + args.alpha - 1))
        engine = prop_frac_integral(
            lambda tau: np.exp(c * (tau + tau**3)) * (tau + tau**3) ** (args.beta - 1.0),
            spec, "left", args.t, q)
    elif args.op == "rl-const-derivative":
        w = _oracle_weight("identity")
        spec = FracSpec(args.alpha, 1.0, w)
        closed = args.t ** (-args.alpha) / math.gamma(1.0 - args.alpha)
        engine = prop_frac_derivative(
            lambda t: np.ones_like(np.asarray(t, dtype=float)), spec, "left", args.t, q)
    elif args.op == "hausdorff":
        closed = args.t ** (1.0 - args.alpha) / args.alpha  # for l(t) = t, a = 0
        engine = hausdorff_derivative(
            lambda t: np.asarray(t, dtype=float),
            lambda t: np.ones_like(np.asarray(t, dtype=float)),
            args.alpha, 0.0, args.t)
    else:  # argparse restricts op to the choices above
        raise ValueError(f"unknown oracle op {args.op!r}")
    return closed, engine


def _at_least_one(text: str) -> int:
    """argparse type of ``--levels`` and ``--jobs``: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be an integer of at least 1, got {text!r}")
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="bcfrac",
        description="Verify bicomplex proportional fractional calculus identities by quadrature.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run experiments from a JSON config")
    p_verify.add_argument("--config", required=True, help="path to the JSON configuration")
    p_verify.add_argument("--levels", type=_at_least_one, default=None,
                          help="override refinement levels for every experiment")
    p_verify.add_argument("--out", default="results", help="output directory")
    p_verify.add_argument("--jobs", type=_at_least_one, default=1,
                          help="parallel experiment workers")
    p_verify.set_defaults(fn=_cmd_verify)

    p_list = sub.add_parser("list-presets", help="show preset names")
    p_list.set_defaults(fn=_cmd_list_presets)

    p_oracle = sub.add_parser("oracle", help="closed-form spot checks of the 1-D operators")
    p_oracle.add_argument("op", choices=["rl-power", "eigen", "rl-const-derivative", "hausdorff"])
    p_oracle.add_argument("--alpha", type=float, default=0.5)
    p_oracle.add_argument("--beta", type=float, default=1.5)
    p_oracle.add_argument("--sigma", type=float, default=0.6)
    p_oracle.add_argument("--t", type=float, default=0.8)
    p_oracle.add_argument("--n", type=int, default=512)
    p_oracle.set_defaults(fn=_cmd_oracle)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
