"""Seeded workload generator: one plain ``bcfrac verify`` config per workload.

Each workload is a fixed list of experiment shapes (identity, regime,
resolutions, levels); the seed only picks the continuous parameters inside
each regime (orders, proportions, fractal exponents, constant weights,
expression coefficients).  The amount of quadrature work per item therefore
does not depend on the seed, while the inputs do.  Every shipped preset entry
is copied unchanged into exactly one workload, so every preset is covered.

    python3 perfbench/generate.py --seed 0 --out perfbench/configs

writes ``<workload>.json`` files that ``bcfrac verify --config <file>`` runs
by hand.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from bcfrac.presets import (  # noqa: E402
    EXPERIMENT_PRESETS,
    POSITIVE_DOMAIN,
    UNIT_DOMAIN,
    parse_complex_literal,
    phi_preset,
)

DEFAULT_SEED = 0
WORKLOADS = ("trace-gauss", "deep-reconstruction", "trace-inversion")

#: Preset entries (by experiment name) carried unchanged into each workload.
PRESET_ITEMS = {
    "trace-gauss": ("classical-gauss", "classical-reconstruction", "bg-gauss", "fractal-gauss"),
    "deep-reconstruction": ("bg-reconstruction",),
    "trace-inversion": ("fractal-inversion", "prop-fractal-inversion", "frac-fractal-inversion"),
}

NEAR_ONE = 1 - 1e-6


def _preset_entry(name: str) -> dict:
    for bundle in EXPERIMENT_PRESETS.values():
        for entry in bundle:
            if entry["name"] == name:
                return json.loads(json.dumps(entry))  # deep copy, tuples as lists
    raise KeyError(f"no shipped preset entry named {name!r}")


def _u(rng: random.Random, lo: float, hi: float) -> float:
    return round(rng.uniform(lo, hi), 4)


def _constant_weights(rng: random.Random, skew: bool = True) -> str:
    """``constant:theta,phi`` with ``phi = i*g*exp(i*delta)*theta``, so that
    ``Im(conj(theta)*phi) = g*cos(delta)*|theta|^2 > 0``; without skew
    ``phi = i*theta``, a rescaled classical pair."""
    theta = complex(_u(rng, 0.6, 1.4), _u(rng, -0.4, 0.4))
    phi = 1j * theta
    if skew:
        phi *= _u(rng, 0.6, 1.4) * np.exp(1j * _u(rng, -0.6, 0.6))
    return (f"constant:{theta.real:.4f}{theta.imag:+.4f}i,"
            f"{phi.real:.4f}{phi.imag:+.4f}i")


def _fractal_phi(rng: random.Random) -> str:
    return "fractal:" + ",".join(f"{_u(rng, 0.5, 0.9)}" for _ in range(4))


def _entry(name, identity, **fields) -> dict:
    entry = dict(name=name, identity=identity, domain=list(UNIT_DOMAIN), weights="classical",
                 phi="linear", alpha=[0.5] * 4, sigma=[1, 0, 1, 0], field="poly",
                 m=32, k=32, n=512, tolerance=1e-6, levels=1)
    entry.update(fields)
    return entry


def _trace_gauss(rng: random.Random) -> list:
    weights = "classical" if rng.random() < 0.5 else _constant_weights(rng)
    s = _u(rng, 0.5, 0.9)
    out = [_entry("gauss-general", "frac-gauss", weights=weights,
                  alpha=[_u(rng, 0.3, 0.7) for _ in range(4)], sigma=[s, 0, s, 0])]
    expr = f"1 + {_u(rng, 0.2, 0.8)}*x*y + {_u(rng, 0.1, 0.4)}*cos(y)"
    out.append(_entry("gauss-expression", "frac-gauss", weights=f"scaled-classical:{expr}",
                      alpha=[_u(rng, 0.3, 0.7) for _ in range(4)]))
    return out


def _deep_reconstruction(rng: random.Random) -> list:
    weights = "classical" if rng.random() < 0.5 else _constant_weights(rng)
    s = _u(rng, 0.5, 0.9)
    out = [_entry("bp-general", "frac-borel-pompeiu", weights=weights,
                  sigma=[s, 0, s, 0], n=256, tolerance=5e-2)]
    # With orders near one the trace integral of an affine field is
    # holomorphic, so for a rescaled classical pair the area term vanishes and
    # the boundary term alone must reconstruct the trace sum.
    out.append(_entry("bp-boundary-only", "frac-borel-pompeiu",
                      weights=_constant_weights(rng, skew=False),
                      alpha=[NEAR_ONE] * 4, field="affine", n=256, include_area=False,
                      tolerance=1e-3))
    return out


def _trace_inversion(rng: random.Random) -> list:
    out = []
    for i in range(4):
        out.append(_entry(f"inversion-fractal-{i}", "trace-inversion",
                          domain=list(POSITIVE_DOMAIN), phi=_fractal_phi(rng),
                          alpha=[_u(rng, 0.3, 0.7) for _ in range(4)],
                          sigma=[_u(rng, 0.5, 1.0) for _ in range(4)],
                          m=16, k=16, n=256, tolerance=1e-4, levels=3))
    out.append(_entry("inversion-linear", "trace-inversion",
                      alpha=[_u(rng, 0.3, 0.7) for _ in range(4)],
                      sigma=[_u(rng, 0.5, 1.0) for _ in range(4)],
                      m=16, k=16, n=256, tolerance=1e-4, levels=3))
    # Factorization items are cheap; six of them keep the warm sample count
    # of a run (three warm passes) between 40 and 100, so the tail stays p75.
    for i in range(6):
        weights = _constant_weights(rng) if i % 2 else "classical"
        s = _u(rng, 0.5, 0.9)
        out.append(_entry(f"factorization-{i}", "factorization", weights=weights,
                          alpha=[_u(rng, 0.3, 0.7) for _ in range(4)], sigma=[s, 0, s, 0],
                          m=16, k=16))
    return out


_BUILDERS = {
    "trace-gauss": _trace_gauss,
    "deep-reconstruction": _deep_reconstruction,
    "trace-inversion": _trace_inversion,
}


def check_entry(entry: dict) -> None:
    """Reject a generated entry whose weights or scale function leave the
    regime the identities are stated for."""
    weights = entry["weights"]
    if weights.startswith("constant:"):
        theta, phi = (parse_complex_literal(p) for p in weights[len("constant:"):].split(","))
        if not (np.conj(theta) * phi).imag > 0:
            raise ValueError(f"{entry['name']}: constant weights not orientation preserving")
    if entry["phi"].startswith(("fractal:", "custom:")):
        phi = phi_preset(entry["phi"])
        bounds = entry["domain"]
        for l, (x0, x1, y0, y1) in ((1, bounds[0:4]), (2, bounds[4:8])):
            xs, ys = np.meshgrid(np.linspace(x0, x1, 17), np.linspace(y0, y1, 17))
            comp = phi.component(l)
            with np.errstate(divide="ignore"):
                partials = np.real([comp.dx(xs, ys), comp.dy(xs, ys)])
            if not (np.all(np.isfinite(partials)) and np.all(partials > 0)):
                raise ValueError(f"{entry['name']}: scale function partials not finite and positive")


def workload_config(workload: str, seed: int) -> dict:
    """The ``bcfrac verify`` config of one workload for one seed."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
    rng = random.Random(f"perfbench/{workload}/{seed}")
    entries = [_preset_entry(name) for name in PRESET_ITEMS[workload]]
    entries.extend(_BUILDERS[workload](rng))
    for entry in entries:
        check_entry(entry)
    return {"experiments": entries}


def write_config(workload: str, seed: int, path: Path) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    entries = workload_config(workload, seed)["experiments"]
    rows = ",\n".join("  " + json.dumps(e) for e in entries)
    path.write_text('{"experiments": [\n' + rows + "\n]}\n")
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--out", default=str(ROOT / "perfbench" / "configs"))
    args = parser.parse_args(argv)
    for workload in WORKLOADS:
        print(write_config(workload, args.seed, Path(args.out) / f"{workload}.json"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
