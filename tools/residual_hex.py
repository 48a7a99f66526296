"""Dump every residual of the benchmark configs and preset bundles as
float.hex, and list the values that moved between two dumps.

    python tools/residual_hex.py dump OUT.json [--root CHECKOUT]
    python tools/residual_hex.py diff A.json B.json
    python tools/residual_hex.py check [LEDGER.json]

``dump`` runs, in this process, every item of the perfbench workload configs
that ``perfbench/generate.py --seed N`` writes at seeds 0, 1 and 2 (into a
temporary directory, so nothing under ``perfbench/`` changes) and every
shipped preset bundle, and records ``res_l1``, ``res_l2`` and ``order`` of
each level as float.hex, with the Python and numpy versions that ran them.
``--root`` names the checkout whose ``src/`` and ``perfbench/generate.py``
run (this one by default), so one copy of the tool dumps two checkouts.

``diff`` prints each value whose float.hex differs, with its absolute and
relative change, and each item or level that only one dump holds; it exits
1 when anything differs and 0 when nothing does.

``RESIDUALS.json`` at the repository root is the ledger: this checkout's
dump, which ``tests/test_residual_hex.py`` dumps again and holds to
(``check``).  The ``check`` command does the same from the shell: it dumps
this checkout, compares it with the ledger (``RESIDUALS.json`` by default),
says whether it compared bit for bit or within ``REL_BOUND`` and
``ABS_FLOOR``, lists each moved value and exits 1 when any moved.  A change that moves a value re-records it with ``dump
RESIDUALS.json`` and says why each value moved.
"""

from __future__ import annotations

import argparse
import json
import math
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

FIELDS = ("res_l1", "res_l2", "order")
SEEDS = (0, 1, 2)
#: ``check``'s bound where the running Python or numpy is not the one that
#: wrote the ledger, and its float.hex need not repeat: ``|b - a| <=
#: REL_BOUND * max(|a|, |b|) + ABS_FLOOR``.  The floor is four decades below
#: the tightest tolerance of any experiment (1e-8), where a residual is
#: rounding; the relative bound is about fifteen times the largest order
#: move of a change that altered only the rounding of the Jacobi-series
#: maps (6.4e-8, on trace-inversion).
REL_BOUND, ABS_FLOOR = 1e-6, 1e-12
ROOT = Path(__file__).resolve().parent.parent


def _hex(value):
    return None if value is None else float(value).hex()


def _records(reports) -> list:
    return [dict(m=r.m, k=r.k, n=r.n, **{f: _hex(getattr(r, f)) for f in FIELDS})
            for r in reports]


def versions() -> dict:
    """The Python and numpy versions that this process runs."""
    return {"python": platform.python_version(), "numpy": np.__version__}


def run(configs) -> dict:
    """``{prefix/name: [level record, ...]}`` for every experiment of each
    ``(prefix, config path)``, run in this process with the ``bcfrac`` it
    imports."""
    from bcfrac.cli import load_config, run_suite

    items = {}
    for prefix, path in configs:
        _, reports_by_name = run_suite(load_config(str(path)))
        for name, reports in reports_by_name.items():
            items[f"{prefix}/{name}"] = _records(reports)
    return items


def dump(root: Path) -> dict:
    """``{item key: [level record, ...]}`` for every perfbench item at each
    of ``SEEDS`` and every preset bundle of the checkout at ``root``."""
    sys.path.insert(0, str(root / "src"))
    from bcfrac.presets import EXPERIMENT_PRESETS

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        configs = []
        for seed in SEEDS:
            out = tmp / f"seed{seed}"
            subprocess.run([sys.executable, str(root / "perfbench" / "generate.py"),
                            "--seed", str(seed), "--out", str(out)],
                           check=True, stdout=subprocess.DEVNULL)
            configs += [(f"seed{seed}/{path.stem}", path) for path in sorted(out.glob("*.json"))]
        for bundle in EXPERIMENT_PRESETS:
            path = tmp / f"preset-{bundle}.json"
            path.write_text(json.dumps({"experiments": [bundle]}))
            configs.append((f"preset/{bundle}", path))
        return run(configs)


def check(ledger: dict, items: dict) -> tuple:
    """``(exact, lines)``: ``diff`` of the ledger's items against ``items``,
    bit for bit (``exact``) when the running Python and numpy wrote the
    ledger, and otherwise leaving out each value within ``REL_BOUND`` and
    ``ABS_FLOOR`` of the ledger's."""
    exact = versions() == {key: ledger.get(key) for key in versions()}
    return exact, diff(ledger["items"], items, None if exact else (REL_BOUND, ABS_FLOOR))


def compared(exact: bool, ledger: dict) -> str:
    """How ``check`` compared with ``ledger``, in words."""
    if exact:
        return "bit for bit"
    return (f"within {REL_BOUND:g} relative + {ABS_FLOOR:g}: the ledger was written by Python "
            f"{ledger.get('python')} and numpy {ledger.get('numpy')}, this is {versions()}")


def _within(a, b, bound: tuple) -> bool:
    """Both float.hex values present, finite and within ``bound``."""
    if a is None or b is None:
        return False
    x, y = float.fromhex(a), float.fromhex(b)
    rel, floor = bound
    return math.isfinite(x) and math.isfinite(y) and abs(y - x) <= rel * max(abs(x), abs(y)) + floor


def _change(a: str, b: str) -> str:
    x, y = float.fromhex(a), float.fromhex(b)
    rel = abs(y - x) / abs(x) if x else float("inf")
    return f"{a} -> {b}  abs {y - x:+.2e}  rel {rel:.2e}"


def diff(a: dict, b: dict, bound: tuple | None = None) -> list:
    """One line per moved value, and per item or level only one side holds;
    with ``bound``, ``(relative, absolute)``, a value that moved within it
    is not listed."""
    lines = []
    for key in sorted(a.keys() | b.keys()):
        if key not in a or key not in b:
            lines.append(f"{key}: only in {'B' if key not in a else 'A'}")
            continue
        if len(a[key]) != len(b[key]):
            lines.append(f"{key}: {len(a[key])} levels in A, {len(b[key])} in B")
        for level, (ra, rb) in enumerate(zip(a[key], b[key])):
            for field in FIELDS:
                va, vb = ra.get(field), rb.get(field)
                if va == vb or (bound and _within(va, vb, bound)):
                    continue
                if va is None or vb is None:
                    lines.append(f"{key} level {level} {field}: {va} -> {vb}")
                else:
                    lines.append(f"{key} level {level} {field}: {_change(va, vb)}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p_dump = sub.add_parser("dump", help="write every residual as float.hex")
    p_dump.add_argument("out")
    p_dump.add_argument("--root", default=str(ROOT), help="checkout to run (default: this one)")
    p_diff = sub.add_parser("diff", help="list the values that moved between two dumps")
    p_diff.add_argument("a")
    p_diff.add_argument("b")
    p_check = sub.add_parser("check", help="dump this checkout and list the values that moved "
                                           "from a ledger")
    p_check.add_argument("ledger", nargs="?", default=str(ROOT / "RESIDUALS.json"))
    args = parser.parse_args(argv)
    if args.command == "dump":
        items = dump(Path(args.root).resolve())
        Path(args.out).write_text(json.dumps({**versions(), "items": items}, indent=1, sort_keys=True) + "\n")
        print(f"{len(items)} items, {sum(map(len, items.values()))} levels -> {args.out}")
        return 0
    if args.command == "check":
        ledger = json.loads(Path(args.ledger).read_text())
        exact, lines = check(ledger, dump(ROOT))
        print(f"{args.ledger} compared {compared(exact, ledger)}")
    else:
        a, b = (json.loads(Path(p).read_text())["items"] for p in (args.a, args.b))
        lines = diff(a, b)
    print("\n".join(lines) if lines else "no value moved")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
