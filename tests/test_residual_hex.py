import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "residual_hex.py"


@pytest.fixture(scope="module")
def residual_hex():
    spec = importlib.util.spec_from_file_location("residual_hex", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _level(l1, l2, order=None):
    return dict(m=8, k=8, n=64, res_l1=float(l1).hex(), res_l2=float(l2).hex(),
                order=None if order is None else float(order).hex())


def _write(path, items):
    path.write_text(json.dumps({"items": items}))
    return str(path)


def test_equal_dumps_report_nothing(residual_hex, tmp_path, capsys):
    items = {"seed0/w/a": [_level(1e-9, 2e-9)], "preset/b/c": [_level(0.0, float("nan"), 2.0)]}
    a, b = _write(tmp_path / "a.json", items), _write(tmp_path / "b.json", items)
    assert residual_hex.main(["diff", a, b]) == 0
    assert capsys.readouterr().out == "no value moved\n"


def test_each_moved_value_and_missing_entry_is_listed(residual_hex, tmp_path, capsys):
    a = {"seed0/w/a": [_level(1e-9, 2e-9)], "seed0/w/gone": [_level(1, 1)],
         "seed1/w/b": [_level(3e-6, 4e-6, 2.0), _level(1e-7, 1e-7, 2.0)]}
    b = {"seed0/w/a": [_level(1e-9 + 1e-24, 2e-9)], "seed0/w/new": [_level(1, 1)],
         "seed1/w/b": [_level(3e-6, 4e-6, None)]}
    assert residual_hex.main(["diff", _write(tmp_path / "a.json", a),
                              _write(tmp_path / "b.json", b)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("seed0/w/a level 0 res_l1: ")
    assert "abs +1.03e-24" in lines[0] and "rel 1.03e-15" in lines[0]
    assert lines[1:] == ["seed0/w/gone: only in A", "seed0/w/new: only in B",
                         "seed1/w/b: 2 levels in A, 1 in B",
                         f"seed1/w/b level 0 order: {(2.0).hex()} -> None"]


def test_a_move_from_zero_has_an_infinite_relative_change(residual_hex):
    lines = residual_hex.diff({"x": [_level(0.0, 1.0)]}, {"x": [_level(1e-17, 1.0)]})
    assert lines == [f"x level 0 res_l1: {(0.0).hex()} -> {(1e-17).hex()}  abs +1.00e-17  rel inf"]


def test_the_ledger_holds(residual_hex):
    # every residual of the benchmark configs and preset bundles, against
    # RESIDUALS.json: bit for bit under the Python and numpy that wrote it,
    # and within the tool's stated bound under any other
    ledger = json.loads((ROOT / "RESIDUALS.json").read_text())
    exact, lines = residual_hex.check(ledger, residual_hex.dump(ROOT))
    mode = residual_hex.compared(exact, ledger)
    print(f"RESIDUALS.json compared {mode}")
    assert not lines, f"compared {mode}; re-record with `dump RESIDUALS.json` if intended:\n" + "\n".join(lines)


def test_one_ulp_of_one_residual_fails_the_check(residual_hex, monkeypatch, tmp_path):
    # the fractal bundle's Gauss residual moved by one ulp in l1, against a
    # ledger of the same bundle written in this process, so that the check
    # runs bit for bit whatever Python and numpy run it
    from bcfrac import quadrature_verify
    from bcfrac.hypercomplex import HyperbolicNumber

    path = tmp_path / "fractal.json"
    path.write_text(json.dumps({"experiments": ["fractal"]}))
    configs = [("preset/fractal", path)]
    ledger = {**residual_hex.versions(), "items": residual_hex.run(configs)}
    real = quadrature_verify.frac_gauss_residual

    def one_ulp_up(*args, **kwargs):
        r = real(*args, **kwargs)
        return HyperbolicNumber(float(np.nextafter(r.l1, np.inf)), r.l2)

    monkeypatch.setattr(quadrature_verify, "frac_gauss_residual", one_ulp_up)
    exact, lines = residual_hex.check(ledger, residual_hex.run(configs))
    l1 = float.fromhex(ledger["items"]["preset/fractal/fractal-gauss"][0]["res_l1"])
    assert exact and len(lines) == 1
    assert lines[0].startswith(f"preset/fractal/fractal-gauss level 0 res_l1: {l1.hex()} -> "
                               f"{np.nextafter(l1, np.inf).hex()}")


def test_the_check_command_dumps_this_checkout_against_a_ledger(residual_hex, monkeypatch,
                                                                tmp_path, capsys):
    # the dump's runs replaced by a synthetic item; a ledger written by this
    # Python and numpy compares bit for bit, so one ulp is a move
    items = {"seed0/w/a": [_level(1e-9, 2e-9, 2.0)]}
    moved = {"seed0/w/a": [_level(1e-9, np.nextafter(2e-9, 1.0), 2.0)]}
    ledger = tmp_path / "ledger.json"
    ledger.write_text(json.dumps({**residual_hex.versions(), "items": items}))
    monkeypatch.setattr(residual_hex, "run", lambda configs: items)
    assert residual_hex.main(["check", str(ledger)]) == 0
    assert capsys.readouterr().out == f"{ledger} compared bit for bit\nno value moved\n"

    monkeypatch.setattr(residual_hex, "run", lambda configs: moved)
    assert residual_hex.main(["check", str(ledger)]) == 1
    head, line = capsys.readouterr().out.splitlines()
    assert head == f"{ledger} compared bit for bit"
    assert line.startswith(f"seed0/w/a level 0 res_l2: {(2e-9).hex()} -> "
                           f"{np.nextafter(2e-9, 1.0).hex()}")

    # written by other versions: the same move is within the bound
    ledger.write_text(json.dumps({"python": "0.0.0", "numpy": "0.0.0", "items": items}))
    assert residual_hex.main(["check", str(ledger)]) == 0
    head, tail = capsys.readouterr().out.splitlines()
    assert head.startswith(f"{ledger} compared within 1e-06 relative + 1e-12: ")
    assert tail == "no value moved"


def test_other_versions_compare_at_the_bound(residual_hex):
    items = {"x": [_level(1e-3, 3e-13, 2.0)]}
    moved = {"x": [_level(1e-3 * (1 + 5e-7), 3e-13 + 9e-13, 2.0 * (1 - 5e-7))]}
    beyond = {"x": [_level(1e-3 * (1 + 2e-6), 3e-13, 2.0)]}
    other = {"python": "0.0.0", "numpy": "0.0.0", "items": items}
    assert residual_hex.check(other, moved) == (False, [])
    assert [line.split(":")[0] for line in residual_hex.check(other, beyond)[1]] == ["x level 0 res_l1"]
    assert residual_hex.check({**other, **residual_hex.versions()}, moved)[1]
