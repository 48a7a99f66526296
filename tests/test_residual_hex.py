import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "residual_hex.py"


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
    path.write_text(json.dumps(items))
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
