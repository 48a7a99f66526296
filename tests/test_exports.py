"""Every name the package exports is referenced elsewhere in the package, or
is one of a few paper-level entry points that only users call."""

import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "bcfrac"

#: Operations of the paper's calculus that users call and no residual needs.
ENTRY_POINTS = {
    "bc_from_text",  # parse a bicomplex number
    "bc_inner_k",  # the hyperbolic-valued inner product
    "d_leq",  # the hyperbolic partial order
    "prop_derivative",  # the proportional derivative of order one
    "trace_integral",  # the four-direction fractional integral
    "trace_derivative",  # the four-direction fractional derivative
}


def exported_names() -> list:
    tree = ast.parse((SRC / "__init__.py").read_text())
    return [alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names]


def module_sources() -> list:
    """``(lines, spans)`` per package module other than ``__init__.py``, where
    ``spans`` maps each module-level function or class to its line range."""
    out = []
    for path in sorted(SRC.glob("*.py")):
        if path.name != "__init__.py":
            text = path.read_text()
            spans = {node.name: range(node.lineno, node.end_lineno + 1)
                     for node in ast.parse(text).body
                     if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
            out.append((text.splitlines(), spans))
    return out


def referenced(name: str, sources: list) -> bool:
    """Whether ``name`` occurs as a word in a module, outside the lines of
    its own module-level definition."""
    word = re.compile(rf"\b{re.escape(name)}\b")
    return any(word.search(line) and lineno not in spans.get(name, ())
               for lines, spans in sources
               for lineno, line in enumerate(lines, start=1))


def test_every_export_is_referenced_or_an_entry_point():
    exported, sources = exported_names(), module_sources()
    assert [n for n in exported if n not in ENTRY_POINTS and not referenced(n, sources)] == []
    # an entry point that gains a reference leaves the list
    assert sorted(n for n in ENTRY_POINTS if n not in exported or referenced(n, sources)) == []
