"""Every name the package exports is referenced elsewhere in the package, or
is one of a few paper-level entry points that only users call."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "bcfrac"

#: Operations of the paper's calculus that users call and no residual needs.
ENTRY_POINTS = {"bc_from_cartesian"}  # cartesian components to the idempotent form


def exported_names() -> list:
    tree = ast.parse((SRC / "__init__.py").read_text())
    return [alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names]


def module_statements() -> list:
    """``(own name, loads)`` per module-level statement of every package
    module other than ``__init__.py``.  ``own`` is the name a function or
    class statement defines (``None`` for other statements); ``loads`` holds
    the names the statement reads, as a plain name or as an attribute
    ``x.name``.  A docstring or comment that mentions a name reads nothing."""
    out = []
    for path in sorted(SRC.glob("*.py")):
        if path.name != "__init__.py":
            for node in ast.parse(path.read_text()).body:
                own = node.name if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else None
                loads = {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                         if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)}
                out.append((own, loads))
    return out


def referenced(name: str, statements: list) -> bool:
    """Whether a module reads ``name`` outside its own module-level
    definition."""
    return any(name in loads and own != name for own, loads in statements)


def test_every_export_is_referenced_or_an_entry_point():
    exported, sources = exported_names(), module_statements()
    assert [n for n in exported if n not in ENTRY_POINTS and not referenced(n, sources)] == []
    # an entry point that gains a reference leaves the list
    assert sorted(n for n in ENTRY_POINTS if n not in exported or referenced(n, sources)) == []
