"""Source checks that need no import: every parameter of a module-level
function or method in ``src/tablemt`` is read by its body, and ``cli`` maps
a ``ValueError`` to a usage error in one place."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "tablemt"


def _functions(tree: ast.Module):
    """Module-level functions and the methods of module-level classes, with
    their qualified names; nested functions are left out, since their
    callers fix their signatures."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield f"{node.name}.{item.name}", item


def _unread(fn: ast.FunctionDef) -> list[str]:
    """The parameters of ``fn`` its body never loads, but for ``self``,
    ``cls`` and names starting with ``_``."""
    a = fn.args
    params = [p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg) if p]
    read = {node.id for stmt in fn.body for node in ast.walk(stmt)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [p for p in params
            if p not in read and p not in ("self", "cls") and not p.startswith("_")]


def test_every_parameter_is_read():
    unread = [f"{path.name} {name}({', '.join(params)})"
              for path in sorted(SRC.glob("*.py"))
              for name, fn in _functions(ast.parse(path.read_text(encoding="utf-8")))
              if (params := _unread(fn))]
    assert not unread, "parameters no body reads:\n" + "\n".join(unread)


def test_cli_catches_value_error_only_in_usage():
    """Every ``except`` in ``cli.py`` that catches ``ValueError`` by name, or
    bare, is the one inside ``_usage``."""
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    inside = {node for name, fn in _functions(tree) if name == "_usage" for node in ast.walk(fn)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler) and node not in inside:
            caught = ast.walk(node.type) if node.type else [ast.Name("ValueError")]
            if any(isinstance(n, ast.Name) and n.id == "ValueError" for n in caught):
                found.append(node.lineno)
    assert not found, f"cli.py lines catching ValueError outside _usage: {sorted(found)}"
