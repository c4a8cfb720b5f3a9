"""Structures move through one transport.

Structure.moved_maps in coalgebra is the one transport of structure: it
inverts each p[d] and moves the maps along it.  Code that moves a
structure by hand inverts a map itself, so this test reads the source
of every module and fails when a module other than linmap, which
defines invert, or coalgebra, which holds the transport and the laws'
inverse node, calls invert.  A law that needs an inverse, such as the
compat.determined law of a π-module morphism, writes it as the inverse
node of its law table.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "trusslab"
HOMES = {"linmap.py", "coalgebra.py"}
ALLOWED = set()


def invert_calls(source):
    """(line, enclosing function) for every call of invert, by name or attribute."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call):
            callee = node.func
            name = callee.id if isinstance(callee, ast.Name) else getattr(callee, "attr", None)
            if name == "invert":
                found.append((node.lineno, function))
        for child in ast.iter_child_nodes(node):
            visit(child, function)
    visit(ast.parse(source), None)
    return found


def test_only_the_transport_inverts_a_map():
    offenders = [f"{path.name}:{line}: {function}"
                 for path in sorted(SRC.glob("*.py")) if path.name not in HOMES
                 for line, function in invert_calls(path.read_text(encoding="utf-8"))
                 if (path.name, function) not in ALLOWED]
    assert offenders == []


def test_the_scan_sees_invert_calls_where_they_are():
    # a call by name, one by attribute, one at module level; an import,
    # a re-export and the string "invert(pi)" are not calls
    source = (
        "from .linmap import invert\n"
        "__all__ = ['invert']\n"
        "def transport(c):\n"
        "    back = invert(c.cocycle)\n"
        "    return linmap.invert(back), 'invert(pi)'\n"
        "top = invert(x)\n"
    )
    assert invert_calls(source) == [(4, "transport"), (5, "transport"), (6, None)]
