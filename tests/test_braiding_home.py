"""The braiding has one home.

Every law that moves a coproduct leg past another factor is built by
coalgebra.diagonal, and the tensor products of bundles live in
coalgebra too, so a braiding other than the flip has to change in
linmap and coalgebra only.  This test reads the source of every module
and fails when any other module names swap or tensor_flip_middle.
Anchor strings such as "(id(x)swap(x)id)" are string constants, not
names, so they do not count.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "trusslab"
BRAIDING = {"swap", "tensor_flip_middle"}
HOMES = {"linmap.py", "coalgebra.py"}


def braiding_references(path):
    """(line, name, node type) for every use, import or definition of the braiding."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, (ast.alias, ast.FunctionDef)):
            name = node.name
        else:
            continue
        if name in BRAIDING:
            found.append((node.lineno, name, type(node).__name__))
    return found


def test_only_linmap_and_coalgebra_name_the_braiding():
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        if path.name in HOMES:
            continue
        for line, name, kind in braiding_references(path):
            # the package root re-exports linmap.swap as public API
            if path.name == "__init__.py" and kind == "alias":
                continue
            offenders.append(f"{path.name}:{line}: {name}")
    assert offenders == []


def test_the_scan_sees_the_braiding_where_it_lives():
    for home in HOMES:
        assert braiding_references(SRC / home), home
