"""The braiding has one home.

Every law that moves a coproduct leg past another factor is built by
coalgebra.diagonal, whose row relabel is the only braid in the package,
so a braiding other than the flip has to change there only.  This test
reads the source of every module and fails when any of them names a
flip map: swap or tensor_flip_middle.  Anchor strings such as
"(id(x)swap(x)id)" are string constants, not names, so they do not
count.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "trusslab"
BRAIDING = {"swap", "tensor_flip_middle"}


def braiding_references(source):
    """(line, name, node type) for every use, import or definition of the braiding."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names = (node.id,)
        elif isinstance(node, ast.Attribute):
            names = (node.attr,)
        elif isinstance(node, ast.alias):
            names = (node.name, node.asname)
        elif isinstance(node, ast.FunctionDef):
            names = (node.name,)
        else:
            continue
        found += [(node.lineno, name, type(node).__name__) for name in names if name in BRAIDING]
    return found


def test_no_module_names_the_braiding():
    offenders = [f"{path.name}:{line}: {name}"
                 for path in sorted(SRC.glob("*.py"))
                 for line, name, _ in braiding_references(path.read_text(encoding="utf-8"))]
    assert offenders == []


def test_the_scan_sees_the_braiding_where_it_lives():
    # a module that defines, imports, renames, calls and re-exports a flip map;
    # the string anchor is not a name
    source = (
        "from .linmap import swap\n"
        "def tensor_flip_middle(a):\n"
        "    return swap(a, a, a.field)\n"
        "rule = linmap.swap\n"
        "from .linmap import kron as tensor_flip_middle\n"
        "anchor = '(id(x)swap(x)id)'\n"
    )
    assert sorted(name + ":" + kind for _, name, kind in braiding_references(source)) == [
        "swap:Attribute", "swap:Name", "swap:alias", "tensor_flip_middle:FunctionDef",
        "tensor_flip_middle:alias"]
