"""LinMap's trusted constructors and its caches stay inside linmap.

`LinMap._of` and `LinMap._of_table` skip the index and scalar type
checks of `LinMap(...)`, `_by_col` exposes a map's cached column lists,
and `_entries` (with its slot `_entry_dict`) is a map's entry dict, which
a basis map builds on its first read, so a module that named them could
build an unchecked map, mutate a shared cache or build the entries that
a table answers for.  This test reads the source of every module and
fails when any module other than linmap names them.  There are no
exceptions: coalgebra.diagonal hands its braided legs to
linmap.tensor_apply, or the f and g columns of its braided spread to
linmap's _tensor_rows, instead of building a map with `_of` or `_of_table`.

Inside linmap, tensor_apply is the one entry-by-entry product, and only
it reads `_by_col`: compose, kron and compose_tensor hand it their legs,
so a packed or otherwise faster product is chosen in one place.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "trusslab"
TRUSTED = {"_of", "_of_table", "_by_col", "_entries", "_entry_dict"}
ALLOWED = set()


def trusted_references(path):
    """(line, enclosing function, name) for every attribute naming a trusted member."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Attribute) and node.attr in TRUSTED:
            found.append((node.lineno, function, node.attr))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(path.read_text(encoding="utf-8")), None)
    return found


def test_only_linmap_names_the_trusted_constructor_and_caches():
    offenders = [
        f"{path.name}:{line}: {name} in {function}"
        for path in sorted(SRC.glob("*.py")) if path.name != "linmap.py"
        for line, function, name in trusted_references(path)
        if (path.name, function, name) not in ALLOWED
    ]
    assert offenders == []


def test_the_scan_sees_the_trusted_members_where_they_are_used():
    assert {name for _, _, name in trusted_references(SRC / "linmap.py")} == TRUSTED
    assert trusted_references(SRC / "coalgebra.py") == []


def test_only_tensor_apply_reads_the_column_lists():
    readers = {(path.name, function) for path in sorted(SRC.glob("*.py"))
               for _, function, name in trusted_references(path) if name == "_by_col"}
    assert readers == {("linmap.py", "tensor_apply")}
