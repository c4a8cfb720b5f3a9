"""One shape parser: coalgebra.shape reads every shape string.

A structure declares each map's shape once, as a string such as
"dim*carrier" or "1", and coalgebra.Structure parses it once per class
into a tuple of dims that every other reader takes.  This test reads the
source of every module and fails when any of them has a literal "*"
outside coalgebra.shape: splitting a shape, joining one, or testing one
for a tensor product are each a second parser.  A "*" inside an f-string
is message text, not a parse.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "trusslab"


def shape_sites(source, parser=None):
    """The line of every literal "*" outside an f-string and outside the
    function named `parser`."""
    tree = ast.parse(source)
    skipped = {id(node) for f in ast.walk(tree) if isinstance(f, ast.JoinedStr) for node in ast.walk(f)}
    for f in ast.walk(tree):
        if isinstance(f, ast.FunctionDef) and f.name == parser:
            skipped.update(id(node) for node in ast.walk(f))
    return sorted({node.lineno for node in ast.walk(tree)
                   if isinstance(node, ast.Constant) and node.value == "*" and id(node) not in skipped})


def test_only_shape_reads_a_shape_string():
    offenders = [f"{path.name}:{line}"
                 for path in sorted(SRC.glob("*.py"))
                 for line in shape_sites(path.read_text(encoding="utf-8"),
                                         "shape" if path.name == "coalgebra.py" else None)]
    assert offenders == []


def test_the_scan_sees_a_planted_parser():
    # a split, a join, a test for a product and a split in a comprehension
    # are seen, and so is a parser not named as the one; an f-string and
    # the operator never are
    source = (
        "dims = expr.split('*')\n"
        "expr = '*'.join(names)\n"
        "if '*' not in expr:\n"
        "    pass\n"
        "names = [d for d in expr.split(\"*\") if d != '1']\n"
        "def shape(expr):\n"
        "    return tuple(d for d in expr.split('*') if d != '1')\n"
        "message = f'{a}*{b}'\n"
        "size = a * b\n"
    )
    assert shape_sites(source) == [1, 2, 3, 5, 7]
    assert shape_sites(source, "shape") == [1, 2, 3, 5]
    assert shape_sites((SRC / "coalgebra.py").read_text(encoding="utf-8")) != []
