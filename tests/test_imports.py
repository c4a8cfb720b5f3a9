"""Every module reads what it imports.

The project runs no linter, so this test reads the source of every
module of src/trusslab except the package's __init__, which imports to
re-export, and fails when a module imports a name that it never reads.
A name is read when it is loaded anywhere in the module; `from
__future__` imports bind no name.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "trusslab"


def unused_imports(source):
    """(line, name) for every imported name the module never loads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(node.lineno, alias.asname or alias.name.partition(".")[0])
                         for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, alias.asname or alias.name) for alias in node.names]
    loaded = {node.id for node in ast.walk(tree)
              if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted((line, name) for line, name in imported if name not in loaded)


def test_every_module_reads_what_it_imports():
    unused = [f"{path.name}:{line}: {name}"
              for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"
              for line, name in unused_imports(path.read_text(encoding="utf-8"))]
    assert unused == []


def test_the_scan_sees_unused_imports():
    # an attribute's base and a name inside a function are read; a name
    # only assigned, or only in a string, is not
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import json as js\n"
        "from .linmap import LinMap, identity, kron\n"
        "def f():\n"
        "    kron = 1\n"
        "    return os.path.join(identity), 'LinMap'\n"
    )
    assert unused_imports(source) == [(3, "js"), (4, "LinMap"), (4, "kron")]
