"""Every module reads what it imports, and every private helper is read.

The project runs no linter, so this test reads the source of every
module of src/trusslab except the package's __init__, which imports to
re-export, and fails when a module imports a name that it never reads.
A name is read when it is loaded anywhere in the module; `from
__future__` imports bind no name.

A second scan reads every module of src/trusslab and fails when a
private function, class or constant defined at a module's top level
(one leading underscore) is read by no other top-level statement of
any module, bare or as an attribute: a helper that only calls itself
is unread.
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


def unread_private_names(sources):
    """(module, line, name) for every private top-level function, class or
    constant of the sources, by module name, that no other top-level
    statement of any of them loads."""
    statements = [(module, node) for module, source in sources.items()
                  for node in ast.parse(source).body]
    loads = [{n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
              if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)}
             for _, node in statements]
    unread = []
    for k, (module, node) in enumerate(statements):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined = [n.id for target in targets for n in ast.walk(target)
                       if isinstance(n, ast.Name)]
        else:
            continue
        unread += [(module, node.lineno, name) for name in defined
                   if name.startswith("_") and not name.startswith("__")
                   and not any(name in names for i, names in enumerate(loads) if i != k)]
    return sorted(unread)


def test_every_private_helper_is_read():
    sources = {path.name: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    assert unread_private_names(sources) == []


def test_the_scan_sees_unread_private_helpers():
    # a call in another module, an attribute read and a decorator are
    # reads; a self-call, a string, a class attribute and a dunder are not
    sources = {
        "a.py": (
            "_LIMIT = 3\n"
            "_unused, _pair = 1, 2\n"
            "__all__ = ['_Hidden']\n"
            "def _wrap(fn):\n"
            "    return fn\n"
            "@_wrap\n"
            "def _loop(n):\n"
            "    return _loop(n - 1)\n"
            "class _Hidden:\n"
            "    _memo = None\n"
        ),
        "b.py": (
            "from .a import _helper\n"
            "import a\n"
            "def _helper():\n"
            "    return a._LIMIT + _pair\n"
            "x = _helper()\n"
        ),
    }
    assert unread_private_names(sources) == [
        ("a.py", 2, "_unused"), ("a.py", 7, "_loop"), ("a.py", 9, "_Hidden")]
