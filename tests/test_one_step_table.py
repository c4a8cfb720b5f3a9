"""The pipeline dispatches on document kinds, not on classes.

Each row of cli's step table names the document kinds the step takes,
and the pipeline compares them with algfile.kind_of, so cli needs no
structure class.  This test reads the source of cli and fails when it
calls isinstance or imports a structure class: a coalgebra.Structure
subclass, or the set-level SkewTruss.
"""

import ast
import importlib
from pathlib import Path

from trusslab.coalgebra import Structure
from trusslab.settruss import SkewTruss

CLI = Path(__file__).resolve().parents[1] / "src" / "trusslab" / "cli.py"


def is_structure_class(value):
    return value is SkewTruss or (isinstance(value, type) and issubclass(value, Structure))


def class_dispatch(source):
    """(line, name) for every isinstance call and every structure class
    imported by name, with relative imports read inside trusslab."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance":
            found.append((node.lineno, "isinstance"))
        elif isinstance(node, ast.ImportFrom):
            module = importlib.import_module("." * node.level + (node.module or ""), "trusslab")
            found += [(node.lineno, alias.name) for alias in node.names
                      if is_structure_class(getattr(module, alias.name, None))]
    return sorted(found)


def test_cli_names_no_structure_class():
    assert class_dispatch(CLI.read_text(encoding="utf-8")) == []


def test_the_scan_sees_class_dispatch_where_it_is():
    # classes from a relative and an absolute import, and an isinstance
    # call; a function, a module and the string "isinstance(x, HopfTruss)"
    # are not class dispatch
    source = (
        "from . import algfile\n"
        "from .hopftruss import HopfTruss, verify_hopf_truss\n"
        "from trusslab.settruss import SkewTruss, linearize\n"
        "def step(obj):\n"
        "    return isinstance(obj, HopfTruss), 'isinstance(x, HopfTruss)'\n"
    )
    assert class_dispatch(source) == [(2, "HopfTruss"), (3, "SkewTruss"), (5, "isinstance")]
