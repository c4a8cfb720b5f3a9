"""No law composes through a Kronecker product it has just formed.

x @ kron(f, g) builds every entry of f (x) g only to contract it away;
linmap.compose_tensor(x, f, g) computes the same map without forming it,
and coalgebra.diagonal takes a right factor id (x) m for the same reason.
This test reads the source of every module and fails when any of them
has a `@` whose right operand is a call to kron.  kron stays where the
product itself is the value, such as kron(eta, eta) on the right of an
equation or the carrier of a free module.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "trusslab"


def kron_composites(source):
    """The line of every `@` whose right operand calls kron, by name or attribute."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult) \
                and isinstance(node.right, ast.Call):
            func = node.right.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "kron":
                found.append(node.lineno)
    return found


def test_no_module_composes_through_a_formed_kron():
    offenders = [f"{path.name}:{line}"
                 for path in sorted(SRC.glob("*.py"))
                 for line in kron_composites(path.read_text(encoding="utf-8"))]
    assert offenders == []


def test_the_scan_sees_every_composite_through_kron():
    # a chained composite, a module attribute, a method call and a split
    # line are seen; a kron that is a value or an operand on the left is not
    source = (
        "a = mu @ kron(f, g)\n"
        "b = pi @ mu @ kron(f, f)\n"
        "c = mu @ linmap.kron(f, g)\n"
        "d = mu @ f.kron(g)\n"
        "e = (mu\n"
        "     @ kron(f, g))\n"
        "f = kron(f, g)\n"
        "g = kron(f, g) @ x\n"
        "h = equation('law', 'x', lhs, kron(eta, eta))\n"
    )
    assert kron_composites(source) == [1, 2, 3, 4, 5]
