"""Every name the benchmark imports from trusslab still exists.

The bench scripts import trusslab's public names at module level and
inside each workload.  This test parses bench/*.py as they stand and
resolves every such import, so a renamed or deleted name fails here and
not only in the slow benchmark tests.
"""

import ast
import importlib
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def trusslab_imports(source):
    """(line, module, name) for every import from trusslab; name is None
    for a plain `import trusslab.module`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module and (
                node.module.split(".")[0] == "trusslab"):
            found += [(node.lineno, node.module, alias.name) for alias in node.names]
        elif isinstance(node, ast.Import):
            found += [(node.lineno, alias.name, None) for alias in node.names
                      if alias.name.split(".")[0] == "trusslab"]
    return found


def resolves(module, name) -> bool:
    try:
        mod = importlib.import_module(module)
        if name is None or hasattr(mod, name):
            return True
        importlib.import_module(f"{module}.{name}")
        return True
    except ImportError:
        return False


def test_every_bench_import_from_trusslab_resolves():
    seen, missing = 0, []
    for path in sorted(BENCH.glob("*.py")):
        for line, module, name in trusslab_imports(path.read_text(encoding="utf-8")):
            seen += 1
            if not resolves(module, name):
                missing.append(f"{path.name}:{line}: {module} {name}")
    assert seen and missing == []


def test_the_scan_sees_every_import_form():
    source = (
        "import trusslab.cli\n"
        "from trusslab import algfile, LinMap\n"
        "def run():\n"
        "    from trusslab.linmap import swap\n"
        "import json\n"
    )
    imports = trusslab_imports(source)
    assert [(m, n) for _, m, n in imports] == [
        ("trusslab.cli", None), ("trusslab", "algfile"), ("trusslab", "LinMap"),
        ("trusslab.linmap", "swap")]
    assert [resolves(m, n) for _, m, n in imports] == [True, True, True, False]
