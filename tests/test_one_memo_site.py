"""One memo site: record.memoized keeps every cache of the package.

Results are shared by value through record's one weak index, so a cache
built anywhere else would be a second memo path that equal structures
do not share.  This test reads the source of every module but record
and fails when one of them names a weak dictionary or a functools
cache, or presets a memo with a `.preset(` call.  An attribute cached
on its own instance, such as `Structure.dims`, is not a memo path: it
is never looked up by value.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "trusslab"
CACHES = {"WeakKeyDictionary", "WeakValueDictionary", "lru_cache", "cache"}


def cache_sites(source):
    """The line of every name, attribute or import of a cache, and of every `.preset(` call."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.ImportFrom):
            name = next((alias.name for alias in node.names if alias.name in CACHES), None)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "preset":
            found.append(node.lineno)
            continue
        else:
            continue
        if name in CACHES:
            found.append(node.lineno)
    return sorted(set(found))


def test_only_record_builds_a_cache():
    offenders = [f"{path.name}:{line}"
                 for path in sorted(SRC.glob("*.py")) if path.name != "record.py"
                 for line in cache_sites(path.read_text(encoding="utf-8"))]
    assert offenders == []


def test_the_scan_sees_a_planted_cache():
    # a module-level weak index, functools caches by attribute, by name and
    # as a decorator, and a preset memo are seen; memoized and a plain dict are not
    source = (
        "_SEEN = weakref.WeakKeyDictionary()\n"
        "from weakref import WeakValueDictionary\n"
        "@functools.lru_cache(maxsize=None)\n"
        "def f(x): return x\n"
        "from functools import cache\n"
        "@cache\n"
        "def g(x): return x\n"
        "HopfTruss.hopf_part.preset(t, c.hopf)\n"
        "@memoized\n"
        "def h(x): return x\n"
        "table = {}\n"
    )
    assert cache_sites(source) == [1, 2, 3, 5, 6, 8]
    assert cache_sites((SRC / "record.py").read_text(encoding="utf-8")) != []
