"""One memo site: record.memoized keeps every cache of the package.

Results are shared by value through record's one weak index, so a cache
built anywhere else would be a second memo path that equal structures
do not share.  This test reads the source of every module but record
and fails when one of them names a weak dictionary or a functools
cache, presets a memo with a `.preset(` call, or writes a `_memo`
attribute: an assignment or deletion of `x._memo`, or a call that names
"_memo", as setattr and object.__setattr__ do.  So the kernels of
linmap, whose maps carry a `_memo` slot, are memoized through
record.memoized alone.  An attribute cached on its own instance, such
as `Structure.dims` or a map's column index, is not a memo path: it is
never looked up by value.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "trusslab"
CACHES = {"WeakKeyDictionary", "WeakValueDictionary", "lru_cache", "cache"}


def cache_sites(source):
    """The line of every name, attribute or import of a cache, of every
    `.preset(` call, and of every write of a `_memo` attribute."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            hit = node.id in CACHES
        elif isinstance(node, ast.Attribute):
            hit = node.attr in CACHES or (node.attr == "_memo" and not isinstance(node.ctx, ast.Load))
        elif isinstance(node, ast.ImportFrom):
            hit = any(alias.name in CACHES for alias in node.names)
        elif isinstance(node, ast.Call):
            hit = ((isinstance(node.func, ast.Attribute) and node.func.attr == "preset")
                   or any(isinstance(arg, ast.Constant) and arg.value == "_memo" for arg in node.args))
        else:
            continue
        if hit:
            found.append(node.lineno)
    return sorted(set(found))


def test_only_record_builds_a_cache():
    offenders = [f"{path.name}:{line}"
                 for path in sorted(SRC.glob("*.py")) if path.name != "record.py"
                 for line in cache_sites(path.read_text(encoding="utf-8"))]
    assert offenders == []


def test_the_scan_sees_a_planted_cache():
    # a module-level weak index, functools caches by attribute, by name and
    # as a decorator, a preset memo and writes of _memo, by assignment, by
    # a setattr call under any name and by deletion, are seen; memoized, a
    # plain dict, a slot named _memo, a read of it and another cache
    # attribute are not
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
        "m._memo = {}\n"
        "object.__setattr__(m, '_memo', {})\n"
        "init = object.__setattr__\n"
        "init(m, '_memo', None)\n"
        "del m._memo\n"
        "__slots__ = ('_memo', '_cols')\n"
        "memo = m._memo\n"
        "m._cols = None\n"
    )
    assert cache_sites(source) == [1, 2, 3, 5, 6, 8, 12, 13, 15, 16]
    assert cache_sites((SRC / "record.py").read_text(encoding="utf-8")) != []
