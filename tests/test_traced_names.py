"""Every name the benchmark's tracer wraps still exists in trusslab.

bench/tracing.py lists the functions and methods it wraps per layer
(SPANS) and the FieldSpec scalar methods it counts (LEAVES), and looks
each one up when tracing is switched on.  This test loads that file as
it stands and resolves every entry the way the tracer does, so a
renamed or deleted traced name fails here and not only in the slow
benchmark tests.
"""

import importlib
import importlib.util
from pathlib import Path

from trusslab.fields import FieldSpec

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load_tracing()


def resolves(modname, attr) -> bool:
    mod = importlib.import_module(f"trusslab.{modname}")
    if "." in attr:
        cls_name, meth = attr.split(".")
        return meth in vars(getattr(mod, cls_name, object))
    return callable(getattr(mod, attr, None))


def test_every_traced_span_resolves():
    missing = [f"{s[0]}.{s[1]}" for s in tracing.SPANS if not resolves(s[0], s[1])]
    assert missing == []


def test_every_traced_leaf_resolves():
    assert [m for m in tracing.LEAVES if not callable(vars(FieldSpec).get(m))] == []
