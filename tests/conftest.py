"""Shared builders for hand-made fixtures.

The builders assemble matrices entry by entry from multiplication
tables, deliberately bypassing settruss.linearize, so the set-level and
linear-level routes stay independent when tests compare them.
sample_objects, one structure of every document kind for the format and
dispatch tests, uses the library's own constructions instead.  Every
test runs with a memo index of its own (own_memo_index).  hook and
count_calls watch or replace a library function where it is looked up,
the law evaluator among those places; hook_runs and count_runs watch
the runs of a memoized function's body, not the calls of its memo.
"""

import sys
import weakref
from collections import Counter

import pytest

from trusslab import record
from trusslab.coalgebra import ComonoidData, MonoidData
from trusslab.cocycle import cocycle_of_truss
from trusslab.fields import RATIONALS, FieldSpec, prime_field
from trusslab.hopfmodules import HopfModuleData, induction_functor
from trusslab.hopftruss import HopfTruss
from trusslab.linmap import LinMap, rank
from trusslab.modules import regular_pi_module, regular_truss_module
from trusslab.settruss import (
    cyclic_group,
    left_projection_truss,
    linearize,
    right_projection_truss,
    symmetric_group,
    trivial_truss,
)


def table_unit(table) -> int:
    n = len(table)
    return next(u for u in range(n)
                if all(table[u][a] == a and table[a][u] == a for a in range(n)))


def truss_from_tables(field: FieldSpec, table1, table2, omega=None) -> HopfTruss:
    """Hopf truss on the free module over a finite carrier.

    table1 must be a group table, table2 any binary operation; omega
    defaults to the derived cocycle a -> a *2 unit.
    """
    n = len(table1)
    unit = table_unit(table1)
    inv = [next(b for b in range(n) if table1[a][b] == unit) for a in range(n)]
    if omega is None:
        omega = [table2[a][unit] for a in range(n)]
    one = field.one
    comonoid = ComonoidData(
        n,
        LinMap(field, n * n, n, {(a * n + a, a): one for a in range(n)}),
        LinMap(field, 1, n, {(0, a): one for a in range(n)}))
    return HopfTruss(
        comonoid,
        LinMap(field, n, 1, {(unit, 0): one}),
        LinMap(field, n, n * n,
               {(table1[a][b], a * n + b): one for a in range(n) for b in range(n)}),
        LinMap(field, n, n * n,
               {(table2[a][b], a * n + b): one for a in range(n) for b in range(n)}),
        LinMap(field, n, n, {(inv[a], a): one for a in range(n)}),
        LinMap(field, n, n, {(omega[a], a): one for a in range(n)}))


def flip(m: int, n: int, field: FieldSpec) -> LinMap:
    """The flip M (x) N -> N (x) M, entry by entry: e_i (x) e_j at flat
    index i*n + j goes to e_j (x) e_i at flat index j*m + i."""
    return LinMap(field, m * n, m * n,
                  {(j * m + i, i * n + j): field.one for i in range(m) for j in range(n)})


def cyclic_table(n: int):
    return [[(a + b) % n for b in range(n)] for a in range(n)]


def cyclic_truss(field: FieldSpec, n: int) -> HopfTruss:
    """Group algebra of Z/n seen as a Hopf truss with both products equal."""
    t = cyclic_table(n)
    return truss_from_tables(field, t, t)


def perturbed(m: LinMap, i: int, j: int) -> LinMap:
    """Add 1 to a single matrix entry."""
    entries = dict(m.items())
    entries[(i, j)] = m.field.add(entries.get((i, j), m.field.zero), m.field.one)
    return LinMap(m.field, m.cod, m.dom, entries)


def unset(m: LinMap, *slots) -> bool:
    """Whether none of these slots of m is set, read without filling any
    (a table map's entry dict, _entry_dict, is filled by reading _entries)."""
    def held(slot):
        try:
            object.__getattribute__(m, slot)
        except AttributeError:
            return False
        return True
    return not any(map(held, slots))


def random_invertible(rnd, field: FieldSpec, n: int) -> LinMap:
    """An invertible n x n map with entries drawn from -2..2 by rnd."""
    while True:
        p = LinMap(field, n, n, {(i, j): rnd.randint(-2, 2) for i in range(n) for j in range(n)})
        if rank(p) == n:
            return p


def permutation(field: FieldSpec, perm) -> LinMap:
    """The map e_a -> e_perm[a]."""
    return LinMap(field, len(perm), len(perm), {(b, a): field.one for a, b in enumerate(perm)})


def naturality_cases():
    """trivial_truss(Z4), right_projection_truss(Z3) and left_projection_truss(S3)
    over Q, F_5 and F_3, as params (field, skew truss)."""
    trusses = {"Z4-trivial": trivial_truss(cyclic_group(4)),
               "Z3-right": right_projection_truss(cyclic_group(3)),
               "S3-left": left_projection_truss(symmetric_group(3))}
    return [pytest.param(field, t, id=f"{name}-{field}")
            for field in (RATIONALS, prime_field(5), prime_field(3)) for name, t in trusses.items()]


def sample_objects():
    """One small valid structure of every document kind, as (kind, object)."""
    t = right_projection_truss(cyclic_group(3))
    h = linearize(t, prime_field(5))
    hq = cyclic_truss(RATIONALS, 2)
    return [
        ("settruss", t),
        ("comonoid", h.comonoid),
        ("monoid", MonoidData(h.dim, h.eta, h.mu1)),
        ("bimonoid", h.second_part()),
        ("hopf", h.hopf_part()),
        ("hopftruss", h),
        ("gic", cocycle_of_truss(h)),
        ("trussmodule", regular_truss_module(h)),
        ("pimodule", regular_pi_module(cocycle_of_truss(hq))),
        ("hopfmodule", HopfModuleData(hq.hopf_part(), hq.mu1, hq.comonoid.delta)),
        ("trusshopfmodule", induction_functor(h, 2)),
    ]


@pytest.fixture(autouse=True)
def own_memo_index():
    """Each test runs with a memo index of its own: what it builds shares
    memos only with structures built in the test and with those it reads
    from module-level objects, so a count of the work done does not depend
    on which structures other tests keep alive."""
    saved, record._MEMOS = record._MEMOS, weakref.WeakValueDictionary()
    yield
    record._MEMOS = saved


def _defined(name: str):
    """The trusslab function `name` as its defining module binds it, or
    the LinMap method for "LinMap.<method>"."""
    if name.startswith("LinMap."):
        return vars(LinMap)[name.split(".")[1]]
    return next(vars(m)[name] for n, m in sorted(sys.modules.items()) if n.startswith("trusslab.")
                and getattr(vars(m).get(name), "__module__", None) == m.__name__)


def hook(monkeypatch, name: str, wrap) -> None:
    """Put wrap(f) in place of f, the trusslab function `name`, in every
    trusslab module that binds it: the law evaluator in coalgebra, which
    makes every kernel call and equation of the structure verifiers, and
    the certificate reports.  "LinMap.<method>" names a method of LinMap,
    which is replaced on the class."""
    original = _defined(name)
    if name.startswith("LinMap."):
        monkeypatch.setattr(LinMap, name.split(".")[1], wrap(original))
        return
    wrapped = wrap(original)
    for n, m in sorted(sys.modules.items()):
        if n.startswith("trusslab.") and vars(m).get(name) is original:
            monkeypatch.setattr(m, name, wrapped)


def hook_runs(monkeypatch, name: str, wrap) -> None:
    """Put wrap(body) in place of the body of `name`, a record.memoized
    trusslab function, inside the one memo wrapper that every module
    binds: wrap sees the runs of the body, that is the memo misses."""
    once = _defined(name)
    cell = once.__closure__[once.__code__.co_freevars.index("fn")]
    monkeypatch.setattr(cell, "cell_contents", wrap(cell.cell_contents))


def count_runs(monkeypatch, *names) -> Counter:
    """Count the runs of each named function: for a record.memoized one
    the runs of its body (hook_runs); for another its calls, as
    count_calls does."""
    memos = [name for name in names if hasattr(_defined(name), "__wrapped__")]
    counts = count_calls(monkeypatch, *(name for name in names if name not in memos))

    def counter(name):
        def wrap(body):
            def run(*args):
                counts[name] += 1
                return body(*args)
            return run
        return wrap
    for name in memos:
        hook_runs(monkeypatch, name, counter(name))
    return counts


def count_calls(monkeypatch, *names) -> Counter:
    """Count the calls of each named function through hook.  A call of
    equation counts under the name of the law it checks."""
    counts = Counter()

    def counter(name):
        def wrap(fn):
            def counted(*args, **kwargs):
                counts[args[0] if name == "equation" else name] += 1
                return fn(*args, **kwargs)
            return counted
        return wrap
    for name in names:
        hook(monkeypatch, name, counter(name))
    return counts
