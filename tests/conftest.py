"""Shared builders for hand-made fixtures.

The builders assemble matrices entry by entry from multiplication
tables, deliberately bypassing settruss.linearize, so the set-level and
linear-level routes stay independent when tests compare them.
sample_objects, one structure of every document kind for the format and
dispatch tests, uses the library's own constructions instead.  Every
test runs with a memo index of its own (own_memo_index).  hook and
count_calls watch or replace a library function where it is looked up,
the law evaluator among those places.
"""

import sys
import weakref
from collections import Counter

import pytest

from trusslab import algfile, record
from trusslab.coalgebra import ComonoidData, MonoidData
from trusslab.cocycle import cocycle_of_truss
from trusslab.fields import RATIONALS, FieldSpec, prime_field
from trusslab.hopfmodules import HopfModuleData, induction_functor
from trusslab.hopftruss import HopfTruss
from trusslab.linmap import LinMap, identity, invert, kron
from trusslab.modules import regular_pi_module, regular_truss_module
from trusslab.settruss import cyclic_group, linearize, right_projection_truss


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


def transport(obj, p: dict):
    """obj moved along invertible maps p[d] on its dims, the identity on a
    dim p leaves out: each map m of its kind becomes
    kron(p on cod)∘m∘kron(p on dom)⁻¹, and the class's build reassembles them."""
    dims = obj.dims
    move = {d: (p[d], invert(p[d])) if d in p else (identity(obj.field, n),) * 2
            for d, n in dims.items()}

    def along(names, which):
        out = identity(obj.field, 1)
        for d in names:
            out = kron(out, move[d][which])
        return out

    maps = algfile.REGISTRY[algfile.kind_of(obj)].maps_of(obj)
    return type(obj).build(dims, {name: along(cod, 0) @ maps[name] @ along(dom, 1)
                                  for name, _, cod, dom in type(obj).ALL_MAPS})


def permutation(field: FieldSpec, perm) -> LinMap:
    """The map e_a -> e_perm[a]."""
    return LinMap(field, len(perm), len(perm), {(b, a): field.one for a, b in enumerate(perm)})


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


def hook(monkeypatch, name: str, wrap) -> None:
    """Put wrap(f) in place of f, the trusslab function `name`, in every
    trusslab module that binds it: the law evaluator in coalgebra, which
    makes every kernel call and equation of the structure verifiers, and
    the certificate reports.  "LinMap.<method>" names a method of LinMap,
    which is replaced on the class."""
    if name.startswith("LinMap."):
        method = name.split(".")[1]
        monkeypatch.setattr(LinMap, method, wrap(vars(LinMap)[method]))
        return
    modules = [m for n, m in sorted(sys.modules.items()) if n.startswith("trusslab.")]
    original = next(vars(m)[name] for m in modules
                    if getattr(vars(m).get(name), "__module__", None) == m.__name__)
    wrapped = wrap(original)
    for m in modules:
        if vars(m).get(name) is original:
            monkeypatch.setattr(m, name, wrapped)


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
