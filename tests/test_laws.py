"""Laws as declared terms: the one evaluator of the structure verifiers.

Every structure verifier is a table of laws, and coalgebra.Laws compiles
each table once and evaluates it: it alone picks a kernel for each
composite, evaluates each distinct subterm once per report, and keeps no
value past the report.  The kernels are memoized by operand value, so
the guards on the chains count kernel runs, that is memo misses
(conftest.count_runs), not calls: a composite that another report, or
another structure of the chain, already built is read, not run again.
"""

import gc
import pickle
import sys
import weakref
from collections import Counter
from operator import attrgetter
from types import SimpleNamespace

import pytest

from conftest import count_calls, count_runs, cyclic_truss, hook, hook_runs
from test_noncocommutative import h4_truss
from trusslab import algfile, linmap, record
from trusslab.coalgebra import (
    Call,
    Diag,
    Guard,
    Laws,
    terms,
    verify_comonoid,
    verify_hopf_monoid,
    verify_nonunital_bimonoid,
)
from trusslab.cocycle import cocycle_of_truss, roundtrip_report, truss_of_cocycle, verify_cocycle
from trusslab.errors import DimensionMismatchError, NotInvertibleError
from trusslab.fields import RATIONALS, prime_field
from trusslab.hopfmodules import (
    adjunction_check,
    coinvariants,
    fundamental_iso,
    induction_functor,
    verify_truss_hopf_module,
)
from trusslab.hopftruss import twisted_action, verify_hopf_truss
from trusslab.linmap import LinMap, identity
from trusslab.modules import module_twisted_action, regular_pi_module, regular_truss_module
from trusslab.report import CheckResult
from trusslab.settruss import cyclic_group, linearize, trivial_truss

KERNELS = ("LinMap.compose", "compose_tensor", "tensor_compose", "diagonal", "invert",
           "solve_through")


def test_the_transport_chain_calls_no_kernel_more_often_than_before(monkeypatch):
    # transport_q's chain on Z4 over Q.  The bounds are the kernel runs
    # counted when the kernels were memoized by operand value, against
    # the chain's calls (compose 44, compose_tensor 21, tensor_compose 12,
    # diagonal 6, invert 2).  The cocycle's laws re-read the truss's
    # composites: its action is the truss's Gamma and its source product
    # the truss's second product.  The transported truss equals h, so its
    # laws are read from h's memo, and pi is inverted once.
    h = linearize(trivial_truss(cyclic_group(4)), RATIONALS)
    laws = count_calls(monkeypatch, "equation")
    kernels = count_runs(monkeypatch, *KERNELS)
    c = cocycle_of_truss(h)
    assert verify_hopf_truss(h).ok and verify_cocycle(c).ok
    assert truss_of_cocycle(c) == h and roundtrip_report(c).ok
    assert sum(laws.values()) == 40
    bound = {"LinMap.compose": 19, "compose_tensor": 10, "tensor_compose": 7, "diagonal": 5,
             "invert": 1, "solve_through": 1}
    assert {k: n for k, n in kernels.items() if n > bound[k]} == {}


def test_the_module_chain_calls_no_kernel_more_often_than_before(monkeypatch):
    # modules_fp's chain on Z4 over F_5: the fundamental theorem, then the
    # adjunction on the same module, building m included.  The bounds are
    # the kernel runs counted when the kernels were memoized by operand
    # value, against the chain's calls (compose 21, compose_tensor 17,
    # diagonal 8).  The Hopf-module action laws re-read the truss-module
    # act1 laws' composites.  counit.comodule is the fundamental report's
    # intertwine.coaction renamed, so one law fewer is evaluated.
    h = cyclic_truss(prime_field(5), 4)
    laws = count_calls(monkeypatch, "equation")
    kernels = count_runs(monkeypatch, *KERNELS, "kron", "nullspace")
    m = induction_functor(h, 2)
    assert fundamental_iso(m)[2].ok and adjunction_check(h, 2, m).ok
    assert sum(laws.values()) == 21
    bound = {"LinMap.compose": 16, "compose_tensor": 7, "tensor_compose": 6, "diagonal": 7,
             "invert": 0, "solve_through": 1, "kron": 11, "nullspace": 1}
    assert {k: n for k, n in kernels.items() if n > bound[k]} == {}


def test_gamma_of_the_regular_module_is_the_truss_gamma_built_once(monkeypatch):
    # modules_fp builds Gamma on h and then on h's regular module, whose
    # actions are h's products: two calls of diagonal on equal operands,
    # and one spread.
    h = cyclic_truss(prime_field(5), 4)
    kernels = count_runs(monkeypatch, "diagonal")
    gamma, gamma_m = twisted_action(h), module_twisted_action(regular_truss_module(h))
    assert kernels == {"diagonal": 1}
    assert gamma_m is gamma


# (a Hopf truss, whether all of its chain's maps are basis maps)
TABLE_CHAINS = [
    pytest.param(lambda: linearize(trivial_truss(cyclic_group(4)), RATIONALS), True, id="Z4-Q"),
    pytest.param(lambda: linearize(trivial_truss(cyclic_group(4)), prime_field(5)), True,
                 id="Z4-F5"),
    pytest.param(lambda: h4_truss(lambda mu, eps, f: mu), False, id="H4-Q"),
]


def truss_and_module_reports(h):
    return verify_hopf_truss(h), fundamental_iso(induction_functor(h, 2))


@pytest.mark.parametrize("make,basis", TABLE_CHAINS)
def test_basis_maps_take_the_table_path_and_report_as_entries_do(monkeypatch, make, basis):
    # A linearised group algebra is made of basis maps, so every kernel of
    # its chain takes its table path, and tensor_apply never runs: it is
    # the one entry-by-entry product, so no product is multiplied out
    # entry by entry at all.  H4's coproduct and product are no basis
    # maps, so there it runs.
    calls = count_calls(monkeypatch, "tensor_apply")
    reports = truss_and_module_reports(make())
    assert all(rep.ok for rep in (reports[0], reports[1][2]))
    assert (calls["tensor_apply"] == 0) == basis
    # With no map read as a table, in a memo index of its own, the chain
    # builds the same reports, theta and inverse from entries alone.
    monkeypatch.setattr(record, "_MEMOS", weakref.WeakValueDictionary())
    monkeypatch.setattr(LinMap, "_table", lambda self: None)
    calls.clear()
    assert truss_and_module_reports(make()) == reports
    assert calls["tensor_apply"] > 0


def test_every_entry_path_product_runs_through_tensor_apply(monkeypatch):
    # On H4 the chain runs compose, kron and compose_tensor on operands
    # that are no basis maps.  Each such run makes one tensor_apply call,
    # and a run on basis maps alone makes none.
    applied = count_calls(monkeypatch, "tensor_apply")
    entry_runs = Counter()

    def watch(name):
        def wrap(body):
            def run(*args):
                before, out = applied["tensor_apply"], body(*args)
                entry = not all(m._table() for m in args)
                entry_runs[name] += entry
                assert applied["tensor_apply"] - before == entry, name
                return out
            return run
        return wrap
    hook_runs(monkeypatch, "LinMap.compose", watch("compose"))
    hook_runs(monkeypatch, "compose_tensor", watch("compose_tensor"))
    hook(monkeypatch, "LinMap.kron", watch("kron"))
    reports = truss_and_module_reports(h4_truss(lambda mu, eps, f: mu))
    assert all(rep.ok for rep in (reports[0], reports[1][2]))
    assert set(entry_runs) == {"compose", "kron", "compose_tensor"} and all(entry_runs.values())


def test_the_table_chain_builds_few_entry_dicts(monkeypatch):
    # A basis map is its table, and its entry dict is built only when
    # read.  On linearised Z4 over F_5 the chain reads three: coinvariants
    # subtracts two basis maps, and solve_through reads the rows of one.
    # A new reader that builds the dicts of table maps raises this count.
    build, built = linmap._table_entries, []
    monkeypatch.setattr(linmap, "_table_entries", lambda table: built.append(table) or build(table))
    reports = truss_and_module_reports(linearize(trivial_truss(cyclic_group(4)), prime_field(5)))
    assert all(rep.ok for rep in (reports[0], reports[1][2]))
    assert len(built) == 3


def test_moved_keeps_fixed_maps_and_inverts_before_any_kernel(monkeypatch):
    m = regular_pi_module(cocycle_of_truss(cyclic_truss(RATIONALS, 3)))
    p = LinMap.from_rows(RATIONALS, [[1, 2, 0], [0, 1, 0], [0, 3, 1]])
    moved = m.moved({"source": p})
    fixed = [path for _, path, cod, dom in m.ALL_MAPS if "source" not in cod + dom]
    assert len(fixed) == 7 and all(attrgetter(path)(moved) is attrgetter(path)(m) for path in fixed)
    assert moved == m.moved({d: p if d == "source" else identity(RATIONALS, n) for d, n in m.dims.items()})
    assert m.moved_maps({"source": p}, ["hopf_action", "source.mu"]) == {
        "source.mu": moved.system.bimonoid.mu, "hopf_action": m.hopf_action}
    assert m.moved_maps({"source": p}, ["hopf_action"])["hopf_action"] is m.hopf_action
    kernels = count_calls(monkeypatch, "LinMap.compose", "compose_tensor", "tensor_compose")
    singular = LinMap(RATIONALS, 3, 3, {(0, 0): 1})
    with pytest.raises(NotInvertibleError):
        m.moved({"source": p, "second": singular})
    # no named map lies on "second", and its p is still inverted first
    for names in (["hopf_action"], ["source.mu"], []):
        with pytest.raises(NotInvertibleError):
            m.moved_maps({"source": p, "second": singular}, names)
    assert kernels == {}


def test_moved_rebuilds_through_build():
    # every component is built anew from the moved maps; equal components
    # share their report memos by value, so none is kept by identity
    m = regular_pi_module(cocycle_of_truss(cyclic_truss(RATIONALS, 3)))
    p = LinMap.from_rows(RATIONALS, [[1, 2, 0], [0, 1, 0], [0, 3, 1]])
    q = LinMap.from_rows(RATIONALS, [[1, 0, 0], [1, 1, 0], [0, 0, 2]])
    moved = m.moved({"source": p, "second": q})
    assert moved.system.hopf == m.system.hopf and moved.system != m.system
    rebuilt = type(m).build(moved.dims, {name: attrgetter(path)(moved) for name, path, _, _ in m.ALL_MAPS})
    assert rebuilt == moved


def test_parts_share_their_checks():
    # A report reads a part's checks under the part's prefix: each is the
    # object of the part's own report, with or without a prefix.
    def under(rep, prefix):
        return [c for name, c in rep.named_checks() if name.startswith(prefix)]

    def same(got, part):
        own = [c for _, c in part.named_checks()]
        return len(got) == len(own) and all(a is b for a, b in zip(got, own))

    h = cyclic_truss(RATIONALS, 3)
    hopf = h.hopf_part()
    comonoid = verify_comonoid(hopf.comonoid)
    assert same(under(verify_hopf_monoid(hopf), "")[:len(comonoid.checks)], comonoid)
    rep = verify_hopf_truss(h)
    assert same(under(rep, "h1."), verify_hopf_monoid(hopf))
    assert same(under(rep, "h2."), verify_nonunital_bimonoid(h.second_part()))
    c = cocycle_of_truss(h)
    rep = roundtrip_report(c)
    assert same(under(rep, "src."), verify_cocycle(c))
    assert same(under(rep, "truss."), verify_hopf_truss(truss_of_cocycle(c)))


def test_the_transport_chain_builds_one_record_per_check(monkeypatch):
    # transport_q's chain on Z4 over Q: every CheckResult is made by an
    # equation or a condition, none to name a part's check under a prefix.
    h = linearize(trivial_truss(cyclic_group(4)), RATIONALS)
    made = count_calls(monkeypatch, "equation", "condition")
    built, build = [], CheckResult.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        build(self, *args, **kwargs)
    monkeypatch.setattr(CheckResult, "__init__", counted)
    c = cocycle_of_truss(h)
    assert verify_hopf_truss(h).ok and verify_cocycle(c).ok and roundtrip_report(c).ok
    assert len(built) == sum(made.values()) > 0


@pytest.mark.parametrize("kind", list(algfile.REGISTRY))
def test_each_verifier_is_its_module_attribute_and_pickles_by_reference(kind):
    verify = algfile.REGISTRY[kind].verify
    assert getattr(sys.modules[verify.__module__], verify.__qualname__) is verify
    assert pickle.loads(pickle.dumps(verify)) is verify


# -- the evaluator on tables of its own -------------------------------------------


F5 = prime_field(5)


def counted_checks(monkeypatch, table, ends):
    kernels = count_calls(monkeypatch, *KERNELS, "kron")
    checks = Laws(table).checks(ends)
    return {c.name: (c.passed, c.detail) for c in checks}, kernels


def test_the_kernel_follows_the_shape_of_the_composite(monkeypatch):
    f, g, x, d = terms("f g x d")
    ends = SimpleNamespace(f=identity(F5, 2), g=identity(F5, 2), x=identity(F5, 4),
                           d=LinMap(F5, 4, 2, {(0, 0): 1, (3, 1): 1}))
    table = [("tensor-after", "", (f * g) @ x, x),
             ("tensor-before", "", x @ (f * g), x),
             ("bare", "", f * g, x),
             ("plain", "", f @ g, f),
             ("spread", "", Diag(d, f, g), Diag(d, f, g))]
    checks, kernels = counted_checks(monkeypatch, table, ends)
    assert all(passed for passed, _ in checks.values())
    assert kernels == {"tensor_compose": 1, "compose_tensor": 1, "kron": 1, "LinMap.compose": 1,
                       "diagonal": 1}


def test_a_subterm_met_twice_is_evaluated_once(monkeypatch):
    f, g = terms("f g")
    ends = SimpleNamespace(f=identity(F5, 2), g=LinMap(F5, 2, 2, {(0, 1): 1, (1, 0): 1}))
    shared = g @ f @ g
    checks, kernels = counted_checks(monkeypatch, [("once", "", shared, f), ("again", "", f, shared)], ends)
    assert checks == {"once": (True, ""), "again": (True, "")}
    # g∘(f∘g): two composites, and none for the second law
    assert kernels == {"LinMap.compose": 2}


def test_a_failed_guard_fails_its_first_law_and_leaves_out_the_ones_that_use_it(monkeypatch):
    a, b = terms("a b")
    ends = SimpleNamespace(a=LinMap(F5, 2, 2, {(0, 0): 1}), b=identity(F5, 2))
    inverse = Guard(~a, "a of shape {0.a.shape} is singular: {1}")
    table = [("a.invertible", "a has an inverse", inverse, None),
             ("after", "", b @ b, b),
             ("uses", "", inverse @ b, b),
             ("last", "", b, b)]
    checks, kernels = counted_checks(monkeypatch, table, ends)
    assert list(checks) == ["a.invertible", "after", "last"]
    passed, detail = checks["a.invertible"]
    assert not passed and detail.startswith("a of shape (2, 2) is singular: map of rank 1")
    assert kernels["invert"] == 1
    # an invertible a passes the guard as a condition and the law that uses it
    checks = Laws(table).checks(SimpleNamespace(a=identity(F5, 2), b=identity(F5, 2)))
    assert [(c.name, c.passed) for c in checks] == [
        ("a.invertible", True), ("after", True), ("uses", True), ("last", True)]


def test_an_error_outside_a_guard_is_raised():
    a, b = terms("a b")
    ends = SimpleNamespace(a=identity(F5, 2), b=identity(F5, 3))
    with pytest.raises(DimensionMismatchError):
        Laws([("shapes", "", a @ b, b)]).checks(ends)
    with pytest.raises(NotInvertibleError):
        Laws([("inverse", "", ~Call(lambda s: s.b.scale(0)), b)]).checks(ends)


def test_a_value_is_dropped_after_the_last_law_that_needs_it():
    class Box:
        pass
    boxes = []

    def make(s):
        boxes.append(weakref.ref(box := Box()))
        return box
    one, zero = terms("one zero")
    table = [("uses the box", "", Call(lambda box: 1, Call(make)), one),
             ("the box is gone", "", Call(lambda s: int(boxes[0]() is not None)), zero)]
    checks = Laws(table).checks(SimpleNamespace(one=1, zero=0))
    assert [(c.name, c.passed) for c in checks] == [("uses the box", True), ("the box is gone", True)]


def test_no_value_outlives_its_report():
    h = linearize(trivial_truss(cyclic_group(3)), F5)
    m = induction_functor(h, 2)
    assert verify_truss_hopf_module(m).ok
    # the coinvariants hold the inclusion that coinvariants.compat evaluates
    split = coinvariants(m.hopf_module())
    refs = [weakref.ref(x) for x in (m, m.hopf_module(), m.truss_module(), split)]
    del m, split
    gc.collect()
    assert [ref() for ref in refs] == [None] * len(refs)
