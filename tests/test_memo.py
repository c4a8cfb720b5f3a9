"""Verifier reports and part views memoized by value.

A memo belongs to a value: equal structures, however they were built,
share their reports and part views, and unequal ones never do.  A
memoized report equals one evaluated afresh check by check, and a memo
lives while any equal structure holds it and dies with the last one.
"""

import copy
import gc
import pickle
import weakref
from collections import Counter
from operator import attrgetter
from pathlib import Path

import pytest

from conftest import count_calls, count_runs, cyclic_truss, perturbed, sample_objects, unset
from trusslab import algfile, record
from trusslab.coalgebra import Structure, verify_hopf_monoid, verify_nonunital_bimonoid
from trusslab.cocycle import InvertibleCocycle, cocycle_of_truss, roundtrip_report, truss_of_cocycle, verify_cocycle
from trusslab.fields import RATIONALS, prime_field
from trusslab.hopfmodules import coinvariants, fundamental_iso
from trusslab.hopftruss import HopfTruss, twisted_action, verify_hopf_truss
from trusslab.linmap import LinMap
from trusslab.settruss import canonical_form, cyclic_group, linearize, right_projection_truss, symmetric_group, trivial_truss

FIXTURES = Path(__file__).resolve().parent / "fixtures"
F5 = prime_field(5)


def fresh(obj):
    """obj built again from its document: equal to it, sharing no object with it."""
    return algfile.loads(algfile.serialize(obj))


def checks(rep) -> list:
    return [(name, c.anchor, c.passed, c.residual, c.detail) for name, c in rep.named_checks()]


def dropped(refs) -> bool:
    gc.collect()
    return all(ref() is None for ref in refs)


def test_the_equivalence_chain_evaluates_each_law_once(monkeypatch):
    h = linearize(trivial_truss(symmetric_group(3)), RATIONALS)
    laws = count_calls(monkeypatch, "equation")
    c = cocycle_of_truss(h)
    reports = [verify_hopf_truss(h), verify_cocycle(c), roundtrip_report(c)]
    assert all(rep.ok for rep in reports)
    # The chain meets one value of each: the comonoid, the Hopf monoid
    # (h's Hopf part, which is c.hopf), the bimonoid (the Hopf part's and
    # h's second part, equal as both products of the trivial truss are the
    # group product), the truss (h, and the transported truss, which
    # equals it) and the cocycle c, plus the unit map c -> cocycle_of_truss(t).
    expected = Counter()
    expected.update(dict.fromkeys(["counit.left", "counit.right", "coassoc"], 1))
    expected.update(dict.fromkeys(["product.assoc", "product.counit", "product.coproduct"], 1))
    expected.update(dict.fromkeys(["unit.left", "unit.right", "unit.counit", "unit.coproduct",
                                   "antipode.left", "antipode.right"], 1))
    truss_laws = ["cocycle.comonoid.coproduct", "cocycle.comonoid.counit",
                  "compat.distributivity", "cocycle.derived", "cocycle.product",
                  "action.unit", "action.product", "action.assoc"]
    expected.update(dict.fromkeys(truss_laws, 1))
    cocycle_laws = ["cocycle.comonoid.coproduct", "cocycle.comonoid.counit",
                    "twist.comonoid.coproduct", "twist.comonoid.counit", "action.module",
                    "action.unit", "action.product", "compat.cocycle"]
    expected.update(dict.fromkeys(cocycle_laws, 1))
    expected.update(name for name, _, _, _ in InvertibleCocycle.ALL_MAPS)
    expected.update(["roundtrip.action"])
    assert laws == expected


def test_the_cocycle_reads_the_composites_of_its_truss(monkeypatch):
    # The cocycle of h has h's Gamma as its action and h's second part as
    # its source, so its action laws are h's, composite for composite: after
    # h is verified, only the laws on pi run a kernel, and the one spread
    # is compat.cocycle's (action.product's was h's).
    h = linearize(right_projection_truss(cyclic_group(3)), RATIONALS)
    assert verify_hopf_truss(h).ok
    c = cocycle_of_truss(h)
    runs = count_runs(monkeypatch, "LinMap.compose", "compose_tensor", "tensor_compose", "diagonal")
    assert verify_cocycle(c).ok
    assert runs["diagonal"] == 1 and runs["compose_tensor"] == 0


# -- a memoized report against one evaluated afresh ----------------------------


def corrupted(label: str):
    """A structure that fails some law: the corrupt fixture, or the sample
    object of that kind with one entry of its last map bumped."""
    if label == "fixture":
        return algfile.load(FIXTURES / "hopftruss-z2-corrupt-cocycle.json")
    obj = dict(sample_objects())[label]
    name = type(obj).ALL_MAPS[-1][0]
    maps = algfile.REGISTRY[label].maps_of(obj)
    maps[name] = perturbed(maps[name], 0, 0)
    return type(obj).build(obj.dims, maps)


LABELS = ["fixture"] + [kind for kind, _ in sample_objects() if kind != "settruss"]


@pytest.mark.parametrize("label", LABELS)
def test_a_memoized_report_equals_a_fresh_one(label):
    obj = corrupted(label)
    # verify the parts first, so that the whole's report is assembled from
    # memoized reports of its parts
    for attr, _, _ in type(obj).PARTS:
        algfile.verify_structure(getattr(obj, attr))
    first = algfile.verify_structure(obj)
    assert algfile.verify_structure(obj) is first
    text, refs = algfile.serialize(obj), [weakref.ref(obj)]
    del obj
    # with every structure of its value gone, the rebuilt one is verified afresh
    assert dropped(refs)
    rebuilt = algfile.verify_structure(algfile.loads(text))
    assert rebuilt is not first and not rebuilt.ok
    assert checks(first) == checks(rebuilt)
    assert first.subject == rebuilt.subject


def test_a_perturbed_cocycle_reports_as_a_fresh_one(monkeypatch):
    h = linearize(trivial_truss(symmetric_group(3)), RATIONALS)
    assert verify_hopf_truss(h).ok
    c = cocycle_of_truss(h)
    bad = InvertibleCocycle(c.bimonoid, c.hopf, c.cocycle, c.twist, perturbed(c.action, 0, 1))
    assert verify_cocycle(c).ok
    # bad's parts are c's, whose reports are memoized
    memoized = [checks(roundtrip_report(bad)), checks(verify_cocycle(bad))]
    text, refs = algfile.serialize(bad), [weakref.ref(x) for x in (h, c, bad)]
    del h, c, bad
    assert dropped(refs)
    laws = count_calls(monkeypatch, "equation")
    rebuilt = algfile.loads(text)
    assert [checks(roundtrip_report(rebuilt)), checks(verify_cocycle(rebuilt))] == memoized
    assert not all(passed for _, _, passed, _, _ in memoized[0])
    assert laws["antipode.left"] == 1


# -- what the memo is and is not -----------------------------------------------


def test_the_memo_is_not_part_of_the_value():
    h = cyclic_truss(RATIONALS, 3)
    twin = fresh(h)
    text, code = repr(h), hash(h)
    verify_hopf_truss(h)
    cocycle_of_truss(h)
    assert h == twin and hash(h) == code == hash(twin) and repr(h) == text
    maps = [attrgetter(path) for _, path, _, _ in HopfTruss.ALL_MAPS]
    # h's maps were built from entries, and verifying h read each as a
    # table; a deep copy or a pickle builds each map again from its table,
    # with no entry dict, hash, columns or memo, checked before anything
    # reads them
    assert all(hasattr(get(h), "_tab") and not unset(get(h), "_entry_dict") for get in maps)
    for copied in (copy.copy(h), copy.deepcopy(h), pickle.loads(pickle.dumps(h))):
        assert not {"_memo", "_hash", "dims"} & set(vars(copied))
        assert all(get(copied) is get(h) or get(copied)._hash is None and get(copied)._cols is None
                   and unset(get(copied), "_entry_dict", "_memo") for get in maps)
        assert copied == h
        # a copy is the same value, so it reads h's views and reports
        assert copied.hopf_part() is h.hopf_part()
        assert verify_hopf_truss(copied) is verify_hopf_truss(h)


def test_views_are_built_once_per_value():
    h = cyclic_truss(RATIONALS, 3)
    assert h.hopf_part() is h.hopf_part() and h.second_part() is h.second_part()
    assert h.hopf_part().nonunital() is h.hopf_part().nonunital()
    c = cocycle_of_truss(h)
    assert c.bimonoid is h.second_part() and c.hopf is h.hopf_part()
    assert c.action is twisted_action(h)
    # the transported truss equals h, so its views are h's
    t = truss_of_cocycle(c)
    assert t == h and t is not h
    assert t.hopf_part() is c.hopf and t.second_part() is c.bimonoid
    assert twisted_action(t) is c.action
    # and so are those of an equal truss parsed apart
    assert fresh(h).hopf_part() is h.hopf_part()


def test_an_equal_structure_reads_the_reports_of_its_twin(monkeypatch):
    h = linearize(trivial_truss(cyclic_group(4)), RATIONALS)
    rep = verify_hopf_truss(h)
    twin = fresh(h)
    laws = count_calls(monkeypatch, "equation")
    assert verify_hopf_truss(twin) is rep
    assert twin.hopf_part() is h.hopf_part() and twin.second_part() is h.second_part()
    assert verify_hopf_monoid(twin.hopf_part()) is verify_hopf_monoid(h.hopf_part())
    assert twisted_action(twin) is twisted_action(h)
    assert laws == {}


def with_maps(obj, **maps):
    """obj with the named maps replaced."""
    return type(obj)(**{**{name: getattr(obj, name) for name in type(obj).FIELDS}, **maps})


def test_unequal_structures_never_share(monkeypatch):
    h = cyclic_truss(RATIONALS, 3)
    rep = verify_hopf_truss(h)
    laws = count_calls(monkeypatch, "equation")
    # one entry bumped
    bumped = with_maps(h, mu2=perturbed(h.mu2, 0, 0))
    assert bumped != h and not verify_hopf_truss(bumped).ok and rep.ok
    assert bumped.second_part() is not h.second_part()
    assert laws["compat.distributivity"] == 1
    # the same integer maps over Q and over F_5
    over_f5 = cyclic_truss(F5, 3)
    assert over_f5 != h and verify_hopf_truss(over_f5) is not rep
    assert over_f5.hopf_part() is not h.hopf_part()
    assert laws["compat.distributivity"] == 2
    # two bimonoids on one comonoid, with products of one shape and one
    # number of entries
    r = linearize(right_projection_truss(cyclic_group(3)), F5)
    first, second = r.hopf_part().nonunital(), r.second_part()
    assert first.mu.shape == second.mu.shape and len(first.mu.items()) == len(second.mu.items())
    assert first != second
    rep = verify_nonunital_bimonoid(first)
    laws.clear()
    assert verify_nonunital_bimonoid(second) is not rep
    assert laws["product.assoc"] == 1


def test_a_memo_dies_with_the_last_equal_structure():
    h = cyclic_truss(RATIONALS, 3)
    twin = fresh(h)
    rep = verify_hopf_truss(h)
    assert verify_hopf_truss(twin) is rep
    refs = [weakref.ref(x) for x in (rep, h.hopf_part(), h.second_part())]
    del h, rep
    # the twin still holds the memo
    assert not dropped(refs)
    assert verify_hopf_truss(twin) is refs[0]()
    del twin
    assert dropped(refs)


def test_a_memo_outlives_its_first_holder(monkeypatch):
    h = linearize(trivial_truss(cyclic_group(3)), RATIONALS)
    rep = verify_hopf_truss(h)
    twin = fresh(h)
    assert verify_hopf_truss(twin) is rep
    text, refs = algfile.serialize(h), [weakref.ref(h)]
    del h
    assert dropped(refs)
    # the twin still holds the memo, so a third equal truss finds it
    laws = count_calls(monkeypatch, "equation")
    third = verify_hopf_truss(algfile.loads(text))
    assert laws == {}
    assert third is rep


def test_no_global_cache_keeps_a_verified_structure():
    h = linearize(trivial_truss(symmetric_group(3)), RATIONALS)
    c = cocycle_of_truss(h)
    reports = [verify_hopf_truss(h), verify_cocycle(c), roundtrip_report(c),
               verify_hopf_monoid(h.hopf_part())]
    assert all(rep.ok for rep in reports)
    refs = [weakref.ref(x) for x in (h, c, h.hopf_part(), h.second_part(), h.comonoid)]
    del h, c
    assert dropped(refs)
    assert all(rep.ok for rep in reports)


def _record_classes(base=record.Record):
    for cls in base.__subclasses__():
        if cls.__module__.startswith("trusslab."):
            yield cls
        yield from _record_classes(cls)


def test_every_record_that_reaches_the_memo_hashes_by_value(monkeypatch):
    reached = {}

    class Index(weakref.WeakValueDictionary):
        def setdefault(self, key, memo=None):
            cls, values, code = key
            reached.setdefault(cls, (cls(*values), code))
            return super().setdefault(key, memo)
    monkeypatch.setattr(record, "_MEMOS", Index())
    samples = dict(sample_objects())
    for obj in samples.values():
        assert algfile.verify_structure(obj).ok
    canonical_form(samples["settruss"])
    coinvariants(samples["hopfmodule"])
    fundamental_iso(samples["trusshopfmodule"])
    structures = {cls for cls in _record_classes() if issubclass(cls, Structure) and cls is not Structure}
    assert structures | {LinMap} <= set(reached)
    assert set(reached) <= set(_record_classes()) | {LinMap}
    for value, code in reached.values():
        assert hash(value) == code
        # the rebuilt value has taken no memo, and neither has its copy
        for twin in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
            assert twin is not value and twin == value and hash(twin) == code
            assert getattr(twin, "_memo", None) is None
