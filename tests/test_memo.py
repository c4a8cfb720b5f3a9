"""Verifier reports and part views memoized on the structure instance.

A memo belongs to the instance it was computed from: equal structures
built apart are verified apart, a memoized report equals a fresh one
check by check, and nothing outside the instance keeps it alive.
"""

import copy
import gc
import pickle
import weakref
from collections import Counter
from pathlib import Path

import pytest

from conftest import count_calls, cyclic_truss, perturbed, sample_objects
from trusslab import algfile, cocycle
from trusslab.coalgebra import verify_hopf_monoid
from trusslab.cocycle import InvertibleCocycle, cocycle_of_truss, roundtrip_report, verify_cocycle
from trusslab.fields import RATIONALS
from trusslab.hopftruss import twisted_action, verify_hopf_truss
from trusslab.settruss import linearize, symmetric_group, trivial_truss

FIXTURES = Path(__file__).resolve().parent / "fixtures"


def fresh(obj):
    """obj built again from its document: equal to it, with nothing
    memoized on it or on any of its parts."""
    return algfile.loads(algfile.serialize(obj))


def checks(rep) -> list:
    return [(c.name, c.anchor, c.passed, c.residual, c.detail) for c in rep.checks]


def test_the_equivalence_chain_evaluates_each_law_once(monkeypatch):
    h = linearize(trivial_truss(symmetric_group(3)), RATIONALS)
    laws = count_calls(monkeypatch, "equation")
    c = cocycle_of_truss(h)
    reports = [verify_hopf_truss(h), verify_cocycle(c), roundtrip_report(c)]
    assert all(rep.ok for rep in reports)
    # The chain meets one comonoid, one Hopf monoid (h's Hopf part, which
    # is c.hopf and the Hopf part of the transported truss t), three
    # bimonoids (the Hopf part's, h's second part and t's), two trusses
    # (h and t) and one cocycle c, plus the unit map c -> cocycle_of_truss(t).
    expected = Counter()
    expected.update(dict.fromkeys(["counit.left", "counit.right", "coassoc"], 1))
    expected.update(dict.fromkeys(["product.assoc", "product.counit", "product.coproduct"], 3))
    expected.update(dict.fromkeys(["unit.left", "unit.right", "unit.counit", "unit.coproduct",
                                   "antipode.left", "antipode.right"], 1))
    truss_laws = ["cocycle.comonoid.coproduct", "cocycle.comonoid.counit",
                  "compat.distributivity", "cocycle.derived", "cocycle.product",
                  "action.unit", "action.product", "action.assoc"]
    expected.update(dict.fromkeys(truss_laws, 2))
    cocycle_laws = ["cocycle.comonoid.coproduct", "cocycle.comonoid.counit",
                    "twist.comonoid.coproduct", "twist.comonoid.counit", "action.module",
                    "action.unit", "action.product", "compat.cocycle"]
    expected.update(dict.fromkeys(cocycle_laws, 1))
    expected.update(name for name, _, _, _ in InvertibleCocycle.ALL_MAPS)
    expected.update(["roundtrip.action"])
    assert laws == expected


def _corrupted():
    """Structures that fail some law: the corrupt fixture, and every sample
    object with one entry of its last map bumped."""
    yield "fixture", algfile.load(FIXTURES / "hopftruss-z2-corrupt-cocycle.json")
    for kind, obj in sample_objects():
        if kind == "settruss":
            continue
        name = type(obj).ALL_MAPS[-1][0]
        maps = algfile.REGISTRY[kind].maps_of(obj)
        maps[name] = perturbed(maps[name], 0, 0)
        yield kind, algfile.REGISTRY[kind].build(obj.dims, maps)


CORRUPTED = list(_corrupted())


@pytest.mark.parametrize("obj", [obj for _, obj in CORRUPTED], ids=[label for label, _ in CORRUPTED])
def test_a_memoized_report_equals_a_fresh_one(obj):
    # verify the parts first, so that the whole's report is assembled from
    # memoized reports of its parts
    for attr, _, _ in type(obj).PARTS:
        algfile.verify_structure(getattr(obj, attr))
    first = algfile.verify_structure(obj)
    again = algfile.verify_structure(obj)
    rebuilt = algfile.verify_structure(fresh(obj))
    assert not rebuilt.ok
    assert checks(first) == checks(again) == checks(rebuilt)
    assert first.subject == rebuilt.subject


def test_a_perturbed_cocycle_reports_as_a_fresh_one():
    h = linearize(trivial_truss(symmetric_group(3)), RATIONALS)
    assert verify_hopf_truss(h).ok
    c = cocycle_of_truss(h)
    bad = InvertibleCocycle(c.bimonoid, c.hopf, c.cocycle, c.twist, perturbed(c.action, 0, 1))
    assert verify_cocycle(c).ok
    memoized = roundtrip_report(bad)
    rebuilt = roundtrip_report(fresh(bad))
    assert not memoized.ok
    assert checks(memoized) == checks(rebuilt)
    assert checks(verify_cocycle(bad)) == checks(verify_cocycle(fresh(bad)))


def test_the_memo_is_not_part_of_the_value():
    h = cyclic_truss(RATIONALS, 3)
    twin = fresh(h)
    text, code = repr(h), hash(h)
    verify_hopf_truss(h)
    cocycle_of_truss(h)
    assert h == twin and hash(h) == code == hash(twin) and repr(h) == text
    for copied in (copy.copy(h), copy.deepcopy(h), pickle.loads(pickle.dumps(h))):
        assert copied == h and "_memo" not in vars(copied)
    # a copy computes its own views and reports
    assert copy.copy(h).hopf_part() is not h.hopf_part()
    assert copy.copy(h).hopf_part() == h.hopf_part()


def test_views_are_built_once_per_instance():
    h = cyclic_truss(RATIONALS, 3)
    assert h.hopf_part() is h.hopf_part() and h.second_part() is h.second_part()
    assert h.hopf_part().nonunital() is h.hopf_part().nonunital()
    c = cocycle_of_truss(h)
    assert c.bimonoid is h.second_part() and c.hopf is h.hopf_part()
    assert c.action is twisted_action(h)
    # the transported truss has c.hopf's maps, and c.hopf is its Hopf part
    t = cocycle.truss_of_cocycle(c)
    assert t.hopf_part() is c.hopf
    # an equal truss built apart has views of its own
    assert fresh(h).hopf_part() is not h.hopf_part()


def test_no_global_cache_keeps_a_verified_structure():
    h = linearize(trivial_truss(symmetric_group(3)), RATIONALS)
    c = cocycle_of_truss(h)
    reports = [verify_hopf_truss(h), verify_cocycle(c), roundtrip_report(c),
               verify_hopf_monoid(h.hopf_part())]
    assert all(rep.ok for rep in reports)
    refs = [weakref.ref(x) for x in (h, c, h.hopf_part(), h.second_part(), h.comonoid)]
    del h, c
    gc.collect()
    assert [ref() for ref in refs] == [None] * len(refs)
    assert all(rep.ok for rep in reports)
