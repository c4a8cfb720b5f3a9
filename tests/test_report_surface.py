"""The report surface, pinned: every verifier's report on every sample
kind, on both fixtures and their parts, on each planted defect of the
verifier tests and on the failure branches of the certificates, against
a snapshot in tests/fixtures.

A report is pinned by its subject and, per check in order, its name,
anchor, pass flag, witness detail and the nnz of a failing residual; the
anchors are kept once per subject and name.  A report that raises is
pinned by the error's type.  Run this file as a
script to write the snapshot again.
"""

import json
from pathlib import Path

from conftest import cyclic_table, cyclic_truss, flip, perturbed, sample_objects, truss_from_tables
from test_coalgebra import (
    cyclic_group_algebra,
    idempotent_monoid_algebra,
    primitive_element_bundle,
    unitriangular,
)
from test_noncocommutative import SECOND_PRODUCTS, h4_truss
from trusslab import algfile
from trusslab.coalgebra import (
    ComonoidData,
    NonUnitalBimonoidData,
    verify_comonoid,
    verify_hopf_monoid,
    verify_monoid,
    verify_nonunital_bimonoid,
)
from trusslab.cocycle import InvertibleCocycle, cocycle_of_truss, roundtrip_report, verify_cocycle
from trusslab.fields import RATIONALS, prime_field
from trusslab.hopfmodules import (
    TrussHopfModule,
    adjunction_check,
    fundamental_iso,
    induction_functor,
    verify_truss_hopf_module,
)
from trusslab.hopftruss import HopfTruss, verify_hopf_truss
from trusslab.linmap import LinMap, identity
from trusslab.modules import (
    PiModule,
    functor_G_H,
    regular_truss_module,
    verify_pi_module,
    verify_pi_module_morphism,
    verify_truss_module,
)

FIXTURES = Path(__file__).resolve().parent / "fixtures"
SNAPSHOT = FIXTURES / "report-surface.json"
F5 = prime_field(5)


def _truss_chain(label, h):
    """The chain's reports on a truss: its parts, the cocycle round trip,
    its regular modules and the free Hopf module on two dimensions."""
    yield label, lambda: algfile.verify_structure(h)
    yield f"{label}/comonoid", lambda: verify_comonoid(h.comonoid)
    yield f"{label}/hopf", lambda: verify_hopf_monoid(h.hopf_part())
    yield f"{label}/second", lambda: verify_nonunital_bimonoid(h.second_part())
    yield f"{label}/cocycle", lambda: verify_cocycle(cocycle_of_truss(h))
    yield f"{label}/roundtrip", lambda: roundtrip_report(cocycle_of_truss(h))
    yield f"{label}/trussmodule", lambda: verify_truss_module(regular_truss_module(h))
    yield f"{label}/pimodule", lambda: verify_pi_module(functor_G_H(regular_truss_module(h)))
    yield f"{label}/trusshopfmodule", lambda: verify_truss_hopf_module(induction_functor(h, 2))
    yield f"{label}/fundamental", lambda: fundamental_iso(induction_functor(h, 2))[2]
    yield f"{label}/adjunction", lambda: adjunction_check(h, 2, induction_functor(h, 2))


def _perturbed_samples():
    """Every sample structure with one entry of one of its maps bumped, map
    by map, and the two singular comparison maps the guards stand on."""
    for kind, obj in sample_objects():
        if kind == "settruss":
            continue
        row = algfile.REGISTRY[kind]
        for name, _, _, _ in type(obj).ALL_MAPS:
            maps = row.maps_of(obj)
            maps[name] = perturbed(maps[name], 0, 0)
            yield f"{kind}/{name}+1", row.type.build(obj.dims, maps)
    samples = dict(sample_objects())
    c = samples["gic"]
    yield "gic/singular-pi", InvertibleCocycle(c.bimonoid, c.hopf, c.cocycle.scale(0), c.twist, c.action)
    m = samples["pimodule"]
    yield "pimodule/singular-compare", PiModule(m.system, m.mixed_action, m.hopf_action,
                                                m.base_action, m.compare.scale(0))


def _singular_witnesses():
    """The failure branches a singular comparison map takes: the round trip
    cannot transport, and a morphism into a module whose compare map is
    singular cannot determine l."""
    singular = dict(_perturbed_samples())
    c = singular["gic/singular-pi"]
    yield "gic/singular-pi/roundtrip", lambda: roundtrip_report(c)
    m = dict(sample_objects())["pimodule"]
    ids = [identity(m.field, n) for n in (m.mdim, m.ndim)]
    yield "pimodule/singular-compare/morphism", \
        lambda: verify_pi_module_morphism(*ids, m, singular["pimodule/singular-compare"])


def _failure_branches():
    """The certificates' failing rows: the round trip on every cocycle with
    one entry bumped, the adjunction on a module whose coinvariants cannot
    be split, and a cocycle-module morphism with a wrong l and a wrong h."""
    for label, c in _perturbed_samples():
        if label.startswith("gic/") and label.endswith("+1"):
            yield f"{label}/roundtrip", lambda c=c: roundtrip_report(c)
    t = cyclic_truss(RATIONALS, 2)
    corrupt = TrussHopfModule(t, t.mu1, t.mu2, perturbed(t.comonoid.delta, 0, 1))
    yield "trusshopfmodule/corrupt-coaction/adjunction", lambda: adjunction_check(t, 1, corrupt)
    m = dict(sample_objects())["pimodule"]
    h, l = identity(m.field, m.mdim), identity(m.field, m.ndim)
    yield "pimodule/wrong-l/morphism", lambda: verify_pi_module_morphism(h, perturbed(l, 0, 0), m, m)
    yield "pimodule/wrong-h/morphism", lambda: verify_pi_module_morphism(perturbed(h, 0, 1), l, m, m)


def _truss_defects():
    """The planted defects of the Hopf truss tests."""
    base = cyclic_truss(F5, 3)
    spots = [(0, 0), (1, 1), (1, 2), (2, 2), (0, 5), (2, 8), (1, 7)]
    for name in ("mu1", "mu2", "antipode", "cocycle", "eta"):
        m = getattr(base, name)
        for i, j in spots:
            if i < m.cod and j < m.dom:
                parts = {attr: getattr(base, attr) for attr in HopfTruss.FIELDS}
                parts[name] = perturbed(m, i, j)
                yield f"hopftruss/{name}@{i},{j}", HopfTruss(**parts)
    for field in (RATIONALS, F5):
        b = cyclic_truss(field, 4)
        shift = LinMap(field, 4, 4, {((a + 1) % 4, a): 1 for a in range(4)})
        for defect, bad in [("antipode", HopfTruss(b.comonoid, b.eta, b.mu1, b.mu2, identity(field, 4), b.cocycle)),
                            ("cocycle", HopfTruss(b.comonoid, b.eta, b.mu1, b.mu2, b.antipode, shift))]:
            yield f"hopftruss/{field}/{defect}", bad
            yield f"hopftruss/{field}/{defect}/moved", bad.moved({"dim": unitriangular(field, 4)})
    yield "hopftruss/incompatible", truss_from_tables(RATIONALS, cyclic_table(3), [[0, 1, 0]] * 3)


def _coalgebra_defects():
    """The planted defects and the non-Hopf bundles of the coalgebra tests."""
    h = cyclic_group_algebra(2, RATIONALS)
    bad_delta = h.delta + LinMap(RATIONALS, 4, 2, {(1, 0): 1})
    yield "comonoid/coassoc", lambda: verify_comonoid(ComonoidData(2, bad_delta, h.epsilon))
    h3 = cyclic_group_algebra(3, RATIONALS)
    bad_mu = h3.mu + LinMap(RATIONALS, 3, 9, {(0, 4): 1})
    yield "bimonoid/product", lambda: verify_nonunital_bimonoid(NonUnitalBimonoidData(h3.comonoid, bad_mu))
    yield "bimonoid/primitive-Q", lambda: verify_nonunital_bimonoid(primitive_element_bundle(RATIONALS)[0])
    com, mon = idempotent_monoid_algebra(F5)
    yield "monoid/idempotent", lambda: verify_monoid(mon)
    yield "bimonoid/idempotent", lambda: verify_nonunital_bimonoid(NonUnitalBimonoidData(com, mon.mu))


def _h4():
    """Sweedler's H4 trusses, and H4 read with the opposite coproduct."""
    for param in SECOND_PRODUCTS:
        h = h4_truss(param.values[0])
        yield f"h4/{param.id}", lambda h=h: verify_hopf_truss(h)
        yield f"h4/{param.id}/roundtrip", lambda h=h: roundtrip_report(cocycle_of_truss(h))
        yield f"h4/{param.id}/fundamental", lambda h=h: fundamental_iso(induction_functor(h, 2))[2]
    h = h4_truss(SECOND_PRODUCTS[0].values[0])
    op = ComonoidData(4, flip(4, 4, RATIONALS) @ h.comonoid.delta, h.comonoid.epsilon)
    yield "h4/delta-op", lambda: verify_hopf_truss(HopfTruss(op, h.eta, h.mu1, h.mu2, h.antipode, h.cocycle))


def reports():
    """(label, thunk giving the report) for every pinned report."""
    for kind, obj in sample_objects():
        yield f"sample/{kind}", lambda obj=obj: algfile.verify_structure(obj)
    for name in ("hopftruss-z2-brace", "hopftruss-z2-corrupt-cocycle"):
        yield from _truss_chain(f"fixture/{name}", algfile.load(FIXTURES / f"{name}.json"))
    for label, obj in list(_perturbed_samples()) + list(_truss_defects()):
        yield label, lambda obj=obj: algfile.verify_structure(obj)
    yield from _singular_witnesses()
    yield from _failure_branches()
    yield from _coalgebra_defects()
    yield from _h4()


def surface() -> dict:
    """Each report as its subject and rows [name, passed, detail, nnz of a
    failing residual], or the type of the error it raises, by label; and
    the anchors of each subject's checks, by name."""
    anchors, out = {}, {}
    for label, report in reports():
        try:
            rep = report()
        except Exception as exc:  # the error's type is part of the surface
            out[label] = type(exc).__name__
            continue
        for name, c in rep.named_checks():
            seen = anchors.setdefault(rep.subject, {}).setdefault(name, [])
            seen += [] if c.anchor in seen else [c.anchor]
        out[label] = [rep.subject, [[name, c.passed, c.detail,
                                     None if c.residual is None else len(c.residual.items())]
                                    for name, c in rep.named_checks()]]
    return {"anchors": anchors, "reports": out}


def test_every_report_matches_the_snapshot():
    expected = json.loads(SNAPSHOT.read_text(encoding="utf-8"))
    got = surface()
    assert got["anchors"] == expected["anchors"]
    assert sorted(got["reports"]) == sorted(expected["reports"])
    assert [label for label, rep in expected["reports"].items() if got["reports"][label] != rep] == []


if __name__ == "__main__":
    pinned = surface()
    rows = ",\n".join(f"{json.dumps(label)}: {json.dumps(rep, ensure_ascii=False)}"
                      for label, rep in pinned["reports"].items())
    anchors = json.dumps(pinned["anchors"], ensure_ascii=False, indent=1)
    SNAPSHOT.write_text(f'{{"anchors": {anchors},\n"reports": {{\n{rows}\n}}}}\n', encoding="utf-8")
