"""Morphisms of every kind, read off the declared maps by verify_morphism.

The hand-written law lists that verify_morphism replaced are kept here
as the reference: on every input both give the same pass flag check by
check, under an old -> new name map.
"""

import itertools
import pathlib
import random
from operator import attrgetter

import pytest

from conftest import (
    cyclic_table,
    cyclic_truss,
    permutation,
    random_invertible,
    sample_objects,
    truss_from_tables,
)
from trusslab import algfile
from trusslab.coalgebra import verify_morphism
from trusslab.cocycle import (
    cocycle_of_truss,
    truss_of_cocycle,
    verify_cocycle_morphism,
)
from trusslab.errors import DimensionMismatchError, FieldMismatchError
from trusslab.fields import RATIONALS, prime_field
from trusslab.linmap import LinMap, compose_tensor, identity, invert, tensor_compose
from trusslab.modules import (
    PiModule,
    functor_G_H,
    functor_H_tr_pi,
    regular_pi_module,
    restrict_along,
    verify_pi_module_morphism,
)
from trusslab.report import VerificationReport, equation
from trusslab.settruss import (
    SetMorphism,
    cyclic_group,
    enumerate_skew_trusses,
    linearize,
    right_projection_truss,
    trivial_truss,
    verify_set_morphism,
)

F5 = prime_field(5)
FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def z4_circle_truss(field):
    t2 = [[(a + b + 2 * a * b) % 4 for b in range(4)] for a in range(4)]
    return truss_from_tables(field, cyclic_table(4), t2)


def doubling(field):
    """x -> 2x on Z4, an endomorphism of the circle truss."""
    return LinMap(field, 4, 4, {((2 * a) % 4, a): 1 for a in range(4)})


def fold(field, n):
    """Every basis vector of an n-dim space onto the one of a 1-dim space."""
    return LinMap(field, 1, n, {(0, a): 1 for a in range(n)})


def failing(rep):
    return {check.name for check in rep.failures()}


# -- the hand-written law lists verify_morphism replaced -------------------------


def reference_truss_morphism(f, src, dst):
    checks = (
        equation("comonoid.coproduct", "delta'∘f = (f(x)f)∘delta",
                 dst.comonoid.delta @ f, tensor_compose(f, f, src.comonoid.delta)),
        equation("comonoid.counit", "epsilon'∘f = epsilon",
                 dst.comonoid.epsilon @ f, src.comonoid.epsilon),
        equation("h1.unit", "f∘eta = eta'", f @ src.eta, dst.eta),
        equation("h1.product", "f∘mu1 = mu1'∘(f(x)f)", f @ src.mu1, compose_tensor(dst.mu1, f, f)),
        equation("h2.product", "f∘mu2 = mu2'∘(f(x)f)", f @ src.mu2, compose_tensor(dst.mu2, f, f)),
        equation("implied.antipode", "f∘antipode = antipode'∘f",
                 f @ src.antipode, dst.antipode @ f),
        equation("implied.cocycle", "f∘cocycle = cocycle'∘f",
                 f @ src.cocycle, dst.cocycle @ f),
    )
    return VerificationReport("truss-morphism", checks)


def reference_cocycle_morphism(m, src, dst):
    f, g = m["source"], m["target"]
    checks = (
        equation("f.comonoid.coproduct", "delta'∘f = (f(x)f)∘delta",
                 dst.bimonoid.delta @ f, tensor_compose(f, f, src.bimonoid.delta)),
        equation("f.comonoid.counit", "epsilon'∘f = epsilon",
                 dst.bimonoid.epsilon @ f, src.bimonoid.epsilon),
        equation("f.product", "f∘mu_B = mu_B'∘(f(x)f)",
                 f @ src.bimonoid.mu, compose_tensor(dst.bimonoid.mu, f, f)),
        equation("g.comonoid.coproduct", "delta'∘g = (g(x)g)∘delta",
                 dst.hopf.delta @ g, tensor_compose(g, g, src.hopf.delta)),
        equation("g.comonoid.counit", "epsilon'∘g = epsilon",
                 dst.hopf.epsilon @ g, src.hopf.epsilon),
        equation("g.unit", "g∘eta = eta'", g @ src.hopf.eta, dst.hopf.eta),
        equation("g.product", "g∘mu_H = mu_H'∘(g(x)g)",
                 g @ src.hopf.mu, compose_tensor(dst.hopf.mu, g, g)),
        equation("g.implied.antipode", "g∘antipode = antipode'∘g",
                 g @ src.hopf.antipode, dst.hopf.antipode @ g),
        equation("compat.twist", "f∘twist = twist'∘f",
                 f @ src.twist, dst.twist @ f),
        equation("compat.cocycle", "g∘pi = pi'∘f",
                 g @ src.cocycle, dst.cocycle @ f),
        equation("compat.action", "g∘phi = phi'∘(f(x)g)",
                 g @ src.action, compose_tensor(dst.action, f, g)),
    )
    return VerificationReport("cocycle-morphism", checks)


def reference_pi_module_morphism(h, l, src, dst):
    """The action and compare laws only: it compared the systems' sizes,
    not the systems."""
    c = src.system
    b, hd = c.bimonoid.dim, c.hopf.dim
    if dst.system.bimonoid.dim != b or dst.system.hopf.dim != hd:
        raise DimensionMismatchError("modules live over differently sized systems")
    if h.shape != (dst.mdim, src.mdim) or l.shape != (dst.ndim, src.ndim):
        raise DimensionMismatchError("morphism shapes do not match the carriers")
    idb, idh = identity(c.field, b), identity(c.field, hd)
    return VerificationReport("pimodule-morphism", (
        equation("main.mixed", "h∘mixed = mixed'∘(id (x) h)",
                 h @ src.mixed_action, compose_tensor(dst.mixed_action, idb, h)),
        equation("main.module", "h∘hopf_action = hopf_action'∘(id (x) h)",
                 h @ src.hopf_action, compose_tensor(dst.hopf_action, idh, h)),
        equation("second.module", "l∘base_action = base_action'∘(id (x) l)",
                 l @ src.base_action, compose_tensor(dst.base_action, idb, l)),
        equation("compat.compare", "h∘compare = compare'∘l",
                 h @ src.compare, dst.compare @ l),
    ))


TRUSS_NAMES = {
    "comonoid.coproduct": "delta", "comonoid.counit": "epsilon", "h1.unit": "eta",
    "h1.product": "mu1", "h2.product": "mu2", "implied.antipode": "antipode",
    "implied.cocycle": "cocycle",
}
COCYCLE_NAMES = {
    "f.comonoid.coproduct": "source.delta", "f.comonoid.counit": "source.epsilon",
    "f.product": "source.mu", "g.comonoid.coproduct": "target.delta",
    "g.comonoid.counit": "target.epsilon", "g.unit": "target.eta", "g.product": "target.mu",
    "g.implied.antipode": "target.antipode", "compat.twist": "twist",
    "compat.cocycle": "cocycle", "compat.action": "action",
}
PI_MODULE_NAMES = {
    "main.mixed": "mixed_action", "main.module": "hopf_action",
    "second.module": "base_action", "compat.compare": "compare",
}


def outcome(verify, *args):
    try:
        return verify(*args)
    except DimensionMismatchError:
        return DimensionMismatchError


def assert_same_laws(old, new, names):
    """Every old check has its renamed new check with the same flag, and a
    residual equal up to the side each law is written on."""
    if old is DimensionMismatchError or new is DimensionMismatchError:
        assert old is new
        return
    for check in old.checks:
        got = new.named(names[check.name])
        assert got.passed == check.passed, check.name
        assert check.passed or got.residual in (check.residual, -check.residual)


def random_map(rnd, field, cod, dom):
    """A dense map with entries in -2..2, or a map of basis vectors."""
    if rnd.random() < 0.5:
        return LinMap(field, cod, dom, {(i, j): rnd.randint(-2, 2)
                                        for i in range(cod) for j in range(dom)})
    return LinMap(field, cod, dom, {(rnd.randrange(cod), j): 1 for j in range(dom)})


def truss_cases():
    z4, z3, z1 = z4_circle_truss(RATIONALS), cyclic_truss(RATIONALS, 3), cyclic_truss(RATIONALS, 1)
    moved = cocycle_of_truss(z4).moved({"source": permutation(RATIONALS, (1, 2, 3, 0))})
    back = cocycle_of_truss(truss_of_cocycle(moved))
    cases = [(identity(RATIONALS, 4), z4, z4), (doubling(RATIONALS), z4, z4),
             (fold(RATIONALS, 3), z3, z1),
             (identity(RATIONALS, 4), truss_of_cocycle(moved), truss_of_cocycle(back))]
    rnd = random.Random(15)
    for field in (RATIONALS, F5):
        h = z4_circle_truss(field)
        cases += [(random_map(rnd, field, 4, 4), h, h) for _ in range(12)]
    return cases


def cocycle_cases():
    cases = []
    for f, src, dst in truss_cases():
        cases.append(({"source": f, "target": f}, cocycle_of_truss(src), cocycle_of_truss(dst)))
    for perm in ((1, 0, 3, 2), (1, 2, 3, 0)):
        c = cocycle_of_truss(z4_circle_truss(RATIONALS)).moved({"source": permutation(RATIONALS, perm)})
        back = cocycle_of_truss(truss_of_cocycle(c))
        cases.append(({"source": c.cocycle, "target": identity(RATIONALS, 4)}, c, back))
    rnd = random.Random(16)
    for field in (RATIONALS, F5):
        c = cocycle_of_truss(z4_circle_truss(field))
        cases += [({"source": random_map(rnd, field, 4, 4), "target": random_map(rnd, field, 4, 4)}, c, c)
                  for _ in range(12)]
    return cases


def pi_module_cases():
    z4 = regular_pi_module(cocycle_of_truss(z4_circle_truss(RATIONALS)))
    z3 = regular_pi_module(cocycle_of_truss(cyclic_truss(RATIONALS, 3)))
    z1 = regular_pi_module(cocycle_of_truss(cyclic_truss(RATIONALS, 1)))
    cases = [(identity(RATIONALS, 4), identity(RATIONALS, 4), z4, z4),
             (doubling(RATIONALS), doubling(RATIONALS), z4, z4),
             (fold(RATIONALS, 3), fold(RATIONALS, 3), z3, z1)]
    for perm in ((1, 0, 3, 2), (1, 2, 3, 0)):
        c = cocycle_of_truss(z4_circle_truss(RATIONALS)).moved({"source": permutation(RATIONALS, perm)})
        m = regular_pi_module(c)
        comparison = {"source": c.cocycle, "target": identity(RATIONALS, 4)}
        back = restrict_along(comparison, c, functor_G_H(functor_H_tr_pi(m)))
        cases.append((identity(RATIONALS, 4), m.compare, m, back))
    rnd = random.Random(17)
    for field in (RATIONALS, F5):
        m = regular_pi_module(cocycle_of_truss(z4_circle_truss(field)))
        cases += [(random_map(rnd, field, 4, 4), random_map(rnd, field, 4, 4), m, m)
                  for _ in range(12)]
    return cases


def test_generic_truss_laws_equal_the_hand_written_ones():
    for f, src, dst in truss_cases():
        assert_same_laws(outcome(reference_truss_morphism, f, src, dst),
                         outcome(verify_morphism, {"dim": f}, src, dst),
                         TRUSS_NAMES)


def test_generic_cocycle_laws_equal_the_hand_written_ones():
    flags = set()
    for m, src, dst in cocycle_cases():
        old = reference_cocycle_morphism(m, src, dst)
        assert_same_laws(old, verify_cocycle_morphism(m, src, dst), COCYCLE_NAMES)
        flags.add(old.ok)
    assert flags == {True, False}


def test_generic_pi_module_laws_equal_the_hand_written_ones():
    for h, l, src, dst in pi_module_cases():
        new = outcome(verify_pi_module_morphism, h, l, src, dst)
        assert_same_laws(outcome(reference_pi_module_morphism, h, l, src, dst), new,
                         PI_MODULE_NAMES)
        if new is not DimensionMismatchError:
            # over one system the identities on it pass every system law
            assert failing(new) <= set(PI_MODULE_NAMES.values()) | {"compat.determined"}


def test_checks_are_named_and_anchored_by_the_declared_maps():
    h = z4_circle_truss(RATIONALS)
    rep = verify_morphism({"dim": identity(RATIONALS, 4)}, h, h)
    assert [c.name for c in rep.checks] == [name for name, _, _ in algfile.REGISTRY["hopftruss"].slots(h.dims)]
    assert rep.subject == "morphism"
    assert rep.named("delta").anchor == "(f_dim(x)f_dim)∘delta = delta'∘f_dim"
    assert rep.named("epsilon").anchor == "epsilon = epsilon'∘f_dim"
    assert rep.named("eta").anchor == "f_dim∘eta = eta'"
    assert rep.named("mu1").anchor == "f_dim∘mu1 = mu1'∘(f_dim(x)f_dim)"
    c = cocycle_of_truss(h)
    rep = verify_cocycle_morphism({"source": identity(RATIONALS, 4), "target": identity(RATIONALS, 4)}, c, c)
    assert rep.named("action").anchor == "f_target∘action = action'∘(f_source(x)f_target)"
    assert rep.named("source.delta").anchor == \
        "(f_source(x)f_source)∘source.delta = source.delta'∘f_source"


# -- refusals before any law ---------------------------------------------------


def test_morphism_between_kinds_is_refused():
    h = z4_circle_truss(RATIONALS)
    with pytest.raises(TypeError):
        verify_morphism({"dim": identity(RATIONALS, 4)}, h, h.comonoid)


def test_morphism_across_fields_is_refused():
    q, f5 = z4_circle_truss(RATIONALS), z4_circle_truss(F5)
    with pytest.raises(FieldMismatchError):
        verify_morphism({"dim": identity(RATIONALS, 4)}, q, f5)
    with pytest.raises(FieldMismatchError):
        verify_morphism({"dim": identity(F5, 4)}, q, q)


@pytest.mark.parametrize("f", [
    {},
    {"dim": identity(RATIONALS, 4), "carrier": identity(RATIONALS, 4)},
    {"dim": identity(RATIONALS, 3)},
    {"dim": LinMap(RATIONALS, 4, 3, {})},
], ids=["missing", "extra", "square-wrong-size", "wrong-domain"])
def test_morphism_of_the_wrong_dims_or_shape_is_refused(f):
    h = z4_circle_truss(RATIONALS)
    with pytest.raises(DimensionMismatchError):
        verify_morphism(f, h, h)


# -- a cocycle module morphism compares the systems --------------------------------


def test_pi_module_morphism_over_different_systems_fails_their_laws():
    # Two valid cocycles of Z2 over Q with equal module maps: the trivial
    # truss's and the right-projection truss's.  They differ in the source
    # product and the twist, so the identities on them are no morphism.
    c1 = cocycle_of_truss(linearize(trivial_truss(cyclic_group(2)), RATIONALS))
    c2 = cocycle_of_truss(linearize(right_projection_truss(cyclic_group(2)), RATIONALS))
    m1 = regular_pi_module(c1)
    m2 = PiModule(c2, m1.mixed_action, m1.hopf_action, m1.base_action, m1.compare)
    idn = identity(RATIONALS, 2)
    assert reference_pi_module_morphism(idn, idn, m1, m2).ok
    assert failing(verify_pi_module_morphism(idn, idn, m1, m2)) == {"source.mu", "twist"}
    assert verify_pi_module_morphism(idn, idn, m1, m1).ok


# -- the paper's functors act on morphisms ---------------------------------------


def test_set_morphisms_linearize_to_truss_morphisms_and_E_doubles_them():
    found = 0
    for t in enumerate_skew_trusses(cyclic_group(4))[:40]:
        h = linearize(t, F5)
        c = cocycle_of_truss(h)
        for mapping in itertools.product(range(4), repeat=4):
            f = LinMap(F5, 4, 4, {(b, a): 1 for a, b in enumerate(mapping)})
            if verify_set_morphism(SetMorphism(4, 4, mapping), t, t).ok:
                found += 1
                assert verify_morphism({"dim": f}, h, h).ok, mapping
                assert verify_morphism({"source": f, "target": f}, c, c).ok, mapping
            elif len(set(mapping)) == 4:
                assert not verify_morphism({"dim": f}, h, h).ok, mapping
    assert found == 93


def test_a_permutation_that_is_no_set_morphism_fails():
    t = enumerate_skew_trusses(cyclic_group(4))[0]
    swap = (1, 0, 2, 3)
    assert not verify_set_morphism(SetMorphism(4, 4, swap), t, t).ok
    h = linearize(t, F5)
    rep = verify_morphism({"dim": permutation(F5, swap)}, h, h)
    assert not rep.ok
    assert not rep.named("mu1").passed


def test_Q_sends_a_cocycle_morphism_to_its_target_map():
    # (R∘d∘P⁻¹, d) between the cocycle moved along P on the source and the
    # one moved along R is a cocycle morphism for the doubling d, and both
    # transport to the circle truss, where d is a truss morphism.
    c = cocycle_of_truss(z4_circle_truss(RATIONALS))
    d = doubling(RATIONALS)
    p, r = permutation(RATIONALS, (1, 2, 3, 0)), permutation(RATIONALS, (3, 2, 0, 1))
    c1, c2 = c.moved({"source": p}), c.moved({"source": r})
    assert verify_cocycle_morphism({"source": r @ d @ invert(p), "target": d}, c1, c2).ok
    assert verify_morphism({"dim": d}, truss_of_cocycle(c1), truss_of_cocycle(c2)).ok
    # the comparison pair (pi, id) onto the rebuilt cocycle goes to id
    back = cocycle_of_truss(truss_of_cocycle(c1))
    assert verify_cocycle_morphism({"source": c1.cocycle, "target": identity(RATIONALS, 4)}, c1, back).ok
    assert verify_morphism({"dim": identity(RATIONALS, 4)},
                           truss_of_cocycle(c1), truss_of_cocycle(back)).ok


# -- one generic transport ----------------------------------------------------------


TRANSPORTED = [(kind, obj) for kind, obj in sample_objects() if kind != "settruss"] + [
    (path.stem, algfile.load(path)) for path in sorted(FIXTURES.glob("hopftruss-*.json"))]


@pytest.mark.parametrize("kind,obj", TRANSPORTED, ids=[kind for kind, _ in TRANSPORTED])
def test_transport_is_a_morphism_that_keeps_every_verdict(kind, obj):
    rnd = random.Random(kind)
    p = {d: random_invertible(rnd, obj.field, n) for d, n in obj.dims.items()}
    assert max(obj.dims.values()) <= 6
    moved = obj.moved(p)
    assert verify_morphism(p, obj, moved).ok
    # moved_maps moves one map at a time exactly as moved moves them all
    assert all(obj.moved_maps(p, [name])[name] == attrgetter(path)(moved) for name, path, _, _ in obj.ALL_MAPS)
    before = failing(algfile.verify_structure(obj))
    assert failing(algfile.verify_structure(moved)) == before
    assert len(before) == (5 if kind.endswith("corrupt-cocycle") else 0)
    assert moved.moved({d: invert(m) for d, m in p.items()}) == obj
