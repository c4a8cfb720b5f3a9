"""Invertible cocycles and the truss equivalence."""

import gc
import random
import weakref

import pytest

from conftest import (
    count_calls,
    count_runs,
    cyclic_table,
    cyclic_truss,
    hook,
    naturality_cases,
    permutation,
    perturbed,
    random_invertible,
    sample_objects,
    truss_from_tables,
)
from trusslab import algfile, coalgebra
from trusslab.coalgebra import HopfMonoidData, verify_hopf_monoid
from trusslab.cocycle import (
    InvertibleCocycle,
    cocycle_of_truss,
    is_brace_case,
    roundtrip_report,
    truss_of_cocycle,
    verify_cocycle,
    verify_cocycle_morphism,
)
from trusslab.errors import DimensionMismatchError
from trusslab.fields import RATIONALS, prime_field
from trusslab.hopftruss import derive_cocycle, twisted_action, verify_hopf_truss
from trusslab.linmap import LinMap, identity, kron
from trusslab.modules import functor_H_tr_pi, regular_pi_module, verify_pi_module, verify_truss_module
from trusslab.settruss import linearize, symmetric_group, trivial_truss

F5 = prime_field(5)


def z4_circle_truss(field):
    t2 = [[(a + b + 2 * a * b) % 4 for b in range(4)] for a in range(4)]
    return truss_from_tables(field, cyclic_table(4), t2)


def shifted_z2_truss(field):
    return truss_from_tables(field, cyclic_table(2), [[1, 0], [0, 1]])


def right_projection_truss(field, n):
    return truss_from_tables(field, cyclic_table(n), [list(range(n))] * n)


FIXTURE_TRUSSES = [
    lambda: cyclic_truss(RATIONALS, 2),
    lambda: cyclic_truss(F5, 3),
    lambda: z4_circle_truss(RATIONALS),
    lambda: shifted_z2_truss(RATIONALS),
    lambda: right_projection_truss(F5, 3),
    lambda: linearize(trivial_truss(symmetric_group(3)), F5),
]


def shear_source(c: InvertibleCocycle) -> InvertibleCocycle:
    """Transport the source along a non-permutation isomorphism."""
    n = c.bimonoid.dim
    entries = {(a, a): 1 for a in range(n)}
    entries[(0, n - 1)] = 1
    return c.moved({"source": LinMap(c.field, n, n, entries)})


# -- reading a truss as a cocycle ---------------------------------------------


@pytest.mark.parametrize("make", FIXTURE_TRUSSES)
def test_cocycle_of_truss_passes_verifier(make):
    rep = verify_cocycle(cocycle_of_truss(make()))
    assert rep.ok, str(rep)


def test_cocycle_of_truss_has_identity_comparison_map():
    h = cyclic_truss(RATIONALS, 2)
    c = cocycle_of_truss(h)
    assert c.cocycle == identity(RATIONALS, 2)
    assert c.twist == h.cocycle
    assert c.action == twisted_action(h)


def test_brace_case_flags():
    assert is_brace_case(cocycle_of_truss(cyclic_truss(RATIONALS, 2)))
    assert is_brace_case(cocycle_of_truss(z4_circle_truss(RATIONALS)))
    # twisted: the shifted product has the wrong unit, projections have none
    assert not is_brace_case(cocycle_of_truss(shifted_z2_truss(RATIONALS)))
    assert not is_brace_case(cocycle_of_truss(right_projection_truss(F5, 3)))


# -- the two functors compose to the identity on trusses ----------------------


@pytest.mark.parametrize("make", FIXTURE_TRUSSES)
def test_roundtrip_on_trusses_is_exact(make):
    h = make()
    assert truss_of_cocycle(cocycle_of_truss(h)) == h


def test_transport_of_identity_cocycle_is_trivial():
    c = cocycle_of_truss(shifted_z2_truss(RATIONALS))
    t = truss_of_cocycle(c)
    assert t.mu2 == c.bimonoid.mu
    assert t.cocycle == c.twist


def test_constructed_cocycle_satisfies_derivation_law():
    c = cocycle_of_truss(z4_circle_truss(F5)).moved({"source": permutation(F5, (1, 2, 3, 0))})
    t = truss_of_cocycle(c)
    assert t.cocycle == derive_cocycle(t.mu2, t.eta)


# -- cocycles with a non-identity comparison map ------------------------------


@pytest.mark.parametrize("move", [
    lambda c: c.moved({"source": permutation(c.field, (1, 0))}),
    shear_source,
])
def test_transported_source_still_verifies(move):
    c = move(cocycle_of_truss(shifted_z2_truss(F5)))
    assert c.cocycle != identity(F5, 2)
    rep = verify_cocycle(c)
    assert rep.ok, str(rep)


def test_source_relabeling_does_not_change_the_truss():
    h = linearize(trivial_truss(symmetric_group(3)), RATIONALS)
    c = cocycle_of_truss(h)
    moved = c.moved({"source": permutation(RATIONALS, (2, 0, 1, 4, 3, 5))})
    assert truss_of_cocycle(moved) == h


def test_shear_transport_keeps_brace_flag():
    c = shear_source(cocycle_of_truss(z4_circle_truss(RATIONALS)))
    assert is_brace_case(c)
    assert truss_of_cocycle(c) == z4_circle_truss(RATIONALS)


@pytest.mark.parametrize("field,t", naturality_cases())
def test_moving_a_truss_moves_its_cocycle_and_back(field, t):
    h = linearize(t, field)
    rnd = random.Random(repr(t) + str(field))
    p, q = (random_invertible(rnd, field, h.dim) for _ in range(2))
    c = cocycle_of_truss(h)
    both = c.moved({"source": p, "target": p})
    assert cocycle_of_truss(h.moved({"dim": p})) == both
    assert truss_of_cocycle(both) == h.moved({"dim": p})
    # moving the source alone changes c but not its truss
    source = c.moved({"source": q})
    assert source != c and truss_of_cocycle(source) == h


# -- a genuine cocycle: Z4 onto Z2², from a regular subgroup of the holomorph --


def xor_action(alpha, a):
    """The automorphism of Z2² = ({0, 1, 2, 3}, xor) sending 1, 2 to alpha."""
    return (alpha[0] if a & 1 else 0) ^ (alpha[1] if a & 2 else 0)


def holomorph_z4():
    """A cyclic regular subgroup of Hol(Z2²) = Z2² ⋊ Aut(Z2²), found by brute
    force over its 24 elements (a, alpha): its elements g^0, ..., g^3."""
    def mul(g, h):
        return g[0] ^ xor_action(g[1], h[0]), tuple(xor_action(g[1], b) for b in h[1])
    one = (0, (1, 2))
    for g in ((a, (x, y)) for a in range(4) for x in range(1, 4) for y in range(1, 4) if x != y):
        powers = [one, g, mul(g, g), mul(g, mul(g, g))]
        if powers[2] != one and mul(g, powers[3]) == one and len({a for a, _ in powers}) == 4:
            return powers
    raise AssertionError("Hol(Z2²) has a regular subgroup isomorphic to Z4")


def holomorph_cocycle(field, phi=None):
    """kZ4 onto kZ2² by pi(g^k) = the translation part of g^k, with
    phi(g (x) a) = alpha_g(a) unless phi is given; and pi as a list."""
    powers = holomorph_z4()
    pi = [a for a, _ in powers]
    xor = [[a ^ b for b in range(4)] for a in range(4)]
    if phi is None:
        phi = LinMap(field, 4, 16, {(xor_action(alpha, a), k * 4 + a): 1
                                    for k, (_, alpha) in enumerate(powers) for a in range(4)})
    z4, z2z2 = cyclic_truss(field, 4), truss_from_tables(field, xor, xor)
    c = InvertibleCocycle(z4.second_part(), z2z2.hopf_part(), permutation(field, pi), identity(field, 4), phi)
    return c, pi


def test_a_regular_subgroup_of_the_holomorph_is_a_genuine_cocycle():
    c, pi = holomorph_cocycle(RATIONALS)
    assert pi != list(range(4))
    assert verify_cocycle(c).ok and roundtrip_report(c).ok
    t = truss_of_cocycle(c)
    assert verify_hopf_truss(t).ok
    assert verify_truss_module(functor_H_tr_pi(regular_pi_module(c))).ok
    # Z4's Cayley table moved along pi onto the basis of Z2²
    assert t.mu2 == LinMap(RATIONALS, 4, 16, {(pi[(i + j) % 4], pi[i] * 4 + pi[j]): 1
                                              for i in range(4) for j in range(4)})
    assert cocycle_of_truss(t) != c
    trivial = LinMap(RATIONALS, 4, 16, {(a, k * 4 + a): 1 for k in range(4) for a in range(4)})
    assert [check.name for check in verify_cocycle(holomorph_cocycle(RATIONALS, trivial)[0]).failures()] == [
        "compat.cocycle"]


# -- morphisms ----------------------------------------------------------------


def test_identity_pair_is_a_morphism():
    c = cocycle_of_truss(z4_circle_truss(RATIONALS))
    m = {"source": identity(RATIONALS, 4), "target": identity(RATIONALS, 4)}
    assert verify_cocycle_morphism(m, c, c).ok


def test_truss_morphism_doubles_as_cocycle_morphism():
    # x -> 2x on the circle truss, used on both components
    f = LinMap(RATIONALS, 4, 4, {((2 * a) % 4, a): 1 for a in range(4)})
    c = cocycle_of_truss(z4_circle_truss(RATIONALS))
    rep = verify_cocycle_morphism({"source": f, "target": f}, c, c)
    assert rep.ok, str(rep)


def test_comparison_pair_is_an_isomorphism_onto_the_rebuilt_cocycle():
    c = cocycle_of_truss(shifted_z2_truss(RATIONALS)).moved({"source": permutation(RATIONALS, (1, 0))})
    back = cocycle_of_truss(truss_of_cocycle(c))
    pair = {"source": c.cocycle, "target": identity(RATIONALS, 2)}
    rep = verify_cocycle_morphism(pair, c, back)
    assert rep.ok, str(rep)


def test_morphism_shape_mismatch_raises():
    c2 = cocycle_of_truss(cyclic_truss(RATIONALS, 2))
    c3 = cocycle_of_truss(cyclic_truss(RATIONALS, 3))
    with pytest.raises(DimensionMismatchError):
        verify_cocycle_morphism(
            {"source": identity(RATIONALS, 2), "target": identity(RATIONALS, 2)},
            c2, c3)


# -- round-trip certification -------------------------------------------------


@pytest.mark.parametrize("make", FIXTURE_TRUSSES)
def test_roundtrip_report_passes_on_truss_cocycles(make):
    rep = roundtrip_report(cocycle_of_truss(make()))
    assert rep.ok, str(rep)


def test_roundtrip_report_passes_on_transported_cocycles():
    base = cocycle_of_truss(right_projection_truss(F5, 3))
    for c in (base.moved({"source": permutation(F5, (2, 0, 1))}), shear_source(base)):
        rep = roundtrip_report(c)
        assert rep.ok, str(rep)
        assert rep.named("roundtrip.action").passed


def test_transported_truss_carries_the_hopf_part_unchanged():
    # roundtrip_report merges the report of c.hopf as the truss's h1.*
    # checks, which holds because transport keeps the Hopf part as is.
    samples = dict(sample_objects())
    base = cocycle_of_truss(right_projection_truss(F5, 3))
    for c in (samples["gic"], samples["pimodule"].system, base,
              base.moved({"source": permutation(F5, (2, 0, 1))}), shear_source(base)):
        assert truss_of_cocycle(c).hopf_part() == c.hopf


def test_roundtrip_reuses_the_rebuilt_action(monkeypatch):
    c = cocycle_of_truss(linearize(trivial_truss(symmetric_group(3)), RATIONALS))
    runs = count_runs(monkeypatch, "diagonal")
    assert roundtrip_report(c).ok
    # diagonal is called 7 times and runs 4.  Three spreads verify c: the
    # product.coproduct of its bimonoid (both products of the trivial
    # truss are the group product, so c.hopf's bimonoid is that value
    # too), action.product and compat.cocycle.  The transported truss
    # runs one more, compat.distributivity: its Gamma is the spread that
    # built c.action, its action.product is c's and its second part is
    # c.bimonoid's value.  Reading the truss back as a cocycle, and so
    # the roundtrip.action check, rebuilds that Gamma from the memo.
    assert runs["diagonal"] == 4


@pytest.mark.parametrize("broken", [False, True], ids=["lawful", "bad-antipode"])
def test_roundtrip_verifies_the_hopf_part_once(monkeypatch, broken):
    c = cocycle_of_truss(linearize(trivial_truss(symmetric_group(3)), RATIONALS))
    if broken:
        h = c.hopf
        c = InvertibleCocycle(c.bimonoid, HopfMonoidData(h.comonoid, h.eta, h.mu, perturbed(h.antipode, 0, 1)),
                              c.cocycle, c.twist, c.action)
    laws = count_calls(monkeypatch, "equation")
    rep = roundtrip_report(c)
    assert rep.ok is not broken
    # once, for c.hopf: the transported truss carries c.hopf's maps
    # unchanged, so its h1.* checks are that report's checks
    assert laws["antipode.left"] == 1
    # against c.hopf's report evaluated afresh, once no structure holds its memo
    text, refs = algfile.serialize(c.hopf), [weakref.ref(c.hopf)]
    del c
    gc.collect()
    assert [ref() for ref in refs] == [None]
    laws.clear()
    fresh = [(name, ch.passed, ch.residual) for name, ch in verify_hopf_monoid(algfile.loads(text)).named_checks()]
    assert laws["antipode.left"] == 1
    for prefix in ("src.h.", "truss.h1."):
        assert [(name[len(prefix):], ch.passed, ch.residual)
                for name, ch in rep.named_checks() if name.startswith(prefix)] == fresh


# -- broken inputs ------------------------------------------------------------


def test_perturbed_action_breaks_the_cocycle_equation():
    c = cocycle_of_truss(cyclic_truss(RATIONALS, 2))
    # add a counit-killing column bump: e0 - e1 into column (a=0, b=1)
    bump = LinMap(RATIONALS, 2, 4, {(0, 1): 1, (1, 1): -1})
    bad = InvertibleCocycle(c.bimonoid, c.hopf, c.cocycle, c.twist,
                            c.action + bump)
    rep = verify_cocycle(bad)
    assert not rep.named("compat.cocycle").passed
    # the bump avoided the unit column, so unitality of the action survives
    assert rep.named("action.unit").passed


def test_corrupted_twist_is_reported_by_roundtrip():
    c = cocycle_of_truss(cyclic_truss(RATIONALS, 2))
    bad = InvertibleCocycle(c.bimonoid, c.hopf, c.cocycle,
                            c.twist.scale(2), c.action)
    rep = roundtrip_report(bad)
    assert not rep.named("src.twist.comonoid.coproduct").passed
    assert not rep.named("src.compat.cocycle").passed
    assert not rep.named("roundtrip.action").passed


def test_wrong_shape_action_rejected():
    c = cocycle_of_truss(cyclic_truss(RATIONALS, 2))
    with pytest.raises(DimensionMismatchError):
        InvertibleCocycle(c.bimonoid, c.hopf, c.cocycle, c.twist,
                          identity(RATIONALS, 4))


def _through_formed_right_factor(fused):
    # id_A (x) m formed and composed after the spread, the construction
    # that the fused right factor of diagonal replaces.
    def spread(delta, f, g, m=None):
        spread.calls += 1
        out = fused(delta, f, g)
        return out if m is None else out @ kron(identity(delta.field, delta.dom), m)
    spread.calls = 0
    return spread


@pytest.mark.parametrize("field", [RATIONALS, F5], ids=str)
@pytest.mark.parametrize("kind,dims", [
    ("gic", {"source": 0, "target": 1}),
    ("gic", {"source": 0, "target": 2}),
    ("pimodule", {"source": 0, "target": 1, "carrier": 2, "second": 1}),
    ("pimodule", {"source": 0, "target": 0, "carrier": 1, "second": 2}),
], ids=str)
def test_zero_source_reports_match_the_formed_right_factor(monkeypatch, field, kind, dims):
    # Over a 0-dim source id_0 (x) m is 0 x 0 for every m, so compat.cocycle
    # and compare.intertwine take a right factor of any codomain.
    rng = random.Random(str(dims))
    row = algfile.REGISTRY[kind]
    maps = {name: LinMap(field, rows, cols, {(i, j): field.coerce(rng.randint(-2, 2))
                                             for i in range(rows) for j in range(cols)})
            for name, rows, cols in row.slots(dims)}
    obj = row.type.build(dims, maps)
    verify = verify_cocycle if kind == "gic" else verify_pi_module
    fused = verify(obj).to_dict()
    # rebuilt once no structure holds obj's memo, so it is verified afresh
    refs = [weakref.ref(obj)]
    del obj
    gc.collect()
    assert [ref() for ref in refs] == [None]
    hook(monkeypatch, "diagonal", _through_formed_right_factor)
    assert fused == verify(row.type.build(dims, maps)).to_dict()
    assert coalgebra.diagonal.calls > 0
