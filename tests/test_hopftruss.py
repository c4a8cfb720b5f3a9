"""Hopf truss bundle and verifier."""

import pytest

from conftest import cyclic_table, cyclic_truss, flip, perturbed, truss_from_tables
from test_coalgebra import unitriangular
from trusslab.coalgebra import verify_morphism
from trusslab.cocycle import cocycle_of_truss, roundtrip_report, verify_cocycle
from trusslab.errors import DimensionMismatchError
from trusslab.fields import RATIONALS, prime_field
from trusslab.hopftruss import (
    HopfTruss,
    derive_cocycle,
    hopf_brace_antipode,
    twisted_action,
    twisted_product,
    verify_hopf_truss,
)
from trusslab.linmap import LinMap, identity, kron

F5 = prime_field(5)


def left_projection_tables(n):
    return [[a for _ in range(n)] for a in range(n)]


def right_projection_tables(n):
    return [list(range(n)) for _ in range(n)]


# -- verifier on good inputs --------------------------------------------------


@pytest.mark.parametrize("field", [RATIONALS, F5])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_trivial_truss_on_cyclic_group_passes(field, n):
    rep = verify_hopf_truss(cyclic_truss(field, n))
    assert rep.ok, str(rep)


@pytest.mark.parametrize("table2_of", [left_projection_tables, right_projection_tables])
def test_projection_trusses_pass(table2_of):
    h = truss_from_tables(RATIONALS, cyclic_table(3), table2_of(3))
    rep = verify_hopf_truss(h)
    assert rep.ok, str(rep)


def test_shifted_product_on_z2_passes():
    # a *2 b = a + b + 1 is associative with unit 1, not the group unit 0
    h = truss_from_tables(RATIONALS, cyclic_table(2), [[1, 0], [0, 1]])
    rep = verify_hopf_truss(h)
    assert rep.ok, str(rep)


def z4_circle_truss(field):
    # a o b = a + b + 2ab mod 4, the circle product of the radical ring 2*Z4
    t2 = [[(a + b + 2 * a * b) % 4 for b in range(4)] for a in range(4)]
    return truss_from_tables(field, cyclic_table(4), t2)


def test_z4_circle_truss_passes_and_products_differ():
    h = z4_circle_truss(RATIONALS)
    assert verify_hopf_truss(h).ok
    assert h.mu1 != h.mu2


# -- derived maps -------------------------------------------------------------


def test_cocycle_matches_derivation_on_fixtures():
    for h in (cyclic_truss(RATIONALS, 3),
              z4_circle_truss(F5),
              truss_from_tables(F5, cyclic_table(3), left_projection_tables(3))):
        assert h.cocycle == derive_cocycle(h.mu2, h.eta)


def test_twisted_action_of_trivial_truss_drops_the_actor():
    # lambda(a) *1 (a *1 b) = b, so the action is epsilon (x) id
    h = cyclic_truss(RATIONALS, 3)
    expected = LinMap(RATIONALS, 3, 9,
                      {(b, a * 3 + b): 1 for a in range(3) for b in range(3)})
    assert twisted_action(h) == expected
    assert twisted_product(h) == expected


def test_twisted_action_of_left_projection_is_constant_unit():
    h = truss_from_tables(RATIONALS, cyclic_table(3), left_projection_tables(3))
    expected = LinMap(RATIONALS, 3, 9, {(0, k): 1 for k in range(9)})
    assert twisted_action(h) == expected


@pytest.mark.parametrize("make", [
    lambda: cyclic_truss(RATIONALS, 4),
    lambda: z4_circle_truss(RATIONALS),
    lambda: truss_from_tables(F5, cyclic_table(3), right_projection_tables(3)),
    lambda: truss_from_tables(RATIONALS, cyclic_table(2), [[1, 0], [0, 1]]),
])
def test_second_product_factors_through_twisted_action(make):
    # mu2 = mu1∘(cocycle (x) Gamma)∘(delta (x) id), a consequence of the axioms
    h = make()
    n = h.dim
    idn = identity(h.field, n)
    recovered = h.mu1 @ kron(h.cocycle, twisted_action(h)) @ kron(h.comonoid.delta, idn)
    assert recovered == h.mu2


@pytest.mark.parametrize("make", [
    lambda: cyclic_truss(F5, 4),
    lambda: z4_circle_truss(RATIONALS),
    lambda: truss_from_tables(RATIONALS, cyclic_table(3), left_projection_tables(3)),
])
def test_distributivity_in_twisted_product_form(make):
    # equivalent right-handed form of the compatibility law
    h = make()
    n = h.dim
    idn = identity(h.field, n)
    mid = kron(kron(idn, flip(n, n, h.field)), idn)
    lhs = h.mu2 @ kron(idn, h.mu1)
    rhs = (h.mu1 @ kron(twisted_product(h), h.mu2)
           @ mid @ kron(h.comonoid.delta, kron(idn, idn)))
    assert lhs == rhs


# -- brace detection ----------------------------------------------------------


def test_trivial_truss_brace_antipode_is_group_inversion():
    h = cyclic_truss(RATIONALS, 3)
    s = hopf_brace_antipode(h)
    assert s == LinMap(RATIONALS, 3, 3, {(0, 0): 1, (2, 1): 1, (1, 2): 1})
    assert s == h.antipode


def test_z4_circle_brace_antipode_is_identity():
    # every element is its own circle inverse: a + a + 2a^2 = 2a(1+a) = 0 mod 4
    h = z4_circle_truss(RATIONALS)
    assert hopf_brace_antipode(h) == identity(RATIONALS, 4)
    assert h.antipode != identity(RATIONALS, 4)


def test_projection_trusses_are_not_braces():
    for t2 in (left_projection_tables(3), right_projection_tables(3)):
        h = truss_from_tables(RATIONALS, cyclic_table(3), t2)
        assert hopf_brace_antipode(h) is None


def test_shifted_product_is_not_a_brace():
    # the second product has a unit, but not the Hopf unit
    h = truss_from_tables(RATIONALS, cyclic_table(2), [[1, 0], [0, 1]])
    assert hopf_brace_antipode(h) is None


# -- verifier on broken inputs ------------------------------------------------


def test_every_single_entry_perturbation_is_caught():
    base = cyclic_truss(F5, 3)
    spots = [(0, 0), (1, 1), (1, 2), (2, 2), (0, 5), (2, 8), (1, 7)]
    broken = 0
    for name in ("mu1", "mu2", "antipode", "cocycle", "eta"):
        m = getattr(base, name)
        for i, j in spots:
            if i >= m.cod or j >= m.dom:
                continue
            parts = {
                "comonoid": base.comonoid, "eta": base.eta, "mu1": base.mu1,
                "mu2": base.mu2, "antipode": base.antipode, "cocycle": base.cocycle,
            }
            parts[name] = perturbed(m, i, j)
            rep = verify_hopf_truss(HopfTruss(**parts))
            assert not rep.ok, f"perturbing {name} at {(i, j)} went unnoticed"
            broken += 1
    assert broken >= 20


def test_wrong_antipode_pinned_to_antipode_checks():
    base = cyclic_truss(RATIONALS, 3)
    bad = HopfTruss(base.comonoid, base.eta, base.mu1, base.mu2,
                    identity(RATIONALS, 3), base.cocycle)
    rep = verify_hopf_truss(bad)
    assert not rep.named("h1.antipode.left").passed
    assert not rep.named("h1.antipode.right").passed
    # everything that does not involve the antipode still holds
    assert rep.named("h1.product.coproduct").passed
    assert rep.named("cocycle.derived").passed
    assert rep.named("h2.product.assoc").passed


def test_wrong_cocycle_pinned_to_cocycle_checks():
    base = cyclic_truss(RATIONALS, 3)
    shift = LinMap(RATIONALS, 3, 3, {((a + 1) % 3, a): 1 for a in range(3)})
    bad = HopfTruss(base.comonoid, base.eta, base.mu1, base.mu2,
                    base.antipode, shift)
    rep = verify_hopf_truss(bad)
    assert not rep.named("cocycle.derived").passed
    # a permutation is still a comonoid morphism
    assert rep.named("cocycle.comonoid.coproduct").passed
    assert rep.named("cocycle.comonoid.counit").passed


# -- dense maps through the fused kernels ----------------------------------------
#
# Every truss above is a group algebra, whose maps are monomial.  Moved
# along a unitriangular P with 1/2 above the diagonal, the same truss has
# dense maps (fractional over Q), so compose_tensor, tensor_apply and
# diagonal meet columns with several entries and sums that cancel.


def failing(rep):
    return [check.name for check in rep.failures()]


@pytest.mark.parametrize("field", [RATIONALS, F5], ids=str)
def test_moved_z4_truss_passes_every_law(field):
    h = cyclic_truss(field, 4)
    moved = h.moved({"dim": unitriangular(field, 4)})
    assert len(moved.mu1.items()) > 2 * len(h.mu1.items())
    assert verify_hopf_truss(moved).ok
    c = cocycle_of_truss(moved)
    assert verify_cocycle(c).ok
    assert roundtrip_report(c).ok


@pytest.mark.parametrize("field", [RATIONALS, F5], ids=str)
@pytest.mark.parametrize("defect, caught", [("antipode", "h1.antipode.left"),
                                             ("cocycle", "cocycle.derived")])
def test_moved_defects_fail_exactly_the_checks_they_fail_unmoved(field, defect, caught):
    base = cyclic_truss(field, 4)
    if defect == "antipode":
        bad = HopfTruss(base.comonoid, base.eta, base.mu1, base.mu2,
                        identity(field, 4), base.cocycle)
    else:
        shift = LinMap(field, 4, 4, {((a + 1) % 4, a): 1 for a in range(4)})
        bad = HopfTruss(base.comonoid, base.eta, base.mu1, base.mu2, base.antipode, shift)
    unmoved = failing(verify_hopf_truss(bad))
    assert caught in unmoved
    assert failing(verify_hopf_truss(bad.moved({"dim": unitriangular(field, 4)}))) == unmoved


def test_incompatible_products_pinned_to_distributivity():
    # every row the idempotent map (0,1,0): an associative table whose
    # rows are not translates of group endomorphisms
    t2 = [[0, 1, 0]] * 3
    h = truss_from_tables(RATIONALS, cyclic_table(3), t2)
    rep = verify_hopf_truss(h)
    assert rep.named("h2.product.assoc").passed
    assert not rep.named("compat.distributivity").passed


def test_shape_mismatch_rejected_at_construction():
    base = cyclic_truss(RATIONALS, 3)
    with pytest.raises(DimensionMismatchError):
        HopfTruss(base.comonoid, base.eta, base.mu1,
                  identity(RATIONALS, 3), base.antipode, base.cocycle)


# -- morphisms ----------------------------------------------------------------


def test_identity_is_a_truss_morphism():
    h = z4_circle_truss(RATIONALS)
    rep = verify_morphism({"dim": identity(RATIONALS, 4)}, h, h)
    assert rep.ok, str(rep)


def test_counit_style_collapse_is_a_morphism_to_the_point():
    # fold Z3 onto the one-element truss; all structure collapses to scalars
    src = cyclic_truss(RATIONALS, 3)
    dst = cyclic_truss(RATIONALS, 1)
    fold = LinMap(RATIONALS, 1, 3, {(0, a): 1 for a in range(3)})
    rep = verify_morphism({"dim": fold}, src, dst)
    assert rep.ok, str(rep)


def test_doubling_map_on_z4_intertwines_circle_products():
    # x -> 2x is a group endomorphism of Z4 fixing the circle product too
    f = LinMap(RATIONALS, 4, 4, {((2 * a) % 4, a): 1 for a in range(4)})
    h = z4_circle_truss(RATIONALS)
    rep = verify_morphism({"dim": f}, h, h)
    assert rep.ok, str(rep)
    assert rep.named("cocycle").passed


def test_non_morphism_is_rejected():
    src = cyclic_truss(RATIONALS, 3)
    rot = LinMap(RATIONALS, 3, 3, {((a + 1) % 3, a): 1 for a in range(3)})
    rep = verify_morphism({"dim": rot}, src, src)
    assert not rep.ok
    assert not rep.named("eta").passed
