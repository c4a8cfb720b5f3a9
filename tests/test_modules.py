"""Modules over trusses and cocycles, and the equivalence between them."""

import random

import pytest

from conftest import (
    count_calls,
    cyclic_table,
    cyclic_truss,
    flip,
    naturality_cases,
    permutation,
    perturbed,
    random_invertible,
    truss_from_tables,
)
from trusslab.coalgebra import Structure
from trusslab.cocycle import InvertibleCocycle, cocycle_of_truss, truss_of_cocycle
from trusslab.errors import DimensionMismatchError, InvalidStructureError, NotInvertibleError
from trusslab.fields import RATIONALS, prime_field
from trusslab.hopftruss import twisted_action, twisted_product
from trusslab.linmap import LinMap, identity, kron
from trusslab.modules import (
    PiModule,
    TrussModule,
    functor_G_H,
    functor_H_tr_pi,
    induction_truss_module,
    module_twisted_action,
    regular_pi_module,
    regular_truss_module,
    restrict_along,
    trivial_truss_module,
    verify_pi_module,
    verify_pi_module_morphism,
    verify_truss_module,
)
from trusslab.settruss import cyclic_group, linearize, symmetric_group, trivial_truss

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
    lambda: z4_circle_truss(RATIONALS),
    lambda: shifted_z2_truss(RATIONALS),
    lambda: right_projection_truss(F5, 3),
    lambda: linearize(trivial_truss(symmetric_group(3)), F5),
]

# permuted identity cocycles: cocycle map is a genuine change of basis
MOVED_COCYCLES = [
    lambda: cocycle_of_truss(cyclic_truss(RATIONALS, 2)).moved({"source": permutation(RATIONALS, (1, 0))}),
    lambda: cocycle_of_truss(z4_circle_truss(RATIONALS)).moved(
        {"source": permutation(RATIONALS, (1, 2, 3, 0))}),
    lambda: cocycle_of_truss(right_projection_truss(F5, 3)).moved({"source": permutation(F5, (2, 0, 1))}),
]


# -- modules over a truss -----------------------------------------------------


@pytest.mark.parametrize("make", FIXTURE_TRUSSES)
def test_regular_module_passes(make):
    rep = verify_truss_module(regular_truss_module(make()))
    assert rep.ok, str(rep)


@pytest.mark.parametrize("make", FIXTURE_TRUSSES)
def test_trivial_module_passes(make):
    rep = verify_truss_module(trivial_truss_module(make()))
    assert rep.ok, str(rep)


@pytest.mark.parametrize("make", FIXTURE_TRUSSES)
def test_induction_module_passes(make):
    rep = verify_truss_module(induction_truss_module(make(), 2))
    assert rep.ok, str(rep)


def test_zero_dimensional_induction_is_vacuous():
    m = induction_truss_module(cyclic_truss(RATIONALS, 3), 0)
    assert m.mdim == 0
    assert verify_truss_module(m).ok


def test_twisted_action_of_trivial_module_is_the_counit():
    h = z4_circle_truss(RATIONALS)
    assert module_twisted_action(trivial_truss_module(h)) == h.comonoid.epsilon


def test_twisted_action_of_regular_module_matches_truss_action():
    h = shifted_z2_truss(RATIONALS)
    assert module_twisted_action(regular_truss_module(h)) == twisted_action(h)


def test_mismatched_actions_fail_only_where_expected():
    h = z4_circle_truss(RATIONALS)
    rep = verify_truss_module(TrussModule(h, h.mu1, h.mu1))
    assert not rep.ok
    assert rep.named("act1.unit").passed
    assert rep.named("act1.product").passed
    assert not rep.named("compat.distributivity").passed


def test_distributivity_and_alternate_form_agree_even_when_broken():
    # with act1 intact the two right-hand sides are the same matrix, so the
    # two compatibility checks must pass or fail together
    h = z4_circle_truss(RATIONALS)
    good = regular_truss_module(h)
    bad = TrussModule(h, h.mu1, perturbed(h.mu2, 1, 3))
    for m in (good, bad):
        t = m.truss
        middle = kron(kron(identity(t.field, t.dim), flip(t.dim, t.dim, t.field)),
                      identity(t.field, m.mdim))
        spread = middle @ kron(t.comonoid.delta, identity(t.field, t.dim * m.mdim))
        lhs = m.act1 @ kron(t.mu2, module_twisted_action(m)) @ spread
        rhs = m.act1 @ kron(twisted_product(t), m.act2) @ spread
        assert lhs == rhs
        rep = verify_truss_module(m)
        assert (rep.named("compat.distributivity").passed
                == rep.named("compat.distributivity.alt").passed
                == (m is good))


def test_module_shape_mismatch_raises():
    h = cyclic_truss(RATIONALS, 2)
    with pytest.raises(DimensionMismatchError):
        TrussModule(h, h.mu1, identity(RATIONALS, 4))


# -- modules over a cocycle ---------------------------------------------------


@pytest.mark.parametrize("make", FIXTURE_TRUSSES)
def test_self_module_of_identity_cocycle_passes(make):
    rep = verify_pi_module(regular_pi_module(cocycle_of_truss(make())))
    assert rep.ok, str(rep)


@pytest.mark.parametrize("make", MOVED_COCYCLES)
def test_self_module_survives_source_transport(make):
    c = make()
    assert c.cocycle != identity(c.field, c.bimonoid.dim)
    rep = verify_pi_module(regular_pi_module(c))
    assert rep.ok, str(rep)


def test_one_dimensional_module_passes():
    c = cocycle_of_truss(z4_circle_truss(RATIONALS))
    eps_b = c.bimonoid.epsilon
    m = PiModule(c, eps_b, c.hopf.comonoid.epsilon, eps_b,
                 identity(RATIONALS, 1))
    assert verify_pi_module(m).ok


def test_singular_compare_fails_invertibility():
    c = cocycle_of_truss(cyclic_truss(RATIONALS, 2))
    m = regular_pi_module(c)
    squash = LinMap(RATIONALS, 2, 2, {(0, 0): 1, (0, 1): 1})
    bad = PiModule(c, m.mixed_action, m.hopf_action, m.base_action, squash)
    rep = verify_pi_module(bad)
    assert not rep.named("compare.invertible").passed


def test_derived_identities_never_fail_alone():
    # whenever the defining checks pass, the two derived ones must as well
    for make in MOVED_COCYCLES:
        rep = verify_pi_module(regular_pi_module(make()))
        assert rep.named("derived.base").passed
        assert rep.named("derived.mixed").passed


# -- module morphisms ---------------------------------------------------------


def test_identity_pair_is_a_module_morphism():
    m = regular_pi_module(cocycle_of_truss(z4_circle_truss(RATIONALS)))
    idn = identity(RATIONALS, 4)
    assert verify_pi_module_morphism(idn, idn, m, m).ok


def test_wrong_second_component_fails_compare_compatibility():
    c = MOVED_COCYCLES[0]()
    m = regular_pi_module(c)
    idn = identity(c.field, 2)
    # compare is the swap here, so l must equal compare⁻¹∘id∘compare = id
    wrong = LinMap(c.field, 2, 2, {(0, 1): 1, (1, 0): 1})
    rep = verify_pi_module_morphism(idn, wrong, m, m)
    assert not rep.named("compare").passed
    assert not rep.named("compat.determined").passed


def test_morphism_shape_mismatch_raises():
    m2 = regular_pi_module(cocycle_of_truss(cyclic_truss(RATIONALS, 2)))
    with pytest.raises(DimensionMismatchError):
        verify_pi_module_morphism(identity(RATIONALS, 3), identity(RATIONALS, 2),
                                  m2, m2)


# -- restriction --------------------------------------------------------------


def test_restrict_along_identity_is_identity():
    c = cocycle_of_truss(shifted_z2_truss(RATIONALS))
    m = regular_pi_module(c)
    fg = {"source": identity(RATIONALS, 2), "target": identity(RATIONALS, 2)}
    assert restrict_along(fg, c, m) == m


def test_restrict_along_inverse_pair_roundtrips():
    base = cocycle_of_truss(z4_circle_truss(RATIONALS))
    q = permutation(RATIONALS, (1, 2, 3, 0))
    q_inv = permutation(RATIONALS, (3, 0, 1, 2))
    moved = base.moved({"source": q})
    idh = identity(RATIONALS, 4)
    m = regular_pi_module(moved)
    pulled = restrict_along({"source": q, "target": idh}, base, m)
    assert verify_pi_module(pulled).ok
    assert restrict_along({"source": q_inv, "target": idh}, moved, pulled) == m


# -- the functors and the equivalence -----------------------------------------


@pytest.mark.parametrize("make", FIXTURE_TRUSSES)
def test_functor_to_cocycle_modules_preserves_validity(make):
    rep = verify_pi_module(functor_G_H(regular_truss_module(make())))
    assert rep.ok, str(rep)


def test_functor_on_trivial_module_gives_counit_actions():
    h = cyclic_truss(RATIONALS, 2)
    p = functor_G_H(trivial_truss_module(h))
    eps = h.comonoid.epsilon
    assert p.mixed_action == eps
    assert p.hopf_action == eps
    assert p.base_action == eps
    assert p.compare == identity(RATIONALS, 1)


@pytest.mark.parametrize("make", MOVED_COCYCLES)
def test_functor_to_truss_modules_sends_self_module_to_regular(make):
    c = make()
    out = functor_H_tr_pi(regular_pi_module(c))
    assert out == regular_truss_module(truss_of_cocycle(c))


def test_one_dimensional_system_collapses_to_trivial_module():
    c = cocycle_of_truss(cyclic_truss(RATIONALS, 1))
    out = functor_H_tr_pi(regular_pi_module(c))
    assert out == trivial_truss_module(truss_of_cocycle(c))


@pytest.mark.parametrize("singular", ["cocycle", "compare"])
def test_functor_refuses_a_singular_cocycle_or_compare_map(singular):
    c = cocycle_of_truss(cyclic_truss(RATIONALS, 2))
    m = regular_pi_module(c)
    squash = LinMap(RATIONALS, 2, 2, {(0, 0): 1, (0, 1): 1})
    if singular == "cocycle":
        c = InvertibleCocycle(c.bimonoid, c.hopf, squash, c.twist, c.action)
    compare = squash if singular == "compare" else m.compare
    bad = PiModule(c, m.mixed_action, m.hopf_action, m.base_action, compare)
    with pytest.raises(InvalidStructureError) as info:
        functor_H_tr_pi(bad)
    assert isinstance(info.value.__cause__, NotInvertibleError)


@pytest.mark.parametrize("field,t", naturality_cases())
def test_functor_to_truss_modules_undoes_any_move(field, t):
    rnd = random.Random(repr(t) + str(field))
    m = regular_truss_module(linearize(t, field))
    p, q = (random_invertible(rnd, field, m.mdim) for _ in range(2))
    assert functor_H_tr_pi(functor_G_H(m).moved({"source": q, "second": p})) == m


def test_functor_to_truss_modules_moves_only_the_maps_it_reads(monkeypatch):
    # One call builds the truss and the module and nothing else: the
    # cocycle system is not moved and rebuilt, and no map with a tensor
    # codomain (the system's coproduct) is moved.
    m = functor_G_H(regular_truss_module(linearize(trivial_truss(cyclic_group(4)), prime_field(7))))
    built, check = [], Structure.__post_init__

    def counted(self):
        built.append(type(self).__name__)
        check(self)
    monkeypatch.setattr(Structure, "__post_init__", counted)
    kernels = count_calls(monkeypatch, "tensor_compose")
    out = functor_H_tr_pi(m)
    assert sorted(built) == ["HopfTruss", "TrussModule"] and kernels == {}
    assert verify_truss_module(out).ok


def test_functor_rejects_corrupted_mixed_action():
    c = MOVED_COCYCLES[1]()
    m = regular_pi_module(c)
    bad = PiModule(c, perturbed(m.mixed_action, 0, 2), m.hopf_action,
                   m.base_action, m.compare)
    with pytest.raises(InvalidStructureError):
        functor_H_tr_pi(bad)


def comparison_morphism(c):
    """The cocycle-map-and-identity pair from a system to its rebuilt form."""
    hdim = c.hopf.dim
    return {"source": c.cocycle, "target": identity(c.field, hdim)}


@pytest.mark.parametrize("make", MOVED_COCYCLES)
@pytest.mark.parametrize("build", [
    regular_truss_module,
    trivial_truss_module,
    lambda h: induction_truss_module(h, 2),
])
def test_composite_is_the_identity_on_truss_modules(make, build):
    c = make()
    m = build(truss_of_cocycle(c))
    down = restrict_along(comparison_morphism(c), c, functor_G_H(m))
    assert functor_H_tr_pi(down) == m


@pytest.mark.parametrize("make", MOVED_COCYCLES)
def test_reverse_composite_is_isomorphic_via_compare(make):
    c = make()
    m = regular_pi_module(c)
    back = restrict_along(comparison_morphism(c), c,
                          functor_G_H(functor_H_tr_pi(m)))
    assert back.compare == identity(c.field, m.mdim)
    assert verify_pi_module(back).ok
    pair = verify_pi_module_morphism(identity(c.field, m.mdim), m.compare,
                                     m, back)
    assert pair.ok, str(pair)
