"""Hopf modules, coinvariants, the fundamental isomorphism, induction."""

from fractions import Fraction

import pytest

from conftest import count_calls, cyclic_table, cyclic_truss, hook_runs, perturbed, truss_from_tables
from trusslab import hopfmodules
from trusslab.coalgebra import ComonoidData, HopfMonoidData, verify_morphism
from trusslab.errors import DimensionMismatchError, InvalidStructureError
from trusslab.fields import RATIONALS, prime_field
from trusslab.hopfmodules import (
    ComoduleData,
    HopfModuleData,
    TrussHopfModule,
    adjunction_check,
    coinvariants,
    fundamental_iso,
    induction_functor,
    verify_comodule,
    verify_hopf_module,
    verify_truss_hopf_module,
)
from trusslab.hopftruss import HopfTruss
from trusslab.linmap import LinMap, identity, kron, rank
from trusslab.report import VerificationReport

F2 = prime_field(2)
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
]


def primitive_hopf_monoid() -> HopfMonoidData:
    """Characteristic-2 bundle on one primitive generator x with x*x = 0."""
    comonoid = ComonoidData(
        2,
        LinMap(F2, 4, 2, {(0, 0): 1, (1, 1): 1, (2, 1): 1}),
        LinMap(F2, 1, 2, {(0, 0): 1}))
    return HopfMonoidData(
        comonoid,
        LinMap(F2, 2, 1, {(0, 0): 1}),
        LinMap(F2, 2, 4, {(0, 0): 1, (1, 1): 1, (1, 2): 1}),
        identity(F2, 2))


def regular_hopf_module(h: HopfMonoidData) -> HopfModuleData:
    return HopfModuleData(h, h.mu, h.comonoid.delta)


def regular_truss_hopf_module(t) -> TrussHopfModule:
    return TrussHopfModule(t, t.mu1, t.mu2, t.comonoid.delta)


# -- comodules and plain Hopf modules -----------------------------------------


def test_trivial_comodule_passes():
    h = cyclic_truss(RATIONALS, 3).hopf_part()
    rho = kron(h.eta, identity(RATIONALS, 2))
    assert verify_comodule(ComoduleData(h.comonoid, rho)).ok


def test_scaled_coaction_fails_counit():
    h = cyclic_truss(RATIONALS, 2).hopf_part()
    rho = kron(h.eta, identity(RATIONALS, 2)).scale(2)
    rep = verify_comodule(ComoduleData(h.comonoid, rho))
    assert not rep.named("counit").passed


@pytest.mark.parametrize("make", FIXTURE_TRUSSES)
def test_regular_hopf_module_passes(make):
    rep = verify_hopf_module(regular_hopf_module(make().hopf_part()))
    assert rep.ok, str(rep)


def test_primitive_hopf_monoid_regular_module_passes():
    rep = verify_hopf_module(regular_hopf_module(primitive_hopf_monoid()))
    assert rep.ok, str(rep)


def test_perturbed_coaction_fails_counit_law():
    h = cyclic_truss(RATIONALS, 2).hopf_part()
    m = HopfModuleData(h, h.mu, perturbed(h.comonoid.delta, 0, 1))
    rep = verify_hopf_module(m)
    assert not rep.named("comodule.counit").passed


def test_wrong_shape_action_rejected():
    h = cyclic_truss(RATIONALS, 2).hopf_part()
    with pytest.raises(DimensionMismatchError):
        HopfModuleData(h, identity(RATIONALS, 2), h.comonoid.delta)


# -- coinvariants -------------------------------------------------------------


def test_regular_coinvariants_over_group_algebra():
    h = cyclic_truss(RATIONALS, 2).hopf_part()
    w = coinvariants(regular_hopf_module(h))
    assert w.codim == 1
    # everything lands on the unit: q sends both basis vectors to e0
    assert w.idempotent == LinMap(RATIONALS, 2, 2, {(0, 0): 1, (0, 1): 1})
    assert rank(w.idempotent) == 1
    assert w.inclusion == LinMap(RATIONALS, 2, 1, {(0, 0): 1})
    assert w.retraction == LinMap(RATIONALS, 1, 2, {(0, 0): 1, (0, 1): 1})


def test_regular_coinvariants_over_primitive_bundle():
    w = coinvariants(regular_hopf_module(primitive_hopf_monoid()))
    assert w.codim == 1
    assert w.idempotent == LinMap(F2, 2, 2, {(0, 0): 1})
    assert w.inclusion == LinMap(F2, 2, 1, {(0, 0): 1})
    assert w.retraction == LinMap(F2, 1, 2, {(0, 0): 1})


def test_coinvariants_of_one_dimensional_hopf_monoid():
    h = cyclic_truss(RATIONALS, 1).hopf_part()
    m = HopfModuleData(h, identity(RATIONALS, 3), identity(RATIONALS, 3))
    w = coinvariants(m)
    assert w.codim == 3
    assert w.inclusion == identity(RATIONALS, 3)
    assert w.idempotent == identity(RATIONALS, 3)


COINVARIANT_MODULES = [
    pytest.param(lambda make=make: regular_truss_hopf_module(make()), id=f"regular-{i}")
    for i, make in enumerate(FIXTURE_TRUSSES)
] + [
    pytest.param(lambda make=make, x=x: induction_functor(make(), x), id=f"induced-{i}-{x}")
    for i, make in enumerate(FIXTURE_TRUSSES) for x in range(4)
]


@pytest.mark.parametrize("make", COINVARIANT_MODULES)
def test_coinvariants_split_the_idempotent_onto_the_kernel(make):
    m = make().hopf_module()
    h, field = m.hopf, m.field
    w = coinvariants(m)
    assert w.inclusion @ w.retraction == w.idempotent
    assert w.retraction @ w.inclusion == identity(field, w.codim)
    assert rank(w.idempotent) == w.codim
    assert m.coaction @ w.inclusion == kron(h.eta, w.inclusion)


def _over_the_unit_monoid(action_rows, coaction_rows) -> HopfModuleData:
    h = cyclic_truss(RATIONALS, 1).hopf_part()
    return HopfModuleData(h, LinMap.from_rows(RATIONALS, action_rows),
                          LinMap.from_rows(RATIONALS, coaction_rows))


# Over the one-dimensional Hopf monoid q = action∘coaction.  None of these
# is a Hopf module; each breaks exactly one identity the split demands.
BROKEN_SPLITS = [
    ([[1, 1], [0, 1]], [[1, 0], [0, 1]], "idempotent squares to itself"),
    ([[Fraction(1, 2)]], [[2]], "coaction is the unit on the image"),
    # the kernel is everything, q keeps only e0
    ([[1, 0], [0, 0]], [[1, 0], [0, 1]], "retraction splits the inclusion"),
    # q = [[1, 2], [0, 0]] projects onto the kernel span(e0), t = (1 2)
    ([[1, 1], [0, 0]], [[1, 0], [0, 2]], "retraction kills the action"),
]


@pytest.mark.parametrize("action,coaction,label", BROKEN_SPLITS)
def test_each_coinvariant_identity_is_demanded(monkeypatch, action, coaction, label):
    # with the module laws waved through, the split's own demands must refuse
    monkeypatch.setattr(hopfmodules, "verify_hopf_module",
                        lambda m: VerificationReport("hopfmodule"))
    with pytest.raises(InvalidStructureError, match=label):
        coinvariants(_over_the_unit_monoid(action, coaction))


def test_coinvariants_rejects_invalid_module():
    h = cyclic_truss(RATIONALS, 2).hopf_part()
    m = HopfModuleData(h, h.mu, perturbed(h.comonoid.delta, 0, 1))
    with pytest.raises(InvalidStructureError):
        coinvariants(m)


# -- Hopf modules over a truss ------------------------------------------------


@pytest.mark.parametrize("make", FIXTURE_TRUSSES)
def test_regular_truss_hopf_module_passes(make):
    rep = verify_truss_hopf_module(regular_truss_hopf_module(make()))
    assert rep.ok, str(rep)


@pytest.mark.parametrize("make", FIXTURE_TRUSSES)
def test_induction_module_passes(make):
    rep = verify_truss_hopf_module(induction_functor(make(), 2))
    assert rep.ok, str(rep)


def test_induction_coinvariant_condition_reduces_to_the_cocycle():
    t = shifted_z2_truss(RATIONALS)
    m = induction_functor(t, 2)
    j = coinvariants(m.hopf_module()).inclusion
    reduced = kron(t.cocycle, identity(RATIONALS, 2))
    assert m.act1 @ kron(t.cocycle, j) == reduced
    assert m.act2 @ kron(identity(RATIONALS, 2), j) == reduced


def test_wrong_cocycle_fails_the_coinvariant_condition():
    t = shifted_z2_truss(RATIONALS)
    from trusslab.hopftruss import HopfTruss
    wrong = HopfTruss(t.comonoid, t.eta, t.mu1, t.mu2, t.antipode,
                      identity(RATIONALS, 2))
    rep = verify_truss_hopf_module(regular_truss_hopf_module(wrong))
    assert not rep.named("coinvariants.compat").passed


# -- fundamental isomorphism --------------------------------------------------


@pytest.mark.parametrize("make", FIXTURE_TRUSSES)
def test_fundamental_iso_on_regular_module(make):
    t = make()
    theta, theta_inv, rep = fundamental_iso(regular_truss_hopf_module(t))
    assert rep.ok, str(rep)
    # the coinvariants of the regular object are the span of the unit
    assert theta == identity(t.field, t.dim)


@pytest.mark.parametrize("make", FIXTURE_TRUSSES)
@pytest.mark.parametrize("xdim", [1, 2, 3])
def test_fundamental_iso_on_induction_modules(make, xdim):
    t = make()
    theta, theta_inv, rep = fundamental_iso(induction_functor(t, xdim))
    assert rep.ok, str(rep)
    assert theta == identity(t.field, t.dim * xdim)
    assert theta_inv == identity(t.field, t.dim * xdim)


def test_fundamental_iso_rejects_broken_input():
    t = cyclic_truss(RATIONALS, 2)
    m = TrussHopfModule(t, t.mu1, t.mu2, perturbed(t.comonoid.delta, 0, 1))
    with pytest.raises(InvalidStructureError):
        fundamental_iso(m)


def count_work(monkeypatch):
    """Count what really gets computed: "nullspace" for each coinvariant
    split and each law evaluated, by check name.  A memoized result that
    is reused makes neither."""
    return count_calls(monkeypatch, "nullspace", "equation")


def test_fundamental_iso_verifies_and_splits_the_module_once(monkeypatch):
    counts = count_work(monkeypatch)
    theta, theta_inv, rep = fundamental_iso(induction_functor(cyclic_truss(RATIONALS, 3), 2))
    assert rep.ok
    # compat.coaction is verify_hopf_module's own law
    assert (counts["compat.coaction"], counts["nullspace"]) == (1, 1)


def test_zero_dimensional_induction_is_vacuously_fine():
    t = cyclic_truss(RATIONALS, 3)
    m = induction_functor(t, 0)
    assert m.mdim == 0
    assert verify_truss_hopf_module(m).ok
    theta, theta_inv, rep = fundamental_iso(m)
    assert rep.ok
    assert theta.shape == (0, 0)


# -- induction as a functor ---------------------------------------------------


def test_induction_transports_morphisms():
    # induction sends a: X -> Y to (id, id (x) a), a morphism of truss Hopf modules
    t = z4_circle_truss(RATIONALS)
    a = LinMap(RATIONALS, 3, 2, {(0, 0): 1, (2, 1): 1, (1, 1): 2})
    src, dst = induction_functor(t, 2), induction_functor(t, 3)
    idt = identity(RATIONALS, 4)
    rep = verify_morphism({"dim": idt, "carrier": kron(idt, a)}, src, dst)
    assert rep.ok, str(rep)
    assert [c.name for c in rep.checks][-3:] == ["act1", "act2", "coaction"]


def test_negative_induction_dimension_rejected():
    with pytest.raises(DimensionMismatchError):
        induction_functor(cyclic_truss(RATIONALS, 2), -1)


# -- adjunction ---------------------------------------------------------------


@pytest.mark.parametrize("make", FIXTURE_TRUSSES)
def test_adjunction_on_induction_modules(make):
    t = make()
    rep = adjunction_check(t, 2, induction_functor(t, 2))
    assert rep.ok, str(rep)


def test_adjunction_on_regular_module():
    t = cyclic_truss(RATIONALS, 2)
    rep = adjunction_check(t, 1, regular_truss_hopf_module(t))
    assert rep.ok, str(rep)


def test_adjunction_mixed_dimensions(monkeypatch):
    t = right_projection_truss(F5, 3)
    counts = count_work(monkeypatch)
    rep = adjunction_check(t, 3, induction_functor(t, 2))
    assert rep.ok, str(rep)
    # the free module on 3 dimensions, and m, which is the free module on
    # 2 that its coinvariants induce again
    assert (counts["compat.coaction"], counts["nullspace"]) == (2, 2)


def test_adjunction_splits_the_free_module_once(monkeypatch):
    t = cyclic_truss(F5, 4)
    counts = count_work(monkeypatch)
    assert adjunction_check(t, 2, induction_functor(t, 2)).ok
    # m equals the free module on 2 dimensions, which is both the inducing
    # module and the module rebuilt from its coinvariants: one split
    assert (counts["compat.coaction"], counts["nullspace"]) == (1, 1)


def test_theta_and_its_comodule_law_are_built_once(monkeypatch):
    # fundamental_iso and adjunction_check read theta = act1∘(id (x) inclusion)
    # and (id (x) theta)∘(delta (x) id) of one module: triangle.free builds
    # the free module's theta, which is m's, and counit.comodule is
    # intertwine.coaction's check renamed.  Every run of the two kernels
    # is watched, and counted when its operands are theta's: the kernel
    # memo answers every later call on the same values.  theta's value is
    # built here through kron, so that its compose_tensor run is still to come.
    t = cyclic_truss(F5, 4)
    m = induction_functor(t, 2)
    built = {"theta": 0, "spread": 0}

    def watch(key, operand):
        def wrap(kernel):
            def watched(*args):
                built[key] += operand(args)
                return kernel(*args)
            return watched
        return wrap
    w = coinvariants(m.hopf_module())
    idt = identity(F5, 4)
    theta = m.act1 @ kron(idt, w.inclusion)
    hook_runs(monkeypatch, "compose_tensor", watch("theta", lambda args: args == (m.act1, idt, w.inclusion)))
    hook_runs(monkeypatch, "tensor_compose", watch("spread", lambda args: args[1] == theta))
    assert fundamental_iso(m)[2].ok and adjunction_check(t, 2, m).ok
    assert built == {"theta": 1, "spread": 1}


def test_adjunction_flags_corrupted_coaction():
    t = cyclic_truss(RATIONALS, 2)
    m = TrussHopfModule(t, t.mu1, t.mu2, perturbed(t.comonoid.delta, 0, 1))
    rep = adjunction_check(t, 1, m)
    assert not rep.ok
    assert not rep.named("counit.comodule").passed


def test_adjunction_reports_free_coinvariants_of_another_dimension():
    # Q^2 on e1, e2 with delta(e_i) = e_i (x) e_i, e_i e_j = delta_ij e_i and
    # 1 = e1 + e2: the free module on one dimension is a Hopf module with no
    # coinvariants, so the checks comparing them with Q are left out
    delta = LinMap(RATIONALS, 4, 2, {(0, 0): 1, (3, 1): 1})
    eps = LinMap(RATIONALS, 1, 2, {(0, 0): 1, (0, 1): 1})
    eta = LinMap(RATIONALS, 2, 1, {(0, 0): 1, (1, 0): 1})
    mu = LinMap(RATIONALS, 2, 4, {(0, 0): 1, (1, 3): 1})
    h = HopfTruss(ComonoidData(2, delta, eps), eta, mu, mu, LinMap.zero(RATIONALS, 2, 2),
                  identity(RATIONALS, 2))
    m = induction_functor(h, 1)
    assert verify_hopf_module(m.hopf_module()).ok
    rep = adjunction_check(h, 1, m)
    assert [(c.name, c.passed) for c in rep.checks] == [
        ("induction.dimension", False), ("counit.comodule", True), ("triangle.coinvariants", True)]
    assert rep.named("induction.dimension").detail == "got 0, expected 1"


def test_adjunction_zero_dimension():
    t = cyclic_truss(RATIONALS, 2)
    rep = adjunction_check(t, 0, induction_functor(t, 0))
    assert rep.ok, str(rep)
