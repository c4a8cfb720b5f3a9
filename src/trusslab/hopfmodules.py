"""Hopf modules, coinvariants, and the fundamental isomorphism.

A Hopf module carries an action and a coaction whose interplay copies
the bimonoid compatibility law. Its coinvariants are the equalizer of
rho and eta (x) id, computed once as the kernel basis of their
difference: the idempotent q built from the antipode factors through
that basis, the factor is the retraction, and theta = act∘(id (x)
inclusion) is then invertible with inverse built from the retraction
and the coaction. Over a Hopf truss the same coinvariants must also
equalize the two actions through the cocycle, and induction from a
plain space is adjoint (in fact inverse) to taking coinvariants, which
is the content of the two triangle checks.
"""

from __future__ import annotations

from .coalgebra import Call, ComonoidData, Diag, Guard, HopfMonoidData, Structure, law_table, terms
from .errors import DimensionMismatchError, InvalidStructureError, TrussLabError
from .hopftruss import HopfTruss
from .linmap import LinMap, compose_tensor, identity, kron, nullspace, solve_through, tensor_compose
from .modules import TrussModule, verify_truss_module
from .record import Record, memoized
from .report import VerificationReport, condition, equation


class ComoduleData(Structure):
    """Carrier with a coaction of a comonoid on the left."""

    PARTS = (("comonoid", ComonoidData, None),)
    MAPS = (("coaction", "dim*carrier", "carrier"),)


class HopfModuleData(Structure):
    """Module and comodule over one Hopf monoid, compatibly."""

    PARTS = (("hopf", HopfMonoidData, None),)
    MAPS = (("action", "carrier", "dim*carrier"),) + ComoduleData.MAPS

    # memoized views: each is a new record, and its report memo would die with it
    @memoized
    def comodule(self) -> ComoduleData:
        return ComoduleData(self.hopf.comonoid, self.coaction)


class TrussHopfModule(Structure):
    """Truss module that is also a comodule, compatible with both products."""

    PARTS = TrussModule.PARTS
    MAPS = TrussModule.MAPS + ComoduleData.MAPS

    # memoized views: each is a new record, and its report memo would die with it
    @memoized
    def truss_module(self) -> TrussModule:
        return TrussModule(self.truss, self.act1, self.act2)

    @memoized
    def hopf_module(self) -> HopfModuleData:
        return HopfModuleData(self.truss.hopf_part(), self.act1, self.coaction)


class CoinvariantData(Record):
    """The kernel of the coaction against the unit, with its retraction.

    inclusion is the kernel basis of rho - eta (x) id, the equalizer of
    rho and eta (x) id; retraction solves inclusion∘retraction =
    idempotent exactly and satisfies retraction∘inclusion = id, so the
    idempotent projects onto that kernel and no second basis of its
    image is needed.
    """

    inclusion: LinMap
    retraction: LinMap
    idempotent: LinMap

    @property
    def codim(self) -> int:
        return self.inclusion.dom


@law_table("comodule")
def verify_comodule():
    epsilon, delta, coaction, idn, idm = terms("comonoid.epsilon comonoid.delta coaction id id:carrier")
    return (("counit", "(epsilon (x) id)∘coaction = id", (epsilon * idm) @ coaction, idm),
            ("coassoc", "(delta (x) id)∘coaction = (id (x) coaction)∘coaction",
             (delta * idm) @ coaction, (idn * coaction) @ coaction))


@law_table("hopfmodule")
def verify_hopf_module():
    """Action laws, coaction laws, and their compatibility, all exact."""
    eta, mu, delta, action, coaction, idn, idm = terms(
        "hopf.eta hopf.mu hopf.comonoid.delta action coaction id id:carrier")
    return (("action.unit", "action∘(eta (x) id) = id", action @ (eta * idm), idm),
            ("action.product", "action∘(id (x) action) = action∘(mu (x) id)",
             action @ (idn * action), action @ (mu * idm)),
            (verify_comodule, "comodule", "comodule."),
            ("compat.coaction", "coaction∘action = (mu (x) action)∘(id (x) swap (x) id)∘(delta (x) coaction)",
             coaction @ action, Diag(delta, mu, action, coaction)))


def _demand(ok: bool, label: str) -> None:
    if not ok:
        raise InvalidStructureError(f"coinvariant identity failed: {label}")


# the split does elimination, which no kernel memo holds
@memoized
def coinvariants(m: HopfModuleData) -> CoinvariantData:
    """Split off the subspace on which the coaction is the unit.

    Every identity listed on CoinvariantData is verified on the way out.
    """
    rep = verify_hopf_module(m)
    if not rep.ok:
        raise InvalidStructureError("not a Hopf module", report=rep)
    h = m.hopf
    field = h.field
    idm = identity(field, m.mdim)

    j = LinMap.from_columns(field, m.mdim,
                            nullspace(m.coaction - kron(h.eta, idm)))
    q = m.action @ tensor_compose(h.antipode, idm, m.coaction)
    _demand(q @ q == q, "idempotent squares to itself")
    _demand(m.coaction @ q == kron(h.eta, q), "coaction is the unit on the image")
    # j∘t = q exactly, or solve_through raises; with t∘j = id below this
    # gives q∘j = j, so the image of q is the kernel j spans.
    t = solve_through(j, q)
    _demand(t @ j == identity(field, j.dom), "retraction splits the inclusion")
    _demand(t @ m.action == kron(h.comonoid.epsilon, t),
            "retraction kills the action")
    return CoinvariantData(j, t, q)


@law_table("trusshopfmodule")
def verify_truss_hopf_module():
    """Truss-module laws, Hopf-module laws over mu1, the mu2 compatibility,
    and the cocycle condition on coinvariants."""
    act1, act2, coaction, cocycle, mu2, delta, idn = terms(
        "act1 act2 coaction truss.cocycle truss.mu2 truss.comonoid.delta id")
    inclusion = Guard(Call(lambda m: coinvariants(m.hopf_module()).inclusion), "coinvariants unavailable: {1}")
    return ((verify_truss_module, "truss_module", "module."),
            (verify_hopf_module, "hopf_module", "h1."),
            ("h2.compat.coaction", "coaction∘act2 = (mu2 (x) act2)∘(id (x) swap (x) id)∘(delta (x) coaction)",
             coaction @ act2, Diag(delta, mu2, act2, coaction)),
            ("coinvariants.compat", "act1∘(cocycle (x) inclusion) = act2∘(id (x) inclusion)",
             act1 @ (cocycle * inclusion), act2 @ (idn * inclusion)))


def _theta(m: TrussHopfModule) -> LinMap:
    """theta = act1∘(id (x) inclusion), from the free module on m's coinvariants."""
    return compose_tensor(m.act1, identity(m.field, m.truss.dim), coinvariants(m.hopf_module()).inclusion)


# its first operand is built here, and the kernel memo would drop the result with it
@memoized
def _theta_inv(m: TrussHopfModule) -> LinMap:
    """theta_inv = (id (x) retraction)∘coaction, onto the free module."""
    return tensor_compose(identity(m.field, m.truss.dim), coinvariants(m.hopf_module()).retraction, m.coaction)


@law_table("fundamental")
def verify_fundamental():
    """theta two-sided invertible and intertwining both actions and the coaction."""
    act1, act2, coaction, mu1, mu2, delta, idn, idm = terms(
        "act1 act2 coaction truss.mu1 truss.mu2 truss.comonoid.delta id id:carrier")
    theta, theta_inv = Call(_theta), Call(_theta_inv)
    idw = Call(lambda m: identity(m.field, coinvariants(m.hopf_module()).codim))
    idf = Call(lambda m: identity(m.field, m.truss.dim * coinvariants(m.hopf_module()).codim))
    return (("inverse.left", "theta∘theta_inv = id", theta @ theta_inv, idm),
            ("inverse.right", "theta_inv∘theta = id", theta_inv @ theta, idf),
            ("intertwine.act1", "act1∘(id (x) theta) = theta∘(mu1 (x) id)",
             act1 @ (idn * theta), theta @ (mu1 * idw)),
            ("intertwine.act2", "act2∘(id (x) theta) = theta∘(mu2 (x) id)",
             act2 @ (idn * theta), theta @ (mu2 * idw)),
            ("intertwine.coaction", "coaction∘theta = (id (x) theta)∘(delta (x) id)",
             coaction @ theta, (idn * theta) @ (delta * idw)))


def fundamental_iso(m: TrussHopfModule) -> tuple[LinMap, LinMap, VerificationReport]:
    """The free module on the coinvariants, identified with m.

    Returns (theta, theta_inv, report); theta maps out of the free
    module, and the report certifies two-sided invertibility plus the
    three intertwine identities.
    """
    rep = verify_truss_hopf_module(m)
    if not rep.ok:
        raise InvalidStructureError("not a Hopf module over the truss", report=rep)
    return _theta(m), _theta_inv(m), verify_fundamental(m)


def induction_functor(h: HopfTruss, xdim: int) -> TrussHopfModule:
    """Free Hopf module on an xdim-dimensional space."""
    if xdim < 0:
        raise DimensionMismatchError("xdim must be non-negative")
    idx = identity(h.field, xdim)
    return TrussHopfModule(h, kron(h.mu1, idx), kron(h.mu2, idx),
                           kron(h.comonoid.delta, idx))


def adjunction_check(h: HopfTruss, xdim: int,
                     m: TrussHopfModule) -> VerificationReport:
    """Triangle identities for induction against coinvariants.

    The unit of the adjunction is the identity, so the free module's
    coinvariants must literally be the given space, and the counit is
    the fundamental map theta of m, a module over h, whose comodule law
    is the fundamental report's.  A free module whose coinvariants have
    another dimension leaves out the two checks that compare with it.
    """
    field = h.field
    free = induction_functor(h, xdim)
    w_free = coinvariants(free.hopf_module())
    checks = (condition("induction.dimension",
                        "coinvariants of the free module have the inducing dimension",
                        w_free.codim == xdim, f"got {w_free.codim}, expected {xdim}"),)
    if w_free.codim == xdim:
        checks += (equation("induction.inclusion", "inclusion = eta (x) id",
                            w_free.inclusion, kron(h.eta, identity(field, xdim))),
                   equation("triangle.free", "theta of the free module = id",
                            _theta(free), identity(field, h.dim * xdim)))
    try:
        w = coinvariants(m.hopf_module())
    except TrussLabError as err:
        return VerificationReport("adjunction", checks + (condition(
            "counit.comodule", "coaction∘theta = (id (x) theta)∘(delta (x) id)",
            False, f"coinvariants unavailable: {err}"),))
    w_round = w_free if w.codim == xdim else coinvariants(
        induction_functor(h, w.codim).hopf_module())
    if w_round.codim == w.codim:
        triangle = equation("triangle.coinvariants", "retraction∘theta∘inclusion = id",
                            w.retraction @ _theta(m) @ w_round.inclusion, identity(field, w.codim))
    else:
        triangle = condition("triangle.coinvariants", "retraction∘theta∘inclusion = id", False,
                             f"free coinvariants have dimension {w_round.codim}, expected {w.codim}")
    counit = verify_fundamental(m).named("intertwine.coaction").renamed("counit.comodule")
    return VerificationReport("adjunction", checks + (counit, triangle))
