"""Left modules over a Hopf truss and over an invertible cocycle.

A truss module is one carrier with two actions, a unital one for the
Hopf product and a plain one for the second product, tied by a twisted
distributivity law shaped exactly like the truss's own. A cocycle
module splits the two actions over the two ends of the comparison map:
the Hopf monoid acts on the main carrier, the bimonoid acts on a second
carrier identified with the first by an isomorphism.

The three functors here move modules between the two pictures:
restrict_along pulls a cocycle module back over a morphism of cocycles,
functor_G_H reads a truss module as a module over the identity cocycle
of its truss, and functor_H_tr_pi collapses a cocycle module onto the
transported truss. One composite is the identity on truss modules; the
other lands on an isomorphic cocycle module with comparison map id.
"""

from __future__ import annotations

from .cocycle import (
    CocycleMorphism,
    InvertibleCocycle,
    cocycle_of_truss,
    truss_of_cocycle,
)
from .coalgebra import Structure, diagonal, verify_morphism
from .errors import (
    InvalidStructureError,
    NotInvertibleError,
)
from .hopftruss import HopfTruss, twisted_action, twisted_product
from .linmap import LinMap, compose_tensor, identity, invert, kron
from .record import memoized
from .report import VerificationReport, condition, equation


class TrussModule(Structure):
    """Carrier with a unital action of mu1 and a plain action of mu2."""

    PARTS = (("truss", HopfTruss, None),)
    MAPS = (("act1", "carrier", "dim*carrier"), ("act2", "carrier", "dim*carrier"))

    @property
    def mdim(self) -> int:
        return self.act1.cod


class PiModule(Structure):
    """Module over an invertible cocycle: two carriers, three actions.

    hopf_action makes the main carrier a unital module over the Hopf
    monoid, base_action a non-unital module over the bimonoid on the
    second carrier, and mixed_action is the bimonoid acting on the main
    carrier through the cocycle data. compare identifies the carriers.
    """

    PARTS = (("system", InvertibleCocycle, None),)
    MAPS = (("mixed_action", "carrier", "source*carrier"),
            ("hopf_action", "carrier", "target*carrier"),
            ("base_action", "second", "source*second"),
            ("compare", "carrier", "second"))

    @property
    def mdim(self) -> int:
        return self.compare.cod

    @property
    def ndim(self) -> int:
        return self.compare.dom


@memoized
def module_twisted_action(m: TrussModule) -> LinMap:
    """Gamma on the module: act1∘((antipode∘cocycle) (x) act2)∘(delta (x) id)."""
    t = m.truss
    return m.act1 @ diagonal(t.comonoid.delta, t.antipode @ t.cocycle, m.act2)


def regular_truss_module(h: HopfTruss) -> TrussModule:
    """The truss acting on itself by both products."""
    return TrussModule(h, h.mu1, h.mu2)


def trivial_truss_module(h: HopfTruss) -> TrussModule:
    """The base field with both actions given by the counit."""
    eps = h.comonoid.epsilon
    return TrussModule(h, eps, eps)


def induction_truss_module(h: HopfTruss, xdim: int) -> TrussModule:
    """Free module on an xdim-dimensional space: both actions on the left leg."""
    idx = identity(h.field, xdim)
    return TrussModule(h, kron(h.mu1, idx), kron(h.mu2, idx))


@memoized
def verify_truss_module(m: TrussModule) -> VerificationReport:
    """Both action laws, twisted distributivity, and its two derived forms."""
    t = m.truss
    idn, idm = identity(t.field, t.dim), identity(t.field, m.mdim)
    delta = t.comonoid.delta
    gamma_m = module_twisted_action(m)
    return VerificationReport("trussmodule").with_checks(
        equation("act1.unit", "act1∘(eta (x) id) = id",
                 compose_tensor(m.act1, t.eta, idm), idm),
        equation("act1.product", "act1∘(id (x) act1) = act1∘(mu1 (x) id)",
                 compose_tensor(m.act1, idn, m.act1), compose_tensor(m.act1, t.mu1, idm)),
        equation("act2.product", "act2∘(id (x) act2) = act2∘(mu2 (x) id)",
                 compose_tensor(m.act2, idn, m.act2), compose_tensor(m.act2, t.mu2, idm)),
        equation("compat.distributivity",
                 "act2∘(id (x) act1) = act1∘(mu2 (x) GammaM)∘(id (x) swap (x) id)∘(delta (x) id (x) id)",
                 compose_tensor(m.act2, idn, m.act1),
                 m.act1 @ diagonal(delta, t.mu2, gamma_m)),
        equation("compat.distributivity.alt",
                 "act2∘(id (x) act1) = act1∘(Lambda (x) act2)∘(id (x) swap (x) id)∘(delta (x) id (x) id)",
                 compose_tensor(m.act2, idn, m.act1),
                 m.act1 @ diagonal(delta, twisted_product(t), m.act2)),
        equation("compat.derived",
                 "GammaM∘(id (x) act1) = act1∘(Gamma (x) GammaM)∘(id (x) swap (x) id)∘(delta (x) id (x) id)",
                 compose_tensor(gamma_m, idn, m.act1),
                 m.act1 @ diagonal(delta, twisted_action(t), gamma_m)),
    )


def regular_pi_module(c: InvertibleCocycle) -> PiModule:
    """The cocycle acting on itself: products as actions, the cocycle as compare."""
    return PiModule(c, c.action, c.hopf.mu, c.bimonoid.mu, c.cocycle)


@memoized
def verify_pi_module(m: PiModule) -> VerificationReport:
    """All defining laws of a cocycle module plus the two derived identities."""
    c = m.system
    field = c.field
    idb, idh = identity(field, c.bimonoid.dim), identity(field, c.hopf.dim)
    idm, idn = identity(field, m.mdim), identity(field, m.ndim)
    delta_b = c.bimonoid.comonoid.delta
    through = c.cocycle @ c.twist
    intertwined = m.hopf_action @ diagonal(delta_b, through, m.mixed_action, m.compare)

    rep = VerificationReport("pimodule").with_checks(
        equation("hopf-action.unit", "hopf_action∘(eta (x) id) = id",
                 compose_tensor(m.hopf_action, c.hopf.eta, idm), idm),
        equation("hopf-action.product",
                 "hopf_action∘(id (x) hopf_action) = hopf_action∘(mu (x) id)",
                 compose_tensor(m.hopf_action, idh, m.hopf_action),
                 compose_tensor(m.hopf_action, c.hopf.mu, idm)),
        equation("base-action.product",
                 "base_action∘(id (x) base_action) = base_action∘(mu (x) id)",
                 compose_tensor(m.base_action, idb, m.base_action),
                 compose_tensor(m.base_action, c.bimonoid.mu, idn)),
        equation("compat.mixed",
                 "mixed∘(id (x) hopf_action) = hopf_action∘(action (x) mixed)∘(id (x) swap (x) id)∘(delta (x) id (x) id)",
                 compose_tensor(m.mixed_action, idb, m.hopf_action),
                 m.hopf_action @ diagonal(delta_b, c.action, m.mixed_action)),
        equation("compare.intertwine",
                 "compare∘base_action = hopf_action∘((cocycle∘twist) (x) mixed)∘(delta (x) compare)",
                 m.compare @ m.base_action, intertwined),
    )
    try:
        compare_inv = invert(m.compare)
    except NotInvertibleError:
        return rep.with_checks(condition(
            "compare.invertible", "compare map is an isomorphism",
            False, f"compare has shape {m.compare.shape} and is singular"))
    rep = rep.with_checks(condition(
        "compare.invertible", "compare map is an isomorphism", True))
    lam_through = c.hopf.antipode @ through
    return rep.with_checks(
        equation("derived.base",
                 "base_action = compare⁻¹∘hopf_action∘((cocycle∘twist) (x) mixed)∘(delta (x) compare)",
                 m.base_action, compare_inv @ intertwined),
        equation("derived.mixed",
                 "mixed = hopf_action∘((antipode∘cocycle∘twist) (x) (compare∘base_action))∘(delta (x) compare⁻¹)",
                 m.mixed_action,
                 m.hopf_action @ diagonal(delta_b, lam_through, m.compare @ m.base_action, compare_inv)),
    )


def verify_pi_module_morphism(h: LinMap, l: LinMap, src: PiModule,
                              dst: PiModule) -> VerificationReport:
    """verify_morphism with h on the carrier, l on the second carrier and
    identities on the system, and l determined by h through compare."""
    c = src.system
    f = {"source": identity(c.field, c.bimonoid.dim), "target": identity(c.field, c.hopf.dim),
         "carrier": h, "second": l}
    rep = verify_morphism(f, src, dst, "pimodule-morphism")
    try:
        determined = invert(dst.compare) @ h @ src.compare
    except NotInvertibleError:
        return rep.with_checks(condition(
            "compat.determined", "l = compare'⁻¹∘h∘compare",
            False, "target compare map is singular"))
    return rep.with_checks(
        equation("compat.determined", "l = compare'⁻¹∘h∘compare",
                 l, determined))


def restrict_along(fg: CocycleMorphism, source: InvertibleCocycle,
                   m: PiModule) -> PiModule:
    """Pull a module over the target of fg back to one over its source."""
    f, g = fg.source_map, fg.target_map
    field = source.field
    idm = identity(field, m.mdim)
    return PiModule(source,
                    compose_tensor(m.mixed_action, f, idm),
                    compose_tensor(m.hopf_action, g, idm),
                    compose_tensor(m.base_action, f, identity(field, m.ndim)),
                    m.compare)


def functor_G_H(m: TrussModule) -> PiModule:
    """Read a truss module as a module over the truss's identity cocycle."""
    c = cocycle_of_truss(m.truss)
    return PiModule(c, module_twisted_action(m), m.act1, m.act2,
                    identity(m.truss.field, m.mdim))


def functor_H_tr_pi(m: PiModule) -> TrussModule:
    """Collapse a cocycle module onto the transported truss.

    The second action is the base action conjugated through compare and
    the comparison map of the system; the mixed action must agree with
    the resulting twisted action transported back, which pins the
    construction and is checked here.
    """
    c = m.system
    t = truss_of_cocycle(c)
    pi_inv = invert(c.cocycle)
    compare_inv = invert(m.compare)
    out = TrussModule(t, m.hopf_action,
                      compose_tensor(m.compare @ m.base_action, pi_inv, compare_inv))
    transported = module_twisted_action(out)
    expected = compose_tensor(m.mixed_action, pi_inv, identity(c.field, m.mdim))
    if transported != expected:
        raise InvalidStructureError(
            "twisted action of the output disagrees with the mixed action; "
            "the input does not satisfy the cocycle-module laws")
    return out
