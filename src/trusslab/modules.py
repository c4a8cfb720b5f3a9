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

from .cocycle import InvertibleCocycle, cocycle_of_truss, truss_of_cocycle
from .coalgebra import Call, Diag, Guard, Structure, diagonal, law_table, terms, verify_morphism
from .errors import InvalidStructureError, NotInvertibleError
from .hopftruss import HopfTruss, twisted_action, twisted_product
from .linmap import LinMap, compose_tensor, identity, kron
from .report import VerificationReport


class TrussModule(Structure):
    """Carrier with a unital action of mu1 and a plain action of mu2."""

    PARTS = (("truss", HopfTruss, None),)
    MAPS = (("act1", "carrier", "dim*carrier"), ("act2", "carrier", "dim*carrier"))


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
    # a morphism's map l on the second carrier is fixed by its map h on the carrier
    MORPHISM_EXTRA = tuple(
        ("compat.determined", "l = compare'⁻¹∘h∘compare", l,
         Guard(~compare_dst, "target compare map is singular") @ h @ compare)
        for l, h, compare, compare_dst in [terms("f_second f_carrier src.compare dst.compare")])

    @property
    def ndim(self) -> int:
        return self.compare.dom


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


@law_table("trussmodule")
def verify_truss_module():
    """Both action laws, twisted distributivity, and its two derived forms."""
    truss, eta, mu1, mu2, delta, act1, act2, idn, idm = terms(
        "truss truss.eta truss.mu1 truss.mu2 truss.comonoid.delta act1 act2 id id:carrier")
    gamma_m = Call(module_twisted_action)
    return (("act1.unit", "act1∘(eta (x) id) = id", act1 @ (eta * idm), idm),
            ("act1.product", "act1∘(id (x) act1) = act1∘(mu1 (x) id)",
             act1 @ (idn * act1), act1 @ (mu1 * idm)),
            ("act2.product", "act2∘(id (x) act2) = act2∘(mu2 (x) id)",
             act2 @ (idn * act2), act2 @ (mu2 * idm)),
            ("compat.distributivity",
             "act2∘(id (x) act1) = act1∘(mu2 (x) GammaM)∘(id (x) swap (x) id)∘(delta (x) id (x) id)",
             act2 @ (idn * act1), act1 @ Diag(delta, mu2, gamma_m)),
            ("compat.distributivity.alt",
             "act2∘(id (x) act1) = act1∘(Lambda (x) act2)∘(id (x) swap (x) id)∘(delta (x) id (x) id)",
             act2 @ (idn * act1), act1 @ Diag(delta, Call(twisted_product, truss), act2)),
            ("compat.derived",
             "GammaM∘(id (x) act1) = act1∘(Gamma (x) GammaM)∘(id (x) swap (x) id)∘(delta (x) id (x) id)",
             gamma_m @ (idn * act1), act1 @ Diag(delta, Call(twisted_action, truss), gamma_m)))


def regular_pi_module(c: InvertibleCocycle) -> PiModule:
    """The cocycle acting on itself: products as actions, the cocycle as compare."""
    return PiModule(c, c.action, c.hopf.mu, c.bimonoid.mu, c.cocycle)


@law_table("pimodule")
def verify_pi_module():
    """All defining laws of a cocycle module plus the two derived identities."""
    eta, mu_h, antipode, mu_b, delta_b, pi, twist, phi, hopf_action, mixed, base, compare = terms(
        "system.hopf.eta system.hopf.mu system.hopf.antipode system.bimonoid.mu "
        "system.bimonoid.comonoid.delta system.cocycle system.twist system.action "
        "hopf_action mixed_action base_action compare")
    idb, idh, idm, idn = terms("id:source id:target id:carrier id:second")
    through = pi @ twist
    intertwined = hopf_action @ Diag(delta_b, through, mixed, compare)
    compare_inv = Guard(~compare, "compare has shape {0.compare.shape} and is singular")
    return (("hopf-action.unit", "hopf_action∘(eta (x) id) = id", hopf_action @ (eta * idm), idm),
            ("hopf-action.product", "hopf_action∘(id (x) hopf_action) = hopf_action∘(mu (x) id)",
             hopf_action @ (idh * hopf_action), hopf_action @ (mu_h * idm)),
            ("base-action.product", "base_action∘(id (x) base_action) = base_action∘(mu (x) id)",
             base @ (idb * base), base @ (mu_b * idn)),
            ("compat.mixed",
             "mixed∘(id (x) hopf_action) = hopf_action∘(action (x) mixed)∘(id (x) swap (x) id)∘(delta (x) id (x) id)",
             mixed @ (idb * hopf_action), hopf_action @ Diag(delta_b, phi, mixed)),
            ("compare.intertwine",
             "compare∘base_action = hopf_action∘((cocycle∘twist) (x) mixed)∘(delta (x) compare)",
             compare @ base, intertwined),
            ("compare.invertible", "compare map is an isomorphism", compare_inv, None),
            ("derived.base",
             "base_action = compare⁻¹∘hopf_action∘((cocycle∘twist) (x) mixed)∘(delta (x) compare)",
             base, compare_inv @ intertwined),
            ("derived.mixed",
             "mixed = hopf_action∘((antipode∘cocycle∘twist) (x) (compare∘base_action))∘(delta (x) compare⁻¹)",
             mixed, hopf_action @ Diag(delta_b, antipode @ through, compare @ base, compare_inv)))


def verify_pi_module_morphism(h: LinMap, l: LinMap, src: PiModule,
                              dst: PiModule) -> VerificationReport:
    """verify_morphism with h on the carrier, l on the second carrier and
    identities on the system; its laws end with l determined by h through
    compare."""
    c = src.system
    f = {"source": identity(c.field, c.bimonoid.dim), "target": identity(c.field, c.hopf.dim),
         "carrier": h, "second": l}
    return verify_morphism(f, src, dst, "pimodule-morphism")


def restrict_along(fg: dict, source: InvertibleCocycle, m: PiModule) -> PiModule:
    """Pull a module over the target of the cocycle morphism fg, a map on
    "source" and one on "target", back to one over its source."""
    f, g = fg["source"], fg["target"]
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

    truss_of_cocycle(m.system) acts by the Hopf action, whose dims stay,
    and by the base action moved by Structure.moved_maps along the
    cocycle map on "source" and compare on "second".  The mixed action,
    moved alike, must agree with the twisted action of the result, which
    pins the construction and is checked here.
    """
    try:
        flat = m.moved_maps({"source": m.system.cocycle, "second": m.compare}, ("mixed_action", "base_action"))
    except NotInvertibleError as exc:
        raise InvalidStructureError("cocycle map or compare map is singular") from exc
    out = TrussModule(truss_of_cocycle(m.system), m.hopf_action, flat["base_action"])
    if module_twisted_action(out) != flat["mixed_action"]:
        raise InvalidStructureError(
            "twisted action of the output disagrees with the mixed action; "
            "the input does not satisfy the cocycle-module laws")
    return out
