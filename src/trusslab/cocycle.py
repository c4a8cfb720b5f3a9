"""Invertible cocycles from a non-unital bimonoid onto a Hopf monoid.

The data is a comonoid isomorphism pi: B -> H together with a comonoid
endomorphism of B (the twist) and an action of B on H, tied by

    pi∘mu_B = mu_H∘((pi∘twist) (x) action)∘(delta_B (x) pi).

Such a cocycle is the same thing as a Hopf truss carried by H:
cocycle_of_truss reads a truss as the identity cocycle from its second
product onto its Hopf part, truss_of_cocycle moves the source product
and the twist along pi onto the Hopf part. The two directions compose
to the identity on trusses exactly; on cocycles they compose to an
isomorphic cocycle, which roundtrip_report certifies.
"""

from __future__ import annotations

from .coalgebra import (
    Diag,
    Guard,
    HopfMonoidData,
    NonUnitalBimonoidData,
    Structure,
    find_unit,
    law_table,
    solve_antipode,
    terms,
    verify_hopf_monoid,
    verify_morphism,
    verify_nonunital_bimonoid,
)
from .errors import (
    InvalidStructureError,
    NoAntipodeError,
    NotInvertibleError,
)
from .hopftruss import HopfTruss, twisted_action, verify_hopf_truss
from .linmap import compose_tensor, identity
from .report import VerificationReport, condition, equation


class InvertibleCocycle(Structure):
    PARTS = (("bimonoid", NonUnitalBimonoidData, "source"),
             ("hopf", HopfMonoidData, "target"))
    MAPS = (("cocycle", "target", "source"), ("twist", "source", "source"),
            ("action", "target", "source*target"))


@law_table("cocycle")
def verify_cocycle():
    delta_b, eps_b, mu_b, delta_h, eps_h, eta_h, mu_h, pi, twist, phi, idb, idh = terms(
        "bimonoid.delta bimonoid.epsilon bimonoid.mu hopf.delta hopf.epsilon hopf.eta hopf.mu "
        "cocycle twist action id:source id:target")
    return ((verify_nonunital_bimonoid, "bimonoid", "b."), (verify_hopf_monoid, "hopf", "h."),
            ("cocycle.comonoid.coproduct", "delta_H∘pi = (pi(x)pi)∘delta_B",
             delta_h @ pi, (pi * pi) @ delta_b),
            ("cocycle.comonoid.counit", "epsilon_H∘pi = epsilon_B", eps_h @ pi, eps_b),
            ("cocycle.invertible", "pi has a two-sided inverse", Guard(~pi, "pi is singular"), None),
            ("twist.comonoid.coproduct", "delta_B∘twist = (twist(x)twist)∘delta_B",
             delta_b @ twist, (twist * twist) @ delta_b),
            ("twist.comonoid.counit", "epsilon_B∘twist = epsilon_B", eps_b @ twist, eps_b),
            ("action.module", "phi∘(B(x)phi) = phi∘(mu_B(x)H)", phi @ (idb * phi), phi @ (mu_b * idh)),
            ("action.unit", "phi∘(B(x)eta) = eta∘epsilon_B", phi @ (idb * eta_h), eta_h @ eps_b),
            ("action.product", "phi∘(B(x)mu_H) = mu_H∘(phi(x)phi)∘(B(x)swap(x)H)∘(delta_B(x)H(x)H)",
             phi @ (idb * mu_h), mu_h @ Diag(delta_b, phi, phi)),
            ("compat.cocycle", "pi∘mu_B = mu_H∘((pi∘twist)(x)phi)∘(delta_B(x)pi)",
             pi @ mu_b, mu_h @ Diag(delta_b, pi @ twist, phi, pi)))


def is_brace_case(c: InvertibleCocycle) -> bool:
    """Whether this is a plain invertible 1-cocycle: identity twist,
    unital source with an antipode, unital action."""
    bdim, hdim = c.bimonoid.dim, c.hopf.dim
    if c.twist != identity(c.field, bdim):
        return False
    unit = find_unit(c.bimonoid.mu)
    if unit is None:
        return False
    try:
        solve_antipode(c.bimonoid, unit)
    except NoAntipodeError:
        return False
    return compose_tensor(c.action, unit, identity(c.field, hdim)) == identity(c.field, hdim)


def cocycle_of_truss(h: HopfTruss) -> InvertibleCocycle:
    """Read a Hopf truss as the identity cocycle from its second product
    onto its Hopf part, twisted by the truss cocycle."""
    return InvertibleCocycle(
        h.second_part(), h.hopf_part(), identity(h.field, h.dim), h.cocycle, twisted_action(h))


def truss_of_cocycle(c: InvertibleCocycle) -> HopfTruss:
    """The truss of c moved along pi onto the target: its Hopf part, with
    the source product and the twist moved along pi by
    Structure.moved_maps as mu2 and cocycle; the rest of c is not read."""
    try:
        moved = c.moved_maps({"source": c.cocycle}, ("source.mu", "twist"))
    except NotInvertibleError as exc:
        raise InvalidStructureError("cocycle map is singular") from exc
    hopf = c.hopf
    return HopfTruss(hopf.comonoid, hopf.eta, hopf.mu, moved["source.mu"], hopf.antipode, moved["twist"])


def verify_cocycle_morphism(f: dict, src: InvertibleCocycle,
                            dst: InvertibleCocycle) -> VerificationReport:
    """verify_morphism of f, a map on "source" between the bimonoids and
    one on "target" between the Hopf monoids."""
    return verify_morphism(f, src, dst, "cocycle-morphism")


def roundtrip_report(c: InvertibleCocycle) -> VerificationReport:
    """Certify the equivalence on one object: the transported truss is
    valid, reading it back gives an isomorphic cocycle, and the
    comparison pair (pi, id) is that isomorphism."""
    src = ("src.", verify_cocycle(c))
    try:
        t = truss_of_cocycle(c)
    except InvalidStructureError:
        return VerificationReport("cocycle-roundtrip", (src, condition(
            "roundtrip.transport", "pi is invertible", False,
            "cocycle map is singular, cannot transport")))
    back = cocycle_of_truss(t)
    idh = identity(c.field, c.hopf.dim)
    return VerificationReport("cocycle-roundtrip", (
        src,
        ("truss.", verify_hopf_truss(t)),
        ("unit-map.", verify_cocycle_morphism({"source": c.cocycle, "target": idh}, c, back)),
        # the transport above inverted pi, and id is its own inverse
        condition("unit-map.invertible", "both components are isomorphisms", True),
        equation("roundtrip.action", "Gamma^(sigma_pi)∘(pi(x)id) = phi",
                 compose_tensor(back.action, c.cocycle, idh), c.action),
    ))
