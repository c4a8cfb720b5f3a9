"""Hopf trusses: one comonoid, a Hopf product, and a second product tied
to the first by a comonoid-endomorphism cocycle.

The carrier is a single based space with coproduct delta and counit
epsilon; mu1 (with unit eta and antipode) makes it a Hopf monoid, mu2 a
non-unital bimonoid, and the stored cocycle must equal mu2∘(id (x) eta).
The twisted action Gamma makes the Hopf part a module monoid over the
second product, which is the shape of the distributivity law.
"""

from __future__ import annotations

from .coalgebra import (
    Call,
    ComonoidData,
    Diag,
    HopfMonoidData,
    NonUnitalBimonoidData,
    OverComonoid,
    Structure,
    diagonal,
    find_unit,
    law_table,
    solve_antipode,
    terms,
    verify_hopf_monoid,
    verify_nonunital_bimonoid,
)
from .errors import NoAntipodeError
from .linmap import LinMap, compose_tensor, identity
from .record import memoized


class HopfTruss(OverComonoid, Structure):
    """Shared comonoid, Hopf product mu1, second product mu2, cocycle."""

    PARTS = (("comonoid", ComonoidData, None),)
    MAPS = (("eta", "dim", "1"), ("mu1", "dim", "dim*dim"), ("mu2", "dim", "dim*dim"),
            ("antipode", "dim", "dim"), ("cocycle", "dim", "dim"))

    # memoized views: each is a new record, and its report memo would die with it
    @memoized
    def hopf_part(self) -> HopfMonoidData:
        return HopfMonoidData(self.comonoid, self.eta, self.mu1, self.antipode)

    @memoized
    def second_part(self) -> NonUnitalBimonoidData:
        return NonUnitalBimonoidData(self.comonoid, self.mu2)


def derive_cocycle(mu2: LinMap, eta: LinMap) -> LinMap:
    """The cocycle forced by the axioms: mu2 ∘ (id (x) eta)."""
    n = mu2.cod
    return compose_tensor(mu2, identity(mu2.field, n), eta)


def twisted_action(h: HopfTruss) -> LinMap:
    """Gamma: H (x) H -> H, mu1∘((antipode∘cocycle) (x) mu2)∘(delta (x) id)."""
    return h.mu1 @ diagonal(h.comonoid.delta, h.antipode @ h.cocycle, h.mu2)


def twisted_product(h: HopfTruss) -> LinMap:
    """Lambda: H (x) H -> H, mu1∘(mu2 (x) (antipode∘cocycle))∘(id (x) swap)∘(delta (x) id)."""
    return h.mu1 @ diagonal(h.comonoid.delta, h.mu2, h.antipode @ h.cocycle)


@law_table("hopftruss")
def verify_hopf_truss():
    """All defining laws of a Hopf truss as exact identities."""
    delta, epsilon, eta, mu1, mu2, cocycle, idn = terms("delta epsilon eta mu1 mu2 cocycle id")
    gamma = Call(twisted_action)
    return ((verify_hopf_monoid, "hopf_part", "h1."),
            (verify_nonunital_bimonoid, "second_part", "h2."),
            ("cocycle.comonoid.coproduct", "delta∘cocycle = (cocycle(x)cocycle)∘delta",
             delta @ cocycle, (cocycle * cocycle) @ delta),
            ("cocycle.comonoid.counit", "epsilon∘cocycle = epsilon", epsilon @ cocycle, epsilon),
            ("compat.distributivity", "mu2∘(id(x)mu1) = mu1∘(mu2(x)Gamma)∘(id(x)swap(x)id)∘(delta(x)id(x)id)",
             mu2 @ (idn * mu1), mu1 @ Diag(delta, mu2, gamma)),
            ("cocycle.derived", "cocycle = mu2∘(id(x)eta)", cocycle, mu2 @ (idn * eta)),
            ("cocycle.product", "cocycle∘mu2 = mu2∘(id(x)cocycle)", cocycle @ mu2, mu2 @ (idn * cocycle)),
            ("action.unit", "Gamma∘(id(x)eta) = eta∘epsilon", gamma @ (idn * eta), eta @ epsilon),
            ("action.product", "Gamma∘(id(x)mu1) = mu1∘(Gamma(x)Gamma)∘(id(x)swap(x)id)∘(delta(x)id(x)id)",
             gamma @ (idn * mu1), mu1 @ Diag(delta, gamma, gamma)),
            ("action.assoc", "Gamma∘(id(x)Gamma) = Gamma∘(mu2(x)id)",
             gamma @ (idn * gamma), gamma @ (mu2 * idn)))


def hopf_brace_antipode(h: HopfTruss) -> LinMap | None:
    """Second antipode when (eta, mu2) is unital Hopf; None otherwise.

    When eta is a two-sided unit for mu2 the derived cocycle law forces
    cocycle = id, which is the brace case.
    """
    unit = find_unit(h.mu2)
    if unit is None or unit != h.eta:
        return None
    try:
        return solve_antipode(h.second_part(), h.eta)
    except NoAntipodeError:
        return None
