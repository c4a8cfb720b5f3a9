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
    ComonoidData,
    HopfMonoidData,
    NonUnitalBimonoidData,
    Structure,
    diagonal,
    find_unit,
    solve_antipode,
    verify_hopf_monoid,
    verify_nonunital_bimonoid,
)
from .errors import NoAntipodeError
from .linmap import LinMap, compose_tensor, identity, tensor_compose
from .record import memoized
from .report import VerificationReport, equation


class HopfTruss(Structure):
    """Shared comonoid, Hopf product mu1, second product mu2, cocycle."""

    PARTS = (("comonoid", ComonoidData, None),)
    MAPS = (("eta", "dim", "1"), ("mu1", "dim", "dim*dim"), ("mu2", "dim", "dim*dim"),
            ("antipode", "dim", "dim"), ("cocycle", "dim", "dim"))

    @property
    def dim(self) -> int:
        return self.comonoid.dim

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


@memoized
def twisted_action(h: HopfTruss) -> LinMap:
    """Gamma: H (x) H -> H, mu1∘((antipode∘cocycle) (x) mu2)∘(delta (x) id)."""
    return h.mu1 @ diagonal(h.comonoid.delta, h.antipode @ h.cocycle, h.mu2)


def twisted_product(h: HopfTruss) -> LinMap:
    """Lambda: H (x) H -> H, mu1∘(mu2 (x) (antipode∘cocycle))∘(id (x) swap)∘(delta (x) id)."""
    return h.mu1 @ diagonal(h.comonoid.delta, h.mu2, h.antipode @ h.cocycle)


@memoized
def verify_hopf_truss(h: HopfTruss) -> VerificationReport:
    """All defining laws of a Hopf truss as exact identities."""
    idn = identity(h.field, h.dim)
    delta, epsilon = h.comonoid.delta, h.comonoid.epsilon
    gamma = twisted_action(h)

    rep = VerificationReport("hopftruss")
    rep = rep.merged(verify_hopf_monoid(h.hopf_part()), prefix="h1.")
    rep = rep.merged(verify_nonunital_bimonoid(h.second_part()), prefix="h2.")

    unit_absorb = h.eta @ epsilon
    rep = rep.with_checks(
        equation("cocycle.comonoid.coproduct", "delta∘cocycle = (cocycle(x)cocycle)∘delta",
                 delta @ h.cocycle, tensor_compose(h.cocycle, h.cocycle, delta)),
        equation("cocycle.comonoid.counit", "epsilon∘cocycle = epsilon",
                 epsilon @ h.cocycle, epsilon),
        equation("compat.distributivity",
                 "mu2∘(id(x)mu1) = mu1∘(mu2(x)Gamma)∘(id(x)swap(x)id)∘(delta(x)id(x)id)",
                 compose_tensor(h.mu2, idn, h.mu1), h.mu1 @ diagonal(delta, h.mu2, gamma)),
        equation("cocycle.derived", "cocycle = mu2∘(id(x)eta)",
                 h.cocycle, derive_cocycle(h.mu2, h.eta)),
        equation("cocycle.product", "cocycle∘mu2 = mu2∘(id(x)cocycle)",
                 h.cocycle @ h.mu2, compose_tensor(h.mu2, idn, h.cocycle)),
        equation("action.unit", "Gamma∘(id(x)eta) = eta∘epsilon",
                 compose_tensor(gamma, idn, h.eta), unit_absorb),
        equation("action.product",
                 "Gamma∘(id(x)mu1) = mu1∘(Gamma(x)Gamma)∘(id(x)swap(x)id)∘(delta(x)id(x)id)",
                 compose_tensor(gamma, idn, h.mu1), h.mu1 @ diagonal(delta, gamma, gamma)),
        equation("action.assoc", "Gamma∘(id(x)Gamma) = Gamma∘(mu2(x)id)",
                 compose_tensor(gamma, idn, gamma), compose_tensor(gamma, h.mu2, idn)),
    )
    return rep


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
