"""Laws that tell a coproduct from its opposite: Sweedler's H4 over Q.

Every group algebra is cocommutative, so on it a law read with Δ and the
same law read with Δ^op agree.  H4 is the smallest Hopf algebra that is
neither commutative nor cocommutative.  Its basis is 1, g, x, gx, with
g² = 1, x² = 0 and xg = −gx; g is grouplike, Δx = x⊗1 + g⊗x, and the
antipode sends x to −gx.  It is built here from these structure
constants, apart from the library's constructions, and carries four
truss structures through the whole chain: the Hopf truss laws, the
cocycle round trip and the fundamental theorem for Hopf modules.
"""

import pytest

from conftest import flip

from trusslab.coalgebra import ComonoidData, NonUnitalBimonoidData, solve_antipode
from trusslab.cocycle import cocycle_of_truss, roundtrip_report
from trusslab.fields import RATIONALS
from trusslab.hopfmodules import fundamental_iso, induction_functor
from trusslab.hopftruss import HopfTruss, derive_cocycle, verify_hopf_truss
from trusslab.linmap import LinMap, identity, kron

# g^a x^b is basis vector a + 2b: 1, g, x, gx.
MONOMIALS = [(a, b) for b in (0, 1) for a in (0, 1)]


def index(a: int, b: int) -> int:
    return a % 2 + 2 * b


def h4_maps():
    """(delta, epsilon, eta, mu, antipode) of H4 from its structure constants."""
    delta, epsilon, mu, antipode = {}, {}, {}, {}
    for a, b in MONOMIALS:
        k = index(a, b)
        if b == 0:
            # g^a is grouplike
            delta[(k * 4 + k, k)] = 1
            epsilon[(0, k)] = 1
            antipode[(k, k)] = 1
        else:
            # Δ(g^a x) = g^a x ⊗ g^a + g^(a+1) ⊗ g^a x, S(g^a x) = −(−1)^a g^(a+1) x
            delta[(k * 4 + index(a, 0), k)] = 1
            delta[(index(a + 1, 0) * 4 + k, k)] = 1
            antipode[(index(a + 1, 1), k)] = -(-1) ** a
        for c, d in MONOMIALS:
            # g^a x^b · g^c x^d = (−1)^(bc) g^(a+c) x^(b+d), and x² = 0
            if b + d < 2:
                mu[(index(a + c, b + d), k * 4 + index(c, d))] = (-1) ** (b * c)
    return (LinMap(RATIONALS, 16, 4, delta), LinMap(RATIONALS, 1, 4, epsilon),
            LinMap(RATIONALS, 4, 1, {(0, 0): 1}), LinMap(RATIONALS, 4, 16, mu),
            LinMap(RATIONALS, 4, 4, antipode))


def h4_truss(second) -> HopfTruss:
    """H4 with the second product second(mu, epsilon, f), where f is the
    idempotent Hopf map fixing 1 and g and killing x and gx."""
    delta, epsilon, eta, mu, antipode = h4_maps()
    f = LinMap(RATIONALS, 4, 4, {(0, 0): 1, (1, 1): 1})
    mu2 = second(mu, epsilon, f)
    return HopfTruss(ComonoidData(4, delta, epsilon), eta, mu, mu2, antipode,
                     derive_cocycle(mu2, eta))


ID4 = identity(RATIONALS, 4)
SECOND_PRODUCTS = [
    pytest.param(lambda mu, eps, f: mu, id="trivial"),
    pytest.param(lambda mu, eps, f: kron(eps, ID4), id="epsilon-x-id"),
    pytest.param(lambda mu, eps, f: mu @ kron(ID4, f), id="mu-id-x-f"),
    pytest.param(lambda mu, eps, f: mu @ kron(f, ID4), id="mu-f-x-id"),
]


def test_h4_is_noncocommutative_with_the_stated_antipode():
    delta, epsilon, eta, mu, antipode = h4_maps()
    braid = flip(4, 4, RATIONALS)
    assert braid @ delta != delta
    assert mu @ braid != mu
    bimonoid = NonUnitalBimonoidData(ComonoidData(4, delta, epsilon), mu)
    assert solve_antipode(bimonoid, eta) == antipode


@pytest.mark.parametrize("second", SECOND_PRODUCTS)
def test_h4_trusses_pass_the_whole_chain(second):
    h = h4_truss(second)
    rep = verify_hopf_truss(h)
    assert rep.ok, str(rep)
    rep = roundtrip_report(cocycle_of_truss(h))
    assert rep.ok, str(rep)
    theta, theta_inv, rep = fundamental_iso(induction_functor(h, 2))
    assert rep.ok, str(rep)
    assert theta.shape == theta_inv.shape == (8, 8)
