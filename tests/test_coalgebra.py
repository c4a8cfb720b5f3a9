"""Comonoid/monoid/Hopf bundles, convolution, antipodes, grouplikes."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import flip, hook, sample_objects, truss_from_tables
from test_linmap import apart, basis_maps
from test_noncocommutative import h4_truss

from trusslab import coalgebra, verify_structure
from trusslab.coalgebra import (
    ComonoidData,
    HopfMonoidData,
    MonoidData,
    NonUnitalBimonoidData,
    convolution,
    convolution_inverse,
    convolution_unit,
    diagonal,
    find_unit,
    grouplikes,
    solve_antipode,
    verify_comonoid,
    verify_hopf_monoid,
    verify_monoid,
    verify_nonunital_bimonoid,
)
from trusslab.cocycle import cocycle_of_truss, roundtrip_report, verify_cocycle
from trusslab.errors import (
    AmbiguousSystemError,
    BoundExceededError,
    DimensionMismatchError,
    FieldMismatchError,
    IncompleteGrouplikesError,
    InconsistentSystemError,
    NoAntipodeError,
)
from trusslab.fields import RATIONALS, prime_field
from trusslab.hopfmodules import ComoduleData, verify_hopf_module, verify_truss_hopf_module
from trusslab.hopftruss import verify_hopf_truss
from trusslab.linmap import LinMap, identity, kron, rank, solve_through
from trusslab.modules import verify_pi_module, verify_truss_module
from trusslab.settruss import (
    cyclic_group,
    enumerate_skew_trusses,
    isomorphism_classes,
    linearize,
    right_projection_truss,
    symmetric_group,
    trivial_truss,
    verify_skew_truss,
)

F2 = prime_field(2)
F3 = prime_field(3)
F5 = prime_field(5)


def cyclic_group_algebra(n, field):
    """Group algebra of Z/n, built directly from the group law."""
    delta = LinMap(field, n * n, n, {(a * n + a, a): field.one for a in range(n)})
    epsilon = LinMap(field, 1, n, {(0, a): field.one for a in range(n)})
    eta = LinMap(field, n, 1, {(0, 0): field.one})
    mu = LinMap(field, n, n * n,
                {((a + b) % n, a * n + b): field.one for a in range(n) for b in range(n)})
    antipode = LinMap(field, n, n, {((-a) % n, a): field.one for a in range(n)})
    return HopfMonoidData(ComonoidData(n, delta, epsilon), eta, mu, antipode)


def primitive_element_bundle(field):
    """Basis {1, x} with x·x = 0 and x primitive.

    The comonoid and monoid parts are lawful over any field; the
    bimonoid compatibility delta∘mu = (mu(x)mu)∘delta2 holds only in
    characteristic 2 (the x(x)x term picks up a factor of 2).
    """
    delta = LinMap(field, 4, 2, {(0, 0): field.one,
                                 (1, 1): field.one, (2, 1): field.one})
    epsilon = LinMap(field, 1, 2, {(0, 0): field.one})
    eta = LinMap(field, 2, 1, {(0, 0): field.one})
    mu = LinMap(field, 2, 4, {(0, 0): field.one, (1, 1): field.one, (1, 2): field.one})
    return NonUnitalBimonoidData(ComonoidData(2, delta, epsilon), mu), eta


def idempotent_monoid_algebra(field):
    """Basis {1, z} with z·z = z; z is grouplike, so id has no convolution inverse."""
    delta = LinMap(field, 4, 2, {(0, 0): field.one, (3, 1): field.one})
    epsilon = LinMap(field, 1, 2, {(0, 0): field.one, (0, 1): field.one})
    eta = LinMap(field, 2, 1, {(0, 0): field.one})
    mu = LinMap(field, 2, 4, {(0, 0): field.one, (1, 1): field.one,
                              (1, 2): field.one, (1, 3): field.one})
    return ComonoidData(2, delta, epsilon), MonoidData(2, eta, mu)


def test_cyclic_group_algebra_is_hopf():
    for field in (RATIONALS, F5):
        for n in (1, 2, 3, 4):
            rep = verify_hopf_monoid(cyclic_group_algebra(n, field))
            assert rep.ok, str(rep)


def test_verify_structure_dispatch():
    expected = {
        "comonoid": verify_comonoid,
        "monoid": verify_monoid,
        "bimonoid": verify_nonunital_bimonoid,
        "hopf": verify_hopf_monoid,
        "hopftruss": verify_hopf_truss,
        "gic": verify_cocycle,
        "trussmodule": verify_truss_module,
        "pimodule": verify_pi_module,
        "hopfmodule": verify_hopf_module,
        "trusshopfmodule": verify_truss_hopf_module,
        "settruss": verify_skew_truss,
    }
    samples = sample_objects()
    assert sorted(kind for kind, _ in samples) == sorted(expected)
    for kind, obj in samples:
        rep = verify_structure(obj)
        assert rep.ok
        assert rep == expected[kind](obj)
    with pytest.raises(TypeError):
        verify_structure(42)


def test_each_own_dim_is_sized_by_an_end_that_is_that_dim_alone():
    # the comodule's carrier is first named in the product dim*carrier,
    # and sized by the coaction's domain
    assert ComoduleData.ALL_DIMS == (("dim", False, "comonoid.dim"), ("carrier", True, "coaction.dom"))
    with pytest.raises(TypeError, match="no own map has 'extra' alone"):
        class Unsized(coalgebra.Structure):
            PARTS = (("comonoid", ComonoidData, None),)
            MAPS = (("x", "dim*extra", "dim"),)


def test_broken_coassociativity_is_caught():
    h = cyclic_group_algebra(2, RATIONALS)
    bad_delta = h.delta + LinMap(RATIONALS, 4, 2, {(1, 0): 1})
    rep = verify_comonoid(ComonoidData(2, bad_delta, h.epsilon))
    assert not rep.ok
    names = {c.name for c in rep.failures()}
    assert names  # at least one exact residual
    for c in rep.failures():
        assert c.residual is not None and not c.residual.is_zero()


def test_bimonoid_compatibility_catches_wrong_product():
    h = cyclic_group_algebra(3, RATIONALS)
    bad_mu = h.mu + LinMap(RATIONALS, 3, 9, {(0, 4): 1})
    rep = verify_nonunital_bimonoid(NonUnitalBimonoidData(h.comonoid, bad_mu))
    assert not rep.ok


# -- convolution -----------------------------------------------------------


def random_map(rnd, cod, dom):
    rows = [[Fraction(rnd.randint(-3, 3), rnd.randint(1, 3)) for _ in range(dom)]
            for _ in range(cod)]
    return LinMap.from_rows(RATIONALS, rows, dom=dom)


def test_convolution_associativity_against_triple_oracle():
    h = cyclic_group_algebra(2, RATIONALS)
    src, tgt = h.comonoid, h.monoid()
    idn = identity(RATIONALS, 2)
    # Independent route: one-shot triple convolution through mu3 and delta3.
    mu3 = h.mu @ kron(h.mu, idn)
    delta3 = kron(h.delta, idn) @ h.delta
    rnd = random.Random(31)
    for _ in range(10):
        f, g, k = (random_map(rnd, 2, 2) for _ in range(3))
        left = convolution(convolution(f, g, src, tgt), k, src, tgt)
        right = convolution(f, convolution(g, k, src, tgt), src, tgt)
        direct = mu3 @ kron(kron(f, g), k) @ delta3
        assert left == right == direct


def test_convolution_unit_laws():
    h = cyclic_group_algebra(3, RATIONALS)
    src, tgt = h.comonoid, h.monoid()
    e = convolution_unit(src, tgt)
    rnd = random.Random(32)
    for _ in range(5):
        f = random_map(rnd, 3, 3)
        assert convolution(f, e, src, tgt) == f
        assert convolution(e, f, src, tgt) == f


def test_convolution_inverse_of_identity_is_group_inversion():
    h = cyclic_group_algebra(3, RATIONALS)
    lam = convolution_inverse(identity(RATIONALS, 3), h.comonoid, h.monoid())
    assert lam == h.antipode


def test_convolution_inverse_counit_killing_map_fails():
    h = cyclic_group_algebra(2, RATIONALS)
    f = identity(RATIONALS, 2) - h.eta @ h.epsilon
    with pytest.raises(NoAntipodeError):
        convolution_inverse(f, h.comonoid, h.monoid())


def test_idempotent_monoid_has_no_antipode():
    # The monoid algebra of {e, z} with z absorbing is a unital bimonoid
    # that is not Hopf: z is grouplike and not invertible.
    for field in (RATIONALS, F5):
        com, mon = idempotent_monoid_algebra(field)
        assert verify_comonoid(com).ok
        assert verify_monoid(mon).ok
        assert verify_nonunital_bimonoid(NonUnitalBimonoidData(com, mon.mu)).ok
        for inverse in (convolution_inverse, reference_convolution_inverse):
            with pytest.raises(NoAntipodeError):
                inverse(identity(field, 2), com, mon)


def test_convolution_inverse_of_identity_for_primitive_element():
    # Convolution inversion needs only the comonoid and monoid parts, so
    # this is exact over Q even though the bundle is not a bimonoid there.
    b, eta = primitive_element_bundle(RATIONALS)
    lam = convolution_inverse(identity(RATIONALS, 2), b.comonoid,
                              MonoidData(2, eta, b.mu))
    assert lam == LinMap.from_rows(RATIONALS, [[1, 0], [0, -1]])


def test_primitive_element_bundle_is_hopf_only_in_char_2():
    b2, eta2 = primitive_element_bundle(F2)
    hopf = HopfMonoidData(b2.comonoid, eta2, b2.mu, solve_antipode(b2, eta2))
    assert hopf.antipode == identity(F2, 2)
    assert verify_hopf_monoid(hopf).ok
    bq, _ = primitive_element_bundle(RATIONALS)
    rep = verify_nonunital_bimonoid(bq)
    assert not rep.named("product.coproduct").passed


def test_antipode_is_an_algebra_antimorphism():
    # Derived identities: antipode flips products and coproducts.
    for h in (cyclic_group_algebra(3, RATIONALS), cyclic_group_algebra(4, F5)):
        s = h.antipode
        braid = flip(h.dim, h.dim, h.field)
        assert s @ h.mu == h.mu @ kron(s, s) @ braid
        assert h.delta @ s == braid @ kron(s, s) @ h.delta
        assert s @ h.eta == h.eta
        assert h.epsilon @ s == h.epsilon


# -- convolution_inverse against the basis-convolution construction --------------


def reference_convolution_inverse(f, source, target):
    """The inverse from 2·na·nd convolutions with basis maps and a dense solve."""
    nd, na = source.dim, target.dim
    field = f.field
    unit = convolution_unit(source, target)
    columns = []
    for i in range(na):
        for j in range(nd):
            basis = LinMap(field, na, nd, {(i, j): field.one})
            left = convolution(f, basis, source, target)
            right = convolution(basis, f, source, target)
            columns.append([left.entry(r, c) for r in range(na) for c in range(nd)]
                           + [right.entry(r, c) for r in range(na) for c in range(nd)])
    rows = [[col[r] for col in columns] for r in range(2 * na * nd)]
    rhs = [[unit.entry(r, c)] for r in range(na) for c in range(nd)] * 2
    try:
        x = solve_through(LinMap.from_rows(field, rows, dom=na * nd),
                          LinMap.from_rows(field, rhs, dom=1))
    except InconsistentSystemError as exc:
        raise NoAntipodeError("no two-sided convolution inverse") from exc
    return LinMap(field, na, nd, {divmod(k, nd): v for (k, _), v in x.items()})


def unitriangular(field, n):
    # 1/2 above the diagonal: Δ moved along it is not basis-diagonal and,
    # over Q, has fractional entries.
    half = field.inv(2)
    return LinMap(field, n, n, {(i, j): 1 if i == j else half
                                for i in range(n) for j in range(i, n)})


def inverse_or_refusal(inverse, f, source, target):
    try:
        return inverse(f, source, target)
    except NoAntipodeError:
        return NoAntipodeError


@pytest.mark.parametrize("field", [RATIONALS, F5], ids=str)
@pytest.mark.parametrize("group", [cyclic_group(4), symmetric_group(3)], ids=["Z4", "S3"])
def test_convolution_inverse_matches_the_basis_convolution_reference(field, group):
    rnd = random.Random(41)
    for make in (trivial_truss, right_projection_truss):
        plain = linearize(make(group), field)
        for t in (plain, plain.moved({"dim": unitriangular(field, plain.dim)})):
            n = t.dim
            some = LinMap(field, n, n, {(i, j): rnd.randint(-2, 2) for i in range(n)
                                        for j in range(n) if rnd.random() < 0.5})
            for mu in (t.mu1, t.mu2):
                target = MonoidData(n, t.eta, mu)
                for f in (identity(field, n), t.antipode, some):
                    got = inverse_or_refusal(convolution_inverse, f, t.comonoid, target)
                    assert got == inverse_or_refusal(
                        reference_convolution_inverse, f, t.comonoid, target)
            # The Hopf part always has its antipode as the inverse of id.
            assert convolution_inverse(identity(field, n), t.comonoid,
                                       MonoidData(n, t.eta, t.mu1)) == t.antipode


def test_convolution_inverse_shape_errors():
    h = cyclic_group_algebra(2, RATIONALS)
    with pytest.raises(DimensionMismatchError, match="start at the comonoid"):
        convolution_inverse(LinMap(RATIONALS, 2, 3, {}), h.comonoid, h.monoid())
    with pytest.raises(DimensionMismatchError, match="land in the monoid"):
        convolution_inverse(LinMap(RATIONALS, 3, 2, {}), h.comonoid, h.monoid())


def test_convolution_inverse_calls_no_convolution_or_from_rows(monkeypatch):
    # The system is read off delta's entries, so no basis-map convolution
    # and no dense matrix is formed.
    h = linearize(trivial_truss(symmetric_group(3)), RATIONALS).hopf_part()
    calls = []

    def watched(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(coalgebra, "convolution", watched("convolution", convolution))
    monkeypatch.setattr(LinMap, "from_rows", watched("from_rows", LinMap.from_rows))
    assert convolution_inverse(identity(RATIONALS, 6), h.comonoid, h.monoid()) == h.antipode
    assert calls == []


# -- grouplikes ---------------------------------------------------------------


def test_basis_scan_on_group_algebra_is_complete():
    h = cyclic_group_algebra(3, RATIONALS)
    assert grouplikes(h.comonoid) == [LinMap.basis_vector(RATIONALS, 3, j) for j in range(3)]


def test_basis_scan_on_primitive_comonoid_is_incomplete():
    # The basis holds one grouplike, but a scan of it would not prove
    # there are no others, and Q has too many vectors to try.
    b, _ = primitive_element_bundle(RATIONALS)
    with pytest.raises(IncompleteGrouplikesError, match="not basis-diagonal"):
        grouplikes(b.comonoid)


def test_exhaustive_scan_over_f2():
    h = cyclic_group_algebra(2, F2)
    p = LinMap.from_rows(F2, [[1, 1], [0, 1]])
    vectors = grouplikes(h.comonoid.moved({"dim": p}))
    # Candidate vectors run in lexicographic coefficient order: p e1 = (1, 1)
    # comes after p e0 = (1, 0).
    assert vectors == [p @ LinMap.basis_vector(F2, 2, 0), p @ LinMap.basis_vector(F2, 2, 1)]


def test_exhaustive_scan_sees_past_the_basis():
    b, _ = primitive_element_bundle(F5)
    assert grouplikes(b.comonoid) == [LinMap.basis_vector(F5, 2, 0)]


def test_exhaustive_scan_bound(monkeypatch):
    b, _ = primitive_element_bundle(F5)
    monkeypatch.setattr(coalgebra, "MAX_GROUPLIKE_CANDIDATES", 24)
    with pytest.raises(BoundExceededError, match="5\\^2 candidate vectors exceed the bound 24"):
        grouplikes(b.comonoid)
    # a basis-diagonal comonoid is scanned on its basis, under any bound
    assert len(grouplikes(cyclic_group_algebra(4, F5).comonoid)) == 4


def test_grouplikes_are_linearly_independent():
    for field in (RATIONALS, F5):
        h = cyclic_group_algebra(4, field)
        vectors = grouplikes(h.comonoid)
        stacked = LinMap.from_columns(field, 4, vectors)
        assert rank(stacked) == len(vectors)


def brute_force_grouplikes(c: ComonoidData):
    """Every grouplike of a prime-field comonoid, as coefficient tuples in
    lexicographic order, by dense modular arithmetic on every vector."""
    n, p = c.dim, c.field.p
    delta = [[int(c.delta.entry(r, i)) for i in range(n)] for r in range(n * n)]
    eps = [int(c.epsilon.entry(0, i)) for i in range(n)]
    found = []
    for v in itertools.product(range(p), repeat=n):
        if sum(e * x for e, x in zip(eps, v)) % p != 1:
            continue
        if all(sum(d * x for d, x in zip(delta[a * n + b], v)) % p == v[a] * v[b] % p
               for a in range(n) for b in range(n)):
            found.append(v)
    return found


def _z2_squared(field) -> ComonoidData:
    """The comonoid of the group algebra of Z2×Z2, from its Cayley table."""
    table = [[a ^ b for b in range(4)] for a in range(4)]
    return truss_from_tables(field, table, table).comonoid


# (comonoid, whether its coproduct is basis-diagonal)
ORACLE_COMONOIDS = [
    pytest.param(lambda f=f, n=n: cyclic_group_algebra(n, f).comonoid, True, id=f"Z{n}-F{f.p}")
    for f in (F2, F3, F5) for n in (2, 3)
] + [
    pytest.param(lambda f=f: _z2_squared(f), True, id=f"Z2xZ2-F{f.p}") for f in (F2, F3, F5)
] + [
    pytest.param(lambda: primitive_element_bundle(F5)[0].comonoid, False, id="primitive-F5"),
    pytest.param(lambda: cyclic_group_algebra(3, F5).comonoid.moved(
        {"dim": LinMap.from_rows(F5, [[1, 4, 0], [0, 1, 3], [0, 0, 1]])}), False, id="transported-Z3-F5"),
]


@pytest.mark.parametrize("make,diagonal_delta", ORACLE_COMONOIDS)
def test_grouplikes_match_the_brute_force_oracle(make, diagonal_delta):
    c = make()
    oracle = brute_force_grouplikes(c)
    got = [tuple(int(v.entry(i, 0)) for i in range(c.dim)) for v in grouplikes(c)]
    # a basis-diagonal comonoid keeps basis order, the reverse of
    # lexicographic order on basis vectors
    assert got == (oracle[::-1] if diagonal_delta else oracle)


# -- units -----------------------------------------------------------------------


def test_find_unit():
    h = cyclic_group_algebra(3, RATIONALS)
    assert find_unit(h.mu) == h.eta
    no_unit = LinMap.zero(RATIONALS, 2, 4)
    assert find_unit(no_unit) is None


def reference_find_unit(mu):
    """find_unit from a dense system of 2n³ entry reads, row by row."""
    field = mu.field
    n = mu.cod
    rows, rhs_rows = [], []
    for r in range(n):
        for c in range(n):
            rows.append([mu.entry(r, k * n + c) for k in range(n)])
            rhs_rows.append([field.one if r == c else field.zero])
    for r in range(n):
        for c in range(n):
            rows.append([mu.entry(r, c * n + k) for k in range(n)])
            rhs_rows.append([field.one if r == c else field.zero])
    try:
        return solve_through(LinMap.from_rows(field, rows, dom=n),
                             LinMap.from_rows(field, rhs_rows, dom=1))
    except (InconsistentSystemError, AmbiguousSystemError):
        return None


def test_find_unit_matches_the_dense_reference():
    # Both products of every truss over Z2-Z4, of every 50th class over S3,
    # and of every 8th of these moved along a unitriangular map (not
    # basis-diagonal, fractional over Q), over Q and F_5.
    trusses = [t for g in (cyclic_group(2), cyclic_group(3), cyclic_group(4))
               for t in enumerate_skew_trusses(g)]
    trusses += [c[0] for c in isomorphism_classes(
        enumerate_skew_trusses(symmetric_group(3), max_size=6))[::50]]
    for field in (RATIONALS, F5):
        linear = [linearize(t, field) for t in trusses]
        linear += [h.moved({"dim": unitriangular(field, h.dim)}) for h in linear[::8]]
        found = 0
        for h in linear:
            for mu in (h.mu1, h.mu2):
                unit = find_unit(mu)
                assert unit == reference_find_unit(mu)
                found += unit is not None
            assert find_unit(h.mu1) == h.eta
        assert len(linear) < found < 2 * len(linear)  # some second products have no unit
        # a (x) b -> a has no unit; e0 is the only right unit of the next
        # product and the only left unit of its mirror, and neither is two-sided
        for entries in ({(a, 2 * a + b): 1 for a in range(2) for b in range(2)},
                        {(0, 0): 1, (1, 2): 1, (1, 3): 1}, {(0, 0): 1, (1, 1): 1, (1, 3): 1}):
            no_unit = LinMap(field, 2, 4, entries)
            assert find_unit(no_unit) is None and reference_find_unit(no_unit) is None


# -- the diagonal action ---------------------------------------------------------
#
# diagonal(delta, f, g) is compared with an explicit index sum: on the
# basis tensor e_i (x) e_u (x) e_v it is
#     sum over k, l of delta[k*A + l, i] * f[:, k*X + u] (x) g[:, l*Y + v],
# written without a flip map.


def reference_diagonal(delta, f, g):
    field = delta.field
    a = delta.dom
    x, y = f.dom // a, g.dom // a
    d, fr, gr = delta.rows(), f.rows(), g.rows()
    rows = [[field.zero] * (a * x * y) for _ in range(f.cod * g.cod)]
    for p in range(f.cod):
        for q in range(g.cod):
            for i in range(a):
                for u in range(x):
                    for v in range(y):
                        total = field.zero
                        for k in range(a):
                            for l in range(a):
                                term = field.mul(d[k * a + l][i], field.mul(
                                    fr[p][k * x + u], gr[q][l * y + v]))
                                total = field.add(total, term)
                        rows[p * g.cod + q][(i * x + u) * y + v] = total
    return LinMap.from_rows(field, rows, dom=a * x * y)


@st.composite
def diagonal_operands(draw):
    """delta, f and g with drawn entries, or all basis maps and near misses
    of them, so that every operand often has a table."""
    field = draw(st.sampled_from([RATIONALS, F5]))
    values = (st.one_of(st.just(0), st.integers(-3, 3),
                        st.fractions(min_value=-3, max_value=3, max_denominator=4))
              if field is RATIONALS else st.integers(0, 4))
    basis = draw(st.booleans())

    def matrix(cod, dom):
        if basis:
            return draw(basis_maps(cod, dom, field))
        rows = draw(st.lists(st.lists(values, min_size=dom, max_size=dom),
                             min_size=cod, max_size=cod))
        empty = draw(st.sets(st.integers(0, dom - 1), max_size=dom)) if dom else set()
        return LinMap.from_rows(
            field, [[0 if j in empty else v for j, v in enumerate(row)] for row in rows],
            dom=dom)

    a = draw(st.integers(1, 3))
    least = 1 if basis else 0
    x, y = draw(st.integers(least, 3)), draw(st.integers(least, 3))
    return (matrix(a * a, a), matrix(draw(st.integers(1, 2)), a * x),
            matrix(draw(st.integers(1, 2)), a * y))


@settings(deadline=None, max_examples=80)
@given(diagonal_operands())
def test_diagonal_matches_the_index_sum(operands):
    delta, f, g = operands
    out, expected = diagonal(delta, f, g), reference_diagonal(delta, f, g)
    # equal entries, and the table a basis result was built with is theirs
    assert out == expected and out._table() == expected._table()
    assert out.shape == (f.cod * g.cod, f.dom * g.dom // delta.dom)


@st.composite
def diagonal_operands_with_a_right_factor(draw):
    delta, f, g = draw(diagonal_operands())
    a = delta.dom
    values = (st.one_of(st.just(0), st.integers(-3, 3),
                        st.fractions(min_value=-3, max_value=3, max_denominator=4))
              if delta.field is RATIONALS else st.integers(0, 4))
    dom = draw(st.integers(0, 3))
    cod = f.dom * g.dom // (a * a)
    if draw(st.booleans()):
        return delta, f, g, draw(basis_maps(cod, dom, delta.field))
    rows = draw(st.lists(st.lists(values, min_size=dom, max_size=dom),
                         min_size=cod, max_size=cod))
    return delta, f, g, LinMap.from_rows(delta.field, rows, dom=dom)


@settings(deadline=None, max_examples=60)
@given(diagonal_operands_with_a_right_factor())
def test_diagonal_with_a_right_factor_is_the_composite_through_id_and_it(operands):
    delta, f, g, m = operands
    expected = reference_diagonal(delta, f, g) @ kron(identity(delta.field, delta.dom), m)
    out = diagonal(delta, f, g, m)
    assert out == expected and out._table() == apart(expected)._table()
    assert diagonal(delta, f, g, identity(delta.field, m.cod)) == diagonal(delta, f, g)


def test_diagonal_refuses_a_right_factor_of_the_wrong_shape_or_field():
    h = cyclic_group_algebra(2, RATIONALS)
    with pytest.raises(DimensionMismatchError):
        diagonal(h.delta, h.mu, h.mu, identity(RATIONALS, 3))
    with pytest.raises(FieldMismatchError):
        diagonal(h.delta, h.mu, h.mu, identity(F5, 4))


def test_diagonal_is_the_hopf_compatibility_composite():
    h = cyclic_group_algebra(3, RATIONALS)
    n = h.dim
    middle = kron(kron(identity(RATIONALS, n), flip(n, n, RATIONALS)), identity(RATIONALS, n))
    assert (diagonal(h.delta, h.mu, h.mu)
            == kron(h.mu, h.mu) @ middle @ kron(h.delta, identity(RATIONALS, n * n)))


def test_diagonal_refuses_mismatched_shapes():
    d = cyclic_group_algebra(2, RATIONALS).delta
    ok = identity(RATIONALS, 4)
    for delta, f, g in [
        (LinMap.zero(RATIONALS, 3, 2), ok, ok),   # delta is not A -> A (x) A
        (LinMap.zero(RATIONALS, 4, 3), ok, ok),
        (d, identity(RATIONALS, 3), ok),          # f.dom is no multiple of A
        (d, ok, identity(RATIONALS, 5)),          # g.dom is no multiple of A
        (LinMap.zero(RATIONALS, 0, 0), identity(RATIONALS, 1), identity(RATIONALS, 0)),
    ]:
        with pytest.raises(DimensionMismatchError):
            diagonal(delta, f, g)


def test_diagonal_of_the_zero_comonoid():
    zero = LinMap.zero
    delta, f, g = zero(RATIONALS, 0, 0), zero(RATIONALS, 2, 0), zero(RATIONALS, 3, 0)
    assert diagonal(delta, f, g) == zero(RATIONALS, 6, 0)
    # id_0 (x) m is 0 x 0, so a right factor of any shape composes.
    for m in (identity(RATIONALS, 2), LinMap(RATIONALS, 2, 3, {(0, 1): 4, (1, 2): 1}),
              zero(RATIONALS, 0, 4)):
        assert diagonal(delta, f, g, m) == zero(RATIONALS, 6, 0)
        assert diagonal(delta, f, g, m) == diagonal(delta, f, g) @ kron(identity(RATIONALS, 0), m)


def test_diagonal_forms_no_kron_compose_or_flip(monkeypatch):
    # diagonal relabels pairs of entries of delta and m into the legs of
    # the braided spread and applies f (x) g to them by tensor_apply, or on
    # the basis maps of a group algebra pairs of table rows into the
    # spread's table, which goes to linmap as a table.  On neither path,
    # S3's tables or H4's entries, is a Kronecker product, composite or
    # flip map formed inside it.
    spreads, inside, depth = [], [], [0]

    def tracked(original):
        def spread(delta, f, g, m=None):
            spreads.append(delta.dom)
            depth[0] += 1
            try:
                return original(delta, f, g, m)
            finally:
                depth[0] -= 1
        return spread

    def watched(name):
        def wrap(fn):
            def wrapper(*args, **kwargs):
                if depth[0]:
                    inside.append(name)
                return fn(*args, **kwargs)
            return wrapper
        return wrap

    hook(monkeypatch, "diagonal", tracked)
    for name in ("LinMap.kron", "LinMap.compose", "tensor_apply"):
        hook(monkeypatch, name, watched(name))
    for h, path in [(linearize(trivial_truss(symmetric_group(3)), RATIONALS), set()),
                    (h4_truss(lambda mu, eps, f: mu), {"tensor_apply"})]:
        spreads.clear()
        inside.clear()
        assert roundtrip_report(cocycle_of_truss(h)).ok
        assert spreads and set(spreads) == {h.dim}
        # the entry-by-entry path runs only where the operands are no tables
        assert set(inside) == path


def test_diagonal_refuses_mixed_fields():
    q = cyclic_group_algebra(2, RATIONALS)
    f5 = cyclic_group_algebra(2, F5)
    for delta, f, g in [(q.delta, f5.mu, f5.mu), (f5.delta, q.mu, f5.mu),
                        (f5.delta, f5.mu, q.mu)]:
        with pytest.raises(FieldMismatchError):
            diagonal(delta, f, g)
