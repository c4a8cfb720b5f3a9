"""Set-level skew trusses: axioms, enumeration, linearization, grouplikes."""

import itertools
import random
from operator import attrgetter

import pytest

from conftest import count_calls, count_runs, truss_from_tables
from trusslab import settruss
from trusslab.errors import (
    BoundExceededError,
    ClosureError,
    DimensionMismatchError,
    IncompleteGrouplikesError,
    InvalidStructureError,
)
from trusslab.fields import RATIONALS, prime_field
from trusslab.hopftruss import HopfTruss, verify_hopf_truss
from trusslab.linmap import LinMap, identity, kron
from trusslab.settruss import (
    FiniteGroup,
    FiniteSemigroup,
    SetMorphism,
    SkewTruss,
    canonical_form,
    cyclic_group,
    derive_omega,
    enumerate_skew_trusses,
    isomorphism_classes,
    left_projection_truss,
    linearize,
    right_projection_truss,
    symmetric_group,
    trivial_truss,
    truss_of_grouplikes,
    verify_set_morphism,
    verify_skew_truss,
)

F5 = prime_field(5)
KLEIN = FiniteGroup.from_table([[a ^ b for b in range(4)] for a in range(4)])


def moved_table(table, p):
    """The Cayley table with element x renamed p[x]."""
    n = len(table)
    pinv = sorted(range(n), key=p.__getitem__)
    return tuple(tuple(p[table[pinv[a]][pinv[b]]] for b in range(n)) for a in range(n))


def relabel_group(g, p):
    """The group g with element x renamed p[x]."""
    return FiniteGroup.from_table(moved_table(g.table, p))


def move_truss(t, group, p):
    """The truss t with element x renamed p[x], over group, which is
    relabel_group(t.group, p)."""
    s = FiniteSemigroup(moved_table(t.semigroup.table, p))
    return SkewTruss(group, s, derive_omega(group, s))


def brute_automorphisms(g):
    """Oracle: every permutation of the carrier that respects the group product."""
    n = g.size
    t1 = g.table
    return [p for p in itertools.permutations(range(n))
            if all(p[t1[a][b]] == t1[p[a]][p[b]] for a in range(n) for b in range(n))]


def identities(classes):
    return [[id(t) for t in c] for c in classes]


def naive_canonical_form(t):
    """Oracle: the minimal relabeling of both tables over all n! relabelings."""
    n = t.size
    t1, t2 = t.group.table, t.semigroup.table
    best = None
    for p in itertools.permutations(range(n)):
        pinv = sorted(range(n), key=p.__getitem__)
        r1 = tuple(tuple(p[t1[pinv[a]][pinv[b]]] for b in range(n)) for a in range(n))
        r2 = tuple(tuple(p[t2[pinv[a]][pinv[b]]] for b in range(n)) for a in range(n))
        if best is None or (r1, r2) < best:
            best = (r1, r2)
    return best


def check_forms_against_the_sweep(trusses):
    """canonical_form and isomorphism_classes agree with naive_canonical_form;
    returns the naive buckets."""
    forms = [naive_canonical_form(t) for t in trusses]
    assert [canonical_form(t) for t in trusses] == forms
    buckets = {}
    for t, form in zip(trusses, forms):
        buckets.setdefault(form, []).append(t)
    assert identities(isomorphism_classes(trusses)) == identities(buckets.values())
    return buckets


def naive_endomorphisms(g):
    """Oracle: every map of the carrier that respects the group product."""
    n = g.size
    t1 = g.table
    return [f for f in itertools.product(range(n), repeat=n)
            if all(f[t1[a][b]] == t1[f[a]][f[b]] for a in range(n) for b in range(n))]


def naive_rows(g):
    """Oracle: the left translates of every endomorphism, sorted."""
    n = g.size
    t1 = g.table
    return sorted({tuple(t1[w][f[x]] for x in range(n))
                   for w in range(n) for f in naive_endomorphisms(g)})


def full_recheck_enumerate(g):
    """Oracle: backtrack over translates of endomorphisms, re-checking every
    triple of the partial table at each depth."""
    n = g.size
    rows = naive_rows(g)
    found = []
    chosen = []

    def partial_ok():
        k = len(chosen)
        for a, b, c in itertools.product(range(k), repeat=3):
            ab, bc = chosen[a][b], chosen[b][c]
            if ab < k and bc < k and chosen[ab][c] != chosen[a][bc]:
                return False
        return True

    def extend():
        if len(chosen) == n:
            s = FiniteSemigroup(chosen)
            found.append(SkewTruss(g, s, derive_omega(g, s)))
            return
        for row in rows:
            chosen.append(row)
            if partial_ok():
                extend()
            chosen.pop()

    extend()
    return found


def naive_enumerate(g):
    """Brute-force oracle: filter every candidate table by the raw axioms."""
    n = g.size
    t1 = g.table
    out = []
    for flat in itertools.product(range(n), repeat=n * n):
        t2 = [flat[a * n:(a + 1) * n] for a in range(n)]
        ok = True
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    if t2[t2[a][b]][c] != t2[a][t2[b][c]]:
                        ok = False
        if not ok:
            continue
        omega = [t2[a][g.unit] for a in range(n)]
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    lhs = t2[a][t1[b][c]]
                    rhs = t1[t1[t2[a][b]][g.inv[omega[a]]]][t2[a][c]]
                    if lhs != rhs:
                        ok = False
        if ok:
            out.append(SkewTruss(g, FiniteSemigroup(t2), tuple(omega)))
    return out


# -- groups -------------------------------------------------------------------


def test_cyclic_group_tables():
    g = cyclic_group(4)
    assert g.unit == 0
    assert g.inv == (0, 3, 2, 1)
    assert g.table[3][2] == 1


def test_from_table_derives_unit_and_inverses():
    rows = [[1, 0], [0, 1]]  # Z2 written with unit at index 1
    g = FiniteGroup.from_table(rows)
    assert g.unit == 1
    assert g.inv == (0, 1)


def test_from_table_rejects_non_groups():
    with pytest.raises(InvalidStructureError):
        FiniteGroup.from_table([[0, 1], [0, 0]])  # not associative
    with pytest.raises(InvalidStructureError):
        FiniteGroup.from_table([[0, 0], [0, 0]])  # no unit
    with pytest.raises(InvalidStructureError):
        FiniteSemigroup.from_table([[0, 1], [0, 0]])


def test_symmetric_group_on_three_letters():
    g = symmetric_group(3)
    assert g.size == 6
    assert any(g.table[i][j] != g.table[j][i]
               for i in range(6) for j in range(6))
    # permutation order: identity first under lexicographic listing
    assert g.unit == 0


# Element indices are never converted: a float, a string or a bool in a
# table, a unit, an inverse vector, an omega or a mapping is refused.
NOT_INDICES = (0.5, 1.0, "1", True, False)
Z2 = [[0, 1], [1, 0]]


def with_entry(rows, value):
    return [[value] + list(rows[0][1:])] + [list(r) for r in rows[1:]]


@pytest.mark.parametrize("bad", NOT_INDICES)
def test_semigroup_tables_refuse_non_int_entries(bad):
    with pytest.raises(TypeError):
        FiniteSemigroup(with_entry(Z2, bad))
    with pytest.raises(TypeError):
        FiniteSemigroup.from_table(with_entry(Z2, bad))


def test_float_and_string_tables_are_not_read_as_z2():
    for rows in ([[0.5, 1.7], [1, 0]], [["0", "1"], ["1", "0"]]):
        with pytest.raises(TypeError):
            FiniteSemigroup(rows)
        with pytest.raises(TypeError):
            FiniteGroup(rows, 0, (0, 1))


@pytest.mark.parametrize("bad", NOT_INDICES)
def test_groups_refuse_non_int_tables_units_and_inverses(bad):
    with pytest.raises(TypeError):
        FiniteGroup.from_table(with_entry(Z2, bad))
    with pytest.raises(TypeError):
        FiniteGroup(with_entry(Z2, bad), 0, (0, 1))
    with pytest.raises(TypeError):
        FiniteGroup(Z2, bad, (0, 1))
    with pytest.raises(TypeError):
        FiniteGroup(Z2, 0, (bad, 1))


@pytest.mark.parametrize("bad", NOT_INDICES)
def test_skew_trusses_refuse_a_non_int_omega(bad):
    g = cyclic_group(2)
    with pytest.raises(TypeError):
        SkewTruss(g, FiniteSemigroup(g.table), (bad, 1))


@pytest.mark.parametrize("bad", NOT_INDICES)
def test_set_morphisms_refuse_a_non_int_mapping(bad):
    with pytest.raises(TypeError):
        SetMorphism(2, 2, (bad, 1))


def test_int_inputs_still_give_tuples():
    g = FiniteGroup([[0, 1], [1, 0]], 0, [0, 1])
    assert g.table == ((0, 1), (1, 0)) and g.inv == (0, 1)
    t = SkewTruss(g, FiniteSemigroup([[0, 1], [1, 0]]), [0, 1])
    assert t.omega == (0, 1)
    assert SetMorphism(2, 1, [0, 0]).mapping == (0, 0)
    with pytest.raises(DimensionMismatchError):
        FiniteGroup(Z2, 2, (0, 1))
    with pytest.raises(DimensionMismatchError):
        SetMorphism(3, 2, (0, 1))


# -- axiom checking -----------------------------------------------------------


@pytest.mark.parametrize("build", [trivial_truss, left_projection_truss,
                                   right_projection_truss])
@pytest.mark.parametrize("group", [cyclic_group(2), cyclic_group(3),
                                   symmetric_group(3)])
def test_standard_trusses_pass(build, group):
    rep = verify_skew_truss(build(group))
    assert rep.ok, str(rep)


def test_non_associative_second_product_fails():
    g = cyclic_group(2)
    t = SkewTruss(g, FiniteSemigroup([[0, 1], [0, 0]]), (0, 0))
    rep = verify_skew_truss(t)
    assert not rep.named("semigroup.assoc").passed


def test_distributivity_failure_carries_a_witness():
    # every row equals the idempotent map (0,1,0): associative as a table,
    # but a single row of that shape is not translate-of-endomorphism
    g = cyclic_group(3)
    t2 = [[0, 1, 0]] * 3
    t = SkewTruss(g, FiniteSemigroup(t2), derive_omega(g, FiniteSemigroup(t2)))
    rep = verify_skew_truss(t)
    assert rep.named("semigroup.assoc").passed
    check = rep.named("compat.distributivity")
    assert not check.passed
    assert "(0, 1, 1)" in check.detail


def test_stored_omega_is_checked_against_derivation():
    g = cyclic_group(3)
    t = SkewTruss(g, FiniteSemigroup(g.table), (1, 0, 2))
    rep = verify_skew_truss(t)
    assert not rep.named("cocycle.derived").passed


def test_derive_omega_on_projections():
    g = cyclic_group(3)
    assert derive_omega(g, FiniteSemigroup(g.table)) == (0, 1, 2)
    assert derive_omega(g, trivial_truss(g).semigroup) == (0, 1, 2)
    assert derive_omega(g, left_projection_truss(g).semigroup) == (0, 1, 2)
    assert derive_omega(g, right_projection_truss(g).semigroup) == (0, 0, 0)


# -- morphisms ----------------------------------------------------------------


def test_identity_morphism_passes():
    t = trivial_truss(symmetric_group(3))
    rep = verify_set_morphism(SetMorphism(6, 6, tuple(range(6))), t, t)
    assert rep.ok


def test_collapse_to_point_passes():
    src = right_projection_truss(cyclic_group(3))
    dst = trivial_truss(cyclic_group(1))
    rep = verify_set_morphism(SetMorphism(3, 1, (0, 0, 0)), src, dst)
    assert rep.ok


def test_every_hom_pair_satisfies_the_cocycle_intertwine():
    # exhaustive over all maps Z2 -> Z2 and all enumerated trusses on both ends
    trusses = enumerate_skew_trusses(cyclic_group(2))
    for src in trusses:
        for dst in trusses:
            for mapping in itertools.product(range(2), repeat=2):
                rep = verify_set_morphism(SetMorphism(2, 2, mapping), src, dst)
                if rep.named("group.hom").passed and rep.named("semigroup.hom").passed:
                    assert rep.named("implied.cocycle").passed


def test_morphism_shape_mismatch_raises():
    t2 = trivial_truss(cyclic_group(2))
    t3 = trivial_truss(cyclic_group(3))
    with pytest.raises(DimensionMismatchError):
        verify_set_morphism(SetMorphism(2, 2, (0, 1)), t2, t3)


# -- enumeration --------------------------------------------------------------


def test_enumeration_on_z2_matches_oracle():
    g = cyclic_group(2)
    fast = enumerate_skew_trusses(g)
    slow = naive_enumerate(g)
    assert fast == slow
    assert len(fast) == 8


def test_enumeration_on_z3_matches_oracle():
    g = cyclic_group(3)
    fast = enumerate_skew_trusses(g)
    slow = naive_enumerate(g)
    assert fast == slow


def test_enumeration_output_is_lexicographic_and_valid():
    for n in (2, 3):
        trusses = enumerate_skew_trusses(cyclic_group(n))
        flats = [tuple(x for row in t.semigroup.table for x in row) for t in trusses]
        assert flats == sorted(flats)
        for t in trusses:
            assert verify_skew_truss(t).ok


def test_enumeration_contains_the_three_standard_trusses():
    g = cyclic_group(2)
    found = enumerate_skew_trusses(g)
    for t in (trivial_truss(g), left_projection_truss(g), right_projection_truss(g)):
        assert t in found


def test_enumeration_bound():
    with pytest.raises(BoundExceededError):
        enumerate_skew_trusses(symmetric_group(3))
    with pytest.raises(BoundExceededError):
        enumerate_skew_trusses(cyclic_group(3), max_size=2)


def test_enumeration_refuses_large_orders_before_any_work(monkeypatch):
    def no_work(g):
        raise AssertionError("search started")

    monkeypatch.setattr(settruss, "_valid_rows", no_work)
    limit = settruss.MAX_ENUMERATION_ORDER
    with pytest.raises(BoundExceededError):
        enumerate_skew_trusses(cyclic_group(limit + 1), max_size=limit + 1)
    with pytest.raises(BoundExceededError):
        enumerate_skew_trusses(cyclic_group(12), max_size=12)


@pytest.mark.parametrize("group", [cyclic_group(n) for n in range(1, 7)]
                         + [KLEIN, symmetric_group(3)])
def test_endomorphisms_match_the_full_sweep(group):
    assert settruss._group_endomorphisms(group) == naive_endomorphisms(group)


@pytest.mark.parametrize("group", [cyclic_group(n) for n in (2, 4, 5, 6)]
                         + [KLEIN, symmetric_group(3)])
def test_valid_rows_sweep_the_endomorphisms_once(monkeypatch, group):
    calls = count_calls(monkeypatch, "_group_endomorphisms")
    enumerate_skew_trusses(group, max_size=6)
    assert calls == {"_group_endomorphisms": 1}
    assert settruss._valid_rows(group) == naive_rows(group)


@pytest.mark.parametrize("group", [KLEIN, cyclic_group(5)])
def test_enumeration_matches_the_full_recheck_search(group):
    assert enumerate_skew_trusses(group, max_size=5) == full_recheck_enumerate(group)


@pytest.mark.parametrize("group", [symmetric_group(3), cyclic_group(6)])
def test_enumeration_commutes_with_relabeling(group):
    # The full recheck costs 22 s on S3 and 7 s on Z6, so the candidate
    # filter is checked there by moving the group along a permutation:
    # the search must find exactly the moved trusses.
    p = (3, 5, 0, 2, 4, 1)
    moved = relabel_group(group, p)
    expected = {move_truss(t, moved, p) for t in enumerate_skew_trusses(group, max_size=6)}
    found = enumerate_skew_trusses(moved, max_size=6)
    assert len(found) == len(expected)
    assert set(found) == expected


@pytest.mark.parametrize("group, trusses, classes", [
    (cyclic_group(5), 622, 164),
    (cyclic_group(6), 4249, 2211),
    (symmetric_group(3), 6178, 1150),
    (cyclic_group(7), 20449, 3440),
])
def test_truss_and_class_counts(group, trusses, classes):
    found = enumerate_skew_trusses(group, max_size=7)
    assert len(found) == trusses
    assert len(isomorphism_classes(found)) == classes


@pytest.mark.parametrize("group", [cyclic_group(4), KLEIN])
def test_search_trusses_equal_checked_ones(group):
    # the search builds its trusses without the constructors' checks
    n = group.size
    for t in enumerate_skew_trusses(group):
        table = t.semigroup.table
        checked = SkewTruss(group, FiniteSemigroup(table), t.omega)
        assert t == checked
        assert hash(t) == hash(checked)
        assert type(table) is tuple and len(table) == n
        assert all(type(row) is tuple and len(row) == n for row in table)
        assert all(type(x) is int and 0 <= x < n for row in table for x in row)
        assert all(type(x) is int for x in t.omega)
        assert verify_skew_truss(t).ok


def test_enumeration_on_z4_smoke():
    g = cyclic_group(4)
    found = enumerate_skew_trusses(g)
    flats = [tuple(x for row in t.semigroup.table for x in row) for t in found]
    assert flats == sorted(flats)
    for t in found:
        assert verify_skew_truss(t).ok
    circle = FiniteSemigroup([[(a + b + 2 * a * b) % 4 for b in range(4)]
                              for a in range(4)])
    assert SkewTruss(g, circle, derive_omega(g, circle)) in found
    assert trivial_truss(g) in found


def test_isomorphism_classes_on_z2():
    # the only non-identity bijection of a 2-set does not fix the group
    # table, so no two trusses over the fixed cyclic table are isomorphic
    trusses = enumerate_skew_trusses(cyclic_group(2))
    classes = isomorphism_classes(trusses)
    assert sorted(len(c) for c in classes) == [1] * 8
    assert all(canonical_form(t) == canonical_form(c[0])
               for c in classes for t in c)


@pytest.mark.parametrize("group", [cyclic_group(4), KLEIN,
                                   relabel_group(cyclic_group(4), (2, 0, 3, 1)),
                                   cyclic_group(5)])
def test_canonical_form_matches_the_full_relabeling_sweep(group):
    check_forms_against_the_sweep(enumerate_skew_trusses(group, max_size=5))


def test_canonical_form_on_the_non_abelian_coset():
    # Aut(S3) has six elements and S3 is not abelian; the sample mixes S3
    # with a relabeled S3, whose trusses share classes with S3's
    rng = random.Random(12)
    s3 = symmetric_group(3)
    relabeled = relabel_group(s3, (2, 4, 0, 5, 1, 3))
    sample = (rng.sample(enumerate_skew_trusses(s3, max_size=6), 40)
              + rng.sample(enumerate_skew_trusses(relabeled, max_size=6), 20))
    buckets = check_forms_against_the_sweep(sample)
    assert any(len({t.group for t in c}) == 2 for c in buckets.values())


def test_canonical_form_sweeps_each_group_once(monkeypatch):
    # two trusses over one Z7 and one over an equal Z7 built apart are over
    # one group value: classifying them computes no canonical form, and the
    # n! relabeling sweep runs once, for Aut(Z7); their canonical forms
    # after read the memo of that group value
    g = cyclic_group(7)
    twin = FiniteGroup(g.table, g.unit, g.inv)
    trusses = [right_projection_truss(g), left_projection_truss(g), trivial_truss(twin)]
    runs = count_runs(monkeypatch, "_group_form", "_form_over")
    classes = isomorphism_classes(trusses)
    assert runs == {"_group_form": 1} and len(classes) == 3
    forms = [canonical_form(t) for t in trusses]
    assert runs == {"_group_form": 1, "_form_over": 3}
    # a relabeled Z7 is a second group value: its sweep runs once, and
    # the merge computes one canonical form for each of the four orbits
    moved = relabel_group(g, (3, 0, 6, 1, 5, 2, 4))
    mixed = trusses + [trivial_truss(moved), trivial_truss(moved)]
    runs.clear()
    merged = isomorphism_classes(mixed)
    assert runs == {"_group_form": 1, "_form_over": 4}
    assert identities(merged) == identities([mixed[:1], mixed[1:2], mixed[2:]])
    monkeypatch.undo()
    assert forms == [naive_canonical_form(t) for t in trusses]
    assert identities(classes) == identities([[t] for t in trusses])


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_classes_across_group_values_match_the_sweep(seed):
    # Seeded samples with repeats, shuffled so that the group values
    # interleave: Z4 and a relabeled Z4, KLEIN and an equal KLEIN built
    # apart, S3 and a relabeled S3.  Orbits are merged across group values
    # only; the classes must be the naive buckets, object for object.
    rng = random.Random(seed)
    z4, s3 = cyclic_group(4), symmetric_group(3)
    groups = [(z4, 12), (relabel_group(z4, (2, 0, 3, 1)), 12),
              (KLEIN, 10), (FiniteGroup(KLEIN.table, KLEIN.unit, KLEIN.inv), 10),
              (s3, 8), (relabel_group(s3, (2, 4, 0, 5, 1, 3)), 8)]
    sample = [t for g, k in groups
              for t in rng.choices(enumerate_skew_trusses(g, max_size=6), k=k)]
    sample += rng.choices(sample, k=10)
    rng.shuffle(sample)
    buckets = check_forms_against_the_sweep(sample)
    assert any(len({t.group.table for t in c}) == 2 for c in buckets.values())


@pytest.mark.parametrize("group, classes", [
    (cyclic_group(4), 101),
    (KLEIN, 126),
    (cyclic_group(5), 164),
    (cyclic_group(6), 2211),
    (symmetric_group(3), 1150),
])
def test_class_counts_obey_burnside(group, classes):
    # Aut(G), found by brute force, permutes the trusses over G, so their
    # classes number |Aut(G)|^-1 sum_phi |Fix(phi)|: no canonical form
    # enters the count
    tables = {t.semigroup.table for t in enumerate_skew_trusses(group, max_size=6)}
    auts = brute_automorphisms(group)
    fixed = 0
    for p in auts:
        for table in tables:
            image = moved_table(table, p)
            assert image in tables
            fixed += image == table
    assert fixed == classes * len(auts)
    assert len(isomorphism_classes(enumerate_skew_trusses(group, max_size=6))) == classes


def lambda_maps(g):
    """Oracle: every a -> lambda_a in Aut(g) with
    lambda_{a*lambda_a(b)} = lambda_a lambda_b, by backtracking on a."""
    n = g.size
    t1 = g.table
    auts = brute_automorphisms(g)
    found = []
    chosen = []

    def partial_ok():
        k = len(chosen)
        for a in range(k):
            for b in range(k):
                c = t1[a][chosen[a][b]]
                if c < k and chosen[c] != tuple(chosen[a][x] for x in chosen[b]):
                    return False
        return True

    def extend():
        if len(chosen) == n:
            found.append(tuple(chosen))
            return
        for f in auts:
            chosen.append(f)
            if partial_ok():
                extend()
            chosen.pop()

    extend()
    return found, auts


def conjugated(lam, phi):
    """lambda moved along phi: a -> phi lambda_{phi^-1(a)} phi^-1."""
    back = sorted(range(len(phi)), key=phi.__getitem__)
    return tuple(tuple(phi[lam[back[a]][back[x]]] for x in range(len(phi)))
                 for a in range(len(phi)))


@pytest.mark.parametrize("group, braces", [
    (cyclic_group(4), 2),
    (KLEIN, 2),
    (cyclic_group(6), 2),
    (symmetric_group(3), 4),
])
def test_skew_brace_classes_match_the_lambda_map_count(group, braces):
    # Skew braces with additive group A are the lambda-maps A -> Aut(A)
    # up to conjugation by Aut(A); as trusses they are those whose second
    # product a*lambda_a(b) is a group and whose omega is the identity
    # (Guarnieri and Vendramin, Math. Comp. 2017: 4 skew braces of order
    # 4 and 6 of order 6)
    lams, auts = lambda_maps(group)
    assert len({min(conjugated(lam, phi) for phi in auts) for lam in lams}) == braces
    n = group.size
    t1 = group.table

    def is_brace(t):
        if t.omega != tuple(range(n)):
            return False
        try:
            FiniteGroup.from_table(t.semigroup.table)
        except InvalidStructureError:
            return False
        return True
    classes = isomorphism_classes(enumerate_skew_trusses(group, max_size=6))
    kinds = [{is_brace(t) for t in c} for c in classes]
    assert all(len(k) == 1 for k in kinds)
    assert kinds.count({True}) == braces
    assert ({t.semigroup.table for c in classes for t in c if is_brace(t)}
            == {tuple(tuple(t1[a][lam[a][b]] for b in range(n)) for a in range(n))
                for lam in lams})


def test_canonical_form_identifies_relabeled_trusses():
    g = cyclic_group(2)
    relabeled = FiniteGroup.from_table([[1, 0], [0, 1]])
    a = trivial_truss(g)
    b = trivial_truss(relabeled)
    assert canonical_form(a) == canonical_form(b)
    assert a != b


# -- linearization ------------------------------------------------------------


@pytest.mark.parametrize("field", [RATIONALS, F5])
def test_linearize_trivial_truss_on_z2(field):
    h = linearize(trivial_truss(cyclic_group(2)), field)
    assert h.cocycle == identity(field, 2)
    assert verify_hopf_truss(h).ok


@pytest.mark.parametrize("field", [RATIONALS, F5, prime_field(2)])
def test_linearize_builds_the_maps_that_the_tables_give_entry_by_entry(field):
    # linearize builds each map from its table; truss_from_tables builds
    # it from the Cayley tables one entry at a time
    for t in (trivial_truss(symmetric_group(3)), left_projection_truss(KLEIN),
              *enumerate_skew_trusses(cyclic_group(3))):
        h = linearize(t, field)
        by_entries = truss_from_tables(field, t.group.table, t.semigroup.table, t.omega)
        for _, path, _, _ in HopfTruss.ALL_MAPS:
            a, b = attrgetter(path)(h), attrgetter(path)(by_entries)
            assert a == b and hash(a) == hash(b) and dict(a.items()) == dict(b.items())
        assert h == by_entries


def test_linearize_right_projection_collapses_cocycle():
    h = linearize(right_projection_truss(cyclic_group(2)), RATIONALS)
    assert h.cocycle == LinMap(RATIONALS, 2, 2, {(0, 0): 1, (0, 1): 1})


@pytest.mark.parametrize("field", [RATIONALS, F5])
def test_every_enumerated_truss_linearizes_to_a_hopf_truss(field):
    for n in (2, 3):
        for t in enumerate_skew_trusses(cyclic_group(n)):
            rep = verify_hopf_truss(linearize(t, field))
            assert rep.ok, str(rep)


def test_linearized_cocycle_is_a_comonoid_morphism():
    for t in (trivial_truss(symmetric_group(3)),
              right_projection_truss(cyclic_group(3))):
        h = linearize(t, RATIONALS)
        assert h.comonoid.epsilon @ h.cocycle == h.comonoid.epsilon
        assert h.comonoid.delta @ h.cocycle == kron(h.cocycle, h.cocycle) @ h.comonoid.delta


def test_linearize_rejects_broken_trusses():
    g = cyclic_group(3)
    bad = SkewTruss(g, FiniteSemigroup(g.table), (1, 0, 2))
    with pytest.raises(InvalidStructureError) as exc:
        linearize(bad, RATIONALS)
    assert exc.value.report is not None
    assert not exc.value.report.ok


# -- grouplike restriction ----------------------------------------------------


@pytest.mark.parametrize("field", [RATIONALS, F5])
def test_roundtrip_is_the_identity_on_enumerated_trusses(field):
    for n in (2, 3):
        for t in enumerate_skew_trusses(cyclic_group(n)):
            assert truss_of_grouplikes(linearize(t, field)) == t


def test_roundtrip_on_symmetric_group_trusses():
    g = symmetric_group(3)
    for t in (trivial_truss(g), left_projection_truss(g)):
        assert truss_of_grouplikes(linearize(t, RATIONALS)) == t


def test_grouplikes_of_group_algebra_brace():
    t = truss_of_grouplikes(linearize(trivial_truss(cyclic_group(2)), RATIONALS))
    assert t == trivial_truss(cyclic_group(2))


def test_permutation_transport_recovers_relabeled_truss():
    h = linearize(trivial_truss(cyclic_group(2)), RATIONALS)
    flip = LinMap(RATIONALS, 2, 2, {(1, 0): 1, (0, 1): 1})
    recovered = truss_of_grouplikes(h.moved({"dim": flip}))
    assert recovered == trivial_truss(FiniteGroup.from_table([[1, 0], [0, 1]]))


def test_non_diagonal_coproduct_over_q_is_refused():
    h = linearize(trivial_truss(cyclic_group(2)), RATIONALS)
    p = LinMap.from_rows(RATIONALS, [[1, 1], [0, 1]])
    with pytest.raises(IncompleteGrouplikesError):
        truss_of_grouplikes(h.moved({"dim": p}))


def test_transported_truss_over_f5_recovered_up_to_relabeling():
    t = right_projection_truss(cyclic_group(2))
    h = linearize(t, F5)
    p = LinMap.from_rows(F5, [[1, 1], [0, 1]])
    moved = h.moved({"dim": p})
    assert verify_hopf_truss(moved).ok
    recovered = truss_of_grouplikes(moved)
    assert verify_skew_truss(recovered).ok
    assert canonical_form(recovered) == canonical_form(t)


def test_closure_error_on_corrupted_product():
    h = linearize(trivial_truss(cyclic_group(2)), RATIONALS)
    bad_mu2 = LinMap(RATIONALS, 2, 4,
                     {(0, 0): 1, (1, 0): 1, (1, 1): 1, (0, 2): 1, (0, 3): 1})
    broken = HopfTruss(h.comonoid, h.eta, h.mu1, bad_mu2, h.antipode, h.cocycle)
    with pytest.raises(ClosureError):
        truss_of_grouplikes(broken)
