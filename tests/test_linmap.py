"""Exact linear algebra: oracles, frozen bases, and algebraic properties."""

import copy
import gc
import math
import pickle
import random
import weakref
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import count_runs, flip, unset

from trusslab.coalgebra import diagonal
from trusslab.errors import (
    AmbiguousSystemError,
    DimensionMismatchError,
    FieldMismatchError,
    InconsistentSystemError,
    NotIdempotentError,
    NotInvertibleError,
)
from trusslab.fields import PRIME_BOUND, RATIONALS, FieldSpec, _is_prime, prime_field
from trusslab.linmap import (
    LinMap,
    _tensor_rows,
    compose_tensor,
    identity,
    image_basis,
    invert,
    kron,
    nullspace,
    rank,
    solve_through,
    split_idempotent,
    tensor_apply,
    tensor_compose,
)
from trusslab.report import equation

F5 = prime_field(5)


def random_rational_map(rnd, cod, dom):
    rows = [[Fraction(rnd.randint(-4, 4), rnd.randint(1, 4)) for _ in range(dom)]
            for _ in range(cod)]
    return LinMap.from_rows(RATIONALS, rows, dom=dom)


def random_f5_map(rnd, cod, dom):
    rows = [[rnd.randint(0, 4) for _ in range(dom)] for _ in range(cod)]
    return LinMap.from_rows(F5, rows, dom=dom)


# -- composition ---------------------------------------------------------


def oracle_compose(g, f):
    # Independent route: dense triple loop over the defining sum.
    field = g.field
    out = []
    for i in range(g.cod):
        row = []
        for j in range(f.dom):
            acc = field.zero
            for k in range(g.dom):
                acc = field.add(acc, field.mul(g.entry(i, k), f.entry(k, j)))
            row.append(acc)
        out.append(row)
    return LinMap.from_rows(field, out, dom=f.dom)


def test_compose_matches_triple_loop_oracle():
    rnd = random.Random(12)
    for _ in range(20):
        g = random_rational_map(rnd, 3, 2)
        f = random_rational_map(rnd, 2, 4)
        assert g @ f == oracle_compose(g, f)


def test_compose_is_associative():
    rnd = random.Random(13)
    for _ in range(20):
        a = random_rational_map(rnd, 2, 3)
        b = random_rational_map(rnd, 3, 4)
        c = random_rational_map(rnd, 4, 2)
        assert (a @ b) @ c == a @ (b @ c)


def test_compose_shape_and_field_guards():
    a = random_rational_map(random.Random(1), 2, 3)
    b = random_f5_map(random.Random(2), 3, 2)
    with pytest.raises(DimensionMismatchError):
        a @ a
    with pytest.raises(FieldMismatchError):
        a @ b


# -- kron and the flip oracle ---------------------------------------------


def oracle_kron(f, g):
    # Independent route: four-index loop over the left-major convention.
    field = f.field
    cod = f.cod * g.cod
    dom = f.dom * g.dom
    rows = [[field.zero] * dom for _ in range(cod)]
    for i1 in range(f.cod):
        for j1 in range(f.dom):
            for i2 in range(g.cod):
                for j2 in range(g.dom):
                    rows[i1 * g.cod + i2][j1 * g.dom + j2] = field.mul(
                        f.entry(i1, j1), g.entry(i2, j2))
    return LinMap.from_rows(field, rows, dom=dom)


def test_kron_matches_four_index_oracle():
    rnd = random.Random(14)
    for _ in range(10):
        f = random_rational_map(rnd, 2, 3)
        g = random_rational_map(rnd, 3, 2)
        assert kron(f, g) == oracle_kron(f, g)


def test_kron_interchange_law():
    rnd = random.Random(15)
    for _ in range(10):
        f1 = random_rational_map(rnd, 2, 3)
        f2 = random_rational_map(rnd, 3, 2)
        g1 = random_rational_map(rnd, 3, 2)
        g2 = random_rational_map(rnd, 2, 3)
        assert kron(f1 @ f2, g1 @ g2) == kron(f1, g1) @ kron(f2, g2)


def test_swap_2_2_explicit_matrix():
    expected = LinMap.from_rows(RATIONALS, [
        [1, 0, 0, 0],
        [0, 0, 1, 0],
        [0, 1, 0, 0],
        [0, 0, 0, 1],
    ])
    assert flip(2, 2, RATIONALS) == expected


def test_swap_sends_basis_tensors_correctly():
    # e_i (x) e_j at flat i*n+j must land at flat j*m+i.
    m, n = 3, 4
    s = flip(m, n, RATIONALS)
    for i in range(m):
        for j in range(n):
            src = LinMap.basis_vector(RATIONALS, m * n, i * n + j)
            dst = LinMap.basis_vector(RATIONALS, n * m, j * m + i)
            assert s @ src == dst


def test_swap_naturality():
    rnd = random.Random(16)
    for _ in range(10):
        f = random_rational_map(rnd, 2, 3)
        g = random_rational_map(rnd, 4, 2)
        lhs = flip(f.cod, g.cod, RATIONALS) @ kron(f, g)
        rhs = kron(g, f) @ flip(f.dom, g.dom, RATIONALS)
        assert lhs == rhs


def test_swap_is_self_inverse_up_to_sides():
    for m, n in [(1, 5), (2, 3), (3, 3), (0, 4)]:
        assert flip(n, m, RATIONALS) @ flip(m, n, RATIONALS) == identity(RATIONALS, m * n)


# -- nullspace -------------------------------------------------------------


def test_nullspace_canonical_basis_frozen():
    f = LinMap.from_rows(RATIONALS, [[1, 2, 3], [2, 4, 6]])
    basis = nullspace(f)
    # RREF has the single pivot in column 0; free columns 1 and 2 give
    # the canonical vectors (-2, 1, 0) and (-3, 0, 1).
    assert [b.rows() for b in basis] == [
        [[Fraction(-2)], [Fraction(1)], [Fraction(0)]],
        [[Fraction(-3)], [Fraction(0)], [Fraction(1)]],
    ]
    for b in basis:
        assert (f @ b).is_zero()


def test_nullspace_rank_nullity_on_random_maps():
    rnd = random.Random(17)
    for _ in range(15):
        f = random_rational_map(rnd, rnd.randint(1, 4), rnd.randint(1, 5))
        basis = nullspace(f)
        assert rank(f) + len(basis) == f.dom
        for b in basis:
            assert (f @ b).is_zero()
        # Basis vectors are independent: stacking them has full rank.
        if basis:
            assert rank(LinMap.from_columns(RATIONALS, f.dom, basis)) == len(basis)


def test_nullspace_is_deterministic():
    f = random_f5_map(random.Random(18), 3, 5)
    assert nullspace(f) == nullspace(f)


def test_nullspace_of_zero_and_of_injective():
    assert len(nullspace(LinMap.zero(RATIONALS, 2, 3))) == 3
    assert nullspace(identity(RATIONALS, 4)) == []
    assert len(nullspace(LinMap.zero(RATIONALS, 0, 2))) == 2


# -- inversion --------------------------------------------------------------


def elementary_add(field, n, i, j, value):
    m = {(k, k): field.one for k in range(n)}
    m[(i, j)] = field.coerce(value)
    return LinMap(field, n, n, m)


def test_invert_unimodular_product():
    # Product of elementary matrices is unimodular; inverse must be exact.
    rnd = random.Random(19)
    n = 4
    m = identity(RATIONALS, n)
    for _ in range(12):
        i, j = rnd.sample(range(n), 2)
        m = m @ elementary_add(RATIONALS, n, i, j, rnd.randint(-3, 3))
    minv = invert(m)
    assert m @ minv == identity(RATIONALS, n)
    assert minv @ m == identity(RATIONALS, n)


def test_invert_over_prime_field():
    f = LinMap.from_rows(F5, [[1, 2], [3, 4]])
    finv = invert(f)
    assert f @ finv == identity(F5, 2)
    assert finv @ f == identity(F5, 2)


def test_a_table_that_is_not_bijective_is_not_inverted():
    # e_0, e_1 |-> e_0 and e_2 |-> e_2: a basis map of rank 2
    for field in (RATIONALS, F5):
        f = LinMap(field, 3, 3, {(0, 0): 1, (0, 1): 1, (2, 2): 1})
        assert f._table() == (0, 0, 2)
        with pytest.raises(NotInvertibleError, match="map of rank 2 < 3"):
            invert(f)


def test_invert_singular_raises():
    with pytest.raises(NotInvertibleError, match="map of rank 1 < 2"):
        invert(LinMap.from_rows(RATIONALS, [[1, 2], [2, 4]]))
    with pytest.raises(NotInvertibleError):
        invert(LinMap.zero(RATIONALS, 2, 3))


# -- solving and splitting ---------------------------------------------------


def test_solve_through_recovers_factor():
    rnd = random.Random(20)
    a = random_rational_map(rnd, 4, 2)
    while rank(a) < 2:
        a = random_rational_map(rnd, 4, 2)
    x = random_rational_map(rnd, 2, 3)
    assert solve_through(a, a @ x) == x


def test_solve_through_error_modes():
    a = LinMap.from_rows(RATIONALS, [[1, 0], [0, 1], [0, 0]])
    bad = LinMap.from_rows(RATIONALS, [[0], [0], [1]])
    with pytest.raises(InconsistentSystemError):
        solve_through(a, bad)
    fat = LinMap.from_rows(RATIONALS, [[1, 1]])
    with pytest.raises(AmbiguousSystemError):
        solve_through(fat, LinMap.from_rows(RATIONALS, [[1]]))


def test_split_idempotent_frozen_group_algebra_case():
    # q sends both basis vectors of Q[Z/2] to the unit: rank one.
    q = LinMap.from_rows(RATIONALS, [[1, 1], [0, 0]])
    p, i = split_idempotent(q)
    assert i.rows() == [[Fraction(1)], [Fraction(0)]]
    assert p.rows() == [[Fraction(1), Fraction(1)]]
    assert i @ p == q
    assert p @ i == identity(RATIONALS, 1)


def test_split_idempotent_random_projectors():
    rnd = random.Random(21)
    for _ in range(10):
        # Conjugate a coordinate projector by a unimodular map.
        n = 4
        u = identity(RATIONALS, n)
        for _ in range(8):
            i, j = rnd.sample(range(n), 2)
            u = u @ elementary_add(RATIONALS, n, i, j, rnd.randint(-2, 2))
        r = rnd.randint(0, n)
        d = LinMap(RATIONALS, n, n, {(k, k): 1 for k in range(r)})
        q = u @ d @ invert(u)
        p, i = split_idempotent(q)
        assert i @ p == q
        assert p @ i == identity(RATIONALS, r)


def test_split_idempotent_rejects_non_idempotent():
    with pytest.raises(NotIdempotentError):
        split_idempotent(LinMap.from_rows(RATIONALS, [[2, 0], [0, 0]]))


def test_image_basis_is_column_echelon():
    f = LinMap.from_rows(RATIONALS, [[0, 0], [1, 2], [2, 4]])
    basis = image_basis(f)
    assert [b.rows() for b in basis] == [[[Fraction(0)], [Fraction(1)], [Fraction(2)]]]


# -- misc surface -------------------------------------------------------------


def test_entries_are_canonicalized():
    m = LinMap(F5, 2, 2, {(0, 0): 7, (1, 1): 5})
    assert m.entry(0, 0) == 2
    assert m.entry(1, 1) == 0
    assert m == LinMap(F5, 2, 2, {(0, 0): 2})


def test_zero_dimensional_maps():
    e = LinMap.zero(RATIONALS, 0, 0)
    assert (e @ e).is_zero()
    assert kron(e, identity(RATIONALS, 3)).shape == (0, 0)
    assert identity(RATIONALS, 0) == e


def test_linmap_is_immutable_and_hashable():
    m = identity(RATIONALS, 2)
    with pytest.raises(AttributeError):
        m.cod = 3
    assert hash(m) == hash(identity(RATIONALS, 2))
    assert len({m, identity(RATIONALS, 2)}) == 1
    # the table is a cache that outside code cannot write, before or after it is read
    f = LinMap(RATIONALS, 2, 2, {(1, 0): 1, (0, 1): 1})
    for _ in range(2):
        with pytest.raises(AttributeError):
            f._tab = (0, 0)
        assert f._table() == (1, 0)


def test_bools_are_not_scalars():
    for field in (RATIONALS, F5):
        for flag in (True, False):
            with pytest.raises(TypeError):
                field.coerce(flag)
            with pytest.raises(TypeError):
                LinMap(field, 1, 1, {(0, 0): flag})
            with pytest.raises(TypeError):
                identity(field, 2).scale(flag)


@pytest.mark.parametrize("index", [0.5, 1.0, "1", True, None])
def test_entry_indices_must_be_ints(index):
    for field in (RATIONALS, F5):
        with pytest.raises(TypeError):
            LinMap(field, 2, 2, {(index, 0): 1})
        with pytest.raises(TypeError):
            LinMap(field, 2, 2, {(0, index): 1})
        with pytest.raises(TypeError):
            LinMap.basis_vector(field, 3, index)
        # a table's rows are indices too
        with pytest.raises(TypeError):
            LinMap(field, 2, 2, (0, index))


@pytest.mark.parametrize("table", [(0, 2), (-1, 0), (0, 1, 0), (1,)])
def test_a_table_must_give_a_row_inside_cod_for_each_column(table):
    # a row outside cod is refused as its entry is; so is a table of another length than dom
    for field in (RATIONALS, F5):
        with pytest.raises(DimensionMismatchError):
            LinMap(field, 2, 2, table)
        if len(table) == 2:
            with pytest.raises(DimensionMismatchError):
                LinMap(field, 2, 2, {(i, j): 1 for j, i in enumerate(table)})


# -- differential tests of the reduce-once kernels ------------------------------
#
# The kernels accumulate with native arithmetic and reduce each output
# entry once.  Over Q a stored scalar is an int exactly when it is
# integral; over F_p it is an int residue in [1, p).  Every operation is
# compared entry by entry with a dense reference below that computes in
# Fraction only, reduced mod p over a prime field, and every output is
# checked for the canonical form.  Residues lean on p - 1, so raw sums
# pass p many times before their one reduction.

FIELDS = [RATIONALS] + [prime_field(p) for p in (2, 3, 5, 11)]
ELIMINATION_FIELDS = [RATIONALS, prime_field(2), prime_field(3)]


def assert_canonical(m):
    for _, value in m.items():
        assert value != 0
        if type(value) is Fraction:
            assert value.denominator != 1
        else:
            assert type(value) is int
            assert m.field.p is None or 0 < value < m.field.p
    # a table set when the map was built is the one its entries give
    assert m._table() == LinMap(m.field, m.cod, m.dom, dict(m.items()))._table()


def reduced(rows, field):
    return rows if field.p is None else [[v % field.p for v in row] for row in rows]


def dense(m):
    return [[Fraction(v) for v in row] for row in m.rows()]


def ref_compose(a, b, dom):
    """Dense product of a and b, where b has `dom` columns."""
    return [[sum((a[i][k] * b[k][j] for k in range(len(b))), Fraction(0))
             for j in range(dom)] for i in range(len(a))]


def ref_rref(rows, ncols, field=RATIONALS):
    # Gauss-Jordan in Fraction, reduced mod p after every step over F_p:
    # leftmost pivot column, first nonzero row.
    def red(row):
        return row if field.p is None else [v % field.p for v in row]

    rows = [red(r) for r in rows]
    pivots = []
    for col in range(ncols):
        r0 = len(pivots)
        hit = next((r for r in range(r0, len(rows)) if rows[r][col] != 0), None)
        if hit is None:
            continue
        rows[r0], rows[hit] = rows[hit], rows[r0]
        pivot = rows[r0][col]
        inv = Fraction(1, pivot) if field.p is None else pow(int(pivot), -1, field.p)
        rows[r0] = red([v * inv for v in rows[r0]])
        for r in range(len(rows)):
            if r != r0 and rows[r][col] != 0:
                rows[r] = red([x - rows[r][col] * y for x, y in zip(rows[r], rows[r0])])
        pivots.append(col)
    return rows, pivots


scalars = st.one_of(st.just(0), st.integers(-3, 3),
                    st.fractions(min_value=-3, max_value=3, max_denominator=4))


def scalars_of(field):
    if field is RATIONALS:
        return scalars
    return st.one_of(st.just(field.p - 1), st.integers(0, field.p - 1))


@st.composite
def exact_maps(draw, cod=None, dom=None, field=RATIONALS):
    cod = draw(st.integers(0, 4)) if cod is None else cod
    dom = draw(st.integers(0, 4)) if dom is None else dom
    rows = draw(st.lists(st.lists(scalars_of(field), min_size=dom, max_size=dom),
                         min_size=cod, max_size=cod))
    return LinMap.from_rows(field, rows, dom=dom)


@st.composite
def tables_and_maps(draw, cod=None, dom=None, field=RATIONALS):
    """(t, m): a function t from dom to cod, a permutation at times when
    square, and m the basis map e_j |-> e_t[j], built from its entries or
    from t, or now and then a near miss of it: one entry 2 or p - 1 (-1
    over Q), an empty column, or a column with a second entry.  A shape
    that is not given is drawn with no zero dimension; with cod 0, t is
    None and m is the zero map."""
    cod = draw(st.integers(1, 4)) if cod is None else cod
    dom = draw(st.integers(1, 4)) if dom is None else dom
    if not cod:
        return None, LinMap.zero(field, 0, dom)
    if cod == dom and draw(st.booleans()):
        table = draw(st.permutations(range(dom)))
    else:
        table = draw(st.lists(st.integers(0, cod - 1), min_size=dom, max_size=dom))
    entries = {(i, j): 1 for j, i in enumerate(table)}
    miss = draw(st.sampled_from(["scaled", "empty"] + ["second"] * (cod > 1))) if dom and draw(
        st.integers(0, 3)) == 3 else ""
    if not miss:
        return table, LinMap(field, cod, dom, tuple(table) if draw(st.booleans()) else entries)
    j = draw(st.integers(0, dom - 1))
    if miss == "scaled":
        entries[(table[j], j)] = draw(st.sampled_from([2, field.p - 1 if field.p else -1]))
    elif miss == "empty":
        del entries[(table[j], j)]
    else:
        entries[((table[j] + draw(st.integers(1, cod - 1))) % cod, j)] = 1
    return table, LinMap(field, cod, dom, entries)


def basis_maps(cod=None, dom=None, field=RATIONALS):
    """The map m of tables_and_maps."""
    return tables_and_maps(cod, dom, field).map(lambda drawn: drawn[1])


def maps(cod=None, dom=None, field=RATIONALS):
    """A map with drawn entries, or a basis map or a near miss of one."""
    return st.one_of(exact_maps(cod, dom, field), basis_maps(cod, dom, field))


# How the operands of one example are drawn: all with drawn entries, each
# either way, or all basis maps and near misses, so that every operand of
# a kernel has a table often enough to take its table path.
KINDS = st.sampled_from([exact_maps, maps, basis_maps])


def over(fields, operands):
    """A field drawn from `fields`, then `operands(field)` over it."""
    return st.sampled_from(fields).flatmap(operands)


def composable():
    return over(FIELDS, lambda field: KINDS.flatmap(lambda kind: kind(field=field).flatmap(
        lambda b: st.tuples(kind(dom=b.cod, field=field), st.just(b)))))


def same_shape():
    return over(FIELDS, lambda field: exact_maps(field=field).flatmap(
        lambda a: st.tuples(st.just(a), exact_maps(a.cod, a.dom, field),
                            scalars_of(field))))


EXAMPLES = settings(deadline=None, max_examples=60)


def q(*rows):
    return LinMap.from_rows(RATIONALS, rows)


def f5(*rows):
    return LinMap.from_rows(F5, rows)


# Entry-path operands that the draws reach only now and then, as cases
# of the differentials below: a map with an empty column, and maps with
# no columns, whose products tensor_apply builds from no legs at all.
EMPTY_COLUMN = q([1, 0], [Fraction(1, 2), 0])
DENSE = q([1, 2], [3, Fraction(1, 3)], [0, -1])


@EXAMPLES
@given(composable())
@example((EMPTY_COLUMN, q([1, 2], [3, Fraction(1, 3)])))
@example((f5([1, 2], [3, 4]), f5([0, 1], [0, 4])))
@example((DENSE, LinMap.zero(RATIONALS, 2, 0)))
@example((LinMap.zero(RATIONALS, 3, 0), LinMap.zero(RATIONALS, 0, 2)))
def test_compose_matches_the_fraction_reference(pair):
    a, b = pair
    out = a @ b
    assert_canonical(out)
    assert dense(out) == reduced(ref_compose(dense(a), dense(b), b.dom), a.field)


@EXAMPLES
@given(over(FIELDS, lambda field: KINDS.flatmap(
    lambda kind: st.tuples(kind(field=field), kind(field=field)))))
@example((EMPTY_COLUMN, q([2, 1])))
@example((f5([1], [4]), f5([0, 4, 2])))
@example((LinMap.zero(RATIONALS, 2, 0), DENSE))
@example((DENSE, LinMap.zero(RATIONALS, 2, 0)))
def test_kron_matches_the_fraction_reference(pair):
    a, b = pair
    out = kron(a, b)
    assert_canonical(out)
    da, db = dense(a), dense(b)
    assert dense(out) == reduced([[da[i1][j1] * db[i2][j2]
                                   for j1 in range(a.dom) for j2 in range(b.dom)]
                                  for i1 in range(a.cod) for i2 in range(b.cod)], a.field)


@EXAMPLES
@given(same_shape())
def test_add_sub_scale_transpose_match_the_fraction_reference(operands):
    a, b, c = operands
    da, db = dense(a), dense(b)
    outs = {"add": a + b, "sub": a - b, "neg": -a, "scale": a.scale(c),
            "transpose": a.transpose()}
    for out in outs.values():
        assert_canonical(out)
    field = a.field
    assert dense(outs["add"]) == reduced(
        [[x + y for x, y in zip(r, s)] for r, s in zip(da, db)], field)
    assert dense(outs["sub"]) == reduced(
        [[x - y for x, y in zip(r, s)] for r, s in zip(da, db)], field)
    assert dense(outs["neg"]) == reduced([[-x for x in r] for r in da], field)
    assert dense(outs["scale"]) == reduced([[c * x for x in r] for r in da], field)
    assert dense(outs["transpose"]) == [[da[i][j] for i in range(a.cod)]
                                        for j in range(a.dom)]


@EXAMPLES
@given(over(ELIMINATION_FIELDS, lambda field: exact_maps(field=field)))
def test_rank_and_nullspace_match_the_fraction_reference(a):
    _, pivots = ref_rref(dense(a), a.dom, a.field)
    assert rank(a) == len(pivots)
    basis = nullspace(a)
    free = [j for j in range(a.dom) if j not in pivots]
    assert len(basis) == len(free)
    for j, vec in zip(free, basis):
        assert_canonical(vec)
        column = [row[0] for row in dense(vec)]
        # The canonical vector of free column j: e_j on the free columns.
        assert [column[k] for k in free] == [int(k == j) for k in free]
        assert all(v == 0 for row in reduced(ref_compose(dense(a), dense(vec), 1), a.field)
                   for v in row)


@EXAMPLES
@given(over(ELIMINATION_FIELDS, lambda field: st.integers(0, 4).flatmap(
    lambda n: KINDS.flatmap(lambda kind: kind(n, n, field)))))
def test_invert_matches_the_fraction_reference(a):
    n = a.cod
    aug = [row + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(dense(a))]
    rows, pivots = ref_rref(aug, n, a.field)
    if pivots != list(range(n)):
        with pytest.raises(NotInvertibleError, match=f"map of rank {len(pivots)} < {n}"):
            invert(a)
        return
    inv = invert(a)
    assert_canonical(inv)
    assert dense(inv) == [row[n:] for row in rows]


@EXAMPLES
@given(over(ELIMINATION_FIELDS, lambda field: st.integers(1, 4).flatmap(
    lambda cod: st.tuples(exact_maps(cod, field=field), exact_maps(cod, field=field)))))
def test_solve_through_matches_the_fraction_reference(pair):
    a, b = pair
    n = a.dom
    rows, pivots = ref_rref([r + s for r, s in zip(dense(a), dense(b))], n, a.field)
    consistent = all(v == 0 for row in rows[len(pivots):] for v in row[n:])
    if not consistent:
        with pytest.raises(InconsistentSystemError):
            solve_through(a, b)
    elif pivots != list(range(n)):
        with pytest.raises(AmbiguousSystemError):
            solve_through(a, b)
    else:
        x = solve_through(a, b)
        assert_canonical(x)
        assert dense(x) == [row[n:] for row in rows[:n]]
        assert reduced(ref_compose(dense(a), dense(x), b.dom), a.field) == dense(b)


def test_rational_inverse_is_int_exactly_when_integral():
    for value, expected in [(1, 1), (-1, -1), (Fraction(1, 2), 2),
                            (Fraction(-1, 3), -3), (2, Fraction(1, 2)),
                            (Fraction(2, 3), Fraction(3, 2))]:
        got = RATIONALS.inv(value)
        assert got == expected and type(got) is type(expected)
    assert RATIONALS.parse("4/2") == 2 and type(RATIONALS.parse("4/2")) is int
    assert type(RATIONALS.coerce(Fraction(6, 3))) is int
    assert type(RATIONALS.add(Fraction(1, 2), Fraction(1, 2))) is int
    assert type(RATIONALS.mul(2, Fraction(1, 2))) is int
    assert RATIONALS.zero == 0 and RATIONALS.one == 1


def test_rational_sums_that_are_integral_or_cancel_store_an_int_or_nothing():
    # Each kernel sums raw Fractions; the one reduction per entry must
    # turn 1/3 + 2/3 into the int 1 and drop 1/3 + 2/3 - 1 altogether.
    thirds = LinMap.from_rows(RATIONALS, [[Fraction(1, 3), Fraction(2, 3), Fraction(1, 2)]])
    half = LinMap.from_rows(RATIONALS, [[Fraction(1, 2), Fraction(-1, 2)]])
    outs = {
        "compose": (thirds @ LinMap.from_rows(RATIONALS, [[1, 1], [1, 1], [0, 2]]),
                    {(0, 0): 1, (0, 1): 2}),
        "compose-cancel": (thirds @ LinMap.from_rows(RATIONALS, [[1], [1], [-2]]), {}),
        "tensor_compose": (tensor_compose(thirds, identity(RATIONALS, 1),
                                          LinMap.from_rows(RATIONALS, [[1, 2], [1, -1], [0, 2]])),
                           {(0, 0): 1, (0, 1): 1}),
        "tensor_compose-cancel": (tensor_compose(thirds, identity(RATIONALS, 1),
                                                 LinMap.from_rows(RATIONALS, [[1], [1], [-2]])),
                                  {}),
        "kron": (kron(half, LinMap.from_rows(RATIONALS, [[2, 4]])),
                 {(0, 0): 1, (0, 1): 2, (0, 2): -1, (0, 3): -2}),
        "add": (half + half, {(0, 0): 1, (0, 1): -1}),
        "add-cancel": (half + -half, {}),
        "sub-cancel": (half - half, {}),
        "scale": (half.scale(2), {(0, 0): 1, (0, 1): -1}),
    }
    for name, (out, expected) in outs.items():
        assert dict(out.items()) == expected, name
        assert all(type(v) is int for _, v in out.items()), name


def test_reduce_is_bound_per_field_and_not_a_record_field():
    assert FieldSpec.FIELDS == ("kind", "p")
    f5 = prime_field(5)
    assert repr(f5) == "FieldSpec(kind='Fp', p=5)"
    for twin in (copy.copy(f5), copy.deepcopy(f5), pickle.loads(pickle.dumps(f5))):
        assert twin == f5 and hash(twin) == hash(f5)
        assert twin.reduce(-1) == 4 and twin.reduce(4 * 4 + 4) == 0
        assert twin.mul(4, 4) == 1
    q = pickle.loads(pickle.dumps(RATIONALS))
    assert q == RATIONALS and type(q.reduce(Fraction(6, 3))) is int



def test_primality_agrees_with_trial_division():
    def trial(n):
        return n > 1 and all(n % d for d in range(2, math.isqrt(n) + 1))
    assert [n for n in range(20_000) if _is_prime(n)] == [n for n in range(20_000) if trial(n)]


def test_primality_is_exact_on_pseudoprimes_and_bounded():
    # Carmichael numbers, and the least strong pseudoprime to every prime
    # base up to 37, which a test with those bases alone calls prime.
    for n in (561, 1105, 41041, 399165290221 * 798330580441):
        assert not _is_prime(n)
        with pytest.raises(ValueError, match="not prime"):
            prime_field(n)
    assert prime_field(2**61 - 1).mul(2**60, 2) == 1
    for n in (PRIME_BOUND, 2**89 - 1):
        with pytest.raises(ValueError, match="primality bound"):
            prime_field(n)

@EXAMPLES
@given(same_shape(), st.booleans())
def test_equation_agrees_with_the_residual(operands, equal):
    lhs, rhs, _ = operands
    if equal:
        rhs = LinMap.from_rows(lhs.field, lhs.rows(), dom=lhs.dom)
    result = equation("law", "lhs = rhs", lhs, rhs)
    residual = lhs - rhs
    assert result.passed == residual.is_zero()
    assert result.residual == (None if result.passed else residual)


# -- tensor_compose against the materialising path ------------------------------
#
# tensor_compose(f, g, x) must equal kron(f, g) @ x, the path it replaces,
# and a dense product computed in Fraction only (reduced mod p over F_p).


@st.composite
def tensor_operands(draw):
    field = draw(st.sampled_from(FIELDS))
    values = scalars_of(field)
    kind = draw(KINDS)

    def matrix(cod, dom):
        if kind is basis_maps or kind is maps and draw(st.booleans()):
            return draw(basis_maps(cod, dom, field))
        rows = draw(st.lists(st.lists(values, min_size=dom, max_size=dom),
                             min_size=cod, max_size=cod))
        empty = draw(st.sets(st.integers(0, dom - 1), max_size=dom)) if dom else set()
        return LinMap.from_rows(
            field, [[0 if j in empty else v for j, v in enumerate(row)] for row in rows],
            dom=dom)

    legs = st.integers(1 if kind is basis_maps else 0, 3)
    f = matrix(draw(legs), draw(legs))
    g = matrix(draw(legs), draw(legs))
    return f, g, matrix(f.dom * g.dom, draw(legs))


def ref_tensor_compose(f, g, x):
    df, dg = dense(f), dense(g)
    fg = [[df[i1][j1] * dg[i2][j2] for j1 in range(f.dom) for j2 in range(g.dom)]
          for i1 in range(f.cod) for i2 in range(g.cod)]
    return reduced(ref_compose(fg, dense(x), x.dom), f.field)


@settings(deadline=None, max_examples=120)
@given(tensor_operands())
def test_tensor_compose_matches_kron_and_the_fraction_reference(operands):
    f, g, x = operands
    out = tensor_compose(f, g, x)
    assert out.shape == (f.cod * g.cod, x.dom)
    assert_canonical(out)
    assert out == kron(f, g) @ x
    assert dense(out) == ref_tensor_compose(f, g, x)


def test_tensor_compose_drops_cancelled_entries():
    # Column 0 sums 2*1 + 2*4 = 10 = 0 in F_5; column 1 sums 2*1 + 2*1 = 4.
    f = LinMap.from_rows(F5, [[1, 1]])
    g = LinMap.from_rows(F5, [[2]])
    x = LinMap.from_rows(F5, [[1, 1], [4, 1]])
    out = tensor_compose(f, g, x)
    assert dict(out.items()) == {(0, 1): 4}
    assert out == kron(f, g) @ x


def test_tensor_compose_guards():
    f, g = identity(RATIONALS, 2), identity(RATIONALS, 3)
    with pytest.raises(DimensionMismatchError):
        tensor_compose(f, g, identity(RATIONALS, 5))
    with pytest.raises(FieldMismatchError):
        tensor_compose(f, identity(F5, 3), identity(RATIONALS, 6))
    with pytest.raises(FieldMismatchError):
        tensor_compose(f, g, identity(F5, 6))


# -- compose_tensor and tensor_apply against the materialising path ------------
#
# compose_tensor(x, f, g) must equal x @ kron(f, g), the path it replaces,
# and tensor_apply(f, g, legs, dom) must equal (f (x) g) applied to the map
# that sums the legs; both are checked against products computed in
# Fraction only as well.


@st.composite
def compose_tensor_operands(draw):
    field = draw(st.sampled_from(FIELDS))
    kind = draw(KINDS)
    legs = st.integers(1 if kind is basis_maps else 0, 3)
    f = draw(kind(draw(legs), draw(legs), field))
    g = draw(kind(draw(legs), draw(legs), field))
    return draw(kind(draw(legs), f.cod * g.cod, field)), f, g


def ref_compose_tensor(x, f, g):
    df, dg = dense(f), dense(g)
    fg = [[df[i1][j1] * dg[i2][j2] for j1 in range(f.dom) for j2 in range(g.dom)]
          for i1 in range(f.cod) for i2 in range(g.cod)]
    return reduced(ref_compose(dense(x), fg, f.dom * g.dom), x.field)


@EXAMPLES
@given(compose_tensor_operands())
@example((q([1, 2], [0, Fraction(1, 3)]), EMPTY_COLUMN, q([2, 1])))
@example((f5([0, 3], [0, 1]), f5([1, 2]), f5([1], [3])))
@example((DENSE, LinMap.zero(RATIONALS, 2, 0), q([1, 1])))
@example((LinMap.zero(RATIONALS, 0, 2), q([1, 2]), q([1], [-1])))
def test_compose_tensor_matches_kron_and_the_fraction_reference(operands):
    x, f, g = operands
    out = compose_tensor(x, f, g)
    assert out.shape == (x.cod, f.dom * g.dom)
    assert_canonical(out)
    assert out == x @ kron(f, g)
    assert dense(out) == ref_compose_tensor(x, f, g)


@st.composite
def tensor_apply_operands(draw):
    field = draw(st.sampled_from(FIELDS))
    legs = st.integers(0, 3)
    f = draw(exact_maps(draw(legs), draw(legs), field))
    g = draw(exact_maps(draw(legs), draw(legs), field))
    dom = draw(legs)
    rows = f.dom * g.dom
    keys = st.tuples(st.integers(0, rows - 1), st.integers(0, dom - 1))
    # keys repeat, so the legs at one key are summed before f (x) g applies
    drawn = draw(st.lists(st.tuples(keys, scalars_of(field)), max_size=12)) if rows and dom else []
    return f, g, drawn, dom


@EXAMPLES
@given(tensor_apply_operands())
def test_tensor_apply_matches_the_fraction_reference(operands):
    f, g, legs, dom = operands
    out = tensor_apply(f, g, iter(legs), dom)
    assert out.shape == (f.cod * g.cod, dom)
    assert_canonical(out)
    x = [[Fraction(0)] * dom for _ in range(f.dom * g.dom)]
    for (c, j), v in legs:
        x[c][j] += v
    summed = LinMap.from_rows(f.field, reduced(x, f.field), dom=dom)
    assert out == tensor_compose(f, g, summed)
    assert dense(out) == ref_tensor_compose(f, g, summed)


def test_compose_tensor_and_tensor_apply_drop_cancelled_entries():
    # Over F_5, columns 0 and 1 of x∘(f (x) g) are g[0, j2]·(1*1 + 2*2) = 0;
    # columns 2 and 3 are g[0, j2]·(1*1 + 2*1), that is 3 and 6 = 1.
    f = LinMap.from_rows(F5, [[1, 1], [2, 1]])
    g = LinMap.from_rows(F5, [[1, 2]])
    x = LinMap.from_rows(F5, [[1, 2]])
    out = compose_tensor(x, f, g)
    assert dict(out.items()) == {(0, 2): 3, (0, 3): 1}
    assert out == x @ kron(f, g)
    # Over Q, legs at one key cancel: 1/2 - 1/2, and 1/3 + 2/3 is the int 1.
    third = LinMap.from_rows(RATIONALS, [[Fraction(1, 3)], [Fraction(2, 3)]])
    legs = [((0, 0), Fraction(1, 2)), ((0, 0), Fraction(-1, 2)), ((0, 1), 1), ((0, 1), 2)]
    out = tensor_apply(third, identity(RATIONALS, 1), legs, 2)
    assert dict(out.items()) == {(0, 1): 1, (1, 1): 2}
    assert all(type(v) is int for _, v in out.items())


def test_compose_tensor_guards():
    f, g = identity(RATIONALS, 2), identity(RATIONALS, 3)
    with pytest.raises(DimensionMismatchError):
        compose_tensor(identity(RATIONALS, 5), f, g)
    with pytest.raises(FieldMismatchError):
        compose_tensor(identity(RATIONALS, 6), f, identity(F5, 3))
    with pytest.raises(FieldMismatchError):
        compose_tensor(identity(F5, 6), f, g)


def test_tensor_apply_guards():
    f, g = identity(RATIONALS, 2), identity(RATIONALS, 3)
    with pytest.raises(FieldMismatchError):
        tensor_apply(f, identity(F5, 3), [((0, 0), 1)], 1)
    for legs in ([((6, 0), 1)], [((-1, 0), 1)], [((0, 1), 1)], [((0, -1), 1)]):
        with pytest.raises(DimensionMismatchError):
            tensor_apply(f, g, legs, 1)
    assert tensor_apply(f, g, [], 0).shape == (6, 0)
    # the table path refuses a row past f.dom or g.dom as tensor_apply does
    with pytest.raises(FieldMismatchError):
        _tensor_rows(f, identity(F5, 3), [(0, 0)], [(0, 0)])
    for left, right in ([(2, 0)], [(0, 0)]), ([(0, 0)], [(0, 3)]), ([(1, 2)], [(0, 0), (1, 0)]):
        with pytest.raises(DimensionMismatchError):
            _tensor_rows(f, g, left, right)
    # columns (k, j) in order go to rows (1+0)*3 + 1+0, 1*3 + 1+1, 0*3 + 0+0, 0*3 + 0+1
    assert _tensor_rows(f, g, [(1, 1), (0, 0)], [(0, 0), (0, 1)]) == LinMap(
        RATIONALS, 6, 4, {(4, 0): 1, (5, 1): 1, (0, 2): 1, (1, 3): 1})
    assert _tensor_rows(f, LinMap(RATIONALS, 3, 3, {(0, 0): 2, (1, 1): 1, (2, 2): 1}),
                        [(0, 0)], [(0, 0)]) is None


# -- the per-field dict canonicaliser -------------------------------------------


def canonical_by_reduce(field, entries):
    return {k: r for k, v in entries.items() if (r := field.reduce(v))}


@EXAMPLES
@given(st.sampled_from(FIELDS).flatmap(lambda field: st.tuples(st.just(field), st.dictionaries(
    st.tuples(st.integers(0, 5), st.integers(0, 5)),
    st.integers(-40, 40) if field.p else st.one_of(
        st.integers(-9, 9), st.fractions(min_value=-3, max_value=3, max_denominator=6),
        st.integers(-9, 9).map(lambda n: Fraction(2 * n, 2))),
    max_size=12))))
def test_reduce_entries_is_reduce_on_each_value_with_zeros_dropped(operands):
    field, entries = operands
    out = field.reduce_entries(entries)
    assert out == canonical_by_reduce(field, entries)
    assert [type(v) for v in out.values()] == [type(v) for v in canonical_by_reduce(
        field, entries).values()]
    assert_canonical(LinMap._of(field, 6, 6, entries))


def test_reduce_entries_on_integral_fractions_negative_residues_and_cancelled_sums():
    f5 = prime_field(5)
    q_entries = {(0, 0): Fraction(4, 2), (0, 1): Fraction(1, 3) + Fraction(2, 3),
                 (0, 2): Fraction(1, 2) - Fraction(1, 2), (0, 3): 0, (0, 4): Fraction(-3, 6),
                 (0, 5): -7}
    assert RATIONALS.reduce_entries(q_entries) == {(0, 0): 2, (0, 1): 1, (0, 4): Fraction(-1, 2),
                                                  (0, 5): -7}
    assert [type(v) for v in RATIONALS.reduce_entries(q_entries).values()] == [
        int, int, Fraction, int]
    assert f5.reduce_entries({(0, 0): -1, (0, 1): -5, (0, 2): 4 * 4 + 4, (0, 3): 12}) == {
        (0, 0): 4, (0, 3): 2}
    twin = pickle.loads(pickle.dumps(f5))
    assert twin.reduce_entries({(1, 1): -6}) == {(1, 1): 4}


# -- the kernels memoized by operand value ----------------------------------------


def apart(m: LinMap) -> LinMap:
    """m built again from its entries: equal to it, sharing no object with it."""
    return LinMap(m.field, m.cod, m.dom, dict(m.items()))


@st.composite
def kernel_calls(draw, field):
    """(kernel, operands) with operands of matching shapes over field,
    drawn as one of KINDS."""
    build = draw(KINDS)
    d = st.integers(0, 3)
    kind = draw(st.sampled_from(["compose", "tensor_compose", "compose_tensor", "invert", "diagonal"]))
    if kind == "compose":
        b = draw(build(field=field))
        return LinMap.compose, (draw(build(dom=b.cod, field=field)), b)
    if kind == "invert":
        n = draw(d)
        return invert, (draw(build(n, n, field)),)
    f, g = draw(build(field=field)), draw(build(field=field))
    if kind == "tensor_compose":
        return tensor_compose, (f, g, draw(build(f.dom * g.dom, field=field)))
    if kind == "compose_tensor":
        return compose_tensor, (draw(build(dom=f.cod * g.cod, field=field)), f, g)
    a, x, y = draw(d), draw(d), draw(d)
    legs = [draw(build(a * a, a, field)), draw(build(dom=a * x, field=field)),
            draw(build(dom=a * y, field=field))]
    if draw(st.booleans()):
        legs.append(draw(build(x * y, field=field)))
    return diagonal, tuple(legs)


def run(kernel, operands):
    try:
        return kernel(*operands)
    except NotInvertibleError as exc:
        return type(exc)


@EXAMPLES
@given(over(ELIMINATION_FIELDS + [F5], kernel_calls))
def test_a_memoized_kernel_equals_its_body(call):
    kernel, operands = call
    body = run(kernel.__wrapped__, operands)
    first, again, twins = run(kernel, operands), run(kernel, operands), run(kernel, tuple(map(apart, operands)))
    assert first == again == twins == body
    # a repeat and equal operands built apart read the one result; an error is raised again
    if body is not NotInvertibleError:
        assert again is first and twins is first


def test_unequal_maps_never_share(monkeypatch):
    runs = count_runs(monkeypatch, "LinMap.compose", "invert")
    entries = {(0, 0): 2, (0, 1): 1, (1, 1): 3}
    over_q, over_f5 = LinMap(RATIONALS, 2, 2, entries), LinMap(F5, 2, 2, entries)
    assert (over_q @ over_q).field == RATIONALS and (over_f5 @ over_f5).field == F5
    assert invert(over_q) != invert(over_f5)
    assert runs == {"LinMap.compose": 2, "invert": 2}
    # the same entries at another shape, as first operand and as second
    wide, tall = LinMap(RATIONALS, 2, 3, entries), LinMap(RATIONALS, 3, 2, entries)
    assert (over_q @ wide).shape == (2, 3) and (tall @ over_q).shape == (3, 2)
    assert (wide @ tall).shape == (2, 2) and (over_q @ apart(over_q)) == over_q @ over_q
    assert runs == {"LinMap.compose": 5, "invert": 2}


def test_a_composite_dies_with_the_last_equal_operand():
    f = LinMap(RATIONALS, 2, 2, {(0, 1): 1, (1, 0): Fraction(1, 2)})
    g, twin = identity(RATIONALS, 2), apart(f)
    out = f @ g
    assert twin @ g is out
    refs = [weakref.ref(out), weakref.ref(invert(f))]
    del out
    del f
    gc.collect()
    # the twin holds the memo, and so the composite and the inverse
    assert all(ref() is not None for ref in refs) and invert(twin) is refs[1]()
    del twin
    gc.collect()
    assert [ref() for ref in refs] == [None, None]


def test_copies_and_pickles_carry_no_cache():
    f, g = LinMap(F5, 2, 2, {(0, 1): 3, (1, 1): 1}), identity(F5, 2)
    # g is its table; composing it with f reads its entries, which fills them in as a cache
    assert unset(g, "_entry_dict") and g._table() == (0, 1)
    out, back = f @ g, g @ f
    assert f._hash is not None and f._cols is not None and f._memo is not None
    assert g._hash is not None and g._cols is not None and g._memo is not None
    assert f._table() is None and not unset(g, "_entry_dict") and g.rows() == [[1, 0], [0, 1]]
    # each copy's caches are checked before anything reads them
    for twin in (copy.copy(f), copy.deepcopy(f), pickle.loads(pickle.dumps(f))):
        assert twin._hash is None and twin._cols is None and unset(twin, "_memo", "_tab")
        assert twin == f and twin is not f and hash(twin) == hash(f)
        # the copy is the same value, so it reads f's composites
        assert twin @ g is out
    # a basis map is built again from its table, with no entries, hash, columns or memo
    for twin in (copy.copy(g), copy.deepcopy(g), pickle.loads(pickle.dumps(g))):
        assert twin._hash is None and twin._cols is None and unset(twin, "_memo", "_entry_dict")
        assert twin._table() == (0, 1) and twin == g and twin is not g and hash(twin) == hash(g)
        assert twin @ f is back and unset(twin, "_entry_dict")


# -- one value, built from entries or from a table ------------------------------


def assert_one_value(a: LinMap, b: LinMap) -> None:
    """a and b are one value: equal, hashing equally, sharing one memo,
    with equal copies and pickles."""
    x = identity(a.field, a.dom)
    assert a == b and b == a and hash(a) == hash(b) and a @ x is b @ x
    assert pickle.dumps(a) == pickle.dumps(b)
    for twin in (copy.copy, copy.deepcopy, lambda m: pickle.loads(pickle.dumps(m))):
        assert twin(a) == twin(b) == a


@EXAMPLES
@given(over(FIELDS, lambda field: KINDS.flatmap(lambda kind: kind(field=field))))
def test_every_drawn_map_is_one_value_built_from_entries_or_from_its_table(m):
    table = m._table()
    assert_one_value(m, apart(m))
    if table is not None:
        by_table = LinMap(m.field, m.cod, m.dom, table)
        assert_one_value(m, by_table)
        assert_one_value(apart(m), by_table)
        assert dict(by_table.items()) == dict(m.items())


@EXAMPLES
@given(over(FIELDS, lambda field: tables_and_maps(field=field)))
def test_a_near_miss_is_not_the_basis_map_of_its_table(drawn):
    table, m = drawn
    by_table = LinMap(m.field, m.cod, m.dom, tuple(table))
    if dict(m.items()) == {(i, j): 1 for j, i in enumerate(table)}:
        assert_one_value(m, by_table)
    else:
        # one entry 2 or p - 1, an empty column or a second entry: no table,
        # and so another value, with a memo of its own
        assert m._table() is None and m != by_table and by_table != m
        x = identity(m.field, m.dom)
        assert by_table @ x == by_table and m @ x == m
