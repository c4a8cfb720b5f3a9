"""Skew trusses on finite sets.

A skew truss is a set carrying a group product, a semigroup product,
and the map a -> a*1 tying them through a twisted distributivity law.
This module checks those axioms exhaustively, enumerates all trusses
over a fixed group, and moves between the set level and the linear
level: linearize builds the Hopf truss on the free module over the set,
truss_of_grouplikes recovers a skew truss from the grouplike elements
of a Hopf truss.

Elements are 0-based indices; Cayley tables are tuples of tuples with
table[a][b] the product of a and b. The group unit is stored, not
assumed to be index 0.
"""

from __future__ import annotations

import itertools

from .coalgebra import ComonoidData, grouplikes
from .errors import (
    BoundExceededError,
    ClosureError,
    DimensionMismatchError,
    InvalidStructureError,
)
from .fields import FieldSpec
from .hopftruss import HopfTruss
from .linmap import LinMap, compose_tensor
from .record import Record, memoized
from .report import CheckResult, VerificationReport, condition

Table = tuple[tuple[int, ...], ...]

# enumerate_skew_trusses refuses larger carriers before any work starts,
# so every call is bounded: the search and its output grow steeply with
# the order (Z7 alone has 20449 skew trusses in 3440 classes).
MAX_ENUMERATION_ORDER = 7


def _indices(values, n: int, out_of_range: str) -> tuple[int, ...]:
    """values as a tuple of indices in range(n); a non-int is refused, never converted."""
    values = tuple(values)
    for x in values:
        if type(x) is not int:
            raise TypeError(f"element index {x!r} is not an int")
        if not 0 <= x < n:
            raise DimensionMismatchError(out_of_range.format(x=x))
    return values


def _as_table(rows) -> Table:
    table = tuple(map(tuple, rows))
    n = len(table)
    message = f"table entry {{x}} out of range for size {n}"
    for row in table:
        if len(row) != n:
            raise DimensionMismatchError("Cayley table must be square")
        _indices(row, n, message)
    return table


def _associativity_witness(table: Table) -> tuple[int, int, int] | None:
    n = len(table)
    for a in range(n):
        for b in range(n):
            ab = table[a][b]
            row_a = table[a]
            for c in range(n):
                if table[ab][c] != row_a[table[b][c]]:
                    return (a, b, c)
    return None


def _unit_and_inverses(table: Table) -> tuple[int, tuple[int, ...], str | None]:
    """The two-sided unit and inverses of a table, and the first one that
    is missing.  A missing unit reads as 0 and a missing inverse of a as
    a, so a table that is no group still gives a bundle whose law checks
    say which axiom fails."""
    n = len(table)
    unit = next((u for u in range(n)
                 if all(table[u][a] == a and table[a][u] == a for a in range(n))), None)
    fault = "no two-sided unit" if unit is None else None
    unit = unit or 0
    inv = []
    for a in range(n):
        b = next((b for b in range(n)
                  if table[a][b] == unit and table[b][a] == unit), None)
        if b is None:
            fault = fault or f"element {a} has no two-sided inverse"
        inv.append(a if b is None else b)
    return unit, tuple(inv), fault


class FiniteGroup(Record):
    table: Table
    unit: int
    inv: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "table", _as_table(self.table))
        n = self.size
        _indices((self.unit,), n, "unit index {x} out of range")
        mismatch = "inverse vector does not match table size"
        object.__setattr__(self, "inv", _indices(self.inv, n, mismatch))
        if len(self.inv) != n:
            raise DimensionMismatchError(mismatch)

    @property
    def size(self) -> int:
        return len(self.table)

    @classmethod
    def from_table(cls, rows) -> "FiniteGroup":
        """Derive unit and inverses, refusing tables that are not groups."""
        table = _as_table(rows)
        n = len(table)
        if n == 0:
            raise InvalidStructureError("empty Cayley table")
        witness = _associativity_witness(table)
        if witness is not None:
            raise InvalidStructureError(f"not associative at {witness}")
        unit, inv, fault = _unit_and_inverses(table)
        if fault is not None:
            raise InvalidStructureError(fault)
        return cls(table, unit, inv)


class FiniteSemigroup(Record):
    table: Table

    def __post_init__(self) -> None:
        object.__setattr__(self, "table", _as_table(self.table))

    @property
    def size(self) -> int:
        return len(self.table)

    @classmethod
    def from_table(cls, rows) -> "FiniteSemigroup":
        table = _as_table(rows)
        witness = _associativity_witness(table)
        if witness is not None:
            raise InvalidStructureError(f"not associative at {witness}")
        return cls(table)


class SkewTruss(Record):
    group: FiniteGroup
    semigroup: FiniteSemigroup
    omega: tuple[int, ...]

    def __post_init__(self) -> None:
        n = self.group.size
        if self.semigroup.size != n:
            raise DimensionMismatchError("group and semigroup sizes differ")
        mismatch = "omega does not match carrier size"
        object.__setattr__(self, "omega", _indices(self.omega, n, mismatch))
        if len(self.omega) != n:
            raise DimensionMismatchError(mismatch)

    @property
    def size(self) -> int:
        return self.group.size


def _truss_of_rows(group: FiniteGroup, table: Table) -> SkewTruss:
    """A truss over n rows of n ints in range that the caller checked
    itself; omega is read off the table.  Input goes through SkewTruss."""
    semigroup = object.__new__(FiniteSemigroup)
    object.__setattr__(semigroup, "table", table)
    truss = object.__new__(SkewTruss)
    object.__setattr__(truss, "group", group)
    object.__setattr__(truss, "semigroup", semigroup)
    object.__setattr__(truss, "omega", tuple(row[group.unit] for row in table))
    return truss


class SetMorphism(Record):
    src_size: int
    dst_size: int
    mapping: tuple[int, ...]

    def __post_init__(self) -> None:
        mapping = tuple(self.mapping)
        if len(mapping) != self.src_size:
            raise DimensionMismatchError("mapping length does not match source size")
        object.__setattr__(self, "mapping", _indices(
            mapping, self.dst_size, "mapping value out of range for target"))


def cyclic_group(n: int) -> FiniteGroup:
    if n < 1:
        raise DimensionMismatchError("cyclic group needs size >= 1")
    table = tuple(tuple((a + b) % n for b in range(n)) for a in range(n))
    return FiniteGroup(table, 0, tuple((-a) % n for a in range(n)))


def symmetric_group(n: int) -> FiniteGroup:
    """Permutations of {0..n-1} in lexicographic order, composed right-to-left."""
    perms = list(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    table = tuple(
        tuple(index[tuple(p[q[x]] for x in range(n))] for q in perms)
        for p in perms)
    return FiniteGroup.from_table(table)


def trivial_truss(g: FiniteGroup) -> SkewTruss:
    """Both products agree; the cocycle is the identity."""
    return SkewTruss(g, FiniteSemigroup(g.table), tuple(range(g.size)))


def left_projection_truss(g: FiniteGroup) -> SkewTruss:
    table = tuple(tuple(a for _ in range(g.size)) for a in range(g.size))
    return SkewTruss(g, FiniteSemigroup(table), tuple(range(g.size)))


def right_projection_truss(g: FiniteGroup) -> SkewTruss:
    table = tuple(tuple(range(g.size)) for _ in range(g.size))
    return SkewTruss(g, FiniteSemigroup(table), tuple(g.unit for _ in range(g.size)))


def derive_omega(g: FiniteGroup, s: FiniteSemigroup) -> tuple[int, ...]:
    """The cocycle forced by the axioms: omega(a) = a *2 unit."""
    if g.size != s.size:
        raise DimensionMismatchError("group and semigroup sizes differ")
    return tuple(s.table[a][g.unit] for a in range(g.size))


def _table_condition(name: str, anchor: str, witness) -> CheckResult:
    """The check of one set-level law, failing at witness unless it is None."""
    if witness is None:
        return condition(name, anchor, True)
    return condition(name, anchor, False, f"first failure at {witness}")


def verify_skew_truss(t: SkewTruss) -> VerificationReport:
    """Group laws, semigroup associativity, derived cocycle, distributivity."""
    g, s = t.group, t.semigroup
    n = t.size
    t1, t2 = g.table, s.table

    unit_bad = next(((g.unit, a) for a in range(n)
                     if t1[g.unit][a] != a or t1[a][g.unit] != a), None)
    inv_bad = next((a for a in range(n)
                    if t1[a][g.inv[a]] != g.unit or t1[g.inv[a]][a] != g.unit), None)
    omega_bad = next((a for a in range(n) if t.omega[a] != t2[a][g.unit]), None)

    # a *2 (b *1 c) = (a *2 b) *1 inv(omega(a)) *1 (a *2 c)
    first = None
    failures = 0
    for a in range(n):
        wa_inv = g.inv[t.omega[a]]
        row2 = t2[a]
        for b in range(n):
            left_part = t1[row2[b]][wa_inv]
            for c in range(n):
                lhs = row2[t1[b][c]]
                rhs = t1[left_part][row2[c]]
                if lhs != rhs:
                    failures += 1
                    if first is None:
                        first = f"(a,b,c)={(a, b, c)}: lhs={lhs} rhs={rhs}; "
    dia_bad = first and f"{first}{failures} of {n ** 3} triples fail"

    return VerificationReport("skew-truss", (
        _table_condition("group.assoc", "(a*1b)*1c = a*1(b*1c)", _associativity_witness(t1)),
        _table_condition("group.unit", "unit*1a = a = a*1unit", unit_bad),
        _table_condition("group.inverse", "a*1inv(a) = unit = inv(a)*1a", inv_bad),
        _table_condition("semigroup.assoc", "(a*2b)*2c = a*2(b*2c)", _associativity_witness(t2)),
        _table_condition("cocycle.derived", "omega(a) = a*2unit", omega_bad),
        _table_condition("compat.distributivity", "a*2(b*1c) = (a*2b)*1inv(omega(a))*1(a*2c)",
                         dia_bad),
    ))


def verify_set_morphism(f: SetMorphism, src: SkewTruss, dst: SkewTruss) -> VerificationReport:
    if f.src_size != src.size or f.dst_size != dst.size:
        raise DimensionMismatchError("morphism shape does not match trusses")
    n = src.size
    fm = f.mapping
    g_bad = next(((a, b) for a in range(n) for b in range(n)
                  if fm[src.group.table[a][b]] != dst.group.table[fm[a]][fm[b]]), None)
    s_bad = next(((a, b) for a in range(n) for b in range(n)
                  if fm[src.semigroup.table[a][b]] != dst.semigroup.table[fm[a]][fm[b]]), None)
    w_bad = next((a for a in range(n)
                  if dst.omega[fm[a]] != fm[src.omega[a]]), None)
    return VerificationReport("truss-map", (
        _table_condition("group.hom", "f(a*1b) = f(a)*1f(b)", g_bad),
        _table_condition("semigroup.hom", "f(a*2b) = f(a)*2f(b)", s_bad),
        _table_condition("implied.cocycle", "omega'∘f = f∘omega", w_bad),
    ))


def _generators(g: FiniteGroup) -> list[int]:
    """A generating set, greedily: each element not yet reached joins it."""
    t1 = g.table
    gens: list[int] = []
    reached = {g.unit}
    for x in range(g.size):
        if x not in reached:
            gens.append(x)
            while more := {t1[y][s] for y in reached for s in gens} - reached:
                reached |= more
    return gens


def _group_endomorphisms(g: FiniteGroup) -> list[tuple[int, ...]]:
    """Every endomorphism of g, in lexicographic order.

    An endomorphism is fixed by the images of a generating set, so each
    choice of those images is extended along products with the
    generators and kept when the map it defines is a homomorphism.
    """
    n = g.size
    t1 = g.table
    gens = _generators(g)
    out = []
    for images in itertools.product(range(n), repeat=len(gens)):
        f = [None] * n
        f[g.unit] = g.unit
        frontier = [g.unit]
        while frontier:
            x = frontier.pop()
            for s, fs in zip(gens, images):
                y = t1[x][s]
                if f[y] is None:
                    f[y] = t1[f[x]][fs]
                    frontier.append(y)
        if all(f[t1[a][b]] == t1[f[a]][f[b]] for a in range(n) for b in range(n)):
            out.append(tuple(f))
    return sorted(out)


def _valid_rows(g: FiniteGroup) -> list[tuple[int, ...]]:
    # A row r of the second product satisfies its slice of the
    # distributivity law exactly when x -> inv(r(unit)) *1 r(x) is an
    # endomorphism of the group, so every candidate row is a left
    # translate of an endomorphism.
    n = g.size
    t1 = g.table
    endomorphisms = _group_endomorphisms(g)
    rows = {tuple(t1[w][f[x]] for x in range(n))
            for w in range(n) for f in endomorphisms}
    return sorted(rows)


def check_enumeration_bound(n: int, max_size: int) -> None:
    """Refuse enumeration over n elements: above max_size, or above
    MAX_ENUMERATION_ORDER whatever max_size says."""
    if n > max_size:
        raise BoundExceededError(
            f"carrier size {n} exceeds enumeration bound {max_size}")
    if n > MAX_ENUMERATION_ORDER:
        raise BoundExceededError(
            f"carrier size {n} exceeds the fixed enumeration bound "
            f"{MAX_ENUMERATION_ORDER}")


def enumerate_skew_trusses(g: FiniteGroup, max_size: int = 4) -> list[SkewTruss]:
    """All skew trusses over the fixed group g, tables in lexicographic order.

    Searches translate-of-endomorphism rows (each such row is exactly the
    per-row content of the distributivity law) and prunes by associativity
    of the partial table. Output order matches a raw lexicographic sweep
    of all n^(n*n) tables. Carriers larger than max_size, or than
    MAX_ENUMERATION_ORDER whatever max_size says, are refused up front.
    """
    n = g.size
    check_enumeration_bound(n, max_size)
    message = f"row entry {{x}} out of range for size {n}"
    rows = [_indices(row, n, message) for row in _valid_rows(g)]
    index = {row: i for i, row in enumerate(rows)}
    # compose[r][s]: the index of row r after row s, or -1 if that is no row
    compose = [[index.get(tuple(r[x] for x in s), -1) for s in rows] for r in rows]
    # where[r][v]: the b that row r sends to v
    where = [[tuple(b for b in range(n) if r[b] == v) for v in range(n)] for r in rows]
    # Sets of rows are bit masks over row indices; bit[-1] is the empty
    # set, so a composite that is no row admits no row.
    bit = [1 << i for i in range(len(rows))] + [0]
    every_row = (1 << len(rows)) - 1
    # preimage[r][t]: the rows s with r after s equal to row t;
    # fixed[r]: the rows s with r after s equal to s
    preimage = [[0] * len(rows) for _ in rows]
    for r, compose_r in enumerate(compose):
        for s, t in enumerate(compose_r):
            if t >= 0:
                preimage[r][t] |= bit[s]
    fixed = [sum(bit[s] for s, t in enumerate(c) if t == s) for c in compose]
    found: list[SkewTruss] = []
    chosen: list[int] = []

    def partial_ok() -> bool:
        # The pairs (j, b) with b <= j and j*b <= j, which read row j's
        # own entries.
        j = len(chosen) - 1
        cj = chosen[j]
        row_j, compose_j = rows[cj], compose[cj]
        for b in range(j + 1):
            ab = row_j[b]
            if ab <= j and chosen[ab] != compose_j[chosen[b]]:
                return False
        return True

    def extend() -> None:
        j = len(chosen)
        if j == n:
            found.append(_truss_of_rows(g, tuple(rows[i] for i in chosen)))
            return
        # (a*b)*c = a*(b*c) for every c says that row a*b is row a after
        # row b. Pairs whose a, b and a*b are all earlier rows held at an
        # earlier depth. For a < j, the pairs (a, j) and (a, b) with
        # a*b = j read row j only through compose, so they cut the
        # candidates for row j, which are tried in ascending order.
        mask = every_row
        for a in range(j):
            ca = chosen[a]
            ab = rows[ca][j]
            if ab < j:
                mask &= preimage[ca][chosen[ab]]
            elif ab == j:
                mask &= fixed[ca]
            for b in where[ca][j]:
                if b < j:
                    mask &= bit[compose[ca][chosen[b]]]
        while mask:
            low = mask & -mask
            chosen.append(low.bit_length() - 1)
            if partial_ok():
                extend()
            chosen.pop()
            mask ^= low

    extend()
    return found


@memoized
def _group_form(group: FiniteGroup) -> tuple[tuple[int, ...], list]:
    """The minimal relabeled group table, flat, and every relabeling
    reaching it, as p (old label to new) with the flat index that each
    position of a relabeled table is read from; swept once per group value.

    Those relabelings form one coset of Aut(G): two of them differ by a
    relabeling that fixes the minimal table.  canonical_form minimises
    over the coset; isomorphism_classes reads Aut(G) off it, and needs
    canonical forms only to merge classes across group values.
    """
    table = group.table
    n = len(table)
    flat = [x for row in table for x in row]
    best = None
    coset = []
    for p in itertools.permutations(range(n)):
        pinv = sorted(range(n), key=p.__getitem__)
        idx = [a * n + b for a in pinv for b in pinv]
        r1 = tuple(map(p.__getitem__, map(flat.__getitem__, idx)))
        if best is None or r1 < best:
            best, coset = r1, [(p, idx)]
        elif r1 == best:
            coset.append((p, idx))
    return best, coset


@memoized
def _automorphisms(group: FiniteGroup) -> list[tuple[tuple[int, ...], list[int]]]:
    """Aut(G) in the group's own labeling, read off the coset of
    _group_form as s = p0^-1 after p for each p in it, each s with the
    flat index that each position of a table moved along s is read from."""
    _, coset = _group_form(group)
    n = group.size
    back = sorted(range(n), key=coset[0][0].__getitem__)
    out = []
    for p, _ in coset:
        s = tuple(back[p[x]] for x in range(n))
        sinv = sorted(range(n), key=s.__getitem__)
        out.append((s, [a * n + b for a in sinv for b in sinv]))
    return out


def _form_over(group_form, t2: Table) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Both minimal tables, flat: for equal-width rows the flat order is
    the order on tuples of rows."""
    best, coset = group_form
    flat = [x for row in t2 for x in row]
    return best, min(tuple(map(p.__getitem__, map(flat.__getitem__, idx)))
                     for p, idx in coset)


def canonical_form(t: SkewTruss) -> tuple[Table, Table]:
    """Minimal relabeling of both tables; equal forms mean isomorphic trusses.

    The group table is compared first, so only the relabelings that
    minimise it (a coset of the group's automorphisms) can minimise the
    pair.
    """
    n = t.size
    return tuple(tuple(flat[i:i + n] for i in range(0, n * n, n))
                 for flat in _form_over(_group_form(t.group), t.semigroup.table))


def isomorphism_classes(trusses: list[SkewTruss]) -> list[list[SkewTruss]]:
    """The trusses in isomorphism classes, in first-seen order, each with
    its members in input order.

    Over one group value the classes are the orbits of Aut(G) on second
    products (isomorph rejection by orbits, McKay, J. Algorithms 1998):
    the first truss of an orbit enters all its images in its group's
    dict, and every other truss costs one lookup.  Only a list over
    several group values computes canonical forms, one per orbit, and
    merges the orbits whose forms are equal.
    """
    orbits: dict[FiniteGroup, dict[tuple[int, ...], int]] = {}
    firsts: list[SkewTruss] = []
    labels: list = []
    for t in trusses:
        seen = orbits.setdefault(t.group, {})
        flat = tuple(itertools.chain.from_iterable(t.semigroup.table))
        k = seen.get(flat)
        if k is None:
            k = len(firsts)
            firsts.append(t)
            for s, idx in _automorphisms(t.group):
                seen[tuple(map(s.__getitem__, map(flat.__getitem__, idx)))] = k
        labels.append(k)
    if len(orbits) > 1:
        forms = [_form_over(_group_form(t.group), t.semigroup.table) for t in firsts]
        labels = [forms[k] for k in labels]
    buckets: dict = {}
    for t, k in zip(trusses, labels):
        buckets.setdefault(k, []).append(t)
    return list(buckets.values())


def linearize(t: SkewTruss, field: FieldSpec) -> HopfTruss:
    """The Hopf truss on the free module with the truss elements as basis.

    Basis vectors are grouplike, products and maps extend the tables
    linearly, so each map is a basis map, built from its table: delta
    sends e_a to e_a (x) e_a, at a*n + a, and a product sends e_a (x) e_b,
    at a*n + b, to its Cayley table's entry at row a, column b. Refuses a
    carrier that fails the set-level axioms.
    """
    rep = verify_skew_truss(t)
    if not rep.ok:
        raise InvalidStructureError("not a skew truss", report=rep)
    n = t.size
    chain = itertools.chain.from_iterable
    delta = LinMap(field, n * n, n, tuple(range(0, n * n, n + 1)))
    epsilon = LinMap(field, 1, n, (0,) * n)
    eta = LinMap(field, n, 1, (t.group.unit,))
    mu1 = LinMap(field, n, n * n, tuple(chain(t.group.table)))
    mu2 = LinMap(field, n, n * n, tuple(chain(t.semigroup.table)))
    antipode = LinMap(field, n, n, t.group.inv)
    sigma = LinMap(field, n, n, t.omega)
    return HopfTruss(ComonoidData(n, delta, epsilon),
                     eta, mu1, mu2, antipode, sigma)


def _grouplike_index(vectors: list[LinMap], v: LinMap, what: str) -> int:
    for i, u in enumerate(vectors):
        if u == v:
            return i
    raise ClosureError(f"{what} is not a grouplike of the carrier")


def truss_of_grouplikes(h: HopfTruss) -> SkewTruss:
    """Restrict both products and the cocycle to the grouplike elements.

    Needs every grouplike: grouplikes refuses a comonoid it cannot scan
    in full.
    """
    gl = grouplikes(h.comonoid)
    if not gl:
        raise ClosureError("carrier has no grouplikes")

    def product_table(mu: LinMap, label: str) -> Table:
        return tuple(
            tuple(_grouplike_index(gl, compose_tensor(mu, a, b), f"{label}-product of grouplikes")
                  for b in gl)
            for a in gl)

    table1 = product_table(h.mu1, "first")
    table2 = product_table(h.mu2, "second")
    unit = _grouplike_index(gl, h.eta, "unit")
    omega = tuple(_grouplike_index(gl, h.cocycle @ v, "cocycle image") for v in gl)
    try:
        group = FiniteGroup.from_table(table1)
    except InvalidStructureError as exc:
        raise ClosureError(f"grouplikes do not form a group: {exc}") from exc
    if group.unit != unit:
        raise ClosureError("unit of the grouplike group differs from the carrier unit")
    return SkewTruss(group, FiniteSemigroup(table2), omega)
