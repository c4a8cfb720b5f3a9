"""Exact linear maps between based spaces, with tensor (Kronecker) structure.

A LinMap is a cod x dom matrix over an exact field: entry (i, j) is the
coefficient of codomain basis vector i in the image of domain basis
vector j.  Tensor products use the left-major flattening convention
throughout: e_i (x) e_j of an m (x) n factor pair sits at flat index
i*n + j.  Maps are immutable; entries are stored sparsely but the
semantics are dense (absent entries are exact zeros).

Elimination (nullspace, invert, solve, split_idempotent) is
deterministic: reduced row echelon form with leftmost pivot column and
first nonzero row, so returned bases are canonical.

The composite kernels (compose and so @, tensor_compose, compose_tensor)
and invert are record.memoized: each runs once per value of its
operands, and the result lives in the memo of its first operand, which
equal maps share and which dies with the last of them.

Basis maps compose as functions.  A map each of whose columns holds
exactly one entry, and that entry 1, is the linearisation of a function
between bases, and `_table()` gives it as the row of each column's entry.
Such a basis map is its table: its value, which equality, hashing, the
memo key (`_values()`), copies and pickles read, is field, shape and
table, and its entry dict is a cache built when first read.  Whether a
map has a table depends on its value alone, so a map built from entries
that are a table's equals the map built from that table.
Linearised group algebras are made of such maps: their coproduct,
counit, unit, products, antipode and cocycle, and every composite of
them.  When every operand has a table, compose (and so @), kron,
tensor_compose, compose_tensor, invert (of a bijective table) and
coalgebra.diagonal compute the result's table by index arithmetic and
build no entries; tensor_compose and diagonal share one such branch,
_tensor_rows, to which diagonal hands the f and g columns of its
braided spread.  A composite of basis maps is exactly that basis map,
so the result equals the one the entry-by-entry path builds; shape and
field checks run first on both paths, and any other operand, dense or
with no columns, keeps its entries and takes the entry-by-entry path,
which is one product, tensor_apply: f (x) g applied to a map's columns
(Van Loan's (A⊗B)vec(X) = vec(B X Aᵀ)).  compose is (self (x) id_1) ∘ other,
kron is f (x) g applied to the identity, and compose_tensor is the
transpose of (fᵀ (x) gᵀ) ∘ xᵀ.
"""

from __future__ import annotations

from itertools import repeat
from typing import Dict, Iterable, List, Sequence, Tuple

from .errors import (
    AmbiguousSystemError,
    DimensionMismatchError,
    InconsistentSystemError,
    NotIdempotentError,
    NotInvertibleError,
)
from .fields import FieldSpec, Scalar
from .record import memoized


class LinMap:
    """Immutable exact matrix with dense semantics."""

    # A basis map is its table: one built from its table holds no entry
    # dict (_entry_dict) until _entries is read.  That dict, _cols, _hash and
    # _memo are caches, which copies and pickles do not carry; _tab and
    # _memo stay unset until their first read.  _entries is a property: a
    # __getattr__ that filled the slot would slow every attribute read.
    __slots__ = ("field", "cod", "dom", "_entry_dict", "_cols", "_tab", "_hash", "_memo",
                 "__weakref__")

    def __init__(self, field: FieldSpec, cod: int, dom: int, entries) -> None:
        """The map with these entries: a dict or an iterable of ((i, j), value)
        pairs, or a nonempty tuple of dom rows, the table of a basis map."""
        if cod < 0 or dom < 0:
            raise DimensionMismatchError(f"negative shape {cod}x{dom}")
        if type(entries) is tuple and entries:
            if len(entries) != dom:
                raise DimensionMismatchError(f"table of {len(entries)} rows for dom {dom}")
            for i in entries:
                if type(i) is not int:
                    raise TypeError(f"table row {i!r} is not an int")
                if not 0 <= i < cod:
                    raise DimensionMismatchError(f"table row {i} outside cod {cod}")
            self._init(field, cod, dom, entries, "_tab")
            return
        data: Dict[Tuple[int, int], Scalar] = {}
        items = entries.items() if isinstance(entries, dict) else entries
        for key, value in items:
            i, j = key
            if type(i) is not int or type(j) is not int:
                raise TypeError(f"entry index ({i!r},{j!r}) is not a pair of ints")
            if not (0 <= i < cod and 0 <= j < dom):
                raise DimensionMismatchError(
                    f"entry ({i},{j}) outside {cod}x{dom}")
            value = field.coerce(value)
            if not field.is_zero(value):
                data[(i, j)] = value
        self._init(field, cod, dom, data)

    def _init(self, field: FieldSpec, cod: int, dom: int, value, slot: str = "_entry_dict") -> "LinMap":
        """Set the fields and the entries, or the table, of a new map, caches unset."""
        init = object.__setattr__
        init(self, "field", field)
        init(self, "cod", cod)
        init(self, "dom", dom)
        init(self, slot, value)
        init(self, "_cols", None)
        init(self, "_hash", None)
        return self

    @classmethod
    def _of(cls, field: FieldSpec, cod: int, dom: int,
            entries: Dict[Tuple[int, int], Scalar]) -> "LinMap":
        """A map from entries this module computed itself: exact sums and
        products of scalars of `field` at keys inside cod x dom, which are
        not checked again.  `field.reduce_entries` canonicalises the values
        in one pass and drops exact zeros, so kernels may accumulate with
        native arithmetic.  Input from callers goes through `LinMap(...)`.
        """
        if cod < 0 or dom < 0:
            raise DimensionMismatchError(f"negative shape {cod}x{dom}")
        return object.__new__(cls)._init(field, cod, dom, field.reduce_entries(entries))

    @classmethod
    def _of_table(cls, field: FieldSpec, cod: int, table: tuple) -> "LinMap":
        """The basis map e_j |-> e_table[j], from a nonempty table of rows
        inside cod that its caller computed itself, not checked again."""
        return object.__new__(cls)._init(field, cod, len(table), table, "_tab")

    @property
    def _entries(self) -> Dict[Tuple[int, int], Scalar]:
        """The entry dict, built on its first read for a map built from its table."""
        try:
            return self._entry_dict
        except AttributeError:
            entries = _table_entries(self._tab)
            object.__setattr__(self, "_entry_dict", entries)
            return entries

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_rows(cls, field: FieldSpec, rows: Sequence[Sequence], dom: int | None = None) -> "LinMap":
        cod = len(rows)
        if cod == 0:
            if dom is None:
                raise DimensionMismatchError("empty row list needs an explicit dom")
            return cls(field, 0, dom, {})
        widths = {len(r) for r in rows}
        if len(widths) != 1:
            raise DimensionMismatchError("ragged rows")
        width = widths.pop()
        if dom is not None and dom != width:
            raise DimensionMismatchError(f"dom {dom} != row width {width}")
        entries = {}
        for i, row in enumerate(rows):
            for j, value in enumerate(row):
                entries[(i, j)] = value
        return cls(field, cod, width, entries)

    @classmethod
    def from_columns(cls, field: FieldSpec, cod: int, columns: Sequence["LinMap"]) -> "LinMap":
        """Assemble column vectors (maps with dom 1) into one map."""
        entries = {}
        for j, col in enumerate(columns):
            if col.dom != 1 or col.cod != cod:
                raise DimensionMismatchError("column vectors must be cod x 1")
            col.field.require_same(field)
            for (i, _), value in col.items():
                entries[(i, j)] = value
        return cls._of(field, cod, len(columns), entries)

    @classmethod
    def identity(cls, field: FieldSpec, n: int) -> "LinMap":
        return cls._of_table(field, n, tuple(range(n))) if n > 0 else cls._of(field, n, n, {})

    @classmethod
    def zero(cls, field: FieldSpec, cod: int, dom: int) -> "LinMap":
        return cls._of(field, cod, dom, {})

    @classmethod
    def basis_vector(cls, field: FieldSpec, n: int, index: int) -> "LinMap":
        return cls(field, n, 1, {(index, 0): field.one})

    # -- access ---------------------------------------------------------

    @property
    def shape(self) -> Tuple[int, int]:
        return (self.cod, self.dom)

    def entry(self, i: int, j: int) -> Scalar:
        if not (0 <= i < self.cod and 0 <= j < self.dom):
            raise DimensionMismatchError(f"index ({i},{j}) outside {self.cod}x{self.dom}")
        return self._entries.get((i, j), self.field.zero)

    def items(self) -> Iterable[Tuple[Tuple[int, int], Scalar]]:
        return self._entries.items()

    def rows(self) -> List[List[Scalar]]:
        zero = self.field.zero
        out = [[zero] * self.dom for _ in range(self.cod)]
        for (i, j), value in self._entries.items():
            out[i][j] = value
        return out

    def is_zero(self) -> bool:
        return not self._entries

    def _by_col(self):
        if self._cols is None:
            cols: Dict[int, list] = {}
            for (i, j), value in self._entries.items():
                cols.setdefault(j, []).append((i, value))
            self._cols = cols
        return self._cols

    def _table(self):
        """The row of each column's one entry, when every column holds
        exactly one entry and that entry is 1; None otherwise, and for a
        map with no columns."""
        try:
            return self._tab
        except AttributeError:
            pass
        n, entries = self.dom, self._entries
        table = None
        if n and len(entries) == n:
            rows = {j: i for (i, j), v in entries.items() if v == 1}
            if len(rows) == n:
                table = tuple(map(rows.__getitem__, range(n)))
        object.__setattr__(self, "_tab", table)
        return table

    # -- algebra ----------------------------------------------------------

    @memoized
    def compose(self, other: "LinMap") -> "LinMap":
        """self ∘ other; requires dom(self) == cod(other)."""
        self.field.require_same(other.field)
        if self.dom != other.cod:
            raise DimensionMismatchError(
                f"compose: dom {self.dom} != cod {other.cod}")
        a, b = self._table(), other._table()
        if a and b:
            return LinMap._of_table(self.field, self.cod, tuple(map(a.__getitem__, b)))
        return tensor_apply(self, LinMap.identity(self.field, 1), other.items(), other.dom)

    def __matmul__(self, other: "LinMap") -> "LinMap":
        return self.compose(other)

    def kron(self, other: "LinMap") -> "LinMap":
        """Tensor product; left-major flat indices (i1*cod2 + i2, j1*dom2 + j2)."""
        self.field.require_same(other.field)
        cod2 = other.cod
        a, b = self._table(), other._table()
        if a and b:
            return LinMap._of_table(self.field, self.cod * cod2, _kron_table(a, b, cod2))
        n = self.dom * other.dom
        return tensor_apply(self, other, LinMap.identity(self.field, n).items(), n)

    def __add__(self, other: "LinMap") -> "LinMap":
        self._require_same_shape(other)
        out = dict(self._entries)
        get = out.get
        for key, value in other._entries.items():
            out[key] = get(key, 0) + value
        return LinMap._of(self.field, self.cod, self.dom, out)

    def __sub__(self, other: "LinMap") -> "LinMap":
        self._require_same_shape(other)
        return self + -other

    def __neg__(self) -> "LinMap":
        return LinMap._of(self.field, self.cod, self.dom,
                          {k: -v for k, v in self._entries.items()})

    def scale(self, scalar) -> "LinMap":
        scalar = self.field.coerce(scalar)
        return LinMap._of(self.field, self.cod, self.dom,
                          {k: scalar * v for k, v in self._entries.items()})

    def transpose(self) -> "LinMap":
        return LinMap._of(self.field, self.dom, self.cod,
                          {(j, i): v for (i, j), v in self._entries.items()})

    def _require_same_shape(self, other: "LinMap") -> None:
        self.field.require_same(other.field)
        if self.shape != other.shape:
            raise DimensionMismatchError(f"shape {self.shape} != {other.shape}")

    # -- identity and hashing ---------------------------------------------

    def _values(self) -> tuple:
        """The value, as the arguments that build it: field, shape, and the
        table of a basis map or the entries of any other map.  Whether a map
        has a table depends on its value alone, so equal maps give equal
        values however they were built."""
        table = self._table()
        return self.field, self.cod, self.dom, self._entries if table is None else table

    def __reduce__(self):
        """Copies and pickles are built from the value alone, with no caches."""
        return LinMap, self._values()

    def __eq__(self, other) -> bool:
        if not isinstance(other, LinMap):
            return NotImplemented
        table = self._table()
        return (self.field == other.field and self.cod == other.cod and self.dom == other.dom
                and table == other._table()
                and (table is not None or self._entries == other._entries))

    def __hash__(self) -> int:
        # the table, or else the entry set, hashed in one pass in any order
        if self._hash is None:
            table = self._table()
            self._hash = hash((self.field, self.cod, self.dom,
                               frozenset(self._entries.items()) if table is None else table))
        return self._hash

    def __repr__(self) -> str:
        nnz = self.dom if self._table() else len(self._entries)
        return f"LinMap({self.field}, {self.cod}x{self.dom}, nnz={nnz})"

    def __setattr__(self, name, value):
        # _cols and _hash stay writable; the matrix and its table are frozen.
        if name in ("_cols", "_hash"):
            object.__setattr__(self, name, value)
        else:
            raise AttributeError("LinMap is immutable")


def _table_entries(table: tuple) -> Dict[Tuple[int, int], Scalar]:
    """The entries of the basis map with this table: a 1 at (table[j], j)."""
    return dict(zip(zip(table, range(len(table))), repeat(1)))


def kron(f: LinMap, g: LinMap) -> LinMap:
    """f (x) g with left-major flattening."""
    return f.kron(g)


def _kron_table(a: tuple, b: tuple, cod2: int) -> tuple:
    """The table of f (x) g from those of f and g, g with cod2 rows."""
    return tuple([i1 * cod2 + i2 for i1 in a for i2 in b])


@memoized
def tensor_compose(f: LinMap, g: LinMap, x: LinMap) -> LinMap:
    """(f (x) g) ∘ x, without forming f (x) g."""
    f.field.require_same(x.field)
    f.field.require_same(g.field)
    if x.cod != f.dom * g.dom:
        raise DimensionMismatchError(f"tensor_compose: dom {f.dom}*{g.dom} != cod {x.cod}")
    rows = x._table()
    out = _tensor_rows(f, g, list(map(divmod, rows, repeat(g.dom))), ((0, 0),)) if rows else None
    return tensor_apply(f, g, x.items(), x.dom) if out is None else out


def _tensor_rows(f: LinMap, g: LinMap, left: Sequence[Tuple[int, int]],
                 right: Sequence[Tuple[int, int]]) -> LinMap | None:
    """(f (x) g) ∘ x for the basis map x that sends column k*len(right) + j
    to row (c1 + u)*g.dom + c2 + v, for (c1, c2) = left[k] and (u, v) =
    right[j], when f and g are basis maps too; None when either is not.
    The composite's table is read off theirs, and no entry is multiplied.
    left and right are nonempty and hold indices >= 0; a sum past f.dom
    or g.dom raises DimensionMismatchError."""
    a, b = f._table(), g._table()
    if not (a and b):
        return None
    f.field.require_same(g.field)
    gcod = g.cod
    try:
        table = tuple([a[c1 + u] * gcod + b[c2 + v] for c1, c2 in left for u, v in right])
    except IndexError:
        raise DimensionMismatchError(
            f"tensor_apply: a row outside {f.dom}*{g.dom}") from None
    return LinMap._of_table(f.field, f.cod * gcod, table)


def tensor_apply(f: LinMap, g: LinMap, legs, dom: int) -> LinMap:
    """(f (x) g) ∘ x for the x with entries `legs`: a leg ((c1*g.dom + c2, j), v),
    whose key may repeat and whose v is an exact product of scalars of f's
    field, adds v·(f(e_c1) (x) g(e_c2)) to column j < dom.  Each such image
    is multiplied out once.  The one entry-by-entry product of linmap."""
    field = f.field
    field.require_same(g.field)
    gdom, gcod = g.dom, g.cod
    fcols, gcols = f._by_col(), g._by_col()
    images: Dict[int, list] = {}
    out: Dict[Tuple[int, int], Scalar] = {}
    get = out.get
    for (c, j), v in legs:
        image = images.get(c)
        if image is None:
            if not 0 <= c < f.dom * gdom:
                raise DimensionMismatchError(f"tensor_apply: row {c} outside {f.dom}*{gdom}")
            c1, c2 = divmod(c, gdom)
            image = images[c] = [(i1 * gcod + i2, u * w) for i1, u in fcols.get(c1, ())
                                 for i2, w in gcols.get(c2, ())]
        if not 0 <= j < dom:
            raise DimensionMismatchError(f"tensor_apply: column {j} outside dom {dom}")
        for i, uw in image:
            key = (i, j)
            out[key] = get(key, 0) + uw * v
    return LinMap._of(field, f.cod * gcod, dom, out)


@memoized
def compose_tensor(x: LinMap, f: LinMap, g: LinMap) -> LinMap:
    """x ∘ (f (x) g), without forming f (x) g: the transpose of
    (fᵀ (x) gᵀ) ∘ xᵀ."""
    field = x.field
    field.require_same(f.field)
    field.require_same(g.field)
    gcod = g.cod
    if x.dom != f.cod * gcod:
        raise DimensionMismatchError(f"compose_tensor: dom {x.dom} != cod {f.cod}*{gcod}")
    a, b, c = x._table(), f._table(), g._table()
    if a and b and c:
        return LinMap._of_table(field, x.cod, tuple(map(a.__getitem__, _kron_table(b, c, gcod))))
    legs = (((k, i), v) for (i, k), v in x.items())
    return tensor_apply(f.transpose(), g.transpose(), legs, x.cod).transpose()


def identity(field: FieldSpec, n: int) -> LinMap:
    return LinMap.identity(field, n)


# -- elimination ---------------------------------------------------------


def _rref(field: FieldSpec, rows: List[List[Scalar]], pivot_limit: int | None = None) -> Tuple[List[List[Scalar]], List[int]]:
    """Reduced row echelon form in place; returns (rows, pivot columns).

    Pivot rule: scan columns left to right, take the first remaining row
    with a nonzero entry.  `pivot_limit` restricts pivoting to the first
    columns (for augmented systems).
    """
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    if pivot_limit is not None:
        ncols = min(ncols, pivot_limit)
    reduce = field.reduce
    pivots: List[int] = []
    rank = 0
    for col in range(ncols):
        pivot_row = None
        for r in range(rank, nrows):
            if rows[r][col]:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        rows[rank], rows[pivot_row] = rows[pivot_row], rows[rank]
        scale = field.inv(rows[rank][col])
        rows[rank] = [reduce(scale * v) for v in rows[rank]]
        for r in range(nrows):
            factor = rows[r][col]
            if r != rank and factor:
                rows[r] = [reduce(a - factor * b) if b else a
                           for a, b in zip(rows[r], rows[rank])]
        pivots.append(col)
        rank += 1
    return rows, pivots


def rank(f: LinMap) -> int:
    _, pivots = _rref(f.field, f.rows())
    return len(pivots)


def nullspace(f: LinMap) -> List[LinMap]:
    """Canonical exact basis of {x : f(x) = 0}, as dom(f) x 1 column vectors.

    For each free column j the basis vector has 1 at j and the negated
    echelon coefficients at the pivot columns, ordered by j ascending;
    assembled as columns this is a reduced column echelon basis.
    """
    field = f.field
    rows, pivots = _rref(field, f.rows())
    pivot_set = set(pivots)
    basis = []
    for j in range(f.dom):
        if j in pivot_set:
            continue
        entries = {(j, 0): field.one}
        for r, pc in enumerate(pivots):
            entries[(pc, 0)] = -rows[r][j]
        basis.append(LinMap._of(field, f.dom, 1, entries))
    return basis


@memoized
def invert(f: LinMap) -> LinMap:
    """Exact two-sided inverse of a square map, else NotInvertibleError."""
    if f.cod != f.dom:
        raise NotInvertibleError(f"non-square shape {f.shape}")
    table = f._table()
    if table:
        # a bijective table is a permutation, inverted by reading it backwards
        columns = dict(zip(table, range(f.dom)))
        if len(columns) == f.dom:
            return LinMap._of_table(f.field, f.dom, tuple(map(columns.__getitem__, range(f.dom))))
    try:
        return solve_through(f, identity(f.field, f.cod))
    except (InconsistentSystemError, AmbiguousSystemError) as exc:
        raise NotInvertibleError(f"map of rank {rank(f)} < {f.cod}") from exc


def solve_through(a: LinMap, b: LinMap) -> LinMap:
    """The unique x with a ∘ x = b; a must be injective and the system consistent."""
    a.field.require_same(b.field)
    if a.cod != b.cod:
        raise DimensionMismatchError(f"cod {a.cod} != cod {b.cod}")
    field = a.field
    n, m = a.dom, b.dom
    dense_a = a.rows()
    dense_b = b.rows()
    aug = [list(dense_a[i]) + list(dense_b[i]) for i in range(a.cod)]
    if a.cod == 0:
        if n > 0:
            raise AmbiguousSystemError("zero equations, free unknowns")
        return LinMap._of(field, 0, m, {})
    aug, pivots = _rref(field, aug, pivot_limit=n)
    if len(pivots) < len(aug):
        for r in range(len(pivots), len(aug)):
            if any(not field.is_zero(v) for v in aug[r][n:]):
                raise InconsistentSystemError("no exact solution")
    if [p for p in pivots if p < n] != list(range(n)):
        raise AmbiguousSystemError("left factor is not injective")
    entries = {(r, j): aug[r][n + j] for r in range(n) for j in range(m)}
    return LinMap._of(field, n, m, entries)


def image_basis(f: LinMap) -> List[LinMap]:
    """Canonical column-echelon basis of the column space of f."""
    field = f.field
    rows, pivots = _rref(field, f.transpose().rows())
    basis = []
    for r in range(len(pivots)):
        entries = {(i, 0): value for i, value in enumerate(rows[r])}
        basis.append(LinMap._of(field, f.cod, 1, entries))
    return basis


def split_idempotent(q: LinMap) -> Tuple[LinMap, LinMap]:
    """Split q = i ∘ p with p ∘ i = id on the canonical image basis.

    Returns (p, i): p projects onto the image coordinates, i includes
    the image back, so i ∘ p = q exactly.
    """
    if q.cod != q.dom:
        raise NotIdempotentError(f"non-square shape {q.shape}")
    if q @ q != q:
        raise NotIdempotentError("map is not idempotent")
    incl = LinMap.from_columns(q.field, q.cod, image_basis(q))
    proj = solve_through(incl, q)
    return proj, incl
