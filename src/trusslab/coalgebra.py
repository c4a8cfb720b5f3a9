"""Structure-constant bundles for (co)monoids, bimonoids, and Hopf monoids.

Every bundle is a frozen record of LinMaps over one field; verifiers
return a VerificationReport whose checks are exact matrix identities.
All composite maps follow the left-major tensor convention of linmap.

Every structure verifier is a table of laws written as terms, and Laws
here is their one evaluator, the only code that picks a kernel.  The
braiding enters the laws here only: diagonal builds every composite
that moves a coproduct leg past another factor, in every module, and no
other code forms a braid.

Structure reads each class's declared parts and map shapes once, into
the tables ALL_MAPS and ALL_DIMS that every other reader takes, and
shape is the one reader of a shape string.
"""

from __future__ import annotations

import itertools
import math
from functools import cached_property, reduce, update_wrapper
from operator import attrgetter, itemgetter, matmul, mul
from types import SimpleNamespace
from typing import List

from .errors import (
    AmbiguousSystemError,
    BoundExceededError,
    DimensionMismatchError,
    IncompleteGrouplikesError,
    InconsistentSystemError,
    NoAntipodeError,
    TrussLabError,
)
from .fields import PRIME_KIND, FieldSpec
from .linmap import (
    LinMap, _tensor_rows, compose_tensor, identity, invert, kron, solve_through, tensor_apply,
    tensor_compose)
from .record import Record, memoized
from .report import VerificationReport, condition, equation

# grouplikes scans every vector of a comonoid that is not basis-diagonal
# over a prime field only up to this many candidates.
MAX_GROUPLIKE_CANDIDATES = 100_000


def shape(expr: str) -> tuple:
    """The dims a shape expression names: "1" is (), and dim names joined
    by "*" are a tensor product.  The one reader of shape strings."""
    return tuple(name for name in expr.split("*") if name != "1")


def _morphism_law(name: str, path: str, cod: tuple, dom: tuple) -> tuple:
    """verify_morphism's law f_cod∘m = m'∘f_dom for the map at path, over
    the ends "src", "dst" and "f_<d>", the map on dim d; its anchor is its
    text, such as "(f_dim(x)f_dim)∘delta = delta'∘f_dim"."""
    left, right = ("(x)".join(f"f_{d}" for d in dims) for dims in (cod, dom))
    left, right = (f"({text})" if "(x)" in text else text for text in (left, right))
    anchor = f"{left and left + '∘'}{name} = {name}'{right and '∘' + right}"
    m, m_dst = terms(f"src.{path} dst.{path}")
    f_cod, f_dom = (reduce(mul, terms(" ".join(f"f_{d}" for d in dims))) if dims else None
                    for dims in (cod, dom))
    return name, anchor, m if f_cod is None else f_cod @ m, m_dst if f_dom is None else m_dst @ f_dom


# -- laws as declared terms ----------------------------------------------------


class Term(tuple):
    """One side of a law as data.  A leaf ("get", path) reads an attribute
    path off the structure, and ("id", dims) is the identity on that shape.
    The nodes are a @ b, associated to the right, f * g, the inverse ~f,
    Diag, Call and Guard.  Terms compare as tuples, so a subterm met twice
    in a table is one slot.
    """

    __slots__ = ()

    def __matmul__(self, other: "Term") -> "Term":
        return self[1] @ (self[2] @ other) if self[0] == "∘" else Term(("∘", self, other))

    def __mul__(self, other: "Term") -> "Term":
        return Term(("⊗", self, other))

    def __invert__(self) -> "Term":
        return Term(("inv", self))


def terms(paths: str) -> tuple:
    """The leaves of the space-separated paths; "id:<shape>" is an identity, "id" on "dim"."""
    return tuple(Term(("id", shape(path[3:] or "dim")) if path.partition(":")[0] == "id" else ("get", path))
                 for path in paths.split())


def Diag(*maps: Term) -> Term:
    """diagonal(delta, f, g[, m]), the one braid site of the laws."""
    return Term(("diag",) + maps)


def Call(fn, *args: Term) -> Term:
    """fn of the arguments' values, or of the structure when there are none."""
    return Term(("call", fn) + args)


def Guard(term: Term, detail: str) -> Term:
    """term; its TrussLabError fails the first law needing it, with detail.format(s, error),
    and drops the later ones."""
    return Term(("guard", term, detail))


# Each node's kernel, looked up as it runs; "⊗∘" is (f (x) g)∘x, "∘⊗" x∘(f (x) g).
_KERNELS = {"∘": matmul, "⊗": lambda f, g: kron(f, g), "inv": lambda f: invert(f),
            "⊗∘": lambda f, g, x: tensor_compose(f, g, x),
            "∘⊗": lambda x, f, g: compose_tensor(x, f, g), "diag": lambda *maps: diagonal(*maps)}


class Laws:
    """A table of laws, compiled on first use to straight-line code over slots.

    An entry is a law (name, anchor, lhs, rhs), a condition that lhs can be
    evaluated when rhs is None, or a part (verify, path, prefix): the report
    of a component (or of what a method of that name makes), held under
    prefix as (prefix, report).  Each distinct subterm owns one
    slot, filled once per report and emptied after the last law needing it.
    Compiling is the one place that picks a kernel: (f (x) g)∘x is
    tensor_compose, x∘(f (x) g) compose_tensor, another composite compose,
    a bare f (x) g kron and Diag diagonal.  Every kernel but kron is
    record.memoized, so a composite lives on in the memo of its first
    operand, and another table that needs an equal composite, on this
    structure or on one built from equal maps, reads it there.
    """

    def __init__(self, entries) -> None:
        self.entries, self.steps = entries, None

    def _compile(self) -> None:
        slots, code, needs, leaves, details, steps = {}, {}, {}, [], {}, []

        def slot_of(t: Term) -> int:
            kind, *args = t
            if kind == "guard":
                details[slot_of(args[0])] = args[1]
                return slots[args[0]]
            if t not in slots:
                if kind == "get":  # read as the evaluation starts, not run as code
                    slot = slots[t] = len(slots) + 1
                    leaves.append((slot, attrgetter(args[0])))
                    return slot
                if kind == "id":
                    names = args[0]
                    op, args = (lambda s: identity(s.field, math.prod(map(s.dims.__getitem__, names)))), ()
                elif kind == "call":
                    op, args = args[0], args[1:]
                else:
                    if kind == "∘" and args[0][0] == "⊗":
                        kind, args = "⊗∘", [*args[0][1:], args[1]]
                    elif kind == "∘" and args[1][0] == "⊗":
                        kind, args = "∘⊗", [args[0], *args[1][1:]]
                    op = _KERNELS[kind]
                args = tuple(map(slot_of, args)) or (0,)
                slot = slots[t] = len(slots) + 1
                # the operands' values as one tuple, or a list of one from a slice
                fetch = itemgetter(*args) if len(args) > 1 else itemgetter(slice(args[0], args[0] + 1))
                code[slot] = (slot, op, fetch)
                needs[slot] = {slot}.union(*(needs.get(a, ()) for a in args))
            return slots[t]

        for entry in self.entries:
            if len(entry) == 3:
                steps.append((entry[0], attrgetter(entry[1]), entry[2]))
                continue
            sides = [slot_of(t) for t in entry[2:] if t is not None]
            program = [code[slot] for slot in sorted(set().union(*(needs.get(slot, ()) for slot in sides)))]
            steps.append((*entry[:2], program, sides[0], sides[1] if len(sides) > 1 else None, []))
        for slot, step in {ins[0]: step for step in steps if len(step) > 3 for ins in step[2]}.items():
            step[-1].append(slot)
        self.size, self.leaves, self.details, self.steps, self.entries = len(slots), leaves, details, steps, None

    def checks(self, s) -> tuple:
        """The checks and parts of every entry on the structure s, in table order."""
        if self.steps is None:
            self._compile()
        vals, out, failed = [s] + [None] * self.size, [], set()
        for slot, get in self.leaves:
            vals[slot] = get(s)
        for step in self.steps:
            if len(step) == 3:
                part = step[1](s)  # a component, or the method that makes it
                out.append((step[2], step[0](part() if callable(part) else part)))
                continue
            name, anchor, program, lhs, rhs, done = step
            if failed and not failed.isdisjoint(slot for slot, _, _ in program):
                continue
            try:
                for slot, op, fetch in program:
                    if vals[slot] is None:
                        vals[slot] = op(*fetch(vals))
            except TrussLabError as err:
                if slot not in self.details:
                    raise
                failed.add(slot)
                out.append(condition(name, anchor, False, self.details[slot].format(s, err)))
                continue
            out.append(equation(name, anchor, vals[lhs], vals[rhs]) if rhs else condition(name, anchor, True))
            for slot in done:
                vals[slot] = None
        return tuple(out)


def law_table(subject: str):
    """Make a function that declares a table of laws into the memoized
    verifier of that table, of the same name, whose reports have subject."""
    def verifier(declare):
        laws = Laws(declare())
        return memoized(update_wrapper(lambda s: VerificationReport(subject, laws.checks(s)), declare))
    return verifier


class Structure(Record):
    """Base of every structure that carries maps.

    A subclass declares the components it is built on once, in PARTS, as
    (attribute, class, renamed), and its own maps with their shapes in
    MAPS, as (name, cod, dom) over named dims.  The declarations are read
    here only, once per class, into two tables.  ALL_MAPS lists every map
    once, the components' first, as (document name, attribute path, cod,
    dom) with cod and dom tuples of dims.  ALL_DIMS lists every dim once,
    in the order ALL_MAPS first names it, as (name, carrier, path): the
    attribute path holding its size, and whether it is a carrier, a dim
    that a structure's own maps add on top of its components.  Such a
    dim's size is the cod or dom of the first own map that has it alone
    there, and it stays a carrier in a structure built on that one.  When
    `renamed` names a dim, the component's "dim" becomes that dim and
    its maps are named "renamed." + name.  The record fields (the
    components, or "dim" when there are none, then the maps), the field,
    the dims, the constructor check, build and moved_maps, the one
    transport of structure, follow from these tables.  MORPHISM_LAWS is
    the table of verify_morphism's laws, one per map and then the laws of
    MORPHISM_EXTRA, compiled once per class on use.
    """

    PARTS = ()
    MAPS = ()
    MORPHISM_EXTRA = ()
    ALL_MAPS = ()
    ALL_DIMS = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        maps, dims = [], {} if cls.PARTS else {"dim": (False, "dim")}
        for attr, part, renamed in cls.PARTS:
            # the one renaming: "renamed." before each map name, and "dim" read as renamed
            rename = {"dim": renamed} if renamed else {}
            maps += [(f"{renamed}.{name}" if renamed else name, f"{attr}.{path}",
                      *(tuple(rename.get(d, d) for d in names) for names in (cod, dom)))
                     for name, path, cod, dom in part.ALL_MAPS]
            for d, carrier, path in part.ALL_DIMS:
                dims.setdefault(rename.get(d, d), (carrier, f"{attr}.{path}"))
        own = [(name, name, shape(cod), shape(dom)) for name, cod, dom in cls.MAPS]
        # a dim the own maps add is a carrier, sized by the first end that is that dim alone
        ends = [(names, f"{name}.{end}") for name, _, *pair in own for end, names in zip(("cod", "dom"), pair)]
        for d in (d for names, _ in ends for d in names if d not in dims):
            sized = [path for names, path in ends if names == (d,)]
            if not sized:
                raise TypeError(f"{cls.__name__}: no own map has {d!r} alone as cod or dom")
            dims[d] = (True, sized[0])
        cls.ALL_MAPS, cls.ALL_DIMS = tuple(maps + own), tuple((d, *entry) for d, entry in dims.items())
        cls._dim_reads = tuple((d, attrgetter(path)) for d, _, path in cls.ALL_DIMS)
        cls._map_reads = {name: (attrgetter(path), cod, dom) for name, path, cod, dom in cls.ALL_MAPS}
        cls.MORPHISM_LAWS = Laws([*(_morphism_law(*entry) for entry in cls.ALL_MAPS), *cls.MORPHISM_EXTRA])

    @classmethod
    def _fields(cls) -> tuple:
        parts = tuple(attr for attr, _, _ in cls.PARTS)
        return (parts or ("dim",)) + tuple(name for name, _, _ in cls.MAPS)

    @classmethod
    def build(cls, dims: dict, maps: dict):
        """The structure with these dims and these maps by document name."""
        values = {path: maps[name] for name, path, _, _ in cls.ALL_MAPS}
        values.update((path, dims[name]) for name, _, path in cls.ALL_DIMS)

        def make(struct, prefix: str):
            parts = [make(part, f"{prefix}{attr}.") for attr, part, _ in struct.PARTS]
            return struct(*parts, *(values[prefix + name] for name in struct.FIELDS[len(parts):]))
        return make(cls, "")

    def moved_maps(self, p: dict, names) -> dict:
        """The one transport of structure: the maps named in names, by
        document name, moved along the isomorphisms p[d] on their dims.
        Each map m becomes (p on its cod)∘m∘(p⁻¹ on its dom), with no
        Kronecker product formed.  A dim p leaves out stays fixed, and a
        map on fixed dims alone comes back as the same object.  Every p[d]
        is inverted before any map is built, so a singular one raises
        NotInvertibleError, whether or not a named map lies on its dim."""
        dims = self.dims
        moves = {d: (p[d], invert(p[d])) for d in dims if d in p}

        def legs(end: tuple, which: int) -> list:
            return [moves[d][which] if d in moves else identity(self.field, dims[d]) for d in end]

        maps = {}
        for name in names:
            read, cod, dom = self._map_reads[name]
            m = read(self)
            if not moves.keys().isdisjoint(cod):
                out = legs(cod, 0)
                m = out[0] @ m if len(out) == 1 else tensor_compose(*out, m)
            if not moves.keys().isdisjoint(dom):
                back = legs(dom, 1)
                m = m @ back[0] if len(back) == 1 else compose_tensor(m, *back)
            maps[name] = m
        return maps

    def moved(self, p: dict):
        """This structure rebuilt from all its maps moved along p by moved_maps."""
        return type(self).build(self.dims, self.moved_maps(p, self._map_reads))

    @property
    def mdim(self) -> int:
        """The dim of the carrier, for a module or comodule."""
        return self.dims["carrier"]

    @property
    def field(self) -> FieldSpec:
        """The field of the first component, or of the first map."""
        return getattr(self, (self.PARTS or self.MAPS)[0][0]).field

    @cached_property
    def dims(self) -> dict:
        """Every named dim, read at its path in ALL_DIMS.  Cached on the
        instance, not memoized, so that a constructor takes no hash;
        callers must not change the dict."""
        return {name: read(self) for name, read in self._dim_reads}

    def __post_init__(self) -> None:
        """Every component and every declared map lives over the field, and
        every map has its declared shape."""
        field = self.field
        for attr, _, _ in self.PARTS:
            field.require_same(getattr(self, attr).field)
        dims = self.dims
        for name, _, cod, dom in self.ALL_MAPS[len(self.ALL_MAPS) - len(self.MAPS):]:
            m = getattr(self, name)
            field.require_same(m.field)
            expected = (math.prod(map(dims.__getitem__, cod)), math.prod(map(dims.__getitem__, dom)))
            if m.shape != expected:
                raise DimensionMismatchError(
                    f"{name} has shape {m.shape}, expected {expected}")


class ComonoidData(Structure):
    """Comonoid structure constants: delta (dim -> dim^2), epsilon (dim -> 1)."""

    MAPS = (("delta", "dim*dim", "dim"), ("epsilon", "1", "dim"))


class MonoidData(Structure):
    """Monoid structure constants: eta (1 -> dim), mu (dim^2 -> dim)."""

    MAPS = (("eta", "dim", "1"), ("mu", "dim", "dim*dim"))


class OverComonoid:
    """The dim, coproduct and counit of a structure built on a comonoid."""

    @property
    def dim(self) -> int:
        return self.comonoid.dim

    @property
    def delta(self) -> LinMap:
        return self.comonoid.delta

    @property
    def epsilon(self) -> LinMap:
        return self.comonoid.epsilon


class NonUnitalBimonoidData(OverComonoid, Structure):
    """A comonoid with an associative product that is a comonoid morphism."""

    PARTS = (("comonoid", ComonoidData, None),)
    MAPS = (("mu", "dim", "dim*dim"),)


class HopfMonoidData(OverComonoid, Structure):
    """Unital bimonoid with antipode."""

    PARTS = (("comonoid", ComonoidData, None),)
    MAPS = (("eta", "dim", "1"), ("mu", "dim", "dim*dim"), ("antipode", "dim", "dim"))

    # memoized views: each is a new record, and its report memo would die with it
    @memoized
    def monoid(self) -> MonoidData:
        return MonoidData(self.dim, self.eta, self.mu)

    @memoized
    def nonunital(self) -> NonUnitalBimonoidData:
        return NonUnitalBimonoidData(self.comonoid, self.mu)


# -- composite helpers -----------------------------------------------------


@memoized
def diagonal(delta: LinMap, f: LinMap, g: LinMap, m: LinMap | None = None) -> LinMap:
    """(f (x) g)∘(id_A (x) swap(A, X) (x) id_Y)∘(delta (x) id_X (x) id_Y)∘(id_A (x) m).

    A acts on X (x) Y by a (x) x (x) y |-> f(a1 (x) x) (x) g(a2 (x) y), with
    a2 braided past x, and m: M -> X (x) Y is the identity when not given.
    Every law that moves a coproduct leg past another factor is built
    here, so this is where the braiding enters them.  No Kronecker
    product or flip map is formed: each pair of entries of delta and m
    is relabelled into one leg of tensor_apply, or, when delta and m are
    basis maps, each pair of their table rows into the f and g columns of
    one column of the spread, which linmap's _tensor_rows applies f (x) g
    to by table when f and g are basis maps too.  Memoized on delta, so
    each value of the operands is spread once.
    """
    a = delta.dom
    x, y = (h.dom // a if a else 0 for h in (f, g))
    m = identity(delta.field, x * y) if m is None else m
    for h in (f, g, m):
        delta.field.require_same(h.field)
    if delta.cod != a * a or a * x != f.dom or a * y != g.dom or (a and m.cod != x * y):
        raise DimensionMismatchError(
            f"diagonal needs delta: {a} -> {a}*{a}, f, g from multiples of {a} and m into "
            f"their quotients, got shapes {delta.shape}, {f.shape}, {g.shape}, {m.shape}")
    if not a:
        # id_0 (x) m is 0 x 0 whatever m is, and so is the composite's domain.
        return LinMap.zero(delta.field, f.cod * g.cod, 0)
    # delta(e_k) ∋ e_a1 (x) e_a2 and m(e_c) ∋ e_u (x) e_v, so e_k (x) e_c ↦
    # e_a1 (x) e_u (x) e_a2 (x) e_v: the braid is the move of u ahead of a2.
    td, tm = delta._table(), m._table()
    if td and tm:
        # basis maps: column (k, c) of the spread goes to f's column
        # a1*x + u and g's column a2*y + v, as in the legs below
        left = [(row // a * x, row % a * y) for row in td]
        right = [divmod(row, y) for row in tm]
        out = _tensor_rows(f, g, left, right)
        if out is not None:
            return out
    tail = [(u * a * y + v, c, w) for (r, c), w in m.items() for u, v in (divmod(r, y),)]
    legs = ((((a1 * x * a + a2) * y + t, k * m.dom + c), d * w)
            for (row, k), d in delta.items() for a1, a2 in (divmod(row, a),) for t, c, w in tail)
    return tensor_apply(f, g, legs, a * m.dom)


# -- verifiers ---------------------------------------------------------------


@law_table("comonoid")
def verify_comonoid():
    delta, epsilon, idn = terms("delta epsilon id")
    return (("counit.left", "(epsilon(x)id)∘delta = id", (epsilon * idn) @ delta, idn),
            ("counit.right", "(id(x)epsilon)∘delta = id", (idn * epsilon) @ delta, idn),
            ("coassoc", "(delta(x)id)∘delta = (id(x)delta)∘delta",
             (delta * idn) @ delta, (idn * delta) @ delta))


@law_table("monoid")
def verify_monoid():
    eta, mu, idn = terms("eta mu id")
    return (("unit.left", "mu∘(eta(x)id) = id", mu @ (eta * idn), idn),
            ("unit.right", "mu∘(id(x)eta) = id", mu @ (idn * eta), idn),
            ("assoc", "mu∘(mu(x)id) = mu∘(id(x)mu)", mu @ (mu * idn), mu @ (idn * mu)))


@law_table("bimonoid")
def verify_nonunital_bimonoid():
    delta, epsilon, mu, idn = terms("delta epsilon mu id")
    return ((verify_comonoid, "comonoid", ""),
            ("product.assoc", "mu∘(mu(x)id) = mu∘(id(x)mu)", mu @ (mu * idn), mu @ (idn * mu)),
            ("product.counit", "epsilon∘mu = epsilon(x)epsilon", epsilon @ mu, epsilon * epsilon),
            ("product.coproduct", "delta∘mu = (mu(x)mu)∘delta2", delta @ mu, Diag(delta, mu, mu, delta)))


@law_table("hopf")
def verify_hopf_monoid():
    delta, epsilon, eta, mu, antipode, idn, one = terms("delta epsilon eta mu antipode id id:1")
    return ((verify_nonunital_bimonoid, "nonunital", ""),
            ("unit.left", "mu∘(eta(x)id) = id", mu @ (eta * idn), idn),
            ("unit.right", "mu∘(id(x)eta) = id", mu @ (idn * eta), idn),
            ("unit.counit", "epsilon∘eta = id_K", epsilon @ eta, one),
            ("unit.coproduct", "delta∘eta = eta(x)eta", delta @ eta, eta * eta),
            ("antipode.left", "mu∘(antipode(x)id)∘delta = eta∘epsilon",
             mu @ (antipode * idn) @ delta, eta @ epsilon),
            ("antipode.right", "mu∘(id(x)antipode)∘delta = eta∘epsilon",
             mu @ (idn * antipode) @ delta, eta @ epsilon))


def verify_morphism(f: dict, src: Structure, dst: Structure,
                    subject: str = "morphism") -> VerificationReport:
    """The laws of a morphism src -> dst of one kind.

    f maps each named dim d of the kind to a LinMap src.dims[d] ->
    dst.dims[d].  Every map m in ALL_MAPS must commute with it,
    f_cod∘m = m'∘f_dom, where a tensor of dims takes the tensor of their
    maps and the dim 1 the identity; each check is named by m's document
    name.  Another kind raises TypeError, another field
    FieldMismatchError, and a missing or extra dim or a wrong shape
    DimensionMismatchError, all before any law is checked.
    """
    if type(src) is not type(dst):
        raise TypeError(f"morphism from {type(src).__name__} to {type(dst).__name__}")
    for h in (dst, *f.values()):
        src.field.require_same(h.field)
    dst_dims = dst.dims
    expected = {d: (dst_dims[d], n) for d, n in src.dims.items()}
    shapes = {d: h.shape for d, h in f.items()}
    if shapes != expected:
        raise DimensionMismatchError(f"morphism has shapes {shapes}, expected {expected}")
    ends = SimpleNamespace(src=src, dst=dst, **{f"f_{d}": h for d, h in f.items()})
    return VerificationReport(subject, type(src).MORPHISM_LAWS.checks(ends))


# -- convolution -------------------------------------------------------------


def convolution(f: LinMap, g: LinMap, source: ComonoidData, target: MonoidData) -> LinMap:
    """f * g = mu ∘ (f (x) g) ∘ delta."""
    if f.dom != source.dim or g.dom != source.dim:
        raise DimensionMismatchError("convolution operands must start at the comonoid")
    if f.cod != target.dim or g.cod != target.dim:
        raise DimensionMismatchError("convolution operands must land in the monoid")
    return target.mu @ tensor_compose(f, g, source.delta)


def convolution_unit(source: ComonoidData, target: MonoidData) -> LinMap:
    return target.eta @ source.epsilon


def convolution_inverse(f: LinMap, source: ComonoidData, target: MonoidData) -> LinMap:
    """The two-sided convolution inverse of f, or NoAntipodeError.

    The two convolution equations are linear in the unknown map X, so the
    inverse is found by one exact solve over its entries; a consistent
    system forces the unique two-sided inverse.  For X = e_i e_jᵀ,
    (f*X)(e_c) = Σ_k delta[k·nd+j, c]·P[:, k·na+i] with P = mu∘(f (x) id) and
    (X*f)(e_c) = Σ_l delta[j·nd+l, c]·Q[:, i·nd+l] with Q = mu∘(id (x) f),
    so the system is read off delta's entries in one pass.
    """
    nd, na = source.dim, target.dim
    if f.dom != nd:
        raise DimensionMismatchError("convolution operands must start at the comonoid")
    if f.cod != na:
        raise DimensionMismatchError("convolution operands must land in the monoid")
    field = f.field
    idn = identity(field, na)
    # P's entries grouped by k and Q's by l, as (row offset, unknown offset, value).
    by_k, by_l = {}, {}
    for (r, col), v in compose_tensor(target.mu, f, idn).items():
        k, i = divmod(col, na)
        by_k.setdefault(k, []).append((r * nd, i * nd, v))
    for (r, col), v in compose_tensor(target.mu, idn, f).items():
        i, l = divmod(col, nd)
        by_l.setdefault(l, []).append((r * nd, i * nd, v))
    half = na * nd
    system, rhs = {}, {}
    for (row, c), d in source.delta.items():
        a1, a2 = divmod(row, nd)
        for r, i, p in by_k.get(a1, ()):
            key = (r + c, i + a2)
            system[key] = system.get(key, 0) + d * p
        for r, i, q in by_l.get(a2, ()):
            key = (half + r + c, i + a1)
            system[key] = system.get(key, 0) + d * q
    for (r, c), v in convolution_unit(source, target).items():
        rhs[(r * nd + c, 0)] = rhs[(half + r * nd + c, 0)] = v
    try:
        solution = solve_through(LinMap(field, 2 * half, half, system),
                                 LinMap(field, 2 * half, 1, rhs))
    except InconsistentSystemError as exc:
        raise NoAntipodeError("no two-sided convolution inverse") from exc
    return LinMap(field, na, nd, {divmod(k, nd): v for (k, _), v in solution.items()})


def solve_antipode(b: NonUnitalBimonoidData, eta: LinMap) -> LinMap:
    """Convolution inverse of the identity for a unital bimonoid."""
    target = MonoidData(b.dim, eta, b.mu)
    return convolution_inverse(identity(b.field, b.dim), b.comonoid, target)


def find_unit(mu: LinMap) -> LinMap | None:
    """The unique two-sided unit of mu as a 1-column map, if one exists.

    The unknown u solves mu(u (x) e_c) = e_c (rows r·n+c) and
    mu(e_c (x) u) = e_c (rows n²+r·n+c), so mu's entry at (r, a·n+b) is
    the coefficient of u_a in row r·n+b and of u_b in row n²+r·n+a.
    """
    field = mu.field
    n = mu.cod
    if mu.dom != n * n:
        raise DimensionMismatchError("find_unit expects mu: dim^2 -> dim")
    half = n * n
    system = {}
    for (r, col), v in mu.items():
        a, b = divmod(col, n)
        system[(r * n + b, a)] = system[(half + r * n + a, b)] = v
    rhs = {(h + r * n + r, 0): field.one for h in (0, half) for r in range(n)}
    try:
        return solve_through(LinMap(field, 2 * half, n, system),
                             LinMap(field, 2 * half, 1, rhs))
    except (InconsistentSystemError, AmbiguousSystemError):
        return None


# -- grouplikes ---------------------------------------------------------------


def _is_basis_diagonal(c: ComonoidData) -> bool:
    # Every delta column must be exactly one tensor square e_k (x) e_k,
    # at row k*(n+1): a table whose rows are multiples of n+1.
    table = c.delta._table()
    if table is None:
        return c.dim == 0
    return all(i % (c.dim + 1) == 0 for i in table)


def grouplikes(c: ComonoidData) -> List[LinMap]:
    """Every grouplike vector g, with delta(g) = g (x) g and epsilon(g) = 1.

    A basis-diagonal delta has only basis vectors as grouplikes, so the
    basis is scanned, in basis order.  Otherwise a prime-field comonoid
    with at most MAX_GROUPLIKE_CANDIDATES vectors is scanned in full, in
    lexicographic coefficient order; a larger one raises
    BoundExceededError, and any other field IncompleteGrouplikesError.
    """
    field = c.field
    n = c.dim
    one = identity(field, 1)
    if _is_basis_diagonal(c):
        candidates = (LinMap.basis_vector(field, n, j) for j in range(n))
    elif field.kind == PRIME_KIND:
        if field.p ** n > MAX_GROUPLIKE_CANDIDATES:
            raise BoundExceededError(
                f"{field.p}^{n} candidate vectors exceed the bound "
                f"{MAX_GROUPLIKE_CANDIDATES}")
        candidates = (LinMap(field, n, 1, {(i, 0): a for i, a in enumerate(coeffs) if a})
                      for coeffs in itertools.product(range(field.p), repeat=n))
    else:
        raise IncompleteGrouplikesError(
            "grouplike scan is incomplete: coproduct is not basis-diagonal "
            "and the field is not finite")
    return [v for v in candidates if c.epsilon @ v == one and c.delta @ v == kron(v, v)]
