"""Structure-constant bundles for (co)monoids, bimonoids, and Hopf monoids.

Every bundle is a frozen record of LinMaps over one field; verifiers
return a VerificationReport whose checks are exact matrix identities.
All composite maps follow the left-major tensor convention of linmap.

The braiding enters the laws here only: diagonal builds every composite
that moves a coproduct leg past another factor, in every module, and no
other code forms a braid.
"""

from __future__ import annotations

import itertools
import math
from operator import attrgetter
from typing import List

from .errors import (
    AmbiguousSystemError,
    BoundExceededError,
    DimensionMismatchError,
    IncompleteGrouplikesError,
    InconsistentSystemError,
    NoAntipodeError,
)
from .fields import PRIME_KIND, FieldSpec
from .linmap import LinMap, compose_tensor, identity, kron, solve_through, tensor_apply, tensor_compose
from .record import Record, memoized
from .report import VerificationReport, equation, memoized_report

# grouplikes scans every vector of a comonoid that is not basis-diagonal
# over a prime field only up to this many candidates.
MAX_GROUPLIKE_CANDIDATES = 100_000


def dim_product(expr: str, dims) -> int:
    """The size a shape expression names over `dims`: "1", a dim name,
    or dim names joined by "*" for a tensor product."""
    return math.prod(dims[name] for name in expr.split("*") if name != "1")


def _morphism_law(name: str, path: str, cod: str, dom: str) -> tuple:
    """What verify_morphism needs for the map at path: (name, getter, cod
    dims, dom dims, anchor), the dims without "1" and the anchor the
    law's text, such as "(f_dim(x)f_dim)∘delta = delta'∘f_dim"."""
    cod, dom = (tuple(d for d in expr.split("*") if d != "1") for expr in (cod, dom))
    left, right = _factor_text(cod), _factor_text(dom)
    anchor = f"{left and left + '∘'}{name} = {name}'{right and '∘' + right}"
    return name, attrgetter(path), cod, dom, anchor


def _factor_text(dims: tuple) -> str:
    text = "(x)".join(f"f_{d}" for d in dims)
    return f"({text})" if len(dims) > 1 else text


class Structure(Record):
    """Base of every structure that carries maps.

    A subclass declares the components it is built on once, in PARTS, as
    (attribute, class, renamed), and its own maps with their shapes in
    MAPS, as (name, cod, dom) over named dims.  When `renamed` names a
    dim, the component's "dim" becomes that dim.  The record fields (the
    components, or "dim" when there are none, then the maps), the field,
    the dims and the constructor check follow from these declarations.
    ALL_MAPS lists every map once, the components' first, as (document
    name, attribute path, cod, dom); a renamed component's maps are
    named "renamed." + name and have their "dim" replaced by that dim.
    The document format reads this list.  MORPHISM_LAWS holds, for each
    of its maps, what verify_morphism needs, derived once per class.
    """

    PARTS = ()
    MAPS = ()
    ALL_MAPS = ()
    MORPHISM_LAWS = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        entries = []
        for attr, part, renamed in cls.PARTS:
            for name, path, cod, dom in part.ALL_MAPS:
                if renamed is not None:
                    name = f"{renamed}.{name}"
                    cod, dom = ("*".join(renamed if d == "dim" else d for d in expr.split("*"))
                                for expr in (cod, dom))
                entries.append((name, f"{attr}.{path}", cod, dom))
        cls.ALL_MAPS = tuple(entries) + tuple((name, name, cod, dom) for name, cod, dom in cls.MAPS)
        cls.MORPHISM_LAWS = tuple(_morphism_law(*entry) for entry in cls.ALL_MAPS)

    @classmethod
    def _fields(cls) -> tuple:
        parts = tuple(attr for attr, _, _ in cls.PARTS)
        return (parts or ("dim",)) + tuple(name for name, _, _ in cls.MAPS)

    @property
    def field(self) -> FieldSpec:
        """The field of the first component, or of the first map."""
        return getattr(self, (self.PARTS or self.MAPS)[0][0]).field

    @property
    @memoized
    def dims(self) -> dict:
        """Every named dim: a structure with no components has its "dim";
        otherwise the components' dims come first, renamed where declared,
        and each dim the own maps add is the size of the first of them
        that has that dim alone as codomain or domain.  Made once per
        instance; callers must not change the dict."""
        if not self.PARTS:
            return {"dim": self.dim}
        dims = {}
        for attr, _, renamed in self.PARTS:
            part = getattr(self, attr).dims
            dims.update(part if renamed is None else {renamed: part["dim"]})
        for name, cod, dom in self.MAPS:
            m = getattr(self, name)
            for expr, size in ((cod, m.cod), (dom, m.dom)):
                if expr not in dims and expr != "1" and "*" not in expr:
                    dims[expr] = size
        return dims

    def __post_init__(self) -> None:
        """Every component and every declared map lives over the field, and
        every map has its declared shape."""
        field = self.field
        for attr, _, _ in self.PARTS:
            field.require_same(getattr(self, attr).field)
        dims = self.dims
        for name, cod, dom in self.MAPS:
            m = getattr(self, name)
            field.require_same(m.field)
            expected = (dim_product(cod, dims), dim_product(dom, dims))
            if m.shape != expected:
                raise DimensionMismatchError(
                    f"{name} has shape {m.shape}, expected {expected}")


class ComonoidData(Structure):
    """Comonoid structure constants: delta (dim -> dim^2), epsilon (dim -> 1)."""

    MAPS = (("delta", "dim*dim", "dim"), ("epsilon", "1", "dim"))


class MonoidData(Structure):
    """Monoid structure constants: eta (1 -> dim), mu (dim^2 -> dim)."""

    MAPS = (("eta", "dim", "1"), ("mu", "dim", "dim*dim"))


class NonUnitalBimonoidData(Structure):
    """A comonoid with an associative product that is a comonoid morphism."""

    PARTS = (("comonoid", ComonoidData, None),)
    MAPS = (("mu", "dim", "dim*dim"),)

    @property
    def dim(self) -> int:
        return self.comonoid.dim

    @property
    def delta(self) -> LinMap:
        return self.comonoid.delta

    @property
    def epsilon(self) -> LinMap:
        return self.comonoid.epsilon


class HopfMonoidData(Structure):
    """Unital bimonoid with antipode."""

    PARTS = (("comonoid", ComonoidData, None),)
    MAPS = (("eta", "dim", "1"), ("mu", "dim", "dim*dim"), ("antipode", "dim", "dim"))

    @property
    def dim(self) -> int:
        return self.comonoid.dim

    @property
    def delta(self) -> LinMap:
        return self.comonoid.delta

    @property
    def epsilon(self) -> LinMap:
        return self.comonoid.epsilon

    @memoized
    def monoid(self) -> MonoidData:
        return MonoidData(self.dim, self.eta, self.mu)

    @memoized
    def nonunital(self) -> NonUnitalBimonoidData:
        return NonUnitalBimonoidData(self.comonoid, self.mu)


# -- composite helpers -----------------------------------------------------


def diagonal(delta: LinMap, f: LinMap, g: LinMap, m: LinMap | None = None) -> LinMap:
    """(f (x) g)∘(id_A (x) swap(A, X) (x) id_Y)∘(delta (x) id_X (x) id_Y)∘(id_A (x) m).

    A acts on X (x) Y by a (x) x (x) y |-> f(a1 (x) x) (x) g(a2 (x) y), with
    a2 braided past x, and m: M -> X (x) Y is the identity when not given.
    Every law that moves a coproduct leg past another factor is built
    here, so this is where the braiding enters them.  No Kronecker
    product or flip map is formed: each pair of entries of delta and m
    is relabelled into one leg of tensor_apply.
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
    tail = [(u * a * y + v, c, w) for (r, c), w in m.items() for u, v in (divmod(r, y),)]
    legs = ((((a1 * x * a + a2) * y + t, k * m.dom + c), d * w)
            for (row, k), d in delta.items() for a1, a2 in (divmod(row, a),) for t, c, w in tail)
    return tensor_apply(f, g, legs, a * m.dom)


# -- verifiers ---------------------------------------------------------------


@memoized_report
def verify_comonoid(c: ComonoidData, subject: str = "comonoid") -> VerificationReport:
    n = c.dim
    idn = identity(c.field, n)
    checks = (
        equation("counit.left", "(epsilon(x)id)∘delta = id",
                 tensor_compose(c.epsilon, idn, c.delta), idn),
        equation("counit.right", "(id(x)epsilon)∘delta = id",
                 tensor_compose(idn, c.epsilon, c.delta), idn),
        equation("coassoc", "(delta(x)id)∘delta = (id(x)delta)∘delta",
                 tensor_compose(c.delta, idn, c.delta),
                 tensor_compose(idn, c.delta, c.delta)),
    )
    return VerificationReport(subject, checks)


@memoized_report
def verify_monoid(m: MonoidData, subject: str = "monoid") -> VerificationReport:
    n = m.dim
    idn = identity(m.field, n)
    checks = (
        equation("unit.left", "mu∘(eta(x)id) = id", compose_tensor(m.mu, m.eta, idn), idn),
        equation("unit.right", "mu∘(id(x)eta) = id", compose_tensor(m.mu, idn, m.eta), idn),
        equation("assoc", "mu∘(mu(x)id) = mu∘(id(x)mu)",
                 compose_tensor(m.mu, m.mu, idn), compose_tensor(m.mu, idn, m.mu)),
    )
    return VerificationReport(subject, checks)


@memoized_report
def verify_nonunital_bimonoid(b: NonUnitalBimonoidData, subject: str = "bimonoid") -> VerificationReport:
    idn = identity(b.field, b.dim)
    rep = verify_comonoid(b.comonoid, subject)
    rep = rep.with_checks(
        equation("product.assoc", "mu∘(mu(x)id) = mu∘(id(x)mu)",
                 compose_tensor(b.mu, b.mu, idn), compose_tensor(b.mu, idn, b.mu)),
        equation("product.counit", "epsilon∘mu = epsilon(x)epsilon",
                 b.epsilon @ b.mu, kron(b.epsilon, b.epsilon)),
        equation("product.coproduct", "delta∘mu = (mu(x)mu)∘delta2",
                 b.delta @ b.mu, diagonal(b.delta, b.mu, b.mu, b.delta)),
    )
    return rep


@memoized_report
def verify_hopf_monoid(h: HopfMonoidData, subject: str = "hopf") -> VerificationReport:
    idn = identity(h.field, h.dim)
    one = identity(h.field, 1)
    rep = verify_nonunital_bimonoid(h.nonunital(), subject)
    unit_target = h.eta @ h.epsilon
    rep = rep.with_checks(
        equation("unit.left", "mu∘(eta(x)id) = id",
                 compose_tensor(h.mu, h.eta, idn), idn),
        equation("unit.right", "mu∘(id(x)eta) = id",
                 compose_tensor(h.mu, idn, h.eta), idn),
        equation("unit.counit", "epsilon∘eta = id_K", h.epsilon @ h.eta, one),
        equation("unit.coproduct", "delta∘eta = eta(x)eta",
                 h.delta @ h.eta, kron(h.eta, h.eta)),
        equation("antipode.left", "mu∘(antipode(x)id)∘delta = eta∘epsilon",
                 h.mu @ tensor_compose(h.antipode, idn, h.delta), unit_target),
        equation("antipode.right", "mu∘(id(x)antipode)∘delta = eta∘epsilon",
                 h.mu @ tensor_compose(idn, h.antipode, h.delta), unit_target),
    )
    return rep


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
    checks = []
    for name, get, cod, dom, anchor in type(src).MORPHISM_LAWS:
        m, m_dst = get(src), get(dst)
        left, right = [f[d] for d in cod], [f[d] for d in dom]
        lhs = tensor_compose(*left, m) if len(left) > 1 else left[0] @ m if left else m
        rhs = compose_tensor(m_dst, *right) if len(right) > 1 else m_dst @ right[0] if right else m_dst
        checks.append(equation(name, anchor, lhs, rhs))
    return VerificationReport(subject, tuple(checks))


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
    # Every delta column must be exactly one tensor square e_k (x) e_k.
    n = c.dim
    one = c.field.one
    for j in range(n):
        col = [(i, v) for (i, jj), v in c.delta.items() if jj == j]
        if len(col) != 1:
            return False
        i, v = col[0]
        if v != one or i % (n + 1) != 0:
            return False
    return True


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
