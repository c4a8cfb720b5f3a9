"""One JSON document format for every structure the toolkit handles.

A document is an object with a "kind" tag, a "field" description, a
"dims" object naming the dimensions, and either "maps" (matrices of
scalar strings) or, for set-level trusses, "tables" (Cayley tables of
0-based indices).  Matrix entry [i][j] is the coefficient of codomain
basis vector i in the image of domain basis vector j, so a map with
shape (cod, dom) is stored as cod rows of dom strings.  Scalars use the
field's text form: "a/b" or "a" over the rationals, a plain residue
over a prime field.

Serialization is canonical (sorted keys, two-space indent, trailing
newline), so equal structures produce byte-identical files.  Parsing
validates the schema for the kind before any constructor runs and caps
every declared dimension by the TRUSSLAB_MAX_DIM environment variable
(default 16; module carriers may be quadratically larger, they arise
as products of two capped dimensions).  A kind's maps, dims and carriers
are read off its structure class's ALL_MAPS and ALL_DIMS, and a parsed
document is made by that class's build.
"""

from __future__ import annotations

import json
import math
import os
from json.encoder import encode_basestring_ascii as _encode_str
from operator import attrgetter
from typing import Callable, Dict, Tuple

from .coalgebra import (
    ComonoidData,
    HopfMonoidData,
    MonoidData,
    NonUnitalBimonoidData,
    verify_comonoid,
    verify_hopf_monoid,
    verify_monoid,
    verify_nonunital_bimonoid,
)
from .cocycle import InvertibleCocycle, verify_cocycle
from .errors import DimensionLimitError, ParseError
from .fields import PRIME_KIND, RATIONAL_KIND, RATIONALS, FieldSpec, ascii_int, prime_field
from .hopfmodules import (
    HopfModuleData,
    TrussHopfModule,
    verify_hopf_module,
    verify_truss_hopf_module,
)
from .hopftruss import HopfTruss, verify_hopf_truss
from .linmap import LinMap
from .modules import PiModule, TrussModule, verify_pi_module, verify_truss_module
from .record import Record
from .settruss import (
    FiniteGroup,
    FiniteSemigroup,
    SkewTruss,
    _unit_and_inverses,
    verify_skew_truss,
)

DEFAULT_MAX_DIM = 16

_TOP_KEYS = {"kind", "field", "dims", "maps", "tables"}


def max_dim() -> int:
    raw = os.environ.get("TRUSSLAB_MAX_DIM")
    if raw is None:
        return DEFAULT_MAX_DIM
    try:
        cap = ascii_int(raw)
    except ValueError as exc:
        raise ParseError(f"TRUSSLAB_MAX_DIM must be an ASCII integer, got {raw!r}") from exc
    if cap < 1:
        raise ParseError(f"TRUSSLAB_MAX_DIM must be positive, got {cap}")
    return cap


# -- the kind registry ----------------------------------------------------------


class Kind(Record):
    """Everything the toolkit knows about one document kind: its tag, the
    structure class it parses to, and that class's verifier.

    The rest is read off the class's ALL_MAPS and ALL_DIMS (see
    coalgebra.Structure): the document's maps are those of ALL_MAPS, and
    its dims those of ALL_DIMS.  Each dim is capped by TRUSSLAB_MAX_DIM,
    except that a module carrier may be a product of two capped dims
    (free modules), and gets the square of the cap.
    """

    name: str
    type: type
    verify: Callable

    @property
    def dims(self) -> Tuple[Tuple[str, int], ...]:
        """(name, cap power) of every dim, in document order."""
        return tuple((name, 2 if carrier else 1) for name, carrier, _ in self.type.ALL_DIMS)

    def slots(self, dims: Dict[str, int]):
        """(document name, rows, columns) of every map, components first."""
        for name, _, cod, dom in self.type.ALL_MAPS:
            yield name, math.prod(map(dims.__getitem__, cod)), math.prod(map(dims.__getitem__, dom))

    def maps_of(self, obj) -> Dict[str, LinMap]:
        """Every map of obj by document name, in slot order."""
        return {name: attrgetter(path)(obj) for name, path, _, _ in self.type.ALL_MAPS}

    def parse(self, doc: dict, cap: int):
        if "tables" in doc:
            raise ParseError(f"kind {self.name!r} carries maps, not tables")
        if "field" not in doc:
            raise ParseError("missing field description")
        field = parse_field(doc["field"])
        dims = _parse_dims(doc, self.dims, cap)
        raw_maps = doc.get("maps")
        if not isinstance(raw_maps, dict):
            raise ParseError("maps must be an object")
        slots = list(self.slots(dims))
        expected = [name for name, _, _ in slots]
        if sorted(raw_maps) != sorted(expected):
            missing = sorted(set(expected) - set(raw_maps))
            surplus = sorted(set(raw_maps) - set(expected))
            parts = []
            if missing:
                parts.append(f"missing maps {missing}")
            if surplus:
                parts.append(f"unexpected maps {surplus}")
            raise ParseError(f"kind {self.name!r}: " + ", ".join(parts))
        maps = {name: _parse_matrix(field, name, raw_maps[name], cod, dom)
                for name, cod, dom in slots}
        return self.type.build(dims, maps)

    def document(self, obj) -> dict:
        return {
            "kind": self.name,
            "field": _field_doc(obj.field),
            "dims": dict(obj.dims),
            "maps": {name: _matrix_doc(m) for name, m in self.maps_of(obj).items()},
        }


class _SetTrussKind(Kind):
    """Skew trusses on finite sets, stored as Cayley tables of 0-based
    indices in place of maps."""

    dims = (("size", 1),)

    def parse(self, doc: dict, cap: int) -> SkewTruss:
        raw_dims = doc.get("dims")
        if not isinstance(raw_dims, dict) or sorted(raw_dims) != ["size"]:
            raise ParseError("settruss dims must name exactly ['size']")
        size = raw_dims["size"]
        if not isinstance(size, int) or isinstance(size, bool) or size < 1:
            raise ParseError("settruss size must be a positive integer")
        if size > cap:
            raise DimensionLimitError(
                f"dimension size={size} exceeds TRUSSLAB_MAX_DIM = {cap}")
        if "maps" in doc:
            raise ParseError("settruss documents carry tables, not maps")
        tables = doc.get("tables")
        if not isinstance(tables, dict):
            raise ParseError("tables must be an object")
        expected = ["cocycle", "group", "semigroup"]
        if sorted(tables) != expected:
            raise ParseError(f"tables must name exactly {expected}, got {sorted(tables)}")
        # a table that is no group still parses, so that verification can
        # report which group law it breaks
        group_table = _parse_table("group", tables["group"], size, size)
        unit, inv, _ = _unit_and_inverses(group_table)
        group = FiniteGroup(group_table, unit, inv)
        semigroup = FiniteSemigroup(_parse_table("semigroup", tables["semigroup"], size, size))
        omega = _parse_table("cocycle", tables["cocycle"], 1, size)[0]
        return SkewTruss(group, semigroup, omega)

    def document(self, t: SkewTruss) -> dict:
        return {
            "kind": self.name,
            "dims": {"size": t.size},
            "tables": {
                "group": [list(row) for row in t.group.table],
                "semigroup": [list(row) for row in t.semigroup.table],
                "cocycle": [list(t.omega)],
            },
        }


REGISTRY: Dict[str, Kind] = {kind.name: kind for kind in (
    Kind("comonoid", ComonoidData, verify_comonoid),
    Kind("monoid", MonoidData, verify_monoid),
    Kind("bimonoid", NonUnitalBimonoidData, verify_nonunital_bimonoid),
    Kind("hopf", HopfMonoidData, verify_hopf_monoid),
    Kind("hopftruss", HopfTruss, verify_hopf_truss),
    Kind("gic", InvertibleCocycle, verify_cocycle),
    Kind("trussmodule", TrussModule, verify_truss_module),
    Kind("pimodule", PiModule, verify_pi_module),
    Kind("hopfmodule", HopfModuleData, verify_hopf_module),
    Kind("trusshopfmodule", TrussHopfModule, verify_truss_hopf_module),
    _SetTrussKind("settruss", SkewTruss, verify_skew_truss),
)}

KINDS = tuple(REGISTRY)

_BY_TYPE = {kind.type: kind for kind in REGISTRY.values()}


def kind_of(obj) -> str:
    """The document kind tag for a structure object."""
    kind = _BY_TYPE.get(type(obj))
    if kind is None:
        raise TypeError(f"no document kind for {type(obj).__name__}")
    return kind.name


def verify_structure(obj):
    """The VerificationReport of obj's own kind."""
    return REGISTRY[kind_of(obj)].verify(obj)


# -- parsing ------------------------------------------------------------------


def parse_field(obj) -> FieldSpec:
    if not isinstance(obj, dict):
        raise ParseError(f"field must be an object, got {obj!r}")
    kind = obj.get("kind")
    if kind == RATIONAL_KIND:
        if set(obj) != {"kind"}:
            raise ParseError("rational field takes only the kind key")
        return RATIONALS
    if kind == PRIME_KIND:
        if set(obj) != {"kind", "p"}:
            raise ParseError("prime field takes exactly the kind and p keys")
        p = obj["p"]
        if not isinstance(p, int) or isinstance(p, bool):
            raise ParseError(f"modulus must be an integer, got {p!r}")
        try:
            return prime_field(p)
        except ValueError as exc:
            raise ParseError(str(exc)) from exc
    raise ParseError(f"unknown field kind {kind!r}")


def _field_doc(field: FieldSpec) -> dict:
    if field.kind == RATIONAL_KIND:
        return {"kind": RATIONAL_KIND}
    return {"kind": PRIME_KIND, "p": field.p}


def _parse_dims(doc: dict, declared, cap: int) -> Dict[str, int]:
    raw = doc.get("dims")
    if not isinstance(raw, dict):
        raise ParseError("dims must be an object")
    expected = [key for key, _ in declared]
    if sorted(raw) != sorted(expected):
        raise ParseError(f"dims must name exactly {sorted(expected)}, got {sorted(raw)}")
    dims = {}
    for key, power in declared:
        value = raw[key]
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            raise ParseError(f"dimension {key!r} must be a non-negative integer")
        if value > cap ** power:
            raise DimensionLimitError(
                f"dimension {key}={value} exceeds TRUSSLAB_MAX_DIM"
                f"{'**2' if power == 2 else ''} = {cap ** power}")
        dims[key] = value
    return dims


def _parse_matrix(field: FieldSpec, name: str, raw, cod: int, dom: int) -> LinMap:
    if not isinstance(raw, list) or len(raw) != cod:
        raise ParseError(f"map {name!r} must have {cod} rows")
    entries = {}
    for i, row in enumerate(raw):
        if not isinstance(row, list) or len(row) != dom:
            raise ParseError(f"map {name!r} row {i} must have {dom} entries")
        for j, cell in enumerate(row):
            try:
                value = field.parse(cell)
            except ParseError as exc:
                raise ParseError(f"map {name!r} entry [{i}][{j}]: {exc}") from exc
            if not field.is_zero(value):
                entries[(i, j)] = value
    return LinMap(field, cod, dom, entries)


def _matrix_doc(m: LinMap) -> list:
    fmt = m.field.fmt
    return [[fmt(v) for v in row] for row in m.rows()]


def _parse_table(name: str, raw, nrows: int, size: int) -> tuple:
    if not isinstance(raw, list) or len(raw) != nrows:
        raise ParseError(f"table {name!r} must have {nrows} rows")
    out = []
    for i, row in enumerate(raw):
        if not isinstance(row, list) or len(row) != size:
            raise ParseError(f"table {name!r} row {i} must have {size} entries")
        for j, cell in enumerate(row):
            if not isinstance(cell, int) or isinstance(cell, bool):
                raise ParseError(f"table {name!r} entry [{i}][{j}] must be an integer")
            if not 0 <= cell < size:
                raise ParseError(
                    f"table {name!r} entry [{i}][{j}] = {cell} out of range")
        out.append(tuple(row))
    return tuple(out)


def parse_document(doc, kind: str | None = None):
    """Structure object from a parsed JSON document.

    `kind` overrides (or supplies, if absent) the document's own tag.
    Raises ParseError on any malformed content and DimensionLimitError
    when a declared dimension exceeds the cap.
    """
    if not isinstance(doc, dict):
        raise ParseError("document must be a JSON object")
    extra = set(doc) - _TOP_KEYS
    if extra:
        raise ParseError(f"unknown document keys {sorted(extra)}")
    kind = kind if kind is not None else doc.get("kind")
    if kind not in KINDS:
        raise ParseError(f"unknown kind {kind!r}")
    return REGISTRY[kind].parse(doc, max_dim())


def document_of(obj) -> dict:
    """Plain JSON-ready document for a structure object."""
    return REGISTRY[kind_of(obj)].document(obj)


def json_text(value) -> str:
    """Canonical JSON text: sorted keys, two-space indent, one trailing
    newline.  Equal values give byte-identical text.

    The text is that of json.dumps(value, sort_keys=True, indent=2) plus
    the newline.  json.dumps runs its pure-Python encoder whenever an
    indent is set, so this writes the text itself: a list of plain ints
    or of strings in one join, and strings through json's C encoder.
    """
    out = []
    _write_json(value, "\n", out)
    out.append("\n")
    return "".join(out)


def _write_json(value, newline: str, out: list) -> None:
    """Append the text of value to out; newline starts a line at its depth."""
    kind = type(value)
    if kind is str:
        out.append(_encode_str(value))
    elif kind is int:
        out.append(int.__repr__(value))
    elif kind is dict and all(type(key) is str for key in value):
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key in sorted(value):
            out.append(f"{sep}{_encode_str(key)}: ")
            _write_json(value[key], inner, out)
            sep = "," + inner
        out.append(newline + "}")
    elif kind is list or kind is tuple:
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        kinds = set(map(type, value))
        if kinds == {int} or kinds == {str}:
            items = map(int.__repr__ if kinds == {int} else _encode_str, value)
            out.append(f"[{inner}{(',' + inner).join(items)}{newline}]")
            return
        sep = "[" + inner
        for item in value:
            out.append(sep)
            _write_json(item, inner, out)
            sep = "," + inner
        out.append(newline + "]")
    else:
        # None, bools, floats, subclasses and dicts with other keys: json's
        # own text, indented to this depth (JSON strings hold no raw newline).
        out.append(json.dumps(value, sort_keys=True, indent=2).replace("\n", newline))


def serialize(obj) -> str:
    """The canonical text of the document of obj."""
    return json_text(document_of(obj))


def read_json(text: str):
    """The JSON value in `text`; ParseError if it is not valid JSON."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # also too long an integer, too deep nesting
        raise ParseError(f"not valid JSON: {exc}") from exc


def loads(text: str, kind: str | None = None):
    return parse_document(read_json(text), kind)


def load(path, kind: str | None = None):
    """Parse the document at `path`; `kind` overrides its tag."""
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    return loads(text, kind)


def save(path, obj) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(serialize(obj))
