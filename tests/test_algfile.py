"""Document format: round-trips, canonical text, and malformed input."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cyclic_truss, sample_objects

from trusslab import algfile, cli
from trusslab.coalgebra import ComonoidData, MonoidData
from trusslab.errors import DimensionLimitError, DimensionMismatchError, ParseError
from trusslab.fields import RATIONALS, prime_field
from trusslab.linmap import LinMap
from trusslab.settruss import cyclic_group, trivial_truss, verify_skew_truss

F5 = prime_field(5)
SAMPLES = dict(sample_objects())


def _kind_choices(command):
    parser = cli._build_parser()._subparsers._group_actions[0].choices[command]
    return next(action.choices for action in parser._actions if action.dest == "kind")


@pytest.mark.parametrize("kind", algfile.KINDS)
def test_round_trip_every_kind(kind):
    assert sorted(SAMPLES) == sorted(algfile.KINDS)
    assert tuple(_kind_choices("verify")) == tuple(_kind_choices("pipeline")) == algfile.KINDS
    obj = SAMPLES[kind]
    text = algfile.serialize(obj)
    back = algfile.loads(text)
    assert algfile.kind_of(back) == kind
    assert back == obj
    assert algfile.serialize(back) == text
    assert algfile.verify_structure(obj).ok
    if kind == "settruss":
        return  # stored as tables, not maps
    # constructors check every map against the shapes the parser reads
    row = algfile.REGISTRY[kind]
    maps = row.maps_of(obj)
    assert sorted(maps) == sorted(algfile.document_of(obj)["maps"])
    assert row.type.build(obj.dims, maps) == obj
    for name, m in maps.items():
        grown = LinMap(m.field, m.cod + 1, m.dom, dict(m.items()))
        with pytest.raises(DimensionMismatchError):
            row.type.build(obj.dims, {**maps, name: grown})


def test_serialize_is_canonical():
    h = cyclic_truss(RATIONALS, 3)
    text = algfile.serialize(h)
    assert text == algfile.serialize(h)
    assert text.endswith("\n")
    assert "∘" not in text  # plain ASCII scalar strings


def test_fraction_scalars_round_trip():
    halving = MonoidData(
        1,
        LinMap(RATIONALS, 1, 1, {(0, 0): Fraction(2)}),
        LinMap(RATIONALS, 1, 1, {(0, 0): Fraction(1, 2)}))
    text = algfile.serialize(halving)
    assert '"1/2"' in text
    assert algfile.loads(text) == halving


def test_save_and_load(tmp_path):
    h = cyclic_truss(F5, 3)
    path = tmp_path / "h.json"
    algfile.save(path, h)
    assert algfile.load(path) == h


def test_zero_dimensional_carrier_round_trips():
    empty = ComonoidData(0, LinMap(RATIONALS, 0, 0, {}), LinMap(RATIONALS, 1, 0, {}))
    assert algfile.loads(algfile.serialize(empty)) == empty


def test_kind_override_supplies_missing_tag():
    h = cyclic_truss(RATIONALS, 2)
    doc = algfile.document_of(h)
    del doc["kind"]
    with pytest.raises(ParseError):
        algfile.parse_document(doc)
    assert algfile.parse_document(doc, kind="hopftruss") == h


def test_kind_override_against_wrong_schema():
    doc = algfile.document_of(cyclic_truss(RATIONALS, 2))
    with pytest.raises(ParseError):
        algfile.parse_document(doc, kind="hopf")


def test_kind_of_rejects_foreign_types():
    with pytest.raises(TypeError):
        algfile.kind_of(42)


@pytest.mark.parametrize("mangle,message", [
    (lambda d: [], "JSON object"),
    (lambda d: {**d, "kind": "torsor"}, "unknown kind"),
    (lambda d: {**d, "extra": 1}, "unknown document keys"),
    (lambda d: {k: v for k, v in d.items() if k != "field"}, "missing field"),
    (lambda d: {**d, "field": "Q"}, "field must be an object"),
    (lambda d: {**d, "field": {"kind": "R"}}, "unknown field kind"),
    (lambda d: {**d, "field": {"kind": "Fp", "p": 4}}, "not prime"),
    (lambda d: {**d, "field": {"kind": "Fp", "p": "5"}}, "must be an integer"),
    (lambda d: {**d, "field": {"kind": "Q", "p": 3}}, "only the kind key"),
    (lambda d: {**d, "dims": {"dim": 2, "extra": 1}}, "dims must name exactly"),
    (lambda d: {**d, "dims": {"dim": -1}}, "non-negative"),
    (lambda d: {**d, "dims": {"dim": "2"}}, "non-negative"),
    (lambda d: {**d, "maps": []}, "maps must be an object"),
    (lambda d: {**d, "tables": {}}, "maps, not tables"),
], ids=["not-object", "bad-kind", "extra-key", "no-field", "field-string",
        "field-kind", "composite-modulus", "modulus-string", "rational-modulus",
        "extra-dim", "negative-dim", "string-dim", "maps-list", "tables-on-maps"])
def test_rejects_malformed_documents(mangle, message):
    doc = algfile.document_of(cyclic_truss(RATIONALS, 2))
    with pytest.raises(ParseError, match=message):
        algfile.parse_document(mangle(doc))


def test_rejects_missing_and_surplus_maps():
    doc = algfile.document_of(cyclic_truss(RATIONALS, 2))
    short = dict(doc)
    short["maps"] = {k: v for k, v in doc["maps"].items() if k != "cocycle"}
    with pytest.raises(ParseError, match="missing maps \\['cocycle'\\]"):
        algfile.parse_document(short)
    fat = dict(doc)
    fat["maps"] = {**doc["maps"], "extra": [["1"]]}
    with pytest.raises(ParseError, match="unexpected maps \\['extra'\\]"):
        algfile.parse_document(fat)


@pytest.mark.parametrize("rows,message", [
    ([["1", "0"], ["0", "1"], ["0", "0"]], "must have 2 rows"),
    ([["1", "0", "0"], ["0", "1"]], "row 0 must have 2 entries"),
    ([["1", "x"], ["0", "1"]], r"entry \[0\]\[1\]"),
    ([["1", "1/0"], ["0", "1"]], r"entry \[0\]\[1\]"),
    ([["1", 0], ["0", "1"]], "must be a string"),
    ([["1", "0.5"], ["0", "1"]], r"entry \[0\]\[1\]: bad rational scalar"),
    ([["1", "1e3"], ["0", "1"]], r"entry \[0\]\[1\]: bad rational scalar"),
    ([["1", "1_000"], ["0", "1"]], r"entry \[0\]\[1\]: bad rational scalar"),
    ([["1", "\u0663"], ["0", "1"]], r"entry \[0\]\[1\]: bad rational scalar"),
], ids=["row-count", "column-count", "junk-scalar", "zero-denominator", "bare-int",
        "decimal-point", "exponent", "digit-separator", "non-ascii-digit"])
def test_rejects_malformed_matrices(rows, message):
    doc = algfile.document_of(cyclic_truss(RATIONALS, 2))
    doc["maps"]["cocycle"] = rows
    with pytest.raises(ParseError, match=message):
        algfile.parse_document(doc)


def test_prime_field_scalars_must_be_reduced_residues():
    # "1_0" reads as 10 and "\u0663" (Arabic-Indic three) as 3 through int()
    for p, bad in ((5, "7"), (5, "-1"), (5, "1/2"), (5, "\u0663"), (11, "1_0")):
        doc = algfile.document_of(cyclic_truss(prime_field(p), 2))
        doc["maps"]["cocycle"] = [[bad, "0"], ["0", "1"]]
        with pytest.raises(ParseError):
            algfile.parse_document(doc)
    # surrounding whitespace and a plus sign are still read
    doc["maps"]["cocycle"] = [[" 1 ", "0"], ["0", "+1"]]
    assert algfile.parse_document(doc) == cyclic_truss(prime_field(11), 2)


def test_settruss_document_shape_errors():
    doc = algfile.document_of(trivial_truss(cyclic_group(2)))
    for mangle, message in [
        (lambda d: {**d, "dims": {"size": 0}}, "positive integer"),
        (lambda d: {**d, "maps": {}}, "tables, not maps"),
        (lambda d: {**d, "tables": {"group": d["tables"]["group"]}},
         "tables must name exactly"),
        (lambda d: {**d, "tables": {**d["tables"], "group": [[0, 2], [1, 0]]}},
         "out of range"),
        (lambda d: {**d, "tables": {**d["tables"], "group": [[0, "1"], [1, 0]]}},
         "must be an integer"),
        (lambda d: {**d, "tables": {**d["tables"], "cocycle": [[0, 1], [1, 0]]}},
         "must have 1 rows"),
    ]:
        with pytest.raises(ParseError, match=message):
            algfile.parse_document(mangle(doc))


def test_settruss_tolerates_field_key():
    doc = algfile.document_of(trivial_truss(cyclic_group(2)))
    doc["field"] = {"kind": "Fp", "p": 5}
    assert algfile.parse_document(doc) == trivial_truss(cyclic_group(2))


def test_settruss_with_broken_group_parses_but_fails_verification():
    doc = algfile.document_of(trivial_truss(cyclic_group(2)))
    doc["tables"]["group"] = [[0, 0], [0, 0]]
    truss = algfile.parse_document(doc)
    rep = verify_skew_truss(truss)
    assert not rep.ok
    assert not rep.named("group.unit").passed


def test_dimension_cap_applies_at_parse_time(monkeypatch):
    doc = algfile.document_of(cyclic_truss(RATIONALS, 3))
    monkeypatch.setenv("TRUSSLAB_MAX_DIM", "2")
    with pytest.raises(DimensionLimitError):
        algfile.parse_document(doc)
    monkeypatch.setenv("TRUSSLAB_MAX_DIM", "3")
    assert algfile.parse_document(doc) == cyclic_truss(RATIONALS, 3)


# Every map kind's dims with their cap power, as the parser has always
# capped them: a module carrier may be a product of two capped dims.
DIM_CAPS = {
    "comonoid": (("dim", 1),),
    "monoid": (("dim", 1),),
    "bimonoid": (("dim", 1),),
    "hopf": (("dim", 1),),
    "hopftruss": (("dim", 1),),
    "gic": (("source", 1), ("target", 1)),
    "trussmodule": (("dim", 1), ("carrier", 2)),
    "pimodule": (("source", 1), ("target", 1), ("carrier", 2), ("second", 2)),
    "hopfmodule": (("dim", 1), ("carrier", 2)),
    "trusshopfmodule": (("dim", 1), ("carrier", 2)),
}


def zero_document(kind, dims):
    """A document of `kind` over Q with these dims whose maps are all zero."""
    return {"kind": kind, "field": {"kind": "Q"}, "dims": dims,
            "maps": {name: [["0"] * cols for _ in range(rows)]
                     for name, rows, cols in algfile.REGISTRY[kind].slots(dims)}}


@pytest.mark.parametrize("kind", DIM_CAPS)
def test_carrier_dimension_gets_the_squared_cap(monkeypatch, kind):
    assert algfile.REGISTRY[kind].dims == DIM_CAPS[kind]
    monkeypatch.setenv("TRUSSLAB_MAX_DIM", "2")
    for key, power in DIM_CAPS[kind]:
        dims = {name: 1 for name, _ in DIM_CAPS[kind]}
        dims[key] = 2 ** power
        doc = zero_document(kind, dims)
        assert algfile.parse_document(doc).dims == dims
        doc["dims"][key] += 1
        with pytest.raises(DimensionLimitError, match=f"dimension {key}="):
            algfile.parse_document(doc)


@settings(deadline=None, max_examples=25)
@given(data=st.data())
@pytest.mark.parametrize("field", [RATIONALS, F5], ids=str)
@pytest.mark.parametrize("kind", DIM_CAPS)
def test_every_kind_round_trips_random_maps(kind, field, data):
    # The constructors take any maps of the declared shapes, so random
    # entries suffice; zero dims read carriers off 0 x n maps.
    row = algfile.REGISTRY[kind]
    dims = {name: data.draw(st.integers(0, 3), label=name) for name, _ in row.dims}
    scalar = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3)).map(field.coerce) \
        if field is RATIONALS else st.integers(0, 4)
    maps = {}
    for name, rows, cols in row.slots(dims):
        entries = data.draw(st.dictionaries(st.integers(0, max(rows * cols - 1, 0)), scalar,
                                            max_size=min(rows * cols, 8)), label=name)
        maps[name] = LinMap(field, rows, cols, {divmod(k, cols): v
                                                for k, v in entries.items()})
    obj = row.type.build(dims, maps)
    assert obj.dims == dims
    text = algfile.serialize(obj)
    back = algfile.loads(text)
    assert back == obj and algfile.serialize(back) == text
    for name, m in maps.items():
        grown = LinMap(field, m.cod + 1, m.dom, dict(m.items()))
        with pytest.raises(DimensionMismatchError):
            row.type.build(dims, {**maps, name: grown})


def test_settruss_size_is_capped(monkeypatch):
    doc = algfile.document_of(trivial_truss(cyclic_group(3)))
    monkeypatch.setenv("TRUSSLAB_MAX_DIM", "2")
    with pytest.raises(DimensionLimitError):
        algfile.parse_document(doc)


def test_bad_cap_environment_value(monkeypatch):
    for raw in ("soup", "1_6", "\u0661\u0666", "16.0", "1e1", "0x10", "+ 16", ""):
        monkeypatch.setenv("TRUSSLAB_MAX_DIM", raw)
        with pytest.raises(ParseError, match="TRUSSLAB_MAX_DIM"):
            algfile.parse_document(algfile.document_of(cyclic_truss(RATIONALS, 2)))
    monkeypatch.setenv("TRUSSLAB_MAX_DIM", "0")
    with pytest.raises(ParseError, match="positive"):
        algfile.parse_document(algfile.document_of(cyclic_truss(RATIONALS, 2)))


def test_cap_environment_value_in_ascii_form(monkeypatch):
    # the form of a scalar numerator: optional sign and ASCII digits
    for raw, cap in (("16", 16), (" 3\n", 3), ("+7", 7), ("007", 7)):
        monkeypatch.setenv("TRUSSLAB_MAX_DIM", raw)
        assert algfile.max_dim() == cap


def test_loads_rejects_invalid_json():
    with pytest.raises(ParseError, match="not valid JSON"):
        algfile.loads("{nope")
    with pytest.raises(ParseError, match="not valid JSON"):
        algfile.loads('{"dims": {"dim": ' + "9" * 5000 + "}}")


JSON_SCALARS = (st.none() | st.booleans() | st.integers(-10**20, 10**20)
                | st.text(max_size=6) | st.floats(allow_nan=False))
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(st.integers(), max_size=4)
                   | st.lists(st.text(max_size=4), max_size=4)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=4)),
    max_leaves=30)


@settings(deadline=None, max_examples=300)
@given(value=JSON_VALUES)
def test_json_text_is_the_indented_sorted_dump(value):
    # lists of plain ints or of strings take the joined path, the rest
    # recurses; keys and strings include non-ASCII text and escapes
    assert algfile.json_text(value) == json.dumps(value, sort_keys=True, indent=2) + "\n"


def test_json_text_edge_values():
    values = [{}, [], [[]], {"é": [], "a\n": {}}, [1, True], [True, False], ["x", 1],
              {"b": [1, 2], "a": ["☃", "\x00"]}, (1, 2), {1: "int key"}, 1.5, None]
    for value in values:
        assert algfile.json_text(value) == json.dumps(value, sort_keys=True, indent=2) + "\n"
