"""The frozen-record contract, checked on every record class of the package."""

import copy
import pickle

import pytest

from trusslab import algfile
from trusslab.cocycle import cocycle_of_truss
from trusslab.fields import RATIONALS, FieldSpec, prime_field
from trusslab.hopfmodules import coinvariants, induction_functor
from trusslab.linmap import LinMap, identity
from trusslab.modules import functor_G_H, regular_truss_module
from trusslab.record import Record
from trusslab.report import CheckResult, VerificationReport
from trusslab.settruss import (
    FiniteSemigroup,
    SetMorphism,
    cyclic_group,
    left_projection_truss,
    linearize,
    trivial_truss,
)


def _bumped(m: LinMap) -> LinMap:
    """m with 1 added at (0, 0): the same shape and field, another map."""
    return m + LinMap(m.field, m.cod, m.dom, {(0, 0): 1})


def _examples():
    """(instance, field, other value) for every record class: a small valid
    instance and a value of one of its fields that keeps it valid."""
    h = linearize(trivial_truss(cyclic_group(2)), RATIONALS)
    hm = induction_functor(h, 1)
    structures = [h.comonoid, h.hopf_part().monoid(), h.second_part(), h.hopf_part(), h,
                  cocycle_of_truss(h), regular_truss_module(h), functor_G_H(regular_truss_module(h)),
                  hm.hopf_module().comodule(), hm.hopf_module(), hm]
    examples = [(s, s.FIELDS[-1], _bumped(getattr(s, s.FIELDS[-1]))) for s in structures]
    one = identity(RATIONALS, 1)
    examples += [
        (prime_field(5), "p", 7),
        (CheckResult("law", "a = b", True), "passed", False),
        (VerificationReport("report"), "checks", (CheckResult("law", "a = b", True),)),
        (VerificationReport("report", (CheckResult("law", "a = b", False, one),)), "subject", "other"),
        (cyclic_group(2), "unit", 1),
        (FiniteSemigroup(((0, 0), (0, 0))), "table", ((0, 1), (0, 1))),
        (trivial_truss(cyclic_group(2)), "semigroup", left_projection_truss(cyclic_group(2)).semigroup),
        (SetMorphism(2, 2, (1, 0)), "mapping", (0, 0)),
        (coinvariants(hm.hopf_module()), "idempotent", identity(RATIONALS, 2)),
        (algfile.REGISTRY["hopf"], "name", "hopf2"),
        (algfile.REGISTRY["settruss"], "name", "settruss2"),
    ]
    return examples


def _record_classes(base=Record):
    for cls in base.__subclasses__():
        if cls.__module__.startswith("trusslab."):
            yield cls
        yield from _record_classes(cls)


EXAMPLES = _examples()
# Each example is named by its class; a class sampled again also by the field it changes.
NAMES = [type(x).__name__ for x, _, _ in EXAMPLES]
IDS = [n if NAMES.index(n) == k else f"{n}.{EXAMPLES[k][1]}" for k, n in enumerate(NAMES)]


def test_every_record_class_has_an_example():
    abstract = {"Structure"}
    assert {type(x).__name__ for x, _, _ in EXAMPLES} == {
        cls.__name__ for cls in _record_classes()} - abstract


@pytest.mark.parametrize("x,name,other", EXAMPLES, ids=IDS)
def test_record_contract(x, name, other):
    cls = type(x)
    fields = cls.FIELDS
    values = tuple(getattr(x, f) for f in fields)

    # equality and hash follow the field tuple
    twin = cls(*values)
    assert twin == x and hash(twin) == hash(x) and not twin != x
    changed = cls(**{**dict(zip(fields, values)), name: other})
    assert changed != x and getattr(changed, name) == other

    # another record class with the same fields and values is never equal
    sibling = type(cls.__name__, (cls,), {})(*values)
    assert sibling != x and x != sibling

    # frozen
    for f in fields + ("extra",):
        with pytest.raises(AttributeError):
            setattr(x, f, None)
        with pytest.raises(AttributeError):
            delattr(x, f)
    assert tuple(getattr(x, f) for f in fields) == values

    # positional and keyword construction agree; defaults fill what is left out
    defaults = {f: getattr(cls, f) for f in fields if hasattr(cls, f)}
    given = {f: v for f, v in zip(fields, values) if f not in defaults or v != defaults[f]}
    assert cls(**given) == x
    assert cls(*values[:1], **dict(list(zip(fields, values))[1:])) == x
    # missing, unknown, repeated, surplus
    for args, kwargs in [((), {}), (values, {"extra": None}),
                         (values, {fields[0]: values[0]}), (values + (None,), {})]:
        with pytest.raises(TypeError, match=f"{cls.__name__} takes"):
            cls(*args, **kwargs)

    for copied in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        assert type(copied) is cls and copied == x and hash(copied) == hash(x)

    pairs = ", ".join(f"{f}={v!r}" for f, v in zip(fields, values))
    assert repr(x) == f"{cls.__qualname__}({pairs})"


def test_defaults_and_repr_text():
    assert CheckResult("law", "a = b", True) == CheckResult("law", "a = b", True, None, "")
    assert VerificationReport("s").checks == ()
    assert FieldSpec("Q") is not RATIONALS and FieldSpec("Q") == RATIONALS
    assert repr(RATIONALS) == "FieldSpec(kind='Q', p=None)"
    assert repr(SetMorphism(2, 2, [1, 0])) == "SetMorphism(src_size=2, dst_size=2, mapping=(1, 0))"
    assert repr(CheckResult("law", "a = b", True)) == (
        "CheckResult(name='law', anchor='a = b', passed=True, residual=None, detail='')")
