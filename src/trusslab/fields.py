"""Exact coefficient fields: the rationals and prime fields.

Scalars are plain values, not wrapper objects.  Over the rationals a
scalar is an `int` when it is integral and a `Fraction` (lowest terms,
positive denominator, denominator above 1) otherwise; every operation
returns that canonical form, so equal scalars have equal types.  Over a
prime field a scalar is an `int` residue in [0, p).  Bools are refused
in both fields.  A FieldSpec supplies the arithmetic so that all
linear-algebra code is field generic.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Union

from .errors import FieldMismatchError, ParseError
from .record import Record

Scalar = Union[Fraction, int]

# The text of an integer: an optional sign and ASCII digits.  A scalar is
# one such numerator, over Q with an optional ASCII-digit denominator.
_INTEGER = "[+-]?[0-9]+"
_SCALAR = re.compile(f"({_INTEGER})(?:/([0-9]+))?")


def ascii_int(text: str) -> int:
    """`text` read as a scalar numerator, or ValueError ("1_6", "16.0", "١٦")."""
    text = text.strip()
    if re.fullmatch(_INTEGER, text) is None:
        raise ValueError(f"not an ASCII integer: {text!r}")
    return int(text)


RATIONAL_KIND = "Q"
PRIME_KIND = "Fp"


def _rational(q: Scalar) -> Scalar:
    """The canonical rational scalar: an integral Fraction becomes its int."""
    if type(q) is Fraction and q.denominator == 1:
        return q.numerator
    return q


# Miller-Rabin to the prime bases up to 41 decides primality exactly below
# PRIME_BOUND, the least strong pseudoprime to all of them; bases up to 37
# alone pass the composite 318665857834031151167461.
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_BOUND = 3_317_044_064_679_887_385_961_981


def _is_prime(n: int) -> bool:
    """Whether n is prime, exactly; ValueError from PRIME_BOUND on."""
    if n >= PRIME_BOUND:
        raise ValueError(f"modulus {n} is not below the primality bound {PRIME_BOUND}")
    if n < 2 or any(n % a == 0 for a in _WITNESSES):
        return n in _WITNESSES
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    # n - 1 = d * 2^s with d odd; n is a strong probable prime to base a
    # when a^d = 1 or a^(d * 2^r) = -1 for some r < s.
    return all(pow(a, d, n) == 1 or any(pow(a, d << r, n) == n - 1 for r in range(s))
               for a in _WITNESSES)


class FieldSpec(Record):
    """Tag for an exact field together with its scalar operations.

    `reduce` maps any exact int or Fraction result of ring arithmetic on
    scalars to its canonical scalar; `reduce_entries` maps a dict's values
    so in one pass and drops zeros.  Both are bound per instance and are
    not record fields, so equality, hash and repr see only kind and p.
    """

    kind: str
    p: int | None = None

    def __post_init__(self) -> None:
        if self.kind == RATIONAL_KIND:
            if self.p is not None:
                raise ValueError("rational field takes no modulus")
            reduce = _rational
            reduce_entries = lambda entries: {
                k: v if type(v) is int else _rational(v) for k, v in entries.items() if v}
        elif self.kind == PRIME_KIND:
            if self.p is None or not _is_prime(self.p):
                raise ValueError(f"modulus {self.p!r} is not prime")
            p = self.p
            reduce = lambda v: v % p
            reduce_entries = lambda entries: {k: r for k, v in entries.items() if (r := v % p)}
        else:
            raise ValueError(f"unknown field kind {self.kind!r}")
        object.__setattr__(self, "reduce", reduce)
        object.__setattr__(self, "reduce_entries", reduce_entries)

    def __reduce__(self):
        # Rebuild through __post_init__: the bound reducers are not picklable.
        return (FieldSpec, (self.kind, self.p))

    # -- basic constants ------------------------------------------------

    # Both kinds of field share the ints 0 and 1 as canonical constants.
    zero = 0
    one = 1

    # -- arithmetic -----------------------------------------------------

    def coerce(self, value) -> Scalar:
        """Canonical scalar from an int, Fraction, or another residue."""
        if isinstance(value, bool):
            raise TypeError(f"cannot coerce bool {value!r} into {self}")
        if self.kind == RATIONAL_KIND:
            if isinstance(value, int):
                return int(value)
            if isinstance(value, Fraction):
                return _rational(Fraction(value))
            raise TypeError(f"cannot coerce {value!r} into the rationals")
        if isinstance(value, Fraction):
            if value.denominator != 1:
                raise TypeError(f"cannot coerce {value!r} into F_{self.p}")
            value = value.numerator
        if not isinstance(value, int):
            raise TypeError(f"cannot coerce {value!r} into F_{self.p}")
        return value % self.p

    def add(self, a: Scalar, b: Scalar) -> Scalar:
        return self.reduce(a + b)

    def sub(self, a: Scalar, b: Scalar) -> Scalar:
        return self.reduce(a - b)

    def mul(self, a: Scalar, b: Scalar) -> Scalar:
        return self.reduce(a * b)

    def neg(self, a: Scalar) -> Scalar:
        return self.reduce(-a)

    def inv(self, a: Scalar) -> Scalar:
        if self.is_zero(a):
            raise ZeroDivisionError("scalar inverse of zero")
        if self.kind == RATIONAL_KIND:
            # 1 / int is a float: invert through Fraction, exactly.
            return _rational(1 / Fraction(a))
        return pow(a, -1, self.p)

    def div(self, a: Scalar, b: Scalar) -> Scalar:
        return self.mul(a, self.inv(b))

    def is_zero(self, a: Scalar) -> bool:
        return a == 0

    # -- text forms -----------------------------------------------------

    def parse(self, text: str) -> Scalar:
        """Parse the serialized form: "a/b" or "a" over Q, a residue over Fp.

        Only ASCII digits with an optional sign are read, and over Q an
        optional "/" and ASCII-digit denominator; surrounding whitespace
        is stripped.  Other forms that int or Fraction would take ("0.5",
        "1e3", "1_000", non-ASCII digits) are refused.
        """
        if not isinstance(text, str):
            raise ParseError(f"scalar must be a string, got {text!r}")
        text = text.strip()
        form = _SCALAR.fullmatch(text)
        rational = self.kind == RATIONAL_KIND
        try:
            if form is None or not rational and form[2] is not None:
                raise ValueError(text)
            num, den = form.groups()
            value = int(num) if den is None else _rational(Fraction(int(num), int(den)))
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad {'rational' if rational else f'F_{self.p}'} scalar "
                             f"{text!r}") from exc
        if not rational and not 0 <= value < self.p:
            raise ParseError(f"residue {value} out of range for F_{self.p}")
        return value

    def fmt(self, value: Scalar) -> str:
        return str(value)

    def require_same(self, other: "FieldSpec") -> None:
        if self != other:
            raise FieldMismatchError(f"field mismatch: {self} vs {other}")

    def __str__(self) -> str:
        return "Q" if self.kind == RATIONAL_KIND else f"F{self.p}"


RATIONALS = FieldSpec(RATIONAL_KIND)


def prime_field(p: int) -> FieldSpec:
    """The field with p elements, p prime."""
    return FieldSpec(PRIME_KIND, p)
