"""Exact scalar arithmetic over Q, prime fields F_p, and rational functions F_p(t).

Every value has one canonical representation, so == and hash are structural:
fractions are reduced, F_p residues live in [0, p), and F_p(t) elements are
reduced fractions of univariate polynomials with a monic denominator.
"""

from __future__ import annotations

import operator
from collections import namedtuple
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property

from .errors import BadCharacteristic, DivisionByZero, FieldMismatch


class FieldKind(Enum):
    RATIONALS = "RATIONALS"
    PRIME_FIELD = "PRIME_FIELD"
    RATIONAL_FUNCTIONS = "RATIONAL_FUNCTIONS"


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


# ---------------------------------------------------------------------------
# univariate polynomials over F_p: tuples of residues, lowest degree first,
# no trailing zeros (the zero polynomial is the empty tuple)

def _pt_trim(cs):
    i = len(cs)
    while i > 0 and cs[i - 1] == 0:
        i -= 1
    return tuple(cs[:i])


def _pt_add(a, b, p):
    m = max(len(a), len(b))
    return _pt_trim(tuple(((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)) % p
                          for i in range(m)))


def _pt_neg(a, p):
    return tuple((-c) % p for c in a)


def _pt_sub(a, b, p):
    return _pt_add(a, _pt_neg(b, p), p)


def _pt_mul(a, b, p):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] = (out[i + j] + ca * cb) % p
    return _pt_trim(tuple(out))


def _pt_divmod(a, b, p):
    # b must be nonzero
    inv_lead = pow(b[-1], p - 2, p)
    rem = list(a)
    q = [0] * max(len(a) - len(b) + 1, 0)
    while len(rem) >= len(b):
        rem_trimmed = _pt_trim(tuple(rem))
        if len(rem_trimmed) < len(b):
            break
        rem = list(rem_trimmed)
        shift = len(rem) - len(b)
        c = (rem[-1] * inv_lead) % p
        q[shift] = c
        for i, cb in enumerate(b):
            rem[shift + i] = (rem[shift + i] - c * cb) % p
    return _pt_trim(tuple(q)), _pt_trim(tuple(rem))


def _pt_gcd(a, b, p):
    while b:
        a, b = b, _pt_divmod(a, b, p)[1]
    if a:
        inv = pow(a[-1], p - 2, p)
        a = tuple((c * inv) % p for c in a)
    return a


def _pt_str(cs) -> str:
    if not cs:
        return "0"
    parts = []
    for e in range(len(cs) - 1, -1, -1):
        c = cs[e]
        if c == 0:
            continue
        if e == 0:
            parts.append(str(c))
        elif e == 1:
            parts.append("t" if c == 1 else f"{c}*t")
        else:
            parts.append(f"t^{e}" if c == 1 else f"{c}*t^{e}")
    return "+".join(parts)


def _ffrac_normalize(num, den, p):
    if not _pt_trim(den):
        raise DivisionByZero("zero denominator in F_p(t)")
    num = _pt_trim(num)
    den = _pt_trim(den)
    if not num:
        return (), (1,)
    g = _pt_gcd(num, den, p)
    if len(g) > 1 or g != (1,):
        num = _pt_divmod(num, g, p)[0]
        den = _pt_divmod(den, g, p)[0]
    # monic denominator
    lead = den[-1]
    if lead != 1:
        inv = pow(lead, p - 2, p)
        num = tuple((c * inv) % p for c in num)
        den = tuple((c * inv) % p for c in den)
    return num, den


class RawArithmetic(namedtuple("RawArithmetic", "zero one is_zero sub mul div")):
    """A field's constants and operations on raw ``Scalar.value`` payloads.

    Results are in the canonical form Scalar keeps, so each equals the value
    of the matching Scalar operator; Scalar delegates to these, and inner
    loops call them directly to skip the Scalar wrapper.
    """

    __slots__ = ()


def _rational_function_arithmetic(p: int) -> RawArithmetic:
    def sub(a, b):
        (an, ad), (bn, bd) = a, b
        return _ffrac_normalize(_pt_sub(_pt_mul(an, bd, p), _pt_mul(bn, ad, p), p),
                                _pt_mul(ad, bd, p), p)

    def mul(a, b):
        (an, ad), (bn, bd) = a, b
        return _ffrac_normalize(_pt_mul(an, bn, p), _pt_mul(ad, bd, p), p)

    def div(a, b):
        (an, ad), (bn, bd) = a, b
        return _ffrac_normalize(_pt_mul(an, bd, p), _pt_mul(ad, bn, p), p)

    return RawArithmetic(((), (1,)), ((1,), (1,)), lambda a: not a[0], sub, mul, div)


@dataclass(frozen=True)
class FieldSpec:
    """A coefficient field: Q, F_p, or F_p(t)."""

    kind: FieldKind
    characteristic: int = 0

    def __post_init__(self):
        if self.kind is FieldKind.RATIONALS:
            if self.characteristic != 0:
                raise BadCharacteristic("the rationals have characteristic 0")
        else:
            if not _is_prime(self.characteristic):
                raise BadCharacteristic(f"characteristic {self.characteristic} is not prime")

    @classmethod
    def rationals(cls) -> "FieldSpec":
        return cls(FieldKind.RATIONALS, 0)

    @classmethod
    def prime_field(cls, p: int) -> "FieldSpec":
        return cls(FieldKind.PRIME_FIELD, p)

    @classmethod
    def rational_functions(cls, p: int) -> "FieldSpec":
        return cls(FieldKind.RATIONAL_FUNCTIONS, p)

    # -- element constructors ------------------------------------------------

    def from_int(self, n: int) -> "Scalar":
        if self.kind is FieldKind.RATIONALS:
            return Scalar(self, Fraction(n))
        if self.kind is FieldKind.PRIME_FIELD:
            return Scalar(self, n % self.characteristic)
        r = n % self.characteristic
        return Scalar(self, ((r,) if r else (), (1,)))

    def t(self) -> "Scalar":
        if self.kind is not FieldKind.RATIONAL_FUNCTIONS:
            raise FieldMismatch("t is only an element of F_p(t)")
        return Scalar(self, ((0, 1), (1,)))

    @property
    def zero(self) -> "Scalar":
        return self.from_int(0)

    @cached_property
    def raw(self) -> RawArithmetic:
        """Arithmetic on raw values: Fraction for Q, int residues for F_p,
        (numerator, denominator) coefficient tuples for F_p(t)."""
        if self.kind is FieldKind.RATIONALS:
            return RawArithmetic(Fraction(0), Fraction(1), operator.not_, operator.sub,
                                 operator.mul, operator.truediv)
        p = self.characteristic
        if self.kind is FieldKind.PRIME_FIELD:
            return RawArithmetic(0, 1, operator.not_, lambda a, b: (a - b) % p,
                                 lambda a, b: a * b % p,
                                 lambda a, b: a * pow(b, p - 2, p) % p)
        return _rational_function_arithmetic(p)

    @property
    def one(self) -> "Scalar":
        return self.from_int(1)

    def __str__(self):
        if self.kind is FieldKind.RATIONALS:
            return "Q"
        if self.kind is FieldKind.PRIME_FIELD:
            return f"F{self.characteristic}"
        return f"F{self.characteristic}(t)"


def power_by_squaring(one, base, e: int):
    """base**e for e >= 0 with O(log e) multiplications, starting from one."""
    out = one
    while e:
        if e & 1:
            out = out * base
        e >>= 1
        if e:
            base = base * base
    return out


class Scalar:
    """An element of a FieldSpec, in canonical form."""

    __slots__ = ("field", "value")

    def __init__(self, field: FieldSpec, value):
        self.field = field
        self.value = value

    def _coerce(self, other):
        if isinstance(other, Scalar):
            if other.field != self.field:
                raise FieldMismatch(f"cannot mix {self.field} and {other.field}")
            return other
        if isinstance(other, int):
            return self.field.from_int(other)
        return NotImplemented

    def is_zero(self) -> bool:
        return self.field.raw.is_zero(self.value)

    def __bool__(self):
        return not self.is_zero()

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        ops = self.field.raw
        return Scalar(self.field, ops.sub(self.value, ops.sub(ops.zero, other.value)))

    __radd__ = __add__

    def __neg__(self):
        ops = self.field.raw
        return Scalar(self.field, ops.sub(ops.zero, self.value))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Scalar(self.field, self.field.raw.sub(self.value, other.value))

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Scalar(self.field, self.field.raw.mul(self.value, other.value))

    __rmul__ = __mul__

    def inverse(self) -> "Scalar":
        if self.is_zero():
            raise DivisionByZero("cannot invert zero")
        ops = self.field.raw
        return Scalar(self.field, ops.div(ops.one, self.value))

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero():
            raise DivisionByZero("division by zero")
        return Scalar(self.field, self.field.raw.div(self.value, other.value))

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        return power_by_squaring(self.field.one, self, e)

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.field.from_int(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.field == other.field and self.value == other.value

    def __hash__(self):
        # __eq__ also compares fields; equal scalars have equal values
        return hash(self.value)

    def __str__(self):
        k = self.field.kind
        if k is FieldKind.RATIONALS or k is FieldKind.PRIME_FIELD:
            return str(self.value)
        num, den = self.value
        if den == (1,):
            return _pt_str(num)
        return f"({_pt_str(num)})/({_pt_str(den)})"

    def __repr__(self):
        return f"Scalar({self.field}, {self})"

