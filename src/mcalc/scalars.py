"""Exact scalar arithmetic over Q, prime fields F_p, and rational functions F_p(t).

A coefficient is a raw value, and this is the one module that knows its
format: a reduced Fraction over Q, a residue in [0, p) over F_p, and over
F_p(t) a reduced fraction of univariate polynomials with a monic
denominator. Every value has one canonical representation, so == and hash
are structural. Other modules compute on values through a field's
`FieldSpec.raw` table, build them with `from_int` and `t`, and print them
with `to_str`.
"""

from __future__ import annotations

import math
import operator
from collections import namedtuple
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property

from .errors import BadCharacteristic, CoefficientTooLarge, DivisionByZero, FieldMismatch


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


class RawArithmetic(namedtuple("RawArithmetic", "zero one is_zero sub mul div "
                                                 "divisor quotient cofactors primitive")):
    """A coefficient ring's constants and operations on raw values.

    A field's table takes and returns raw values in their canonical form, so
    equal elements give equal results, and its div (with divisor, which
    calls it) raises DivisionByZero on a zero divisor; the integer table
    only ever divides by nonzero leads. There is no negation or addition:
    -a is sub(zero, a) and a + b is sub(a, sub(zero, b)). The four last
    entries serve the division kernel, which runs unchanged over a field and
    over the integers:

    * ``divisor(a)`` is what the kernel keeps of a lead coefficient a, once
      per reducer: 1/a over a field, a itself over the integers;
    * ``quotient(c, d, scale)`` is the q for which c - q * a cancels, d
      being ``divisor(a)``: c * d over a field, one call that ignores
      scale. Over the integers it pseudo-divides: with g = gcd(c, a) taken
      with the sign of a it returns c/g, after calling ``scale(a/g)`` when
      that positive integer is not 1, so that the caller multiplies what it
      divides by it;
    * ``cofactors(da, db)`` is (ka, kb) with ka * a == kb * b, from the
      divisors of a and b: (1/a, 1/b) over a field, (b/g, a/g) over the
      integers, g taken with the sign of b;
    * ``primitive(v)`` returns the raw vector v as the table's own vector:
      v itself over a field, over the integers v with its denominators
      cleared and its content divided out.
    """

    __slots__ = ()


def _field_arithmetic(zero, one, is_zero, sub, mul, div, quotient) -> RawArithmetic:
    """A field's table; quotient(c, d, scale) must be mul(c, d), passed in
    whole so the division kernel makes one call per step."""
    # monic leads, those of every reduced basis, need no inversion
    return RawArithmetic(zero, one, is_zero, sub, mul, div,
                         lambda a: a if a == one else div(one, a), quotient,
                         lambda da, db: (da, db), lambda v: v)


def _int_quotient(c, a, scale):
    g = math.gcd(c, a)
    if a < 0:
        g = -g
    if a != g:
        scale(a // g)
    return c // g


def _int_cofactors(a, b):
    g = math.gcd(a, b)
    if b < 0:
        g = -g
    return b // g, a // g


_numerator = operator.attrgetter("numerator")
_denominator = operator.attrgetter("denominator")


def _int_primitive(v):
    den = math.lcm(*map(_denominator, v.values()))
    if den == 1:
        nums = list(map(_numerator, v.values()))
    else:
        nums = [c.numerator * (den // c.denominator) for c in v.values()]
    g = math.gcd(*nums)
    if g > 1:
        nums = [c // g for c in nums]
    return dict(zip(v, nums))


# Integer coefficients for fraction-free division over Q. div leaves the
# integers: it is the exact quotient in Q (int / int would be a float).
_INTEGER_ARITHMETIC = RawArithmetic(0, 1, operator.not_, operator.sub, operator.mul, Fraction,
                                    lambda a: a, _int_quotient, _int_cofactors, _int_primitive)


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

    return _field_arithmetic(((), (1,)), ((1,), (1,)), lambda a: not a[0], sub, mul, div,
                             lambda c, d, _: mul(c, d))


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

    def from_int(self, n: int):
        """The raw value of the integer n."""
        if self.kind is FieldKind.RATIONALS:
            return Fraction(n)
        if self.kind is FieldKind.PRIME_FIELD:
            return n % self.characteristic
        r = n % self.characteristic
        return (r,) if r else (), (1,)

    def t(self):
        """The raw value of the transcendental t of F_p(t)."""
        if self.kind is not FieldKind.RATIONAL_FUNCTIONS:
            raise FieldMismatch("t is only an element of F_p(t)")
        return (0, 1), (1,)

    def to_str(self, c) -> str:
        """Canonical text of the raw value c: "-1/2" over Q, a residue in
        [0, p) over F_p, "t^3+1" or "(3)/(t)" over F_p(t); CoefficientTooLarge
        for a rational with more digits than Python prints."""
        if self.kind is not FieldKind.RATIONAL_FUNCTIONS:
            try:
                return str(c)
            except ValueError:
                raise CoefficientTooLarge("a coefficient has too many digits to print") from None
        num, den = c
        if den == (1,):
            return _pt_str(num)
        return f"({_pt_str(num)})/({_pt_str(den)})"

    @cached_property
    def raw(self) -> RawArithmetic:
        """Arithmetic on raw values: Fraction for Q, int residues for F_p,
        (numerator, denominator) coefficient tuples for F_p(t)."""
        if self.kind is FieldKind.RATIONALS:
            def q_div(a, b):
                if not b:
                    raise DivisionByZero("division by zero in Q")
                return a / b
            return _field_arithmetic(Fraction(0), Fraction(1), operator.not_, operator.sub,
                                     operator.mul, q_div, lambda c, d, _: c * d)
        p = self.characteristic
        if self.kind is FieldKind.PRIME_FIELD:
            def fp_div(a, b):
                if not b:
                    raise DivisionByZero(f"division by zero in F{p}")
                return a * pow(b, p - 2, p) % p
            return _field_arithmetic(0, 1, operator.not_, lambda a, b: (a - b) % p,
                                     lambda a, b: a * b % p, fp_div,
                                     lambda c, d, _: c * d % p)
        return _rational_function_arithmetic(p)

    @cached_property
    def fraction_free(self) -> RawArithmetic:
        """The table untracked Groebner bases are computed in: over Q the
        integers, on primitive vectors (see `RawArithmetic`), since integer
        arithmetic is cheaper than Fraction arithmetic; otherwise `raw`."""
        return _INTEGER_ARITHMETIC if self.kind is FieldKind.RATIONALS else self.raw

    def __str__(self):
        if self.kind is FieldKind.RATIONALS:
            return "Q"
        if self.kind is FieldKind.PRIME_FIELD:
            return f"F{self.characteristic}"
        return f"F{self.characteristic}(t)"
