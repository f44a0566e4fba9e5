"""Exact scalar arithmetic over Q, prime fields F_p, and rational functions F_p(t).

A coefficient is a raw value, and this is the one module that knows its
format: a reduced Fraction over Q, a residue in [0, p) over F_p, and over
F_p(t) a reduced fraction of univariate polynomials with a monic
denominator. Every value has one canonical representation, so == and hash
are structural. Other modules compute on values through a field's
`FieldSpec.raw` table, or its `fraction_free` one, build them with
`from_int` and `t`, and print them with `to_str`; no other module reads a
value's format.
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
# no trailing zeros (the zero polynomial is the empty tuple); every helper
# takes and returns them in that form

def _pt_trim(cs):
    i = len(cs)
    while i > 0 and cs[i - 1] == 0:
        i -= 1
    return tuple(cs[:i])


def _pt_sub(a, b, p):
    la, lb = len(a), len(b)
    out = [(x - y) % p for x, y in zip(a, b)]
    if la != lb:
        # the longer one's top coefficient survives: nothing to trim
        out += a[lb:] if la > lb else [(-y) % p for y in b[la:]]
        return tuple(out)
    return _pt_trim(out)


def _pt_scale(a, c, p):
    """c * a for a nonzero residue c."""
    return a if c == 1 else tuple(x * c % p for x in a)


def _pt_mul(a, b, p):
    if not a or not b:
        return ()
    if len(a) == 1:
        return _pt_scale(b, a[0], p)
    if len(b) == 1:
        return _pt_scale(a, b[0], p)
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b, i):
                out[j] += ca * cb
    # the top coefficient is a product of nonzero residues mod a prime
    return tuple(c % p for c in out)


def _pt_divmod(a, b, p):
    # b must be nonzero
    lb = len(b)
    inv_lead = pow(b[-1], p - 2, p)
    rem = list(a)
    q = [0] * max(len(a) - lb + 1, 0)
    for shift in range(len(q) - 1, -1, -1):
        c = rem[shift + lb - 1] * inv_lead % p
        if c:
            q[shift] = c
            for i, cb in enumerate(b, shift):
                rem[i] = (rem[i] - c * cb) % p
    return tuple(q), _pt_trim(rem[:lb - 1])


def _pt_gcd(a, b, p):
    """The monic gcd; (1,) as soon as a remainder is a nonzero constant."""
    while b:
        if len(b) == 1:
            return (1,)
        a, b = b, _pt_divmod(a, b, p)[1]
    return _pt_scale(a, pow(a[-1], p - 2, p), p) if a else a


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
    if not den:
        raise DivisionByZero("zero denominator in F_p(t)")
    if not num:
        return (), (1,)
    g = _pt_gcd(num, den, p)
    if g != (1,):
        num = _pt_divmod(num, g, p)[0]
        den = _pt_divmod(den, g, p)[0]
    # monic denominator
    lead = den[-1]
    if lead != 1:
        inv = pow(lead, p - 2, p)
        num = _pt_scale(num, inv, p)
        den = _pt_scale(den, inv, p)
    return num, den


class RawArithmetic(namedtuple("RawArithmetic", "zero one is_zero sub mul div "
                                                 "divisor quotient cofactors primitive")):
    """A coefficient ring's constants and operations on raw values.

    A field's table takes and returns raw values in their canonical form, so
    equal elements give equal results, and its div (with divisor, which
    calls it) raises DivisionByZero on a zero divisor. A domain's table, the
    integers' for Q or F_p[t]'s for F_p(t) (see `FieldSpec.fraction_free`),
    takes and returns the domain's elements, and only ever divides by
    nonzero leads. There is no negation or addition: -a is sub(zero, a) and
    a + b is sub(a, sub(zero, b)). The four last entries serve the division
    kernel, which runs unchanged over a field and over a domain:

    * ``divisor(a)`` is what the kernel keeps of a lead coefficient a, once
      per reducer: 1/a over a field, a itself over a domain;
    * ``quotient(c, d, scale)`` is the q for which c - q * a cancels, d
      being ``divisor(a)``: c * d over a field, one call that ignores
      scale. Over a domain it pseudo-divides: with g = gcd(c, a), taken so
      that a/g is positive over the integers and monic over F_p[t], it
      returns c/g, after calling ``scale(a/g)`` when that is not 1, so that
      the caller multiplies what it divides by it;
    * ``cofactors(da, db)`` is (ka, kb) with ka * a == kb * b, from the
      divisors of a and b: (1/a, 1/b) over a field, (b/g, a/g) over a
      domain, g taken so that b/g is positive or monic;
    * ``primitive(v)`` returns the raw vector v as the table's own vector:
      v itself over a field; over a domain v with its denominators cleared
      and its content divided out, keeping the sign of v over the integers
      and with a monic first entry over F_p[t]. It takes vectors of the
      field's values and of the domain's alike.

    A domain's div is the exact quotient in its field, a field value.
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


def _polynomial_arithmetic(p: int) -> RawArithmetic:
    """F_p[t] for fraction-free division over F_p(t), as the integers serve
    Q, on the coefficient tuples of the numerators: the units are the
    nonzero residues, so a gcd is taken monic where the integers take it
    with a sign."""
    def exact(a, g):
        return a if g == (1,) else _pt_divmod(a, g, p)[0]

    def quotient(c, a, scale):
        # with g the monic gcd, g * lead(a) makes a/g monic
        g = _pt_gcd(c, a, p)
        inv = pow(a[-1], p - 2, p)
        if len(g) < len(a):
            scale(_pt_scale(exact(a, g), inv, p))
        return _pt_scale(exact(c, g), inv, p)

    def cofactors(a, b):
        g = _pt_gcd(a, b, p)
        inv = pow(b[-1], p - 2, p)
        return _pt_scale(exact(b, g), inv, p), _pt_scale(exact(a, g), inv, p)

    def primitive(v):
        if not v:
            return {}
        cs = list(v.values())
        if type(cs[0][0]) is tuple:
            # field values: clear the monic denominators
            den = (1,)
            for _, d in cs:
                if d != den:
                    den = _pt_mul(den, exact(d, _pt_gcd(den, d, p)), p)
            cs = [n if d == den else _pt_mul(n, exact(den, d), p) for n, d in cs]
        g = ()
        for c in cs:
            g = _pt_gcd(g, c, p)
            if len(g) == 1:
                break
        # divide out the monic content g and make the first entry monic
        inv = pow(cs[0][-1], p - 2, p)
        return dict(zip(v, [_pt_scale(exact(c, g), inv, p) for c in cs]))

    return RawArithmetic((), (1,), operator.not_, lambda a, b: _pt_sub(a, b, p),
                         lambda a, b: _pt_mul(a, b, p),
                         lambda a, b: _ffrac_normalize(a, b, p),
                         lambda a: a, quotient, cofactors, primitive)


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
        integers and over F_p(t) the polynomials F_p[t], on primitive
        vectors (see `RawArithmetic`), since arithmetic in the domain
        skips the gcd that normalizes every fraction; over F_p `raw`."""
        if self.kind is FieldKind.RATIONALS:
            return _INTEGER_ARITHMETIC
        if self.kind is FieldKind.RATIONAL_FUNCTIONS:
            return _polynomial_arithmetic(self.characteristic)
        return self.raw

    def __str__(self):
        if self.kind is FieldKind.RATIONALS:
            return "Q"
        if self.kind is FieldKind.PRIME_FIELD:
            return f"F{self.characteristic}"
        return f"F{self.characteristic}(t)"
