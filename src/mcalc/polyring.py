"""Sparse multivariate polynomials, global monomial orders, and ring descriptors.

A monomial is its exponent tuple, and a Polynomial's terms map exponent
tuples to raw coefficients, the values of `FieldSpec.raw`: `groebner`'s raw
term format, so `groebner` reads a polynomial's terms as they are. Constants
are raw values too, taken by `Polynomial.constant` and `Polynomial.term`
and returned by `constant_coefficient`; an int stands for its image in the
field wherever a polynomial is expected. Only `FieldSpec` reads or prints a
value.

A RingSpec describes A = k[x_1..x_n]/J as the polynomial model of the local
ring at the origin; every quotient generator must vanish at the origin.
"""

from __future__ import annotations

import keyword
from dataclasses import dataclass
from enum import Enum
from operator import add

from .errors import BadOrder, BadVariables, QuotientNotAtOrigin, RingMismatch
from .scalars import FieldKind, FieldSpec


class _Infinite:
    """Singleton marker for infinite lengths and non-finite monomial bases."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "INFINITE"


INFINITE = _Infinite()


def _monomial_str(exps, names) -> str:
    parts = []
    for name, e in zip(names, exps):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts) if parts else "1"


class OrderKind(Enum):
    GREVLEX = "grevlex"
    LEX = "lex"
    BLOCK = "block"


def _grevlex_key(exps):
    return (sum(exps), tuple(-e for e in reversed(exps)))


@dataclass(frozen=True)
class MonomialOrder:
    """A global monomial order; larger key means larger monomial."""

    kind: OrderKind
    split: int | None = None

    def __post_init__(self):
        if self.kind is OrderKind.BLOCK:
            if self.split is None or self.split < 1:
                raise BadOrder("block order needs a split index >= 1")
        elif self.split is not None:
            raise BadOrder(f"{self.kind.value} order takes no split index")

    @classmethod
    def grevlex(cls) -> "MonomialOrder":
        return cls(OrderKind.GREVLEX)

    @classmethod
    def lex(cls) -> "MonomialOrder":
        return cls(OrderKind.LEX)

    @classmethod
    def block(cls, split: int) -> "MonomialOrder":
        return cls(OrderKind.BLOCK, split)

    def key(self, exps: tuple):
        """Sort key on an exponent tuple: larger monomials have larger keys."""
        if self.kind is OrderKind.GREVLEX:
            return _grevlex_key(exps)
        if self.kind is OrderKind.LEX:
            return exps
        s = self.split
        return (_grevlex_key(exps[:s]), _grevlex_key(exps[s:]))

    def __str__(self):
        if self.kind is OrderKind.BLOCK:
            return f"block({self.split})"
        return self.kind.value


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


class Polynomial:
    """Sparse polynomial: `terms` maps exponent tuples to nonzero raw
    coefficients (see `FieldSpec.raw`), `groebner`'s raw term format;
    arithmetic runs on `field.raw`. Arithmetic and == take a Polynomial of
    the same ring or an int."""

    __slots__ = ("field", "nvars", "terms")

    def __init__(self, field: FieldSpec, nvars: int, terms=None):
        self.field = field
        self.nvars = nvars
        is_zero = field.raw.is_zero
        self.terms = {e: c for e, c in (terms or {}).items() if not is_zero(c)}

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zero(cls, field, nvars):
        return cls(field, nvars)

    @classmethod
    def constant(cls, field, nvars, c):
        return cls.term(field, nvars, (0,) * nvars, c)

    @classmethod
    def one(cls, field, nvars):
        return cls.constant(field, nvars, field.raw.one)

    @classmethod
    def variable(cls, field, nvars, i: int, power: int = 1):
        exps = tuple(power if j == i else 0 for j in range(nvars))
        return cls.term(field, nvars, exps, field.raw.one)

    @classmethod
    def term(cls, field, nvars, exps: tuple, coeff):
        return cls(field, nvars, {tuple(exps): coeff})

    # -- queries ---------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return not any(any(e) for e in self.terms)

    def constant_coefficient(self):
        """The raw coefficient of the term 1, zero included."""
        return self.terms.get((0,) * self.nvars, self.field.raw.zero)

    def sorted_terms(self, order: MonomialOrder):
        """(exponents, raw coefficient) pairs, largest monomial first."""
        return sorted(self.terms.items(), key=lambda ec: order.key(ec[0]), reverse=True)

    # -- arithmetic -------------------------------------------------------------

    def _check(self, other: "Polynomial"):
        if self.field != other.field or self.nvars != other.nvars:
            raise RingMismatch("polynomials from different rings")

    def _constant(self, n: int) -> "Polynomial":
        return Polynomial.constant(self.field, self.nvars, self.field.from_int(n))

    def __add__(self, other):
        if isinstance(other, int):
            other = self._constant(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check(other)
        ops = self.field.raw
        sub, zero = ops.sub, ops.zero
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e)
            out[e] = c if s is None else sub(s, sub(zero, c))
        return Polynomial(self.field, self.nvars, out)

    __radd__ = __add__

    def __neg__(self):
        ops = self.field.raw
        return Polynomial(self.field, self.nvars,
                          {e: ops.sub(ops.zero, c) for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, int):
            other = self._constant(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        ops = self.field.raw
        sub, mul, zero = ops.sub, ops.mul, ops.zero
        if isinstance(other, int):
            c = self.field.from_int(other)
            return Polynomial(self.field, self.nvars,
                              {e: mul(a, c) for e, a in self.terms.items()})
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check(other)
        out: dict = {}
        for e1, c1 in self.terms.items():
            n1 = sub(zero, c1)
            for e2, c2 in other.terms.items():
                e = tuple(map(add, e1, e2))
                s = out.get(e)
                # s + c1*c2, written s - (-c1)*c2
                out[e] = mul(c1, c2) if s is None else sub(s, mul(n1, c2))
        return Polynomial(self.field, self.nvars, out)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative polynomial powers are not defined")
        return power_by_squaring(Polynomial.one(self.field, self.nvars), self, e)

    def __eq__(self, other):
        if isinstance(other, int):
            other = self._constant(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return (self.field == other.field and self.nvars == other.nvars
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.field, self.nvars, frozenset(self.terms.items())))

    # -- canonical text form -----------------------------------------------------

    def to_str(self, names, order: MonomialOrder) -> str:
        if self.is_zero():
            return "0"
        rational = self.field.kind is FieldKind.RATIONALS
        one = self.field.raw.one
        parts = []
        for e, c in self.sorted_terms(order):
            sign = ""
            if rational and c < 0:
                sign = "-"
                c = -c
            cs = self.field.to_str(c)
            if not any(e):
                text = cs
            elif c == one:
                text = _monomial_str(e, names)
            else:
                if any(ch in cs for ch in "+-/"):
                    cs = f"({cs})"
                text = f"{cs}*{_monomial_str(e, names)}"
            parts.append((sign, text))
        first_sign, first_text = parts[0]
        out = ("-" if first_sign else "") + first_text
        for sign, text in parts[1:]:
            out += f" - {text}" if sign else f" + {text}"
        return out

    def __repr__(self):
        return f"Polynomial({len(self.terms)} terms in {self.nvars} vars over {self.field})"


@dataclass(frozen=True)
class RingSpec:
    """k[x_1..x_n]/J with a global monomial order.

    Models the local ring at the origin: every generator of J must have zero
    constant term, so V(J) passes through the origin.
    """

    field: FieldSpec
    variables: tuple
    order: MonomialOrder = MonomialOrder.grevlex()
    quotient: tuple = ()

    def __post_init__(self):
        names = tuple(self.variables)
        object.__setattr__(self, "variables", names)
        if not names:
            raise BadVariables("a ring needs at least one variable")
        if len(set(names)) != len(names):
            raise BadVariables("variable names must be distinct")
        for v in names:
            if not v.isidentifier() or keyword.iskeyword(v):
                raise BadVariables(f"bad variable name {v!r}")
            if v == "t" and self.field.kind is FieldKind.RATIONAL_FUNCTIONS:
                raise BadVariables("variable name t collides with the field transcendental")
        if self.order.kind is OrderKind.BLOCK and not (1 <= self.order.split < len(names)):
            raise BadOrder("block split must fall strictly inside the variable list")
        gens = []
        for g in self.quotient:
            if g.field != self.field or g.nvars != len(names):
                raise RingMismatch("quotient generator from a different ring")
            if g.is_zero():
                continue
            if not self.field.raw.is_zero(g.constant_coefficient()):
                raise QuotientNotAtOrigin("quotient generators must vanish at the origin")
            gens.append(g)
        object.__setattr__(self, "quotient", tuple(gens))

    @property
    def nvars(self) -> int:
        return len(self.variables)

    def variable(self, which) -> Polynomial:
        if isinstance(which, str):
            which = self.variables.index(which)
        return Polynomial.variable(self.field, self.nvars, which)

    def zero(self) -> Polynomial:
        return Polynomial.zero(self.field, self.nvars)

    def one(self) -> Polynomial:
        return Polynomial.one(self.field, self.nvars)

    def constant(self, c) -> Polynomial:
        """The constant polynomial of a raw value or an int."""
        if isinstance(c, int):
            c = self.field.from_int(c)
        return Polynomial.constant(self.field, self.nvars, c)

    def poly_to_str(self, p: Polynomial) -> str:
        return p.to_str(self.variables, self.order)

    def check_member(self, p: Polynomial):
        if p.field != self.field or p.nvars != self.nvars:
            raise RingMismatch("polynomial does not belong to this ring")
        return p

    def __str__(self):
        base = f"{self.field}[{', '.join(self.variables)}]"
        if self.quotient:
            return f"{base}/({', '.join(self.poly_to_str(g) for g in self.quotient)})"
        return base
