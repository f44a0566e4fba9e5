"""Sparse multivariate polynomials, global monomial orders, and ring descriptors.

A RingSpec describes A = k[x_1..x_n]/J as the polynomial model of the local
ring at the origin; every quotient generator must vanish at the origin.
"""

from __future__ import annotations

import keyword
from dataclasses import dataclass
from enum import Enum

from .errors import BadOrder, BadVariables, QuotientNotAtOrigin, RingMismatch
from .scalars import FieldKind, FieldSpec, Scalar, power_by_squaring


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


class Monomial:
    """Exponent vector with cached total degree."""

    __slots__ = ("exps", "degree")

    def __init__(self, exps):
        self.exps = tuple(exps)
        self.degree = sum(self.exps)

    @classmethod
    def one(cls, nvars: int) -> "Monomial":
        return cls((0,) * nvars)

    @classmethod
    def variable(cls, i: int, nvars: int, power: int = 1) -> "Monomial":
        return cls(tuple(power if j == i else 0 for j in range(nvars)))

    @property
    def nvars(self) -> int:
        return len(self.exps)

    def is_one(self) -> bool:
        return self.degree == 0

    def mul(self, other: "Monomial") -> "Monomial":
        return Monomial(tuple(a + b for a, b in zip(self.exps, other.exps)))

    def __eq__(self, other):
        return isinstance(other, Monomial) and self.exps == other.exps

    def __hash__(self):
        return hash(self.exps)

    def to_str(self, names) -> str:
        parts = []
        for name, e in zip(names, self.exps):
            if e == 1:
                parts.append(name)
            elif e > 1:
                parts.append(f"{name}^{e}")
        return "*".join(parts) if parts else "1"

    def __repr__(self):
        return f"Monomial{self.exps}"


class OrderKind(Enum):
    GREVLEX = "grevlex"
    LEX = "lex"
    BLOCK = "block"


def _grevlex_key(exps):
    return (sum(exps), tuple(-e for e in reversed(exps)))


def _grevlex_descending_key(exps):
    return (-sum(exps), exps[::-1])


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

    def key(self, m: Monomial):
        if self.kind is OrderKind.GREVLEX:
            return _grevlex_key(m.exps)
        if self.kind is OrderKind.LEX:
            return m.exps
        s = self.split
        return (_grevlex_key(m.exps[:s]), _grevlex_key(m.exps[s:]))

    def descending_key(self, exps: tuple):
        """Sort key on a raw exponent tuple that puts larger monomials first:
        every entry of `key` negated, so it ascends exactly where `key`
        descends."""
        if self.kind is OrderKind.GREVLEX:
            return _grevlex_descending_key(exps)
        if self.kind is OrderKind.LEX:
            return tuple(-e for e in exps)
        s = self.split
        return (_grevlex_descending_key(exps[:s]), _grevlex_descending_key(exps[s:]))

    def compare(self, m1: Monomial, m2: Monomial) -> int:
        """-1, 0, or 1 as m1 <, =, > m2."""
        if m1.nvars != m2.nvars:
            raise RingMismatch("monomials live in different ambient rings")
        k1, k2 = self.key(m1), self.key(m2)
        return (k1 > k2) - (k1 < k2)

    def __str__(self):
        if self.kind is OrderKind.BLOCK:
            return f"block({self.split})"
        return self.kind.value


class Polynomial:
    """Sparse polynomial: a map from monomials to nonzero scalars."""

    __slots__ = ("field", "nvars", "terms")

    def __init__(self, field: FieldSpec, nvars: int, terms=None):
        self.field = field
        self.nvars = nvars
        self.terms = {m: c for m, c in (terms or {}).items() if not c.is_zero()}

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zero(cls, field, nvars):
        return cls(field, nvars)

    @classmethod
    def constant(cls, field, nvars, c: Scalar):
        return cls(field, nvars, {Monomial.one(nvars): c})

    @classmethod
    def one(cls, field, nvars):
        return cls.constant(field, nvars, field.one)

    @classmethod
    def variable(cls, field, nvars, i: int, power: int = 1):
        return cls(field, nvars, {Monomial.variable(i, nvars, power): field.one})

    @classmethod
    def term(cls, field, nvars, mon: Monomial, coeff: Scalar):
        return cls(field, nvars, {mon: coeff})

    # -- queries ---------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(m.is_one() for m in self.terms)

    def constant_coefficient(self) -> Scalar:
        return self.terms.get(Monomial.one(self.nvars), self.field.zero)

    def is_homogeneous(self) -> bool:
        degs = {m.degree for m in self.terms}
        return len(degs) <= 1

    def sorted_terms(self, order: MonomialOrder):
        return sorted(self.terms.items(), key=lambda mc: order.key(mc[0]), reverse=True)

    # -- arithmetic -------------------------------------------------------------

    def _check(self, other: "Polynomial"):
        if self.field != other.field or self.nvars != other.nvars:
            raise RingMismatch("polynomials from different rings")

    def __add__(self, other):
        if isinstance(other, (int, Scalar)):
            other = Polynomial.constant(self.field, self.nvars, self._scalar(other))
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m)
            out[m] = c if s is None else s + c
        return Polynomial(self.field, self.nvars, out)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(self.field, self.nvars, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Scalar)):
            other = Polynomial.constant(self.field, self.nvars, self._scalar(other))
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def _scalar(self, c) -> Scalar:
        if isinstance(c, int):
            return self.field.from_int(c)
        if isinstance(c, Scalar):
            if c.field != self.field:
                raise RingMismatch("scalar from a different field")
            return c
        raise TypeError(f"cannot interpret {c!r} as a scalar")

    def __mul__(self, other):
        if isinstance(other, (int, Scalar)):
            c = self._scalar(other)
            if c.is_zero():
                return Polynomial.zero(self.field, self.nvars)
            return Polynomial(self.field, self.nvars,
                              {m: a * c for m, a in self.terms.items()})
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check(other)
        out: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = m1.mul(m2)
                s = out.get(m)
                p = c1 * c2
                out[m] = p if s is None else s + p
        return Polynomial(self.field, self.nvars, out)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative polynomial powers are not defined")
        return power_by_squaring(Polynomial.one(self.field, self.nvars), self, e)

    def __eq__(self, other):
        if isinstance(other, int):
            other = Polynomial.constant(self.field, self.nvars, self.field.from_int(other))
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
        parts = []
        for m, c in self.sorted_terms(order):
            sign = ""
            if rational and c.value < 0:
                sign = "-"
                c = -c
            cs = str(c)
            if m.is_one():
                text = cs
            elif c.is_one():
                text = m.to_str(names)
            else:
                if any(ch in cs for ch in "+-/"):
                    cs = f"({cs})"
                text = f"{cs}*{m.to_str(names)}"
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
            if not g.constant_coefficient().is_zero():
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
