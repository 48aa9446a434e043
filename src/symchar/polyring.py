"""Exact multivariate Laurent-polynomial and factored-rational arithmetic over Q.

Coefficients are :class:`fractions.Fraction`, exponent vectors are integer
tuples of fixed length (the rank, i.e. the number of variables q1..qr).
Rational functions keep their denominators as multisets of binomial factors
(1 - q^alpha)^k; every denominator the character pipeline produces has this
shape, so expanded denominators and multivariate GCDs are never needed.
The arithmetic uses that shape: multiplying by (1 - q^alpha) is one
shift-and-subtract pass p - p*q^alpha, and exact division accepts only a
monomial or two-term divisor, dividing by (1 - r*q^alpha) as a running sum
along each alpha-chain of the dividend.

All values are treated as immutable; operations return new objects.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping

Exponent = tuple[int, ...]

__all__ = [
    "Exponent",
    "ExactDivisionError",
    "PoleError",
    "LaurentPoly",
    "FactoredRational",
]


class ExactDivisionError(ArithmeticError):
    """A division that was expected to be exact left a nonzero remainder."""

    def __init__(self, message: str, remainder: "LaurentPoly | None" = None):
        super().__init__(message)
        self.remainder = remainder


class PoleError(ZeroDivisionError):
    """A rational function was evaluated at a zero of a denominator factor."""


def _exact(value) -> Fraction:
    """Coerce to Fraction, rejecting inexact (float/complex) input."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError("exact coefficient expected, got %s" % type(value).__name__)


def _grlex(exponent: Exponent):
    return (sum(exponent), exponent)


class LaurentPoly:
    """Element of Q[q1^+-1, ..., qr^+-1], stored as {exponent vector: coefficient}.

    >>> p = LaurentPoly.monomial((2,)) + 1
    >>> m = LaurentPoly.monomial((2,)) - 1
    >>> print(p * m)
    q^4 - 1
    """

    __slots__ = ("rank", "terms")

    def __init__(self, rank: int, terms: Mapping[Exponent, Fraction | int] | None = None):
        if not isinstance(rank, int) or rank < 1:
            raise ValueError("rank must be a positive integer")
        clean: dict[Exponent, Fraction] = {}
        if terms:
            for exponent, value in terms.items():
                exponent = tuple(exponent)
                if len(exponent) != rank:
                    raise ValueError(
                        "exponent vector of length %d in a rank-%d polynomial"
                        % (len(exponent), rank)
                    )
                coeff = _exact(value)
                if coeff:
                    clean[exponent] = coeff
        self.rank = rank
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, rank: int) -> "LaurentPoly":
        return cls(rank)

    @classmethod
    def one(cls, rank: int) -> "LaurentPoly":
        return cls(rank, {(0,) * rank: 1})

    @classmethod
    def constant(cls, rank: int, value) -> "LaurentPoly":
        return cls(rank, {(0,) * rank: value})

    @classmethod
    def monomial(cls, exponent: Iterable[int], coeff=1) -> "LaurentPoly":
        exponent = tuple(exponent)
        return cls(len(exponent), {exponent: coeff})

    @classmethod
    def _raw(cls, rank: int, terms: dict[Exponent, Fraction]) -> "LaurentPoly":
        """Wrap a dict of nonzero Fraction coefficients without copying or checking it."""
        result = cls.__new__(cls)
        result.rank = rank
        result.terms = terms
        return result

    # -- basic queries -----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, exponent: Iterable[int]) -> Fraction:
        return self.terms.get(tuple(exponent), Fraction(0))

    def coefficient_sum(self) -> Fraction:
        return sum(self.terms.values(), Fraction(0))

    def support(self) -> list[Exponent]:
        return sorted(self.terms)

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other) -> "LaurentPoly | None":
        if isinstance(other, LaurentPoly):
            if other.rank != self.rank:
                raise ValueError("rank mismatch: %d vs %d" % (self.rank, other.rank))
            return other
        if isinstance(other, (int, Fraction)):
            return LaurentPoly.constant(self.rank, other)
        return None

    def __eq__(self, other) -> bool:
        coerced = self._coerce(other)
        if coerced is None:
            return NotImplemented
        return self.terms == coerced.terms

    __hash__ = None  # mutable mapping inside; semantic equality only

    def __add__(self, other) -> "LaurentPoly":
        coerced = self._coerce(other)
        if coerced is None:
            return NotImplemented
        merged = dict(self.terms)
        for exponent, coeff in coerced.terms.items():
            total = merged.get(exponent, Fraction(0)) + coeff
            if total:
                merged[exponent] = total
            else:
                merged.pop(exponent, None)
        return LaurentPoly._raw(self.rank, merged)

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._raw(self.rank, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "LaurentPoly":
        coerced = self._coerce(other)
        if coerced is None:
            return NotImplemented
        return self + (-coerced)

    def __rsub__(self, other) -> "LaurentPoly":
        return (-self) + other

    def __mul__(self, other) -> "LaurentPoly":
        if isinstance(other, (int, Fraction)):
            scalar = _exact(other)
            if not scalar:
                return LaurentPoly.zero(self.rank)
            return LaurentPoly._raw(self.rank, {e: c * scalar for e, c in self.terms.items()})
        coerced = self._coerce(other)
        if coerced is None:
            return NotImplemented
        product: dict[Exponent, Fraction] = {}
        for ea, ca in self.terms.items():
            for eb, cb in coerced.terms.items():
                key = tuple(x + y for x, y in zip(ea, eb))
                total = product.get(key, Fraction(0)) + ca * cb
                if total:
                    product[key] = total
                else:
                    del product[key]
        return LaurentPoly._raw(self.rank, product)

    __rmul__ = __mul__

    def __pow__(self, power: int) -> "LaurentPoly":
        if not isinstance(power, int) or power < 0:
            raise ValueError("exponent must be a non-negative integer")
        base = self
        result = LaurentPoly.one(self.rank)
        while power:
            if power & 1:
                result = result * base
            power >>= 1
            if power:
                base = base * base
        return result

    def scale_exponents(self, factor: int) -> "LaurentPoly":
        """Substitute q^e -> q^(factor*e) in every term."""
        if not isinstance(factor, int):
            raise TypeError("exponent scale factor must be an integer")
        scaled: dict[Exponent, Fraction] = {}
        for exponent, coeff in self.terms.items():
            key = tuple(factor * e for e in exponent)
            scaled[key] = scaled.get(key, Fraction(0)) + coeff
        return LaurentPoly(self.rank, scaled)

    def evaluate(self, point: Iterable) -> Fraction:
        values = tuple(_exact(v) for v in point)
        if len(values) != self.rank:
            raise ValueError("evaluation point has wrong length")
        total = Fraction(0)
        for exponent, coeff in self.terms.items():
            term = coeff
            for value, e in zip(values, exponent):
                term *= value ** e
            total += term
        return total

    def exact_div(self, divisor) -> "LaurentPoly":
        """Exact quotient self / divisor, for a monomial or two-term divisor.

        A two-term divisor is written c*q^beta*(1 - r*q^alpha) with alpha
        lexicographically positive.  Dividing by (1 - r*q^alpha) is a running
        sum Q(t) = P(t) + r*Q(t-1) along each alpha-chain of the dividend,
        walked once from its lowest term; the division is exact iff the
        running value is 0 at the top of every chain.  Otherwise raises
        :class:`ExactDivisionError` carrying the remainder, the nonzero
        chain tops.  Any other divisor raises ValueError.
        """
        coerced = self._coerce(divisor)
        if coerced is None:
            raise TypeError("cannot divide by %r" % (divisor,))
        if coerced.is_zero:
            raise ZeroDivisionError("division by the zero polynomial")
        if len(coerced.terms) > 2:
            raise ValueError("exact_div divides by a monomial or a two-term polynomial only")
        (beta, c), *rest = sorted(coerced.terms.items())
        scaled = {
            tuple(x - b for x, b in zip(e, beta)): coeff / c for e, coeff in self.terms.items()
        }
        if not rest:
            return LaurentPoly._raw(self.rank, scaled)
        (top, c_top), = rest
        alpha = tuple(x - b for x, b in zip(top, beta))
        r = -c_top / c
        i = next(k for k, a in enumerate(alpha) if a)
        chains: dict[Exponent, dict[int, Fraction]] = {}
        for e, coeff in scaled.items():
            t = e[i] // alpha[i]
            chains.setdefault(tuple(x - t * a for x, a in zip(e, alpha)), {})[t] = coeff
        quotient: dict[Exponent, Fraction] = {}
        remainder: dict[Exponent, Fraction] = {}
        for base, chain in chains.items():
            running = Fraction(0)
            highest = max(chain)
            for t in range(min(chain), highest + 1):
                running = chain.get(t, 0) + r * running
                if t < highest:
                    quotient[tuple(x + t * a for x, a in zip(base, alpha))] = running
            if running:
                remainder[tuple(x + b + highest * a for x, b, a in zip(base, beta, alpha))] = running * c
        if remainder:
            raise ExactDivisionError(
                "remainder nonzero in exact division", LaurentPoly._raw(self.rank, remainder)
            )
        return LaurentPoly(self.rank, quotient)

    # -- presentation ------------------------------------------------------

    def to_json(self) -> list[dict]:
        return [{"exp": list(e), "coef": str(self.terms[e])} for e in sorted(self.terms)]

    def render(self, names: tuple[str, ...] | None = None) -> str:
        if not self.terms:
            return "0"
        if names is None:
            names = ("q",) if self.rank == 1 else tuple("q%d" % (i + 1) for i in range(self.rank))
        pieces = []
        for exponent in sorted(self.terms, key=_grlex, reverse=True):
            coeff = self.terms[exponent]
            mono = "*".join(
                name if power == 1 else "%s^%d" % (name, power)
                for name, power in zip(names, exponent)
                if power
            )
            if not mono:
                body = str(abs(coeff))
            elif abs(coeff) == 1:
                body = mono
            else:
                body = "%s*%s" % (abs(coeff), mono)
            pieces.append(("-" if coeff < 0 else "+", body))
        sign, body = pieces[0]
        text = ("-" if sign == "-" else "") + body
        for sign, body in pieces[1:]:
            text += " %s %s" % (sign, body)
        return text

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return "LaurentPoly(%s)" % self.render()


def _binomial_factor(alpha: Exponent) -> LaurentPoly:
    """The Laurent polynomial 1 - q^alpha."""
    return LaurentPoly(len(alpha), {(0,) * len(alpha): 1, alpha: -1})


def _times_factors(poly: LaurentPoly, factors: Mapping[Exponent, int]) -> LaurentPoly:
    """poly * prod (1 - q^alpha)^k, as k passes of poly - poly * q^alpha per factor."""
    for alpha, power in factors.items():
        for _ in range(power):
            terms = dict(poly.terms)
            for e, coeff in poly.terms.items():
                key = tuple(x + a for x, a in zip(e, alpha))
                total = terms.get(key, 0) - coeff
                if total:
                    terms[key] = total
                else:
                    del terms[key]
            poly = LaurentPoly._raw(poly.rank, terms)
    return poly


class FactoredRational:
    """A rational function numerator / prod_j (1 - q^alpha_j)^k_j.

    Denominator factor keys are normalized so that the first nonzero entry
    of alpha is positive; the unit relating (1 - q^-alpha) to (1 - q^alpha)
    is absorbed into the numerator.  Equality is semantic, decided by
    cross-multiplication, so externally supplied mixed normalizations
    compare as expected.
    """

    __slots__ = ("numerator", "factors")

    def __init__(self, numerator: LaurentPoly, factors=()):
        if not isinstance(numerator, LaurentPoly):
            raise TypeError("numerator must be a LaurentPoly")
        num = numerator
        merged: dict[Exponent, int] = {}
        items = factors.items() if isinstance(factors, Mapping) else factors
        for alpha, power in items:
            alpha = tuple(alpha)
            if len(alpha) != num.rank:
                raise ValueError("denominator exponent of wrong length")
            if not any(alpha):
                raise ValueError("denominator factor with zero exponent vector")
            if not isinstance(power, int) or power < 0:
                raise ValueError("factor multiplicity must be a non-negative integer")
            if power == 0:
                continue
            first = next(x for x in alpha if x)
            if first < 0:
                # 1/(1 - q^-b)^p == (-1)^p q^(p*b) / (1 - q^b)^p
                alpha = tuple(-x for x in alpha)
                unit = LaurentPoly.monomial(
                    tuple(power * x for x in alpha), Fraction(-1) ** power
                )
                num = num * unit
            merged[alpha] = merged.get(alpha, 0) + power
        if num.is_zero:
            merged = {}
        self.numerator = num
        self.factors = merged

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, rank: int) -> "FactoredRational":
        return cls(LaurentPoly.zero(rank))

    @classmethod
    def one(cls, rank: int) -> "FactoredRational":
        return cls(LaurentPoly.one(rank))

    @classmethod
    def sum(cls, parts, rank: int) -> "FactoredRational":
        """Sum many terms over one shared denominator.

        The common denominator takes the largest power of each factor; each
        numerator is multiplied by its missing factors (1 - q^alpha)^k as k
        shift-and-subtract passes, and no intermediate reductions happen.
        The result is not reduced; callers that need a tidy denominator
        call reduced().
        """
        parts = list(parts)
        common: dict[Exponent, int] = {}
        for part in parts:
            if part.rank != rank:
                raise ValueError("rank mismatch in summation")
            for alpha, power in part.factors.items():
                if common.get(alpha, 0) < power:
                    common[alpha] = power
        total = LaurentPoly.zero(rank)
        for part in parts:
            missing = {a: p - part.factors.get(a, 0) for a, p in common.items()}
            total = total + _times_factors(part.numerator, missing)
        return cls(total, common)

    # -- queries -----------------------------------------------------------

    @property
    def rank(self) -> int:
        return self.numerator.rank

    @property
    def is_zero(self) -> bool:
        return self.numerator.is_zero

    def denominator_expanded(self) -> LaurentPoly:
        return _times_factors(LaurentPoly.one(self.rank), self.factors)

    def as_laurent(self) -> LaurentPoly:
        """Exact quotient numerator / denominator; the value must be polynomial.

        Divides by one binomial factor (1 - q^alpha) at a time through
        :meth:`LaurentPoly.exact_div` (a quotient divisible by the product
        is divisible by each factor in turn), so the denominator is never
        expanded; raises :class:`ExactDivisionError` when the value is not
        a polynomial.
        """
        result = self.numerator
        for alpha in sorted(self.factors):
            base = _binomial_factor(alpha)
            for _ in range(self.factors[alpha]):
                result = result.exact_div(base)
        return result

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other) -> "FactoredRational | None":
        if isinstance(other, FactoredRational):
            if other.rank != self.rank:
                raise ValueError("rank mismatch: %d vs %d" % (self.rank, other.rank))
            return other
        if isinstance(other, LaurentPoly):
            if other.rank != self.rank:
                raise ValueError("rank mismatch: %d vs %d" % (self.rank, other.rank))
            return FactoredRational(other)
        if isinstance(other, (int, Fraction)):
            return FactoredRational(LaurentPoly.constant(self.rank, other))
        return None

    def __add__(self, other) -> "FactoredRational":
        coerced = self._coerce(other)
        if coerced is None:
            return NotImplemented
        return FactoredRational.sum((self, coerced), self.rank).reduced()

    __radd__ = __add__

    def __neg__(self) -> "FactoredRational":
        result = FactoredRational.__new__(FactoredRational)
        result.numerator = -self.numerator
        result.factors = dict(self.factors)
        return result

    def __sub__(self, other) -> "FactoredRational":
        coerced = self._coerce(other)
        if coerced is None:
            return NotImplemented
        return self + (-coerced)

    def __rsub__(self, other) -> "FactoredRational":
        return (-self) + other

    def __mul__(self, other) -> "FactoredRational":
        if isinstance(other, (int, Fraction)):
            result = FactoredRational.__new__(FactoredRational)
            result.numerator = self.numerator * other
            result.factors = dict(self.factors) if not result.numerator.is_zero else {}
            return result
        coerced = self._coerce(other)
        if coerced is None:
            return NotImplemented
        merged = dict(self.factors)
        for alpha, power in coerced.factors.items():
            merged[alpha] = merged.get(alpha, 0) + power
        return FactoredRational(self.numerator * coerced.numerator, merged).reduced()

    __rmul__ = __mul__

    def reduced(self) -> "FactoredRational":
        """Cancel denominator factors that divide the numerator exactly."""
        if self.is_zero or not self.factors:
            return self
        num = self.numerator
        remaining = dict(self.factors)
        for alpha in sorted(remaining):
            base = _binomial_factor(alpha)
            while remaining[alpha]:
                try:
                    num = num.exact_div(base)
                except ExactDivisionError:
                    break
                remaining[alpha] -= 1
            if not remaining[alpha]:
                del remaining[alpha]
        return FactoredRational(num, remaining)

    # -- evaluation and comparison ------------------------------------------

    def evaluate(self, point: Iterable) -> Fraction:
        values = tuple(_exact(v) for v in point)
        denom = Fraction(1)
        for alpha, power in self.factors.items():
            base = Fraction(1)
            for value, e in zip(values, alpha):
                base *= value ** e
            factor = 1 - base
            if factor == 0:
                raise PoleError("denominator factor vanishes at evaluation point")
            denom *= factor ** power
        return self.numerator.evaluate(values) / denom

    def __eq__(self, other) -> bool:
        coerced = self._coerce(other)
        if coerced is None:
            return NotImplemented
        shared = {
            alpha: min(power, coerced.factors[alpha])
            for alpha, power in self.factors.items()
            if alpha in coerced.factors
        }
        left_rest = {a: p - shared.get(a, 0) for a, p in self.factors.items()}
        right_rest = {a: p - shared.get(a, 0) for a, p in coerced.factors.items()}
        left = _times_factors(self.numerator, right_rest)
        right = _times_factors(coerced.numerator, left_rest)
        return left == right

    __hash__ = None

    # -- presentation ------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "num": self.numerator.to_json(),
            "den": [
                {"alpha": list(alpha), "power": self.factors[alpha]}
                for alpha in sorted(self.factors)
            ],
        }

    def __str__(self) -> str:
        num = self.numerator.render()
        if not self.factors:
            return num
        bits = []
        for alpha in sorted(self.factors):
            power = self.factors[alpha]
            base = "(1 - %s)" % LaurentPoly.monomial(alpha).render()
            bits.append(base if power == 1 else "%s^%d" % (base, power))
        return "(%s) / %s" % (num, "".join(bits))

    def __repr__(self) -> str:
        return "FactoredRational(%s)" % self
