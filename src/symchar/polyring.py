"""Exact multivariate Laurent-polynomial and factored-rational arithmetic over Q.

Coefficients are :class:`fractions.Fraction`, exponent vectors are integer
tuples of fixed length (the rank, i.e. the number of variables q1..qr).
Rational functions keep their denominators as multisets of binomial factors
(1 - q^alpha)^k; every denominator the character pipeline produces has this
shape, so expanded denominators and multivariate GCDs are never needed.
The arithmetic uses that shape: multiplying by (1 - q^alpha) is one
shift-and-subtract pass p - p*q^alpha, and dividing by it is a running sum
along each alpha-chain of the dividend, exact iff every chain's coefficient
sum is 0.  Both keep integer coefficients integral, so the hot loops
(``FactoredRational.sum``, ``as_laurent``, ``reduced`` and the two-term
``LaurentPoly.exact_div``) convert a numerator once to integer coefficients
over one scale (the lcm of its denominators), work on plain ints, and
convert back once.  A trial division that fails is rejected on its chain
sums before any quotient term is built.

All values are treated as immutable; operations return new objects.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from math import lcm
from operator import add, sub
from typing import Iterable, Mapping

Exponent = tuple[int, ...]

__all__ = [
    "Exponent",
    "ExactDivisionError",
    "InconsistencyError",
    "PoleError",
    "LaurentPoly",
    "FactoredRational",
]


class ExactDivisionError(ArithmeticError):
    """A division that was expected to be exact left a nonzero remainder."""

    def __init__(self, message: str, remainder: "LaurentPoly | None" = None):
        super().__init__(message)
        self.remainder = remainder


class InconsistencyError(ArithmeticError):
    """An internal invariant failed (integrality, a cross-check, a symmetry): a bug.

    Raised explicitly rather than through ``assert``, so the checks also run
    under ``python -O``.
    """


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
        lexicographically positive.  The dividend is shifted by -beta, scaled
        by 1/c and, when r != 1, twisted by r^-t on the alpha-chain position
        t; that turns the division into one by (1 - q^alpha), which runs on
        integer coefficients over one scale as a running sum along each
        alpha-chain (see :func:`_chain_div`), and the twist is undone on the
        quotient.  The division is exact iff every chain's coefficient sum is
        0; otherwise raises :class:`ExactDivisionError` carrying the
        remainder, one term per chain with a nonzero sum, at the chain's top.
        Any other divisor raises ValueError.
        """
        coerced = self._coerce(divisor)
        if coerced is None:
            raise TypeError("cannot divide by %r" % (divisor,))
        if coerced.is_zero:
            raise ZeroDivisionError("division by the zero polynomial")
        if len(coerced.terms) > 2:
            raise ValueError("exact_div divides by a monomial or a two-term polynomial only")
        (beta, c), *rest = sorted(coerced.terms.items())
        shifted = {tuple(map(sub, e, beta)): coeff / c for e, coeff in self.terms.items()}
        if not rest:
            return LaurentPoly._raw(self.rank, shifted)
        (top, c_top), = rest
        alpha = tuple(map(sub, top, beta))
        r = -c_top / c
        i = next(k for k, a in enumerate(alpha) if a)
        if r != 1:
            shifted = {e: coeff / r ** (e[i] // alpha[i]) for e, coeff in shifted.items()}
        (terms,), scale = _integer_terms([shifted])
        quotient, done = _chain_div(terms, alpha, 1)
        if not done:
            remainder = {}
            for base, chain in _chains(terms, alpha).items():
                total = sum(chain.values())
                if total:
                    h = max(chain)
                    key = tuple(x + b + h * a for x, b, a in zip(base, beta, alpha))
                    remainder[key] = Fraction(total, scale) * r**h * c
            raise ExactDivisionError(
                "remainder nonzero in exact division", LaurentPoly._raw(self.rank, remainder)
            )
        result = _from_integer(self.rank, quotient, scale)
        if r == 1:
            return result
        return LaurentPoly._raw(
            self.rank, {e: coeff * r ** (e[i] // alpha[i]) for e, coeff in result.terms.items()}
        )

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


# -- integer core: numerators as {exponent: int} over one scale ----------------


def _integer_terms(
    term_dicts: Iterable[Mapping[Exponent, Fraction]],
) -> tuple[list[dict[Exponent, int]], int]:
    """Integer terms of each dict over one shared scale, the lcm of all denominators."""
    term_dicts = list(term_dicts)
    scale = lcm(*(c.denominator for terms in term_dicts for c in terms.values()))
    return [
        {e: c.numerator * (scale // c.denominator) for e, c in terms.items()}
        for terms in term_dicts
    ], scale


def _from_integer(rank: int, terms: Mapping[Exponent, int], scale: int) -> LaurentPoly:
    """The LaurentPoly terms / scale; terms holds no zero coefficient."""
    return LaurentPoly._raw(rank, {e: Fraction(c, scale) for e, c in terms.items()})


def _chains(terms: Mapping[Exponent, int], alpha: Exponent) -> dict[Exponent, dict[int, int]]:
    """Terms grouped by alpha-chain, {base: {t: coeff}} with e == base + t*alpha.

    t = e[i] // alpha[i] for the first nonzero coordinate i of alpha, so
    every base has 0 <= base[i] < alpha[i].
    """
    i = next(k for k, a in enumerate(alpha) if a)
    step = alpha[i]
    shifts: dict[int, Exponent] = {}
    chains: dict[Exponent, dict[int, int]] = {}
    for e, coeff in terms.items():
        t = e[i] // step
        shift = shifts.get(t)
        if shift is None:
            shift = shifts[t] = tuple(t * a for a in alpha)
        base = tuple(map(sub, e, shift))
        chain = chains.get(base)
        if chain is None:
            chains[base] = {t: coeff}
        else:
            chain[t] = coeff
    return chains


def _chain_div(
    terms: Mapping[Exponent, int], alpha: Exponent, power: int
) -> tuple[dict[Exponent, int], int]:
    """Divide integer terms by (1 - q^alpha) while exact, at most ``power`` times.

    alpha is lexicographically positive; returns (quotient, times divided).
    One division is the running sum Q(t) = P(t) + Q(t-1) up each alpha-chain,
    exact iff every chain's coefficient sum is 0.  A failing first division
    is rejected on the total sum, then on the chain sums, before any quotient
    is built.  The chains are grouped once for all ``power`` divisions, as
    dense lists; exponent tuples are built at the end, for nonzero
    coefficients only.
    """
    if sum(terms.values()):
        return terms, 0
    chains = _chains(terms, alpha)
    for chain in chains.values():
        if sum(chain.values()):
            return terms, 0
    dense = []
    for base, chain in chains.items():
        low = min(chain)
        dense.append((base, low, [chain.get(t, 0) for t in range(low, max(chain) + 1)]))
    done = 0
    while done < power and not any(sum(coeffs) for _, _, coeffs in dense):
        for _, _, coeffs in dense:
            coeffs[:] = accumulate(coeffs)
            coeffs.pop()
        done += 1
    quotient: dict[Exponent, int] = {}
    for base, low, coeffs in dense:
        key = tuple(b + low * a for b, a in zip(base, alpha))
        for coeff in coeffs:
            if coeff:
                quotient[key] = coeff
            key = tuple(map(add, key, alpha))
    return quotient, done


def _times_factors(
    terms: dict[Exponent, int], factors: Mapping[Exponent, int]
) -> dict[Exponent, int]:
    """Integer terms * prod (1 - q^alpha)^k, as k passes of p - p*q^alpha per factor."""
    for alpha, power in factors.items():
        for _ in range(power):
            product = dict(terms)
            for e, coeff in terms.items():
                key = tuple(map(add, e, alpha))
                total = product.get(key, 0) - coeff
                if total:
                    product[key] = total
                else:
                    del product[key]
            terms = product
    return terms


class FactoredRational:
    """A rational function numerator / prod_j (1 - q^alpha_j)^k_j.

    Denominator factor keys are normalized so that the first nonzero entry
    of alpha is positive; the unit relating (1 - q^-alpha) to (1 - q^alpha)
    is absorbed into the numerator.

    Arithmetic never cancels: ``*`` multiplies the numerators and merges the
    factor multisets, ``+`` and ``-`` are :meth:`sum`, and only
    :meth:`reduced` divides factors out; callers that want a tidy value call
    it once.  Equality is semantic: the difference, summed over the common
    denominator, must be zero, so mixed normalizations compare as expected.
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

        The common denominator takes the largest power of each factor.  All
        numerators are brought to integer coefficients over one common scale
        (the lcm of their coefficient denominators); each is multiplied by
        its missing factors (1 - q^alpha)^k as k integer shift-and-subtract
        passes, and no intermediate reductions happen.  The result is not
        reduced; callers that need a tidy denominator call reduced().
        """
        parts = list(parts)
        common: dict[Exponent, int] = {}
        for part in parts:
            if part.rank != rank:
                raise ValueError("rank mismatch in summation")
            for alpha, power in part.factors.items():
                if common.get(alpha, 0) < power:
                    common[alpha] = power
        numerators, scale = _integer_terms(part.numerator.terms for part in parts)
        total: dict[Exponent, int] = {}
        for part, terms in zip(parts, numerators):
            missing = {a: p - part.factors.get(a, 0) for a, p in common.items()}
            for e, coeff in _times_factors(terms, missing).items():
                total[e] = total.get(e, 0) + coeff
        return cls(_from_integer(rank, {e: c for e, c in total.items() if c}, scale), common)

    # -- queries -----------------------------------------------------------

    @property
    def rank(self) -> int:
        return self.numerator.rank

    @property
    def is_zero(self) -> bool:
        return self.numerator.is_zero

    def denominator_expanded(self) -> LaurentPoly:
        return _from_integer(self.rank, _times_factors({(0,) * self.rank: 1}, self.factors), 1)

    def as_laurent(self) -> LaurentPoly:
        """Exact quotient numerator / denominator; the value must be polynomial.

        This is :meth:`reduced` with nothing left over: the denominator is
        never expanded.  Raises :class:`ExactDivisionError`, naming the
        smallest factor left, when the value is not a polynomial.
        """
        left = self.reduced()
        if left.factors:
            raise ExactDivisionError(
                "numerator not divisible by (1 - %s)" % LaurentPoly.monomial(min(left.factors))
            )
        return left.numerator

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
        return FactoredRational.sum((self, coerced), self.rank)

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
        return FactoredRational.sum((self, -coerced), self.rank)

    def __rsub__(self, other) -> "FactoredRational":
        return (-self) + other

    def __mul__(self, other) -> "FactoredRational":
        if isinstance(other, (LaurentPoly, int, Fraction)):
            return FactoredRational(self.numerator * other, self.factors)
        coerced = self._coerce(other)
        if coerced is None:
            return NotImplemented
        merged = dict(self.factors)
        for alpha, power in coerced.factors.items():
            merged[alpha] = merged.get(alpha, 0) + power
        return FactoredRational(self.numerator * coerced.numerator, merged)

    __rmul__ = __mul__

    def reduced(self) -> "FactoredRational":
        """Cancel denominator factors that divide the numerator exactly.

        Greedy, in sorted factor order: each factor (1 - q^alpha) is divided
        out of the integer numerator (one scale, see :func:`_chain_div`)
        until a trial division fails.  A failing trial is rejected on its
        chain sums before any quotient term is built.  Returns ``self`` when
        nothing cancels.
        """
        if self.is_zero or not self.factors:
            return self
        (terms,), scale = _integer_terms([self.numerator.terms])
        remaining = dict(self.factors)
        for alpha in sorted(remaining):
            terms, done = _chain_div(terms, alpha, remaining[alpha])
            remaining[alpha] -= done
            if not remaining[alpha]:
                del remaining[alpha]
        if remaining == self.factors:
            return self
        return FactoredRational(_from_integer(self.rank, terms, scale), remaining)

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
        return FactoredRational.sum((self, -coerced), self.rank).is_zero

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
