"""Exact multivariate Laurent-polynomial and factored-rational arithmetic over Q.

A numerator is stored as integer terms {exponent vector: int}, no zeros,
over one positive scale (not always the least); exponent vectors are int
tuples of the rank, the number of variables q1..qr.  A :class:`LaurentPoly`,
the exchange type for output, evaluation and the oracles, is a
:class:`FactoredRational` with no factors, its Fraction ``terms`` built on
first read.  The storage, ``+``, ``-``, ``*`` and evaluate are written once,
on FactoredRational: one sum, one product, one division (as_laurent).  Every
binary operator is one expression behind one coercing front,
:func:`_coercing`: a scalar becomes a constant, any other operand must be of
the receiver's class.  So LaurentPolys and scalars give a LaurentPoly, and a
LaurentPoly refuses a FactoredRational, whose reflected operator answers.  A
LaurentPoly's ``==`` is structural and never packs; its JSON is a term list.

:class:`FactoredRational` keeps its denominator as a multiset of binomial
factors (1 - q^alpha)^k; every denominator the character pipeline produces
has this shape, so expanded denominators and multivariate GCDs are never
needed.  Products, sums and reductions pack each exponent vector into one
int (its key in a box -r..r, :class:`_Packing`) once, work on int keys and
unpack once.  Multiplying by (1 - q^alpha) is one shift-and-subtract pass
p - p*q^alpha, and dividing by it is a running sum along each alpha-chain,
exact iff every chain's coefficient sum is 0; a trial division that fails
is rejected on its chain sums before any quotient term is built.  That
running sum, behind reduced() and as_laurent(), is the only division.  A
sum of many parts is merged pairwise, each merge over the pair's own common
denominator.  mapped() substitutes q^e -> q^(M.e), M an invertible integer
matrix such as a Weyl group element, in one pass; shifted_sum() adds the
c * q^beta * f of values over one shared denominator in one dict.

kronecker_sum is the second sum, for parts whose sum is known to be a
polynomial with nonnegative coefficients in a box.  It substitutes values
too: q^e becomes x^(slot of e), the box a :class:`_Packing` and x = 2^b, so
the sum is one int modulo 2^K whose b-bit digits are its coefficients.
Each part is divided by its own factors as a power series and the digits
are decoded once; no common denominator is built.  A term outside the box,
or a mismatch at a seeded point modulo 2^61 - 1, raises ExactDivisionError;
each FactoredRational keeps its residue there, numerator and denominator.

Values are immutable: ``terms`` and ``factors`` are read-only mappings
(:class:`types.MappingProxyType`), and operations return new objects.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from functools import cache
from itertools import accumulate, compress, repeat
from math import gcd, lcm, prod
from operator import add, getitem, mul, neg, sub
from types import MappingProxyType
from typing import Collection, Iterable, Mapping

from ._base import ExactDivisionError, InconsistencyError, PoleError, check_count

Exponent = tuple[int, ...]

__all__ = [
    "Exponent",
    "ExactDivisionError",
    "InconsistencyError",
    "PoleError",
    "LaurentPoly",
    "FactoredRational",
    "kronecker_sum",
]


def _exact(value) -> int | Fraction:
    """value itself if it is an int or a Fraction; TypeError for inexact (float/complex) input."""
    if isinstance(value, (int, Fraction)):
        return value
    raise TypeError("exact coefficient expected, got %s" % type(value).__name__)


def check_exponent(exponent: Iterable[int], rank: int) -> Exponent:
    """exponent as a tuple, or ValueError unless it is a vector of rank ints (not bools)."""
    exponent = tuple(exponent)
    if len(exponent) != rank:
        raise ValueError("exponent vector of length %d in a rank-%d polynomial"
                         % (len(exponent), rank))
    if not all(type(c) is int for c in exponent):
        raise ValueError("non-integer exponent %r" % (exponent,))
    return exponent


def _coercing(operation):
    """operation(self, other) as an operator, on other through self._coerce; else NotImplemented."""
    def operator(self, other):
        coerced = self._coerce(other)
        return NotImplemented if coerced is None else operation(self, coerced)
    return operator


# -- integer core: numerators as {exponent: int} over one scale ----------------


def _reach(vectors: Collection[Exponent]) -> int:
    """The largest |coordinate| among exponent vectors, 0 for none."""
    return max(max(map(max, vectors), default=0), -min(map(min, vectors), default=0))


class _Packing:
    """Exponent vectors packed into ints, in the mixed-radix box lows..lows + radix - 1.

    Coordinate 0 is the most significant digit.  The key of e is strides.e,
    its slot key - origin; slot plus key is the slot of the sum (Kronecker
    substitution), and slots are unique on the box.
    """

    def __init__(self, lows: Exponent, radix: list[int]):
        self.lows, self.strides = lows, [*accumulate(radix[:0:-1], mul, initial=1)][::-1]
        self.origin = sum(map(mul, lows, self.strides))

    def key(self, e: Exponent) -> int:
        return sum(map(mul, e, self.strides))

    def pack(self, terms: Mapping[Exponent, int]) -> dict[int, int]:
        origin = self.origin
        return {self.key(e) - origin: c for e, c in terms.items()}

    def column(self, slots: Iterable[int], i: int) -> list[int]:
        """Coordinate i at each slot; coordinate 0 is also read past the box."""
        low, stride = self.lows[i], self.strides[i]
        if not i:
            return [low + slot // stride for slot in slots]
        bound = self.strides[i - 1]
        return [low + slot % bound // stride for slot in slots]

    def exponents(self, slots: Collection[int]) -> Iterable[Exponent]:
        return zip(*(self.column(slots, i) for i in range(len(self.lows))))

    def unpack(self, packed: dict[int, int]) -> dict[Exponent, int]:
        """The terms again, keyed by exponent vectors, in the same order."""
        return dict(zip(self.exponents(packed), packed.values()))


def _chain_div(
    terms: dict[int, int], packing: _Packing, alpha: Exponent, power: int
) -> tuple[dict[int, int], int]:
    """Divide integer terms on slots by (1 - q^alpha) while exact, at most ``power`` times.

    alpha is lexicographically positive; returns (quotient, times divided).
    One division is the running sum Q(t) = P(t) + Q(t-1) up each alpha-chain,
    exact iff every chain's coefficient sum is 0.  A slot k lies on the chain
    with base k - t*A, A the key of alpha and t its coordinate i (read from
    the box) over alpha[i], i the first nonzero coordinate of alpha; the box
    holds those bases.  A failing first division is rejected on the total
    sum, then on the chain sums, before any quotient is built.  The chains
    are grouped once for all ``power`` divisions, as dense lists.
    """
    if sum(terms.values()):
        return terms, 0
    i = next(k for k, a in enumerate(alpha) if a)
    step, lift = alpha[i], packing.key(alpha)
    chains: dict[int, dict[int, int]] = {}
    for (k, coeff), digit in zip(terms.items(), packing.column(terms, i)):
        t = digit // step
        chains.setdefault(k - t * lift, {})[t] = coeff
    for chain in chains.values():
        if sum(chain.values()):
            return terms, 0
    dense = []
    for base, chain in chains.items():
        low = min(chain)
        dense.append((base + low * lift, [chain.get(t, 0) for t in range(low, max(chain) + 1)]))
    done = 0
    while done < power and not any(sum(coeffs) for _, coeffs in dense):
        for _, coeffs in dense:
            coeffs[:] = accumulate(coeffs)
            coeffs.pop()
        done += 1
    quotient: dict[int, int] = {}
    for key, coeffs in dense:
        quotient.update(compress(zip(range(key, key + lift * len(coeffs), lift), coeffs), coeffs))
    return quotient, done


def _product(a: dict[Exponent, int], b: dict[Exponent, int]) -> dict[Exponent, int]:
    """Product of two integer numerators, with packed exponents.

    A one-term operand is a shift (none for a constant) and a scaling.
    Otherwise a is packed in a box that holds every product exponent, so the
    slot of a product term is a's slot plus b's key, one int addition.
    """
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return {}
    if len(b) == 1:
        ((shift, factor),) = b.items()
        if not any(shift):
            return {e: c * factor for e, c in a.items()}
        return {tuple(map(add, e, shift)): c * factor for e, c in a.items()}
    reach, rank = _reach(a) + _reach(b), len(next(iter(a)))
    packing = _Packing((-reach,) * rank, [2 * reach + 1] * rank)
    packed_a = packing.pack(a).items()
    sums: dict[int, int] = {}
    for kb, cb in zip(map(packing.key, b), b.values()):
        for ka, ca in packed_a:
            key = ka + kb
            sums[key] = sums.get(key, 0) + ca * cb
    return packing.unpack({key: coeff for key, coeff in sums.items() if coeff})


def _apply(matrix, vectors: list[Exponent], shift: Iterable[int]) -> list[Exponent]:
    """matrix . v + shift for each vector v, built a coordinate at a time over all vectors."""
    coords = list(zip(*vectors))
    columns = []
    for row, s in zip(matrix, shift):
        column = [s] * len(vectors) if s else None
        for a, coord in zip(row, coords):
            if a:
                part = coord if a == 1 else list(map(mul, repeat(a), coord))
                column = part if column is None else list(map(add, column, part))
        columns.append([0] * len(vectors) if column is None else column)
    return list(zip(*columns))


def _flipped(factors: Iterable, rank: int) -> tuple[dict[Exponent, int], list[int], int]:
    """(factors, shift, sign): each alpha lexicographically positive, equal ones merged, and the
    unit sign * q^shift of the flips, 1/(1 - q^-b)^p == (-1)^p q^(p*b) / (1 - q^b)^p."""
    merged: dict[Exponent, int] = {}
    zero, shift, sign = (0,) * rank, [0] * rank, 1
    for alpha, power in factors:
        if alpha < zero:  # its first nonzero entry is negative
            alpha = tuple(-x for x in alpha)
            shift = [s + power * x for s, x in zip(shift, alpha)]
            sign *= (-1) ** power
        merged[alpha] = merged.get(alpha, 0) + power
    return merged, shift, sign


_Part = tuple[dict[int, int], int, Mapping[Exponent, int]]  # (packed terms, scale, factors)


def _merge(a: _Part, b: _Part, lifts: Mapping[Exponent, int]) -> _Part:
    """a + b over the pair's max-power denominator and lcm scale; lifts[alpha] is alpha's key."""
    common = dict(a[2])
    for alpha, power in b[2].items():
        common[alpha] = max(common.get(alpha, 0), power)
    scale = lcm(a[1], b[1])
    total: dict[int, int] = {}
    for terms, part_scale, factors in a, b:
        if part_scale != scale:
            terms = {k: c * (scale // part_scale) for k, c in terms.items()}
        for alpha, power in common.items():
            lift = lifts[alpha]
            for _ in range(power - factors.get(alpha, 0)):
                product = dict(terms)
                for k, coeff in terms.items():
                    key = k + lift
                    left = product.get(key, 0) - coeff
                    if left:
                        product[key] = left
                    else:
                        del product[key]
                terms = product
        for k, coeff in terms.items():
            total[k] = total.get(k, 0) + coeff
    return {k: c for k, c in total.items() if c}, scale, common


_NO_FACTORS: Mapping[Exponent, int] = MappingProxyType({})  # shared by every factor-free value


class FactoredRational:
    """A rational function numerator / prod_j (1 - q^alpha_j)^k_j.

    Each alpha has a positive first nonzero entry, the unit that relates
    (1 - q^-alpha) to (1 - q^alpha) absorbed into the numerator, which is
    kept privately as integer terms over one positive integer scale;
    :attr:`numerator` wraps them as a :class:`LaurentPoly`, the case with no
    factors.  Arithmetic never cancels: ``*`` multiplies the numerators and
    merges the factor multisets, ``+`` and ``-`` are :meth:`sum`, and only
    :meth:`reduced` divides factors out; callers that want a tidy value call
    it once.  Equality is semantic: the difference must sum to zero, so
    mixed normalizations compare as expected.
    """

    __slots__ = ("rank", "factors", "_terms", "_scale", "_residue")

    def __init__(self, numerator: LaurentPoly, factors=()):
        if not isinstance(numerator, LaurentPoly):
            raise TypeError("numerator must be a LaurentPoly")
        rank, checked = numerator.rank, []
        for alpha, power in factors.items() if isinstance(factors, Mapping) else factors:
            alpha = tuple(alpha)
            if len(alpha) != rank:
                raise ValueError("denominator exponent of wrong length")
            if not all(type(c) is int for c in alpha):
                raise ValueError("non-integer denominator exponent %r" % (alpha,))
            if not any(alpha):
                raise ValueError("denominator factor with zero exponent vector")
            check_count(power, "factor multiplicity")
            if power:
                checked.append((alpha, power))
        # The unit of the flips goes into the terms, kept as they came when there is none.
        merged, shift, sign = _flipped(checked, rank)
        terms = _product(numerator._terms, {tuple(shift): sign}) if sign < 0 or any(shift) \
            else numerator._terms
        self._set(rank, terms, numerator._scale, merged)

    def _set(self, rank: int, terms: dict[Exponent, int], scale: int, factors) -> None:
        self.rank = rank
        self._terms = terms
        self._scale = scale
        self.factors = MappingProxyType(factors) if terms and factors else _NO_FACTORS
        self._residue = None

    @classmethod
    def _raw(cls, rank: int, terms: dict[Exponent, int], scale: int, factors=None):
        """Wrap terms and normalized factors unchecked; kept factors make a FactoredRational."""
        result = object.__new__(FactoredRational if terms and factors else cls)
        result._set(rank, terms, scale, factors)
        return result

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, rank: int):
        return cls._raw(rank, {}, 1)

    @classmethod
    def sum(cls, parts, rank: int):
        """Sum many terms over one shared denominator, in a balanced pairwise tree.

        Each merge adds two partial sums over the pair's own common
        denominator, which takes the larger power of each factor: both
        integer numerators are brought to the lcm of their scales and
        multiplied by their missing factors (1 - q^alpha)^k, as k integer
        shift-and-subtract passes.  A partial sum is lifted once for all the
        parts in it, so n parts with distinct factors take O(n log n)
        passes instead of O(n^2).  Each part is packed once, in a box
        that holds every lift, and the total is unpacked once.  Nothing
        cancels on the way: the result is over the largest power of each
        factor among all parts.  It is not reduced.
        """
        parts = list(parts)
        common: dict[Exponent, int] = {}
        for part in parts:
            if part.rank != rank:
                raise ValueError("rank mismatch in summation")
            for alpha, power in part.factors.items():
                common[alpha] = max(common.get(alpha, 0), power)
        if not parts:
            return cls.zero(rank)
        reach = max(_reach(part._terms) for part in parts)
        reach += sum(k * max(map(abs, a)) for a, k in common.items())
        packing = _Packing((-reach,) * rank, [2 * reach + 1] * rank)
        lifts = {alpha: packing.key(alpha) for alpha in common}
        pending = [(packing.pack(part._terms), part._scale, part.factors) for part in parts]
        while len(pending) > 1:
            merged = [_merge(a, b, lifts) for a, b in zip(pending[::2], pending[1::2])]
            if len(pending) % 2:
                merged.append(pending[-1])
            pending = merged
        terms, scale, factors = pending[0]
        return cls._raw(rank, packing.unpack(terms), scale, factors)

    # -- queries -----------------------------------------------------------

    @property
    def numerator(self) -> LaurentPoly:
        """The integer terms and scale wrapped as a LaurentPoly."""
        return LaurentPoly._raw(self.rank, self._terms, self._scale)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def as_laurent(self) -> LaurentPoly:
        """Exact quotient numerator / denominator; the value must be polynomial.

        This is :meth:`reduced` with nothing left over: the integer
        numerator is divided by each factor in turn and the denominator is
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

    def _coerce(self, other):
        """A scalar as a constant, a value of this class as it is (same rank), else None."""
        if isinstance(other, (int, Fraction)):
            return LaurentPoly.constant(self.rank, other)
        if not isinstance(other, type(self)):
            return None
        if other.rank != self.rank:
            raise ValueError("rank mismatch: %d vs %d" % (self.rank, other.rank))
        return other

    __add__ = __radd__ = _coercing(lambda self, other: type(self).sum((self, other), self.rank))

    def __neg__(self):
        return self._raw(self.rank, {e: -c for e, c in self._terms.items()}, self._scale,
                         dict(self.factors))

    __sub__ = _coercing(lambda self, other: type(self).sum((self, -other), self.rank))
    __rsub__ = _coercing(lambda self, other: type(self).sum((-self, other), self.rank))

    @_coercing
    def __mul__(self, other):
        merged = dict(self.factors)
        for alpha, power in other.factors.items():
            merged[alpha] = merged.get(alpha, 0) + power
        return self._raw(
            self.rank, _product(self._terms, other._terms), self._scale * other._scale, merged
        )

    __rmul__ = __mul__

    def reduced(self) -> "FactoredRational":
        """Cancel denominator factors that divide the numerator exactly.

        Greedy, in sorted factor order: each factor (1 - q^alpha) is divided
        out of the integer numerator (see :func:`_chain_div`) until a trial
        division fails; the scale stays as it is.  The numerator is packed
        once in the box -R..R, R = r^2 + r with r the largest |coordinate| of
        its terms and factors, which holds every chain base; a quotient stays
        in its dividend's bounding box, so one box serves every factor.  Returns
        ``self`` when nothing cancels, and before packing when the
        coefficient sum is nonzero, since every binomial vanishes at q = 1.
        """
        if self.is_zero or not self.factors or sum(self._terms.values()):
            return self
        reach = max(_reach(self._terms), _reach(self.factors))
        reach += reach * reach
        packing = _Packing((-reach,) * self.rank, [2 * reach + 1] * self.rank)
        terms = packing.pack(self._terms)
        remaining = dict(self.factors)
        for alpha in sorted(remaining):
            terms, done = _chain_div(terms, packing, alpha, remaining[alpha])
            remaining[alpha] -= done
            if not remaining[alpha]:
                del remaining[alpha]
        if remaining == self.factors:
            return self
        return FactoredRational._raw(self.rank, packing.unpack(terms), self._scale, remaining)

    def mapped(self, matrix) -> "FactoredRational":
        """The value with q^e replaced by q^(matrix.e) everywhere, over the same scale.

        matrix is a tuple of rank rows of integers and must be invertible,
        such as a Weyl group element on weight coordinates (see
        RootSystem.to_dominant).  The factors are mapped and normalized as in
        the constructor, then the numerator in one pass with their unit.
        """
        if len(matrix) != self.rank or any(len(row) != self.rank for row in matrix):
            raise ValueError("a rank-%d value needs a %d x %d matrix" % ((self.rank,) * 3))
        factors, shift, sign = _flipped(zip(_apply(matrix, list(self.factors), repeat(0)),
                                            self.factors.values()), self.rank)
        values = self._terms.values()
        terms = dict(zip(_apply(matrix, list(self._terms), shift),
                         values if sign > 0 else map(neg, values)))
        if len(terms) != len(self._terms) or not all(map(any, factors)):
            raise ValueError("matrix is singular: two exponents share an image, or a factor's is 0")
        return FactoredRational._raw(self.rank, terms, self._scale, factors)

    @classmethod
    def shifted_sum(cls, parts, rank: int) -> "FactoredRational":
        """The sum of the c * q^beta * f over kronecker_sum's parts (f, c, beta), the f over one
        shared denominator, which is kept; one dict over the lcm of the scales, not reduced."""
        parts = list(parts)
        scale, total = lcm(*(f._scale for f, _, _ in parts)), {}
        for f, c, beta in parts:
            c *= scale // f._scale
            shifted = zip(*([x + b for x in coord] for coord, b in zip(zip(*f._terms), beta)))
            for e, v in zip(shifted, f._terms.values()):
                total[e] = total.get(e, 0) + c * v
        terms = {e: v for e, v in total.items() if v}
        return cls._raw(rank, terms, scale, dict(parts[0][0].factors))

    def _residue_pair(self) -> tuple[int, int]:
        """(numerator, denominator) at the seeded point modulo the prime, computed once."""
        if self._residue is None:
            seeds, below = _seeds(self.rank), self._scale
            for alpha, power in self.factors.items():
                if not (value := (1 - prod(map(pow, seeds, alpha, repeat(_PRIME)))) % _PRIME):
                    raise ExactDivisionError("(1 - q^%s) vanishes at the seeded point" % (alpha,))
                below = below * pow(value, power, _PRIME) % _PRIME
            self._residue = _at_seeds(self._terms, (0,) * self.rank), below
        return self._residue

    # -- evaluation and comparison ------------------------------------------

    def evaluate(self, point: Iterable) -> Fraction:
        """The value at point; the numerator first, so the point is checked before any factor."""
        values = tuple(Fraction(_exact(v)) for v in point)
        if len(values) != self.rank:
            raise ValueError("evaluation point has wrong length")
        total = Fraction(0)
        for exponent, coeff in self._terms.items():
            term = coeff
            for value, e in zip(values, exponent):
                term *= value ** e
            total += term
        value = total / self._scale
        for alpha, power in self.factors.items():
            factor = 1 - prod(map(pow, values, alpha))
            if factor == 0:
                raise PoleError("denominator factor vanishes at evaluation point")
            value /= factor ** power
        return value

    __eq__ = _coercing(lambda self, other: FactoredRational.sum((self, -other), self.rank).is_zero)
    __hash__ = None

    # -- presentation ------------------------------------------------------

    def to_json(self) -> dict:
        return {"num": self.numerator.to_json(), "den": [
            {"alpha": list(alpha), "power": self.factors[alpha]} for alpha in sorted(self.factors)]}

    def __str__(self) -> str:
        bits = ["(1 - %s)%s" % (LaurentPoly.monomial(alpha).render(), "^%d" % k if k > 1 else "")
                for alpha, k in sorted(self.factors.items())]
        num = self.numerator.render()
        return "(%s) / %s" % (num, "".join(bits)) if bits else num

    def __repr__(self) -> str:
        return "%s(%s)" % (type(self).__name__, self)


class LaurentPoly(FactoredRational):
    """Element of Q[q1^+-1, ..., qr^+-1]: a FactoredRational with no factors.

    >>> p = LaurentPoly.monomial((2,)) + 1
    >>> m = LaurentPoly.monomial((2,)) - 1
    >>> print(p * m)
    q^4 - 1
    >>> type(p * m).__name__, type(FactoredRational(p, [((1,), 1)]) * m).__name__
    ('LaurentPoly', 'FactoredRational')
    """

    __slots__ = ("_view",)

    def __init__(self, rank: int, terms: Mapping[Exponent, Fraction | int] | None = None):
        check_count(rank, "rank", 1)
        clean: dict[Exponent, int | Fraction] = {}
        for exponent, value in (terms or {}).items():
            exponent = check_exponent(exponent, rank)
            if _exact(value):
                clean[exponent] = value
        scale = lcm(*(c.denominator for c in clean.values()))
        ints = {e: c.numerator * (scale // c.denominator) for e, c in clean.items()}
        self._set(rank, ints, scale, None)

    # -- constructors ------------------------------------------------------

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

    # -- basic queries -----------------------------------------------------

    @property
    def terms(self) -> Mapping[Exponent, Fraction]:
        """The coefficients as a read-only {exponent vector: Fraction} mapping, built once."""
        try:
            return self._view
        except AttributeError:
            scale = self._scale
            self._view = MappingProxyType({e: Fraction(c, scale) for e, c in self._terms.items()})
            return self._view

    def coefficient(self, exponent: Iterable[int]) -> Fraction:
        return Fraction(self._terms.get(check_exponent(exponent, self.rank), 0), self._scale)

    def coefficient_sum(self) -> Fraction:
        return Fraction(sum(self._terms.values()), self._scale)

    def support(self) -> list[Exponent]:
        return sorted(self._terms)

    # -- arithmetic --------------------------------------------------------

    # Each side's terms times the other's scale, so equal values over two scales are equal;
    # nothing is packed, so the oracles compare values without the integer core.
    __eq__ = _coercing(lambda self, other: self._terms.keys() == other._terms.keys() and all(
        c * other._scale == other._terms[e] * self._scale for e, c in self._terms.items()))

    # The inherited product, bound here too so that a tracer of this class's own names sees it.
    __mul__ = __rmul__ = FactoredRational.__mul__

    def __pow__(self, power: int) -> "LaurentPoly":
        check_count(power, "exponent")
        base, result = self, LaurentPoly.one(self.rank)
        while power:
            result = result * base if power & 1 else result
            power >>= 1
            base = base * base if power else base
        return result

    def exact_div(self, divisor) -> "LaurentPoly":
        """Exact quotient self / divisor, for a divisor c*q^beta or c*q^beta*(1 - q^alpha).

        The dividend is shifted by -beta and scaled by 1/c; a binomial is
        then divided out by :meth:`FactoredRational.as_laurent`, which raises
        :class:`ExactDivisionError` when the quotient is not a polynomial.
        Any other divisor, such as 1 + q or 2 - q, raises ValueError.
        """
        coerced = self._coerce(divisor)
        if coerced is None:
            raise TypeError("cannot divide by %r" % (divisor,))
        if coerced.is_zero:
            raise ZeroDivisionError("division by the zero polynomial")
        (beta, c), *rest = sorted(coerced._terms.items())
        if len(rest) > 1 or (rest and rest[0][1] != -c):
            raise ValueError("exact_div divides by c*q^beta or c*q^beta*(1 - q^alpha) only")
        shifted = {tuple(map(sub, e, beta)): coeff for e, coeff in self._terms.items()}
        quotient = LaurentPoly._raw(self.rank, shifted, self._scale) * Fraction(coerced._scale, c)
        if not rest:
            return quotient
        alpha = tuple(map(sub, rest[0][0], beta))
        return FactoredRational(quotient, [(alpha, 1)]).as_laurent()

    # -- presentation ------------------------------------------------------

    def to_json(self) -> list[dict]:
        """The terms as JSON; each coefficient prints as Fraction does, from the integer terms."""
        json = []
        for exponent in sorted(self._terms):
            c = self._terms[exponent]
            g = gcd(c, self._scale)
            p, q = c // g, self._scale // g
            json.append({"exp": list(exponent), "coef": str(p) if q == 1 else "%d/%d" % (p, q)})
        return json

    def render(self) -> str:
        names = ("q",) if self.rank == 1 else tuple("q%d" % (i + 1) for i in range(self.rank))
        text = ""
        for exponent in sorted(self.terms, key=lambda e: (sum(e), e), reverse=True):
            coeff = self.terms[exponent]
            mono = "*".join(name if power == 1 else "%s^%d" % (name, power)
                            for name, power in zip(names, exponent) if power)
            size, sign = abs(coeff), "-" if coeff < 0 else "+"
            body = str(size) if not mono else mono if size == 1 else "%s*%s" % (size, mono)
            text += " %s %s" % (sign, body) if text else body if sign == "+" else "-" + body
        return text or "0"


# -- the Kronecker route: a polynomial sum as one power series in one int -------


def kronecker_sum(parts, lows: Exponent, highs: Exponent, total: int) -> LaurentPoly:
    """The sum of the c * q^beta * f over the (f, c, beta) in parts.

    The sum must be a polynomial in the box lows..highs with coefficients of one
    sign; a slot holds scale * total, and the caller checks the coefficient sum.  The
    box is a :class:`_Packing`, which decodes every slot; radix i >= 1 is widened past
    every |alpha_i|, so each (1 - q^alpha) maps to (1 - x^L) with L > 0.  Each
    numerator is laid out in two byte buffers, positive and negative coefficients
    apart, and divided by each (1 - x^L) as the product of the (1 + x^(L 2^i)) modulo
    2^K; with one window mask per part, each pass is one shift, one add and one mask.
    ExactDivisionError for a term outside the box or a failed point check.
    """
    radix = [h - l + 1 for l, h in zip(lows, highs)]
    alphas = {alpha for f, _, _ in parts for alpha in f.factors}
    radix[1:] = [max([r, *(abs(a[i]) + 1 for a in alphas)]) for i, r in enumerate(radix[1:], 1)]
    box, scale = _Packing(lows, radix), lcm(*(f._scale for f, _, _ in parts))
    strides, laid, big, low = box.strides, [], scale * total, 0
    for f, c, beta in parts:
        lift, shift, slots = c * (scale // f._scale), box.key(beta) - box.origin, {}
        for e, v in f._terms.items():
            key = sum(map(mul, e, strides)) + shift
            slots[key] = slots.get(key, 0) + lift * v
        if slots:
            big, low = max(big, *map(abs, slots.values())), min(low, *slots)
            laid.append((slots, f.factors))
    # A slot holds scale * total and every scaled coefficient, with a bit to
    # spare, in whole bytes; the window runs 64 bits past the box.
    bits, width, depth = (big.bit_length() + 8) // 8 * 8, radix[0] * strides[0], -low
    nb, top, value = bits // 8, width + -(-64 // bits), 0
    size = bits * (depth + top)
    for slots, factors in laid:
        # The part's series, from its lowest slot to the top of the window.
        low, high = min(slots), min(max(slots) + 1, top)
        length, span = max(high - low, 0) * nb, bits * max(top - low, 0)
        buffers = bytearray(length), bytearray(length)
        for key, v in slots.items():
            if key < high:
                start = (key - low) * nb
                buffers[v < 0][start:start + nb] = abs(v).to_bytes(nb, "little")
        x = int.from_bytes(buffers[0], "little") - int.from_bytes(buffers[1], "little")
        mask = (1 << span) - 1
        for alpha, power in factors.items():
            step = bits * sum(map(mul, alpha, strides))
            for shift in [step << i for i in range((span // step).bit_length())] * power:
                x = (x + (x << shift)) & mask
        value += x << bits * (low + depth)
    # The checks: a sum whose top 64 spare bits are all ones is read as the
    # negation of its digits; nothing may lie below the box or above it ...
    ones = (1 << 64) - 1
    sign = -1 if (value >> (size - 64) & ones) == ones else 1
    value = sign * value & ((1 << size) - 1)
    outside = value & ~(((1 << bits * width) - 1) << bits * depth)
    if outside:
        slot = ((outside & -outside).bit_length() - 1) // bits - depth
        raise ExactDivisionError("the sum has a term at %s, outside the box %s..%s"
                                 % (next(box.exponents([slot])), tuple(lows), tuple(highs)))
    raw, word = (value >> bits * depth).to_bytes(width * nb, "little"), 1 << (nb - 1).bit_length()
    if word <= 8 and sys.byteorder == "little":  # widen the digits to machine words, read at once
        wide = bytearray(width * word)
        for j in range(nb):
            wide[j::word] = raw[j::nb]
        digits = memoryview(wide).cast(" BH I   Q"[word])
    else:
        digits = [int.from_bytes(raw[i:i + nb], "little") for i in range(0, width * nb, nb)]
    values = filter(None, digits) if sign > 0 else map(neg, filter(None, digits))
    terms = dict(zip(box.exponents(list(compress(range(width), digits))), values))
    # ... and the digits agree with the parts at a seeded point modulo the
    # prime 2^61 - 1 (Schwartz-Zippel), where no factor may vanish.  Each part
    # keeps its residue, so a later sum costs one modular product per part;
    # both sides are taken times x^-lows, which keeps the powers nonnegative.
    num, den, seeds = 0, 1, _seeds(len(lows))
    for f, c, beta in parts:
        top, below = f._residue_pair()
        top *= c * prod(map(pow, seeds, map(sub, beta, lows), repeat(_PRIME)))
        num, den = (num * below + top * den) % _PRIME, den * below % _PRIME
    if not den or (_at_seeds(terms, lows) * den - scale * num) % _PRIME:
        raise ExactDivisionError("point check failed: the polynomial read on the box %s..%s "
                                 "is not the sum of the parts" % (tuple(lows), tuple(highs)))
    return LaurentPoly._raw(len(lows), terms, scale)


_PRIME = (1 << 61) - 1


@cache
def _seeds(rank: int) -> tuple[int, ...]:
    """The seeded point: x_i is SplitMix64's output from state i, modulo the prime.  Unlike the
    multiples x_i = (i + 1) c, with x_0 x_3 = x_1^2, they have no small multiplicative relation."""
    seeds = []
    for z in range(0x9E3779B97F4A7C15, 0x9E3779B97F4A7C15 + rank):
        z = (z ^ z >> 30) * 0xBF58476D1CE4E5B9 & 0xFFFFFFFFFFFFFFFF
        z = (z ^ z >> 27) * 0x94D049BB133111EB & 0xFFFFFFFFFFFFFFFF
        seeds.append((z ^ z >> 31) % _PRIME)
    return tuple(seeds)


def _at_seeds(terms: Mapping[Exponent, int], origin: Exponent) -> int:
    """The sum of the c * x^(e - origin) modulo the prime; one power table per coordinate."""
    tables = []
    for x, o, column in zip(_seeds(len(origin)), origin, zip(*terms)):
        low, high = min(column), max(column)
        tables.append(dict(zip(range(low, high + 1), accumulate(
            repeat(x, high - low), lambda a, b: a * b % _PRIME, initial=pow(x, low - o, _PRIME)))))
    return sum(map(mul, [prod(map(getitem, tables, e)) for e in terms], terms.values())) % _PRIME
