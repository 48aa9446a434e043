"""Root systems and Weyl-group combinatorics for the simple complex Lie algebras.

A root system is stored as its type (series, rank); the Cartan matrix, the
symmetrizer, rho and the positive roots are derived from it once and kept.
Weights are kept in fundamental-weight coordinates throughout: the tuple
(c1, ..., cr) stands for c1*w1 + ... + cr*wr.  Simple-root coordinates are
derived on demand through the inverse Cartan matrix.  The Cartan matrix
convention is C[i][j] = 2(a_i, a_j)/(a_i, a_i), so the j-th simple root has
fundamental-weight coordinates equal to the j-th column of C.

The one Weyl-group primitive, RootSystem.to_dominant, gives a weight's dominant weight
and a group element back to it, for pfdcore's transport and charformula's orbits.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from operator import mul

from ._checks import InconsistencyError
from ._memo import Frozen, recall

Weight = tuple[int, ...]

__all__ = [
    "Weight",
    "RootSystem",
    "build_root_system",
    "from_label",
    "parse_label",
    "is_dominant",
    "positive_root_count",
    "weight_sum",
    "weight_diff",
    "weight_scale",
]


def weight_sum(a: Weight, b: Weight) -> Weight:
    return tuple(x + y for x, y in zip(a, b))


def weight_diff(a: Weight, b: Weight) -> Weight:
    return tuple(x - y for x, y in zip(a, b))


def weight_scale(factor: int, a: Weight) -> Weight:
    return tuple(factor * x for x in a)


def is_dominant(mu: Weight) -> bool:
    return all(c >= 0 for c in mu)


# Per series, as functions of the rank: (is the rank valid, number of
# positive roots).
_SERIES = {
    "A": (lambda r: r >= 1, lambda r: r * (r + 1) // 2),
    "B": (lambda r: r >= 2, lambda r: r * r),
    "C": (lambda r: r >= 3, lambda r: r * r),
    "D": (lambda r: r >= 4, lambda r: r * (r - 1)),
    "E": (lambda r: r in (6, 7, 8), {6: 36, 7: 63, 8: 120}.get),
    "F": (lambda r: r == 4, lambda r: 24),
    "G": (lambda r: r == 2, lambda r: 6),
}


def positive_root_count(series: str, rank: int) -> int:
    series, rank = _check_type(series, rank)
    return _SERIES[series][1](rank)


def _invert(matrix) -> tuple[tuple[tuple[int, ...], ...], int]:
    """(adj, det) with matrix^-1 == adj / det and det > 0, for a nonsingular integer matrix.

    Fraction-free Gauss-Jordan elimination (Bareiss 1968) on [matrix | I]:
    each step multiplies every other row by the pivot and divides it exactly
    by the previous pivot, so all entries stay integers (minors of the
    matrix).  The left block ends as det * I, the right block as det * inverse.
    """
    n = len(matrix)
    work = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(matrix)]
    previous = 1
    for col in range(n):
        pivot = next(r for r in range(col, n) if work[r][col])
        work[col], work[pivot] = work[pivot], work[col]
        top = work[col]
        current = top[col]
        for r in range(n):
            if r != col:
                factor = work[r][col]
                work[r] = [(current * x - factor * y) // previous for x, y in zip(work[r], top)]
        previous = current
    sign = 1 if previous > 0 else -1
    return tuple(tuple(sign * x for x in row[n:]) for row in work), sign * previous


class RootSystem(Frozen):
    """The root system of one simple type, stored as its type (series, rank).

    Making one checks the type and runs the root closure; everything else
    is derived once, when first needed.  Roots are in fundamental-weight
    coordinates, where rho, the half-sum of the positive roots, is (1, ..., 1).
    """

    series: str
    rank: int

    def __post_init__(self):
        """Check the type, then run the root closure, which checks the root count."""
        if _check_type(self.series, self.rank) != (self.series, self.rank):
            raise ValueError("series must be upper case, not %r" % (self.series,))
        self.positive_roots

    @cached_property
    def cartan_matrix(self) -> tuple[tuple[int, ...], ...]:
        """C[i][j] = 2(a_i, a_j)/(a_i, a_i) in the Bourbaki numbering, as a tuple of rows."""
        series, rank = self.series, self.rank
        matrix = [[2 * int(i == j) for j in range(rank)] for i in range(rank)]

        def chain(nodes):
            for a, b in zip(nodes, nodes[1:]):
                matrix[a][b] = matrix[b][a] = -1

        if series == "A":
            chain(range(rank))
        elif series == "B":
            chain(range(rank))
            matrix[rank - 1][rank - 2] = -2  # last simple root short
        elif series == "C":
            chain(range(rank))
            matrix[rank - 2][rank - 1] = -2  # last simple root long
        elif series == "D":
            chain(range(rank - 1))
            matrix[rank - 3][rank - 1] = matrix[rank - 1][rank - 3] = -1
        elif series == "E":
            chain([0] + list(range(2, rank)))
            matrix[1][3] = matrix[3][1] = -1
        elif series == "F":
            chain(range(4))
            matrix[2][1] = -2  # third and fourth simple roots short
        else:  # G, the one series left after _check_type
            matrix[0][1] = -3  # first simple root short
            matrix[1][0] = -1
        return tuple(tuple(row) for row in matrix)

    @cached_property
    def symmetrizer(self) -> tuple[Fraction, ...]:
        """diag(d) with D*C symmetric: d_1 = 1 and d_j = d_i*C_ij/C_ji along each Dynkin edge."""
        matrix = self.cartan_matrix
        d = [Fraction(1)] + [None] * (self.rank - 1)
        reached = [0]
        for i in reached:
            for j, c in enumerate(matrix[i]):
                if c and d[j] is None:
                    d[j] = d[i] * c / matrix[j][i]
                    reached.append(j)
        return tuple(d)

    @cached_property
    def rho(self) -> Weight:
        return (1,) * self.rank

    @cached_property
    def positive_roots(self) -> tuple[Weight, ...]:
        """The positive roots, sorted by height and then lexicographically.

        They are generated by reflection closure from the simple roots,
        each with its integer height: s_i lowers the height of beta by
        <beta, a_i^v> = beta[i], and a root is positive exactly when its
        height is.  The classical count for the type is checked afterwards.
        """
        rank, cartan = self.rank, self.cartan_matrix
        simple_roots = [tuple(cartan[k][j] for k in range(rank)) for j in range(rank)]
        heights = dict.fromkeys(simple_roots, 1)
        frontier = list(simple_roots)
        while frontier:
            nxt = []
            for beta in frontier:
                for i, alpha in enumerate(simple_roots):
                    coeff = beta[i]
                    image = tuple(b - coeff * a for b, a in zip(beta, alpha))
                    if image not in heights:
                        heights[image] = heights[beta] - coeff
                        nxt.append(image)
            frontier = nxt

        positive = [beta for beta, height in heights.items() if height > 0]
        positive.sort(key=lambda beta: (heights[beta], beta))

        expected = positive_root_count(self.series, rank)
        if len(positive) != expected or len(heights) != 2 * expected:
            raise InconsistencyError(
                "root closure for %s%d gave %d positive of %d roots, expected %d positive"
                % (self.series, rank, len(positive), len(heights), expected)
            )
        return tuple(positive)

    @property
    def label(self) -> str:
        return "%s%d" % (self.series, self.rank)

    @cached_property
    def _cartan_inverse(self) -> tuple[tuple[tuple[int, ...], ...], int]:
        return _invert(self.cartan_matrix)

    @cached_property
    def integral_form(self) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...], int]:
        """The invariant form as integers over one scale: (gram, heights, scale).

        gram/scale is the Gram matrix of the fundamental weights, diag(d) * C^-1,
        and heights/scale holds the column sums of C^-1, so that
        (mu, nu) = mu.gram.nu / scale and height(mu) = heights.mu / scale.
        scale is the lcm of all their denominators: everything is first put
        over det(C) * lcm(denominators of d) and then divided by the gcd.
        """
        adj, det = self._cartan_inverse
        common = det * lcm(*(d.denominator for d in self.symmetrizer))
        gram = [
            [d.numerator * (common // (d.denominator * det)) * x for x in row]
            for d, row in zip(self.symmetrizer, adj)
        ]
        heights = [sum(column) * (common // det) for column in zip(*adj)]
        g = gcd(common, *heights, *(x for row in gram for x in row))
        return (
            tuple(tuple(x // g for x in row) for row in gram),
            tuple(h // g for h in heights),
            common // g,
        )

    def simple_root(self, i: int) -> Weight:
        """The i-th simple root (1-based) in fundamental-weight coordinates."""
        if not 1 <= i <= self.rank:
            raise IndexError("simple-root index %d out of range 1..%d" % (i, self.rank))
        return tuple(row[i - 1] for row in self.cartan_matrix)

    def reflect(self, i: int, mu: Weight) -> Weight:
        """Simple reflection s_i(mu) = mu - <mu, a_i^v> a_i (1-based index)."""
        alpha = self.simple_root(i)
        coeff = mu[i - 1]
        return tuple(m - coeff * a for m, a in zip(mu, alpha))

    def to_dominant(self, mu: Weight) -> tuple[Weight, tuple[tuple[int, ...], ...]]:
        """(nu, matrix): the dominant weight nu of mu's Weyl orbit and a group element back to mu.

        matrix is the integer matrix, as a tuple of rows, of a Weyl group element w
        on weight coordinates with w(nu) == mu.  The descent applies s_i(e) = e - e_i a_i
        at the first negative coordinate i until none is left; each s_i multiplies the
        matrix M on the right, which takes M a_i from column i of M.
        """
        nu, simple_roots = list(checked_weight(self, mu)), list(zip(*self.cartan_matrix))
        rows = [[int(r == c) for c in range(self.rank)] for r in range(self.rank)]
        while (i := next((i for i, c in enumerate(nu) if c < 0), None)) is not None:
            alpha, coeff = simple_roots[i], nu[i]
            nu = [x - coeff * a for x, a in zip(nu, alpha)]
            for row in rows:
                row[i] -= sum(map(mul, row, alpha))
        return tuple(nu), tuple(map(tuple, rows))

    def inner(self, mu, nu) -> Fraction:
        """Weyl-invariant symmetric form on the weight space, exact."""
        gram, _, scale = self.integral_form
        mu, nu = checked_weight(self, mu), checked_weight(self, nu)
        total = 0
        for i, a in enumerate(mu):
            if a:
                row = gram[i]
                total += a * sum(row[j] * b for j, b in enumerate(nu) if b)
        return Fraction(total, scale)

    def root_coordinates(self, mu) -> tuple[Fraction, ...]:
        """Coordinates of mu in the simple-root basis (exact rationals)."""
        adj, det = self._cartan_inverse
        mu = checked_weight(self, mu)
        return tuple(Fraction(sum(a * m for a, m in zip(row, mu)), det) for row in adj)

    def height(self, mu) -> Fraction:
        """Sum of the simple-root coordinates of mu."""
        _, heights, scale = self.integral_form
        return Fraction(sum(h * m for h, m in zip(heights, checked_weight(self, mu))), scale)


def checked_weight(rs: RootSystem, mu) -> Weight:
    """mu as a tuple, or ValueError unless it has rs.rank int (not bool) coordinates."""
    mu = tuple(mu)
    if len(mu) != rs.rank:
        raise ValueError("weight %s does not have the rank of %s" % (mu, rs.label))
    if not all(type(c) is int for c in mu):
        raise ValueError("non-integer weight %r" % (mu,))
    return mu


def _check_type(series: str, rank: int) -> tuple[str, int]:
    """The (series, rank) of a simple type, checked but not built; series upper-cased."""
    if not isinstance(series, str) or series.upper() not in _SERIES:
        raise ValueError("unknown series %r; expected one of A..G" % (series,))
    series = series.upper()
    if type(rank) is not int or not _SERIES[series][0](rank):
        raise ValueError(
            "invalid rank %r for series %s (A: r>=1, B: r>=2, C: r>=3, D: r>=4, "
            "E: 6..8, F: 4, G: 2)" % (rank, series)
        )
    return series, rank


# Built root systems by checked (series, rank); see _memo.
_ROOT_SYSTEMS: dict[tuple[str, int], RootSystem] = {}


def build_root_system(series: str, rank: int) -> RootSystem:
    """The root system of the given simple type, built once and then shared.

    The type is checked on every call; the memo is keyed on the checked
    (series, rank), so ``from_label`` shares it.
    """
    key = _check_type(series, rank)
    return recall(_ROOT_SYSTEMS, key, lambda: RootSystem(*key))


_LABEL_RE = re.compile(r"^([A-Ga-g])(\d+)$")


def parse_label(label: str) -> tuple[str, int]:
    """The checked (series, rank) of a selector string such as "A2" or "G2"."""
    match = _LABEL_RE.match(label.strip())
    if not match:
        raise ValueError("malformed algebra label %r (expected e.g. A1, B2, G2)" % (label,))
    return _check_type(match.group(1), int(match.group(2)))


def from_label(label: str) -> RootSystem:
    """The root system of a selector string such as "A2" or "G2" (built once, then shared)."""
    return build_root_system(*parse_label(label))
