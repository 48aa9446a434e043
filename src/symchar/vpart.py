"""Vector partition functions built from weight data.

A module's weights (with multiplicity repetition) become the columns of an
integer matrix, extended by an all-ones grading row; the table carries its
root system and was checked Weyl symmetric when built.  Counting lattice
points of A x = b then reproduces the weight multiplicities of the
symmetric powers, which check_partition_equivalence verifies against the
character pipeline.  The grading row caps every coordinate of x by the last
entry of b, so plain enumeration with per-row suffix bounds is exact.
"""

from __future__ import annotations

from itertools import accumulate

from ._base import Frozen
from .charformula import character_at, multiplicity_at
from .pfdcore import pfd_decompose
from .polyring import check_count
from .weightsys import MultiplicityTable

__all__ = [
    "PartitionMatrix",
    "build_partition_matrix",
    "count_solutions",
    "check_partition_equivalence",
]


class PartitionMatrix(Frozen):
    """Integer matrix whose columns are module weights plus a grading row.

    The all-ones last row forces ker(A) to meet the non-negative orthant
    only in 0, so the solution count below is always finite.
    """

    entries: tuple[tuple[int, ...], ...]

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0])

    def weight_columns(self) -> list[tuple[int, ...]]:
        """The columns restricted to the first rows - 1 entries."""
        return [
            tuple(self.entries[i][j] for i in range(self.rows - 1))
            for j in range(self.cols)
        ]

    def to_json(self) -> list[list[int]]:
        return [list(row) for row in self.entries]


def build_partition_matrix(table: MultiplicityTable) -> PartitionMatrix:
    """Assemble the weight matrix of the module, columns sorted for determinism."""
    columns = sorted((mu for mu, m in table.entries.items() for _ in range(m)), reverse=True)
    rows = [tuple(col[i] for col in columns) for i in range(table.rank)] + [(1,) * len(columns)]
    return PartitionMatrix(entries=tuple(rows))


def count_solutions(matrix: PartitionMatrix, target) -> int:
    """Number of non-negative integer vectors x with matrix * x = target.

    The last row of the matrix is all ones, so the last entry of the target
    bounds the total of x; enumeration walks the columns with per-row
    suffix min/max pruning.
    """
    target = tuple(target)
    if len(target) != matrix.rows:
        raise ValueError("target vector has length %d, expected %d" % (len(target), matrix.rows))
    if not all(type(entry) is int for entry in target):
        raise ValueError("target entries must be integers, got %r" % (target,))
    budget = target[-1]
    if budget < 0:
        return 0
    goals = target[:-1]
    columns = matrix.weight_columns()
    d = len(columns)
    # bounds[j]: the minimum and the maximum of each row over columns j..d-1.
    bounds = list(accumulate(
        ((column, column) for column in reversed(columns)),
        lambda seen, new: (tuple(map(min, seen[0], new[0])), tuple(map(max, seen[1], new[1]))),
    ))[::-1]

    def walk(index: int, remaining: int, residual: tuple[int, ...]) -> int:
        if index == d:
            return 1 if remaining == 0 and not any(residual) else 0
        for res, low, high in zip(residual, *bounds[index]):
            if not remaining * low <= res <= remaining * high:
                return 0
        column = columns[index]
        total = 0
        for x in range(remaining + 1):
            total += walk(
                index + 1,
                remaining - x,
                tuple(res - x * col for res, col in zip(residual, column)),
            )
        return total

    return walk(0, budget, goals)


def check_partition_equivalence(table: MultiplicityTable, n_max: int) -> dict:
    """Compare lattice-point counts with pipeline multiplicities for all degrees <= n_max.

    Failures are reported in the returned record, never raised.
    """
    check_count(n_max, "degree bound")
    matrix = build_partition_matrix(table)
    closed = pfd_decompose(table)
    cases = []
    for n in range(n_max + 1):
        character = character_at(closed, n)
        for mu in character.support():
            expected = multiplicity_at(character, mu)
            counted = count_solutions(matrix, (*mu, n))
            cases.append(
                {
                    "N": n,
                    "mu": list(mu),
                    "count": counted,
                    "multiplicity": expected,
                    "ok": counted == expected,
                }
            )
    return {
        "matrix": matrix.to_json(),
        "cases": cases,
        "all_pass": all(case["ok"] for case in cases),
    }
