"""Exact sparse linear algebra over the rationals.

Columns are sparse dicts {row: value}, with ordered row keys and nonzero int
or Fraction values; inputs are not modified.  `rank` and `solve` share one
reduction (`_reduce`): a column is reduced against the stored pivot columns
at its lowest row until that row is new (a pivot) or the column vanishes.  A
+-1 pivot is its own inverse, so integer columns stay integral; any other
pivot is inverted as a Fraction.

Neither the pivot row nor the value types can change a rank: the rank of a
matrix does not depend on the order in which its rows are used as pivots
(pivoting on the highest row instead of the lowest gives the same count),
and an int compares equal to the Fraction of the same value, so keeping
integral values as Fractions changes the speed, not a single comparison.

`solve` reduces the columns left to right, so the pivot columns are exactly
those not in the span of the columns before them, as in Gauss-Jordan
elimination, and it tracks each pivot column as a combination of input
columns.  The solution it returns sets the free variables to 0; since the
pivot columns are independent, that solution is unique.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence


def _axpy(acc: dict, f, vec: dict) -> None:
    """acc -= f * vec, in place, dropping entries that cancel."""
    for r, v in vec.items():
        w = acc.get(r, 0) - f * v
        if w:
            acc[r] = w
        else:
            del acc[r]


def _reduce(col: dict, pivots: dict, combo: dict | None = None):
    """Reduce `col` in place at its lowest row until that row holds no pivot;
    return that row, or None when the column vanishes.  `pivots` maps a row
    to (reduced column, inverse of its entry there, its combination); when
    `combo` is given, the same multiples of the combinations are subtracted
    from it."""
    while col:
        low = max(col)
        hit = pivots.get(low)
        if hit is None:
            return low
        pcol, inv, pcombo = hit
        f = col[low] * inv
        _axpy(col, f, pcol)
        if combo is not None:
            _axpy(combo, f, pcombo)
    return None


def _pivot(pivots: dict, low, col: dict, combo: dict | None = None) -> None:
    v = col[low]
    pivots[low] = (col, v if v in (1, -1) else 1 / Fraction(v), combo)


def rank(columns: Iterable[dict]) -> int:
    """Rank over Q of the matrix with the given sparse columns."""
    pivots: dict = {}
    for col in columns:
        col = dict(col)
        low = _reduce(col, pivots)
        if low is not None:
            _pivot(pivots, low, col)
    return len(pivots)


def solve(columns: Sequence[dict], rhs: dict) -> list | None:
    """One solution x of sum_j x_j columns[j] = rhs, with the free variables
    set to 0, or None when there is none.  Entries of x are int or Fraction."""
    pivots: dict = {}
    for j, col in enumerate(columns):
        col, combo = dict(col), {j: 1}
        low = _reduce(col, pivots, combo)
        if low is not None:
            _pivot(pivots, low, col, combo)
    # rhs reduces to rhs - A y, and `neg` collects -y
    b, neg = dict(rhs), {}
    if _reduce(b, pivots, neg) is not None:
        return None
    return [-neg.get(j, 0) for j in range(len(columns))]
