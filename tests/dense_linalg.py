"""Dense Gauss-Jordan elimination over Q, the oracle for `dgres.linalg`.

`rref` and `solve` work on dense row-list matrices with fraction pivots;
`solve` sets the free variables to 0.  The tests compare the sparse kernel
against them: ranks by counting pivots, solutions value for value.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

Matrix = list[list[Fraction]]


def _check(mat: Sequence[Sequence]) -> Matrix:
    out = []
    width = None
    for row in mat:
        r = []
        for x in row:
            if isinstance(x, float):
                raise TypeError("floating point is not allowed in exact linear algebra")
            r.append(Fraction(x))
        if width is None:
            width = len(r)
        elif len(r) != width:
            raise ValueError("ragged matrix")
        out.append(r)
    return out


def rref(mat: Sequence[Sequence]) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form; returns (R, pivot_column_indices)."""
    a = _check(mat)
    if not a:
        return [], []
    rows, cols = len(a), len(a[0])
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        pr = next((i for i in range(r, rows) if a[i][c] != 0), None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        pv = a[r][c]
        a[r] = [x / pv for x in a[r]]
        for i in range(rows):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return a, pivots


def solve(mat: Sequence[Sequence], rhs: Sequence) -> list[Fraction] | None:
    """One particular solution of A x = b (free variables set to 0), or None."""
    a = _check(mat)
    b = [Fraction(x) for x in rhs]
    if not a:
        return [] if not any(b) else None
    rows, cols = len(a), len(a[0])
    if len(b) != rows:
        raise ValueError("rhs length mismatch")
    aug = [a[i] + [b[i]] for i in range(rows)]
    R, pivots = rref(aug)
    if cols in pivots:
        return None  # inconsistent: pivot in the rhs column
    x = [Fraction(0)] * cols
    for r, pc in enumerate(pivots):
        x[pc] = R[r][cols]
    return x
