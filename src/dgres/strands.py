"""The index a complex's strand sweep reads (see `complexes`).

`Divisors` decides which monomials of a fixed list divide b with a few
integer operations (`dg.SubmoduleSpan` finds its generators by it too); `StrandIndex` groups a complex's labels by multidegree
and holds its differentials evaluated at x=1, as sparse columns for
`linalg.rank`.  At x=1 a homogeneous entry c * (m_c / m_r) is its stored
coefficient c, so the columns are read off the stored differential; only a
Polynomial entry, the fallback of an inhomogeneous complex, is evaluated.
"""

from __future__ import annotations

from operator import le
from typing import TYPE_CHECKING, Sequence

from .poly import Monomial, PolyError, Polynomial, VariableSet, exact

if TYPE_CHECKING:
    from .complexes import BasisLabel, LabeledFreeComplex


class Divisors:
    """Which monomials of a fixed list divide b, as a bitset of positions:
    the AND of `avoid[j]` (the monomials without variable j) over the
    variables j that b lacks, then the exponent test on the non-squarefree
    monomials left.  This is `Monomial.divides`, multiplicity included."""

    def __init__(self, monomials: Sequence[Monomial], ring: VariableSet):
        self.ring, self.every = ring, (1 << len(monomials)) - 1
        self.avoid = [0] * len(ring)
        self.powers = [(k, m.exponents) for k, m in enumerate(monomials) if not m.is_squarefree()]
        for k, m in enumerate(monomials):
            for j, e in enumerate(m.exponents):
                if not e:
                    self.avoid[j] |= 1 << k

    def of(self, b: Monomial) -> int:
        if self.every and b.ring != self.ring:
            raise PolyError("monomials over different rings")
        found = self.every
        for j, e in enumerate(b.exponents):
            if not e:
                found &= self.avoid[j]
        for k, exps in self.powers:
            if found >> k & 1 and not all(map(le, exps, b.exponents)):
                found ^= 1 << k
        return found


def scalar_columns(
    F: LabeledFreeComplex,
    i: int,
    rows: Sequence[BasisLabel],
    cols: Sequence[BasisLabel],
) -> list[dict]:
    """The columns `cols` of d_i on the rows `rows` at x=1, as {row
    position: value} without zeros: the stored coefficient, or a Polynomial
    entry's value at x=1 (an int when integral)."""
    row_of = {r: k for k, r in enumerate(rows)}
    d = F.diff.get(i, {})
    out = []
    for c in cols:
        col = {}
        for r, v in d.get(c, {}).items():
            k = row_of.get(r)
            if k is not None and (v := exact(v.eval_ones()) if type(v) is Polynomial else v):
                col[k] = v
        out.append(col)
    return out


class StrandIndex:
    """What the strand sweep reads, built once per complex: its labels
    grouped by multidegree (`groups` finds the groups dividing b, and
    `group_of[i][k]` is the group of label k in degree i) and `columns[i]`,
    the columns of d_i evaluated at x=1."""

    def __init__(self, cx: LabeledFreeComplex):
        number: dict[Monomial, int] = {}
        self.group_of = [
            [number.setdefault(l.multidegree, len(number)) for l in cx.labels(i)]
            for i in cx.degrees()
        ]
        self.groups = Divisors(list(number), cx.ring)
        self.columns = {
            i: scalar_columns(cx, i, cx.labels(i - 1), cx.labels(i)) for i in cx.degrees() if i
        }

    def positions(self, groups: int) -> list[list[int]]:
        """Label positions per degree of the strand made of a bitset of groups."""
        return [[k for k, g in enumerate(gs) if groups >> g & 1] for gs in self.group_of]
