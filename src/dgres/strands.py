"""The index a complex's strand sweep reads (see `complexes`).

`Divisors` decides which monomials of a fixed list divide b with a few
integer operations (`dg.SubmoduleSpan` finds its generators by it too).
`StrandIndex` holds one `Divisors` per degree of a complex, over its label
multidegrees, so the b-strand is one int per degree: the positions of the
labels whose multidegree divides b.  `masks(b)` reads them for one b, and
`sweep` walks them over every squarefree b of the active variables without
building a monomial, ANDing each mask with a variable's `avoid` mask as it
excludes that variable.

Ranks.  The index keeps each column of d_i mod 2 as an int over the row
positions of degree i-1, so a strand's matrix mod 2 is `column & rows` and
its rank an XOR basis.  That answer is kept only when it is provably the
one over Q:
- the rank mod 2 of an integer matrix is at most its rank over Q, so
  h^Q <= h^(2) in every degree;
- once `verify()` is ok, d^2 = 0 and the strand is a subcomplex, so
  h^Q >= 0;
- both sides have the same Euler characteristic, the alternating sum of
  the strand's ranks;
- so if h^(2) is nonzero in at most one degree, then h^Q = h^(2): the
  other degrees are 0 on both sides and the Euler characteristic fixes the
  last.
Every other strand is decided by exact `linalg.rank` on the stored
coefficients, which are the differentials at x=1 (`scalar_columns`, built
by the first strand that needs them): one whose mod-2 homology is nonzero
in two or more degrees, one with an entry that is not an int, and every
strand of a complex that did not verify.  So the cached value is always the
homology over Q.  At x=1 an entry c * (m_c / m_r) is its stored
coefficient c, the only form a complex stores.
"""

from __future__ import annotations

from operator import and_, le
from typing import TYPE_CHECKING, Iterator, Sequence

from . import linalg
from .poly import Monomial, PolyError, VariableSet, _squarefree_variables

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

    def squarefree(self) -> int:
        """The monomials that can divide a squarefree b of the active
        variables: squarefree, without an inactive variable."""
        found = self.every
        for k, _ in self.powers:
            found &= ~(1 << k)
        for j, active in enumerate(self.ring.active):
            if not active:
                found &= self.avoid[j]
        return found


def positions(mask: int) -> list[int]:
    """The positions of the set bits of `mask`, in increasing order."""
    return [k for k in range(mask.bit_length()) if mask >> k & 1]


def scalar_columns(d: dict, rows: Sequence[BasisLabel], cols: Sequence[BasisLabel]) -> list[dict]:
    """The columns `cols` of a differential `d` ({column label: {row label:
    stored coefficient}}) on the rows `rows` at x=1, as {row position:
    coefficient}."""
    row_of = {r: k for k, r in enumerate(rows)}
    return [{row_of[r]: v for r, v in d.get(c, {}).items() if r in row_of} for c in cols]


def rank_mod2(columns: Sequence[int], cols: int, rows: int) -> int:
    """Rank over GF(2) of the columns at the positions in `cols`, each cut
    to `rows`: an XOR basis keyed by each vector's highest bit."""
    basis: dict[int, int] = {}
    while cols:
        low = cols & -cols
        cols ^= low
        v = columns[low.bit_length() - 1] & rows
        while v:
            top = v.bit_length()
            p = basis.get(top)
            if p is None:
                basis[top] = v
                break
            v ^= p
    return len(basis)


class StrandIndex:
    """What the strand sweep reads, built once per complex: `divisors[i]`,
    a `Divisors` over the multidegrees of the degree-i labels; when the
    complex verified, `odd[i]`, each column of d_i mod 2 over the row
    positions, and `inexact[i]`, the (column, rows) of entries that are not
    ints; and `cache`, the homology over Q of each strand computed so far,
    keyed by its masks."""

    def __init__(self, cx: LabeledFreeComplex, verified: bool):
        self.ring = cx.ring
        self.bases = [cx.labels(i) for i in cx.degrees()]
        self.diff = cx.diff
        self.divisors = [Divisors([l.multidegree for l in ls], cx.ring) for ls in self.bases]
        self.verified = verified
        self.odd: dict[int, list[int]] = {}
        self.inexact: dict[int, list[tuple[int, int]]] = {}
        self.columns: dict[int, list[dict]] | None = None  # exact, built on demand
        self.cache: dict[tuple[int, ...], tuple[int, ...]] = {}
        if verified:
            for i in range(1, len(self.bases)):
                row_bit = {r: 1 << k for k, r in enumerate(self.bases[i - 1])}
                d = self.diff.get(i, {})
                self.odd[i], self.inexact[i] = odd, inexact = [], []
                for c in self.bases[i]:
                    bits = other = 0
                    for r, v in d.get(c, {}).items():
                        if type(v) is not int:
                            other |= row_bit.get(r, 0)
                        elif v & 1:
                            bits |= row_bit.get(r, 0)
                    if other:
                        inexact.append((len(odd), other))
                    odd.append(bits)

    def masks(self, b: Monomial) -> tuple[int, ...]:
        """The b-strand: per degree, the labels whose multidegree divides b."""
        return tuple(d.of(b) for d in self.divisors)

    def sweep(self, extra: Divisors) -> Iterator[tuple[int, int, tuple[int, ...]]]:
        """(t, extra's mask, the strand's masks) for every squarefree b of
        the active variables, in `squarefree_monomials` order: b holds the
        k-th active variable when bit n-1-k of t is set.  A depth-first walk
        that keeps only the current chain of masks, one tuple per variable
        decided, `extra`'s mask first."""
        act = _squarefree_variables(self.ring)
        divisors = [extra, *self.divisors]
        avoid = [tuple(d.avoid[j] for d in divisors) for j in act]
        n = len(act)
        chain = [tuple(d.squarefree() for d in divisors)]
        for k in range(n):  # t = 0 excludes every variable
            chain.append(tuple(map(and_, chain[k], avoid[k])))
        yield 0, chain[n][0], chain[n][1:]
        for t in range(1, 1 << n):
            # the variable at level k turns on and every later one off
            k = n - (t ^ (t - 1)).bit_length()
            chain[k + 1] = chain[k]
            for m in range(k + 1, n):
                chain[m + 1] = tuple(map(and_, chain[m], avoid[m]))
            yield t, chain[n][0], chain[n][1:]

    def monomial(self, t: int) -> Monomial:
        """The b of the sweep's strand t."""
        act = _squarefree_variables(self.ring)
        exps = [0] * len(self.ring)
        for k, j in enumerate(act):
            exps[j] = t >> (len(act) - 1 - k) & 1
        return Monomial(self.ring, tuple(exps))

    def homology(self, masks: tuple[int, ...]) -> tuple[int, ...]:
        """Dimensions over Q of the homology of the strand, degree 0..top."""
        h = self.cache.get(masks)
        if h is None:
            h = self.cache[masks] = self._mod2(masks) or self._exact(masks)
        return h

    def _mod2(self, masks: tuple[int, ...]) -> tuple[int, ...] | None:
        """The homology mod 2 when it is the one over Q (see the module
        docstring), else None."""
        if not self.verified:
            return None
        ranks = [0] * (len(masks) + 1)  # ranks[i]: rank of d_i on the strand
        for i in range(1, len(masks)):
            rows, cols = masks[i - 1], masks[i]
            if rows and cols:
                if any(cols >> c & 1 and bad & rows for c, bad in self.inexact[i]):
                    return None
                ranks[i] = rank_mod2(self.odd[i], cols, rows)
        h = tuple(m.bit_count() - ranks[i] - ranks[i + 1] for i, m in enumerate(masks))
        return h if len(h) - h.count(0) <= 1 else None

    def _exact(self, masks: tuple[int, ...]) -> tuple[int, ...]:
        if self.columns is None:
            self.columns = {
                i: scalar_columns(self.diff.get(i, {}), self.bases[i - 1], self.bases[i])
                for i in range(1, len(self.bases))
            }
        ranks = [0] * (len(masks) + 1)
        for i in range(1, len(masks)):
            rows, cols = masks[i - 1], masks[i]
            if rows and cols:
                ranks[i] = linalg.rank(
                    {r: v for r, v in self.columns[i][c].items() if rows >> r & 1}
                    for c in positions(cols)
                )
        return tuple(m.bit_count() - ranks[i] - ranks[i + 1] for i, m in enumerate(masks))
