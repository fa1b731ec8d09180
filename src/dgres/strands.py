"""The index a complex's strand check reads (see `complexes`).

`Divisors` decides which members of fixed lists of monomials divide b with
a few integer operations on unary masks (`poly.UnaryCode`); `dg.SubmoduleSpan`
finds its generators by it too.  `StrandIndex` holds one `Divisors` over
the generators of an ideal and the label multidegrees of a complex, degree
by degree, so the b-strand is one int per degree: the positions of the
labels whose multidegree divides b.  `masks(b)` reads them for one
monomial b, and `lattice` walks them over the lcm lattice of the
generators and labels, 1 included, without building a monomial.

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

from itertools import chain
from operator import and_
from typing import TYPE_CHECKING, Iterator, Sequence

from . import linalg
from .poly import Monomial, PolyError, UnaryCode, VariableSet

if TYPE_CHECKING:
    from .complexes import BasisLabel, LabeledFreeComplex


class Divisors:
    """Which members of fixed lists of monomials divide b, one bitset of
    positions per list.  The members are written as unary masks
    (`poly.UnaryCode`; `distinct` holds each mask once, the first list's
    first), and `avoid[p]` holds, per list, the members whose mask lacks
    bit p.  The members dividing b are then the AND of `avoid[p]` over the
    bits p that b's mask lacks (`within`).  This is `Monomial.divides`,
    multiplicity included."""

    def __init__(self, lists: Sequence[Sequence[Monomial]], ring: VariableSet):
        distinct = dict.fromkeys(chain.from_iterable(lists))
        self.code = UnaryCode(distinct, ring)
        mask_of = {m: self.code.mask(m.exponents) for m in distinct}
        self.distinct = list(mask_of.values())
        self.every = tuple((1 << len(ms)) - 1 for ms in lists)
        full = (1 << sum(self.code.widths)) - 1
        avoid = []  # per list, per bit p, the members whose mask lacks p
        for ms in lists:
            row = [0] * full.bit_length()
            for k, m in enumerate(ms):
                lacks, member = full & ~mask_of[m], 1 << k
                while lacks:
                    low = lacks & -lacks
                    row[low.bit_length() - 1] |= member
                    lacks ^= low
            avoid.append(row)
        self.avoid = list(zip(*avoid))

    def of(self, b: Monomial) -> tuple[int, ...]:
        if b.ring is not self.code.ring and b.ring != self.code.ring:
            raise PolyError("monomials over different rings")
        # a member divides b iff it divides b cut to the fields' widths
        return self.within(self.code.mask(map(min, b.exponents, self.code.widths)))

    def within(self, b: int) -> tuple[int, ...]:
        """Per list, the members whose mask lies within the mask b."""
        found = self.every
        missing = (1 << len(self.avoid)) - 1 & ~b
        while missing:
            low = missing & -missing
            found = tuple(map(and_, found, self.avoid[low.bit_length() - 1]))
            missing ^= low
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
    """What the strand check reads, built once per complex and generator
    list: `divisors`, a `Divisors` over the generators and then each
    degree's label multidegrees; when the complex verified, `odd[i]`,
    each column of d_i mod 2 over the row positions, and `inexact[i]`, the
    (column, rows) of entries that are not ints; and `cache`, the homology
    over Q of each strand computed so far, keyed by its masks."""

    def __init__(self, cx: LabeledFreeComplex, verified: bool, generators: Sequence[Monomial]):
        self.bases = [cx.labels(i) for i in cx.degrees()]
        self.diff = cx.diff
        self.divisors = Divisors([generators, *([l.multidegree for l in ls] for ls in self.bases)], cx.ring)
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
        return self.divisors.of(b)[1:]

    def lattice(self) -> Iterator[tuple[int, int, tuple[int, ...]]]:
        """(b, the generators dividing b, the b-strand) for each mask b of
        L, the lcms of the generators and label multidegrees with 1
        included, in increasing order, which is that of exponent tuples."""
        lattice = {0}
        for u in self.divisors.distinct:
            if u not in lattice:
                lattice |= {x | u for x in lattice}
        for b in sorted(lattice):
            generators, *masks = self.divisors.within(b)
            yield b, generators, tuple(masks)

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
