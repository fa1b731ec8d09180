"""Differential graded algebra structures on labeled free complexes.

A `DGStructure` is a complex together with a multiplication given on basis
labels (extended bilinearly) and a distinguished degree-0 unit.  Storing a
product checks multiplicative closure with |ab| = |a| + |b|; `dg_check`
machine-verifies the other axioms on all basis pairs and triples:

  unitality, graded commutativity ab = (-1)^{|a||b|} ba, squares of
  odd-degree elements vanish, associativity, and the Leibniz rule
  d(ab) = d(a) b + (-1)^{|a|} a d(b).

Graded commutativity and odd squares are read off the stored products.
Where commutativity holds on basis pairs, and so, by bilinearity, on all
homogeneous elements, Leibniz and associativity are symmetric.  Write
L(a, b) = d(ab) - d(a) b - (-1)^{|a|} a d(b) and A(a, b, c) = (ab)c - a(bc),
and move factors past each other by commutativity:
  * L(b, a) = (-1)^{|a||b|} L(a, b): ba = (-1)^{|a||b|} ab,
    d(b) a = (-1)^{(|b|-1)|a|} a d(b) and b d(a) = (-1)^{|b|(|a|-1)} d(a) b,
    so each term of L(b, a) is (-1)^{|a||b|} times one of L(a, b);
  * A(c, b, a) = -s A(a, b, c), s = (-1)^{|a||b| + |a||c| + |b||c|}:
    (cb)a = s a(bc) and c(ba) = s (ab)c;
  * (-1)^{|a||c|} A(a, b, c) + (-1)^{|a||b|} A(b, c, a)
    + (-1)^{|b||c|} A(c, a, b) = 0: (bc)a, b(ca) and c(ab) are
    (-1)^{|a|(|b|+|c|)} a(bc), (-1)^{|b|(|a|+|c|)} (ca)b and
    (-1)^{|c|(|a|+|b|)} (ab)c, and the six terms cancel in pairs.
So, with labels numbered by position, Leibniz on the pairs (i, j) with
j >= i decides it on every pair, and associativity on the triples
(i, j, k) with i <= j and i <= k decides it on every triple, repeated
labels included: reversal gives (k, j, i) and (j, k, i) from (i, j, k) and
(i, k, j), and the cyclic sum then gives (j, i, k) and (k, i, j).

`dg_check` therefore runs one loop with a lower bound lo on the second and
third label of each pair and triple.  When unitality holds it runs first
with lo = i, the first label.  That loop also decides commutativity, on
the pairs j >= i, which is complete because ab = +-ba is symmetric in a and
b; if it records nothing, every axiom holds on every pair and triple.  If
it records anything, or unitality failed, the loop runs with lo = 0 on a
fresh report, so every witness, their order and the key order of
`failures` are those of the exhaustive loop.  Either way every pair and
triple is decided and counted (`checked_pairs` = n^2, `checked_triples` =
n^3).

Arithmetic runs only where a stored product can be nonzero.  Unitality,
commutativity and odd squares read only the stored, nonzero products.
Leibniz runs on (a, b) only if ab != 0, or l*b != 0 for some l in
supp(d a), or a*l != 0 for some l in supp(d b); associativity runs on
(a, b, c) only if l*c != 0 for some l in supp(ab), or a*l != 0 for some l
in supp(bc).  Everywhere else both sides are 0.  The second kind of each is found from inverted indices, built
once: the b with l in supp(d b), and the (b, c) with l in supp(bc), for
each label l.  Candidates are visited in label order, so failure witnesses
come out as a loop over all of them would record them.

Stored form.  Homogeneity fixes every monomial: a term of e_a e_b on e_l
is c*(m_a m_b / m_l), as an entry of d(e_a) on e_r is c*(m_a / m_r).  So a
product function returns e_a e_b as a `ScalarProduct` {l: c}, the form in
which the complex stores its columns, and that is the only product form: a
`DGStructure` refuses, on storing, anything else, any entry that is not a
rational coefficient, and any label l that is not a basis label of degree
|a| + |b|.  Homogeneity is therefore decided where products and columns
are stored, and nothing downstream checks it again.  An `Element` of
multidegree b is (b, {l: c}) for sum c*(b/m_l) e_l; zero is (None, {}).
Sums, boundaries (through the stored columns) and products (b_x b_y,
through the stored products) of elements are dict arithmetic on the c,
and `str` writes each term with `complexes.entry_str`.  `dg_check` reads
products and columns as tables {label position: c}, by the complex's one
numbering (`LabeledFreeComplex.position`); both sides of a commutativity,
Leibniz or associativity identity are then tables over one multidegree.  Commutativity compares two stored tables entry by entry.
Leibniz sums d(ab) - d(a) b - (-1)^{|a|} a d(b) in place into one table
per b, for all b of a row a at once; associativity sums (ab)c - a(bc) in
place into one table per triple.  An identity holds when every value of
its summed difference is zero (cancelled entries stay as explicit zeros).
Where one fails, the witness strings are formed by `Element` arithmetic.

`SubmoduleSpan` + `submodule_membership` decide membership of a
multigraded element (b, {l: c}) in a submodule spanned by finitely many
multigraded elements, each on basis labels of its degree: in multidegree
b a generator g contributes the single monomial multiple (b / mdeg g) * g,
so membership is a sparse rational linear solve (`linalg.solve` on the
generators' coefficients) and the witness is an exact coefficient list.  A
span is indexed once: each generator a column {position of l: c}, the
labels numbered by the complex's `position` as in `dg_check`, and per
degree a `strands.Divisors` bitset index that finds the generators with
mdeg(g) | b in a few integer operations.  A generator's boundary is its
`Element.diff`.

`quotient_dg` alone decides whether a span is a dg ideal, before it
eliminates anything, and refuses any other span (`DGIdealError`).

The superset-closure lemma decides a matching span of the Taylor algebra
T: the span J of e_V and d(e_V) over a family S of index sets that is
closed under supersets is a dg ideal.  Proof, for U a Taylor label and V
in S:
  * d(e_V) is a generator, and d(d(e_V)) = 0, so d(J) lies in J;
  * e_U e_V is 0 or +-(m_U m_V / m_{U+V}) e_{U+V}, and U + V, a superset
    of V, lies in S;
  * by Leibniz, e_U d(e_V) = (-1)^{|U|} (d(e_U e_V) - d(e_U) e_V): the
    first term is d of an element of J by the case above, and d(e_U) e_V
    is a sum of monomial multiples of e_W e_V, each in J;
  * the products g e_U follow by graded commutativity.
So every product e_u * g of a basis label and a generator lies in J.
`quotient_dg` applies it when the structure is a Taylor algebra
(`DGStructure.taylor`, set only by `taylor.taylor_dg_structure`), the span
lies on that structure's complex, and the span records its sources
(`SubmoduleSpan.sources`, set only by `span_from_matching_sources`), which
it checks for closure itself (`superset_closed`).  It then counts the
nonzero products from masks instead of forming them.  Every other span
takes the exhaustive pass: a matching whose sources are not closed (C5's),
user matchings that are not, any span written out by hand, a span on
another complex, and every span of a structure `taylor_dg_structure` did
not build, quotients included.

The exhaustive pass is `boundary_closed` and then `closure_products`: it
forms every product e_u * g of a basis label and a generator exactly and
solves each nonzero one for membership.  Per basis label u it reads the
stored row of u once, keeps the products u*l with l in the generators'
supports, and sums each u*g from those; an inverted index (label ->
generators containing it) visits only the generators some nonzero u*l
reaches, since every other product is 0.  `dg_ideal_closure` writes the
same check out as a report (`closure_entry`).

`Elimination` forms the quotient of a complex by the span of some of its
elements, by per-degree unit-pivot elimination on coefficients.  As in the
complexes, an element of multidegree b is {l: c} for sum c*(b/m_l) e_l,
and l is a unit pivot iff m_l = b.  The quotient keeps the survivors, the
labels no rule eliminates.  `quotient_dg` wraps it for a dg algebra and a
dg ideal given as a span, preferring caller-designated pivots, and forms
each product of two survivors, which are basis labels of the parent, as
the parent's product of the pair (`DGStructure.product`) with the rules
substituted, so a quotient row asks the parent for the pairs of survivors
only, not for the parent's whole row;
`morse.morse_reduce` passes each e_sigma and its stored column
d(e_sigma), with each pivot fixed to a matched target.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from operator import add, le
from typing import Callable, Iterable, Iterator, Sequence

from . import linalg
from .complexes import BasisLabel, LabeledFreeComplex, combine, entry_str, tag_to_json
from .poly import Monomial, exact, monomial_divide
from .strands import Divisors


class DGError(ValueError):
    """`witness`, when set, lists the generators left without a unit pivot
    (for a `DGIdealError`, the generators or products that leave the span)."""

    witness: list | None = None


class DGIdealError(DGError):
    """A span `quotient_dg` refuses, not a dg ideal.  When `boundary_closed`
    is false, `witness` lists the generators whose boundary leaves the span;
    else it lists the products e_u * g outside the span, `checked` those
    inside."""

    boundary_closed: bool = True
    checked: int = 0


class Element:
    """A homogeneous-homological-degree element of a labeled complex, stored
    as the complex stores its columns: (b, {label l: c}) for sum
    c*(b/m_l) e_l, every c nonzero; zero is (None, {}).  Elements come from
    `stored` (b, {l: c}), `basis` and `zero`, and from arithmetic on them.
    Elements are never mutated, so one may share its dict with a stored
    product."""

    __slots__ = ("complex", "degree", "b", "vec")

    @staticmethod
    def stored(cx: LabeledFreeComplex, degree: int, b: Monomial | None, vec: dict) -> "Element":
        """sum c*(b/m_l) e_l from {l: c}, each c a nonzero coefficient."""
        el = object.__new__(Element)
        el.complex, el.degree, el.b, el.vec = cx, degree, b if vec else None, vec
        return el

    @staticmethod
    def zero(cx: LabeledFreeComplex, degree: int) -> "Element":
        return Element.stored(cx, degree, None, {})

    @staticmethod
    def basis(cx: LabeledFreeComplex, label: BasisLabel) -> "Element":
        return Element.stored(cx, cx.degree_of(label), label.multidegree, {label: 1})

    def is_zero(self) -> bool:
        return not self.vec

    def __eq__(self, other) -> bool:  # the stored form is unique
        if type(other) is not Element:
            return NotImplemented
        return (self.complex, self.degree, self.b, self.vec) == (other.complex, other.degree, other.b, other.vec)

    __hash__ = None

    def __add__(self, other: "Element") -> "Element":
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if self.degree != other.degree:
            raise DGError("adding elements of different homological degrees")
        if self.b != other.b:
            raise DGError(f"adding elements of different multidegrees {self.b} and {other.b}")
        return Element.stored(self.complex, self.degree, self.b, combine([(1, self.vec), (1, other.vec)]))

    def __sub__(self, other: "Element") -> "Element":
        return self + other.scale(-1)

    def scale(self, c) -> "Element":
        return Element.stored(self.complex, self.degree, self.b, {l: x * c for l, x in self.vec.items()} if c else {})

    def diff(self) -> "Element":
        """The boundary, on the stored columns at the same b."""
        cx, i = self.complex, self.degree
        if i == 0 or self.is_zero():
            return Element.zero(cx, max(i - 1, 0))
        cols = cx.diff.get(i, {})
        return Element.stored(cx, i - 1, self.b, combine((c, cols.get(l, ZERO)) for l, c in self.vec.items()))

    def multidegree(self) -> Monomial | None:
        """Common multidegree coeff*mdeg(label), or None for zero."""
        return self.b

    def __str__(self) -> str:
        if not self.vec:
            return "0"
        parts = [f"({entry_str(c, l, self.b)})*{l}" for l, c in sorted(self.vec.items(), key=lambda kv: str(kv[0].tag))]
        return " + ".join(parts)


class ScalarProduct(dict):
    """A basis product e_a e_b as {label l: c}, for sum c*(m_a m_b/m_l) e_l
    in degree |a| + |b|, each c an int or a Fraction.  Answers `is_zero` as
    the Element it stands for does."""

    __slots__ = ()

    def is_zero(self) -> bool:
        return not self


ZERO = ScalarProduct()  # every zero product, table and column looked up; shared, never written to


class DGStructure:
    """A complex with a basis-level product and unit.

    Products are stored by rows: `row(a)` is {b: e_a e_b} over the basis
    labels b with e_a e_b != 0, computed in full (one product-function call
    per b) on first read and stored only when complete.  `product(a, b)`
    reads one product: the entry of the row of a when that row is stored,
    else one product-function call, validated and not stored; a quotient
    or a descent forms its products through its parent's `product`, so it
    asks the parent only for the pairs it needs.  The product
    function returns a `ScalarProduct` (the form of the complex's columns),
    and a nonzero one is validated: every label a basis label of degree
    |a| + |b|, every entry an int or a Fraction, and a coefficient on l
    needs m_l | m_a m_b.  Anything else raises DGError on storing, naming
    the entry, a, b and its label.  A zero product may be shared between
    pairs; it is never stored or written to.
    Reading `row` or `table` at a label outside the basis raises DGError
    too.  `basis_product` and `multiply` build Elements from the stored
    products.  `degree` is the complex's label index, so a label
    is a basis label exactly when it is a key there.  `taylor` is true only
    for the Taylor algebra of the complex, as `taylor.taylor_dg_structure`
    builds it; `quotient_dg` reads it for the superset-closure lemma.
    """

    taylor = False

    def __init__(
        self,
        complex: LabeledFreeComplex,
        product_fn: Callable[[BasisLabel, BasisLabel], ScalarProduct],
    ):
        self.complex = complex
        self._product = product_fn
        self.name = complex.name
        deg0 = complex.labels(0)
        if len(deg0) != 1:
            raise DGError("dg structure needs rank-1 degree 0")
        self.unit = deg0[0]
        # the complex's label index: each basis label's degree, in degree order
        self.degree = complex.degree
        self._rows: dict[BasisLabel, dict[BasisLabel, ScalarProduct]] = {}

    def row(self, a: BasisLabel) -> dict[BasisLabel, ScalarProduct]:
        """{b: e_a e_b} over the basis labels b, nonzero products only."""
        got = self._rows.get(a)
        if got is None:
            if a not in self.degree:
                raise DGError(f"{a} is not a basis label of {self.name}")
            product, got = self._product, {}
            for b in self.degree:
                prod = product(a, b)
                if prod or type(prod) is not ScalarProduct:  # `_store` refuses the second
                    got[b] = self._store(a, b, prod)
            self._rows[a] = got
        return got

    def table(self, a: BasisLabel, b: BasisLabel) -> ScalarProduct:
        """The stored product of two basis labels."""
        if b not in self.degree:
            raise DGError(f"{b} is not a basis label of {self.name}")
        return self.row(a).get(b, ZERO)

    def product(self, a: BasisLabel, b: BasisLabel) -> ScalarProduct:
        """e_a e_b of two basis labels: the entry of the stored row of a
        when that row is stored, else one call of the product function,
        validated as `row` validates it and not stored."""
        degree = self.degree
        if a not in degree or b not in degree:
            raise DGError(f"{b if a in degree else a} is not a basis label of {self.name}")
        got = self._rows.get(a)
        if got is None:
            return self._store(a, b, self._product(a, b))
        return got.get(b, ZERO)

    def _store(self, a: BasisLabel, b: BasisLabel, prod: ScalarProduct) -> ScalarProduct:
        """The product e_a e_b the product function returned, validated (see
        the class docstring); ZERO for a zero one."""
        if type(prod) is not ScalarProduct:
            raise DGError(f"product {a}*{b} is not a ScalarProduct: {type(prod).__name__}")
        if not prod:
            return ZERO
        deg, degree = self.degree[a] + self.degree[b], self.degree
        want = tuple(map(add, a.multidegree.exponents, b.multidegree.exponents))
        for l, c in prod.items():
            if type(c) is not int and type(c) is not Fraction:
                raise DGError(f"product entry {c} of {a}*{b} on {l}: not a rational coefficient")
            if not all(map(le, l.multidegree.exponents, want)):
                raise DGError(f"product entry {c} of {a}*{b} on {l}: "
                              f"{l.multidegree} does not divide {a.multidegree * b.multidegree}")
            if degree.get(l) != deg:
                raise DGError(f"product entry {c} of {a}*{b} on {l}: not a basis label of degree {deg}")
        return prod

    def basis_product(self, a: BasisLabel, b: BasisLabel) -> Element:
        """e_a e_b as an Element, from the stored product."""
        prod = self.table(a, b)
        return Element.stored(self.complex, self.degree[a] + self.degree[b], a.multidegree * b.multidegree, prod)

    def multiply(self, x: Element, y: Element) -> Element:
        """x*y: the sum of the stored products times the coefficients, at
        b = b_x b_y."""
        table = self.table
        vec = combine([(p * q, table(a, b)) for a, p in x.vec.items() for b, q in y.vec.items()])
        return Element.stored(self.complex, x.degree + y.degree, x.b * y.b if vec else None, vec)


FAILURES_KEPT = 10  # witnesses kept per axiom; every failure is counted in `ok`


@dataclass
class DGReport:
    ok: bool = True
    checked_pairs: int = 0
    checked_triples: int = 0
    failures: dict[str, list] = field(default_factory=dict)

    def record(self, axiom: str, witness: dict):
        self.ok = False
        bucket = self.failures.setdefault(axiom, [])
        if len(bucket) < FAILURES_KEPT:
            bucket.append(witness)

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "checked_pairs": self.checked_pairs,
            "checked_triples": self.checked_triples,
            "failures": self.failures,
        }


def _witness(a: BasisLabel, b: BasisLabel, **detail) -> dict:
    return {"a": tag_to_json(a.tag), "b": tag_to_json(b.tag), **detail}


def dg_check(dg: DGStructure, triples: bool = True) -> DGReport:
    """Verify the dg-algebra axioms exhaustively on basis pairs/triples.

    Every pair and triple is decided and counted; exact arithmetic runs only
    where some stored product can be nonzero, summing each identity's
    difference in place on scalar tables.  When unitality holds, one loop
    first decides graded commutativity on the pairs (a, b) with b not
    before a, Leibniz on those pairs, and associativity on the triples
    whose first label comes first; if it records nothing, they decide every
    pair and triple.  Otherwise, and whenever unitality fails, the loop runs
    on every pair and triple and returns the witnesses an exhaustive loop
    records, in its order (see the module docstring).
    """
    cx = dg.complex
    # the basis labels by position, in the complex's degree order
    labels, degree, pos = list(dg.degree), list(dg.degree.values()), cx.position
    n = len(labels)

    def table(vec: dict) -> dict:
        """{position of l: c} for {basis label l: c}.  Storing and the
        complex's constructors put every label of a product or column in
        the basis, in the degree it must have."""
        return {pos[l]: c for l, c in vec.items()}

    # dtab[k]: the table of d(labels[k]), read off the stored column
    dtab = [table(cx.diff.get(d, ZERO).get(l, ZERO)) for l, d in zip(labels, degree)]
    # tab[i][j]: the table of labels[i] * labels[j], nonzero products only;
    # tabT[j]: the i with labels[i] * labels[j] != 0, ascending
    tab = [{pos[b]: table(p) for b, p in dg.row(a).items()} for a in labels]
    tabT: list[list[int]] = [[] for _ in range(n)]
    for i, row in enumerate(tab):
        for j in row:
            tabT[j].append(i)
    # dinv[k]: the j with k in supp(d labels[j])
    dinv: list[list[int]] = [[] for _ in range(n)]
    for j, d in enumerate(dtab):
        for k in d:
            dinv[k].append(j)
    one = dg.unit
    u = pos[one]

    def axioms(report: DGReport, reduced: bool) -> None:
        """Commutativity, Leibniz, odd squares and associativity, recorded
        in label order, on the pairs and triples whose second and third
        labels are not before lo: the first label when `reduced`, else 0."""
        for i, a in enumerate(labels):
            lo = i if reduced else 0
            row, da = tab[i], dtab[i]
            s = -1 if degree[i] % 2 else 1
            # diffs[j]: d(ab) - d(a) b - (-1)^{|a|} a d(b), b = labels[j],
            # summed in place over the terms that can be nonzero: ab, l*b
            # with l in supp(da), a*l with l in supp(db).  Its keys are the
            # j >= lo where Leibniz is not 0 = 0 outright; every other
            # check needs ab or ba
            diffs: dict[int, dict] = {}
            for j, ab in row.items():
                if j >= lo:
                    acc = diffs[j] = {}
                    for l, c in ab.items():
                        for m, x in dtab[l].items():
                            acc[m] = acc.get(m, 0) + c * x
            for k, c in da.items():
                for j, kb in tab[k].items():
                    if j >= lo:
                        acc = diffs.setdefault(j, {})
                        for m, x in kb.items():
                            acc[m] = acc.get(m, 0) - c * x
            for k, ak in row.items():
                for j in dinv[k]:
                    if j >= lo:
                        acc, c = diffs.setdefault(j, {}), s * dtab[j][k]
                        for m, x in ak.items():
                            acc[m] = acc.get(m, 0) - c * x
            report.checked_pairs += n
            for j in sorted(diffs.keys() | set(tabT[i][bisect_left(tabT[i], lo):])):
                b = labels[j]
                ab = row.get(j, ZERO)
                # graded commutativity, both orientations computed directly:
                # ab = sign * ba as tables, compared entry by entry
                ba = tab[j].get(i, ZERO)
                sign = -1 if degree[i] & degree[j] & 1 else 1
                if len(ab) != len(ba) or any(ba.get(k) != sign * c for k, c in ab.items()):
                    report.record(
                        "graded_commutativity", _witness(a, b, ab=str(dg.basis_product(a, b)), ba=str(dg.basis_product(b, a)))
                    )
                if (acc := diffs.get(j)) and any(acc.values()):
                    ea, eb = Element.basis(cx, a), Element.basis(cx, b)
                    lhs = dg.basis_product(a, b).diff()
                    rhs = dg.multiply(ea.diff(), eb) + dg.multiply(ea, eb.diff()).scale(s)
                    report.record("leibniz", _witness(a, b, d_ab=str(lhs), da_b_plus_a_db=str(rhs)))
            if degree[i] % 2 == 1 and i in row:
                sq = dg.basis_product(a, a)
                if not sq.is_zero():
                    report.record("odd_squares", {"a": tag_to_json(a.tag), "a2": str(sq)})

        if not triples:
            return
        # occ[l]: the (j, c) with l in supp(labels[j] * labels[c])
        occ: dict[int, list] = {}
        for j, row in enumerate(tab):
            for c, t in row.items():
                for l in t:
                    occ.setdefault(l, []).append((j, c))
        for i, a in enumerate(labels):
            lo = i if reduced else 0
            row = tab[i]
            report.checked_triples += n * n
            # cands[j], j >= lo: the c where (ab)c = a(bc) is not 0 = 0
            # outright: some l in supp(ab) has l*c != 0, or some l in
            # supp(bc) has a*l != 0; the c >= lo of them are checked
            cands: dict[int, set] = {}
            for j, ab in row.items():
                if j >= lo:
                    got = cands[j] = set()
                    for l in ab:
                        got.update(tab[l])
            for l in row:
                for j, c in occ.get(l, ()):
                    if j >= lo:
                        cands.setdefault(j, set()).add(c)
            for j in sorted(cands):
                b, ab, bj = labels[j], row.get(j, ZERO), tab[j]
                ks = sorted(cands[j])
                for k in ks[bisect_left(ks, lo):]:
                    # (ab)c - a(bc), summed in place
                    acc: dict = {}
                    for l, c in ab.items():
                        for m, x in tab[l].get(k, ZERO).items():
                            acc[m] = acc.get(m, 0) + c * x
                    for l, c in bj.get(k, ZERO).items():
                        for m, x in row.get(l, ZERO).items():
                            acc[m] = acc.get(m, 0) - c * x
                    if any(acc.values()):
                        lhs = dg.multiply(dg.basis_product(a, b), Element.basis(cx, labels[k]))
                        rhs = dg.multiply(Element.basis(cx, a), dg.basis_product(b, labels[k]))
                        report.record(
                            "associativity", _witness(a, b, c=tag_to_json(labels[k].tag), ab_c=str(lhs), a_bc=str(rhs))
                        )

    report = DGReport()
    for i, a in enumerate(labels):
        want = {i: 1}
        if tab[u].get(i) == want and tab[i].get(u) == want:
            continue
        for got in (dg.basis_product(one, a), dg.basis_product(a, one)):
            if got != Element.basis(cx, a):
                report.record("unital", {"a": tag_to_json(a.tag), "got": str(got)})
    reduced = report.ok
    axioms(report, reduced)
    if reduced and not report.ok:
        report = DGReport()  # unitality recorded nothing
        axioms(report, False)
    return report


# ---------------------------------------------------------------------------
# spans, membership, dg ideals


@dataclass
class SpanGenerator:
    gen_id: tuple
    element: Element


class SubmoduleSpan:
    """A multigraded submodule given by homogeneous generators, each an
    Element (b, {l: c}) on basis labels of its degree (DGError otherwise).
    Indexed once: `columns[k]` is generator k as {position of l: c}, by
    the complex's `position`, and per homological degree a
    `strands.Divisors` over the multidegrees of the nonzero generators,
    built on that degree's first `dividing` call, finds those dividing b.  `sources` is the family of Taylor
    index sets V of a span {e_V, d(e_V)} that `span_from_matching_sources`
    builds, in generator order, and None for any other span."""

    sources: tuple[tuple[int, ...], ...] | None = None

    def __init__(self, cx: LabeledFreeComplex, generators: Sequence[SpanGenerator]):
        self.complex = cx
        self.generators = list(generators)
        self.columns: list[dict[int, object]] = []
        of_degree: dict[int, list[int]] = {}
        position = cx.position
        for k, g in enumerate(self.generators):
            el = g.element
            for l in el.vec:
                if cx.degree.get(l) != el.degree:
                    raise DGError(f"span generator {g.gen_id} on {l}: not a basis label of degree {el.degree}")
            self.columns.append({position[l]: c for l, c in el.vec.items()})
            if el.vec:
                of_degree.setdefault(el.degree, []).append(k)
        self._of_degree = of_degree
        self._divisors: dict[int, Divisors] = {}

    def dividing(self, degree: int, b: Monomial) -> list[int]:
        """The positions, in order, of the nonzero generators of homological
        degree `degree` whose multidegree divides b."""
        ks = self._of_degree.get(degree)
        if not ks:
            return []
        divisors = self._divisors.get(degree)
        if divisors is None:
            divisors = self._divisors[degree] = Divisors([[self.generators[k].element.b for k in ks]], self.complex.ring)
        found = divisors.of(b)[0]
        out = []
        while found:
            low = found & -found
            out.append(ks[low.bit_length() - 1])
            found ^= low
        return out

    def solve(self, degree: int, b: Monomial, vec: dict) -> list[tuple[int, object]] | None:
        """sum c*(b/m_l) e_l, given as {position of l: c}, as a combination
        of the generators: [(generator position, nonzero coefficient)], or
        None when it is not in the span.  Each generator g with mdeg(g) | b
        contributes the single multiple (b / mdeg g) * g, so this is
        `linalg.solve` on the coefficients; a label in no generator's
        support is a row no column has, so there is no solution."""
        found = self.dividing(degree, b)
        sol = linalg.solve([self.columns[k] for k in found], vec)
        return None if sol is None else [(k, c) for k, c in zip(found, sol) if c]

    def witness(self, b: Monomial, sol: list[tuple[int, object]]) -> list[dict]:
        """A solution as [{gen, coefficient, monomial_multiple}]."""
        gens = self.generators
        return [
            {
                "gen": tag_to_json(gens[k].gen_id),
                "coefficient": str(c),
                "monomial_multiple": str(monomial_divide(b, gens[k].element.b)),
            }
            for k, c in sol
        ]


def submodule_membership(
    span: SubmoduleSpan, element: Element
) -> tuple[bool, list[dict] | None]:
    """Decide element in span; on success return the witness
    [{gen, coefficient, monomial_multiple}] with exact rationals.

    The element is (b, {l: c}) on basis labels; see `SubmoduleSpan.solve`.
    """
    b, vec = element.b, element.vec
    if not vec:
        return True, []
    position = span.complex.position
    sol = span.solve(element.degree, b, {position[l]: c for l, c in vec.items()})
    return (False, None) if sol is None else (True, span.witness(b, sol))


def span_from_matching_sources(
    cx: LabeledFreeComplex, sources: Iterable[tuple[int, ...]]
) -> SubmoduleSpan:
    """The span of {e_V, d(e_V)} over the given Taylor index sets V.

    For a Morse matching with source set A_+ this is the direct sum of the
    two-term subcomplexes 0 -> Q e_V -> Q d(e_V) -> 0 over V in A_+.  The
    span records the index sets as `sources`.
    """
    gens: list[SpanGenerator] = []
    ordered = tuple(sorted(map(tuple, sources), key=lambda v: (len(v), v)))
    for V in ordered:
        e = Element.basis(cx, cx.find_label(("e",) + V))
        gens.append(SpanGenerator(("e",) + V, e))
        if not (de := e.diff()).is_zero():
            gens.append(SpanGenerator(("de",) + V, de))
    span = SubmoduleSpan(cx, gens)
    span.sources = ordered
    return span


def superset_closed(sources: Iterable[tuple[int, ...]], t: int) -> bool:
    """Whether a family of subsets of {0, ..., t-1} is closed under
    supersets.  It is exactly when each member V has each one-element
    extension V + {i} in the family, by induction on |W - V| for a superset
    W of V.  The one rule behind `quotient_dg`'s lemma and
    `morse.is_superset_closed`."""
    masks = {sum(1 << i for i in V) for V in sources}
    return all(V | 1 << i in masks for V in masks for i in range(t) if not V >> i & 1)


def matching_span(cx: LabeledFreeComplex, matching) -> tuple[SubmoduleSpan, set[tuple]]:
    """The span of {e_V, d(e_V)} over the sources V of a Morse matching on
    the Taylor complex cx, and the matched cells' tags, as pivots to prefer."""
    prefer = {("e",) + tuple(V) for pair in matching for V in pair}
    return span_from_matching_sources(cx, {tuple(s) for s, _ in matching}), prefer


def boundary_closed(span: SubmoduleSpan) -> bool:
    """True when the boundary of every span generator lies in the span;
    else DGIdealError, named after the first generator whose boundary does
    not, with `boundary_closed` false and each such generator and its
    boundary, in generator order, as `witness`."""
    outside = [(g, d) for g in span.generators if not submodule_membership(span, d := g.element.diff())[0]]
    if outside:
        err = DGIdealError(f"span is not closed under the differential at generator {outside[0][0].gen_id}")
        err.boundary_closed = False
        err.witness = [{"gen": tag_to_json(g.gen_id), "boundary": str(d)} for g, d in outside]
        raise err
    return True


def closure_products(dg: DGStructure, span: SubmoduleSpan) -> Iterator[tuple]:
    """Every nonzero product e_u * g of a basis label u and a span generator
    g, in (u, generator) order, as (u, k, b, vec, sol): k is the position of
    g, the product is sum c*(b/m_l) e_l with vec {position of l: c}, and sol
    is its `SubmoduleSpan.solve` solution, None when it is not in the span.

    Labels are numbered by the `position` of the span's complex, which is
    dg's.  For each u the stored row of u is read once, keeping the products
    u*l with l in the generators' supports, and each u*g is summed from
    those as coefficients at b = m_u mdeg(g); only the generators whose
    support meets a nonzero u*l are visited, every other product being 0.
    """
    gens, columns, position = span.generators, span.columns, span.complex.position
    # users[s]: the generators whose support has the label at position s
    users: dict[int, list[int]] = {}
    for k, col in enumerate(columns):
        for s in col:
            users.setdefault(s, []).append(k)
    for u, du in dg.degree.items():
        row, reached = {}, set()
        for l, prod in dg.row(u).items():
            if (ks := users.get(s := position[l])) is not None:
                row[s] = {position[m]: c for m, c in prod.items()}
                reached.update(ks)
        for k in sorted(reached):
            g = gens[k].element
            if vec := combine([(q, row.get(s, ZERO)) for s, q in columns[k].items()]):
                b = u.multidegree * g.b
                yield u, k, b, vec, span.solve(du + g.degree, b, vec)


def closure_entry(dg: DGStructure, span: SubmoduleSpan, labels: list, u, k: int, b: Monomial, vec: dict) -> dict:
    """{factor, gen, product} for the product e_u * g of `closure_products`,
    g its k-th generator; `labels` is the label at each position."""
    g = span.generators[k]
    prod = Element.stored(dg.complex, dg.degree[u] + g.element.degree, b, {labels[j]: c for j, c in vec.items()})
    return {"factor": tag_to_json(u.tag), "gen": tag_to_json(g.gen_id), "product": str(prod)}


def dg_ideal_closure(dg: DGStructure, span: SubmoduleSpan) -> tuple[bool, dict]:
    """`quotient_dg`'s dg-ideal check as a report: `boundary_closed` first
    (its DGIdealError if the span is not a subcomplex, so the report's
    `boundary_closed` is always true), then each nonzero product e_U * g of a
    basis label and a span generator (`closure_products`), with its
    membership witness or among the failures."""
    report: dict = {"boundary_closed": boundary_closed(span), "products": [], "failures": []}
    labels = list(dg.degree)  # the label at each position
    for u, k, b, vec, sol in closure_products(dg, span):
        entry = closure_entry(dg, span, labels, u, k, b, vec)
        if sol is None:
            report["failures"].append(entry)
        else:
            report["products"].append({**entry, "witness": span.witness(b, sol)})
    report["ok"] = not report["failures"]
    return report["ok"], report


# ---------------------------------------------------------------------------
# quotients


class Elimination:
    """The quotient of a complex by the span of some of its elements, by
    unit-pivot elimination on coefficients.

    Generators are (gen_id, homological degree, {label: c}, b, pivot): the
    element sum c*(b/m_l) e_l, pivot a basis label or None.  Per degree, in
    the given order, each generator is reduced by the rules found so far and
    then eliminated at a unit pivot l (m_l = b), giving the rule
    l = -(rest)/c.  That label is the given pivot; without one, the
    least by tag string among the candidates in `prefer`, or else among all.
    A generator without its pivot waits for the next pass; when a whole pass
    makes no progress the quotient is not free, and DGError is raised with
    `witness`: each waiting generator and its entry at the would-be pivot.
    A rule's right-hand side has its pivot's multidegree, so substituting it
    is scalar arithmetic, and holds pivots of later rules only.
    """

    def __init__(
        self,
        cx: LabeledFreeComplex,
        generators: Iterable[tuple[tuple, int, dict, Monomial | None, BasisLabel | None]],
        prefer: Iterable[tuple] = (),
    ):
        self.source = cx
        prefer = set(prefer)
        # rules[i]: (pivot, {label: c}) in elimination order; _at[i]: pivot -> index
        self.rules: dict[int, list[tuple[BasisLabel, dict]]] = {}
        self._at: dict[int, dict[BasisLabel, int]] = {}
        by_degree: dict[int, list] = {}
        for gen_id, i, vec, b, pivot in generators:
            by_degree.setdefault(i, []).append((gen_id, vec, b, pivot))
        for i in sorted(by_degree):
            rules = self.rules[i] = []
            at = self._at[i] = {}
            queue = by_degree[i]
            while queue:
                retry, waiting = [], []
                for gen in queue:
                    gen_id, vec, b, pivot = gen
                    vec = self.substitute(vec, i)
                    if not vec:
                        continue
                    if pivot is None:
                        units = [l for l in vec if l.multidegree.exponents == b.exponents]
                        pool = [l for l in units if l.tag in prefer] or units or list(vec)
                        pivot = min(pool, key=lambda l: str(l.tag))
                    entry = vec.pop(pivot, None)
                    if entry is None or pivot.multidegree.exponents != b.exponents:
                        retry.append(gen)
                        waiting.append({
                            "gen": tag_to_json(gen_id),
                            "pivot": tag_to_json(pivot.tag),
                            "entry": entry_str(entry, pivot, b) if entry else "0",
                        })
                        continue
                    at[pivot] = len(rules)
                    rules.append((pivot, {l: exact(Fraction(-c, entry)) for l, c in vec.items()}))
                if len(retry) == len(queue):
                    err = DGError(f"no unit pivot in degree {i}: quotient is not a free complex")
                    err.witness = waiting
                    raise err
                queue = retry
            if not rules:
                del self.rules[i], self._at[i]
        self.survivors = {i: [l for l in cx.labels(i) if l not in self._at.get(i, ())] for i in cx.degrees()}

    def substitute(self, vec: dict, i: int) -> dict:
        """sum c*(b/m_l) e_l in degree i, given as {l: c}, with every pivot
        replaced by its rule.  A rule is scalar, so b is not needed.  Taking
        the pivots in rule order replaces each at most once."""
        out = dict(vec)
        at, rules = self._at.get(i), self.rules.get(i)
        if not at:
            return out
        heap = [at[l] for l in out if l in at]
        heapq.heapify(heap)
        while heap:
            pivot, rhs = rules[heapq.heappop(heap)]
            p = out.pop(pivot, None)
            if p is None:
                continue
            for l, q in rhs.items():
                s = out.get(l)
                if s is None:
                    if l in at:
                        heapq.heappush(heap, at[l])
                    out[l] = p * q
                elif s := s + p * q:
                    out[l] = s
                else:
                    del out[l]
        return out

    def quotient(self, name: str) -> LabeledFreeComplex:
        """The quotient complex on the survivors."""
        cx, survivors = self.source, self.survivors
        basis = {i: survivors[i] for i in cx.degrees() if survivors[i]}
        diff = {
            i: {
                l: {r: exact(c) for r, c in self.substitute(cx.diff.get(i, {}).get(l, {}), i - 1).items()}
                for l in survivors[i]
            }
            for i in cx.degrees()
            if i and survivors[i]
        }
        # stored by construction: every entry is a coefficient, `substitute`
        # drops every zero and replaces every pivot, so each row is a
        # survivor of degree i-1, and a unit pivot has m_pivot = b, so a
        # rule's labels divide m_pivot and every row multidegree divides its
        # column's
        return LabeledFreeComplex._from_stored(cx.ring, basis, diff, name=name)


@dataclass
class QuotientDG:
    structure: DGStructure
    elimination: Elimination
    closure_products_checked: int  # the nonzero products e_u * g, all in the span


def _lemma_products(dg: DGStructure, span: SubmoduleSpan) -> int | None:
    """The number of nonzero products e_U * g when the superset-closure
    lemma decides that `span` is a dg ideal of `dg`, else None: dg is a
    Taylor algebra (`DGStructure.taylor`), the span is a matching span on
    its complex (`SubmoduleSpan.sources`), and the sources are closed under
    supersets.  e_U e_V != 0 iff U and V are disjoint, and e_U d(e_V) != 0
    iff |U & V| <= 1, its terms lying on the distinct labels U + (V - i);
    so each source V gives 2^(t-|V|) (2 + |V|) of them."""
    sources, cx = span.sources, dg.complex
    if not dg.taylor or span.complex is not cx or sources is None:
        return None
    t = len(cx.labels(1))
    if not superset_closed(sources, t):
        return None
    return sum((2 + len(V)) << (t - len(V)) for V in sources)


def _closure_pass(dg: DGStructure, span: SubmoduleSpan) -> int:
    """The exhaustive dg-ideal check: `boundary_closed`, then every nonzero
    product e_u * g must lie in the span (`closure_products`).  Returns the
    number of those products; DGIdealError lists the ones outside it."""
    boundary_closed(span)
    labels, checked, outside = list(dg.degree), 0, []  # labels[j]: the label at position j
    for u, k, b, vec, sol in closure_products(dg, span):
        if sol is None:
            outside.append(closure_entry(dg, span, labels, u, k, b, vec))
        else:
            checked += 1
    if outside:
        err = DGIdealError(f"span is not a dg ideal: {len(outside)} product(s) e_u * g outside it")
        err.witness, err.checked = outside, checked
        raise err
    return checked


def quotient_dg(
    dg: DGStructure,
    span: SubmoduleSpan,
    prefer_eliminate: Iterable[tuple] = (),
) -> QuotientDG:
    """Quotient of a dg algebra by the dg ideal spanned by `span`.

    First it decides, exactly over Q, that the span is a dg ideal, and
    refuses any other span with DGIdealError.  A matching span of a Taylor
    algebra whose sources are closed under supersets is one by the lemma of
    the module docstring, which decides every product e_u * g at once
    (`_lemma_products` counts the nonzero ones from masks).  Every other
    span takes the exhaustive pass (`_closure_pass`): `boundary_closed`
    (its refusal lists the generators whose boundary leaves the span), then
    every nonzero product e_u * g is solved for membership
    (`closure_products`; the refusal lists the products outside the span).
    Either way the nonzero products are counted as
    `closure_products_checked`.

    Only a dg ideal is then eliminated, per degree by `Elimination`,
    preferring as pivots the labels whose tags are in `prefer_eliminate`
    (e.g. to keep the Morse-critical cells); a span without unit pivots
    raises its DGError.  The quotient's labels are the survivors, and a
    product of two survivors is the parent's product of the pair
    (`DGStructure.product`, which fills no row of the parent) with the
    elimination's rules substituted.
    """
    cx = dg.complex
    checked = _lemma_products(dg, span)
    if checked is None:
        checked = _closure_pass(dg, span)
    elim = Elimination(
        cx,
        ((g.gen_id, g.element.degree, g.element.vec, g.element.b, None) for g in span.generators),
        prefer_eliminate,
    )

    def qproduct(a: BasisLabel, b: BasisLabel) -> ScalarProduct:
        # survivors are basis labels of the parent, so it forms their product
        prod = dg.product(a, b)
        return ScalarProduct(elim.substitute(prod, dg.degree[a] + dg.degree[b])) if prod else ZERO

    return QuotientDG(DGStructure(elim.quotient(f"{dg.name}/span"), qproduct), elim, checked)
