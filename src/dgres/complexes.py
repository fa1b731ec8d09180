"""Multigraded complexes of free modules with labeled bases.

A `LabeledFreeComplex` is a chain complex of free Q-modules concentrated in
degrees 0..top, each free module carrying an ordered basis of `BasisLabel`s
(a hashable tag plus a monomial multidegree).  Differentials are stored
column-sparse: for each degree i >= 1 and basis label c of degree i, a dict
row label -> entry, without zeros.

Multigraded homogeneity means the entry in column c / row r is c*(m_c/m_r)
for a rational c, so it is stored as c alone (an int when integral) and the
monomial is implied by the labels.  That is the only entry form: storing
refuses any other.  Printing an entry is the one place the monomial is
written out: `entry_str(c, row, b)` is the text of c*(b/m_row), and
`grid` writes a column table as a string matrix with it; `to_json`, the
d^2 witnesses of `verify`, `dg.Element`, the "no unit pivot" witness of
`dg.Elimination` and the prune stages print through them.
`verify` checks d^2 = 0 on the coefficients, by (degree, row tag, col tag).
A `ChainMap` stores its entries the same way, each relative to shift * m_s,
and checks that it commutes with the differentials on coefficients;
`combine` sums such tables.

One label index: a tag names exactly one basis label in the whole complex.
`_assemble`, which both constructors share, builds the index, `degree`
({label: its degree}, in degree order) and the tag -> label map behind
`find_label`, and raises ComplexError naming the tag and both degrees when
a tag occurs twice.  `degree_of`, the column and row checks and a
`dg.DGStructure` read `degree`; a label whose tag is in the basis but whose
multidegree differs is not in it.  `position`, built from `degree` on first
use, numbers the labels in that order for coefficient tables.

Where entries are validated: the public constructor
`LabeledFreeComplex(ring, basis, diff)` checks that every column label is
in the degree-i basis and every row label in the degree i-1 basis, and
stores each entry through `_stored`: an entry is an int or a `Fraction`
coefficient, zeros dropped on any row, the rest stored only where
m_r | m_c, integral values as ints; anything else (a float, a bool, a
string, a polynomial) is refused with ComplexError naming it, its row and
its column.  So hand-built complexes and every other writer are checked.
Two writers produce stored columns by construction and hand them to
`_from_stored`, which keeps the index and its duplicate-tag check and
skips the rest, without copying the columns: `taylor.taylor_complex`
(Taylor, Lyubeznik; each entry +-1 on a facet) and
`dg.Elimination.quotient` (Morse, `quotient_dg`; each entry a reduced
coefficient on a surviving row).  Each call states why its columns hold.

Strands: for a monomial b, the labels whose multidegree divides b span a
subcomplex; evaluating entries at x=1 gives a complex of Q-vector spaces
whose homology computes the multigraded pieces Tor-style.  This is how
`is_resolution_of` works.  It indexes the complex and the ideal's
generators once per call (`strands.StrandIndex`), after `verify()`: a
strand is then one bitmask of label positions per degree, and strands with
the same masks share one computation.  It walks the lcm lattice L of the
generators and label multidegrees, 1 included, which decides every strand
b in N^n: the labels and generators dividing b are those dividing b',
their lcm, so b and b' have the same strand and expected H_0, and b' lies
in L (Bayer-Sturmfels 1998; Gasharov-Peeva-Welker 1999).  L has at most
2^n elements when the labels are squarefree.
Ranks mod 2 on those bitmasks prove a strand's homology over Q when the
complex verified and the mod-2 homology is nonzero in at most one degree
(h^Q <= h^(2) in every degree, and both have the strand's Euler
characteristic); every other strand takes exact sparse ranks over Q, so
the answer is always the homology over Q.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from operator import le, sub
from typing import Callable, Iterable, Sequence

from . import linalg
from .poly import (
    Monomial,
    MonomialIdeal,
    PolyError,
    VariableSet,
    _monomial,
    exact,
)
from .strands import StrandIndex, scalar_columns


class ComplexError(ValueError):
    pass


@dataclass(frozen=True, slots=True)
class BasisLabel:
    """A named basis element with a monomial multidegree; hashed once."""

    tag: tuple
    multidegree: Monomial
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.tag, self.multidegree)))

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return f"{_tag_str(self.tag)}[{self.multidegree}]"


def _tag_str(tag) -> str:
    if isinstance(tag, tuple):
        return "(" + ",".join(_tag_str(t) for t in tag) + ")"
    return str(tag)


def tag_to_json(tag):
    if isinstance(tag, tuple):
        return [tag_to_json(t) for t in tag]
    return tag


def combine(terms: Iterable[tuple]) -> dict:
    """sum c*t over the pairs (c, t) of coefficient tables {key: c}, without
    zeros."""
    out: dict = {}
    for c, t in terms:
        for k, x in t.items():
            if s := out.get(k, 0) + c * x:
                out[k] = s
            else:
                out.pop(k, None)
    return out


def entry_str(c, row: BasisLabel, b: Monomial) -> str:
    """The text of the entry c * (b / m_row), c a nonzero coefficient on row
    `row` of a column of multidegree b: `c` when the monomial is 1, `m` or
    `-m` when c = +-1, else `c*m`."""
    rm = row.multidegree  # it divides b for every stored entry
    m = _monomial(rm.ring, tuple(map(sub, b.exponents, rm.exponents)))
    if m.is_one():
        return str(c)
    if c == 1:
        return str(m)
    if c == -1:
        return f"-{m}"
    return f"{c}*{m}"


def grid(rows: Sequence[BasisLabel], cols: Sequence[BasisLabel], table: dict) -> list[list[str]]:
    """The matrix of `table` ({column label: {row label: c}}) on rows x cols,
    each entry as `entry_str`, "0" where nothing is stored."""
    cols = [(c, table.get(c, {})) for c in cols]
    return [
        [entry_str(v, r, c.multidegree) if (v := col.get(r)) else "0" for c, col in cols]
        for r in rows
    ]


def killed(row: Monomial, col: Monomial, idx: Sequence[int]) -> bool:
    """Whether c * (col / row) vanishes once the variables at positions idx
    are set to 0, that is, whether the two monomials differ there."""
    return any(col.exponents[j] != row.exponents[j] for j in idx)


def _stored(v, row: BasisLabel, cm: Monomial, col):
    """The stored form of the entry v of column `col`, of multidegree cm:
    the coefficient v of cm / m_row, an int or a Fraction, with `exact`;
    falsy when v is zero, on any row.  Anything else, or a nonzero
    coefficient where m_row does not divide cm, raises ComplexError naming
    the entry, its row and its column."""
    if type(v) is not int and type(v) is not Fraction:
        raise ComplexError(f"entry {v!r} at ({row}, {col}) is not a coefficient (an int or a Fraction)")
    if not v:
        return v
    rm = row.multidegree
    if not all(map(le, rm.exponents, cm.exponents)):
        raise ComplexError(f"coefficient entry {v} at ({row}, {col}): {rm} does not divide {cm}")
    return exact(v)


@dataclass
class ComplexReport:
    """What `verify` found.  `homogeneity_failures` is always []: storing
    refuses an inhomogeneous entry.  It is kept because the `verify` block
    that `dgres taylor`, `lyubeznik`, `reduce`, `cone4` and `prune` print
    has it."""

    ok: bool
    d2_failures: list = field(default_factory=list)
    homogeneity_failures: list = field(default_factory=list)
    degree_zero_ok: bool = True

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "d2_failures": self.d2_failures,
            "homogeneity_failures": self.homogeneity_failures,
            "degree_zero_ok": self.degree_zero_ok,
        }


class LabeledFreeComplex:
    def __init__(
        self,
        ring: VariableSet,
        basis: dict[int, Sequence[BasisLabel]],
        diff: dict[int, dict[BasisLabel, dict]],
        name: str = "",
    ):
        """`diff[i][c]` is the column of d_i at c, {row label: entry}, each
        entry the coefficient c of m_c / m_r, an int or a Fraction."""
        self._assemble(ring, basis, name)
        self.diff: dict[int, dict[BasisLabel, dict]] = {}
        degree = self.degree
        for i, cols in diff.items():
            stored = self.diff[i] = {}
            for c, col in cols.items():
                if degree.get(c) != i:
                    raise ComplexError(f"differential column {c} not in degree {i} basis")
                out = stored[c] = {}
                for r, v in col.items():
                    if degree.get(r) != i - 1:
                        raise ComplexError(
                            f"differential row {r} not in degree {i-1} basis"
                        )
                    if v := _stored(v, r, c.multidegree, c):
                        out[r] = v

    @classmethod
    def _from_stored(
        cls,
        ring: VariableSet,
        basis: dict[int, Sequence[BasisLabel]],
        diff: dict[int, dict[BasisLabel, dict]],
        name: str = "",
    ) -> "LabeledFreeComplex":
        """The complex of a writer whose columns are in stored form by
        construction: every column label in the degree-i basis, every row
        label in the degree i-1 basis with m_r | m_c, and every entry a
        nonzero int or non-integral Fraction (`exact`).  None of that is
        checked, and `diff` is kept, not copied; the caller states why it
        holds next to its call."""
        cx = cls.__new__(cls)
        cx._assemble(ring, basis, name)
        cx.diff = diff
        return cx

    def _assemble(self, ring: VariableSet, basis: dict[int, Sequence[BasisLabel]], name: str) -> None:
        """Every field but `diff`: the bases and the one label index."""
        self.ring = ring
        self.basis: dict[int, tuple[BasisLabel, ...]] = {
            i: tuple(lbls) for i, lbls in basis.items() if lbls
        }
        self.name = name
        # the one index: each label's degree, in degree order, and the label
        # of each tag; a tag names one label, so both have every label
        self.degree: dict[BasisLabel, int] = {l: i for i in sorted(self.basis) for l in self.basis[i]}
        self._by_tag: dict[tuple, BasisLabel] = {l.tag: l for l in self.degree}
        if len(self._by_tag) != sum(map(len, self.basis.values())):
            seen: dict[tuple, int] = {}
            for i in sorted(self.basis):
                for l in self.basis[i]:
                    if l.tag in seen:
                        raise ComplexError(f"tag {l.tag} occurs in degree {seen[l.tag]} and again in degree {i}")
                    seen[l.tag] = i

    # -- basic structure ---------------------------------------------------

    def top_degree(self) -> int:
        return max(self.basis, default=0)

    def degrees(self) -> range:
        return range(0, self.top_degree() + 1)

    def labels(self, i: int) -> tuple[BasisLabel, ...]:
        return self.basis.get(i, ())

    def rank(self, i: int) -> int:
        return len(self.basis.get(i, ()))

    def ranks(self) -> tuple[int, ...]:
        return tuple(self.rank(i) for i in self.degrees())

    def find_label(self, tag: tuple) -> BasisLabel:
        l = self._by_tag.get(tag)
        if l is None:
            raise ComplexError(f"no label with tag {tag}")
        return l

    def degree_of(self, label: BasisLabel) -> int:
        i = self.degree.get(label)
        if i is None:
            raise ComplexError(f"label {label} not in complex")
        return i

    @cached_property
    def position(self) -> dict[BasisLabel, int]:
        """Each label's index in `degree`: the one numbering of the labels
        in coefficient tables (`dg.dg_check`, `dg.SubmoduleSpan`)."""
        return {l: k for k, l in enumerate(self.degree)}

    # -- verification ------------------------------------------------------

    def verify(self) -> ComplexReport:
        report = ComplexReport(ok=True)
        # d^2 = 0: the entry of d_{i-1} d_i e_c on e_s, a coefficient of m_c / m_s
        for i in range(2, self.top_degree() + 1):
            cols, lower = self.diff.get(i, {}), self.diff.get(i - 1, {})
            for c in self.labels(i):
                composite = combine((v, lower.get(r, {})) for r, v in cols.get(c, {}).items())
                for s, x in composite.items():
                    report.d2_failures.append(
                        (i, tag_to_json(s.tag), tag_to_json(c.tag), entry_str(x, s, c.multidegree))
                    )
        deg0 = self.labels(0)
        report.degree_zero_ok = (
            len(deg0) == 1 and deg0[0].multidegree.is_one()
        )
        report.ok = not report.d2_failures and report.degree_zero_ok
        return report

    def is_minimal(self) -> bool:
        """No differential entry is a nonzero constant: no entry joins two
        labels of one multidegree."""
        return not any(
            r.multidegree.exponents == c.multidegree.exponents
            for cols in self.diff.values() for c, col in cols.items() for r in col
        )

    def labels_squarefree(self) -> bool:
        return all(l.multidegree.is_squarefree() for l in self.degree)

    # -- strands and homology ----------------------------------------------

    def is_resolution_of(self, ideal: MonomialIdeal) -> tuple[bool, dict]:
        """Decide whether this complex resolves Q/I, with a detail report.

        Checks: complex axioms; degree 0 = Q; degree-1 columns are +-1 times
        the generator monomials and the degree-1 multidegrees equal G(I) as a
        multiset; H_0 = (Q/I)_b and H_i = 0 on the b-strand for every b of
        the lcm lattice, in increasing exponent order, which is conclusive
        for every monomial complex (module docstring).
        """
        report: dict = {}
        ver = self.verify()
        report["complex_ok"] = ver.ok
        if not ver.ok:
            report["verify"] = ver.to_json()
            return False, report

        gens = sorted(str(g) for g in ideal.generators)
        deg1 = sorted(str(l.multidegree) for l in self.labels(1))
        report["degree1_matches_generators"] = gens == deg1

        # every stored entry is a coefficient, and the unit has
        # multidegree 1: d(e_c) = +-m_c is the column {unit: +-1}
        unit = self.labels(0)[0]
        d1 = self.diff.get(1, {})
        d1_ok = all(d1.get(c) in ({unit: 1}, {unit: -1}) for c in self.labels(1))
        report["d1_plus_minus_generators"] = d1_ok

        report["labels_squarefree"] = self.labels_squarefree()
        if ideal.generators and ideal.ring != self.ring:
            raise PolyError("monomials over different rings")
        index = StrandIndex(self, True, ideal.generators)
        failures = []
        # H_0 = 0 exactly when some generator divides b
        for b, generators, masks in index.lattice():
            h = index.homology(masks)
            want_h0 = 0 if generators else 1
            if h[0] != want_h0:
                failures.append({"strand": str(index.divisors.code.monomial(b)), "H": list(h), "H0_expected": want_h0})
            elif any(h[1:]):
                failures.append({"strand": str(index.divisors.code.monomial(b)), "H": list(h)})
        report["strand_failures"] = failures
        ok = (
            report["degree1_matches_generators"]
            and d1_ok
            and not failures
        )
        report["ok"] = ok
        return ok, report

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        basis = {
            str(i): [
                {"tag": tag_to_json(l.tag), "multidegree": str(l.multidegree)}
                for l in self.labels(i)
            ]
            for i in self.degrees()
        }
        diffs = {
            str(i): grid(self.labels(i - 1), self.labels(i), self.diff.get(i, {}))
            for i in self.degrees()
            if i
        }
        return {
            "name": self.name,
            "ring": self.ring.to_json(),
            "basis": basis,
            "differentials": diffs,
        }


# ---------------------------------------------------------------------------
# chain maps and cones


class ChainMap:
    """A degree-0 chain map psi: S -> T with a uniform multidegree shift.

    Homogeneity: the entry from source label s to target label t must be a
    rational multiple c of shift * m_s / m_t, and is stored as c, the way
    the complexes store their columns (`_stored`, which refuses any other
    entry).  That each image stays in its degree, and commutation with the
    differentials, are checked on construction, on coefficients.
    """

    def __init__(
        self,
        source: LabeledFreeComplex,
        target: LabeledFreeComplex,
        entries: dict[BasisLabel, dict],
        multidegree_shift: Monomial | None = None,
    ):
        """`entries[s]` is the image of e_s, {t: entry}, each entry the
        coefficient c of shift * m_s / m_t, an int or a Fraction."""
        self.source = source
        self.target = target
        self.shift = (
            multidegree_shift if multidegree_shift is not None else source.ring.one()
        )
        self.entries: dict[BasisLabel, dict] = {}
        for s, img in entries.items():
            b = self.shift * s.multidegree
            self.entries[s] = {t: v for t, p in img.items() if (v := _stored(p, t, b, s))}
        self._verify()

    def _verify(self):
        for i in self.source.degrees():
            tset = set(self.target.labels(i))
            for s in self.source.labels(i):
                if not tset.issuperset(self.entries.get(s, ())):
                    raise ComplexError(f"chain map image of {s} leaves degree {i}")
        # d psi (e_s) and psi d (e_s) both have multidegree shift * m_s, so
        # they are compared as coefficient tables
        for i in self.source.degrees():
            if i == 0:
                continue
            dT, dS = self.target.diff.get(i, {}), self.source.diff.get(i, {})
            for s in self.source.labels(i):
                lhs = combine((c, dT.get(t, {})) for t, c in self.entries.get(s, {}).items())
                rhs = combine((c, self.entries.get(r, {})) for r, c in dS.get(s, {}).items())
                if lhs != rhs:
                    raise ComplexError(f"chain map does not commute at {s}")


def desuspend_truncation(G: LabeledFreeComplex) -> LabeledFreeComplex:
    """The complex with degree i equal to G_{i+1} and negated differential.

    This drops G_0; it is a free resolution of the image of d_1 when G is a
    resolution.
    """
    basis = {i - 1: G.labels(i) for i in G.degrees() if i >= 1}
    diff = {
        i - 1: {c: {r: -v for r, v in G.diff.get(i, {}).get(c, {}).items()} for c in G.labels(i)}
        for i in G.degrees()
        if i >= 2
    }
    return LabeledFreeComplex(G.ring, basis, diff, name=f"desusp({G.name})")


def multiplication_map(C: LabeledFreeComplex, m: Monomial) -> ChainMap:
    """The chain map C -> C given by multiplication with the monomial m."""
    entries = {l: {l: 1} for l in C.degree}
    return ChainMap(C, C, entries, multidegree_shift=m)


def mapping_cone(
    psi: ChainMap,
    target_relabel: Callable[[tuple], tuple],
    source_relabel: Callable[[tuple], tuple],
    name: str,
) -> LabeledFreeComplex:
    """Cone(psi: S -> T), named `name`: degree i is T_i + S_{i-1}, with
    d(t, s) = (d_T t + psi(s), -d_S s), the tags of the two copies mapped
    by `target_relabel` and `source_relabel`.

    Source-copy labels get multidegree shift * m_s so the cone stays
    multigraded when psi has a nontrivial monomial shift.
    """
    S, T = psi.source, psi.target
    if S.ring != T.ring:
        raise ComplexError("cone of a map between different rings")
    ring = T.ring

    tmap: dict[BasisLabel, BasisLabel] = {}
    smap: dict[BasisLabel, BasisLabel] = {}
    basis: dict[int, list[BasisLabel]] = {}
    top = max(T.top_degree(), S.top_degree() + 1)
    for i in range(top + 1):
        row: list[BasisLabel] = []
        for t in T.labels(i):
            nt = BasisLabel(target_relabel(t.tag), t.multidegree)
            tmap[t] = nt
            row.append(nt)
        for s in S.labels(i - 1):
            ns = BasisLabel(source_relabel(s.tag), psi.shift * s.multidegree)
            smap[s] = ns
            row.append(ns)
        if row:
            basis[i] = row

    # relabelling keeps m_c / m_r, and psi stores its entries relative to
    # shift * m_s, the multidegree of the cone column: coefficients carry over
    diff: dict[int, dict[BasisLabel, dict]] = {}
    for i in range(1, top + 1):
        cols: dict[BasisLabel, dict] = {}
        dT, dS = T.diff.get(i, {}), S.diff.get(i - 1, {})
        for t in T.labels(i):
            cols[tmap[t]] = {tmap[r]: v for r, v in dT.get(t, {}).items()}
        for s in S.labels(i - 1):
            col = {tmap[t]: v for t, v in psi.entries.get(s, {}).items()}
            col.update((smap[r], -v) for r, v in dS.get(s, {}).items())
            cols[smap[s]] = col
        diff[i] = cols
    return LabeledFreeComplex(ring, basis, diff, name=name)


# ---------------------------------------------------------------------------
# graded Betti numbers


def graded_betti(F: LabeledFreeComplex) -> dict[tuple[int, str], int]:
    """Multigraded Betti numbers of the module F resolves, as
    {(i, multidegree): dim}, computed from F tensor k.

    Tensoring with k keeps only the constant differential entries, which
    connect labels of equal multidegree; the homology splits by exact label
    multidegree.  Between labels of equal multidegree an entry is its stored
    coefficient.
    """
    groups: dict[Monomial, dict[int, list[BasisLabel]]] = {}
    for i in F.degrees():
        for l in F.labels(i):
            groups.setdefault(l.multidegree, {}).setdefault(i, []).append(l)
    out: dict[tuple[int, str], int] = {}
    for b, by_deg in groups.items():
        degs = sorted(by_deg)
        ranks: dict[int, int] = {}
        for i in degs:
            rows = by_deg.get(i - 1, [])
            cols = by_deg.get(i, [])
            if rows and cols:
                ranks[i] = linalg.rank(scalar_columns(F.diff.get(i, {}), rows, cols))
            else:
                ranks[i] = 0
        for i in degs:
            n_i = len(by_deg.get(i, []))
            dim = n_i - ranks.get(i, 0) - ranks.get(i + 1, 0)
            if dim:
                out[(i, str(b))] = dim
    return out


def total_betti(F: LabeledFreeComplex) -> tuple[int, ...]:
    """Total Betti numbers (beta_0, ..., beta_pd) from graded_betti."""
    return betti_totals(graded_betti(F))


def betti_totals(gb: dict[tuple[int, str], int]) -> tuple[int, ...]:
    """Total Betti numbers from graded ones {(i, multidegree): dim}."""
    top = max((i for i, _ in gb), default=0)
    return tuple(sum(d for (i, _), d in gb.items() if i == k) for k in range(top + 1))


# ---------------------------------------------------------------------------
# comparisons


def complexes_equal(A: LabeledFreeComplex, B: LabeledFreeComplex) -> bool:
    """Exact equality: same tags in the same order, same differentials."""
    if A.degrees() != B.degrees():
        return False
    for i in A.degrees():
        if [l.tag for l in A.labels(i)] != [l.tag for l in B.labels(i)]:
            return False
        if [str(l.multidegree) for l in A.labels(i)] != [
            str(l.multidegree) for l in B.labels(i)
        ]:
            return False
    # the multidegrees agree, so equal stored entries are equal entries
    for i in A.degrees():
        if i == 0:
            continue
        da, db = A.diff.get(i, {}), B.diff.get(i, {})
        for ca, cb in zip(A.labels(i), B.labels(i)):
            mapa = {r.tag: v for r, v in da.get(ca, {}).items()}
            mapb = {r.tag: v for r, v in db.get(cb, {}).items()}
            if mapa != mapb:
                return False
    return True
