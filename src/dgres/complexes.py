"""Multigraded complexes of free modules with labeled bases.

A `LabeledFreeComplex` is a chain complex of free Q-modules concentrated in
degrees 0..top, each free module carrying an ordered basis of `BasisLabel`s
(a hashable tag plus a monomial multidegree).  Differentials are stored
column-sparse: for each degree i >= 1 and basis label c of degree i, a dict
row-label -> Polynomial.

Multigraded homogeneity means every entry in column c / row r is a rational
multiple of the monomial m_c / m_r.  `verify` checks d^2 = 0 and homogeneity
entry by entry and reports the failures by (degree, row tag, col tag).

Strands: for a monomial b, the labels whose multidegree divides b span a
subcomplex; evaluating entries at x=1 gives a complex of Q-vector spaces
whose homology computes the multigraded pieces Tor-style.  This is how
`is_resolution_of` works.  The first strand call indexes the complex once
(`strands.StrandIndex`: labels grouped by multidegree, differentials
evaluated at x=1); a strand's groups then take a few integer operations to
find, strands with the same groups share one computation, and ranks are
exact sparse ranks.  For complexes whose label multidegrees are all
squarefree, vanishing on all squarefree strands is conclusive;
`is_resolution_of` records whether that hypothesis held.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from . import linalg
from .poly import (
    Monomial,
    MonomialIdeal,
    PolyError,
    Polynomial,
    VariableSet,
    monomial_divide,
    parse_monomial,
    parse_polynomial,
    squarefree_monomials,
)
from .strands import Divisors, StrandIndex, scalar_columns


class ComplexError(ValueError):
    pass


@dataclass(frozen=True)
class BasisLabel:
    """A named basis element with a monomial multidegree."""

    tag: tuple
    multidegree: Monomial

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


def tag_from_json(obj):
    if isinstance(obj, list):
        return tuple(tag_from_json(t) for t in obj)
    return obj


VecT = dict[BasisLabel, Polynomial]


def vec_add(a: VecT, b: VecT) -> VecT:
    out = dict(a)
    for k, p in b.items():
        q = out.get(k)
        s = p if q is None else q + p
        if s.is_zero():
            out.pop(k, None)
        else:
            out[k] = s
    return out


def vec_scale(a: VecT, c) -> VecT:
    out = {}
    for k, p in a.items():
        q = p * c
        if not q.is_zero():
            out[k] = q
    return out


def vec_is_zero(a: VecT) -> bool:
    return all(p.is_zero() for p in a.values())


@dataclass
class ComplexReport:
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
        diff: dict[int, dict[BasisLabel, VecT]],
        name: str = "",
    ):
        self.ring = ring
        self.basis: dict[int, tuple[BasisLabel, ...]] = {
            i: tuple(lbls) for i, lbls in basis.items() if lbls
        }
        self.diff = diff
        self.name = name
        self._strand_cache: dict = {}
        self._strand_index: StrandIndex | None = None  # built by the first strand call
        # the one index: tag -> label per degree, for the checks below,
        # find_label and degree_of
        self._by_tag: dict[int, dict[tuple, BasisLabel]] = {}
        for i, lbls in self.basis.items():
            by_tag = {l.tag: l for l in lbls}
            if len(by_tag) != len(lbls):
                raise ComplexError(f"duplicate tags in degree {i}")
            self._by_tag[i] = by_tag
        for i, cols in diff.items():
            cols_in = self._by_tag.get(i, {})
            rows_in = self._by_tag.get(i - 1, {})
            for c, col in cols.items():
                if cols_in.get(c.tag) != c:
                    raise ComplexError(f"differential column {c} not in degree {i} basis")
                for r in col:
                    if rows_in.get(r.tag) != r:
                        raise ComplexError(
                            f"differential row {r} not in degree {i-1} basis"
                        )

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

    def entry(self, i: int, row: BasisLabel, col: BasisLabel) -> Polynomial:
        return self.diff.get(i, {}).get(col, {}).get(row, Polynomial.zero(self.ring))

    def column(self, i: int, col: BasisLabel) -> VecT:
        return dict(self.diff.get(i, {}).get(col, {}))

    def matrix(self, i: int) -> list[list[Polynomial]]:
        rows = self.labels(i - 1)
        cols = self.labels(i)
        return [[self.entry(i, r, c) for c in cols] for r in rows]

    def apply_diff(self, i: int, v: VecT) -> VecT:
        out: VecT = {}
        for c, p in v.items():
            for r, q in self.diff.get(i, {}).get(c, {}).items():
                s = out.get(r, Polynomial.zero(self.ring)) + p * q
                if s.is_zero():
                    out.pop(r, None)
                else:
                    out[r] = s
        return out

    def find_label(self, tag: tuple, degree: int | None = None) -> BasisLabel:
        degs = [degree] if degree is not None else self.degrees()
        for i in degs:
            l = self._by_tag.get(i, {}).get(tag)
            if l is not None:
                return l
        raise ComplexError(f"no label with tag {tag}")

    def degree_of(self, label: BasisLabel) -> int:
        for i in self.degrees():
            if self._by_tag.get(i, {}).get(label.tag) == label:
                return i
        raise ComplexError(f"label {label} not in complex")

    # -- verification ------------------------------------------------------

    def verify(self) -> ComplexReport:
        report = ComplexReport(ok=True)
        # homogeneity: entry in (row r, col c) must be a rational multiple of
        # the monomial m_c / m_r
        for i in sorted(self.diff):
            for c, col in self.diff[i].items():
                for r, p in col.items():
                    if p.is_zero():
                        continue
                    bad = False
                    if not r.multidegree.divides(c.multidegree):
                        bad = True
                    else:
                        expected = monomial_divide(c.multidegree, r.multidegree)
                        md = p.multidegree()
                        bad = md != expected
                    if bad:
                        report.homogeneity_failures.append(
                            (i, tag_to_json(r.tag), tag_to_json(c.tag), str(p))
                        )
        # d^2 = 0
        for i in self.degrees():
            if i < 2:
                continue
            for c in self.labels(i):
                composite = self.apply_diff(i - 1, self.column(i, c))
                for r, p in composite.items():
                    if not p.is_zero():
                        report.d2_failures.append(
                            (i, tag_to_json(r.tag), tag_to_json(c.tag), str(p))
                        )
        deg0 = self.labels(0)
        report.degree_zero_ok = (
            len(deg0) == 1 and deg0[0].multidegree.is_one()
        )
        report.ok = (
            not report.d2_failures
            and not report.homogeneity_failures
            and report.degree_zero_ok
        )
        return report

    def is_minimal(self) -> bool:
        """No differential entry is a nonzero constant."""
        for i in self.diff:
            for col in self.diff[i].values():
                for p in col.values():
                    if p.is_nonzero_constant():
                        return False
        return True

    def labels_squarefree(self) -> bool:
        return all(
            l.multidegree.is_squarefree() for i in self.degrees() for l in self.labels(i)
        )

    # -- strands and homology ----------------------------------------------

    def _strand(self, b: Monomial) -> tuple[StrandIndex, int]:
        """The strand index and the bitset of its groups in the b-strand."""
        if self._strand_index is None:
            self._strand_index = StrandIndex(self)
        index = self._strand_index
        return index, index.groups.of(b)

    def strand_labels(self, b: Monomial) -> dict[int, list[BasisLabel]]:
        """Labels whose multidegree divides b (componentwise, multiplicity
        counts: x^2 does not divide x)."""
        index, key = self._strand(b)
        return {
            i: [self.labels(i)[k] for k in pos]
            for i, pos in enumerate(index.positions(key))
        }

    def strand_homology(self, b: Monomial) -> tuple[int, ...]:
        """Dimensions of the homology of the b-strand, degree 0..top."""
        index, key = self._strand(b)
        cached = self._strand_cache.get(key)
        if cached is not None:
            return cached
        pos = index.positions(key)
        ranks = [0] * (len(pos) + 1)  # ranks[i]: rank of d_i on the strand
        for i in range(1, len(pos)):
            rows, cols = pos[i - 1], pos[i]
            if rows and cols:
                keep = set(rows)
                ranks[i] = linalg.rank(
                    {r: v for r, v in index.columns[i][c].items() if r in keep}
                    for c in cols
                )
        out = tuple(len(p) - ranks[i] - ranks[i + 1] for i, p in enumerate(pos))
        self._strand_cache[key] = out
        return out

    def is_resolution_of(self, ideal: MonomialIdeal) -> tuple[bool, dict]:
        """Decide whether this complex resolves Q/I, with a detail report.

        Checks: complex axioms; degree 0 = Q; degree-1 columns are +-1 times
        the generator monomials and the degree-1 multidegrees equal G(I) as a
        multiset; H_0 and H_i vanishing on every squarefree strand of the
        active variables.  Conclusive when all label multidegrees are
        squarefree (recorded in the report).
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

        d1_ok = True
        unit = self.labels(0)[0]
        for c in self.labels(1):
            col = self.column(1, c)
            entries = [(r, p) for r, p in col.items() if not p.is_zero()]
            if len(entries) != 1:
                d1_ok = False
                continue
            r, p = entries[0]
            if r != unit or not p.is_monomial_multiple():
                d1_ok = False
                continue
            m, coef = p.single_term()
            if m != c.multidegree or coef not in (1, -1):
                d1_ok = False
        report["d1_plus_minus_generators"] = d1_ok

        report["labels_squarefree"] = self.labels_squarefree()
        generators = Divisors(ideal.generators, ideal.ring)
        failures = []
        for b in squarefree_monomials(self.ring):
            h = self.strand_homology(b)
            want_h0 = 0 if generators.of(b) else 1
            if h[0] != want_h0:
                failures.append({"strand": str(b), "H": list(h), "H0_expected": want_h0})
                continue
            if any(h[1:]):
                failures.append({"strand": str(b), "H": list(h)})
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
        diffs = {}
        for i in self.degrees():
            if i == 0:
                continue
            diffs[str(i)] = [[str(p) for p in row] for row in self.matrix(i)]
        return {
            "name": self.name,
            "ring": self.ring.to_json(),
            "basis": basis,
            "differentials": diffs,
        }

    @staticmethod
    def from_json(d: dict) -> "LabeledFreeComplex":
        ring = VariableSet.from_json(d["ring"])
        basis: dict[int, list[BasisLabel]] = {}
        for k, lbls in d["basis"].items():
            basis[int(k)] = [
                BasisLabel(tag_from_json(l["tag"]), parse_monomial(ring, l["multidegree"]))
                for l in lbls
            ]
        diff: dict[int, dict[BasisLabel, VecT]] = {}
        for k, mat in d.get("differentials", {}).items():
            i = int(k)
            rows = basis.get(i - 1, [])
            cols = basis.get(i, [])
            cdict: dict[BasisLabel, VecT] = {}
            for ci, c in enumerate(cols):
                col: VecT = {}
                for ri, r in enumerate(rows):
                    p = parse_polynomial(ring, mat[ri][ci])
                    if not p.is_zero():
                        col[r] = p
                cdict[c] = col
            diff[i] = cdict
        return LabeledFreeComplex(ring, basis, diff, name=d.get("name", ""))


# ---------------------------------------------------------------------------
# chain maps and cones


class ChainMap:
    """A degree-0 chain map psi: S -> T with a uniform multidegree shift.

    Homogeneity: the entry from source label s to target label t must be a
    rational multiple of shift * m_s / m_t.  Commutation with the
    differentials is checked on construction.
    """

    def __init__(
        self,
        source: LabeledFreeComplex,
        target: LabeledFreeComplex,
        entries: dict[BasisLabel, VecT],
        multidegree_shift: Monomial | None = None,
        check: bool = True,
    ):
        self.source = source
        self.target = target
        self.entries = entries
        self.shift = (
            multidegree_shift if multidegree_shift is not None else source.ring.one()
        )
        if check:
            self._verify()

    def apply(self, v: VecT) -> VecT:
        out: VecT = {}
        for s, p in v.items():
            for t, q in self.entries.get(s, {}).items():
                acc = out.get(t, Polynomial.zero(self.target.ring)) + p * q
                if acc.is_zero():
                    out.pop(t, None)
                else:
                    out[t] = acc
        return out

    def _verify(self):
        for i in self.source.degrees():
            for s in self.source.labels(i):
                img = self.entries.get(s, {})
                tset = set(self.target.labels(i))
                for t, p in img.items():
                    if p.is_zero():
                        continue
                    if t not in tset:
                        raise ComplexError(
                            f"chain map image of {s} leaves degree {i}"
                        )
                    want = monomial_divide(
                        self.shift * s.multidegree, t.multidegree
                    )
                    if p.multidegree() != want:
                        raise ComplexError(
                            f"chain map entry ({t},{s}) not homogeneous: {p}"
                        )
        for i in self.source.degrees():
            if i == 0:
                continue
            for s in self.source.labels(i):
                lhs = self.target.apply_diff(i, self.apply({s: Polynomial.constant(self.source.ring, 1)}))
                rhs = self.apply(self.source.apply_diff(i, {s: Polynomial.constant(self.source.ring, 1)}))
                if not vec_is_zero(vec_add(lhs, vec_scale(rhs, -1))):
                    raise ComplexError(f"chain map does not commute at {s}")


def desuspend_truncation(G: LabeledFreeComplex) -> LabeledFreeComplex:
    """The complex with degree i equal to G_{i+1} and negated differential.

    This drops G_0; it is a free resolution of the image of d_1 when G is a
    resolution.
    """
    basis = {i - 1: G.labels(i) for i in G.degrees() if i >= 1}
    diff: dict[int, dict[BasisLabel, VecT]] = {}
    for i in G.degrees():
        if i < 2:
            continue
        diff[i - 1] = {
            c: {r: -p for r, p in G.column(i, c).items()} for c in G.labels(i)
        }
    return LabeledFreeComplex(G.ring, basis, diff, name=f"desusp({G.name})")


def multiplication_map(C: LabeledFreeComplex, m: Monomial) -> ChainMap:
    """The chain map C -> C given by multiplication with the monomial m."""
    entries = {
        l: {l: Polynomial.monomial(m)} for i in C.degrees() for l in C.labels(i)
    }
    return ChainMap(C, C, entries, multidegree_shift=m)


def mapping_cone(
    psi: ChainMap,
    target_relabel: Callable[[tuple], tuple] | None = None,
    source_relabel: Callable[[tuple], tuple] | None = None,
    name: str = "",
) -> LabeledFreeComplex:
    """Cone(psi: S -> T): degree i is T_i + S_{i-1}, with
    d(t, s) = (d_T t + psi(s), -d_S s).

    Source-copy labels get multidegree shift * m_s so the cone stays
    multigraded when psi has a nontrivial monomial shift.
    """
    S, T = psi.source, psi.target
    if S.ring != T.ring:
        raise ComplexError("cone of a map between different rings")
    ring = T.ring
    tre = target_relabel or (lambda tag: ("T", tag))
    sre = source_relabel or (lambda tag: ("S", tag))

    tmap: dict[BasisLabel, BasisLabel] = {}
    smap: dict[BasisLabel, BasisLabel] = {}
    basis: dict[int, list[BasisLabel]] = {}
    top = max(T.top_degree(), S.top_degree() + 1)
    for i in range(top + 1):
        row: list[BasisLabel] = []
        for t in T.labels(i):
            nt = BasisLabel(tre(t.tag), t.multidegree)
            tmap[t] = nt
            row.append(nt)
        for s in S.labels(i - 1):
            ns = BasisLabel(sre(s.tag), psi.shift * s.multidegree)
            smap[s] = ns
            row.append(ns)
        if row:
            basis[i] = row

    def push_t(v: VecT) -> VecT:
        return {tmap[t]: p for t, p in v.items() if not p.is_zero()}

    def push_s(v: VecT) -> VecT:
        return {smap[s]: p for s, p in v.items() if not p.is_zero()}

    one = Polynomial.constant(ring, 1)
    diff: dict[int, dict[BasisLabel, VecT]] = {}
    for i in range(1, top + 1):
        cols: dict[BasisLabel, VecT] = {}
        for t in T.labels(i):
            cols[tmap[t]] = push_t(T.apply_diff(i, {t: one}))
        for s in S.labels(i - 1):
            col = push_t(psi.apply({s: one}))
            if i - 1 >= 1:
                col = vec_add(col, push_s(vec_scale(S.apply_diff(i - 1, {s: one}), -1)))
            cols[smap[s]] = col
        diff[i] = cols
    return LabeledFreeComplex(ring, basis, diff, name=name or f"cone({psi.source.name}->{psi.target.name})")


def tensor_complex(F: LabeledFreeComplex, G: LabeledFreeComplex) -> LabeledFreeComplex:
    """F tensor G over Q; label multidegrees multiply (they do not lcm), so
    squarefree inputs can produce non-squarefree labels."""
    if F.ring != G.ring:
        raise ComplexError("tensor over different rings")
    ring = F.ring
    basis: dict[int, list[BasisLabel]] = {}
    pair: dict[tuple[BasisLabel, BasisLabel], BasisLabel] = {}
    top = F.top_degree() + G.top_degree()
    for n in range(top + 1):
        row = []
        for i in range(n + 1):
            for a in F.labels(i):
                for b in G.labels(n - i):
                    l = BasisLabel(("ot", a.tag, b.tag), a.multidegree * b.multidegree)
                    pair[(a, b)] = l
                    row.append(l)
        if row:
            basis[n] = row
    one = Polynomial.constant(ring, 1)
    diff: dict[int, dict[BasisLabel, VecT]] = {}
    for n in range(1, top + 1):
        cols: dict[BasisLabel, VecT] = {}
        for i in range(n + 1):
            for a in F.labels(i):
                for b in G.labels(n - i):
                    col: VecT = {}
                    if i >= 1:
                        for r, p in F.apply_diff(i, {a: one}).items():
                            col[pair[(r, b)]] = p
                    if n - i >= 1:
                        sign = Fraction(-1) if i % 2 else Fraction(1)
                        for r, p in G.apply_diff(n - i, {b: one}).items():
                            key = pair[(a, r)]
                            q = col.get(key, Polynomial.zero(ring)) + p * sign
                            if q.is_zero():
                                col.pop(key, None)
                            else:
                                col[key] = q
                    cols[pair[(a, b)]] = col
        diff[n] = cols
    return LabeledFreeComplex(ring, basis, diff, name=f"{F.name}(x){G.name}")


# ---------------------------------------------------------------------------
# graded Betti numbers


def graded_betti(F: LabeledFreeComplex) -> dict[tuple[int, str], int]:
    """Multigraded Betti numbers of the module F resolves, as
    {(i, multidegree): dim}, computed from F tensor k.

    Tensoring with k keeps only the constant differential entries, which
    connect labels of equal multidegree; the homology splits by exact label
    multidegree.
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
                ranks[i] = linalg.rank(
                    scalar_columns(F, i, rows, cols, Polynomial.constant_coefficient)
                )
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
    gb = graded_betti(F)
    if not gb:
        return (0,)
    top = max(i for i, _ in gb)
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
    for i in A.degrees():
        if i == 0:
            continue
        for ca, cb in zip(A.labels(i), B.labels(i)):
            cola = A.column(i, ca)
            colb = B.column(i, cb)
            mapa = {r.tag: p for r, p in cola.items() if not p.is_zero()}
            mapb = {r.tag: p for r, p in colb.items() if not p.is_zero()}
            if mapa != mapb:
                return False
    return True


def equal_up_to_basis_scaling(
    A: LabeledFreeComplex,
    B: LabeledFreeComplex,
    signs_only: bool = True,
) -> tuple[bool, dict | None]:
    """Equality after rescaling each basis element by a unit (by default by
    +-1 only).  Bases are matched by tag and order.  Returns (ok, scaling).
    """
    if A.degrees() != B.degrees():
        return False, None
    for i in A.degrees():
        if [l.tag for l in A.labels(i)] != [l.tag for l in B.labels(i)]:
            return False, None
    eps: dict[tuple, Fraction] = {}
    for l in A.labels(0):
        eps[l.tag] = Fraction(1)
    for i in A.degrees():
        if i == 0:
            continue
        for ca, cb in zip(A.labels(i), B.labels(i)):
            cola = {r.tag: p for r, p in A.column(i, ca).items() if not p.is_zero()}
            colb = {r.tag: p for r, p in B.column(i, cb).items() if not p.is_zero()}
            if set(cola) != set(colb):
                return False, None
            scale = None
            for rt in cola:
                pa, pb = cola[rt], colb[rt]
                ma,ca_ = pa.single_term() if pa.is_monomial_multiple() else (None, None)
                mb, cb_ = pb.single_term() if pb.is_monomial_multiple() else (None, None)
                if ma is None or mb is None or ma != mb:
                    return False, None
                # with a_l = eps_l b_l one has A(r,c) = (eps_c/eps_r) B(r,c)
                want = Fraction(ca_, cb_) * eps[rt]
                if scale is None:
                    scale = want
                elif scale != want:
                    return False, None
            if scale is None:
                scale = Fraction(1)
            if signs_only and scale not in (Fraction(1), Fraction(-1)):
                return False, None
            eps[ca.tag] = scale
    return True, {".".join(map(str, k)) if isinstance(k, tuple) else str(k): str(v) for k, v in eps.items()}
