"""DG-algebra verification: exhaustive axiom checking on Taylor structures,
a deliberately sign-broken product caught by the Leibniz check, exact
submodule membership with rational witnesses, dg-ideal closure, and unit-pivot
quotients (including the 5-cycle whose matching sources are a dg ideal
without being superset-closed).

`dense_dg_check` keeps the exhaustive pair/triple loop as the reference the
sparse `dg_check` must reproduce report for report, on honest and tampered
structures; products or differentials that are not scalar multiples of the
implied monomials are refused where they are stored, by both alike.
`dense_dg_ideal_closure` does the same for `dg_ideal_closure`, with
Polynomial products and multidegrees recomputed on every membership
call."""

import itertools
import json
import random
import re
from fractions import Fraction

import pytest

from dgres import (
    BasisLabel,
    DGError,
    DGStructure,
    Element,
    LabeledFreeComplex,
    MonomialIdeal,
    SpanGenerator,
    SubmoduleSpan,
    VariableSet,
    build_cone_resolution,
    build_family,
    complexes_equal,
    dg_check,
    dg_ideal_closure,
    edge_ideal,
    lyubeznik_matching,
    lyubeznik_resolution,
    quotient_dg,
    span_from_matching_sources,
    submodule_membership,
    taylor_dg_structure,
    taylor_graph,
    taylor_resolution,
    validate_matching,
)
from dgres.classify import C4_MATCHING, C5_MATCHING, _cycle_consecutive_ideal, _d3_order, classify
from dgres.combin import graph_diameter, graph_shape
from dgres.complexes import ComplexError, tag_to_json
from dgres import dg as dg_module
from dgres.dg import DGIdealError, DGReport, ScalarProduct, boundary_closed, closure_products
from dgres.morse import is_superset_closed, matching_sources
from dgres.poly import exact, monomial_divide

from dense_linalg import solve
from conftest import matching_targets, trees_of_diameter_3_and_4
from reference_products import taylor_table
from reference_poly import constant, coords, element, entry, entry_polynomial, parse_polynomial, single_term

RING3 = VariableSet(("x", "y", "z"))


def ideal(ring, *gens):
    return MonomialIdeal.from_strings(ring, list(gens))


def scaled(prod: ScalarProduct, c) -> ScalarProduct:
    """c times a stored product."""
    return ScalarProduct({l: x * c for l, x in prod.items()} if c else {})


def taylor_fn(T: LabeledFreeComplex):
    """The Taylor product of T's labels, as `taylor_dg_structure` has it."""
    return lambda a, b: taylor_table(T, a.tag[1:], b.tag[1:], "e")


class TestElement:
    def test_add_requires_equal_degree(self):
        F = taylor_resolution(ideal(RING3, "x", "y"))
        a = Element.basis(F, F.find_label(("e", 0)))
        b = Element.basis(F, F.find_label(("e", 0, 1)))
        with pytest.raises(DGError):
            a + b

    def test_diff_squares_to_zero(self):
        F = taylor_resolution(ideal(RING3, "x*y", "y*z", "x*z"))
        for i in F.degrees():
            for l in F.labels(i):
                assert Element.basis(F, l).diff().diff().is_zero()

    def test_multidegree(self):
        F = taylor_resolution(ideal(RING3, "x", "y"))
        e0 = F.find_label(("e", 0))
        e1 = F.find_label(("e", 1))
        one = constant(RING3, 1)
        assert str(element(F, 1, {e0: parse_polynomial(RING3, "y")}).multidegree()) == "x*y"
        # coordinates of two multidegrees make no element: b is None only for zero
        with pytest.raises(DGError, match=r"^\(1\)\*\(e,0\)\[x\] \+ \(1\)\*\(e,1\)\[y\] is not multigraded$"):
            element(F, 1, {e0: one, e1: one})
        assert Element.zero(F, 2).multidegree() is None


class TestDGCheck:
    def test_taylor_passes(self, corpus):
        for I in corpus[:4]:
            dg = taylor_dg_structure(I)
            report = dg_check(dg)
            assert report.ok, report.to_json()
            n = sum(dg.complex.ranks())
            assert report.checked_pairs == n * n
            assert report.checked_triples == n**3
            assert report.failures == {}

    def test_pairs_only_mode(self, taylor_fixture_ideal):
        report = dg_check(taylor_dg_structure(taylor_fixture_ideal), triples=False)
        assert report.ok
        assert report.checked_triples == 0

    def test_broken_unit_detected(self, taylor_fixture_ideal):
        I = taylor_fixture_ideal
        T = taylor_resolution(I)

        def product(a, b):
            if len(a.tag) == 1 or len(b.tag) == 1:  # unit factor: drop it
                return ScalarProduct()
            return taylor_fn(T)(a, b)

        report = dg_check(DGStructure(T, product), triples=False)
        assert not report.ok
        assert "unital" in report.failures

    def test_sign_mutated_product_fails_leibniz(self, taylor_fixture_ideal):
        # negating products of two degree-1 elements keeps graded
        # commutativity and odd squares intact but breaks the Leibniz rule
        # (and with it associativity against degree-2 factors)
        I = taylor_fixture_ideal
        T = taylor_resolution(I)

        def mutated(a, b):
            prod = taylor_fn(T)(a, b)
            return scaled(prod, -1) if len(a.tag) == len(b.tag) == 2 else prod

        report = dg_check(DGStructure(T, mutated))
        assert not report.ok
        assert set(report.failures) == {"leibniz", "associativity"}
        witness = report.failures["leibniz"][0]
        assert witness["a"] == ["e", 0]
        assert witness["b"] == ["e", 1]
        assert witness["d_ab"] != witness["da_b_plus_a_db"]
        for w in report.failures["leibniz"]:
            assert set(w) == {"a", "b", "d_ab", "da_b_plus_a_db"}

    def test_failure_bucket_cap(self, taylor_fixture_ideal):
        I = taylor_fixture_ideal
        T = taylor_resolution(I)

        def broken(a, b):  # everything vanishes: units fail on every label
            return ScalarProduct()

        report = dg_check(DGStructure(T, broken), triples=False)
        assert not report.ok
        assert len(report.failures["unital"]) == 10  # capped


@pytest.fixture(scope="module")
def koszul():
    return taylor_resolution(ideal(RING3, "x", "y", "z"))


@pytest.fixture(scope="module")
def dg5(c5_ideal):
    return taylor_dg_structure(c5_ideal)


class TestSubmoduleMembership:
    def test_generator_is_member(self, koszul):
        span = span_from_matching_sources(koszul, [(0, 1)])
        de = Element.basis(koszul, koszul.find_label(("e", 0, 1))).diff()
        ok, witness = submodule_membership(span, de)
        assert ok
        assert witness == [
            {"gen": ["de", 0, 1], "coefficient": "1", "monomial_multiple": "1"}
        ]

    def test_monomial_multiple_recorded(self, koszul):
        span = span_from_matching_sources(koszul, [(0, 1)])
        e01 = koszul.find_label(("e", 0, 1))
        el = element(koszul, 2, {e01: parse_polynomial(RING3, "z")})
        ok, witness = submodule_membership(span, el)
        assert ok
        assert witness == [
            {"gen": ["e", 0, 1], "coefficient": "1", "monomial_multiple": "z"}
        ]

    def test_non_member(self, koszul):
        span = span_from_matching_sources(koszul, [(0, 1)])
        e02 = Element.basis(koszul, koszul.find_label(("e", 0, 2)))
        ok, witness = submodule_membership(span, e02)
        assert not ok
        assert witness is None

    def test_zero_element(self, koszul):
        span = span_from_matching_sources(koszul, [(0, 1)])
        assert submodule_membership(span, Element.zero(koszul, 2)) == (True, [])

    def test_mixed_multidegree_rejected(self, koszul):
        # e01 + e02 (at x*y and x*z) is refused as a sum of stored elements,
        # and as coordinates by the reader, so it never reaches membership
        e01, e02 = koszul.find_label(("e", 0, 1)), koszul.find_label(("e", 0, 2))
        with pytest.raises(DGError, match="^adding elements of different multidegrees x\\*y and x\\*z$"):
            Element.basis(koszul, e01) + Element.basis(koszul, e02)
        one = constant(RING3, 1)
        with pytest.raises(DGError, match="is not multigraded$"):
            element(koszul, 2, {e01: one, e02: one})

    def test_non_multigraded_generator_rejected(self, koszul):
        # (1 + z) e01, of two terms, has no stored form (b, {l: c}): the
        # reader refuses it, so it never becomes a span generator
        vec = {koszul.find_label(("e", 0, 1)): parse_polynomial(RING3, "1 + z")}
        with pytest.raises(DGError, match=r"^\(z \+ 1\)\*\(e,0,1\)\[x\*y\] is not multigraded$"):
            element(koszul, 2, vec)


class TestDGIdealClosure:
    def test_principal_span_not_an_ideal(self):
        I = ideal(RING3, "x", "y", "z")
        dg = taylor_dg_structure(I)
        span = span_from_matching_sources(dg.complex, [(0, 1)])
        ok, report = dg_ideal_closure(dg, span)
        assert not ok
        assert report["boundary_closed"]
        assert report["failures"]
        entry = report["failures"][0]
        assert set(entry) == {"factor", "gen", "product"}

    def test_boundary_closure_precondition(self):
        I = ideal(RING3, "x", "y", "z")
        dg = taylor_dg_structure(I)
        cx = dg.complex
        e01 = Element.basis(cx, cx.find_label(("e", 0, 1)))
        bare = SubmoduleSpan(cx, [SpanGenerator(("e", 0, 1), e01)])
        refused = r"^span is not closed under the differential at generator \('e', 0, 1\)$"
        for check in (boundary_closed, lambda span: dg_ideal_closure(dg, span)):
            with pytest.raises(DGError, match=refused):
                check(bare)

    def test_whisker_matching_span_is_ideal(self):
        ring = VariableSet(("x", "y", "x1", "y1", "z"))
        I = MonomialIdeal.from_strings(ring, ["x*y", "x*z", "y*z", "x*x1", "y*y1"])
        dg = taylor_dg_structure(I)
        span = span_from_matching_sources(
            dg.complex, matching_sources(lyubeznik_matching(I))
        )
        ok, report = dg_ideal_closure(dg, span)
        assert ok
        assert all("witness" in e for e in report["products"])


class TestQuotient:
    def test_whisker_quotient_equals_subcomplex(self):
        ring = VariableSet(("x", "y", "x1", "y1", "z"))
        I = MonomialIdeal.from_strings(ring, ["x*y", "x*z", "y*z", "x*x1", "y*y1"])
        dg = taylor_dg_structure(I)
        matching = lyubeznik_matching(I)
        span = span_from_matching_sources(dg.complex, matching_sources(matching))
        prefer = {("e",) + t for t in matching_targets(matching)} | {
            ("e",) + s for s in matching_sources(matching)
        }
        q = quotient_dg(dg, span, prefer_eliminate=prefer)
        assert complexes_equal(q.structure.complex, lyubeznik_resolution(I))
        assert dg_check(q.structure).ok

    def test_project_kills_span_and_fixes_unit(self):
        ring = VariableSet(("x", "y", "x1", "y1", "z"))
        I = MonomialIdeal.from_strings(ring, ["x*y", "x*z", "y*z", "x*x1", "y*y1"])
        dg = taylor_dg_structure(I)
        matching = lyubeznik_matching(I)
        span = span_from_matching_sources(dg.complex, matching_sources(matching))
        q = quotient_dg(dg, span)
        for g in span.generators:
            assert q.elimination.substitute(g.element.vec, g.element.degree) == {}
        assert q.elimination.substitute({dg.unit: 1}, 0) == {dg.unit: 1}
        assert q.structure.unit == dg.unit

    def test_span_without_unit_pivot_not_closed_under_d_is_refused_as_no_dg_ideal(self):
        """x*e_0 has no unit pivot, and its boundary x^2 leaves the span:
        `quotient_dg` decides the dg ideal before it eliminates, so the
        refusal is `boundary_closed`'s, not the elimination's."""
        I = ideal(RING3, "x", "y", "z")
        dg = taylor_dg_structure(I)
        T = dg.complex
        e0 = T.find_label(("e", 0))
        gen = SpanGenerator(("g",), element(T, 1, {e0: parse_polynomial(RING3, "x")}))
        with pytest.raises(DGIdealError, match=r"^span is not closed under the differential at generator \('g',\)$") as exc:
            quotient_dg(dg, SubmoduleSpan(T, [gen]))
        assert exc.value.boundary_closed is False
        assert exc.value.witness == [{"gen": ["g"], "boundary": "(x^2)*(e)[1]"}]

    def test_no_unit_pivot_raises(self):
        """x*T, the span of x*e_U over every Taylor label U, is a dg ideal
        (x times a dg algebra) with no unit pivot: each x*e_U lies at
        x*m_U, and no label has that multidegree.  So the dg-ideal check
        passes and the elimination refuses, first in degree 0."""
        I = ideal(RING3, "x", "y", "z")
        dg = taylor_dg_structure(I)
        T = dg.complex
        x = parse_polynomial(RING3, "x")
        gens = [SpanGenerator(("x",) + l.tag, element(T, T.degree_of(l), {l: x})) for l in T.degree]
        with pytest.raises(DGError, match="^no unit pivot in degree 0") as exc:
            quotient_dg(dg, SubmoduleSpan(T, gens))
        assert type(exc.value) is DGError
        assert exc.value.witness == [{"gen": ["x", "e"], "pivot": ["e"], "entry": "x"}]

    def test_non_subcomplex_span_raises(self):
        I = ideal(RING3, "x", "y", "z")
        dg = taylor_dg_structure(I)
        T = dg.complex
        e01 = Element.basis(T, T.find_label(("e", 0, 1)))
        bare = SubmoduleSpan(T, [SpanGenerator(("e", 0, 1), e01)])
        with pytest.raises(DGError):
            quotient_dg(dg, bare)


class TestFiveCycle:
    """The pentagon edge ideal: the hand-built Morse matching is valid and
    its source span is a dg ideal even though the sources are not closed
    under supersets, so the quotient still carries a dg-algebra structure."""

    def test_matching_is_valid(self, c5_ideal):
        report = validate_matching(taylor_graph(c5_ideal), C5_MATCHING)
        assert report["ok"], report

    def test_not_superset_closed(self, c5_ideal):
        closed, witness = is_superset_closed(c5_ideal, C5_MATCHING)
        assert not closed
        assert witness == {"source": [0, 1, 2], "superset": [0, 1, 2, 3]}

    def test_span_is_dg_ideal(self, dg5):
        span = span_from_matching_sources(
            dg5.complex, matching_sources(C5_MATCHING)
        )
        ok, report = dg_ideal_closure(dg5, span)
        assert ok, report["failures"]
        assert len(report["products"]) == 155
        assert report["failures"] == []

    def test_five_term_membership_witness(self, dg5):
        span = span_from_matching_sources(
            dg5.complex, matching_sources(C5_MATCHING)
        )
        el = Element.basis(dg5.complex, dg5.complex.find_label(("e", 0, 1, 2, 3)))
        ok, witness = submodule_membership(span, el)
        assert ok
        assert witness == [
            {"gen": ["e", 0, 1, 2, 4], "coefficient": "1", "monomial_multiple": "1"},
            {"gen": ["e", 0, 1, 3, 4], "coefficient": "-1", "monomial_multiple": "1"},
            {"gen": ["e", 0, 2, 3, 4], "coefficient": "1", "monomial_multiple": "1"},
            {"gen": ["e", 1, 2, 3, 4], "coefficient": "-1", "monomial_multiple": "1"},
            {"gen": ["de", 0, 1, 2, 3, 4], "coefficient": "1", "monomial_multiple": "1"},
        ]

    def test_quotient_is_minimal_dg_resolution(self, dg5, c5_ideal):
        span = span_from_matching_sources(
            dg5.complex, matching_sources(C5_MATCHING)
        )
        prefer = {("e",) + t for t in matching_targets(C5_MATCHING)} | {
            ("e",) + s for s in matching_sources(C5_MATCHING)
        }
        q = quotient_dg(dg5, span, prefer_eliminate=prefer)
        cx = q.structure.complex
        assert cx.ranks() == (1, 5, 5, 1)
        assert cx.is_minimal()
        ok, _ = cx.is_resolution_of(c5_ideal)
        assert ok
        report = dg_check(q.structure)
        assert report.ok, report.to_json()


# ---------------------------------------------------------------------------
# the dense reference


def dense_dg_check(dg: DGStructure, triples: bool = True) -> DGReport:
    """The dense reference: exact arithmetic on every basis pair and triple."""
    cx = dg.complex
    report = DGReport()
    labels = list(dg.degree)
    degree = {l: cx.degree_of(l) for l in labels}
    one = dg.unit

    for a in labels:
        left = dg.basis_product(one, a)
        right = dg.basis_product(a, one)
        want = Element.basis(cx, a)
        if not (left - want).is_zero():
            report.record("unital", {"a": tag_to_json(a.tag), "got": str(left)})
        if not (right - want).is_zero():
            report.record("unital", {"a": tag_to_json(a.tag), "got": str(right)})

    for a in labels:
        for b in labels:
            prod = dg.basis_product(a, b)
            report.checked_pairs += 1
            # graded commutativity, both orientations computed directly
            ba = dg.basis_product(b, a)
            sign = -1 if (degree[a] * degree[b]) % 2 else 1
            if not (prod - ba.scale(sign)).is_zero():
                report.record(
                    "graded_commutativity",
                    {
                        "a": tag_to_json(a.tag),
                        "b": tag_to_json(b.tag),
                        "ab": str(prod),
                        "ba": str(ba),
                    },
                )
            # Leibniz: d(ab) = d(a) b + (-1)^{|a|} a d(b)
            ea = Element.basis(cx, a)
            eb = Element.basis(cx, b)
            lhs = prod.diff()
            rhs = dg.multiply(ea.diff(), eb) + dg.multiply(ea, eb.diff()).scale(
                -1 if degree[a] % 2 else 1
            )
            if not (lhs - rhs).is_zero():
                report.record(
                    "leibniz",
                    {
                        "a": tag_to_json(a.tag),
                        "b": tag_to_json(b.tag),
                        "d_ab": str(lhs),
                        "da_b_plus_a_db": str(rhs),
                    },
                )
        if degree[a] % 2 == 1:
            sq = dg.basis_product(a, a)
            if not sq.is_zero():
                report.record("odd_squares", {"a": tag_to_json(a.tag), "a2": str(sq)})

    if triples:
        for a in labels:
            for b in labels:
                ab = dg.basis_product(a, b)
                for c in labels:
                    report.checked_triples += 1
                    bc = dg.basis_product(b, c)
                    if ab.is_zero() and bc.is_zero():
                        continue
                    ec = Element.basis(cx, c)
                    lhs = dg.multiply(ab, ec)
                    ea = Element.basis(cx, a)
                    rhs = dg.multiply(ea, bc)
                    if not (lhs - rhs).is_zero():
                        report.record(
                            "associativity",
                            {
                                "a": tag_to_json(a.tag),
                                "b": tag_to_json(b.tag),
                                "c": tag_to_json(c.tag),
                                "ab_c": str(lhs),
                                "a_bc": str(rhs),
                            },
                        )
    return report


def matching_quotient(ideal, matching) -> DGStructure:
    """The Taylor dg algebra modulo the span of a Morse matching's sources."""
    dg = taylor_dg_structure(ideal)
    sources = matching_sources(matching)
    span = span_from_matching_sources(dg.complex, sources)
    prefer = {("e",) + tuple(t) for _, t in matching} | {
        ("e",) + tuple(s) for s in sources
    }
    return quotient_dg(dg, span, prefer_eliminate=prefer).structure


def tampered(dg: DGStructure, product) -> DGStructure:
    """A fresh structure on the same complex; `product(a, b, honest)` gets
    the honest stored product and returns the one to store."""
    return DGStructure(dg.complex, lambda a, b: product(a, b, dg.table(a, b)))


def rescaled_pairs(dg: DGStructure, pairs, c) -> DGStructure:
    """dg with the product of each ordered pair (a, b) in `pairs` times c."""
    return tampered(dg, lambda a, b, honest: scaled(honest, c) if (a, b) in pairs else honest)


def zero_differential(dg: DGStructure) -> DGStructure:
    """dg's products on its basis with the differential 0, where Leibniz
    holds whatever the products are."""
    cx = dg.complex
    return DGStructure(LabeledFreeComplex(cx.ring, cx.basis, {}), dg.table)


def rescaled(dg: DGStructure) -> DGStructure:
    """dg on the basis e'_l = lam_l e_l, lam_l = (2k + 1)/2 for the k-th
    label and 1 for the unit: the same dg algebra, with Fraction entries
    in its columns and products."""
    cx = dg.complex
    lam = {l: Fraction(1) if l == dg.unit else Fraction(2 * k + 1, 2) for k, l in enumerate(dg.degree)}
    diff = {
        i: {c: {r: v * lam[c] / lam[r] for r, v in col.items()} for c, col in cols.items()}
        for i, cols in cx.diff.items()
    }
    scx = LabeledFreeComplex(cx.ring, cx.basis, diff, name=cx.name)

    def product(a, b):
        return ScalarProduct({l: exact(c * lam[a] * lam[b] / lam[l]) for l, c in dg.table(a, b).items()})

    return DGStructure(scx, product)


def identity_sums(dg: DGStructure, a, b, c=None) -> dict:
    """{label: sum of its terms} of d(ab) - d(a) b - (-1)^{|a|} a d(b) for c
    None, else of (ab)c - a(bc), over every label some term reaches: a 0
    is a label whose terms cancel."""
    cx, degree, terms = dg.complex, dg.degree, {}

    def add(x, vec):
        for l, y in vec.items():
            terms.setdefault(l, []).append(x * y)

    def d(l):
        return cx.diff.get(degree[l], {}).get(l, {})

    if c is None:
        s = -1 if degree[a] % 2 else 1
        for l, x in dg.table(a, b).items():
            add(x, d(l))
        for k, x in d(a).items():
            add(-x, dg.table(k, b))
        for k, x in d(b).items():
            add(-s * x, dg.table(a, k))
    else:
        for l, x in dg.table(a, b).items():
            add(x, dg.table(l, c))
        for l, x in dg.table(b, c).items():
            add(-x, dg.table(a, l))
    return {l: sum(t) for l, t in terms.items()}


@pytest.fixture
def uncapped(monkeypatch):
    """Keep every failure witness, so the comparison covers all of them."""
    monkeypatch.setattr(dg_module, "FAILURES_KEPT", 10**9)


def assert_matches_dense(dg: DGStructure) -> DGReport:
    """Sparse and dense reports agree byte for byte, each on a fresh
    structure that stores dg's products again."""
    sparse = dg_check(DGStructure(dg.complex, dg.table))
    dense = dense_dg_check(DGStructure(dg.complex, dg.table))
    assert json.dumps(sparse.to_json()) == json.dumps(dense.to_json())
    n = len(dg.degree)
    assert (sparse.checked_pairs, sparse.checked_triples) == (n * n, n**3)
    return sparse


def label(dg: DGStructure, *idx) -> BasisLabel:
    return dg.complex.find_label(("e",) + idx)


def lyubeznik_d3_quotient() -> DGStructure:
    """The double star L(2,2,0), a diameter-3 tree, central edge first."""
    I = edge_ideal(build_family("L(2,2,0)"))
    central = I.ring.variable("x") * I.ring.variable("y")
    I = I.reorder([str(central)] + [str(g) for g in I.generators if g != central])
    return matching_quotient(I, lyubeznik_matching(I))


def cycle_quotient(n: int) -> DGStructure:
    """C4 or C5, generators along the cycle, with its explicit matching."""
    names = ("x", "y", "z", "u", "v")[:n]
    gens = [f"{a}*{b}" for a, b in zip(names, names[1:] + names[:1])]
    I = ideal(VariableSet(names), *gens)
    return matching_quotient(I, C4_MATCHING if n == 4 else C5_MATCHING)


STRUCTURES = {
    "taylor": lambda: taylor_dg_structure(
        ideal(VariableSet(("x", "y", "z", "w")), "x*w", "y*z", "x*z", "x*y")
    ),
    "cone": lambda: build_cone_resolution(build_family("T4(2;1,1)")).dg,
    "lyubeznik-d3": lyubeznik_d3_quotient,
    "morse-c4": lambda: cycle_quotient(4),
    "morse-c5": lambda: cycle_quotient(5),
}


def reshaped_product(ideal, reshape) -> tuple[DGStructure, str]:
    """The Taylor structure with e0*e1 and e1*e0 each replaced by
    reshape(coefficient) on the same labels, so graded commutativity still
    holds, and the message that refuses e0*e1, read first, when it is
    stored."""
    dg = taylor_dg_structure(ideal)
    e0, e1 = label(dg, 0), label(dg, 1)
    want = e0.multidegree * e1.multidegree
    [(l, c)] = dg.table(e0, e1).items()
    bad = reshape(entry_polynomial(c, l, want))

    def product(x, y, honest):
        if {x, y} != {e0, e1}:
            return honest
        return ScalarProduct({l: reshape(entry_polynomial(c, l, want)) for l, c in honest.items()})

    return tampered(dg, product), rf"^{re.escape(f'product entry {bad} of {e0}*{e1} on {l}')}: not a rational coefficient$"


def two_term_product(ideal) -> tuple[DGStructure, str]:
    x = ideal.ring.variable("x")
    return reshaped_product(ideal, lambda p: p + p * x)


def product_off_by_a_variable(ideal) -> tuple[DGStructure, str]:
    x = ideal.ring.variable("x")
    return reshaped_product(ideal, lambda p: p * x)


def inhomogeneous_differential(ideal) -> DGStructure:
    """The Taylor product on a copy of the Taylor complex whose entry of
    d(e01) on e0, -yz, is replaced by 1 - yz: refused when the complex is
    built."""
    T = taylor_resolution(ideal)
    diff = {i: {c: dict(col) for c, col in cols.items()} for i, cols in T.diff.items()}
    e01, e0 = T.find_label(("e", 0, 1)), T.find_label(("e", 0))
    diff[2][e01][e0] = entry(T, 2, e0, e01) + constant(T.ring, 1)
    return DGStructure(LabeledFreeComplex(T.ring, T.basis, diff), taylor_dg_structure(ideal).table)


# the message that refuses `inhomogeneous_differential(taylor_fixture_ideal)`
INHOMOGENEOUS_ENTRY = r"^entry -y\*z \+ 1 at \(\(e,0\)\[x\*w\], \(e,0,1\)\[x\*y\*z\*w\]\) is not a coefficient \(an int or a Fraction\)$"


def outside_label_product(ideal) -> tuple[DGStructure, BasisLabel, str]:
    """The Taylor structure with e0*e01 written on a label the complex does
    not have: the structure, that label, and the message that refuses the
    product when it is stored."""
    dg = taylor_dg_structure(ideal)
    e0, e01 = label(dg, 0), label(dg, 0, 1)
    ghost = BasisLabel(("ghost",), e01.multidegree * e0.multidegree)
    bad = tampered(dg, lambda x, y, honest: ScalarProduct({ghost: 1}) if {x, y} == {e0, e01} else honest)
    return bad, ghost, rf"^product entry 1 of .* on {re.escape(str(ghost))}: not a basis label of degree 3$"


# structures with entries that are not coefficients of the implied
# monomials: each product is refused by the structure when it stores it
POLYNOMIAL_PATH = {
    "two-term-product": two_term_product,
    "product-off-by-a-variable": product_off_by_a_variable,
}


@pytest.mark.usefixtures("uncapped")
class TestDenseOracle:
    def test_taylor_corpus(self, corpus):
        for I in corpus:
            assert assert_matches_dense(taylor_dg_structure(I)).ok

    @pytest.mark.parametrize("name", list(STRUCTURES))
    def test_structure(self, name):
        assert assert_matches_dense(STRUCTURES[name]()).ok

    @pytest.mark.parametrize("name", list(STRUCTURES))
    def test_one_product_sign_flipped(self, name):
        dg = STRUCTURES[name]()
        a, b = dg.complex.labels(1)[:2]

        def flip(x, y, honest):
            return scaled(honest, -1) if (x, y) == (a, b) else honest

        report = assert_matches_dense(tampered(dg, flip))
        assert {"graded_commutativity", "leibniz"} <= set(report.failures)

    @pytest.mark.parametrize("name", ["morse-c5", "lyubeznik-d3"])
    def test_honest_sums_that_cancel_are_not_reported(self, name):
        # products of two terms with Fraction coefficients: many pairs and
        # triples sum to a table whose entries are 0 on some label, and
        # none of them is reported
        dg = rescaled(STRUCTURES[name]())
        labels = list(dg.degree)
        prods = [p for a in labels for p in dg.row(a).values()]
        assert any(len(p) > 1 for p in prods)
        assert any(type(c) is Fraction for p in prods for c in p.values())
        assert any(0 in identity_sums(dg, a, b).values() for a in labels for b in labels)
        assert any(0 in identity_sums(dg, a, b, c).values() for a in labels for b in labels for c in labels)
        assert assert_matches_dense(dg).ok

    @pytest.mark.parametrize("name", ["morse-c5", "lyubeznik-d3"])
    def test_sign_flip_that_cancels_on_one_label_only(self, name):
        # the first product of two terms, in label order, with the sign of
        # its last term flipped: its Leibniz difference is 0 on one label
        # and not on another, and the pair is reported
        honest = rescaled(STRUCTURES[name]())
        a, b, last = next((a, b, list(p)[-1]) for a in honest.degree for b, p in honest.row(a).items() if len(p) > 1)

        def flip(x, y, prod):
            return ScalarProduct({**prod, last: -prod[last]}) if (x, y) == (a, b) else prod

        dg = tampered(honest, flip)
        sums = identity_sums(dg, a, b)
        assert 0 in sums.values() and any(sums.values())
        report = assert_matches_dense(dg)
        assert [tag_to_json(a.tag), tag_to_json(b.tag)] in [[w["a"], w["b"]] for w in report.failures["leibniz"]]

    def test_associativity_broken_beside_a_zero_side(self, taylor_fixture_ideal):
        # e0*e1 stored as 0: on (e0, e1, c) the side (ab)c is structurally
        # zero and only a(bc) reaches the triple; on (a, e0, e1) it is the
        # other way round
        dg = taylor_dg_structure(taylor_fixture_ideal)
        e0, e1 = label(dg, 0), label(dg, 1)

        def drop(x, y, honest):
            return ScalarProduct() if {x, y} == {e0, e1} else honest

        report = assert_matches_dense(tampered(dg, drop))
        assoc = report.failures["associativity"]
        assert any(w["ab_c"] == "0" and w["a_bc"] != "0" for w in assoc)
        assert any(w["a_bc"] == "0" and w["ab_c"] != "0" for w in assoc)

    @pytest.mark.parametrize(
        "planted, pair",
        [
            # e01*e01 made nonzero: d(e01)*e01 and e01*d(e01) stay zero, so
            # only the product ab itself reaches the pair
            ([((0, 1), (0, 1), 1)], (["e", 0, 1], ["e", 0, 1])),
            # e1*e012 made nonzero: for (e01, e012) the product ab and every
            # a*l with l in supp(db) stay zero, so only d(a)*b, through
            # l = e1, reaches the pair
            ([((1,), (0, 1, 2), 1), ((0, 1, 2), (1,), -1)], (["e", 0, 1], ["e", 0, 1, 2])),
        ],
    )
    def test_leibniz_broken_through_one_term(self, taylor_fixture_ideal, planted, pair):
        dg = taylor_dg_structure(taylor_fixture_ideal)
        top = label(dg, 0, 1, 2, 3)
        table = {(label(dg, *x), label(dg, *y)): c for x, y, c in planted}

        def plant(x, y, honest):
            c = table.get((x, y))
            return honest if c is None else ScalarProduct({top: c})

        report = assert_matches_dense(tampered(dg, plant))
        assert pair in [(w["a"], w["b"]) for w in report.failures["leibniz"]]

    @pytest.mark.parametrize("case", [*POLYNOMIAL_PATH, "inhomogeneous-differential", "outside-label-product"])
    def test_polynomial_path(self, taylor_fixture_ideal, case):
        # refused on storing: the sparse and the dense check stop at the
        # same product before either reports; the differential is refused
        # before a structure exists
        if case == "inhomogeneous-differential":
            with pytest.raises(ComplexError, match=INHOMOGENEOUS_ENTRY):
                inhomogeneous_differential(taylor_fixture_ideal)
            return
        if case == "outside-label-product":
            dg, _, refused = outside_label_product(taylor_fixture_ideal)
        else:
            dg, refused = POLYNOMIAL_PATH[case](taylor_fixture_ideal)
        for check in (dg_check, dense_dg_check):
            with pytest.raises(DGError, match=refused):
                check(DGStructure(dg.complex, dg.table))

    def test_product_of_another_degree(self):
        # e0*e1 written as 1 on e1, a label of degree 1, not 2 (its
        # monomial y divides m_0 m_1 = xy): refused on storing, so the
        # table, the pair checks and the triple checks all stop there
        dg = taylor_dg_structure(ideal(RING3, "x", "y"))
        e0, e1 = label(dg, 0), label(dg, 1)

        def shifted(x, y, honest):
            return ScalarProduct({e1: 1}) if {x, y} == {e0, e1} else honest

        on = re.escape(f"{e0}*{e1} on {e1}")
        refused = rf"^product entry 1 of {on}: not a basis label of degree 2$"
        with pytest.raises(DGError, match=refused):
            tampered(dg, shifted).table(e0, e1)
        for triples in (False, True):
            with pytest.raises(DGError, match=refused):
                dg_check(tampered(dg, shifted), triples=triples)

    def test_cones_and_quotients_of_diameter_3_and_4_trees(self):
        # the cone of every diameter-3/4 tree on 3-8 vertices, and the
        # Lyubeznik quotient of each diameter-3 one in the generator order
        # `classify` uses: all dg, so the loop on the pairs and triples
        # whose first label comes first decides each
        cones = quotients = 0
        for graph in trees_of_diameter_3_and_4(8):
            assert assert_matches_dense(build_cone_resolution(graph).dg).ok
            cones += 1
            if graph_diameter(graph) == 3:
                I = edge_ideal(graph)
                ordered = I.reorder(_d3_order(graph_shape(graph).walk, I))
                assert assert_matches_dense(matching_quotient(ordered, lyubeznik_matching(ordered))).ok
                quotients += 1
        assert (cones, quotients) == (25, 9)

    def test_symmetric_product_change_breaks_only_associativity(self, taylor_fixture_ideal):
        # with d = 0, e0*e1 and e1*e0 both doubled: graded commutativity
        # and Leibniz still hold, so the first loop runs on the triples
        # whose first label comes first, finds associativity broken, and
        # the report is the one on every triple, with witnesses whose
        # first label does not come first among them
        dg = zero_differential(taylor_dg_structure(taylor_fixture_ideal))
        e0, e1 = label(dg, 0), label(dg, 1)
        report = assert_matches_dense(rescaled_pairs(dg, [(e0, e1), (e1, e0)], 2))
        assert set(report.failures) == {"associativity"}
        pos = {str(tag_to_json(l.tag)): k for k, l in enumerate(dg.degree)}
        first = {pos[str(w["a"])] < min(pos[str(w["b"])], pos[str(w["c"])]) for w in report.failures["associativity"]}
        assert first == {True, False}

    def test_associativity_broken_only_on_a_repeated_even_label(self):
        # d = 0, a and b of degree 2, ab = ba = w and aw = wa = v, every
        # other product of non-units 0, so a*a = 0: graded commutativity
        # and Leibniz hold, and associativity fails only on (a, a, b) and
        # (b, a, a), where a(ab) = v and (ba)a = v against 0.  On (a, a, b)
        # only a*l, l in supp(ab), is nonzero, so the candidate index must
        # bring the triple whose first two labels are equal
        ring = VariableSet(("x", "y"))
        x, y = ring.variable("x"), ring.variable("y")
        unit, a, b = BasisLabel(("1",), ring.one()), BasisLabel(("a",), x), BasisLabel(("b",), y)
        w, v = BasisLabel(("w",), x * y), BasisLabel(("v",), x * x * y)
        cx = LabeledFreeComplex(ring, {0: [unit], 2: [a, b], 4: [w], 6: [v]}, {})
        table = {(a, b): w, (b, a): w, (a, w): v, (w, a): v}

        def product(p, q):
            if unit in (p, q):
                return ScalarProduct({q if p == unit else p: 1})
            return ScalarProduct({table[p, q]: 1} if (p, q) in table else {})

        report = assert_matches_dense(DGStructure(cx, product))
        assert set(report.failures) == {"associativity"}
        assert [(f["a"], f["b"], f["c"]) for f in report.failures["associativity"]] == [
            (["a"], ["a"], ["b"]),
            (["b"], ["a"], ["a"]),
        ]

    def test_one_orientation_breaks_only_commutativity(self):
        # with d = 0 on the Taylor algebra of (x, y), e1*e0 stored as
        # e0*e1: both orders of the pair fail graded commutativity, and
        # every Leibniz and associativity identity still holds
        dg = zero_differential(taylor_dg_structure(ideal(RING3, "x", "y")))
        e0, e1 = label(dg, 0), label(dg, 1)
        report = assert_matches_dense(rescaled_pairs(dg, [(e1, e0)], -1))
        assert set(report.failures) == {"graded_commutativity"}
        pairs = [(w["a"], w["b"]) for w in report.failures["graded_commutativity"]]
        assert pairs == [(["e", 0], ["e", 1]), (["e", 1], ["e", 0])]

    def test_every_pair_and_triple_runs_again_only_after_a_failure(self, monkeypatch, taylor_fixture_ideal):
        # one report for an honest structure, and for one whose unit
        # fails, where every pair and triple runs at once; two, the first
        # dropped, when unitality holds and the loop on the pairs and
        # triples whose first label comes first finds a failure
        made = []

        class Counted(DGReport):
            def __init__(self):
                super().__init__()
                made.append(self)

        monkeypatch.setattr(dg_module, "DGReport", Counted)
        dg = zero_differential(taylor_dg_structure(taylor_fixture_ideal))
        e0, e1 = label(dg, 0), label(dg, 1)
        cases = [([], 1, 1), ([(dg.unit, e0)], 2, 1), ([(e0, e1), (e1, e0)], 2, 2), ([(e1, e0)], -1, 2)]
        for pairs, c, reports in cases:
            made.clear()
            report = dg_check(rescaled_pairs(dg, pairs, c))
            assert (len(made), made[-1], report.ok) == (reports, report, not pairs)

    def test_one_label_in_two_degrees_is_rejected(self):
        # u (tag and multidegree xy) as a basis label of degrees 1 and 2,
        # with d(u) = y*a in degree 2: a tag names one basis element, so the
        # complex is refused before a product or a table could read either u
        ring = VariableSet(("x", "y"))
        one, x, y = ring.one(), ring.variable("x"), ring.variable("y")
        unit, a, b = BasisLabel(("1",), one), BasisLabel(("a",), x), BasisLabel(("b",), y)
        u = BasisLabel(("u",), x * y)
        with pytest.raises(ComplexError, match=r"^tag \('u',\) occurs in degree 1 and again in degree 2$"):
            LabeledFreeComplex(
                ring,
                {0: [unit], 1: [a, b, u], 2: [u]},
                {1: {a: {}, b: {}, u: {}}, 2: {u: {a: 1}}},
            )


def test_stored_complex_with_a_label_in_two_degrees_is_rejected():
    # u (tag and multidegree xy) is a label of degrees 1 and 2, and
    # d(w) = u lands on the degree-2 copy; the writers' constructor builds
    # the same index as the public one and refuses the complex alike
    ring = VariableSet(("x", "y"))
    x, y = ring.variable("x"), ring.variable("y")
    unit, a = BasisLabel(("1",), ring.one()), BasisLabel(("a",), x)
    u, w = BasisLabel(("u",), x * y), BasisLabel(("w",), x * y)
    with pytest.raises(ComplexError, match=r"^tag \('u',\) occurs in degree 1 and again in degree 2$"):
        LabeledFreeComplex._from_stored(ring, {0: [unit], 1: [a, u], 2: [u], 3: [w]}, {2: {u: {a: 1}}, 3: {w: {u: 1}}})


def test_product_on_a_label_outside_the_basis_is_refused(taylor_fixture_ideal):
    """e0*e01 written on a label the complex does not have, and on the tag
    of e012 with another multidegree: each is refused on storing, by the
    table, by `dg_check` and by the closure of a span it meets; a label
    outside the basis has no row and no table either."""
    dg = taylor_dg_structure(taylor_fixture_ideal)
    e0, e01, e012 = label(dg, 0), label(dg, 0, 1), label(dg, 0, 1, 2)
    ghost = BasisLabel(("ghost",), e01.multidegree * e0.multidegree)
    impostor = BasisLabel(e012.tag, e0.multidegree)
    for outside in (ghost, impostor):
        bad = tampered(dg, lambda x, y, honest: ScalarProduct({outside: 1}) if {x, y} == {e0, e01} else honest)
        refused = rf"^product entry 1 of .* on {re.escape(str(outside))}: not a basis label of degree 3$"
        with pytest.raises(DGError, match=refused):
            bad.table(e01, e0)
        with pytest.raises(DGError, match=refused):
            dg_check(bad, triples=False)
        with pytest.raises(DGError, match=refused):
            list(closure_products(bad, span_from_matching_sources(dg.complex, [(0, 1)])))
        for read in (lambda: dg.row(outside), lambda: dg.table(e0, outside), lambda: dg.table(outside, e0)):
            with pytest.raises(DGError, match=rf"^{re.escape(str(outside))} is not a basis label of "):
                read()


def test_label_outside_the_basis_keeps_all_partners(taylor_fixture_ideal, uncapped):
    """e0*e01 written on a label the complex does not have.  No triple
    (e0, e01, c) or (e01, e0, c) reaches that label's partners any more:
    the sparse and the dense check, triples included, refuse the product
    when they store it, and the label has no row of partners to read."""
    dg, ghost, refused = outside_label_product(taylor_fixture_ideal)
    for check in (dg_check, dense_dg_check):
        with pytest.raises(DGError, match=refused):
            check(DGStructure(dg.complex, dg.table), triples=True)
    with pytest.raises(DGError, match=rf"^{re.escape(str(ghost))} is not a basis label of "):
        dg.row(ghost)


# ---------------------------------------------------------------------------
# the dense reference for dg-ideal closure


def dense_submodule_membership(span: SubmoduleSpan, element: Element):
    """Membership with every generator's multidegree recomputed per call."""
    if element.is_zero():
        return True, []
    b = element.multidegree()
    if b is None:
        raise DGError("membership needs a multigraded element")
    cands = [
        g
        for g in span.generators
        if g.element.degree == element.degree
        and not g.element.is_zero()
        and g.element.multidegree() is not None
        and g.element.multidegree().divides(b)
    ]
    rows: list[BasisLabel] = []
    seen = set()
    for g in cands:
        for l in coords(g.element):
            if l not in seen:
                seen.add(l)
                rows.append(l)
    for l in coords(element):
        if l not in seen:
            seen.add(l)
            rows.append(l)
    mat = []
    for l in rows:
        mat.append([
            single_term(coords(g.element)[l])[1] if l in coords(g.element) else Fraction(0)
            for g in cands
        ])
    rhs = []
    for l in rows:
        p = coords(element).get(l)
        rhs.append(single_term(p)[1] if p is not None else Fraction(0))
    sol = solve(mat, rhs) if cands else (None if any(rhs) else [])
    if sol is None:
        return False, None
    witness = []
    for g, c in zip(cands, sol):
        if c:
            mult = monomial_divide(b, g.element.multidegree())
            witness.append(
                {"gen": tag_to_json(g.gen_id), "coefficient": str(c), "monomial_multiple": str(mult)}
            )
    return True, witness


def dense_dg_ideal_closure(dg: DGStructure, span: SubmoduleSpan):
    """Every product e_u * g formed in Polynomials, once the boundary of
    every generator is found in the span."""
    for g in span.generators:
        ok, _ = dense_submodule_membership(span, g.element.diff())
        if not ok:
            raise DGError(f"span is not closed under the differential at generator {g.gen_id}")
    report = dense_closure_entries(dg, span)
    report = {"boundary_closed": True, **report, "ok": not report["failures"]}
    return report["ok"], report


def dense_closure_entries(dg: DGStructure, span: SubmoduleSpan) -> dict:
    """{products, failures}: each nonzero e_u * g, in the span (with its
    witness) or not."""
    report: dict = {"products": [], "failures": []}
    for u in dg.degree:
        eu = Element.basis(dg.complex, u)
        for g in span.generators:
            prod = dg.multiply(eu, g.element)
            if prod.is_zero():
                continue
            ok, witness = dense_submodule_membership(span, prod)
            entry = {"factor": tag_to_json(u.tag), "gen": tag_to_json(g.gen_id), "product": str(prod)}
            if ok:
                entry["witness"] = witness
                report["products"].append(entry)
            else:
                report["failures"].append(entry)
    return report


def assert_closure_matches_dense(dg: DGStructure, span: SubmoduleSpan) -> dict:
    """The full reports agree: products with their witnesses, failures and
    boundary_closed, each side on a fresh structure storing dg's products."""
    ok, report = dg_ideal_closure(DGStructure(dg.complex, dg.table), span)
    dense_ok, dense = dense_dg_ideal_closure(DGStructure(dg.complex, dg.table), span)
    assert ok == dense_ok
    assert json.dumps(report) == json.dumps(dense)
    return report


def matching_span(dg: DGStructure, matching) -> SubmoduleSpan:
    return span_from_matching_sources(dg.complex, matching_sources(matching))


class TestClosureDenseOracle:
    def test_lyubeznik_spans_of_the_corpus(self, corpus):
        for I in corpus:
            dg = taylor_dg_structure(I)
            assert assert_closure_matches_dense(dg, matching_span(dg, lyubeznik_matching(I)))["ok"]

    def test_lyubeznik_spans_in_reversed_order(self, corpus):
        for I in corpus:
            I = I.reorder(list(range(len(I.generators)))[::-1])
            dg = taylor_dg_structure(I)
            assert assert_closure_matches_dense(dg, matching_span(dg, lyubeznik_matching(I)))["ok"]

    @pytest.mark.parametrize("n", [4, 5])
    def test_cycle_morse_spans(self, n):
        names = ("x", "y", "z", "u", "v")[:n]
        I = ideal(VariableSet(names), *[f"{a}*{b}" for a, b in zip(names, names[1:] + names[:1])])
        dg = taylor_dg_structure(I)
        report = assert_closure_matches_dense(dg, matching_span(dg, C4_MATCHING if n == 4 else C5_MATCHING))
        assert report["ok"]

    def test_c5_span(self, dg5):
        report = assert_closure_matches_dense(dg5, matching_span(dg5, C5_MATCHING))
        assert len(report["products"]) == 155

    def test_principal_span_not_an_ideal(self):
        dg = taylor_dg_structure(ideal(RING3, "x", "y", "z"))
        report = assert_closure_matches_dense(dg, span_from_matching_sources(dg.complex, [(0, 1)]))
        assert report["boundary_closed"] and report["failures"]

    def test_span_not_closed_under_the_differential(self):
        # both reports refuse the span; its products, read through
        # closure_products, are still the dense ones
        dg = taylor_dg_structure(ideal(RING3, "x", "y", "z"))
        e01 = Element.basis(dg.complex, dg.complex.find_label(("e", 0, 1)))
        bare = SubmoduleSpan(dg.complex, [SpanGenerator(("e", 0, 1), e01)])
        for closure in (dg_ideal_closure, dense_dg_ideal_closure):
            with pytest.raises(DGError, match="^span is not closed under the differential"):
                closure(dg, bare)
        got = [(tag_to_json(u.tag), sol is not None) for u, _, _, _, sol in closure_products(dg, bare)]
        dense = dense_closure_entries(dg, bare)
        assert got == [(["e"], True), (["e", 2], False)]
        assert sorted(got) == sorted(
            [(e["factor"], True) for e in dense["products"]] + [(e["factor"], False) for e in dense["failures"]]
        )

    @pytest.mark.parametrize("case", ["product-off-by-a-variable", "outside-label-product"])
    def test_polynomial_path(self, taylor_fixture_ideal, case):
        # the span of e01 and d(e01) reads the tampered products e0*e1 and
        # e0*e01; both closures refuse each when they store it
        if case == "outside-label-product":
            dg, _, refused = outside_label_product(taylor_fixture_ideal)
        else:
            dg, refused = POLYNOMIAL_PATH[case](taylor_fixture_ideal)
        span = span_from_matching_sources(dg.complex, [(0, 1)])
        for closure in (dg_ideal_closure, dense_dg_ideal_closure):
            with pytest.raises(DGError, match=refused):
                closure(DGStructure(dg.complex, dg.table), span)

    def test_generator_on_a_label_outside_the_basis(self, taylor_fixture_ideal):
        # a label the complex does not have, and e1, a basis label, in a
        # generator of degree 2: a span is refused either generator
        cx = taylor_resolution(taylor_fixture_ideal)
        e1 = cx.find_label(("e", 1))
        ghost = BasisLabel(("ghost",), e1.multidegree)
        for l, degree in ((ghost, 1), (e1, 2)):
            gen = SpanGenerator(("g",), Element.stored(cx, degree, l.multidegree, {l: 1}))
            with pytest.raises(DGError, match=rf"^span generator \('g',\) on {re.escape(str(l))}: "
                                              rf"not a basis label of degree {degree}$"):
                SubmoduleSpan(cx, [gen])

    def test_product_with_two_terms_is_refused(self, taylor_fixture_ideal):
        dg, refused = two_term_product(taylor_fixture_ideal)
        span = span_from_matching_sources(dg.complex, [(0, 1)])
        for closure in (dg_ideal_closure, dense_dg_ideal_closure):
            with pytest.raises(DGError, match=refused):
                closure(DGStructure(dg.complex, dg.table), span)


def divides_scan(span: SubmoduleSpan, degree: int, b) -> list[int]:
    """The generators `SubmoduleSpan.dividing` must find, by `divides`."""
    return [
        k for k, g in enumerate(span.generators)
        if g.element.vec and g.element.degree == degree and g.element.b.divides(b)
    ]


def d3_and_cycle_spans():
    """(graph, Taylor dg structure, span) as `classify` builds them, for
    every diameter-3 tree with 4-9 vertices, L(a,b,0) with a >= b >= 1, and
    for C4 and C5."""
    for n in range(4, 10):
        for b in range(1, (n - 2) // 2 + 1):
            graph = build_family(f"L({n - 2 - b},{b},0)")
            ordered = edge_ideal(graph).reorder(_d3_order(graph_shape(graph).walk, edge_ideal(graph)))
            dg = taylor_dg_structure(ordered)
            yield graph, dg, matching_span(dg, lyubeznik_matching(ordered))
    for n, matching in ((4, C4_MATCHING), (5, C5_MATCHING)):
        graph = build_family(f"C{n}")
        dg = taylor_dg_structure(_cycle_consecutive_ideal(graph_shape(graph).walk, edge_ideal(graph)))
        yield graph, dg, matching_span(dg, matching)


class TestClosureCore:
    """`closure_products`, which `classify` counts, against the report of
    `dg_ideal_closure`, and the `Divisors` index of a span against a scan."""

    @staticmethod
    def assert_core_matches_report(dg: DGStructure, span: SubmoduleSpan) -> dict:
        got = [(tag_to_json(u.tag), tag_to_json(span.generators[k].gen_id), sol is not None)
               for u, k, _, _, sol in closure_products(DGStructure(dg.complex, dg.table), span)]
        _, report = dg_ideal_closure(dg, span)
        want = sorted(
            [(e["factor"], e["gen"], True) for e in report["products"]]
            + [(e["factor"], e["gen"], False) for e in report["failures"]]
        )
        assert sorted(got) == want
        return report

    def test_corpus(self, corpus):
        for I in corpus:
            dg = taylor_dg_structure(I)
            self.assert_core_matches_report(dg, matching_span(dg, lyubeznik_matching(I)))

    def test_failures_and_outside_labels(self, taylor_fixture_ideal):
        # failures are products with labels outside the span's support,
        # numbered by the complex's positions like every other label; a
        # product with a Polynomial entry is refused by the core and the
        # report alike, when it is stored
        dg = taylor_dg_structure(ideal(RING3, "x", "y", "z"))
        assert self.assert_core_matches_report(dg, span_from_matching_sources(dg.complex, [(0, 1)]))["failures"]
        dg, refused = POLYNOMIAL_PATH["product-off-by-a-variable"](taylor_fixture_ideal)
        span = span_from_matching_sources(dg.complex, [(0, 1)])
        with pytest.raises(DGError, match=refused):
            list(closure_products(DGStructure(dg.complex, dg.table), span))
        with pytest.raises(DGError, match=refused):
            dg_ideal_closure(DGStructure(dg.complex, dg.table), span)

    def test_classify_counts_the_report(self):
        for graph, dg, span in d3_and_cycle_spans():
            _, report = dg_ideal_closure(dg, span)
            assert classify(graph).evidence["closure_products_checked"] == len(report["products"]), graph

    @pytest.mark.parametrize("non_squarefree", [False, True])
    def test_dividing_matches_the_divides_scan(self, corpus, non_squarefree):
        if non_squarefree:
            dg = taylor_dg_structure(ideal(RING3, "x^2", "x*y", "y^2*z"))
            spans = [span_from_matching_sources(dg.complex, [(0, 1), (0, 2), (1, 2), (0, 1, 2)])]
            assert any(not g.element.b.is_squarefree() for g in spans[0].generators)
        else:
            spans = [span for _, _, span in d3_and_cycle_spans()]
            spans += [matching_span(dg, lyubeznik_matching(I)) for I in corpus for dg in [taylor_dg_structure(I)]]
        for span in spans:
            cx = span.complex
            bs = {l.multidegree for i in cx.degrees() for l in cx.labels(i)}
            few = sorted(bs, key=str)[:8]
            bs |= {a * b for a in bs for b in few}  # exponents above 1 too
            for i in cx.degrees():
                for b in bs:
                    assert span.dividing(i, b) == divides_scan(span, i, b)


# ---------------------------------------------------------------------------
# the triple candidates of dg_check, against the dense reference


def lemma_spans(corpus):
    """(case, Taylor dg structure, matching span) for every superset-closed
    matching span: C3's Lyubeznik span in `classify`'s consecutive order,
    those of `d3_and_cycle_spans` but C5's, and the Lyubeznik spans of the
    corpus ideals whose sources are closed under supersets."""
    c3 = build_family("C3")
    ordered = _cycle_consecutive_ideal(graph_shape(c3).walk, edge_ideal(c3))
    dg = taylor_dg_structure(ordered)
    yield c3, dg, matching_span(dg, lyubeznik_matching(ordered))
    c5 = build_family("C5")
    for graph, dg, span in d3_and_cycle_spans():
        if graph != c5:
            yield graph, dg, span
    for I in corpus:
        matching = lyubeznik_matching(I)
        if is_superset_closed(I, matching)[0]:
            dg = taylor_dg_structure(I)
            yield I, dg, matching_span(dg, matching)


def mask_formula(span: SubmoduleSpan, t: int) -> int:
    """sum over the sources V of 2^(t-|V|) (2 + |V|): the U disjoint from V
    (e_U e_V != 0) and those meeting V in at most one index
    (e_U d(e_V) != 0)."""
    return sum(2 ** (t - len(V)) * (2 + len(V)) for V in span.sources)


@pytest.fixture
def exhaustive_passes(monkeypatch) -> list:
    """The spans `quotient_dg` sends through `closure_products`, the
    exhaustive pass, as it calls it."""
    passes = []
    closure = dg_module.closure_products

    def recorded(dg, span):
        passes.append(span)
        return closure(dg, span)

    monkeypatch.setattr(dg_module, "closure_products", recorded)
    return passes


class TestSupersetClosureLemma:
    """`quotient_dg` decides a superset-closed matching span of a Taylor
    algebra by the lemma, and every other span by the exhaustive pass."""

    def test_lemma_spans_against_the_exhaustive_pass(self, corpus, exhaustive_passes):
        cases = 0
        for case, dg, span in lemma_spans(corpus):
            t = len(dg.complex.labels(1))
            assert dg_module.superset_closed(span.sources, t), case
            q = quotient_dg(dg, span)
            assert exhaustive_passes == [], case
            # the fallback, run on its own: every product in J, counted alike
            assert dg_module._closure_pass(dg, span) == mask_formula(span, t) == q.closure_products_checked, case
            assert exhaustive_passes == [span], case
            exhaustive_passes.clear()
            cases += 1
        assert cases > 1 + 12 + 1  # C3, the diameter-3 trees, C4, and some corpus spans

    def test_c5_takes_the_exhaustive_pass(self, dg5, exhaustive_passes):
        span = matching_span(dg5, C5_MATCHING)
        assert not dg_module.superset_closed(span.sources, 5)
        assert quotient_dg(dg5, span).closure_products_checked == 155
        assert exhaustive_passes == [span]

    def test_a_structure_not_built_as_taylor_takes_the_exhaustive_pass(self, exhaustive_passes):
        """The same complex, products and span, but a structure that
        `taylor_dg_structure` did not build, or a span without sources:
        the lemma does not apply, and the exhaustive pass counts alike."""
        graph = build_family("L(2,2,0)")
        ordered = edge_ideal(graph).reorder(_d3_order(graph_shape(graph).walk, edge_ideal(graph)))
        dg = taylor_dg_structure(ordered)
        span = matching_span(dg, lyubeznik_matching(ordered))
        bare = SubmoduleSpan(dg.complex, span.generators)
        assert bare.sources is None
        other = DGStructure(dg.complex, dg.table)
        assert not other.taylor
        for structure, s in ((other, span), (dg, bare)):
            assert quotient_dg(structure, s).closure_products_checked == 135
        assert exhaustive_passes == [span, bare]

    def test_a_span_on_another_complex_takes_the_exhaustive_pass(self, exhaustive_passes):
        """A matching span on a second build of the same Taylor complex,
        not the structure's own complex, is decided product by product."""
        I = edge_ideal(build_family("C3"))
        dg = taylor_dg_structure(I)
        span = span_from_matching_sources(taylor_resolution(I), matching_sources(lyubeznik_matching(I)))
        assert span.complex is not dg.complex
        assert quotient_dg(dg, span).closure_products_checked == 5
        assert exhaustive_passes == [span]

    def test_one_rule_against_every_superset(self):
        """`superset_closed`'s one-element rule against the definition (every
        superset of every member), and `is_superset_closed`'s witness
        against the first superset outside the family, on random families
        over up to five indices."""
        rng = random.Random(31)
        for _ in range(400):
            t = rng.randint(1, 5)
            subsets = [V for k in range(t + 1) for V in itertools.combinations(range(t), k)]
            family = {V for V in subsets if rng.random() < 0.5}
            if rng.random() < 0.5:  # close it upwards
                family = {W for W in subsets if any(set(V) <= set(W) for V in family)}
            missing = [
                (V, W) for V in sorted(family, key=lambda v: (len(v), v))
                for W in sorted(subsets, key=lambda w: (len(w), w)) if set(V) < set(W) and W not in family
            ]
            assert dg_module.superset_closed(family, t) == (not missing)
            ring = VariableSet(tuple(f"x{i}" for i in range(t)))
            I = MonomialIdeal.from_strings(ring, list(ring.names))
            closed, witness = is_superset_closed(I, [(V, ()) for V in family])
            assert closed == (not missing)
            assert witness == (None if closed else {"source": list(missing[0][0]), "superset": list(missing[0][1])})


def random_tampering(dg: DGStructure, rng) -> DGStructure:
    """dg with one product e_a e_b, drawn by rng, changed: a nonzero one
    negated, doubled or set to 0, or any one given an extra term
    c*(m_a m_b/m_l) e_l on a label l of its degree."""
    labels = list(dg.degree)
    kind = rng.choice(("negate", "double", "drop", "extra"))
    if kind == "extra":
        a, b, l = rng.choice([
            (a, b, l) for a in labels for b in labels for l in labels
            if dg.degree[l] == dg.degree[a] + dg.degree[b] and l.multidegree.divides(a.multidegree * b.multidegree)
        ])
        c = rng.choice((-2, -1, 1, 3))
    else:
        a, b = rng.choice([(a, b) for a in labels for b in labels if dg.table(a, b)])

    def product(x, y, honest):
        if (x, y) != (a, b):
            return honest
        if kind == "extra":
            out = ScalarProduct(honest)
            if s := out.pop(l, 0) + c:
                out[l] = s
            return out
        return scaled(honest, {"drop": 0, "negate": -1, "double": 2}[kind])

    return tampered(dg, product)


def outside_label_in_bc(dg: DGStructure) -> tuple[DGStructure, str]:
    """dg with the first nonzero product bc of two degree-1 labels given an
    extra term on a label outside the basis, and the message that refuses
    it when it is stored."""
    ones = dg.complex.labels(1)
    b, c = next((b, c) for b in ones for c in ones if dg.table(b, c))
    ghost = BasisLabel(("ghost",), b.multidegree * c.multidegree)

    def product(x, y, honest):
        return ScalarProduct({**honest, ghost: 1}) if (x, y) == (b, c) else honest

    on = re.escape(f"{b}*{c} on {ghost}")
    refused = rf"^product entry 1 of {on}: not a basis label of degree 2$"
    return tampered(dg, product), refused


TRIPLE_INDEX_STRUCTURES = {"cone": STRUCTURES["cone"], "morse-c5": STRUCTURES["morse-c5"]}


@pytest.mark.usefixtures("uncapped")
class TestCandidateIndex:
    @pytest.mark.parametrize("name", list(TRIPLE_INDEX_STRUCTURES))
    @pytest.mark.parametrize("seed", range(8))
    def test_random_single_product_tampering(self, name, seed):
        dg = random_tampering(TRIPLE_INDEX_STRUCTURES[name](), random.Random(seed))
        assert_matches_dense(dg)

    @pytest.mark.parametrize("name", list(TRIPLE_INDEX_STRUCTURES))
    def test_outside_label_in_bc_is_refused(self, name):
        dg, refused = outside_label_in_bc(TRIPLE_INDEX_STRUCTURES[name]())
        with pytest.raises(DGError, match=refused):
            dg_check(dg)

    def test_commutativity_when_only_ba_is_nonzero(self):
        # a, b are cycles and ab is stored as 0 while ba = -u: on (a, b) no
        # Leibniz term can be nonzero, so only the index of the i with
        # ba != 0 brings the pair to the commutativity check
        ring = VariableSet(("x", "y"))
        x, y = ring.variable("x"), ring.variable("y")
        unit, a, b = BasisLabel(("1",), ring.one()), BasisLabel(("a",), x), BasisLabel(("b",), y)
        u = BasisLabel(("u",), x * y)
        cx = LabeledFreeComplex(ring, {0: [unit], 1: [a, b], 2: [u]}, {1: {a: {}, b: {}}})

        def product(p, q):
            if unit in (p, q):
                return ScalarProduct({q if p == unit else p: 1})
            return ScalarProduct({u: -1} if (p, q) == (b, a) else {})

        report = assert_matches_dense(DGStructure(cx, product))
        assert [(w["a"], w["b"]) for w in report.failures["graded_commutativity"]] == [(["a"], ["b"]), (["b"], ["a"])]


def test_boundary_through_a_polynomial_entry_is_refused(taylor_fixture_ideal):
    """A column with a Polynomial entry, here one that is not even c times
    the implied monomial, is refused when the complex is built, with the
    entry, its row and its column named, so no boundary is formed through
    it."""
    with pytest.raises(ComplexError, match=INHOMOGENEOUS_ENTRY):
        inhomogeneous_differential(taylor_fixture_ideal)


def test_quotient_of_a_polynomial_product_is_refused(taylor_fixture_ideal):
    """e0*e1 with Polynomial entries: `quotient_dg`'s dg-ideal check reads
    every row of the parent, so the parent refuses e0*e1 when it stores it,
    before any quotient is built."""
    I = taylor_fixture_ideal
    dg, refused = product_off_by_a_variable(I)
    with pytest.raises(DGError, match=refused):
        quotient_dg(dg, matching_span(dg, lyubeznik_matching(I)))
