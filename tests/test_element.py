"""`dg.Element` in stored form (b, {l: c}) against the Polynomial oracle
(`reference_element`).

On the Taylor structures of the corpus, the cones of the trees of diameter
3 and 4 on up to 7 vertices and the C4/C5 and Lyubeznik quotients, every
basis element, its boundary and their products must agree with the oracle
in string, multidegree, coordinates (in order) and degree; so must span
membership witnesses.  Mixed,
non-homogeneous and inhomogeneous input, which the oracle takes, is refused
where it is stored; Polynomial coordinates become an Element only through
the test-side reader `reference_poly.element`, which refuses the mixed and
several-term ones.
"""

from __future__ import annotations

import re

import networkx as nx
import pytest

from dgres import (
    ComplexError,
    DGError,
    DGStructure,
    Element,
    Graph,
    LabeledFreeComplex,
    MonomialIdeal,
    SubmoduleSpan,
    VariableSet,
    build_cone_resolution,
    lyubeznik_matching,
    quotient_dg,
    span_from_matching_sources,
    submodule_membership,
    taylor_dg_structure,
    taylor_resolution,
)
from dgres.classify import C4_MATCHING, C5_MATCHING
from dgres.combin import graph_diameter
from dgres.dg import ScalarProduct
from dgres.morse import matching_sources

from reference_element import ReferenceElement, reference_membership, reference_multiply
from reference_poly import Polynomial, constant, coords, element, entry, entry_polynomial, parse_polynomial
from conftest import matching_targets

RING3 = VariableSet(("x", "y", "z"))


def assert_same(new: Element, old: ReferenceElement):
    assert (new.complex, new.degree) == (old.complex, old.degree)
    assert list(coords(new).items()) == list(old.coords.items())
    assert str(new) == str(old)
    assert new.multidegree() == old.multidegree()
    assert new.is_zero() == old.is_zero()


def outcome(fn, *args):
    """fn(*args), or the DGError message it raises."""
    try:
        return fn(*args)
    except DGError as err:
        return f"DGError: {err}"


def assert_structure_matches(dg: DGStructure, pairs: bool = True) -> int:
    """Basis elements, their boundaries and (with `pairs`) the products
    e_a e_b, d(e_a) e_b and e_a d(e_b) against the oracle; returns how many
    nonzero products were compared."""
    cx = dg.complex
    basis = [(Element.basis(cx, l), ReferenceElement.basis(cx, l)) for l in dg.degree]
    for new, old in basis:
        assert_same(new, old)
        assert_same(new.diff(), old.diff())
        assert_same(new.diff().diff(), old.diff().diff())
    nonzero = 0
    for new_a, old_a in basis if pairs else ():
        for new_b, old_b in basis:
            for (x, y), (rx, ry) in (
                ((new_a, new_b), (old_a, old_b)),
                ((new_a.diff(), new_b), (old_a.diff(), old_b)),
                ((new_a, new_b.diff()), (old_a, old_b.diff())),
            ):
                got = dg.multiply(x, y)
                assert_same(got, reference_multiply(dg, rx, ry))
                nonzero += not got.is_zero()
    return nonzero


def assert_span_matches(dg: DGStructure, span: SubmoduleSpan):
    """Every generator's boundary and every product e_u g: the product and
    its membership witness (or the error) against the oracle."""
    cx = dg.complex
    for g in span.generators:
        old = ReferenceElement.of(g.element)
        assert_same(g.element.diff(), old.diff())
        assert outcome(submodule_membership, span, g.element.diff()) == outcome(reference_membership, span, old.diff())
    for u in dg.degree:
        eu, ru = Element.basis(cx, u), ReferenceElement.basis(cx, u)
        for g in span.generators:
            prod, rprod = dg.multiply(eu, g.element), reference_multiply(dg, ru, ReferenceElement.of(g.element))
            assert_same(prod, rprod)
            assert outcome(submodule_membership, span, prod) == outcome(reference_membership, span, rprod)


def cycle_ideal(n: int) -> MonomialIdeal:
    names = ("x", "y", "z", "u", "v")[:n]
    return MonomialIdeal.from_strings(VariableSet(names), [f"{a}*{b}" for a, b in zip(names, names[1:] + names[:1])])


def matching_span_and_quotient(ideal: MonomialIdeal, matching):
    dgT = taylor_dg_structure(ideal)
    sources = matching_sources(matching)
    span = span_from_matching_sources(dgT.complex, sources)
    prefer = {("e",) + tuple(t) for t in matching_targets(matching)} | {("e",) + tuple(s) for s in sources}
    return dgT, span, quotient_dg(dgT, span, prefer_eliminate=prefer)


class TestElementOracle:
    def test_taylor_corpus(self, corpus):
        for I in corpus:
            dg = taylor_dg_structure(I)
            assert_structure_matches(dg, pairs=len(dg.degree) <= 16)

    def test_cones_of_trees_up_to_7_vertices(self):
        trees = 0
        for n in range(4, 8):
            for T in nx.nonisomorphic_trees(n):
                g = Graph.build([f"v{i}" for i in sorted(T.nodes())], [(f"v{a}", f"v{b}") for a, b in T.edges()])
                if graph_diameter(g) in (3, 4):
                    assert assert_structure_matches(build_cone_resolution(g).dg)
                    trees += 1
        assert trees == 14

    @pytest.mark.parametrize("n", [4, 5])
    def test_cycle_morse_quotients(self, n):
        dgT, span, q = matching_span_and_quotient(cycle_ideal(n), C4_MATCHING if n == 4 else C5_MATCHING)
        assert assert_structure_matches(q.structure)
        assert_span_matches(dgT, span)

    def test_lyubeznik_quotients_of_the_corpus(self, corpus):
        for I in corpus[:20]:
            dgT, span, q = matching_span_and_quotient(I, lyubeznik_matching(I))
            assert_structure_matches(q.structure)
            assert_span_matches(dgT, span)


@pytest.fixture(scope="module")
def koszul():
    return taylor_resolution(MonomialIdeal.from_strings(RING3, ["x", "y", "z"]))


def element_pair(cx, degree, vec):
    return element(cx, degree, vec), ReferenceElement(cx, degree, vec)


class TestMixedAndInhomogeneous:
    def test_mixed_and_several_term_elements(self, koszul):
        # coordinates of two multidegrees, or an entry of two terms, make no
        # element; the multigraded ones agree with the oracle
        e0, e1 = koszul.find_label(("e", 0)), koszul.find_label(("e", 1))
        one, y = constant(RING3, 1), parse_polynomial(RING3, "y")
        for vec in ({e0: one, e1: one}, {e0: parse_polynomial(RING3, "1 + y")}):
            with pytest.raises(DGError, match="is not multigraded$"):
                element(koszul, 1, vec)
        cases = [
            {e0: y},  # multigraded, b = x*y
            {e0: y, e1: parse_polynomial(RING3, "x")},  # one multidegree x*y on both
            {e0: Polynomial.zero(RING3)},  # zero
        ]
        for vec in cases:
            new, old = element_pair(koszul, 1, vec)
            assert_same(new, old)
            assert_same(new.diff(), old.diff())
            assert_same(new.scale(-2), old.scale(-2))
            assert_same(new.scale(0), old.scale(0))
            for other in cases:
                new2, old2 = element_pair(koszul, 1, other)
                assert_same(new + new2, old + old2)
                assert_same(new - new2, old - old2)

    def test_equality(self, koszul):
        # as for the oracle: same complex, degree and coordinates
        e0, e1 = koszul.find_label(("e", 0)), koszul.find_label(("e", 1))
        one, y = constant(RING3, 1), parse_polynomial(RING3, "y")
        cases = [(1, {e0: y}), (2, {e0: y}), (1, {e1: one}), (1, {e0: one}), (1, {})]
        for d, vec in cases:
            for d2, vec2 in cases:
                new, old = element_pair(koszul, d, vec)
                new2, old2 = element_pair(koszul, d2, vec2)
                assert (new == new2) == (old == old2)
        assert Element.basis(koszul, e0) == element(koszul, 1, {e0: one})

    def test_a_mixed_sum_that_cancels_to_one_multidegree(self, koszul):
        # e0 + e1 (at x and y) is refused, as a sum and as coordinates, so
        # no mixed element is left to cancel back to one multidegree
        e0, e1 = koszul.find_label(("e", 0)), koszul.find_label(("e", 1))
        one = constant(RING3, 1)
        with pytest.raises(DGError, match="^adding elements of different multidegrees x and y$"):
            Element.basis(koszul, e0) + Element.basis(koszul, e1)
        with pytest.raises(DGError, match="is not multigraded$"):
            element(koszul, 1, {e0: one, e1: one})

    def test_adding_across_degrees_is_refused(self, koszul):
        a, b = Element.basis(koszul, koszul.find_label(("e", 0))), Element.basis(koszul, koszul.find_label(("e", 0, 1)))
        with pytest.raises(DGError, match="different homological degrees"):
            a + b

    def test_membership_of_mixed_and_non_member_elements(self, koszul):
        span = span_from_matching_sources(koszul, [(0, 1)])
        e01, e02 = koszul.find_label(("e", 0, 1)), koszul.find_label(("e", 0, 2))
        one, z = constant(RING3, 1), parse_polynomial(RING3, "z")
        for vec in ({e01: z}, {e02: one}, {}):
            new, old = element_pair(koszul, 2, vec)
            assert outcome(submodule_membership, span, new) == outcome(reference_membership, span, old)
        # the mixed and the several-term coordinates make no element, to test
        # for membership or to span with
        for vec in ({e01: one, e02: one}, {e01: parse_polynomial(RING3, "z + x")}):
            with pytest.raises(DGError, match="is not multigraded$"):
                element(koszul, 2, vec)

    def test_boundary_through_a_polynomial_entry(self, taylor_fixture_ideal):
        # d(e01) on e0 replaced by an entry of two terms: refused when the
        # complex is built, so no boundary is formed through that column
        T = taylor_resolution(taylor_fixture_ideal)
        diff = {i: {c: dict(col) for c, col in cols.items()} for i, cols in T.diff.items()}
        e01, e0 = T.find_label(("e", 0, 1)), T.find_label(("e", 0))
        diff[2][e01][e0] = p = entry(T, 2, e0, e01) + constant(T.ring, 1)
        with pytest.raises(ComplexError, match=f"^{re.escape(f'entry {p} at ({e0}, {e01})')} "):
            LabeledFreeComplex(T.ring, T.basis, diff)

    def test_products_with_a_polynomial_entry(self, taylor_fixture_ideal):
        # e0*e1 and e1*e0 given an extra term x*p: refused when the first of
        # them, e0*e1, is stored, so no product is formed through them
        dg = taylor_dg_structure(taylor_fixture_ideal)
        cx = dg.complex
        e0, e1 = cx.find_label(("e", 0)), cx.find_label(("e", 1))
        x = cx.ring.variable("x")

        def product(a, b):
            honest = dg.table(a, b)
            if {a, b} != {e0, e1}:
                return honest
            want = a.multidegree * b.multidegree
            vec = {l: entry_polynomial(c, l, want) for l, c in honest.items()}
            return ScalarProduct({l: p + p * x for l, p in vec.items()})

        refused = rf"^product entry .+ of {re.escape(f'{e0}*{e1}')} on .+: not a rational coefficient$"
        with pytest.raises(DGError, match=refused):
            assert_structure_matches(DGStructure(cx, product))
