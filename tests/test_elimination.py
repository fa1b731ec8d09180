"""`dg.Elimination` on coefficients against the Polynomial reference
(`reference_elimination`); inhomogeneous input is refused before it
reaches an elimination, when its complex is built.

Every comparison covers the quotient complex, the rules entry by entry and
the survivors.
"""

from __future__ import annotations

import re
from itertools import permutations

import pytest

from dgres import (
    ComplexError,
    DGError,
    LabeledFreeComplex,
    MonomialIdeal,
    SpanGenerator,
    SubmoduleSpan,
    VariableSet,
    build_family,
    complexes_equal,
    edge_ideal,
    lyubeznik_matching,
    morse_reduce,
    prune_dg,
    quotient_dg,
    span_from_matching_sources,
    taylor_dg_structure,
    taylor_resolution,
)
from dgres import dg, morse
from dgres.morse import MorseError, matching_sources
from dgres.prune import prune_ideal

from reference_elimination import morse_elimination, quotient_dg_elimination
from reference_poly import Polynomial, constant, element, entry, entry_polynomial, parse_polynomial
from conftest import matching_targets

WHISKER_RING = VariableSet(("x", "y", "x1", "y1", "z"))
WHISKER = MonomialIdeal.from_strings(WHISKER_RING, ["x*y", "x*z", "y*z", "x*x1", "y*y1"])


def assert_matches_reference(qcx, elim, ref):
    """`qcx` and the rules and survivors of `elim` against the reference
    elimination `ref` run on the same input."""
    rcx, _ = ref.quotient(qcx.name)
    assert complexes_equal(qcx, rcx)
    # each rule's entries read as Polynomials at its pivot's multidegree
    assert {
        i: [(piv, {l: entry_polynomial(c, l, piv.multidegree) for l, c in rhs.items()}) for piv, rhs in rules]
        for i, rules in elim.rules.items()
    } == ref.rules
    assert elim.survivors == ref.survivors


def assert_quotient_matches(dgs, span, prefer_eliminate=()):
    q = quotient_dg(dgs, span, prefer_eliminate)
    ref = quotient_dg_elimination(dgs, span, prefer_eliminate)
    assert_matches_reference(q.structure.complex, q.elimination, ref)
    return q


def lyubeznik_span(ideal):
    dgT = taylor_dg_structure(ideal)
    matching = lyubeznik_matching(ideal)
    prefer = {("e",) + t for t in matching_targets(matching)} | {
        ("e",) + s for s in matching_sources(matching)
    }
    return dgT, span_from_matching_sources(dgT.complex, matching_sources(matching)), prefer


@pytest.fixture
def eliminations(monkeypatch):
    """Every `Elimination` that `morse_reduce` builds."""
    made = []

    class Recorded(dg.Elimination):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(morse, "Elimination", Recorded)
    return made


class TestEliminationOracle:
    def assert_morse_matches(self, eliminations, ideal):
        T = taylor_resolution(ideal)
        matching = lyubeznik_matching(ideal)
        M = morse_reduce(T, matching)
        elim = eliminations.pop()
        qcx = elim.quotient(M.name)
        assert complexes_equal(M, qcx)
        assert_matches_reference(qcx, elim, morse_elimination(T, matching))

    def test_whisker_ideal_in_all_orders(self, eliminations):
        for perm in permutations(range(5)):
            ideal = WHISKER.reorder(list(perm))
            self.assert_morse_matches(eliminations, ideal)
            dgT, span, prefer = lyubeznik_span(ideal)
            assert_quotient_matches(dgT, span, prefer_eliminate=prefer)

    def test_corpus(self, eliminations, corpus):
        for ideal in corpus:
            self.assert_morse_matches(eliminations, ideal)
            dgT, span, prefer = lyubeznik_span(ideal)
            assert_quotient_matches(dgT, span, prefer_eliminate=prefer)
            assert_quotient_matches(dgT, span)

    def test_prune_dg_with_kill_variables(self, monkeypatch):
        # the one quotient of prune_dg, F = T/J, which it then descends
        runs = []

        def checked(dgs, span, prefer_eliminate=()):
            runs.append(span)
            return assert_quotient_matches(dgs, span, prefer_eliminate)

        monkeypatch.setattr(morse, "quotient_dg", checked)
        pruned = 0
        for fam in ("P5", "P6", "P7"):
            ideal = edge_ideal(build_family(fam))
            for z in ideal.ring.names:
                if prune_ideal(ideal, (z,)).generators:
                    assert prune_dg(ideal, (z,)).matches_boocher
                    pruned += 1
        assert pruned == len(runs) == 6 + 7 + 8

    def test_no_unit_pivot_witness(self):
        """x*T, the span of x*e_U over every label U, is a dg ideal with no
        unit pivot, so `quotient_dg` reaches the elimination and refuses
        there, with the reference elimination's witness."""
        ring = VariableSet(("x", "y", "z"))
        ideal = MonomialIdeal.from_strings(ring, ["x", "y", "z"])
        dgT = taylor_dg_structure(ideal)
        T = dgT.complex
        x = parse_polynomial(ring, "x")
        span = SubmoduleSpan(T, [SpanGenerator(("x",) + l.tag, element(T, T.degree_of(l), {l: x})) for l in T.degree])
        with pytest.raises(DGError, match="^no unit pivot") as got:
            quotient_dg(dgT, span)
        with pytest.raises(DGError, match="^no unit pivot") as want:
            quotient_dg_elimination(dgT, span)
        assert got.value.witness == want.value.witness == [{"gen": ["x", "e"], "pivot": ["e"], "entry": "x"}]

    def test_morse_stuck_witness(self):
        ring = VariableSet(("x", "y", "z", "w"))
        ideal = MonomialIdeal.from_strings(ring, ["x*y*w", "y*z*w", "x*z*w", "x*y*z"])
        T = taylor_resolution(ideal)
        matching = [((0, 1, 2), (0, 2)), ((0, 2, 3), (0, 3)), ((0, 1, 3), (0, 1))]
        with pytest.raises(MorseError, match="^stuck") as got:
            morse_reduce(T, matching)
        with pytest.raises(DGError, match="^no unit pivot") as want:
            morse_elimination(T, matching)
        assert got.value.witness == want.value.witness


def with_entry_added(T: LabeledFreeComplex, i: int, row, col, p: Polynomial) -> LabeledFreeComplex:
    """A copy of T whose entry of d(col) on row is increased by p."""
    diff = {k: {c: dict(column) for c, column in cols.items()} for k, cols in T.diff.items()}
    diff[i][col][row] = entry(T, i, row, col) + p
    return LabeledFreeComplex(T.ring, T.basis, diff)


class TestInhomogeneousRejected:
    def test_survivor_column(self):
        # the entry of d(e01) on e0, -z, gains a constant term, as in
        # test_dg.inhomogeneous_differential: refused when the complex is
        # built, so neither morse_reduce nor quotient_dg can be handed it
        ideal = MonomialIdeal.from_strings(VariableSet(("x", "y", "z")), ["x*y", "x*z", "y*z"])
        T = taylor_resolution(ideal)
        e01, e0 = T.find_label(("e", 0, 1)), T.find_label(("e", 0))
        refused = r"^entry -z \+ 1 at \(\(e,0\)\[x\*y\], \(e,0,1\)\[x\*y\*z\]\) is not a coefficient \(an int or a Fraction\)$"
        with pytest.raises(ComplexError, match=refused):
            with_entry_added(T, 2, e0, e01, constant(T.ring, 1))

    def test_matched_pivot_entry_is_not_stuck(self):
        # the unit pivot of the first matched pair gains a term x: refused
        # when the complex is built, before any elimination could call the
        # matching stuck
        (s, t), *_ = lyubeznik_matching(WHISKER)
        T = taylor_resolution(WHISKER)
        sigma, tau = T.find_label(("e",) + s), T.find_label(("e",) + t)
        p = entry(T, len(s), tau, sigma) + Polynomial.monomial(WHISKER_RING.variable("x"))
        refused = f"^{re.escape(f'entry {p} at ({tau}, {sigma}) is not a coefficient (an int or a Fraction)')}$"
        with pytest.raises(ComplexError, match=refused):
            with_entry_added(T, len(s), tau, sigma, Polynomial.monomial(WHISKER_RING.variable("x")))
