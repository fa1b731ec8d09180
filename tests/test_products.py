"""Stored basis products against the Element oracle (`reference_products`).

Every product a structure stores is a `ScalarProduct` {l: c} of
coefficients; formatted with `reference_poly.entry_polynomial` at m_a m_b
it must equal the oracle's Element, for the Taylor structures of the
corpus, the cones of all trees of diameter 3 and 4 on 3 to 9 vertices,
Lyubeznik and C4/C5 Morse quotients, and `prune_dg`'s quotient and its
descent by one variable.  A quotient's oracle is its parent's product,
projected by the `reference_elimination` quotient; a descent's is the
paper's second quotient over Q/(Z) (`descent_elimination`).
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations

import pytest

from dgres import (
    BasisLabel,
    DGError,
    DGStructure,
    Element,
    MonomialIdeal,
    VariableSet,
    build_cone_resolution,
    build_family,
    dg_check,
    edge_ideal,
    lyubeznik_matching,
    prune_dg,
    quotient_dg,
    span_from_matching_sources,
    taylor_dg_structure,
)
from dgres.classify import C4_MATCHING, C5_MATCHING
from dgres.dg import ScalarProduct, closure_products, matching_span
from dgres.diam4 import (
    build_g_prime,
    build_psi,
    check_boundary_action,
    check_phi_z_multiplicative,
    check_sigma_zification,
    star_decompose,
)
from dgres.morse import matching_sources
from dgres.prune import prune_ideal
from dgres.taylor import below_mask, index_mask, mask_index, mask_product, taylor_resolution

import reference_products
from reference_elimination import descent_elimination, quotient_dg_elimination
from conftest import matching_targets, trees_of_diameter_3_and_4
from reference_poly import Polynomial, coords, element, entry_polynomial


def assert_products_match(dg: DGStructure, oracle) -> int:
    """Every stored product of dg equals oracle(a, b); returns how many are
    nonzero."""
    labels = list(dg.degree)
    nonzero = 0
    for a in labels:
        for b in labels:
            stored, want = dg.table(a, b), oracle(a, b)
            assert type(stored) is ScalarProduct, (a, b, stored)
            if stored or coords(want):
                assert not any(type(c) is Polynomial for c in stored.values()), (a, b, stored)
                ab = a.multidegree * b.multidegree
                assert {l: entry_polynomial(c, l, ab) for l, c in stored.items()} == coords(want), (a, b)
                assert want.degree == dg.degree[a] + dg.degree[b]
                nonzero += 1
    return nonzero


def cycle_ideal(n: int) -> MonomialIdeal:
    names = ("x", "y", "z", "u", "v")[:n]
    return MonomialIdeal.from_strings(VariableSet(names), [f"{a}*{b}" for a, b in zip(names, names[1:] + names[:1])])


def matching_quotient(ideal: MonomialIdeal, matching):
    """T, T/J and the oracle of T/J's products."""
    dgT = taylor_dg_structure(ideal)
    sources = matching_sources(matching)
    prefer = {("e",) + tuple(t) for t in matching_targets(matching)} | {("e",) + tuple(s) for s in sources}
    span = span_from_matching_sources(dgT.complex, sources)
    q = quotient_dg(dgT, span, prefer_eliminate=prefer)
    _, project = quotient_dg_elimination(dgT, span, prefer).quotient("ref")
    return dgT, q, reference_products.quotient_product(dgT, q.structure, project)


class TestStoredProducts:
    def test_taylor_corpus(self, corpus):
        for I in corpus:
            dg = taylor_dg_structure(I)
            assert assert_products_match(dg, reference_products.taylor_product(dg.complex))

    def test_cones_of_diameter_3_and_4_trees(self):
        trees = 0
        for g in trees_of_diameter_3_and_4():
            res = build_cone_resolution(g)
            assert assert_products_match(res.dg, reference_products.cone_product(res.decomposition, res.cone))
            trees += 1
        assert trees == 42

    def test_lyubeznik_quotients_of_the_corpus(self, corpus):
        for I in corpus:
            _, q, oracle = matching_quotient(I, lyubeznik_matching(I))
            assert assert_products_match(q.structure, oracle)

    @pytest.mark.parametrize("n", [4, 5])
    def test_cycle_morse_quotients(self, n):
        _, q, oracle = matching_quotient(cycle_ideal(n), C4_MATCHING if n == 4 else C5_MATCHING)
        assert q.structure.complex.ranks() == ((1, 4, 4, 1) if n == 4 else (1, 5, 5, 1))
        assert assert_products_match(q.structure, oracle)

    def test_prune_dg_quotients_with_one_kill_variable(self):
        # F = T/J over Q against the projection of T's product, and its
        # descent P(F, z) against F's product projected onto
        # F / im(I_Z) over Q/(z)
        runs = 0
        for fam in ("P5", "P6", "P7"):
            ideal = edge_ideal(build_family(fam))
            for z in ideal.ring.names:
                if prune_ideal(ideal, (z,)).generators:
                    result = prune_dg(ideal, (z,))
                    dgT, F, P = taylor_dg_structure(ideal), result.resolution_quotient.structure, result.descended
                    to_F, to_P = descent_elimination(dgT, result.matching, (z,))
                    assert assert_products_match(F, reference_products.quotient_product(dgT, F, to_F.quotient("F")[1]))
                    assert assert_products_match(P, reference_products.quotient_product(F, P, to_P.quotient("P")[1]))
                    runs += 1
        assert runs == 21


def subsets(n: int):
    return [U for size in range(n + 1) for U in combinations(range(n), size)]


class TestMaskProducts:
    """`taylor.mask_product` against `reference_products.taylor_table`, the
    product on index tuples."""

    def test_sign_is_taylor_sign(self):
        pairs = 0
        for V in subsets(8):
            for W in subsets(8):
                if not set(V) & set(W):
                    vm, wm = index_mask(V), index_mask(W)
                    assert mask_product({vm | wm: "union"}, vm, wm, below_mask(wm)) == {"union": reference_products.taylor_sign(V, W)}
                    pairs += 1
        assert pairs == 3**8

    def test_taylor_complex_of_seven_generators(self):
        ideal = edge_ideal(build_family("P7"))
        assert len(ideal.generators) == 7
        dg = taylor_dg_structure(ideal)
        T = dg.complex
        index, at = mask_index(T, "e")
        assert list(index) == list(T.degree)
        for a in T.degree:
            for b in T.degree:
                want = reference_products.taylor_table(T, a.tag[1:], b.tag[1:], "e")
                assert mask_product(at, index[a][0], *index[b]) == want
                assert dg.table(a, b) == want

    def test_each_copy_of_a_cone(self):
        # F*F, G*G and S*S in their own copy, and G*S on the S copy, as the
        # cone product reads them
        cone = build_cone_resolution(build_family("T4(3;2,2,2)")).cone
        index, at = {}, {}
        for kind in "FGS":
            got, at[kind] = mask_index(cone, kind)
            index[kind] = got
            assert list(got) == [l for l in cone.degree if l.tag[0] == kind]
        assert [len(index[k]) for k in "FGS"] == [8, 63, 63]
        for left, right in ("FF", "GG", "SS", "GS"):
            for a, (V, _) in index[left].items():
                for b, (W, below) in index[right].items():
                    want = reference_products.taylor_table(cone, a.tag[1:], b.tag[1:], right)
                    assert mask_product(at[right], V, W, below) == want, (a, b)


class TestProductStorage:
    def test_coefficient_on_a_label_not_dividing_is_refused(self):
        # e0*e1 written as 1 on e012: m_012 = xyz does not divide m_0 m_1 = xy
        dg = taylor_dg_structure(MonomialIdeal.from_strings(VariableSet(("x", "y", "z")), ["x", "y", "z"]))
        T = dg.complex
        e0, e1, e012 = T.find_label(("e", 0)), T.find_label(("e", 1)), T.find_label(("e", 0, 1, 2))
        bad = DGStructure(T, lambda a, b: ScalarProduct({e012: 1}) if (a, b) == (e0, e1) else dg.table(a, b))
        with pytest.raises(DGError, match=r"^product entry 1 of .* does not divide x\*y$"):
            bad.table(e0, e1)
        with pytest.raises(DGError, match="does not divide"):
            dg_check(bad, triples=False)

    def test_element_product_is_refused(self):
        # the Taylor product written as Elements, the oracle's form: storing
        # takes a ScalarProduct only, so the first product read is refused
        T = taylor_dg_structure(MonomialIdeal.from_strings(VariableSet(("x", "y", "z")), ["x*y", "y*z"])).complex
        dg = DGStructure(T, reference_products.taylor_product(T))
        e0 = T.find_label(("e", 0))
        with pytest.raises(DGError, match=r"^product .* is not a ScalarProduct: Element$"):
            dg.table(e0, e0)
        with pytest.raises(DGError, match="is not a ScalarProduct"):
            dg_check(dg, triples=False)

    def test_rows_are_computed_once_on_basis_labels(self):
        calls = []
        dg = taylor_dg_structure(MonomialIdeal.from_strings(VariableSet(("x", "y")), ["x", "y"]))
        counted = DGStructure(dg.complex, lambda a, b: calls.append((a, b)) or dg.table(a, b))
        e0, e1 = counted.complex.find_label(("e", 0)), counted.complex.find_label(("e", 1))
        # the first read computes the row of e0 once, over every basis label
        row = [(e0, b) for b in counted.degree]
        assert counted.basis_product(e0, e1) == dg.basis_product(e0, e1) == counted.basis_product(e0, e1)
        assert calls == row
        # a label outside the basis has no row and no table, and nothing is
        # computed for it
        ghost = BasisLabel(("ghost",), e1.multidegree)
        for read in (lambda: counted.row(ghost), lambda: counted.table(e0, ghost), lambda: counted.table(ghost, e0)):
            with pytest.raises(DGError, match=r"^\(ghost\)\[y\] is not a basis label of "):
                read()
        assert calls == row

    def test_each_basis_pair_is_computed_once(self, corpus, monkeypatch):
        """Across dg_check, closure_products and quotient_dg on the Taylor
        algebra of each corpus ideal and its Lyubeznik quotient, every
        structure passes each pair of basis labels to its product function
        exactly once, and no stored row holds a zero."""
        made = []
        init = DGStructure.__init__

        def counting_init(self, cx, product_fn):
            seen = Counter()
            made.append((self, seen))

            def product(a, b):
                seen[a, b] += 1
                return product_fn(a, b)

            init(self, cx, product)

        monkeypatch.setattr(DGStructure, "__init__", counting_init)
        for I in corpus:
            dgT = taylor_dg_structure(I)
            span, prefer = matching_span(dgT.complex, lyubeznik_matching(I))
            assert all(sol is not None for *_, sol in closure_products(dgT, span))
            q = quotient_dg(dgT, span, prefer_eliminate=prefer)
            assert dg_check(dgT).ok and dg_check(q.structure).ok
        assert len(made) == 2 * len(corpus)
        for dg, seen in made:
            basis = list(dg.degree)
            assert seen == Counter((a, b) for a in basis for b in basis), dg.name
            for a in basis:
                assert not any(prod.is_zero() for prod in dg.row(a).values()), (dg.name, a)


def test_psi_matches_the_tuple_oracle():
    """Psi, read off F's bitmask index through `diam4.zify`, has the entries
    built from the tuple z-ification and `find_label`, on every tree of
    diameter 3 and 4 on 3 to 9 vertices; both z-ification lemmas hold."""
    trees = 0
    for g in trees_of_diameter_3_and_4():
        dec = star_decompose(g)
        Gp, _ = build_g_prime(dec)
        F = taylor_resolution(dec.ideal_i)
        assert build_psi(dec, Gp, F).entries == reference_products.psi_entries(dec, Gp, F), g
        assert check_phi_z_multiplicative(dec)["ok"] and check_sigma_zification(dec)["ok"], g
        trees += 1
    assert trees == 42


def test_boundary_action_matches_the_element_computation():
    """`check_boundary_action` reads tables; on every diameter-3/4 tree on
    at most 7 vertices, and on a cone whose omega has the wrong sign on one
    spoke, it reports what the Element computation of both sides reports.
    (A sign flip of omega on every spoke would cancel in d(f) g.)"""

    def element_failures(res, dg):
        cone, failures = res.cone, []
        for i in cone.degrees():
            for f in cone.labels(i):
                if f.tag[0] != "F" or len(f.tag) == 1:
                    continue
                df = Element.basis(cone, f).diff()
                for j in cone.degrees():
                    for g in cone.labels(j):
                        if g.tag[0] != "G":
                            continue
                        lhs = dg.multiply(df, Element.basis(cone, g))
                        if i == 1:
                            rhs = element(cone, j, {g: Polynomial.monomial(f.multidegree)})
                        else:
                            rhs = Element.zero(cone, i - 1 + j)
                            for fl, p in coords(df).items():
                                prod = dg.basis_product(fl, g)
                                rhs = rhs + element(
                                    cone, i - 1 + j, {l: p * q for l, q in coords(prod).items() if l.tag[0] == "F"}
                                )
                        if not (lhs - rhs).is_zero():
                            failures.append({"f": list(f.tag[1:]), "g": list(g.tag[1:])})
        return failures

    for g in trees_of_diameter_3_and_4():
        if len(g.vertices) <= 7:
            res = build_cone_resolution(g)
            assert check_boundary_action(res) == {"ok": True, "failures": element_failures(res, res.dg)}

    res = build_cone_resolution(build_family("T4(2;1,1)"))
    honest = res.dg

    def wrong_omega(a, b):
        prod = honest.table(a, b)
        if a.tag == ("F", 0) and b.tag[0] == "G":
            return ScalarProduct({l: -c if l.tag[0] == "S" else c for l, c in prod.items()})
        return prod

    res.dg = DGStructure(res.cone, wrong_omega)
    got = check_boundary_action(res)
    assert not got["ok"] and got["failures"] == element_failures(res, res.dg)
