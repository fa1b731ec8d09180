"""Mapping-cone resolutions for edge ideals of trees of diameter <= 4:
the star-of-stars decomposition, the twisted complex G' resolving J/zJ,
the glued cone with its product, the structural lemma checks and the
orders of the J-generators on which they must fail, the closed Betti
formulas, and the negative control showing the naive tensor F (x) G is not
a resolution."""

import json
from dataclasses import replace
from itertools import permutations
from pathlib import Path

import pytest

from dgres import (
    DGStructure,
    Graph,
    GraphError,
    MonomialIdeal,
    build_cone_resolution,
    build_family,
    cycle_graph,
    dg_check,
    diam4_betti,
    edge_ideal,
    lyubeznik_betti,
    lyubeznik_graph,
    parse_monomial,
    path_graph,
    t4_tree,
    taylor_resolution,
    total_betti,
)
from dgres.diam4 import (
    check_boundary_action,
    check_phi_z_multiplicative,
    check_sigma_zification,
    star_decompose,
    zify,
)
from dgres.dg import ScalarProduct
from dgres.poly import monomial_divide

import reference_graphs
import reference_products
from reference_complexes import strand_homology, tensor_complex
from reference_poly import squarefree_monomials


class TestStarDecompose:
    def test_t4_layout(self):
        dec = star_decompose(t4_tree(2, (2, 1)))
        assert dec.center == "z"
        assert dec.spokes == ("x1", "x2")
        assert dec.leaves == {"x1": ("y1_1", "y1_2"), "x2": ("y2_1",)}
        assert [str(g) for g in dec.ideal_i.generators] == ["z*x1", "z*x2"]
        assert [str(g) for g in dec.ideal_j.generators] == [
            "x1*y1_1",
            "x1*y1_2",
            "x2*y2_1",
        ]
        assert [str(g) for g in dec.ideal_total.generators] == [
            "z*x1",
            "z*x2",
            "x1*y1_1",
            "x1*y1_2",
            "x2*y2_1",
        ]
        assert dec.n == 2 and dec.ell == 3
        assert dec.spoke_bits == (1, 1, 2)

    def test_center_tie_break_on_diameter_three(self):
        # both middle vertices of v0-v1-v2-v3 have eccentricity 2 and equal
        # degree; the earlier vertex wins
        dec = star_decompose(path_graph(3))
        assert dec.center == "v1"

    def test_star_hub_found(self):
        # one spoke with three leaves is a star centered at the spoke
        dec = star_decompose(t4_tree(1, (3,)))
        assert dec.center == "x1"
        assert dec.ideal_j.is_zero()

    def test_center_matches_one_bfs_per_vertex(self):
        """The center read off the two end distances of `graph_shape` is the
        one the per-vertex BFS picks, on every tree of diameter <= 4 with
        2-9 vertices under three relabellings besides its own."""
        checked = 0
        for n in range(2, 10):
            for tree in reference_graphs.trees(n):
                for g in reference_graphs.relabellings(tree):
                    if reference_graphs.eccentricity(g, reference_graphs.tree_path(g)[0]) <= 4:
                        assert star_decompose(g).center == reference_graphs.star_center(g), g
                        checked += 1
        assert checked == 4 * 50

    def test_rejections(self):
        with pytest.raises(GraphError, match="^star_decompose needs a tree$"):
            star_decompose(cycle_graph(4))
        with pytest.raises(GraphError, match="^star_decompose needs a tree$"):
            star_decompose(Graph.build("abcd", ["ab", "cd"]))
        with pytest.raises(GraphError, match="^tree has diameter 5 > 4$"):
            star_decompose(path_graph(5))
        with pytest.raises(GraphError, match="^star_decompose needs at least one edge$"):
            star_decompose(Graph.build(["a"], []))

    def test_zify_and_y_part(self):
        # zify on bitmasks, and the tuple oracle it replaced
        dec = star_decompose(t4_tree(2, (2, 1)))
        assert zify(dec, 0b101) == 0b11
        assert zify(dec, 0b011) is None  # both on spoke x1
        assert reference_products.zify_indices(dec, (0, 2)) == ((0, 1), True)
        assert reference_products.zify_indices(dec, (0, 1)) == ((0,), False)
        assert str(reference_products.y_part(dec, (0, 2))) == "y1_1*y2_1"
        assert str(reference_products.y_part(dec, (0,))) == "y1_1"
        for W in range(1, 8):
            spoke_set, repeat_free = reference_products.zify_indices(dec, [j for j in range(3) if W >> j & 1])
            assert zify(dec, W) == (sum(1 << i for i in spoke_set) if repeat_free else None)


@pytest.fixture(scope="module")
def res():
    return build_cone_resolution(t4_tree(2, (1, 1)))


class TestGPrime:
    def test_shape(self, res):
        # G has ranks (1, 2, 1); G' drops G_0, shifts, and adjoins the
        # z-twisted copy: ranks (2, 3, 1)
        assert res.G.ranks() == (1, 2, 1)
        assert res.Gp.ranks() == (2, 3, 1)
        report = res.Gp.verify()
        assert report.d2_failures == []
        assert report.homogeneity_failures == []
        s_labels = [l for l in res.Gp.labels(1) if l.tag[0] == "S"]
        assert [str(l.multidegree) for l in s_labels] == [
            "z*x1*y1_1",
            "z*x2*y2_1",
        ]

    def test_resolves_j_mod_zj(self, res):
        # H_0 of the b-strand is 1 exactly when b lies in J but not in zJ,
        # and the higher homology vanishes on every squarefree strand
        dec = res.decomposition
        J = dec.ideal_j
        z = dec.ring.variable(dec.center)
        checked = 0
        for b in squarefree_monomials(dec.ring):
            h = strand_homology(res.Gp, b)
            in_j = any(g.divides(b) for g in J.generators)
            in_zj = z.divides(b) and any(g.divides(monomial_divide(b, z)) for g in J.generators)
            assert h[0] == (1 if in_j and not in_zj else 0), str(b)
            assert not any(h[1:]), str(b)
            checked += 1
        assert checked == 2 ** len(dec.ring)


class TestConeResolution:
    @pytest.mark.parametrize(
        "graph,expected",
        [
            (t4_tree(2, (1, 1)), (1, 4, 4, 1)),
            (t4_tree(3, (2, 1, 0)), (1, 6, 9, 5, 1)),
            (t4_tree(3, (0, 0, 0)), (1, 3, 3, 1)),
            (path_graph(1), (1, 1)),
            (lyubeznik_graph(2, 1, 0), (1, 4, 4, 1)),
        ],
    )
    def test_minimal_resolution_with_expected_ranks(self, graph, expected):
        res = build_cone_resolution(graph)
        cone = res.cone
        assert cone.ranks() == expected
        assert cone.verify().ok
        assert cone.is_minimal()
        ok, report = cone.is_resolution_of(res.decomposition.ideal_total)
        assert ok, report

    def test_label_layout(self):
        res = build_cone_resolution(t4_tree(2, (1, 1)))
        kinds_by_degree = {
            i: [l.tag[0] for l in res.cone.labels(i)] for i in res.cone.degrees()
        }
        assert kinds_by_degree[0] == ["F"]
        assert kinds_by_degree[1] == ["F", "F", "G", "G"]
        assert sorted(set(kinds_by_degree[2])) == ["F", "G", "S"]

    def test_dg_axioms(self):
        for graph in (t4_tree(2, (1, 1)), t4_tree(2, (2, 1)), path_graph(3)):
            res = build_cone_resolution(graph)
            report = dg_check(res.dg)
            assert report.ok, report.to_json()

    def test_structural_lemmas(self):
        for graph in (t4_tree(2, (1, 1)), t4_tree(3, (2, 1, 0))):
            res = build_cone_resolution(graph)
            assert check_phi_z_multiplicative(res.decomposition)["ok"]
            assert check_sigma_zification(res.decomposition)["ok"]
            assert check_boundary_action(res)["ok"]


def interleaved(dec, order):
    """dec with its J-generators taken in `order` and the spoke map
    permuted to match, so that leaves of different spokes may interleave."""
    new = replace(dec, ideal_j=MonomialIdeal(dec.ring, tuple(dec.ideal_j.generators[k] for k in order)))
    new.spoke_bits = tuple(dec.spoke_bits[k] for k in order)
    return new


# both lemma reports on six interleaved decompositions, frozen from the
# index-tuple form of the checks: they must fail, with the same failure
# lists in the same order
REORDERED = json.loads((Path(__file__).parent / "data" / "reordered_lemma_reports.json").read_text())


class TestLemmaFailures:
    """Each structural check fails where its lemma does not hold."""

    @pytest.mark.parametrize("frozen", REORDERED, ids=lambda r: f"{r['family']}{r['order']}")
    def test_interleaved_reports_are_frozen(self, frozen):
        dec = interleaved(star_decompose(build_family(frozen["family"])), frozen["order"])
        assert not frozen["phi_z_multiplicative"]["ok"] and not frozen["sigma_zification"]["ok"]
        assert check_phi_z_multiplicative(dec) == frozen["phi_z_multiplicative"]
        assert check_sigma_zification(dec) == frozen["sigma_zification"]

    def test_every_interleaving_fails_both_lemmas(self):
        # z-ification keeps the order of the J-generators exactly when their
        # spokes come in order; each of the other 116 orders breaks both
        dec = star_decompose(build_family("T4(3;2,1,2)"))
        failed = 0
        for order in permutations(range(dec.ell)):
            spokes = [dec.spoke_bits[k] for k in order]
            if spokes != sorted(spokes):
                moved = interleaved(dec, order)
                assert not check_phi_z_multiplicative(moved)["ok"], order
                assert not check_sigma_zification(moved)["ok"], order
                failed += 1
        assert failed == 116

    def test_one_flipped_product_fails_the_boundary_action(self):
        # the check reads (d f) g through the F*G products only: each single
        # nonzero F*G product with its sign flipped is found at f = f_01,
        # while a flipped G*S product leaves it ok (dg_check finds that one)
        res = build_cone_resolution(build_family("T4(2;2,1)"))
        honest, cone = res.dg, res.cone

        def flipped(pair):
            def product(a, b):
                prod = honest.table(a, b)
                return ScalarProduct({l: -c for l, c in prod.items()}) if (a, b) == pair else prod

            return DGStructure(cone, product)

        pairs = [
            (f, g) for f in cone.degree for g in cone.degree
            if f.tag[0] == "F" and len(f.tag) > 1 and g.tag[0] == "G" and honest.table(f, g)
        ]
        assert len(pairs) == 14
        for f, g in pairs:
            res.dg = flipped((f, g))
            assert check_boundary_action(res) == {"ok": False, "failures": [{"f": [0, 1], "g": list(g.tag[1:])}]}
        res.dg = flipped((cone.find_label(("G", 0)), cone.find_label(("S", 2))))
        assert check_boundary_action(res) == {"ok": True, "failures": []}
        assert set(dg_check(res.dg, triples=False).failures) == {"graded_commutativity", "leibniz"}


class TestBettiFormulas:
    def test_formula_matches_computation(self):
        for n, counts in [(1, (1,)), (2, (1, 1)), (2, (2, 0)), (3, (1, 1, 1)), (2, (2, 2))]:
            tree = t4_tree(n, counts)
            I = edge_ideal(tree)
            assert total_betti(taylor_resolution(I)) == diam4_betti(n, counts)

    def test_leaf_free_case(self):
        assert diam4_betti(3, (0, 0, 0)) == (1, 3, 3, 1)
        assert diam4_betti(1, (0,)) == (1, 1)
        # projective dimension is n when there are no leaves
        for n in range(1, 6):
            assert len(diam4_betti(n, (0,) * n)) == n + 1

    def test_projective_dimension(self):
        for n in range(1, 4):
            for ell in range(0, 4):
                counts = (ell,) + (0,) * (n - 1)
                pd = len(diam4_betti(n, counts)) - 1
                assert pd == (n if ell == 0 else max(ell + 1, n))

    def test_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            diam4_betti(2, (1,))

    def test_lyubeznik_formula_values(self):
        assert lyubeznik_betti(1, 1, 1) == (1, 5, 6, 2)
        assert lyubeznik_betti(2, 1, 0) == (1, 4, 4, 1)
        assert lyubeznik_betti(0, 0, 0) == (1, 1)

    def test_lyubeznik_pd(self):
        for a in range(0, 4):
            for b in range(0, 4):
                for c in range(0, 3):
                    bet = lyubeznik_betti(a, b, c)
                    assert len(bet) - 1 == max(a, b) + c + 1

    def test_double_star_consistency(self):
        # L(a, b, 0) is the diameter-<=3 tree with hubs x, y; seen as a
        # star-of-stars at x it has a+1 spokes and b leaves on the y-spoke
        for a in range(0, 4):
            for b in range(0, 4):
                assert lyubeznik_betti(a, b, 0) == diam4_betti(
                    a + 1, (b,) + (0,) * a
                )


class TestTensorIsNotTheResolution:
    """Gluing F and G through the mapping cone is necessary: the plain
    tensor product F (x) G fails exactness in the strands z x_i y_{i,j},
    because the Koszul syzygy between z x_i and x_i y_{i,j} lives at the
    non-squarefree multidegree z x_i^2 y_{i,j} outside the strand."""

    def test_h1_in_mixed_strand(self):
        dec = star_decompose(t4_tree(2, (1, 1)))
        F = taylor_resolution(dec.ideal_i)
        G = taylor_resolution(dec.ideal_j)
        T = tensor_complex(F, G)
        assert T.verify().ok  # it is a complex, just not exact
        b = parse_monomial(dec.ring, "z*x1*y1_1")
        h = strand_homology(T, b)
        assert h[1] == 1
        ok, report = T.is_resolution_of(dec.ideal_total)
        assert not ok
        assert not report["labels_squarefree"]
        assert any(f["strand"] == "z*x1*y1_1" for f in report["strand_failures"])

    def test_offending_label_is_non_squarefree(self):
        dec = star_decompose(t4_tree(2, (1, 1)))
        F = taylor_resolution(dec.ideal_i)
        G = taylor_resolution(dec.ideal_j)
        T = tensor_complex(F, G)
        bad = [
            str(l.multidegree)
            for i in T.degrees()
            for l in T.labels(i)
            if not l.multidegree.is_squarefree()
        ]
        assert "z*x1^2*y1_1" in bad

    def test_cone_fixes_the_strand(self):
        res = build_cone_resolution(t4_tree(2, (1, 1)))
        b = parse_monomial(res.decomposition.ring, "z*x1*y1_1")
        h = strand_homology(res.cone, b)
        assert not any(h[1:])
