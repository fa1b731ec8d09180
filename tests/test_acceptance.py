"""Acceptance gate: one test per shipped guarantee, each printing a single
pass/fail line under `pytest -v` and enforcing its own wall-clock budget.

 1. frozen Taylor fixture, entry-exact, under 1 second
 2. all dg axioms hold for the Taylor product across the whole corpus
 3. the order-derived matching reduces to the minimal resolution up to
    column signs, and bad orders provably give bigger resolutions
 4. closed Betti formulas for the two parametric families
 5. the mapping-cone resolution is a minimal dg resolution for every
    center/spoke/leaf tree with <= 3 spokes and <= 4 leaves
 6. pruning descends stage-exactly and carries the dg structure
 7. negative controls: the naive tensor is not exact, a single sign
    mutation breaks the Leibniz rule with a named witness
 8. dg/not-dg classification of all small trees and cycles, with the
    hexagon rejected by an exact Kruskal-Katona failure
 9. the pentagon: a dg ideal whose sources are not superset-closed,
    quotienting to a minimal dg resolution
"""

import time

import networkx as nx

from dgres import (
    DGStructure,
    MonomialIdeal,
    VariableSet,
    Element,
    complexes_equal,
    cycle_graph,
    dg_check,
    diam4_betti,
    edge_ideal,
    lyubeznik_betti,
    lyubeznik_graph,
    lyubeznik_matching,
    lyubeznik_resolution,
    morse_reduce,
    parse_monomial,
    prune_complex,
    prune_dg,
    t4_tree,
    taylor_dg_structure,
    taylor_graph,
    taylor_resolution,
    total_betti,
    validate_matching,
)
from dgres.classify import C5_MATCHING, classify, kruskal_katona_is_fvector
from dgres.combin import Graph
from dgres.dg import (
    ScalarProduct,
    dg_ideal_closure,
    quotient_dg,
    span_from_matching_sources,
    submodule_membership,
)
from dgres.diam4 import (
    build_cone_resolution,
    check_boundary_action,
    check_phi_z_multiplicative,
    check_sigma_zification,
    star_decompose,
)
from dgres.morse import is_superset_closed, matching_sources

from conftest import matching_targets, t4_cases
from reference_complexes import equal_up_to_basis_scaling, strand_homology, tensor_complex
from reference_poly import matrix
from reference_products import taylor_table

# --- criterion 1: hand-checked Taylor differentials of (xw, yz, xz, xy) ---

TAYLOR_D1 = [["x*w", "y*z", "x*z", "x*y"]]
TAYLOR_D2 = [
    ["-y*z", "-z", "-y", "0", "0", "0"],
    ["x*w", "0", "0", "-x", "-x", "0"],
    ["0", "w", "0", "y", "0", "-y"],
    ["0", "0", "w", "0", "z", "z"],
]
TAYLOR_D3 = [
    ["1", "1", "0", "0"],
    ["-y", "0", "y", "0"],
    ["0", "-z", "-z", "0"],
    ["w", "0", "0", "1"],
    ["0", "w", "0", "-1"],
    ["0", "0", "w", "1"],
]
TAYLOR_D4 = [["-1"], ["1"], ["-1"], ["w"]]

# --- criterion 3: whisker ideal (x*y, x*z, y*z, x*x1, y*y1) ---

WHISKER_MATCHING = {
    ((0, 1, 2), (1, 2)),
    ((0, 1, 4), (1, 4)),
    ((0, 2, 3), (2, 3)),
    ((0, 3, 4), (3, 4)),
    ((0, 1, 2, 3), (1, 2, 3)),
    ((0, 1, 2, 4), (1, 2, 4)),
    ((0, 1, 3, 4), (1, 3, 4)),
    ((0, 2, 3, 4), (2, 3, 4)),
    ((0, 1, 2, 3, 4), (1, 2, 3, 4)),
}

# --- criterion 6: prune trace for (xy, yz1, xz1, xx1, yy1), kill y1 ---

PRUNE_STAGES = [
    {
        "degree": 1,
        "deleted": [["e", 4]],
        "matrix": [["x*y", "y*z1", "x*z1", "x*x1"]],
        "next_matrix": [
            ["-z1", "-z1", "-x1", "-y1", "0", "0"],
            ["x", "0", "0", "0", "-y1", "0"],
            ["0", "y", "0", "0", "0", "-x1"],
            ["0", "0", "y", "0", "0", "z1"],
        ],
    },
    {
        "degree": 2,
        "deleted": [["e", 0, 4], ["e", 1, 4]],
        "matrix": [
            ["-z1", "-z1", "-x1", "0"],
            ["x", "0", "0", "0"],
            ["0", "y", "0", "-x1"],
            ["0", "0", "y", "z1"],
        ],
        "next_matrix": [["y1", "0"], ["0", "x1"], ["0", "-z1"], ["0", "y"]],
    },
    {
        "degree": 3,
        "deleted": [["e", 0, 1, 4]],
        "matrix": [["0"], ["x1"], ["-z1"], ["y"]],
        "next_matrix": [[]],
    },
]


def strings(F, i):
    return [[str(p) for p in row] for row in matrix(F, i)]


def test_criterion_01_taylor_fixture_exact(taylor_fixture_ideal):
    start = time.monotonic()
    T = taylor_resolution(taylor_fixture_ideal)
    assert T.ranks() == (1, 4, 6, 4, 1)
    assert strings(T, 1) == TAYLOR_D1
    assert strings(T, 2) == TAYLOR_D2
    assert strings(T, 3) == TAYLOR_D3
    assert strings(T, 4) == TAYLOR_D4
    assert T.verify().ok
    assert T.is_minimal() is False
    assert time.monotonic() - start < 1.0


def test_criterion_02_taylor_dg_axioms_on_corpus(corpus):
    start = time.monotonic()
    assert len(corpus) >= 50
    assert all(len(I.generators) <= 5 for I in corpus)
    assert all(len(I.ring.active_names()) <= 6 for I in corpus)
    for I in corpus:
        report = dg_check(taylor_dg_structure(I), triples=True)
        assert report.ok, (str(I), report.to_json())
    assert time.monotonic() - start < 30.0


def test_criterion_03_matching_reduces_to_minimal_resolution():
    # triangle x-y-z with whiskers x-x1 and y-y1, generators ordered so
    # that the least generator x*y divides the most lcms
    whisker = MonomialIdeal.from_strings(
        VariableSet(("x", "y", "x1", "y1", "z")),
        ["x*y", "x*z", "y*z", "x*x1", "y*y1"],
    )
    assert set(lyubeznik_matching(whisker)) == WHISKER_MATCHING
    T = taylor_resolution(whisker)
    reduced = morse_reduce(T, lyubeznik_matching(whisker))
    assert reduced.ranks() == (1, 5, 6, 2)
    assert reduced.is_minimal()
    L = lyubeznik_resolution(whisker)
    ok, _scalings = equal_up_to_basis_scaling(reduced, L, signs_only=True)
    assert ok
    # other generator orders leave extra syzygies behind
    for order in (
        ["x*z", "y*z", "x*x1", "x*y", "y*y1"],
        ["y*z", "x*z", "x*x1", "x*y", "y*y1"],
    ):
        bigger = lyubeznik_resolution(whisker.reorder(order))
        assert bigger.ranks() == (1, 5, 8, 5, 1)
        assert not bigger.is_minimal()


def test_criterion_04_closed_betti_formulas():
    for a in range(0, 6):
        for b in range(0, 6 - a):
            for c in range(0, (5 - a - b) // 2 + 1):
                I = edge_ideal(lyubeznik_graph(a, b, c))
                expected = lyubeznik_betti(a, b, c)
                assert total_betti(taylor_resolution(I)) == expected
                assert len(expected) - 1 == max(a, b) + c + 1
    for n, counts in t4_cases(3, 4):
        I = edge_ideal(t4_tree(n, counts))
        expected = diam4_betti(n, counts)
        assert total_betti(taylor_resolution(I)) == expected
        ell = sum(counts)
        assert len(expected) - 1 == (n if ell == 0 else max(ell + 1, n))


def test_criterion_05_cone_is_minimal_dg_resolution_for_all_small_trees():
    start = time.monotonic()
    for n, counts in t4_cases(3, 4):
        res = build_cone_resolution(t4_tree(n, counts))
        dec = res.decomposition
        assert res.cone.verify().ok, (n, counts)
        ok, report = res.cone.is_resolution_of(dec.ideal_total)
        assert ok, (n, counts, report)
        assert res.cone.is_minimal(), (n, counts)
        assert total_betti(res.cone) == diam4_betti(n, counts)
        assert dg_check(res.dg, triples=True).ok, (n, counts)
        assert check_phi_z_multiplicative(dec)["ok"], (n, counts)
        assert check_sigma_zification(dec)["ok"], (n, counts)
        assert check_boundary_action(res)["ok"], (n, counts)
    assert time.monotonic() - start < 120.0


def test_criterion_06_pruning_descends_stage_exactly(two_triangles_ideal):
    F = lyubeznik_resolution(two_triangles_ideal)
    assert F.ranks() == (1, 5, 6, 2)
    result = prune_complex(F, ("y1",))
    assert [s.to_json() for s in result.stages] == PRUNE_STAGES
    assert result.pruned.ranks() == (1, 4, 4, 1)
    assert strings(result.pruned, 3) == [["0"], ["x1"], ["-z1"], ["y"]]
    assert result.report.ok
    descended = prune_dg(two_triangles_ideal, ("y1",))
    assert descended.matches_boocher
    assert complexes_equal(descended.descended.complex, result.pruned)
    assert dg_check(descended.descended).ok


def test_criterion_07_negative_controls(taylor_fixture_ideal):
    # (a) the naive tensor of the two Taylor factors misses the mixed
    # Koszul syzygy: H_1 != 0 in the squarefree strand z*x1*y1_1
    dec = star_decompose(t4_tree(2, (1, 1)))
    T = tensor_complex(
        taylor_resolution(dec.ideal_i), taylor_resolution(dec.ideal_j)
    )
    b = parse_monomial(dec.ring, "z*x1*y1_1")
    assert strand_homology(T, b)[1] == 1
    ok, report = T.is_resolution_of(dec.ideal_total)
    assert not ok
    assert not report["labels_squarefree"]

    # (b) negating the product of degree-1 pairs breaks exactly the axioms
    # that depend on it, with the first witness named
    I = taylor_fixture_ideal
    TX = taylor_resolution(I)

    def mutated(a, b):
        V, W = a.tag[1:], b.tag[1:]
        prod = taylor_table(TX, V, W, "e")
        if len(V) == 1 and len(W) == 1:
            return ScalarProduct({l: -c for l, c in prod.items()})
        return prod

    report = dg_check(DGStructure(TX, mutated))
    assert not report.ok
    assert set(report.failures) == {"leibniz", "associativity"}
    witness = report.failures["leibniz"][0]
    assert witness["a"] == ["e", 0]
    assert witness["b"] == ["e", 1]
    assert witness["d_ab"] != witness["da_b_plus_a_db"]


def test_criterion_08_classification_of_small_trees_and_cycles():
    start = time.monotonic()
    count = 0
    for n in range(2, 8):
        for T in nx.nonisomorphic_trees(n):
            g = Graph.build(
                tuple(f"v{i}" for i in sorted(T.nodes())),
                tuple((f"v{a}", f"v{b}") for a, b in T.edges()),
            )
            cert = classify(g)
            d = nx.diameter(T)
            assert cert.verdict == ("dg" if d <= 4 else "not_dg"), (n, d)
            count += 1
    assert count == 24
    for n in range(3, 9):
        cert = classify(cycle_graph(n))
        assert cert.verdict == ("dg" if n <= 5 else "not_dg"), n
    assert total_betti(taylor_resolution(edge_ideal(cycle_graph(6)))) == (
        1, 6, 9, 6, 2,
    )
    kk = kruskal_katona_is_fvector([1, 6, 9, 6, 2])
    assert not kk["ok"]
    assert kk["failures"] == [
        {
            "level": 4,
            "count": 2,
            "cascade": [[4, 4], [3, 3]],
            "shadow_bound": 7,
            "previous": 6,
        }
    ]
    assert time.monotonic() - start < 60.0


def test_criterion_09_pentagon_quotient_dg_structure(c5_ideal):
    val = validate_matching(taylor_graph(c5_ideal), C5_MATCHING)
    assert val["ok"], val
    closed, witness = is_superset_closed(c5_ideal, C5_MATCHING)
    assert closed is False
    assert witness == {"source": [0, 1, 2], "superset": [0, 1, 2, 3]}
    dgT = taylor_dg_structure(c5_ideal)
    span = span_from_matching_sources(
        dgT.complex, matching_sources(C5_MATCHING)
    )
    ok, closure = dg_ideal_closure(dgT, span)
    assert ok
    assert closure["failures"] == []
    member_ok, five_terms = submodule_membership(
        span, Element.basis(dgT.complex, dgT.complex.find_label(("e", 0, 1, 2, 3)))
    )
    assert member_ok
    assert five_terms == [
        {"gen": ["e", 0, 1, 2, 4], "coefficient": "1", "monomial_multiple": "1"},
        {"gen": ["e", 0, 1, 3, 4], "coefficient": "-1", "monomial_multiple": "1"},
        {"gen": ["e", 0, 2, 3, 4], "coefficient": "1", "monomial_multiple": "1"},
        {"gen": ["e", 1, 2, 3, 4], "coefficient": "-1", "monomial_multiple": "1"},
        {"gen": ["de", 0, 1, 2, 3, 4], "coefficient": "1", "monomial_multiple": "1"},
    ]
    prefer = {("e",) + t for t in matching_targets(C5_MATCHING)} | {
        ("e",) + s for s in matching_sources(C5_MATCHING)
    }
    q = quotient_dg(dgT, span, prefer_eliminate=prefer)
    cx = q.structure.complex
    assert cx.ranks() == (1, 5, 5, 1)
    assert cx.is_minimal()
    ok, _ = cx.is_resolution_of(c5_ideal)
    assert ok
    assert dg_check(q.structure).ok
