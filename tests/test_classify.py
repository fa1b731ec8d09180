"""Classification of trees and cycles by whether the minimal resolution of
the edge-ideal quotient supports a dg algebra structure, with recomputable
certificates: trees are dg exactly up to diameter 4, cycles exactly up to
C_5, C_6 fails the Kruskal-Katona f-vector test, and everything larger
prunes onto the 5-edge path."""

import json
import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dgres import (
    MonomialIdeal,
    VariableSet,
    cycle_graph,
    edge_ideal,
    path_graph,
    prune_ideal,
    t4_tree,
    taylor_resolution,
    total_betti,
)
from dgres.classify import (
    CERTIFICATE_TABLE,
    CITED_FACTS,
    UnsupportedGraphError,
    _resolution_summary,
    cascade_representation,
    cascade_shadow_bound,
    classify,
    kruskal_katona_is_fvector,
    verify_certificate,
)
from dgres.combin import Graph, build_family


def nx_to_graph(T) -> Graph:
    verts = tuple(f"v{i}" for i in sorted(T.nodes()))
    edges = tuple((f"v{a}", f"v{b}") for a, b in T.edges())
    return Graph.build(verts, edges)


def all_trees(max_vertices: int = 7):
    for n in range(2, max_vertices + 1):
        for T in nx.nonisomorphic_trees(n):
            yield T


class TestCascade:
    def test_known_representations(self):
        assert cascade_representation(2, 4) == [(4, 4), (3, 3)]
        assert cascade_representation(10, 3) == [(5, 3)]
        assert cascade_representation(11, 3) == [(5, 3), (2, 2)]
        assert cascade_representation(0, 5) == []

    def test_shadow_bound(self):
        # C(4,3) + C(3,2) = 4 + 3
        assert cascade_shadow_bound([(4, 4), (3, 3)]) == 7
        assert cascade_shadow_bound([(5, 3)]) == 10

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            cascade_representation(-1, 2)
        with pytest.raises(ValueError):
            cascade_representation(3, 0)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(min_value=0, max_value=400), st.integers(min_value=1, max_value=6))
    def test_reconstruction_and_shape(self, n, j):
        from math import comb

        rep = cascade_representation(n, j)
        assert sum(comb(a, k) for a, k in rep) == n
        # top parameters strictly decrease, levels decrease by one each step
        assert all(rep[i][0] > rep[i + 1][0] for i in range(len(rep) - 1))
        assert all(a >= k >= 1 for a, k in rep)
        if rep:
            assert rep[0][1] == j
            # greedy maximality at the top level
            assert comb(rep[0][0] + 1, j) > n


def random_complex_fvector(rng: random.Random) -> list[int]:
    """f-vector of an actual simplicial complex: random generating faces,
    closed downward."""
    from itertools import combinations

    nverts = rng.randint(1, 6)
    faces = {(): None}
    for _ in range(rng.randint(1, 5)):
        size = rng.randint(1, nverts)
        face = tuple(sorted(rng.sample(range(nverts), size)))
        for k in range(len(face) + 1):
            for sub in combinations(face, k):
                faces[sub] = None
    top = max(len(f) for f in faces)
    return [sum(1 for f in faces if len(f) == j) for j in range(top + 1)]


class TestKruskalKatona:
    def test_accepts_true_f_vectors(self):
        rng = random.Random(20260814)
        for _ in range(60):
            fvec = random_complex_fvector(rng)
            assert kruskal_katona_is_fvector(fvec)["ok"], fvec

    def test_accepts_simplex(self):
        from math import comb

        for n in range(1, 7):
            fvec = [comb(n, j) for j in range(n + 1)]
            assert kruskal_katona_is_fvector(fvec)["ok"]

    def test_rejects_c6_betti_vector(self):
        res = kruskal_katona_is_fvector([1, 6, 9, 6, 2])
        assert not res["ok"]
        assert res["failures"] == [
            {
                "level": 4,
                "count": 2,
                "cascade": [[4, 4], [3, 3]],
                "shadow_bound": 7,
                "previous": 6,
            }
        ]

    def test_small_verdicts(self):
        assert kruskal_katona_is_fvector([1, 3, 2])["ok"]
        assert kruskal_katona_is_fvector([1, 5, 5, 1])["ok"]
        assert kruskal_katona_is_fvector([1, 5, 7, 4, 1])["ok"]
        assert not kruskal_katona_is_fvector([1, 1, 1])["ok"]

    def test_structural_rejections(self):
        r = kruskal_katona_is_fvector([2, 1])
        assert r["failures"][0]["reason"].startswith("f_0 must be 1")
        r = kruskal_katona_is_fvector([1, -1])
        assert r["failures"][0]["reason"] == "negative entry"
        r = kruskal_katona_is_fvector([1, 2, 0, 1])
        assert r["failures"][0]["reason"] == "zero below a nonzero entry"


class TestTreeClassification:
    def test_all_trees_up_to_seven_vertices(self):
        expected_kind = {
            1: "taylor-minimal",
            2: "taylor-minimal",
            3: "lyubeznik-quotient",
            4: "cone-product",
            5: "prunes-to-non-dg-path",
            6: "prunes-to-non-dg-path",
        }
        seen = 0
        for T in all_trees(7):
            g = nx_to_graph(T)
            cert = classify(g)
            d = nx.diameter(T)  # independent diameter oracle
            assert cert.family == "tree"
            assert cert.diameter == d
            assert cert.verdict == ("dg" if d <= 4 else "not_dg")
            assert cert.evidence["kind"] == expected_kind[d]
            if cert.verdict == "dg":
                oracle = total_betti(taylor_resolution(edge_ideal(g)))
                assert tuple(cert.betti) == oracle
            else:
                assert cert.betti is None
            seen += 1
        assert seen == 24

    def test_singleton(self):
        cert = classify(Graph.build(("a",), ()))
        assert (cert.verdict, cert.betti, cert.diameter) == ("dg", [1], 0)

    def test_single_edge(self):
        cert = classify(path_graph(1))
        assert (cert.verdict, cert.betti, cert.diameter) == ("dg", [1, 1], 1)

    def test_diameter_three_parameters(self):
        cert = classify(path_graph(3))
        assert cert.parameters == {"a": 1, "b": 1, "c": 0}
        assert cert.betti == [1, 3, 2]
        assert cert.evidence["betti_formula"] == [1, 3, 2]
        assert cert.evidence["superset_closed"] is True

    def test_diameter_four_parameters(self):
        cert = classify(t4_tree(2, (2, 1)))
        assert cert.parameters == {"spokes": 2, "leaves": 3}
        assert cert.evidence["kind"] == "cone-product"
        assert all(cert.evidence["lemma_checks"].values())

    def test_deep_tree_prunes_to_path(self):
        cert = classify(path_graph(6))
        assert cert.verdict == "not_dg"
        ev = cert.evidence
        assert len(ev["window"]) == 6
        assert len(ev["pruned_generators"]) == 5
        assert ev["path_betti"] == [1, 5, 7, 4, 1]
        # the 5-path Betti vector IS an f-vector: the obstruction is not
        # visible to Kruskal-Katona, hence the cited nonexistence input
        assert ev["path_betti_f_vector_test"]["ok"]
        assert set(cert.cited) == {
            "boocher-pruning",
            "katthan-structure",
            "katthan-5path",
            "avramov-obstruction",
        }


class TestCycleClassification:
    def test_verdict_boundary(self):
        for n in range(3, 9):
            cert = classify(cycle_graph(n))
            assert cert.family == "cycle"
            assert cert.parameters == {"n": n}
            assert cert.verdict == ("dg" if n <= 5 else "not_dg")

    def test_triangle(self):
        cert = classify(cycle_graph(3))
        assert cert.evidence["kind"] == "lyubeznik-quotient"
        assert cert.betti == [1, 3, 2]
        assert "hilbert-burch" in cert.cited
        assert "buchsbaum-eisenbud-short" in cert.cited

    def test_square(self):
        cert = classify(cycle_graph(4))
        assert cert.evidence["kind"] == "morse-quotient"
        assert cert.betti == [1, 4, 4, 1]
        assert cert.evidence["superset_closed"] is True
        assert cert.evidence["ranks"] == cert.evidence["quotient_ranks"]

    def test_pentagon(self):
        cert = classify(cycle_graph(5))
        assert cert.evidence["kind"] == "morse-quotient"
        assert cert.betti == [1, 5, 5, 1]
        assert cert.evidence["superset_closed"] is False
        assert cert.evidence["superset_closure_counterexample"] == {
            "source": [0, 1, 2],
            "superset": [0, 1, 2, 3],
        }

    def test_hexagon(self):
        cert = classify(cycle_graph(6))
        assert cert.verdict == "not_dg"
        assert cert.betti == [1, 6, 9, 6, 2]
        assert cert.evidence["kind"] == "betti-not-f-vector"
        failure = cert.evidence["f_vector_test"]["failures"][0]
        assert failure["shadow_bound"] == 7
        assert failure["previous"] == 6
        assert failure["cascade"] == [[4, 4], [3, 3]]

    def test_hexagon_betti_oracle(self):
        I = edge_ideal(cycle_graph(6))
        assert total_betti(taylor_resolution(I)) == (1, 6, 9, 6, 2)

    def test_large_cycles_prune_to_path(self):
        for n in (7, 8):
            cert = classify(cycle_graph(n))
            assert cert.evidence["kind"] == "prunes-to-non-dg-path"
            assert cert.betti is None
            assert cert.evidence["path_betti"] == [1, 5, 7, 4, 1]

    def test_vertices_in_any_order(self):
        # Graph.vertices need not list a cycle in cycle order: v1, v3, v5,
        # ..., v2, v4, ... and random shuffles classify as C_n does, and
        # the n >= 7 window is six consecutive vertices of the cycle.
        rng = random.Random(14)
        for n in range(3, 10):
            cycle = cycle_graph(n)
            expected = classify(cycle)
            evens_then_odds = list(cycle.vertices[::2]) + list(cycle.vertices[1::2])
            orders = [evens_then_odds] + [rng.sample(cycle.vertices, n) for _ in range(3)]
            for order in orders:
                cert = classify(Graph(tuple(order), cycle.edges))
                assert (cert.verdict, cert.betti, cert.evidence["kind"]) == (
                    expected.verdict, expected.betti, expected.evidence["kind"],
                ), order
                assert verify_certificate(cert.to_json())["ok"], order
                if n >= 7:
                    window = cert.evidence["window"]
                    assert all(frozenset(e) in cycle.edges for e in zip(window, window[1:]))


def renamed(graph: Graph, rng: random.Random) -> Graph:
    """The graph with its vertex names permuted at random."""
    names = dict(zip(graph.vertices, rng.sample(graph.vertices, len(graph.vertices))))
    return Graph.build([names[v] for v in graph.vertices], [[names[v] for v in e] for e in graph.edges])


class TestPathWindow:
    """Every not-dg certificate of a tree of diameter >= 5 or a cycle C_n
    with n >= 7 records the 5-edge path's Betti vector, which `classify`
    computes once per process after checking the pruned generators."""

    def test_path_betti_is_that_of_the_pruned_ideal(self):
        rng = random.Random(19)
        graphs = [nx_to_graph(T) for n in range(7, 10) for T in nx.nonisomorphic_trees(n)]
        graphs += [cycle_graph(n) for n in range(7, 11)]
        windows = 0
        for graph in (renamed(g, rng) for g in graphs):
            ev = classify(graph).evidence
            if ev["kind"] != "prunes-to-non-dg-path":
                continue
            pruned = prune_ideal(edge_ideal(graph), ev["pruned_variables"])
            assert ev["path_betti"] == list(total_betti(taylor_resolution(pruned))), graph
            windows += 1
        assert windows == 47  # 43 trees of diameter >= 5, and C7-C10

    def test_tampering_a_certificate_leaves_the_next_one_intact(self):
        tampered = classify(path_graph(6)).to_json()["evidence"]
        tampered["path_betti"][0] = 7
        tampered["path_betti"].append(9)
        tampered["path_betti_f_vector_test"]["ok"] = False
        tampered["path_betti_f_vector_test"]["failures"].append({"level": 0})
        for graph in (path_graph(6), cycle_graph(7)):
            ev = classify(graph).evidence
            assert ev["path_betti"] == [1, 5, 7, 4, 1]
            assert ev["path_betti_f_vector_test"] == {"ok": True, "failures": []}
        assert verify_certificate(classify(path_graph(7)).to_json()) == {"ok": True, "mismatches": []}


class TestCertificates:
    def test_json_shape_and_citations(self):
        cert = classify(cycle_graph(5)).to_json()
        assert set(cert) == {
            "version",
            "family",
            "verdict",
            "diameter",
            "parameters",
            "betti",
            "evidence",
            "cited",
            "citations",
            "graph",
        }
        for cid in cert["cited"]:
            assert cid in CITED_FACTS
            assert set(cert["citations"][cid]) == {"statement", "source"}
        json.dumps(cert)  # serializable

    def test_cited_facts_table(self):
        for fact in CITED_FACTS.values():
            assert fact["statement"] and fact["source"]

    def test_certificate_table(self):
        """The table cites exactly the facts of `CITED_FACTS`, and one graph
        per row gets that row's verdict and cited facts."""
        assert {fact for _, cited in CERTIFICATE_TABLE.values() for fact in cited} == set(CITED_FACTS)
        graphs = [path_graph(1), path_graph(3), t4_tree(2, (1, 1)), path_graph(5)]
        graphs += [cycle_graph(n) for n in (3, 4, 6, 7)]
        got = {}
        for graph in graphs:
            cert = classify(graph)
            got[cert.family, cert.evidence["kind"]] = (cert.verdict, cert.cited)
        assert got == {key: (verdict, list(cited)) for key, (verdict, cited) in CERTIFICATE_TABLE.items()}

    @pytest.mark.parametrize(
        "graph",
        [t4_tree(2, (1, 1)), cycle_graph(5), cycle_graph(6), path_graph(6)],
        ids=["tree-d4", "C5", "C6", "deep-path"],
    )
    def test_roundtrip(self, graph):
        cert = classify(graph).to_json()
        result = verify_certificate(cert)
        assert result == {"ok": True, "mismatches": []}

    def test_tampered_verdict_detected(self):
        cert = classify(cycle_graph(5)).to_json()
        cert["verdict"] = "not_dg"
        result = verify_certificate(cert)
        assert not result["ok"]
        assert [m["field"] for m in result["mismatches"]] == ["verdict"]

    def test_tampered_betti_detected(self):
        cert = classify(t4_tree(2, (1, 1))).to_json()
        cert["betti"] = [1, 4, 5, 1]
        result = verify_certificate(cert)
        assert not result["ok"]
        assert any(m["field"] == "betti" for m in result["mismatches"])

    def test_tampered_evidence_kind_detected(self):
        cert = classify(cycle_graph(4)).to_json()
        cert["evidence"]["kind"] = "taylor-minimal"
        result = verify_certificate(cert)
        assert any(m["field"] == "evidence.kind" for m in result["mismatches"])

    def test_tampered_fvector_test_detected(self):
        cert = classify(cycle_graph(6)).to_json()
        cert["evidence"]["f_vector_test"]["failures"][0]["shadow_bound"] = 6
        result = verify_certificate(cert)
        # reported once, as the evidence entry it changed
        assert [m["field"] for m in result["mismatches"]] == ["evidence.f_vector_test"]


def _cut_matching(ev):
    ev["matching"] = ev["matching"][:3]


def _set(key, value):
    def tamper(ev):
        ev[key] = value

    return tamper


def _dg_check_failed(ev):
    ev["dg_check"]["ok"] = False


C5_TAMPERINGS = {
    "matching": _cut_matching,
    "quotient_ranks": _set("quotient_ranks", [9, 9]),
    "dg_check": _dg_check_failed,
    "resolution": _set("resolution", {"checked": False}),
    "closure_products_checked": _set("closure_products_checked", 1),
}


class TestEvidenceTampering:
    """`verify_certificate` compares each top-level evidence entry with the
    recomputed one and names the one that differs."""

    @pytest.fixture(scope="class")
    def c5(self):
        return classify(cycle_graph(5)).to_json()

    @pytest.mark.parametrize("key", list(C5_TAMPERINGS))
    def test_c5_morse_quotient(self, c5, key):
        cert = json.loads(json.dumps(c5))
        C5_TAMPERINGS[key](cert["evidence"])
        result = verify_certificate(cert)
        assert not result["ok"]
        assert [m["field"] for m in result["mismatches"]] == [f"evidence.{key}"]

    @pytest.mark.parametrize(
        "graph, kind, key, tamper",
        [
            (path_graph(2), "taylor-minimal", "drop_one_lcms", lambda ev: ev["drop_one_lcms"].pop()),
            (t4_tree(2, (1, 1)), "cone-product", "leaf_counts", _set("leaf_counts", [2, 1])),
            (cycle_graph(6), "betti-not-f-vector", "betti", _set("betti", [1, 6, 9, 6, 1])),
            (path_graph(6), "prunes-to-non-dg-path", "pruned_variables", _set("pruned_variables", [])),
        ],
        ids=["taylor-minimal", "cone-product", "betti-not-f-vector", "prunes-to-non-dg-path"],
    )
    def test_one_per_other_kind(self, graph, kind, key, tamper):
        cert = classify(graph).to_json()
        assert cert["evidence"]["kind"] == kind
        tamper(cert["evidence"])
        result = verify_certificate(cert)
        assert not result["ok"]
        assert [m["field"] for m in result["mismatches"]] == [f"evidence.{key}"]

    def test_cited_facts_and_version_are_compared(self):
        cert = classify(cycle_graph(6)).to_json()
        cert.update(version="0.0.0", cited=["taylor-dg"], citations={})
        result = verify_certificate(cert)
        assert not result["ok"]
        assert [m["field"] for m in result["mismatches"]] == ["version", "cited", "citations"]

    def test_added_evidence_entry_is_named(self, c5):
        cert = json.loads(json.dumps(c5))
        cert["evidence"]["extra"] = None
        assert [m["field"] for m in verify_certificate(cert)["mismatches"]] == ["evidence.extra"]


class TestUnsupported:
    def test_rejects_non_tree_non_cycle(self):
        with pytest.raises(UnsupportedGraphError):
            classify(build_family("L(1,1,1)"))  # contains a triangle
        with pytest.raises(UnsupportedGraphError):
            classify(
                Graph.build(("a", "b", "c", "d"), (("a", "b"), ("c", "d")))
            )


class TestShapeChecks:
    @pytest.mark.parametrize("graph, tree_checks", [(path_graph(10), 1), (cycle_graph(7), 0)])
    def test_classify_checks_the_shape_once(self, graph, tree_checks, monkeypatch):
        calls = []
        for name in ("is_tree", "is_cycle"):
            check = getattr(Graph, name)
            monkeypatch.setattr(Graph, name, lambda g, check=check, name=name: calls.append(name) or check(g))
        classify(graph)
        assert calls.count("is_cycle") == 1
        assert calls.count("is_tree") == tree_checks


class TestStrandCap:
    """The strand check once stopped at 14 active variables; it now walks
    the lcm lattice, 16 strands here, at any number of variables."""

    @staticmethod
    def spread_ideal(nvars: int) -> MonomialIdeal:
        # four generators that together use every variable
        names = [f"x{k}" for k in range(nvars)]
        return MonomialIdeal.from_strings(
            VariableSet(tuple(names)), ["*".join(names[k::4]) for k in range(4)]
        )

    def test_fourteen_variables_checked(self):
        I = self.spread_ideal(14)
        assert _resolution_summary(taylor_resolution(I), I) == {"checked": True, "ok": True}

    def test_fifteen_variables_checked(self):
        I = self.spread_ideal(15)
        assert _resolution_summary(taylor_resolution(I), I) == {"checked": True, "ok": True}
