"""Graphs, families and diameters: checked against brute-force oracles and
networkx's tree enumeration."""

import networkx as nx
import pytest

from dgres import (
    Graph,
    GraphError,
    build_family,
    cycle_graph,
    edge_ideal,
    graph_diameter,
    lyubeznik_graph,
    path_graph,
    t4_tree,
)
from dgres.classify import UnsupportedGraphError, classify
from dgres.combin import _tree_path


def from_networkx(g: "nx.Graph") -> Graph:
    names = {v: f"v{v}" for v in sorted(g.nodes)}
    return Graph.build(
        [names[v] for v in sorted(g.nodes)],
        [(names[a], names[b]) for a, b in g.edges],
    )


def brute_longest_path(graph: Graph) -> int:
    """Oracle: longest simple path (and closed path) length by DFS."""
    adj = graph.adjacency()
    best = 0

    def extend(path, seen):
        nonlocal best
        for w in adj[path[-1]]:
            if w == path[0] and len(path) >= 3:
                best = max(best, len(path))
            if w not in seen:
                best = max(best, len(path))
                seen.add(w)
                path.append(w)
                extend(path, seen)
                path.pop()
                seen.remove(w)

    for v in graph.vertices:
        extend([v], {v})
    return best


class TestGraph:
    def test_build_validation(self):
        with pytest.raises(GraphError):
            Graph.build(["a", "a"], [])
        with pytest.raises(GraphError):
            Graph.build(["a", "b"], [("a", "c")])
        with pytest.raises(GraphError):
            Graph.build(["a", "b"], [("a", "b"), ("b", "a")])

    def test_tree_and_cycle_predicates(self):
        assert path_graph(3).is_tree()
        assert not path_graph(3).is_cycle()
        assert cycle_graph(4).is_cycle()
        assert not cycle_graph(4).is_tree()
        disconnected = Graph.build(["a", "b", "c"], [("a", "b")])
        assert not disconnected.is_tree()

    def test_two_triangles_are_neither_cycle_nor_tree(self):
        # 2-regular with |E| = |V|, so only the connectivity walk rejects it
        g = Graph.build("abcdef", ["ab", "bc", "ca", "de", "ef", "fd"])
        assert all(len(ns) == 2 for ns in g.adjacency().values())
        assert len(g.edges) == len(g.vertices)
        assert not g.is_cycle() and not g.is_tree()
        with pytest.raises(UnsupportedGraphError):
            classify(g)
        with pytest.raises(GraphError, match="^graph_diameter needs a tree or a cycle$"):
            graph_diameter(g)

    @pytest.mark.parametrize(
        "graph, cycle, tree",
        [
            (t4_tree(4, [0, 0, 0, 0]), False, True),
            (path_graph(4), False, True),
            (cycle_graph(3), True, False),
            # |E| = |V| but not 2-regular: a triangle with a pendant edge
            (Graph.build("abcd", ["ab", "bc", "ca", "cd"]), False, False),
        ],
        ids=["star", "path", "K3", "paw"],
    )
    def test_shape_predicates(self, graph, cycle, tree):
        assert (graph.is_cycle(), graph.is_tree()) == (cycle, tree)

    def test_json_roundtrip(self):
        g = t4_tree(2, [1, 0])
        g2 = Graph.from_json(g.to_json())
        assert g2.vertices == g.vertices
        assert set(g2.edges) == set(g.edges)

    def test_diameter_against_brute_force_on_trees(self):
        for n in range(2, 8):
            for t in nx.nonisomorphic_trees(n):
                g = from_networkx(t)
                assert graph_diameter(g) == brute_longest_path(g)

    def test_cycle_diameter_is_n(self):
        for n in range(3, 9):
            g = cycle_graph(n)
            assert graph_diameter(g) == n == brute_longest_path(g)

    def test_longest_path_is_geodesic(self):
        for n in range(2, 8):
            for t in nx.nonisomorphic_trees(n):
                g = from_networkx(t)
                path = _tree_path(g)
                assert len(path) - 1 == graph_diameter(g)
                assert len(set(path)) == len(path)
                adj = g.adjacency()
                for a, b in zip(path, path[1:]):
                    assert b in adj[a]


class TestFamilies:
    def test_lyubeznik_graph_shape(self):
        g = lyubeznik_graph(2, 1, 1)
        assert len(g.edges) == 1 + 2 + 1 + 2
        assert g.degree("x") == 1 + 2 + 1
        # longest-path diameter: x1-x-z1-y-y1 has 4 edges
        assert brute_longest_path(g) == 4
        # the tree member of the family has diameter 3
        assert graph_diameter(lyubeznik_graph(2, 1, 0)) == 3
        assert lyubeznik_graph(2, 1, 0).is_tree()
        assert not g.is_tree() and not g.is_cycle()
        # graph_diameter is defined on trees and cycles only
        with pytest.raises(GraphError, match="^graph_diameter needs a tree or a cycle$"):
            graph_diameter(g)

    def test_family_parsing(self):
        assert len(build_family("P4").edges) == 4
        assert len(build_family("C5").edges) == 5
        assert len(build_family("T4(3;1,0,2)").edges) == 6
        assert len(build_family("L(1,1,1)").edges) == 5
        with pytest.raises(GraphError):
            build_family("Q3")
        with pytest.raises(GraphError):
            build_family("T4(2;1)")

    def test_t4_diameters(self):
        assert graph_diameter(t4_tree(2, [1, 1])) == 4
        assert graph_diameter(t4_tree(3, [0, 0, 0])) == 2
        assert graph_diameter(t4_tree(2, [1, 0])) == 3

    def test_edge_ideal(self):
        I = edge_ideal(path_graph(2))
        assert [str(g) for g in I.generators] == ["v0*v1", "v1*v2"]
        assert I.is_squarefree() and I.is_minimal_system()
        # isolated vertices are dropped from the ring
        g = Graph.build(["a", "b", "c"], [("a", "b")])
        assert edge_ideal(g).ring.names == ("a", "b")
