"""Graphs, families and diameters: checked against brute-force oracles and
networkx's tree enumeration."""

import re

import networkx as nx
import pytest

from dgres import (
    Graph,
    GraphError,
    PolyError,
    VariableSet,
    build_family,
    cycle_graph,
    edge_ideal,
    graph_diameter,
    lyubeznik_graph,
    path_graph,
    t4_tree,
)
from dgres.classify import UnsupportedGraphError, classify
from dgres.combin import edge_monomial, graph_shape

import reference_graphs


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
        assert graph_shape(path_graph(3)).family == "tree"
        assert graph_shape(cycle_graph(4)).family == "cycle"
        # |E| = |V| - 1 but the first BFS misses c
        disconnected = Graph.build(["a", "b", "c"], [("a", "b")])
        assert graph_shape(disconnected).family is None
        assert graph_shape(Graph.build([], [])).family is None

    def test_two_triangles_are_neither_cycle_nor_tree(self):
        # 2-regular with |E| = |V|, so only the walk's early return rejects it
        g = Graph.build("abcdef", ["ab", "bc", "ca", "de", "ef", "fd"])
        assert all(len(ns) == 2 for ns in g.adjacency().values())
        assert len(g.edges) == len(g.vertices)
        assert graph_shape(g).family is None
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
        family = graph_shape(graph).family
        assert (family == "cycle", family == "tree") == (cycle, tree)

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
                path = graph_shape(g).walk
                assert len(path) - 1 == graph_diameter(g)
                assert len(set(path)) == len(path)
                adj = g.adjacency()
                for a, b in zip(path, path[1:]):
                    assert b in adj[a]


class TestGraphShape:
    """`graph_shape` against the walks it replaced (`reference_graphs`), on
    every tree with 1-10 vertices and C3-C11, each under three relabellings
    of its names and vertex order besides its own."""

    @staticmethod
    def relabelled_trees():
        for n in range(1, 11):
            for t in reference_graphs.trees(n):
                yield from reference_graphs.relabellings(t)

    def test_tree_walk_matches_the_double_bfs(self):
        count = 0
        for g in self.relabelled_trees():
            shape = graph_shape(g)
            assert shape.family == "tree"
            assert list(shape.walk) == reference_graphs.tree_path(g), g
            assert shape.adjacency == g.adjacency()
            count += 1
        assert count == 4 * 201

    def test_cycle_walk_matches_the_cycle_order(self):
        for n in range(3, 12):
            for g in reference_graphs.relabellings(cycle_graph(n)):
                shape = graph_shape(g)
                assert shape.family == "cycle" and shape.ends is None
                assert list(shape.walk) == reference_graphs.cycle_order(g), g
                assert shape.diameter == n

    def test_end_distances_give_every_eccentricity(self):
        for g in self.relabelled_trees():
            shape = graph_shape(g)
            du, dw = shape.ends
            assert (du[shape.walk[0]], dw[shape.walk[-1]]) == (0, 0)
            assert du[shape.walk[-1]] == shape.diameter
            for v in g.vertices:
                assert max(du[v], dw[v]) == reference_graphs.eccentricity(g, v), (g, v)

    @pytest.mark.parametrize(
        "graph",
        [
            Graph.build([], []),
            # |E| = |V| - 1 with a triangle and an isolated vertex
            Graph.build("abcd", ["ab", "bc", "ca"]),
            # |E| = |V| with a vertex of degree 3: a triangle and a pendant edge
            Graph.build("abcd", ["ab", "bc", "ca", "cd"]),
            # C3 and C4 side by side, the walk from a closes after three
            Graph.build("abcdefg", ["ab", "bc", "ca", "de", "ef", "fg", "gd"]),
        ],
        ids=["empty", "K3+K1", "paw", "C3+C4"],
    )
    def test_other_graphs_are_neither(self, graph):
        shape = graph_shape(graph)
        assert (shape.family, shape.walk, shape.ends) == (None, (), None)


class TestFamilies:
    def test_lyubeznik_graph_shape(self):
        g = lyubeznik_graph(2, 1, 1)
        assert len(g.edges) == 1 + 2 + 1 + 2
        assert len(g.adjacency()["x"]) == 1 + 2 + 1
        # longest-path diameter: x1-x-z1-y-y1 has 4 edges
        assert brute_longest_path(g) == 4
        # the tree member of the family has diameter 3
        assert graph_diameter(lyubeznik_graph(2, 1, 0)) == 3
        assert graph_shape(lyubeznik_graph(2, 1, 0)).family == "tree"
        assert graph_shape(g).family is None
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

    def test_edge_ideal_is_variable_times_variable(self):
        """Each generator, built as one monomial, is x_a * x_b built from
        `VariableSet.variable`, on every tree on at most 8 vertices and on
        C3-C8."""
        graphs = [from_networkx(T) for n in range(1, 9) for T in nx.nonisomorphic_trees(n)]
        graphs += [cycle_graph(n) for n in range(3, 9)]
        for g in graphs:
            I = edge_ideal(g)
            ring = I.ring
            want = tuple(ring.variable(a) * ring.variable(b) for a, b in sorted(sorted(e) for e in g.edges))
            assert I.generators == want, g.to_json()
            assert all(m.ring is ring and hash(m) == hash(w) for m, w in zip(I.generators, want))
        assert len(graphs) == 54

    def test_edge_monomial_refuses_as_variable_does(self):
        """`edge_monomial` is `variable(a) * variable(b)` on every pair of
        names, and raises its PolyError on an unknown or inactive one."""
        ring = VariableSet(("a", "b", "c", "d")).deactivate(["d"])
        names = ("a", "b", "c", "d", "e")
        refused = 0
        for a in names:
            for b in names:
                try:
                    want = ring.variable(a) * ring.variable(b)
                except PolyError as err:
                    refused += 1
                    with pytest.raises(PolyError, match=f"^{re.escape(str(err))}$"):
                        edge_monomial(ring, a, b)
                else:
                    assert edge_monomial(ring, a, b) == want, (a, b)
        assert refused == 16
