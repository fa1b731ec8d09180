"""The graph walks `dgres` once made with one traversal each, kept as the
oracle for `combin.graph_shape`:

- `tree_path`: a longest path of a tree, by a BFS from the first vertex to
  the first farthest vertex u, a BFS from u to the first farthest w, and a
  DFS from u for the parents that spell out the u..w path;
- `cycle_order`: the vertices of a cycle in cycle order, from the first
  vertex towards whichever of its neighbours comes first in the vertex list;
- `eccentricity`, by a BFS from the vertex, and `star_center`, the vertex of
  eccentricity <= 2 of largest degree, the earliest of those in vertex
  order, found by one BFS per vertex;
- `trees`, every tree on n vertices in networkx's order, and
  `relabellings`, a graph and three seeded copies with its names permuted
  and its vertex list shuffled.
"""

from __future__ import annotations

import random

import networkx as nx

from dgres.combin import Graph


def trees(n: int):
    for T in nx.nonisomorphic_trees(n):
        yield Graph.build([f"v{i}" for i in sorted(T.nodes())], [(f"v{a}", f"v{b}") for a, b in T.edges()])


def relabellings(graph: Graph):
    """The graph, then three copies under seeded permutations of its names
    and of its vertex list, so a walk starts elsewhere and meets the
    neighbours in another order."""
    yield graph
    for seed in range(3):
        rng = random.Random(seed)
        names = list(graph.vertices)
        rng.shuffle(names)
        rename = dict(zip(graph.vertices, names))
        rng.shuffle(names)
        yield Graph.build(names, [[rename[a] for a in e] for e in graph.edges])


def _bfs_ecc(adj: dict[str, list[str]], start: str) -> tuple[str, int]:
    """Farthest vertex from start and its distance."""
    dist = {start: 0}
    frontier = [start]
    far, fd = start, 0
    while frontier:
        nxt = []
        for v in frontier:
            for w in adj[v]:
                if w not in dist:
                    dist[w] = dist[v] + 1
                    if dist[w] > fd:
                        far, fd = w, dist[w]
                    nxt.append(w)
        frontier = nxt
    return far, fd


def tree_path(graph: Graph) -> list[str]:
    """A longest path, as its vertex list, of a tree, by double BFS."""
    if len(graph.vertices) == 1:
        return [graph.vertices[0]]
    adj = graph.adjacency()
    u, _ = _bfs_ecc(adj, graph.vertices[0])
    w, _ = _bfs_ecc(adj, u)
    parent = {u: None}
    stack = [u]
    while stack:
        v = stack.pop()
        for t in adj[v]:
            if t not in parent:
                parent[t] = v
                stack.append(t)
    path = [w]
    while parent[path[-1]] is not None:
        path.append(parent[path[-1]])
    return path[::-1]


def cycle_order(graph: Graph) -> list[str]:
    """The vertices of a cycle in cycle order."""
    adj, first = graph.adjacency(), graph.vertices[0]
    walk = [first, min(adj[first], key=graph.vertices.index)]
    while len(walk) < len(graph.vertices):
        walk.append(next(w for w in adj[walk[-1]] if w != walk[-2]))
    return walk


def eccentricity(graph: Graph, v: str) -> int:
    return _bfs_ecc(graph.adjacency(), v)[1]


def star_center(graph: Graph) -> str:
    """The center `diam4.star_decompose` picks on a tree of diameter <= 4."""
    candidates = [v for v in graph.vertices if eccentricity(graph, v) <= 2]
    return max(candidates, key=lambda v: (len(graph.adjacency()[v]), -graph.vertices.index(v)))
