"""Graphs, edge ideals, and named families.

Graphs are simple and undirected, given by a vertex list and edge set.  The
diameter used throughout is the *longest-path* convention: the number of
edges in a longest path, where the cycle C_n itself counts as a (closed)
path, so C_n has diameter n.  For trees this agrees with the usual metric
diameter; the convention matters only for cycles.

Family shorthands accepted by `build_family` / the CLI:

- ``L(a,b,c)``       vertices x, y, x1..xa, y1..yb, z1..zc; edges xy, x-xi,
                     y-yj, and both x-zk, y-zk.
- ``P<d>``           the path on d edges (d+1 vertices v0..vd).
- ``C<n>``           the cycle on n vertices v1..vn.
- ``T4(n;a1,...,an)``the diameter-<=4 tree: center z, spokes x1..xn, and
                     ai leaves y_{i,1}..y_{i,ai} on spoke xi.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .poly import MonomialIdeal, VariableSet


class GraphError(ValueError):
    pass


@dataclass(frozen=True)
class Graph:
    vertices: tuple[str, ...]
    edges: tuple[frozenset[str], ...]

    def __post_init__(self):
        vs = set(self.vertices)
        if len(vs) != len(self.vertices):
            raise GraphError("duplicate vertices")
        for e in self.edges:
            if len(e) != 2 or not e <= vs:
                raise GraphError(f"bad edge {sorted(e)}")
        if len(set(self.edges)) != len(self.edges):
            raise GraphError("duplicate edges")

    @staticmethod
    def build(vertices, edges) -> "Graph":
        return Graph(tuple(vertices), tuple(frozenset(e) for e in edges))

    def adjacency(self) -> dict[str, list[str]]:
        adj: dict[str, list[str]] = {v: [] for v in self.vertices}
        for e in self.edges:
            a, b = sorted(e)
            adj[a].append(b)
            adj[b].append(a)
        return {v: sorted(ns) for v, ns in adj.items()}

    def degree(self, v: str) -> int:
        return sum(1 for e in self.edges if v in e)

    def non_isolated(self) -> tuple[str, ...]:
        touched = set().union(*self.edges) if self.edges else set()
        return tuple(v for v in self.vertices if v in touched)

    def is_connected(self) -> bool:
        if not self.vertices:
            return True
        adj = self.adjacency()
        seen = {self.vertices[0]}
        stack = [self.vertices[0]]
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == len(self.vertices)

    def is_tree(self) -> bool:
        return self.is_connected() and len(self.edges) == len(self.vertices) - 1

    def is_cycle(self) -> bool:
        return (
            len(self.vertices) >= 3
            and len(self.edges) == len(self.vertices)
            and all(len(ns) == 2 for ns in self.adjacency().values())
            and self.is_connected()
        )

    def to_json(self) -> dict:
        return {
            "vertices": list(self.vertices),
            "edges": sorted(sorted(e) for e in self.edges),
        }

    @staticmethod
    def from_json(d: dict) -> "Graph":
        es = d.get("edges") if isinstance(d, dict) else None
        lists = [d.get("vertices"), *es] if isinstance(es, list) else [None]
        if not all(isinstance(v, list) and all(isinstance(x, str) for x in v) for v in lists) or any(len(e) != 2 for e in es):
            raise GraphError('a graph is a JSON object {"vertices": [names], "edges": [[name, name], ...]}')
        return Graph.build(d["vertices"], es)


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


def _tree_path(graph: Graph) -> list[str]:
    """A longest path, as its vertex list, of a graph its caller has found to
    be a tree, by double BFS."""
    if len(graph.vertices) == 1:
        return [graph.vertices[0]]
    adj = graph.adjacency()
    u, _ = _bfs_ecc(adj, graph.vertices[0])
    w, _ = _bfs_ecc(adj, u)
    # recover the u-w path by parents
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


def graph_diameter(graph: Graph) -> int:
    """Length (edge count) of the longest path of a tree or a cycle; cycles
    count as closed paths, so C_n has diameter n.  Trees use double BFS.
    Any other graph, the empty one included, raises GraphError.
    """
    if graph.is_tree():
        return len(_tree_path(graph)) - 1
    if graph.is_cycle():
        return len(graph.vertices)
    raise GraphError("graph_diameter needs a tree or a cycle")


def edge_ideal(graph: Graph) -> MonomialIdeal:
    """Edge ideal I_G; generators in sorted-edge order.

    Isolated vertices do not occur in any generator; the ambient variables
    are the non-isolated vertices (in graph order).
    """
    ring = VariableSet(graph.non_isolated())
    gens = []
    for e in sorted(sorted(e) for e in graph.edges):
        gens.append(ring.variable(e[0]) * ring.variable(e[1]))
    return MonomialIdeal(ring, tuple(gens))


# ---------------------------------------------------------------------------
# named families


_L_RE = re.compile(r"^L\(\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*\)$")
_P_RE = re.compile(r"^P(\d+)$")
_C_RE = re.compile(r"^C(\d+)$")
_T4_RE = re.compile(r"^T4\(\s*(\d+)\s*(?:;\s*([\d,\s]*))?\)$")


def lyubeznik_graph(a: int, b: int, c: int) -> Graph:
    vertices = (
        ["x", "y"]
        + [f"x{i}" for i in range(1, a + 1)]
        + [f"y{j}" for j in range(1, b + 1)]
        + [f"z{k}" for k in range(1, c + 1)]
    )
    edges = [("x", "y")]
    edges += [("x", f"x{i}") for i in range(1, a + 1)]
    edges += [("y", f"y{j}") for j in range(1, b + 1)]
    for k in range(1, c + 1):
        edges += [("x", f"z{k}"), ("y", f"z{k}")]
    return Graph.build(vertices, edges)


def path_graph(d: int) -> Graph:
    """The path on d edges (vertices v0..vd)."""
    if d < 0:
        raise GraphError("path length must be >= 0")
    vertices = [f"v{i}" for i in range(d + 1)]
    edges = [(f"v{i}", f"v{i+1}") for i in range(d)]
    return Graph.build(vertices, edges)


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise GraphError("cycles need at least 3 vertices")
    vertices = [f"v{i}" for i in range(1, n + 1)]
    edges = [(f"v{i}", f"v{i % n + 1}") for i in range(1, n + 1)]
    return Graph.build(vertices, edges)


def t4_tree(n: int, leaf_counts) -> Graph:
    """Center z, spokes x1..xn, a_i leaves y_{i,1}.. on spoke x_i."""
    leaf_counts = list(leaf_counts)
    if len(leaf_counts) != n:
        raise GraphError("T4 needs one leaf count per spoke")
    if n < 1:
        raise GraphError("T4 needs at least one spoke")
    vertices = ["z"] + [f"x{i}" for i in range(1, n + 1)]
    edges = [("z", f"x{i}") for i in range(1, n + 1)]
    for i, ai in enumerate(leaf_counts, start=1):
        if ai < 0:
            raise GraphError("leaf counts must be >= 0")
        for j in range(1, ai + 1):
            vertices.append(f"y{i}_{j}")
            edges.append((f"x{i}", f"y{i}_{j}"))
    return Graph.build(vertices, edges)


def build_family(name: str) -> Graph:
    """Parse a family shorthand (see module docstring) into a Graph."""
    name = name.strip()
    m = _L_RE.match(name)
    if m:
        return lyubeznik_graph(int(m.group(1)), int(m.group(2)), int(m.group(3)))
    m = _P_RE.match(name)
    if m:
        return path_graph(int(m.group(1)))
    m = _C_RE.match(name)
    if m:
        return cycle_graph(int(m.group(1)))
    m = _T4_RE.match(name)
    if m:
        n = int(m.group(1))
        inner = (m.group(2) or "").strip()
        counts = [int(t) for t in inner.split(",")] if inner else [0] * n
        return t4_tree(n, counts)
    raise GraphError(f"unknown family: {name!r}")
