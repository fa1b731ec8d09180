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

from .poly import Monomial, MonomialIdeal, PolyError, VariableSet, _monomial


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

    def non_isolated(self) -> tuple[str, ...]:
        touched = set().union(*self.edges) if self.edges else set()
        return tuple(v for v in self.vertices if v in touched)

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


def _distances(adj: dict[str, list[str]], start: str) -> dict[str, int]:
    """BFS distances from start, keyed in the order BFS reaches them."""
    dist, queue = {start: 0}, [start]
    for v in queue:
        for w in adj[v]:
            if w not in dist:
                dist[w] = dist[v] + 1
                queue.append(w)
    return dist


@dataclass(frozen=True)
class GraphShape:
    """What one pass over a graph finds, from one adjacency.

    - ``family`` is "tree", "cycle" or None for any other graph.
    - ``walk`` is, for a tree, a longest path u..w: u is the first vertex
      BFS from the first vertex reaches at its largest distance, w the first
      such vertex from u.  For a cycle it is the vertices in cycle order,
      from the first vertex towards whichever of its two neighbours comes
      first in the vertex list, so a list already in cycle order comes back
      unchanged.  Empty for any other graph.
    - ``ends`` holds, for a tree, the distances of every vertex from u and
      from w; None otherwise.
    """

    family: str | None
    walk: tuple[str, ...]
    adjacency: dict[str, list[str]]
    ends: tuple[dict[str, int], dict[str, int]] | None

    @property
    def diameter(self) -> int:
        """Edges of a longest path; the cycle C_n counts as a closed path of
        length n."""
        return len(self.walk) - 1 if self.family == "tree" else len(self.walk)


def graph_shape(graph: Graph) -> GraphShape:
    """Decide whether the graph is a tree or a cycle and walk it (see
    `GraphShape`).  A tree has |E| = |V| - 1 and the first BFS reaches every
    vertex; a cycle has |E| = |V| >= 3, every degree 2, and the walk from the
    first vertex does not return to it before it has visited every vertex."""
    adj, vs = graph.adjacency(), graph.vertices
    if vs and len(graph.edges) == len(vs) - 1:
        first = _distances(adj, vs[0])
        if len(first) == len(vs):
            # BFS reaches vertices in order of distance, so max keeps the
            # first of the farthest
            du = _distances(adj, max(first, key=first.get))
            w = max(du, key=du.get)
            path = [w]
            while du[path[-1]]:
                path.append(next(t for t in adj[path[-1]] if du[t] == du[path[-1]] - 1))
            return GraphShape("tree", tuple(reversed(path)), adj, (du, _distances(adj, w)))
    elif len(vs) >= 3 and len(graph.edges) == len(vs) and all(len(ns) == 2 for ns in adj.values()):
        walk = [vs[0], min(adj[vs[0]], key=vs.index)]
        while walk[-1] != vs[0]:
            walk.append(next(w for w in adj[walk[-1]] if w != walk[-2]))
        if len(walk) == len(vs) + 1:
            return GraphShape("cycle", tuple(walk[:-1]), adj, None)
    return GraphShape(None, (), adj, None)


def graph_diameter(graph: Graph) -> int:
    """Length (edge count) of the longest path of a tree or a cycle; cycles
    count as closed paths, so C_n has diameter n.  Any other graph, the empty
    one included, raises GraphError.
    """
    shape = graph_shape(graph)
    if shape.family is None:
        raise GraphError("graph_diameter needs a tree or a cycle")
    return shape.diameter


def edge_monomial(ring: VariableSet, a: str, b: str) -> Monomial:
    """x_a x_b, the generator of the edge ab, built as one monomial over
    `ring`.  An unknown or inactive name raises PolyError, as
    `VariableSet.variable` does."""
    exps = [0] * len(ring)
    for name in (a, b):
        i = ring.index(name)
        if not ring.active[i]:
            raise PolyError(f"variable {name!r} is inactive in this ring")
        exps[i] += 1
    return _monomial(ring, tuple(exps))


def edge_ideal(graph: Graph) -> MonomialIdeal:
    """Edge ideal I_G; generators in sorted-edge order.

    Isolated vertices do not occur in any generator; the ambient variables
    are the non-isolated vertices (in graph order).
    """
    ring = VariableSet(graph.non_isolated())
    edges = sorted(sorted(e) for e in graph.edges)
    return MonomialIdeal(ring, tuple(edge_monomial(ring, a, b) for a, b in edges))


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
