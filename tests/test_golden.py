"""Golden certificates: the classification of every small tree and cycle is
pinned byte for byte.

The 30 graphs are those of `scripts/classify_small_graphs.py`, in its
order: the nonisomorphic trees on 2..7 vertices (vertices v0.., in the
order networkx 3.6 enumerates them, which the hash depends on) and then the
cycles C3..C8.  Each certificate is serialised
as `json.dumps(cert.to_json(), indent=2)`, and the sha256 of the plain
concatenation of the 30 texts is fixed.  A refactor of any layer a
certificate rests on (Taylor, Lyubeznik/Morse, dg checks, cones, pruning,
strands) must leave it unchanged.
"""

import hashlib
import json

import networkx as nx

from dgres import cycle_graph
from dgres.classify import classify
from dgres.combin import Graph

GOLDEN_SHA256 = "5e2929514b907fd71c8d97d01b756b8789313d7e5faabebb5aaa84672ce2f69e"


def small_graphs() -> list[Graph]:
    out = []
    for n in range(2, 8):
        for T in nx.nonisomorphic_trees(n):
            verts = tuple(f"v{i}" for i in sorted(T.nodes()))
            edges = tuple((f"v{a}", f"v{b}") for a, b in T.edges())
            out.append(Graph.build(verts, edges))
    out.extend(cycle_graph(n) for n in range(3, 9))
    return out


def test_certificates_of_small_trees_and_cycles():
    graphs = small_graphs()
    assert len(graphs) == 30
    text = "".join(json.dumps(classify(g).to_json(), indent=2) for g in graphs)
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_SHA256
