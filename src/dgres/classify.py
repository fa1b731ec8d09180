"""Classification of dg trees and dg cycles, with machine-checked
certificates.

For a tree of diameter d, the minimal free resolution of Q/I admits a dg
algebra structure iff d <= 4; for a cycle C_n iff n <= 5.  `classify`
returns a `Certificate` whose evidence is recomputable:

  * d <= 2 trees: the Taylor resolution is already minimal (no proper
    subset of the generators has full lcm), and Taylor resolutions are dg
    (Gemeda).
  * d = 3 trees (and the 3-cycle): for a total order starting at the
    central edge, the Lyubeznik matching sources form a superset-closed
    family, so the span J of their two-term subcomplexes is a dg ideal
    (`dg.quotient_dg` decides it by this lemma, stated and proved in the
    `dg` module docstring, and counts the products it decides).  The
    quotient T/J, the Lyubeznik resolution up to a change of basis, is
    built and shown minimal and resolving, and all dg axioms are
    machine-checked on it.
  * d = 4 trees: the mapping-cone resolution glued from the Taylor
    resolutions of the star ideal I = (z x_i) and the leaf ideal
    J = (x_i y_{i,j}), with its explicit product; all axioms checked.
  * C_4, C_5: explicit acyclic Morse matchings on the Taylor complex whose
    reductions are minimal; the spanned ideal is closed under
    multiplication and the quotient passes all dg axioms.  C_4's source
    family is superset-closed, so the lemma decides its span.  C_5's is
    *not*: each of its 155 nonzero products e_u * g is solved for
    membership, and it witnesses that superset-closure is sufficient but
    not necessary.
  * C_6: the Betti vector (1, 6, 9, 6, 2) is not the f-vector of any
    simplicial complex (Kruskal-Katona fails at the 4-element level:
    2 = C(4,4) + C(3,3) forces at least C(4,3) + C(3,2) = 7 > 6 faces
    below), so by Katthaen's structure theorem the resolution carries no
    dg structure.
  * trees of diameter >= 5 and cycles on >= 7 vertices: six consecutive
    geodesic vertices span a facet-induced 5-edge path; pruning by the
    complementary vertices carries a dg structure down to the minimal
    resolution of the path quotient (Boocher + dg descent), which admits
    none (Avramov; Katthaen).  The pruning computation is included in the
    certificate; non-dg-ness of the 5-path is the single cited input.
    Once the pruned generators are checked to be the window's five
    consecutive edges, the recorded Betti vector is the 5-path's, computed
    once per process from its Taylor complex.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from math import comb

from .combin import Graph, GraphError, _tree_path, edge_ideal, path_graph
from .complexes import total_betti
from .dg import dg_check
from .diam4 import (
    build_cone_resolution,
    check_boundary_action,
    check_phi_z_multiplicative,
    check_sigma_zification,
    diam4_betti,
    lyubeznik_betti,
)
from .morse import (
    is_superset_closed,
    lyubeznik_matching,
    matching_quotient,
)
from .poly import MonomialIdeal, lcm_of
from .prune import prune_ideal
from .taylor import taylor_dg_structure, taylor_resolution

VERSION = "0.1.0"


class UnsupportedGraphError(GraphError):
    """The classification covers trees and cycles only."""


CITED_FACTS: dict[str, dict] = {
    "taylor-dg": {
        "statement": "The Taylor resolution of a monomial quotient is a dg algebra.",
        "source": "Gemeda (1976); see also Avramov",
    },
    "morse-resolution": {
        "statement": "A homogeneous acyclic matching on the Taylor complex "
        "yields a free resolution on the critical cells; Lyubeznik "
        "resolutions arise this way.",
        "source": "Batzies-Welker (2002)",
    },
    "hilbert-burch": {
        "statement": "Codimension-two perfect quotients are resolved by the "
        "Hilbert-Burch complex, which is a dg algebra.",
        "source": "Hilbert-Burch; cf. Herzog's account",
    },
    "buchsbaum-eisenbud-short": {
        "statement": "Minimal free resolutions of length at most three admit "
        "dg algebra structures.",
        "source": "Buchsbaum-Eisenbud (1977)",
    },
    "katthan-structure": {
        "statement": "If the minimal free resolution of a squarefree "
        "monomial quotient is dg, it is a quotient of the Taylor dg algebra "
        "by a dg ideal spanned by two-term subcomplexes.",
        "source": "Katthaen (2019), structure theorem",
    },
    "katthan-fvector": {
        "statement": "If the minimal free resolution of Q/I is dg then its "
        "Betti vector is the f-vector of a simplicial complex (a cone).",
        "source": "Katthaen (2019)",
    },
    "katthan-5path": {
        "statement": "The minimal free resolution of the quotient by the "
        "edge ideal of the 5-edge path admits no dg algebra structure "
        "(polarization of Avramov's obstruction for (x^2,xy,yz,zw,w^2)).",
        "source": "Katthaen (2019); Avramov (1981)",
    },
    "avramov-obstruction": {
        "statement": "The minimal free resolution of "
        "k[x,y,z,w]/(x^2,xy,yz,zw,w^2) admits no dg algebra structure.",
        "source": "Avramov (1981)",
    },
    "boocher-pruning": {
        "statement": "Pruning the minimal free resolution of a monomial "
        "ideal yields the minimal free resolution of the pruned ideal over "
        "the smaller ring.",
        "source": "Boocher (2012), Thm 2.3",
    },
    "kruskal-katona": {
        "statement": "Characterization of f-vectors of simplicial complexes "
        "via cascade (shadow) inequalities.",
        "source": "Kruskal (1963), Katona (1968)",
    },
}

# the argument of a non-dg certificate found by pruning to the 5-edge path
_PRUNED_TO_PATH = ("boocher-pruning", "katthan-structure", "katthan-5path", "avramov-obstruction")

# (family, evidence kind) -> (verdict, cited facts): the one rule a
# certificate's verdict and citations follow
CERTIFICATE_TABLE: dict[tuple[str, str], tuple[str, tuple[str, ...]]] = {
    ("tree", "taylor-minimal"): ("dg", ("taylor-dg",)),
    ("tree", "lyubeznik-quotient"): ("dg", ("taylor-dg", "morse-resolution")),
    ("tree", "cone-product"): ("dg", ("taylor-dg",)),
    ("tree", "prunes-to-non-dg-path"): ("not_dg", _PRUNED_TO_PATH),
    ("cycle", "lyubeznik-quotient"): (
        "dg", ("taylor-dg", "morse-resolution", "hilbert-burch", "buchsbaum-eisenbud-short"),
    ),
    ("cycle", "morse-quotient"): ("dg", ("taylor-dg", "morse-resolution", "buchsbaum-eisenbud-short")),
    ("cycle", "betti-not-f-vector"): ("not_dg", ("katthan-structure", "katthan-fvector", "kruskal-katona")),
    ("cycle", "prunes-to-non-dg-path"): ("not_dg", _PRUNED_TO_PATH),
}


# ---------------------------------------------------------------------------
# Kruskal-Katona


def cascade_representation(n: int, j: int) -> list[tuple[int, int]]:
    """Greedy j-cascade n = C(a_j, j) + C(a_{j-1}, j-1) + ... with
    a_j > a_{j-1} > ... >= 1."""
    if n < 0 or j < 1:
        raise ValueError("cascade needs n >= 0, j >= 1")
    rep: list[tuple[int, int]] = []
    while n > 0 and j >= 1:
        a = j
        while comb(a + 1, j) <= n:
            a += 1
        rep.append((a, j))
        n -= comb(a, j)
        j -= 1
    if n > 0:
        raise ValueError("cascade representation failed")
    return rep


def cascade_shadow_bound(rep: list[tuple[int, int]]) -> int:
    """Lower bound C(a_j, j-1) + C(a_{j-1}, j-2) + ... for the size of the
    lower shadow of any family realizing the cascade."""
    return sum(comb(a, j - 1) for a, j in rep)


def kruskal_katona_is_fvector(fvec) -> dict:
    """Is (f_0, f_1, ..., f_d) with f_i = #faces on i vertices the f-vector
    of a simplicial complex?  Returns {"ok": bool, "failures": [...]} with
    the failing level, cascade, and bound when not."""
    f = list(fvec)
    failures = []
    if not f or f[0] != 1:
        failures.append({"level": 0, "reason": "f_0 must be 1 (the empty face)"})
    for j in range(1, len(f)):
        if f[j] < 0:
            failures.append({"level": j, "reason": "negative entry"})
            continue
        if f[j] == 0:
            if any(f[k] for k in range(j + 1, len(f))):
                failures.append({"level": j, "reason": "zero below a nonzero entry"})
            continue
        if j == 1:
            continue
        rep = cascade_representation(f[j], j)
        bound = cascade_shadow_bound(rep)
        if f[j - 1] < bound:
            failures.append(
                {
                    "level": j,
                    "count": f[j],
                    "cascade": [[a, jj] for a, jj in rep],
                    "shadow_bound": bound,
                    "previous": f[j - 1],
                }
            )
    return {"ok": not failures, "failures": failures}


# ---------------------------------------------------------------------------
# certificates


@dataclass
class Certificate:
    family: str  # "tree" | "cycle"
    verdict: str  # "dg" | "not_dg"
    diameter: int
    parameters: dict
    betti: list[int] | None
    evidence: dict
    cited: list[str]
    graph: dict

    def to_json(self) -> dict:
        return {
            "version": VERSION,
            "family": self.family,
            "verdict": self.verdict,
            "diameter": self.diameter,
            "parameters": self.parameters,
            "betti": self.betti,
            "evidence": self.evidence,
            "cited": sorted(self.cited),
            "citations": {k: CITED_FACTS[k] for k in sorted(self.cited)},
            "graph": self.graph,
        }


def _dg_check_summary(dg) -> dict:
    rep = dg_check(dg)
    out = {**rep.to_json(), "triples_checked": True}
    if not rep.ok:
        raise GraphError(f"dg axiom failure on {dg.name}: {out['failures']}")
    return out


def _resolution_summary(cx, ideal) -> dict:
    ok, rep = cx.is_resolution_of(ideal)
    if not ok:
        raise GraphError(f"{cx.name} is not a resolution of {ideal}: {rep}")
    return {"checked": True, "ok": True}


def _taylor_minimal_evidence(ideal: MonomialIdeal) -> tuple[dict, list[int]]:
    dgT = taylor_dg_structure(ideal)
    T, gens = dgT.complex, ideal.generators
    full = lcm_of(gens, ideal.ring)
    drop = []
    for u, g in enumerate(gens):
        m = lcm_of((h for v, h in enumerate(gens) if v != u), ideal.ring)
        drop.append({"dropped": str(g), "lcm_without": str(m), "full_lcm_kept": str(m) != str(full)})
    if not all(d["full_lcm_kept"] for d in drop):
        raise GraphError("Taylor resolution is not minimal; wrong branch")
    evidence = {
        "kind": "taylor-minimal",
        "ranks": list(T.ranks()),
        "is_minimal": T.is_minimal(),
        "drop_one_lcms": drop,
        "resolution": _resolution_summary(T, ideal),
        "dg_check": _dg_check_summary(dgT),
    }
    return evidence, list(T.ranks())


def _quotient_evidence(kind: str, ideal: MonomialIdeal, matching) -> tuple[dict, list[int]]:
    """T/J for a matching (`morse.matching_quotient`: validity, then the
    dg-ideal check), with all dg axioms checked on it, and the ranks,
    minimality, resolution and Betti numbers of that one complex.  For
    *lyubeznik-quotient* the matching sources must be superset-closed.
    `morse_reduce` is the quotient by the same span, so T/J is the Morse
    (for a Lyubeznik matching, the Lyubeznik) complex up to a change of
    basis, and the recorded numbers do not depend on the basis.
    `quotient_ranks` equals `ranks`; it is kept for the certificate bytes."""
    lyubeznik = kind == "lyubeznik-quotient"
    closed, witness = is_superset_closed(ideal, matching)
    if lyubeznik and not closed:
        raise GraphError(f"matching sources not superset-closed: {witness}")
    val, q = matching_quotient(ideal, matching)
    cx = q.structure.complex
    if not cx.is_minimal():
        raise GraphError(f"{cx.name} is not minimal")
    ranks = cx.ranks()
    evidence: dict = {"kind": kind}
    if lyubeznik:
        evidence["generator_order"] = [str(g) for g in ideal.generators]
    evidence |= {
        "matching": [[list(s), list(t)] for s, t in matching],
        "matching_valid": val,
        "superset_closed": closed,
        "ranks": list(ranks),
        "quotient_ranks": list(ranks),
        "resolution": _resolution_summary(cx, ideal),
        "dg_check": _dg_check_summary(q.structure),
        "closure_products_checked": q.closure_products_checked,
    }
    if not closed:
        evidence["superset_closure_counterexample"] = {
            "source": list(witness["source"]),
            "superset": list(witness["superset"]),
        }
    return evidence, list(ranks)


def _cone_evidence(graph: Graph) -> tuple[dict, list[int], dict]:
    res = build_cone_resolution(graph)
    dec = res.decomposition
    if not res.cone.is_minimal():
        raise GraphError("cone resolution is not minimal")
    counts = [len(dec.leaves[s]) for s in dec.spokes]
    formula = list(diam4_betti(dec.n, counts))
    betti = list(res.cone.ranks())
    if betti != formula:
        raise GraphError(f"Betti mismatch: computed {betti}, formula {formula}")
    lemmas = {
        "phi_z_multiplicative": check_phi_z_multiplicative(dec)["ok"],
        "sigma_zification": check_sigma_zification(dec)["ok"],
        "boundary_action": check_boundary_action(res)["ok"],
    }
    if not all(lemmas.values()):
        raise GraphError(f"structural lemma failed: {lemmas}")
    evidence = {
        "kind": "cone-product",
        "center": dec.center,
        "spokes": list(dec.spokes),
        "leaf_counts": counts,
        "ranks": list(res.cone.ranks()),
        "betti_formula": formula,
        "resolution": _resolution_summary(res.cone, dec.ideal_total),
        "dg_check": _dg_check_summary(res.dg),
        "lemma_checks": lemmas,
    }
    params = {"spokes": dec.n, "leaves": sum(counts)}
    return evidence, betti, params


@cache
def _five_path_betti() -> tuple[int, ...]:
    """Total Betti numbers of the edge ideal of the 5-edge path, from its
    Taylor complex, computed once per process."""
    return total_betti(taylor_resolution(edge_ideal(path_graph(5))))


def _path_window_evidence(graph: Graph, ideal: MonomialIdeal, window: list[str]) -> dict:
    """Prune the edge ideal of the graph down to the 5-edge path spanned by
    six consecutive vertices."""
    zvars = [v for v in graph.non_isolated() if v not in set(window)]
    pruned = prune_ideal(ideal, zvars)
    expected = {
        pruned.ring.variable(a) * pruned.ring.variable(b)
        for a, b in zip(window, window[1:])
    }
    if set(pruned.generators) != expected:
        raise GraphError("window does not prune to the 5-edge path")
    # the check above makes `pruned` the 5-edge path up to renaming variables
    # and reordering generators, and neither (nor an inactive variable)
    # changes total Betti numbers
    pbetti = list(_five_path_betti())
    kk = kruskal_katona_is_fvector(pbetti)
    return {
        "kind": "prunes-to-non-dg-path",
        "window": list(window),
        "pruned_variables": zvars,
        "pruned_generators": [str(g) for g in pruned.generators],
        "path_betti": pbetti,
        "path_betti_f_vector_test": kk,
    }


# ---------------------------------------------------------------------------
# trees


def _d3_order(path: list[str], ideal: MonomialIdeal) -> list[str]:
    """Generator order starting with the central edge of a diameter-3 tree,
    the middle edge of its longest path."""
    a, b = path[1], path[2]
    ring = ideal.ring
    first = ring.variable(a) * ring.variable(b)
    rest = sorted(
        (str(g) for g in ideal.generators if g != first),
    )
    return [str(first)] + rest


def _tree_evidence(graph: Graph) -> tuple[int, dict, list[int] | None, dict]:
    """(diameter, parameters, Betti vector, evidence) of a graph its caller
    has found to be a tree."""
    path = _tree_path(graph)
    d = len(path) - 1
    ideal = edge_ideal(graph)
    if d <= 2:
        evidence, betti = _taylor_minimal_evidence(ideal)
        return d, {}, betti, evidence
    if d == 3:
        ordered = ideal.reorder(_d3_order(path, ideal))
        evidence, betti = _quotient_evidence("lyubeznik-quotient", ordered, lyubeznik_matching(ordered))
        a = graph.degree(path[1]) - 1
        b = graph.degree(path[2]) - 1
        formula = list(lyubeznik_betti(a, b, 0))
        if betti != formula:
            raise GraphError(f"Betti mismatch: {betti} vs formula {formula}")
        evidence["betti_formula"] = formula
        return d, {"a": a, "b": b, "c": 0}, betti, evidence
    if d == 4:
        evidence, betti, params = _cone_evidence(graph)
        return d, params, betti, evidence
    return d, {}, None, _path_window_evidence(graph, ideal, path[:6])


# ---------------------------------------------------------------------------
# cycles

# Explicit homogeneous acyclic matchings on the Taylor complex, with
# generators ordered along the cycle: (v1v2, v2v3, ..., v_{n-1}v_n, v1v_n).
C4_MATCHING: list[tuple[tuple[int, ...], tuple[int, ...]]] = [
    ((0, 1, 2, 3), (0, 2, 3)),
    ((0, 1, 2), (0, 2)),
    ((0, 1, 3), (1, 3)),
]

C5_MATCHING: list[tuple[tuple[int, ...], tuple[int, ...]]] = [
    ((0, 1, 2, 4), (0, 2, 4)),
    ((0, 1, 2), (0, 2)),
    ((0, 1, 3, 4), (0, 1, 3)),
    ((0, 1, 4), (1, 4)),
    ((0, 1, 2, 3, 4), (0, 1, 2, 3)),
    ((2, 3, 4), (2, 4)),
    ((0, 3, 4), (0, 3)),
    ((0, 2, 3, 4), (0, 2, 3)),
    ((1, 2, 3), (1, 3)),
    ((1, 2, 3, 4), (1, 2, 4)),
]


def _cycle_order(graph: Graph) -> list[str]:
    """The vertices of a cycle in cycle order: from the first vertex towards
    whichever of its two neighbours comes first in the vertex list, so a
    list already in cycle order comes back unchanged."""
    adj, first = graph.adjacency(), graph.vertices[0]
    walk = [first, min(adj[first], key=graph.vertices.index)]
    while len(walk) < len(graph.vertices):
        walk.append(next(w for w in adj[walk[-1]] if w != walk[-2]))
    return walk


def _cycle_consecutive_ideal(graph: Graph, ideal: MonomialIdeal) -> MonomialIdeal:
    """The edge ideal of the cycle with its generators in cycle order."""
    verts = _cycle_order(graph)
    ring = ideal.ring
    order = [
        str(ring.variable(a) * ring.variable(b))
        for a, b in zip(verts, verts[1:] + verts[:1])
    ]
    return ideal.reorder(order)


def _cycle_evidence(graph: Graph) -> tuple[dict, list[int] | None]:
    """(evidence, Betti vector) of a graph its caller has found to be a
    cycle."""
    n = len(graph.vertices)
    edges = edge_ideal(graph)
    ideal = _cycle_consecutive_ideal(graph, edges)
    if n == 3:
        return _quotient_evidence("lyubeznik-quotient", ideal, lyubeznik_matching(ideal))
    if n == 4 or n == 5:
        return _quotient_evidence("morse-quotient", ideal, C4_MATCHING if n == 4 else C5_MATCHING)
    if n == 6:
        betti = list(total_betti(taylor_resolution(ideal)))
        kk = kruskal_katona_is_fvector(betti)
        if kk["ok"]:
            raise GraphError(
                f"expected Kruskal-Katona failure for Betti vector {betti}"
            )
        return {"kind": "betti-not-f-vector", "betti": betti, "f_vector_test": kk}, betti
    return _path_window_evidence(graph, edges, _cycle_order(graph)[:6]), None


def classify(graph: Graph) -> Certificate:
    """Classify a tree or cycle; raise UnsupportedGraphError otherwise.  The
    shape is checked once, here; the branch builds the evidence, and the
    verdict and cited facts are its row of `CERTIFICATE_TABLE`."""
    if graph.is_cycle():
        family, d = "cycle", len(graph.vertices)  # C_n counts as a closed path of length n
        params = {"n": d}
        evidence, betti = _cycle_evidence(graph)
    elif graph.is_tree():
        family = "tree"
        d, params, betti, evidence = _tree_evidence(graph)
    else:
        raise UnsupportedGraphError("classification covers trees and cycles only")
    verdict, cited = CERTIFICATE_TABLE[family, evidence["kind"]]
    return Certificate(family, verdict, d, params, betti, evidence, list(cited), graph.to_json())


def verify_certificate(cert: dict) -> dict:
    """Recompute the certificate for the embedded graph and compare its
    fields and each top-level evidence entry.  GraphError on a malformed
    one."""
    if not isinstance(cert, dict) or "graph" not in cert or not isinstance(cert.get("evidence", {}), dict):
        raise GraphError("a certificate is a JSON object with a graph and an evidence object")
    graph = Graph.from_json(cert["graph"])
    fresh = classify(graph).to_json()
    mismatches = []
    for key in ("version", "family", "verdict", "diameter", "betti", "parameters", "cited", "citations"):
        if fresh.get(key) != cert.get(key):
            mismatches.append(
                {"field": key, "given": cert.get(key), "recomputed": fresh.get(key)}
            )
    # one entry per differing top-level key of the evidence, "kind" first
    given, redone = cert.get("evidence", {}), fresh["evidence"]
    for key in [*redone, *(k for k in given if k not in redone)]:
        if (key in redone, redone.get(key)) != (key in given, given.get(key)):
            mismatches.append(
                {"field": f"evidence.{key}", "given": given.get(key), "recomputed": redone.get(key)}
            )
    return {"ok": not mismatches, "mismatches": mismatches}
