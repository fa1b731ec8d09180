"""Discrete Morse machinery on the Taylor complex.

The Taylor graph of an ordered minimal generating set has a vertex for each
subset of the generators and an arc sigma -> tau whenever tau = sigma minus
one element, lcm(sigma) = lcm(tau), and |tau| >= 2 (so cancellations never
touch homological degrees 0 and 1).

A Morse matching is a set A of arcs no two of which share an endpoint such
that reversing the arcs of A leaves the digraph acyclic.  `morse_reduce`
forms the induced smaller complex on the unmatched (critical) cells as the
quotient of the Taylor complex by the span of e_sigma and d(e_sigma) over
the matched pairs (sigma, tau), each d(e_sigma) eliminated at its target
tau with the unit-pivot elimination of `dg.Elimination`; a Morse matching
guarantees every pivot is a unit.

`lyubeznik_matching` implements the matching A(<) of Batzies-Welker:
M(sigma) is the smallest generator u_q dividing lcm{u in sigma : u > u_q},
matched via sigma <-> sigma + {M(sigma)}.  Its critical cells, the subsets
with no M value, are exactly the survivors of the classical Lyubeznik rule,
so `lyubeznik_critical` keeps those, and `lyubeznik_resolution` writes that
subcomplex of the Taylor complex on the survivors alone; the tests check
both against the rule written out.  The M test and the equal-lcm test of
`taylor_graph` read the generators as unary int bitmasks
(`_divisor_masks`), where u | m is `not u & ~m` and the lcm is `u | m`;
for a squarefree ideal these are the support masks.

`matching_quotient` is the one construction of the dg quotient T/J of the
Taylor algebra by the span J of a matching's two-term subcomplexes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import accumulate, combinations
from operator import or_

from .complexes import ComplexError, LabeledFreeComplex
from .dg import (
    DGError,
    Elimination,
    QuotientDG,
    matching_span,
    quotient_dg,
    superset_closed,
)
from .poly import MonomialIdeal, PolyError, UnaryCode
from .taylor import taylor_complex, taylor_dg_structure

Arc = tuple[tuple[int, ...], tuple[int, ...]]  # (source subset, target subset)


class MorseError(ValueError):
    """`witness`, when set, lists the matched pairs left waiting, or is the
    `validate_matching` report of a matching `matching_quotient` refuses."""

    witness: list | dict | None = None


MAX_GRAPH_GENERATORS = 20


@dataclass
class TaylorGraph:
    ideal: MonomialIdeal
    arcs: tuple[Arc, ...]

    def arc_set(self) -> set[Arc]:
        return set(self.arcs)

    def to_dot(self, matching: tuple[Arc, ...] | None = None) -> str:
        """Graphviz DOT text; matched arcs are drawn reversed and dashed."""
        matched = set(matching or ())
        lines = ["digraph taylor {", '  rankdir="LR";']

        def node(v: tuple[int, ...]) -> str:
            return '"{' + ",".join(str(i) for i in v) + '}"'

        seen = set()
        for s, t in self.arcs:
            for v in (s, t):
                if v not in seen:
                    seen.add(v)
                    lines.append(f"  {node(v)};")
        for s, t in self.arcs:
            if (s, t) in matched:
                lines.append(f"  {node(t)} -> {node(s)} [style=dashed, color=red];")
            else:
                lines.append(f"  {node(s)} -> {node(t)};")
        lines.append("}")
        return "\n".join(lines) + "\n"


def taylor_graph(ideal: MonomialIdeal) -> TaylorGraph:
    """All arcs sigma -> tau with tau = sigma minus a point, equal lcm,
    |tau| >= 2; arcs sorted by (|tau|, sigma, tau).  The lcm of a set is the
    `or` of its `_divisor_masks`, which raises PolyError unless the
    generators are a minimal system, as `taylor.taylor_complex` does."""
    t = len(ideal.generators)
    if t > MAX_GRAPH_GENERATORS:
        raise MorseError(f"Taylor graph limited to {MAX_GRAPH_GENERATORS} generators")
    masks = _divisor_masks(ideal)
    arcs: list[Arc] = []
    for size in range(3, t + 1):
        for sigma in combinations(range(t), size):
            m_sigma = reduce(or_, (masks[i] for i in sigma))
            for drop in sigma:
                tau = tuple(i for i in sigma if i != drop)
                if reduce(or_, (masks[i] for i in tau)) == m_sigma:
                    arcs.append((sigma, tau))
    arcs.sort(key=lambda a: (len(a[1]), a[0], a[1]))
    return TaylorGraph(ideal, tuple(arcs))


def validate_matching(graph: TaylorGraph, matching) -> dict:
    """Check a candidate Morse matching: arcs belong to the graph, no two
    arcs share an endpoint, and reversing them leaves the digraph acyclic
    (Kahn peeling).  Returns a report dict with 'ok'."""
    matching = [
        (tuple(s), tuple(t)) for s, t in matching
    ]
    report: dict = {"ok": True, "not_in_graph": [], "incident": [], "acyclic": True}
    arcset = graph.arc_set()
    for a in matching:
        if a not in arcset:
            report["not_in_graph"].append(a)
    used: dict[tuple[int, ...], Arc] = {}
    for a in matching:
        for v in a:
            if v in used and used[v] != a:
                report["incident"].append((used[v], a))
            used[v] = a
    # digraph with matched arcs reversed
    matched = set(matching)
    adj: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    indeg: dict[tuple[int, ...], int] = {}

    def add_edge(u, v):
        adj.setdefault(u, []).append(v)
        indeg[v] = indeg.get(v, 0) + 1
        indeg.setdefault(u, 0)

    for s, t in graph.arcs:
        if (s, t) in matched:
            add_edge(t, s)
        else:
            add_edge(s, t)
    queue = [v for v, d in indeg.items() if d == 0]
    seen = 0
    while queue:
        v = queue.pop()
        seen += 1
        for w in adj.get(v, ()):
            indeg[w] -= 1
            if indeg[w] == 0:
                queue.append(w)
    report["acyclic"] = seen == len(indeg)
    report["ok"] = (
        not report["not_in_graph"] and not report["incident"] and report["acyclic"]
    )
    return report


def matching_sources(matching) -> set[tuple[int, ...]]:
    return {tuple(s) for s, _ in matching}


def is_superset_closed(ideal: MonomialIdeal, matching) -> tuple[bool, dict | None]:
    """Is the source set A_+ closed under taking supersets inside the
    subset lattice of G(I) (`dg.superset_closed`)?  Returns a witness
    (sigma in A_+, superset not in A_+) when it is not: the first sigma, by
    size and then lexicographically, with a superset outside A_+, and its
    first such superset in the same order."""
    t = len(ideal.generators)
    sources = matching_sources(matching)
    if superset_closed(sources, t):
        return True, None

    def supersets(sigma: tuple[int, ...]):
        others = [i for i in range(t) if i not in sigma]
        for k in range(1, len(others) + 1):
            for extra in combinations(others, k):
                yield tuple(sorted(sigma + extra))

    sigma, sup = next(
        (sigma, sup) for sigma in sorted(sources, key=lambda v: (len(v), v)) for sup in supersets(sigma)
        if sup not in sources
    )
    return False, {"source": list(sigma), "superset": list(sup)}


# ---------------------------------------------------------------------------
# the Batzies-Welker matching A(<)


def _divisor_masks(ideal: MonomialIdeal) -> list[int]:
    """The generators as unary int bitmasks (`poly.UnaryCode`): u | m iff
    `not u & ~m`, and lcm(u, m) is `u | m`, for every monomial ideal; a
    squarefree ideal gets one bit per variable that occurs.

    The Taylor graph, the matching A(<) and the Lyubeznik survivors are
    defined on G(I) only, and each reads these masks before it enumerates
    a subset: PolyError unless the generators are a minimal system."""
    if not ideal.is_minimal_system():
        raise PolyError("generators are not a minimal system; minimalize first")
    code = UnaryCode(ideal.generators, ideal.ring)
    return [code.mask(g.exponents) for g in ideal.generators]


def _min_divisor_index(masks: list[int], sigma: tuple[int, ...]) -> int | None:
    """M(sigma) for a sorted sigma: least q with u_q | lcm{u_j in sigma : j > q},
    else None, on the ideal's `_divisor_masks`."""
    # lcm(u_j : j in sigma[p:]) for each position p, one `or` per member
    tails = list(accumulate([masks[j] for j in reversed(sigma)], or_))[::-1]
    lo = 0  # the q in [lo, j) have the members from j on as their later set
    for j, tail in zip(sigma, tails):
        for q in range(lo, j):
            if not masks[q] & ~tail:
                return q
        lo = j
    return None


def lyubeznik_matching(ideal: MonomialIdeal) -> tuple[Arc, ...]:
    """The matching A(<) for the given generator order.

    A subset sigma with M(sigma) = q is matched along
    (sigma + {q}) -> (sigma - {q}).  Subsets with no M value are critical.
    PolyError for a non-minimal generating set (`_divisor_masks`).
    """
    t = len(ideal.generators)
    masks = _divisor_masks(ideal)
    # each arc is emitted once, from its lower cell: a sigma with q = M(sigma)
    # not in sigma gives (sigma + {q}) -> sigma.  Then u_q | lcm(sigma_{>q}),
    # so adding q changes lcm(sigma_{>q'}) for no q' < q, and
    # M(sigma + {q}) = q: the upper cell names the same arc.  Conversely, a
    # rho with q = M(rho) in rho has M(rho - {q}) = q by the same argument,
    # so every arc has its lower cell.
    arcs: list[Arc] = []
    for size in range(t + 1):
        for sigma in combinations(range(t), size):
            q = _min_divisor_index(masks, sigma)
            if q is not None and q not in sigma:
                arcs.append((tuple(sorted(sigma + (q,))), sigma))
    return tuple(sorted(arcs, key=lambda a: (len(a[1]), a[0], a[1])))


def lyubeznik_critical(ideal: MonomialIdeal) -> dict[int, list[tuple[int, ...]]]:
    """Subsets passing the classical survivor rule, by cardinality:
    U = {u_{i_1} < ... < u_{i_s}} survives iff no generator u_q below some
    u_{i_t} divides lcm(u_{i_t}, ..., u_{i_s}), that is iff M(U) is
    undefined (`_min_divisor_index`): a u_q below i_{t-1} dividing that
    lcm divides the longer one from i_{t-1} on too."""
    t = len(ideal.generators)
    masks = _divisor_masks(ideal)
    out: dict[int, list[tuple[int, ...]]] = {}
    for size in range(t + 1):
        for U in combinations(range(t), size):
            if _min_divisor_index(masks, U) is None:
                out.setdefault(size, []).append(U)
    return out


def lyubeznik_resolution(ideal: MonomialIdeal) -> LabeledFreeComplex:
    """The Lyubeznik subcomplex of the Taylor complex for the generators in
    their given order (`MonomialIdeal.reorder` picks another).

    The survivor sets are closed under subsets, so the Taylor differential
    restricts to them; this writes that restriction on the survivors alone
    (`taylor.taylor_complex`).  A non-minimal generating set raises
    PolyError before any subset is enumerated (`_divisor_masks`), and a
    survivor with a facet that does not survive raises MorseError.
    """
    crit = lyubeznik_critical(ideal)
    faces = (U for size in sorted(crit) for U in crit[size])
    try:
        return taylor_complex(ideal, faces, f"Lyubeznik{ideal}")
    except ComplexError:
        raise MorseError("survivor sets are not subset-closed; bad input order") from None


def matching_quotient(ideal: MonomialIdeal, matching) -> tuple[dict, QuotientDG]:
    """The matching's `validate_matching` report and the Taylor dg algebra T
    modulo the span J of e_V and d(e_V) over its sources V
    (`dg.matching_span`), the matched cells preferred as pivots.  An invalid
    matching raises MorseError with the report as `witness`; `dg.quotient_dg`
    refuses J when it is not a dg ideal (`DGIdealError`)."""
    val = validate_matching(taylor_graph(ideal), matching)
    if not val["ok"]:
        err = MorseError("matching is not a valid Morse matching of the Taylor graph")
        err.witness = val
        raise err
    dgT = taylor_dg_structure(ideal)
    span, prefer = matching_span(dgT.complex, matching)
    return val, quotient_dg(dgT, span, prefer_eliminate=prefer)


# ---------------------------------------------------------------------------
# algebraic Morse reduction


def morse_reduce(T: LabeledFreeComplex, matching) -> LabeledFreeComplex:
    """The Morse complex of a matching: T modulo the span of e_sigma and
    d(e_sigma) over the matched pairs (sigma, tau), each d(e_sigma) pivoted
    on its matched target tau (`dg.Elimination`).

    Pairs are taken by homological degree of the source and lexicographic
    order of the source tag.  Eliminating (sigma, tau) with pivot
    c = <d sigma, tau>, as reduced by the pairs before it, replaces tau by
    -(d sigma - c tau)/c and sigma by 0; a pair whose pivot entry is not a
    nonzero rational waits for the next pass, and if a whole pass makes no
    progress MorseError is raised, with the waiting pairs and their pivot
    entries as `witness` (cannot happen for an acyclic matching).  Critical
    cells keep their labels, so the result can be compared against
    subcomplex constructions label by label.
    """
    pairs = []
    for s, t in matching:
        try:
            sigma, tau = T.find_label(("e",) + tuple(s)), T.find_label(("e",) + tuple(t))
        except ComplexError:
            raise MorseError(f"matched pair ({s},{t}) not in the complex") from None
        pairs.append((T.degree[sigma], sigma, tau, [list(s), list(t)]))
    pairs.sort(key=lambda p: (p[0], str(p[1].tag)))
    # in each degree: first the sources there, each set to 0, then d(e_sigma)
    # for the pairs whose target lies there, both of multidegree m_sigma
    generators = [(sigma.tag, i, {sigma: 1}, sigma.multidegree, sigma) for i, sigma, _, _ in pairs]
    generators += [
        (pair, i - 1, T.diff.get(i, {}).get(sigma, {}), sigma.multidegree, tau) for i, sigma, tau, pair in pairs
    ]
    try:
        elim = Elimination(T, generators)
    except DGError as exc:
        err = MorseError("stuck: no matched pair has a unit pivot (matching not acyclic?)")
        err.witness = exc.witness
        raise err from None
    return elim.quotient(f"morse({T.name})")
