"""Discrete Morse machinery: the Taylor graph re-derived by brute force, the
Batzies-Welker matching A(<) frozen on a worked example, entry-exact
reduction output, order-dependence of the Lyubeznik resolution over all 120
generator orders, and Morse-matching validation."""

from itertools import combinations, permutations

import networkx as nx
import pytest

from dgres import (
    Graph,
    MonomialIdeal,
    VariableSet,
    build_family,
    classify,
    complexes_equal,
    cycle_graph,
    edge_ideal,
    graded_betti,
    lcm_of,
    lyubeznik_matching,
    lyubeznik_resolution,
    matching_quotient,
    morse_reduce,
    prune_dg,
    taylor_dg_structure,
    taylor_graph,
    taylor_resolution,
    validate_matching,
)
from dgres import morse, prune
from dgres.classify import C4_MATCHING, C5_MATCHING
from dgres.cli import _refused_span
from dgres.combin import graph_diameter
from dgres.dg import DGIdealError, Element, SpanGenerator, SubmoduleSpan, dg_ideal_closure, matching_span, quotient_dg
from dgres.morse import MorseError, lyubeznik_critical, matching_sources
from dgres.poly import PolyError
from dgres.prune import prune_ideal

from conftest import matching_targets
from reference_complexes import equal_up_to_basis_scaling
from reference_poly import matrix

RING = VariableSet(("x", "y", "x1", "y1", "z"))

# Edge ideal of the triangle x-y-z with whiskers x1 at x and y1 at y,
# generators ordered xy < xz < yz < xx1 < yy1.
GENS = ["x*y", "x*z", "y*z", "x*x1", "y*y1"]


@pytest.fixture(scope="module")
def whisker_ideal():
    return MonomialIdeal.from_strings(RING, GENS)


# All lcm-preserving one-element drops among the 2^5 generator subsets.
EXPECTED_ARCS = {
    ((0, 1, 2), (0, 1)),
    ((0, 1, 2), (0, 2)),
    ((0, 1, 2), (1, 2)),
    ((0, 1, 4), (1, 4)),
    ((0, 2, 3), (2, 3)),
    ((0, 3, 4), (3, 4)),
    ((1, 2, 3), (2, 3)),
    ((1, 2, 4), (1, 4)),
    ((0, 1, 2, 3), (0, 1, 3)),
    ((0, 1, 2, 3), (0, 2, 3)),
    ((0, 1, 2, 3), (1, 2, 3)),
    ((0, 1, 2, 4), (0, 1, 4)),
    ((0, 1, 2, 4), (0, 2, 4)),
    ((0, 1, 2, 4), (1, 2, 4)),
    ((0, 1, 3, 4), (1, 3, 4)),
    ((0, 2, 3, 4), (2, 3, 4)),
    ((1, 2, 3, 4), (1, 3, 4)),
    ((1, 2, 3, 4), (2, 3, 4)),
    ((0, 1, 2, 3, 4), (0, 1, 3, 4)),
    ((0, 1, 2, 3, 4), (0, 2, 3, 4)),
    ((0, 1, 2, 3, 4), (1, 2, 3, 4)),
}

# A(<) for the order above: every matched pair adjoins/removes generator 0.
EXPECTED_MATCHING = {
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

# Hand-checked minimal resolution for this order: survivor pairs
# {01},{02},{03},{04},{13},{24} and triples {013},{024}.
EXPECTED_D1 = [["x*y", "x*z", "y*z", "x*x1", "y*y1"]]
EXPECTED_D2 = [
    ["-z", "-z", "-x1", "-y1", "0", "0"],
    ["y", "0", "0", "0", "-x1", "0"],
    ["0", "x", "0", "0", "0", "-y1"],
    ["0", "0", "y", "0", "z", "0"],
    ["0", "0", "0", "x", "0", "z"],
]
EXPECTED_D3 = [
    ["x1", "0"],
    ["0", "y1"],
    ["-z", "0"],
    ["0", "-z"],
    ["y", "0"],
    ["0", "x"],
]


def brute_arcs(ideal):
    """Oracle: enumerate lcm-preserving drops directly from the definition."""
    gens = ideal.generators
    t = len(gens)
    found = set()
    for size in range(t + 1):
        for sigma in combinations(range(t), size):
            m = lcm_of((gens[i] for i in sigma), ideal.ring)
            for drop in sigma:
                tau = tuple(i for i in sigma if i != drop)
                if len(tau) < 2:
                    continue
                if lcm_of((gens[i] for i in tau), ideal.ring) == m:
                    found.add((sigma, tau))
    return found


def matrix_strings(F, i):
    return [[str(p) for p in row] for row in matrix(F, i)]


class TestTaylorGraph:
    def test_frozen_arc_set(self, whisker_ideal):
        g = taylor_graph(whisker_ideal)
        assert g.arc_set() == EXPECTED_ARCS
        assert len(g.arcs) == 21

    def test_matches_brute_force(self, whisker_ideal, corpus):
        assert brute_arcs(whisker_ideal) == taylor_graph(whisker_ideal).arc_set()
        for I in corpus[:10]:
            assert brute_arcs(I) == taylor_graph(I).arc_set()
        # not squarefree: the lcm test reads exponents up to 3 off the masks
        for ring, gens in (
            (VariableSet(("x", "y", "z", "w")), ["x^2", "x*y", "y*z", "z*w", "w^2"]),
            (VariableSet(("x", "y", "z")), ["x^3", "x^2*y", "x*y^2*z", "y^3", "x*z^2"]),
        ):
            I = MonomialIdeal.from_strings(ring, gens)
            assert brute_arcs(I) == taylor_graph(I).arc_set()

    def test_arc_order(self, whisker_ideal):
        arcs = taylor_graph(whisker_ideal).arcs
        keys = [(len(t), s, t) for s, t in arcs]
        assert keys == sorted(keys)

    def test_to_dot(self, whisker_ideal):
        g = taylor_graph(whisker_ideal)
        dot = g.to_dot(matching=tuple(sorted(EXPECTED_MATCHING)))
        assert dot.startswith("digraph taylor {")
        # matched arcs are reversed and dashed
        assert '"{1,2}" -> "{0,1,2}" [style=dashed, color=red];' in dot
        assert '"{0,1,2}" -> "{0,1}";' in dot

    def test_generator_cap(self):
        names = tuple(f"x{i}" for i in range(44))
        ring = VariableSet(names)
        gens = [f"x{2 * i}*x{2 * i + 1}" for i in range(21)]
        with pytest.raises(MorseError):
            taylor_graph(MonomialIdeal.from_strings(ring, gens))


@pytest.mark.parametrize("build", [taylor_graph, lyubeznik_resolution, taylor_resolution])
def test_non_minimal_generating_set_is_refused(build):
    # x divides x*y; the ideal itself still accepts the pair
    ideal = MonomialIdeal.from_strings(VariableSet(("x", "y")), ["x", "x*y"])
    with pytest.raises(PolyError, match="generators are not a minimal system"):
        build(ideal)


@pytest.mark.parametrize("build", [lyubeznik_resolution, lyubeznik_matching, lyubeznik_critical])
def test_non_minimal_generating_set_is_refused_before_any_subset(build, monkeypatch):
    # the refusal comes from `_divisor_masks`, before the M test runs on
    # the first subset
    calls = []
    min_divisor_index = morse._min_divisor_index

    def counted(masks, sigma):
        calls.append(sigma)
        return min_divisor_index(masks, sigma)

    monkeypatch.setattr(morse, "_min_divisor_index", counted)
    ideal = MonomialIdeal.from_strings(VariableSet(("x", "y")), ["x", "x*y"])
    with pytest.raises(PolyError, match="generators are not a minimal system"):
        build(ideal)
    assert calls == []


class TestLyubeznikMatching:
    def test_frozen_matching(self, whisker_ideal):
        assert set(lyubeznik_matching(whisker_ideal)) == EXPECTED_MATCHING

    def test_is_valid_morse_matching(self, whisker_ideal, corpus):
        for I in [whisker_ideal] + corpus[:10]:
            g = taylor_graph(I)
            m = lyubeznik_matching(I)
            report = validate_matching(g, m)
            assert report["ok"], report

    def test_critical_cells_complement_matching(self, whisker_ideal):
        I = whisker_ideal
        m = lyubeznik_matching(I)
        touched = matching_sources(m) | matching_targets(m)
        critical = {
            idx
            for size, cells in lyubeznik_critical(I).items()
            for idx in cells
        }
        t = len(I.generators)
        everything = {
            idx for size in range(t + 1) for idx in combinations(range(t), size)
        }
        assert critical == everything - touched

    def test_critical_cells_match_resolution_basis(self, whisker_ideal):
        crit = lyubeznik_critical(whisker_ideal)
        F = lyubeznik_resolution(whisker_ideal)
        for i in F.degrees():
            assert [l.tag[1:] for l in F.labels(i)] == crit.get(i, [])


# The all-tails survivor rule and the per-q M(sigma), each lcm recomputed
# from scratch: the oracle for the suffix-lcm versions in dgres.morse.


def oracle_min_divisor_index(ideal: MonomialIdeal, sigma: frozenset[int]) -> int | None:
    """M(sigma): least q with u_q | lcm{u_j in sigma : j > q}, else None."""
    gens = ideal.generators
    for q in range(len(gens)):
        later = [gens[j] for j in sigma if j > q]
        if not later:
            break
        if gens[q].divides(lcm_of(later, ideal.ring)):
            return q
    return None


def oracle_lyubeznik_matching(ideal: MonomialIdeal):
    t = len(ideal.generators)
    arcs = set()
    for size in range(t + 1):
        for sigma in combinations(range(t), size):
            q = oracle_min_divisor_index(ideal, frozenset(sigma))
            if q is None:
                continue
            source = tuple(sorted(set(sigma) | {q}))
            target = tuple(i for i in source if i != q)
            arcs.add((source, target))
    return tuple(sorted(arcs, key=lambda a: (len(a[1]), a[0], a[1])))


def oracle_lyubeznik_critical(ideal: MonomialIdeal) -> dict[int, list[tuple[int, ...]]]:
    gens = ideal.generators
    t = len(gens)
    out: dict[int, list[tuple[int, ...]]] = {}
    for size in range(t + 1):
        for U in combinations(range(t), size):
            alive = True
            for pos, it in enumerate(U):
                tail = lcm_of((gens[j] for j in U[pos:]), ideal.ring)
                if any(gens[q].divides(tail) for q in range(it)):
                    alive = False
                    break
            if alive:
                out.setdefault(size, []).append(U)
    return out


class TestLyubeznikOracle:
    def assert_matches_oracle(self, I):
        assert lyubeznik_critical(I) == oracle_lyubeznik_critical(I), str(I)
        assert lyubeznik_matching(I) == oracle_lyubeznik_matching(I), str(I)

    def test_whisker_ideal_in_all_orders(self, whisker_ideal):
        for perm in permutations(range(5)):
            self.assert_matches_oracle(whisker_ideal.reorder(list(perm)))

    def test_corpus(self, corpus):
        for I in corpus:
            self.assert_matches_oracle(I)

    def test_longer_paths_and_a_cycle(self):
        for fam in ("P8", "C7"):
            I = edge_ideal(build_family(fam))
            self.assert_matches_oracle(I)
            self.assert_matches_oracle(I.reorder(list(range(len(I.generators)))[::-1]))

    def test_avramov_ideal_in_all_orders(self):
        # Not squarefree (x^2, w^2): a squared generator divides a tail's lcm
        # only with its exponent, so this is where a squarefree shortcut in
        # the survivor or matching rule would go wrong.
        I = MonomialIdeal.from_strings(
            VariableSet(("x", "y", "z", "w")), ["x^2", "x*y", "y*z", "z*w", "w^2"]
        )
        assert not I.is_squarefree()
        for perm in permutations(range(5)):
            self.assert_matches_oracle(I.reorder(list(perm)))

    def test_mixed_degree_facet_ideals_in_all_orders(self):
        # Squarefree generators of degrees 2 and 3: on support masks a
        # 2-element facet can divide a tail's lcm that no single 3-element
        # facet holds, and a 3-element facet must not pass on a 2-element
        # overlap.
        ring = VariableSet(("a", "b", "c", "d", "e", "f"))
        for gens in (
            ["a*b", "b*c*d", "d*e", "a*e*f", "c*f"],
            ["a*b*c", "c*d", "b*d*e", "e*f", "a*c*f"],
        ):
            I = MonomialIdeal.from_strings(ring, gens)
            assert I.is_squarefree()
            for perm in permutations(range(5)):
                self.assert_matches_oracle(I.reorder(list(perm)))

    def test_pruned_ideals_in_all_orders(self):
        # prune_ideal leaves a ring with deactivated variables, which no
        # generator mask gives a bit.
        ring = VariableSet(("a", "b", "c", "d", "e", "f", "g"))
        facets = MonomialIdeal.from_strings(ring, ["a*b", "b*c*d", "d*e", "a*e*f", "c*f", "f*g"])
        cycle = edge_ideal(build_family("C7"))
        for I in (prune_ideal(facets, ["g"]), prune_ideal(cycle, ["v1"])):
            assert not all(I.ring.active) and len(I.generators) == 5
            for perm in permutations(range(5)):
                self.assert_matches_oracle(I.reorder(list(perm)))

    def test_cubes_in_all_orders(self):
        # Exponents up to 3: the unary fields of x and y are three bits wide,
        # and x^2*y must divide a tail's lcm only where that lcm holds x^2.
        I = MonomialIdeal.from_strings(
            VariableSet(("x", "y", "z")), ["x^3", "x^2*y", "x*y^2*z", "y^3", "x*z^2"]
        )
        for perm in permutations(range(5)):
            self.assert_matches_oracle(I.reorder(list(perm)))


class TestLyubeznikResolution:
    def test_entry_exact_frozen_matrices(self, whisker_ideal):
        F = lyubeznik_resolution(whisker_ideal)
        assert F.ranks() == (1, 5, 6, 2)
        assert [l.tag[1:] for l in F.labels(2)] == [
            (0, 1),
            (0, 2),
            (0, 3),
            (0, 4),
            (1, 3),
            (2, 4),
        ]
        assert [l.tag[1:] for l in F.labels(3)] == [(0, 1, 3), (0, 2, 4)]
        assert matrix_strings(F, 1) == EXPECTED_D1
        assert matrix_strings(F, 2) == EXPECTED_D2
        assert matrix_strings(F, 3) == EXPECTED_D3

    def test_is_minimal_resolution(self, whisker_ideal):
        F = lyubeznik_resolution(whisker_ideal)
        assert F.is_minimal()
        ok, _ = F.is_resolution_of(whisker_ideal)
        assert ok

    def test_other_orders_not_minimal(self, whisker_ideal):
        for order in (
            ["x*z", "y*z", "x*x1", "x*y", "y*y1"],
            ["y*z", "x*z", "x*x1", "x*y", "y*y1"],
        ):
            F = lyubeznik_resolution(whisker_ideal.reorder(order))
            assert F.ranks() == (1, 5, 8, 5, 1)
            assert not F.is_minimal()
            ok, _ = F.is_resolution_of(whisker_ideal)
            assert ok

    def test_all_120_orders(self, whisker_ideal):
        # Rank profile of the Lyubeznik resolution over every generator
        # order.  Exactly the 24 orders with xy least reach the minimal
        # resolution; no order cancels more than those 9 Taylor pairs.
        by_ranks = {}
        for perm in permutations(range(5)):
            F = lyubeznik_resolution(whisker_ideal.reorder(perm))
            by_ranks.setdefault(F.ranks(), []).append(perm)
        counts = {r: len(p) for r, p in by_ranks.items()}
        assert counts == {
            (1, 5, 6, 2): 24,
            (1, 5, 8, 5, 1): 56,
            (1, 5, 7, 3): 16,
            (1, 5, 9, 7, 2): 24,
        }
        assert all(perm[0] == 0 for perm in by_ranks[(1, 5, 6, 2)])
        taylor_total = 2**5
        for ranks, perms in by_ranks.items():
            drops = (taylor_total - sum(ranks)) // 2
            assert drops <= 9
            assert (drops == 9) == (ranks == (1, 5, 6, 2))


class TestMorseReduce:
    def test_reduction_equals_subcomplex(self, whisker_ideal, corpus):
        for I in [whisker_ideal] + corpus[:8]:
            T = taylor_resolution(I)
            reduced = morse_reduce(T, lyubeznik_matching(I))
            direct = lyubeznik_resolution(I)
            assert reduced.ranks() == direct.ranks()
            ok, scaling = equal_up_to_basis_scaling(reduced, direct)
            assert ok, (I, scaling)

    def test_reduction_entry_exact_on_example(self, whisker_ideal):
        T = taylor_resolution(whisker_ideal)
        reduced = morse_reduce(T, lyubeznik_matching(whisker_ideal))
        assert complexes_equal(reduced, lyubeznik_resolution(whisker_ideal))

    def test_reduction_preserves_betti(self, whisker_ideal):
        T = taylor_resolution(whisker_ideal)
        reduced = morse_reduce(T, lyubeznik_matching(whisker_ideal))
        assert graded_betti(reduced) == graded_betti(T)
        ok, _ = reduced.is_resolution_of(whisker_ideal)
        assert ok

    def test_empty_matching_is_identity(self, whisker_ideal):
        T = taylor_resolution(whisker_ideal)
        assert complexes_equal(morse_reduce(T, ()), T)


class TestValidateMatching:
    def test_arc_not_in_graph(self, whisker_ideal):
        g = taylor_graph(whisker_ideal)
        report = validate_matching(g, [((0, 1, 3), (0, 1))])
        assert not report["ok"]
        assert report["not_in_graph"] == [((0, 1, 3), (0, 1))]

    def test_incident_arcs_rejected(self, whisker_ideal):
        g = taylor_graph(whisker_ideal)
        # both arcs hit the target {1, 4}
        report = validate_matching(
            g, [((0, 1, 4), (1, 4)), ((1, 2, 4), (1, 4))]
        )
        assert not report["ok"]
        assert report["incident"]

    def test_cyclic_matching_rejected(self):
        # all pairwise lcms equal xyzw, so every drop is an arc; the three
        # matched arcs below close an alternating directed cycle
        ring = VariableSet(("x", "y", "z", "w"))
        I = MonomialIdeal.from_strings(ring, ["x*y*w", "y*z*w", "x*z*w", "x*y*z"])
        g = taylor_graph(I)
        matching = [
            ((0, 1, 2), (0, 2)),
            ((0, 2, 3), (0, 3)),
            ((0, 1, 3), (0, 1)),
        ]
        report = validate_matching(g, matching)
        assert not report["not_in_graph"]
        assert not report["incident"]
        assert not report["acyclic"]
        assert not report["ok"]
        with pytest.raises(MorseError, match="^stuck: no matched pair") as exc:
            morse_reduce(taylor_resolution(I), matching)
        # (012, 02) and (013, 01) are cancelled first; they cancel the entry
        # of d(e023) on e03 to 0
        assert exc.value.witness == [
            {"gen": [[0, 2, 3], [0, 3]], "pivot": ["e", 0, 3], "entry": "0"}
        ]


def consecutive_cycle_ideal(n: int) -> MonomialIdeal:
    """The edge ideal of C_n with its generators in cycle order, the order of
    `classify.C4_MATCHING` and `classify.C5_MATCHING`."""
    order = [f"v{i}*v{i + 1}" for i in range(1, n)] + [f"v1*v{n}"]
    return edge_ideal(build_family(f"C{n}")).reorder(order)


def trees_of_diameter_3():
    for n in range(4, 8):
        for T in nx.nonisomorphic_trees(n):
            g = Graph.build([f"v{i}" for i in sorted(T.nodes())], [(f"v{a}", f"v{b}") for a, b in T.edges()])
            if graph_diameter(g) == 3:
                yield g


# one arc of C4's Taylor graph (default generator order): a valid matching
# whose span is closed under d but is not a dg ideal
C4_ARC = [((0, 2, 3), (0, 3))]


class TestMatchingQuotient:
    """`morse.matching_quotient`, the one construction of T/J for a matching."""

    def test_arcs_not_in_the_graph(self):
        # C5's matching is for the cycle order, not the default one
        ideal = edge_ideal(build_family("C5"))
        with pytest.raises(MorseError, match="^matching is not a valid Morse matching") as exc:
            matching_quotient(ideal, C5_MATCHING)
        assert exc.value.witness == validate_matching(taylor_graph(ideal), C5_MATCHING)
        assert not exc.value.witness["ok"] and exc.value.witness["not_in_graph"]

    def test_span_that_is_not_a_dg_ideal(self):
        ideal = edge_ideal(build_family("C4"))
        assert validate_matching(taylor_graph(ideal), C4_ARC)["ok"]
        with pytest.raises(DGIdealError, match=r"^span is not a dg ideal: 5 product\(s\) e_u \* g outside it$") as exc:
            matching_quotient(ideal, C4_ARC)
        dgT = taylor_dg_structure(ideal)
        ok, closure = dg_ideal_closure(dgT, matching_span(dgT.complex, C4_ARC)[0])
        assert not ok and len(closure["failures"]) == 5
        assert exc.value.witness == closure["failures"]
        assert exc.value.checked == len(closure["products"])

    @pytest.mark.parametrize("n", [4, 5])
    def test_cycle_matchings_count_as_their_certificates(self, n):
        matching = C4_MATCHING if n == 4 else C5_MATCHING
        ideal = consecutive_cycle_ideal(n)
        val, q = matching_quotient(ideal, matching)
        evidence = classify(cycle_graph(n)).evidence
        assert evidence["kind"] == "morse-quotient"
        assert q.closure_products_checked == evidence["closure_products_checked"]
        assert val == evidence["matching_valid"]
        dgT = taylor_dg_structure(ideal)
        ok, closure = dg_ideal_closure(dgT, matching_span(dgT.complex, matching)[0])
        assert ok and q.closure_products_checked == len(closure["products"])
        # every matched cell is a pivot, so the critical cells survive
        matched = {("e",) + tuple(V) for arc in matching for V in arc}
        critical = {l.tag for l in dgT.degree if l.tag not in matched}
        assert {l.tag for l in q.structure.degree} == critical

    def test_diameter_3_lyubeznik_matchings_count_as_their_certificates(self):
        seen = 0
        for g in trees_of_diameter_3():
            evidence = classify(g).evidence
            assert evidence["kind"] == "lyubeznik-quotient"
            ordered = edge_ideal(g).reorder(evidence["generator_order"])
            q = matching_quotient(ordered, lyubeznik_matching(ordered))[1]
            assert q.closure_products_checked == evidence["closure_products_checked"]
            assert list(q.structure.complex.ranks()) == evidence["quotient_ranks"]
            seen += 1
        assert seen == 6

    def test_lyubeznik_quotient_keeps_the_critical_cells(self):
        # C6's Lyubeznik matching: not minimal, and its quotient keeps exactly
        # the Lyubeznik survivors as `morse_reduce` does
        ideal = edge_ideal(build_family("C6"))
        q = matching_quotient(ideal, lyubeznik_matching(ideal))[1]
        critical = {("e",) + U for cells in lyubeznik_critical(ideal).values() for U in cells}
        assert {l.tag for l in q.structure.degree} == critical
        assert {l.tag for l in morse_reduce(taylor_resolution(ideal), lyubeznik_matching(ideal)).degree} == critical

    def test_prune_dg_refuses_a_span_that_is_not_a_dg_ideal(self, monkeypatch):
        monkeypatch.setattr(prune, "lyubeznik_matching", lambda ideal: C4_ARC)
        with pytest.raises(DGIdealError, match=r"^span is not a dg ideal: 5 product\(s\) e_u \* g outside it$"):
            prune_dg(edge_ideal(build_family("C4")), ("v1",))


def test_quotient_dg_refuses_a_span_that_is_not_a_dg_ideal():
    # C4's single arc: J is closed under d, so only the product check refuses
    # it; the refusal lists exactly `dg_ideal_closure`'s failures
    dgT = taylor_dg_structure(edge_ideal(build_family("C4")))
    span, prefer = matching_span(dgT.complex, C4_ARC)
    ok, closure = dg_ideal_closure(dgT, span)
    assert not ok and closure["boundary_closed"] and len(closure["failures"]) == 5
    with pytest.raises(DGIdealError, match=r"^span is not a dg ideal: 5 product\(s\) e_u \* g outside it$") as exc:
        quotient_dg(dgT, span, prefer_eliminate=prefer)
    assert exc.value.witness == closure["failures"]
    assert exc.value.checked == len(closure["products"]) == 5


def test_quotient_dg_refuses_a_span_not_closed_under_d():
    # e_{0,1} and e_{2,3} alone in C4's Taylor algebra: neither boundary lies
    # in their span, so the boundary check refuses it, before any product,
    # and the refusal is printed as decided
    dgT = taylor_dg_structure(edge_ideal(build_family("C4")))
    cx = dgT.complex
    gens = [SpanGenerator(tag, Element.basis(cx, cx.find_label(tag))) for tag in (("e", 0, 1), ("e", 2, 3))]
    refused = r"^span is not closed under the differential at generator \('e', 0, 1\)$"
    with pytest.raises(DGIdealError, match=refused) as exc:
        quotient_dg(dgT, SubmoduleSpan(cx, gens))
    assert exc.value.witness == [
        {"gen": ["e", 0, 1], "boundary": "(-v4)*(e,0)[v1*v2] + (v2)*(e,1)[v1*v4]"},
        {"gen": ["e", 2, 3], "boundary": "(-v4)*(e,2)[v2*v3] + (v2)*(e,3)[v3*v4]"},
    ]
    assert exc.value.checked == 0
    assert _refused_span(exc.value) == {
        "ideal_closed": False,
        "closure": {"boundary_closed": False, "failures": exc.value.witness, "ok": False},
    }
