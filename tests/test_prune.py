"""Pruning of resolutions (Boocher) and descent of dg structures along it.

The worked example is I = (xy, yz1, xz1, xx1, yy1) in k[x, y, x1, y1, z1]
(two triangles x-y-z1 glued along x-y, plus whiskers x-x1 and y-y1), whose
minimal resolution has ranks (1, 5, 6, 2).  Pruning the variable y1 must
produce, stage by stage, the exact matrices recorded here, ending in the
minimal resolution (1, 4, 4, 1) of (xy, yz1, xz1, xx1).
"""

import networkx as nx
import pytest

from dgres import (
    Graph,
    build_cone_resolution,
    build_family,
    complexes_equal,
    dg_check,
    edge_ideal,
    lyubeznik_matching,
    lyubeznik_resolution,
    prune_complex,
    prune_dg,
    prune_ideal,
    span_from_matching_sources,
    taylor_dg_structure,
    taylor_resolution,
    total_betti,
)
from dgres.classify import C4_MATCHING, C5_MATCHING, _cycle_consecutive_ideal, _d3_order
from dgres.combin import _tree_path
from dgres.dg import dg_ideal_closure
from dgres.morse import matching_quotient
from dgres.prune import descend

from reference_elimination import descent_elimination
from reference_poly import matrix


def matrix_strings(F, i):
    return [[str(p) for p in row] for row in matrix(F, i)]


SURVIVOR_PAIRS = [(0, 1), (0, 2), (0, 3), (0, 4), (1, 4), (2, 3)]
SURVIVOR_TRIPLES = [(0, 1, 4), (0, 2, 3)]

# stage trace for pruning y1 out of the minimal resolution
Y1_STAGES = [
    {
        "degree": 1,
        "deleted": [["e", 4]],
        "matrix": [["x*y", "y*z1", "x*z1", "x*x1"]],
        "next_matrix": [
            ["-z1", "-z1", "-x1", "-y1", "0", "0"],
            ["x", "0", "0", "0", "-y1", "0"],
            ["0", "y", "0", "0", "0", "-x1"],
            ["0", "0", "y", "0", "0", "z1"],
        ],
    },
    {
        "degree": 2,
        "deleted": [["e", 0, 4], ["e", 1, 4]],
        "matrix": [
            ["-z1", "-z1", "-x1", "0"],
            ["x", "0", "0", "0"],
            ["0", "y", "0", "-x1"],
            ["0", "0", "y", "z1"],
        ],
        # A_3 after the row deletion but before substitution: the y1 entry
        # in the first column is still visible here
        "next_matrix": [["y1", "0"], ["0", "x1"], ["0", "-z1"], ["0", "y"]],
    },
    {
        "degree": 3,
        "deleted": [["e", 0, 1, 4]],
        "matrix": [["0"], ["x1"], ["-z1"], ["y"]],
        "next_matrix": [[]],
    },
]

# stage trace for pruning z1 instead
Z1_STAGES = [
    {
        "degree": 1,
        "deleted": [["e", 1], ["e", 2]],
        "matrix": [["x*y", "x*x1", "y*y1"]],
        "next_matrix": [
            ["-z1", "-z1", "-x1", "-y1", "0", "0"],
            ["0", "0", "y", "0", "0", "z1"],
            ["0", "0", "0", "x", "z1", "0"],
        ],
    },
    {
        "degree": 2,
        "deleted": [["e", 0, 1], ["e", 0, 2], ["e", 1, 4], ["e", 2, 3]],
        "matrix": [["-x1", "-y1"], ["y", "0"], ["0", "x"]],
        "next_matrix": [["0", "-z1"], ["-z1", "0"]],
    },
    {
        "degree": 3,
        "deleted": [["e", 0, 1, 4], ["e", 0, 2, 3]],
        "matrix": [[], []],
        "next_matrix": [],
    },
]


@pytest.fixture(scope="module")
def minres(two_triangles_ideal):
    return lyubeznik_resolution(two_triangles_ideal)


class TestInputResolution:
    def test_shape(self, minres):
        assert minres.ranks() == (1, 5, 6, 2)
        assert minres.is_minimal()
        assert [l.tag for l in minres.labels(2)] == [
            ("e",) + p for p in SURVIVOR_PAIRS
        ]
        assert [l.tag for l in minres.labels(3)] == [
            ("e",) + t for t in SURVIVOR_TRIPLES
        ]


class TestPruneComplex:
    def test_y1_stage_trace(self, minres):
        result = prune_complex(minres, ("y1",))
        assert [s.to_json() for s in result.stages] == Y1_STAGES

    def test_y1_final_complex(self, minres, two_triangles_ideal):
        result = prune_complex(minres, ("y1",))
        P = result.pruned
        assert P.ranks() == (1, 4, 4, 1)
        assert result.report.ok
        assert P.is_minimal()
        assert matrix_strings(P, 3) == [["0"], ["x1"], ["-z1"], ["y"]]
        small = prune_ideal(two_triangles_ideal, ("y1",))
        ok, report = P.is_resolution_of(small)
        assert ok, report

    def test_z1_stage_trace(self, minres):
        result = prune_complex(minres, ("z1",))
        assert [s.to_json() for s in result.stages] == Z1_STAGES

    def test_z1_final_complex(self, minres, two_triangles_ideal):
        result = prune_complex(minres, ("z1",))
        P = result.pruned
        assert P.ranks() == (1, 3, 2)
        assert matrix_strings(P, 2) == [["-x1", "-y1"], ["y", "0"], ["0", "x"]]
        assert P.is_minimal()
        ok, _ = P.is_resolution_of(prune_ideal(two_triangles_ideal, ("z1",)))
        assert ok

    def test_pruned_betti_matches_small_ideal(self, minres, two_triangles_ideal):
        # independent oracle: minimal Betti numbers of the pruned ideal
        # computed from its own Taylor resolution
        for z in ("y1", "z1", "x1"):
            P = prune_complex(minres, (z,)).pruned
            small = prune_ideal(two_triangles_ideal, (z,))
            assert total_betti(P) == total_betti(taylor_resolution(small))

    def test_taylor_prunes_to_taylor(self, two_triangles_ideal):
        # on the full Taylor complex, pruning deletes exactly the labels
        # meeting a Z-divisible generator and leaves the rest untouched
        T = taylor_resolution(two_triangles_ideal)
        result = prune_complex(T, ("y1",))
        small = prune_ideal(two_triangles_ideal, ("y1",))
        assert complexes_equal(result.pruned, taylor_resolution(small))

    def test_empty_variable_set_is_identity(self, minres):
        result = prune_complex(minres, ())
        assert result.pruned.ranks() == minres.ranks()
        assert not any(s.deleted for s in result.stages)

    def test_to_json_shape(self, minres):
        j = prune_complex(minres, ("y1",)).to_json()
        assert set(j) == {"stages", "pruned", "report"}
        assert [s["degree"] for s in j["stages"]] == [1, 2, 3]


class TestPruneIdeal:
    def test_generators_and_ring(self, two_triangles_ideal):
        small = prune_ideal(two_triangles_ideal, ("y1",))
        assert [str(g) for g in small.generators] == [
            "x*y",
            "y*z1",
            "x*z1",
            "x*x1",
        ]
        assert small.ring.active == (True, True, True, False, True)
        small2 = prune_ideal(two_triangles_ideal, ("z1",))
        assert [str(g) for g in small2.generators] == ["x*y", "x*x1", "y*y1"]

    def test_principal_span_is_dg_ideal_of_taylor(self, two_triangles_ideal):
        # I_Z for Z = {y1}: y1 divides only the generator y*y1, index 4, so
        # I_Z is spanned by e_V and d(e_V) over the 16 V that contain 4
        dgT = taylor_dg_structure(two_triangles_ideal)
        subsets = [
            (4,), (0, 4), (1, 4), (2, 4), (3, 4),
            (0, 1, 4), (0, 2, 4), (0, 3, 4), (1, 2, 4), (1, 3, 4), (2, 3, 4),
            (0, 1, 2, 4), (0, 1, 3, 4), (0, 2, 3, 4), (1, 2, 3, 4), (0, 1, 2, 3, 4),
        ]
        span = span_from_matching_sources(dgT.complex, subsets)
        ok, detail = dg_ideal_closure(dgT, span)
        assert ok, detail["failures"]


class TestPruneDG:
    def test_y1_descent(self, two_triangles_ideal):
        result = prune_dg(two_triangles_ideal, ("y1",))
        assert result.matches_boocher
        P = result.descended.complex
        assert P.ranks() == (1, 4, 4, 1)
        assert P.is_minimal()
        ok, _ = P.is_resolution_of(result.pruned_ideal)
        assert ok
        report = dg_check(result.descended)
        assert report.ok, report.to_json()

    def test_z1_descent(self, two_triangles_ideal):
        result = prune_dg(two_triangles_ideal, ("z1",))
        assert result.matches_boocher
        P = result.descended.complex
        assert P.ranks() == (1, 3, 2)
        assert dg_check(result.descended).ok

    def test_intermediate_quotient_is_minimal_resolution(
        self, two_triangles_ideal, minres
    ):
        result = prune_dg(two_triangles_ideal, ("y1",))
        F = result.resolution_quotient.structure.complex
        assert complexes_equal(F, minres)

    def test_corpus_sample(self, corpus):
        # every squarefree ideal with an eligible variable: descent agrees
        # with direct pruning and the quotient still satisfies the axioms
        checked = 0
        for ideal in corpus[:6]:
            names = [
                n
                for n, active in zip(ideal.ring.names, ideal.ring.active)
                if active
            ]
            z = next(
                (
                    n
                    for n in names
                    if any(ideal.ring.variable(n).divides(g) for g in ideal.generators)
                    and prune_ideal(ideal, (n,)).generators
                ),
                None,
            )
            if z is None:
                continue
            result = prune_dg(ideal, (z,))
            assert result.matches_boocher, (str(ideal), z)
            assert dg_check(result.descended).ok
            checked += 1
        assert checked >= 4


def certified_structures():
    """(name, ideal, structure) for the structure each certificate checks,
    on every tree with 3 to 8 vertices and on C3, C4 and C5: the Taylor
    algebra for diameter <= 2, the Lyubeznik quotient in central-edge-first
    order for diameter 3, the cone for diameter 4, the Lyubeznik quotient
    of C3 and the C4/C5 Morse quotients, each cycle's generators in cycle
    order."""
    for n in range(3, 9):
        for T in nx.nonisomorphic_trees(n):
            g = Graph.build([f"v{i}" for i in sorted(T.nodes())], [(f"v{a}", f"v{b}") for a, b in T.edges()])
            path, I = _tree_path(g), edge_ideal(g)
            d = len(path) - 1
            if d <= 2:
                yield "taylor", I, taylor_dg_structure(I)
            elif d == 3:
                ordered = I.reorder(_d3_order(path, I))
                yield "lyubeznik", ordered, matching_quotient(ordered, lyubeznik_matching(ordered))[1].structure
            elif d == 4:
                yield "cone", I, build_cone_resolution(g).dg
    for fam, matching in (("C3", None), ("C4", C4_MATCHING), ("C5", C5_MATCHING)):
        g = build_family(fam)
        I = _cycle_consecutive_ideal(g, edge_ideal(g))
        yield fam, I, matching_quotient(I, matching or lyubeznik_matching(I))[1].structure


class TestDescend:
    def test_every_certified_structure_by_each_vertex(self):
        """P(F, z) with F's products is Boocher's pruning of F, minimal,
        a resolution of the pruned ideal, and a dg algebra (the paper's
        first theorem, on each certified minimal structure)."""
        kinds = {}
        for kind, I, F in certified_structures():
            for z in I.ring.names:
                P = descend(F, (z,))
                assert complexes_equal(P.complex, prune_complex(F.complex, (z,)).pruned), (kind, str(I), z)
                assert P.complex.is_minimal(), (kind, str(I), z)
                assert P.complex.is_resolution_of(prune_ideal(I, (z,)))[0], (kind, str(I), z)
                assert dg_check(P).ok, (kind, str(I), z)
                kinds[kind] = kinds.get(kind, 0) + 1
        assert kinds == {"taylor": 33, "lyubeznik": 59, "cone": 116, "C3": 3, "C4": 4, "C5": 5}

    @pytest.mark.parametrize(
        "ideal, znames",
        [("two_triangles", ["y1", "z1"])] + [(fam, None) for fam in ("P5", "C4")],
    )
    def test_equals_the_quotient_by_the_image_of_i_z(self, ideal, znames, two_triangles_ideal):
        """F / im(I_Z) tensor Q/(Z), built by the reference elimination, is
        `descend`'s complex, for F the Lyubeznik quotient."""
        I = two_triangles_ideal if ideal == "two_triangles" else edge_ideal(build_family(ideal))
        dgT, matching = taylor_dg_structure(I), lyubeznik_matching(I)
        F = matching_quotient(I, matching)[1].structure
        for z in znames or I.ring.names:
            _, to_P = descent_elimination(dgT, matching, (z,))
            assert complexes_equal(to_P.quotient("P")[0], descend(F, (z,)).complex), (ideal, z)
