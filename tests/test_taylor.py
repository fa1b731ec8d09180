"""Taylor complexes: a frozen hand-checked fixture, sign and product
oracles via brute-force inversion counting, and the minimality boundary on
tree edge ideals."""

from fractions import Fraction
from itertools import combinations

import networkx as nx
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dgres import (
    ComplexError,
    Element,
    Graph,
    MonomialIdeal,
    PolyError,
    VariableSet,
    edge_ideal,
    graph_diameter,
    lcm_of,
    taylor_dg_structure,
    taylor_resolution,
)
from dgres.poly import monomial_divide
from dgres.taylor import below_mask, index_mask, mask_sign, taylor_complex

from reference_poly import column, coords, matrix, single_term

RING4 = VariableSet(("x", "y", "z", "w"))


def ideal(ring, *gens):
    return MonomialIdeal.from_strings(ring, list(gens))


def matrix_strings(F, i):
    return [[str(p) for p in row] for row in matrix(F, i)]


# Hand-computed differentials of the Taylor complex of (xw, yz, xz, xy) in
# the given generator order.  Rows and columns follow the lexicographic
# subset order used by the basis: pairs {01},{02},{03},{12},{13},{23},
# triples {012},{013},{023},{123}.
FIXTURE_D1 = [["x*w", "y*z", "x*z", "x*y"]]
FIXTURE_D2 = [
    ["-y*z", "-z", "-y", "0", "0", "0"],
    ["x*w", "0", "0", "-x", "-x", "0"],
    ["0", "w", "0", "y", "0", "-y"],
    ["0", "0", "w", "0", "z", "z"],
]
FIXTURE_D3 = [
    ["1", "1", "0", "0"],
    ["-y", "0", "y", "0"],
    ["0", "-z", "-z", "0"],
    ["w", "0", "0", "1"],
    ["0", "w", "0", "-1"],
    ["0", "0", "w", "1"],
]
FIXTURE_D4 = [["-1"], ["1"], ["-1"], ["w"]]


@pytest.fixture(scope="module")
def fixture_complex(taylor_fixture_ideal):
    return taylor_resolution(taylor_fixture_ideal)


class TestFixture:
    def test_ranks_and_label_order(self, fixture_complex):
        F = fixture_complex
        assert F.ranks() == (1, 4, 6, 4, 1)
        assert [l.tag for l in F.labels(2)] == [
            ("e", 0, 1),
            ("e", 0, 2),
            ("e", 0, 3),
            ("e", 1, 2),
            ("e", 1, 3),
            ("e", 2, 3),
        ]
        assert [str(l.multidegree) for l in F.labels(2)] == [
            "x*y*z*w",
            "x*z*w",
            "x*y*w",
            "x*y*z",
            "x*y*z",
            "x*y*z",
        ]

    def test_differentials_entry_exact(self, fixture_complex):
        F = fixture_complex
        assert matrix_strings(F, 1) == FIXTURE_D1
        assert matrix_strings(F, 2) == FIXTURE_D2
        assert matrix_strings(F, 3) == FIXTURE_D3
        assert matrix_strings(F, 4) == FIXTURE_D4

    def test_is_resolution_but_not_minimal(self, fixture_complex, taylor_fixture_ideal):
        F = fixture_complex
        assert F.verify().ok
        ok, _ = F.is_resolution_of(taylor_fixture_ideal)
        assert ok
        assert not F.is_minimal()

    def test_reorder_permutes_columns(self, taylor_fixture_ideal):
        # taking the generators in a different order relabels the basis
        G = taylor_resolution(taylor_fixture_ideal.reorder([3, 2, 1, 0]))
        assert [str(l.multidegree) for l in G.labels(1)] == [
            "x*y",
            "x*z",
            "y*z",
            "x*w",
        ]
        by_strings = taylor_resolution(
            taylor_fixture_ideal.reorder(["x*y", "x*z", "y*z", "x*w"])
        )
        assert [l.multidegree for l in G.labels(1)] == [
            l.multidegree for l in by_strings.labels(1)
        ]


def brute_sign(V, W) -> int:
    """Oracle: parity of the permutation sorting the concatenation V ++ W."""
    seq = list(V) + list(W)
    inversions = sum(
        1
        for i in range(len(seq))
        for j in range(i + 1, len(seq))
        if seq[i] > seq[j]
    )
    return -1 if inversions % 2 else 1


disjoint_pairs = st.tuples(
    st.sets(st.integers(min_value=0, max_value=9), max_size=6),
    st.sets(st.integers(min_value=0, max_value=9), max_size=6),
).map(lambda vw: (tuple(sorted(vw[0] - vw[1])), tuple(sorted(vw[1] - vw[0]))))


def sign_of(V, W) -> int:
    """`taylor.mask_sign` on the bitmasks of the index tuples V and W."""
    return mask_sign(index_mask(V), below_mask(index_mask(W)))


class TestSign:
    @given(disjoint_pairs)
    def test_matches_inversion_oracle(self, vw):
        V, W = vw
        # V and W are each sorted, so all inversions of V ++ W are cross pairs
        assert sign_of(V, W) == brute_sign(V, W)

    @given(disjoint_pairs)
    def test_koszul_symmetry(self, vw):
        V, W = vw
        sign = -1 if (len(V) * len(W)) % 2 else 1
        assert sign_of(V, W) * sign_of(W, V) == sign

    def test_specific_values(self):
        assert sign_of((0,), (1,)) == 1
        assert sign_of((1,), (0,)) == -1
        assert sign_of((0, 2), (1,)) == -1
        assert sign_of((), (0, 1, 2)) == 1


class TestDifferential:
    def test_sign_and_coefficient_oracle(self, corpus):
        # recompute every differential entry from the set-level formula
        for I in corpus[:8]:
            F = taylor_resolution(I)
            t = len(I.generators)
            for size in range(1, t + 1):
                for idx in combinations(range(t), size):
                    col_label = F.find_label(("e",) + idx)
                    col = column(F, size, col_label)
                    seen = {}
                    for pos, u in enumerate(idx):
                        rest = idx[:pos] + idx[pos + 1 :]
                        m_idx = lcm_of((I.generators[i] for i in idx), I.ring)
                        m_rest = lcm_of((I.generators[i] for i in rest), I.ring)
                        sign = -1 if sum(1 for v in idx if v < u) % 2 else 1
                        seen[("e",) + rest] = (
                            monomial_divide(m_idx, m_rest),
                            Fraction(sign),
                        )
                    got = {
                        r.tag: single_term(p) for r, p in col.items() if not p.is_zero()
                    }
                    assert got == seen

    def test_d_squared_zero(self, corpus):
        for I in corpus[:8]:
            assert taylor_resolution(I).verify().ok

    def test_missing_facet_is_named(self, taylor_fixture_ideal):
        # the one structural check the stored-form writer keeps: every
        # facet of a face must be listed before it
        faces = [(), (0,), (1,), (2,), (0, 1), (0, 2), (0, 1, 2)]
        with pytest.raises(ComplexError, match=r"face \[1, 2\] is missing"):
            taylor_complex(taylor_fixture_ideal, faces, "partial")
        F = taylor_complex(taylor_fixture_ideal, faces[:-1] + [(1, 2), (0, 1, 2)], "closed")
        assert F.ranks() == (1, 3, 3, 1) and F.verify().ok


class TestProduct:
    def test_unit(self, fixture_complex, taylor_fixture_ideal):
        F = fixture_complex
        dg = taylor_dg_structure(taylor_fixture_ideal)
        unit = F.find_label(("e",))
        for i in F.degrees():
            for lbl in F.labels(i):
                prod = coords(dg.basis_product(unit, lbl))
                assert prod == {lbl: prod[lbl]} and str(prod[lbl]) == "1"

    def test_intersecting_sets_vanish(self, fixture_complex, taylor_fixture_ideal):
        F = fixture_complex
        a = F.find_label(("e", 0, 1))
        b = F.find_label(("e", 1, 2))
        assert coords(taylor_dg_structure(taylor_fixture_ideal).basis_product(a, b)) == {}

    def test_coefficient_oracle(self, corpus):
        for I in corpus[:6]:
            dg = taylor_dg_structure(I)
            F = dg.complex
            t = len(I.generators)
            subsets = [
                idx for size in range(t + 1) for idx in combinations(range(t), size)
            ]
            for V in subsets:
                for W in subsets:
                    a = F.find_label(("e",) + V)
                    b = F.find_label(("e",) + W)
                    prod = coords(dg.basis_product(a, b))
                    if set(V) & set(W):
                        assert prod == {}
                        continue
                    union = tuple(sorted(set(V) | set(W)))
                    (lbl, p), = prod.items()
                    assert lbl.tag == ("e",) + union
                    mono, coeff = single_term(p)
                    m_v = lcm_of((I.generators[i] for i in V), I.ring)
                    m_w = lcm_of((I.generators[i] for i in W), I.ring)
                    m_u = lcm_of((I.generators[i] for i in union), I.ring)
                    assert mono == monomial_divide(m_v * m_w, m_u)
                    assert coeff == brute_sign(V, W)

    def test_graded_commutativity_sample(self, fixture_complex, taylor_fixture_ideal):
        F = fixture_complex
        dg = taylor_dg_structure(taylor_fixture_ideal)
        labels = [l for i in F.degrees() for l in F.labels(i)]
        for a in labels:
            for b in labels:
                ab = coords(dg.basis_product(a, b))
                ba = coords(dg.basis_product(b, a))
                sign = -1 if (F.degree_of(a) * F.degree_of(b)) % 2 else 1
                assert ab == {l: p * sign for l, p in ba.items()}

    def test_structure_product_degrees(self, taylor_fixture_ideal):
        dg = taylor_dg_structure(taylor_fixture_ideal)
        F = dg.complex
        a = F.find_label(("e", 0))
        b = F.find_label(("e", 1, 2))
        prod = dg.basis_product(a, b)
        assert isinstance(prod, Element)
        assert prod.degree == 3
        (lbl,) = coords(prod)
        assert lbl.tag == ("e", 0, 1, 2)

    def test_leibniz_spot_check(self, taylor_fixture_ideal):
        dg = taylor_dg_structure(taylor_fixture_ideal)
        F = dg.complex
        a = Element.basis(F, F.find_label(("e", 0, 1)))
        b = Element.basis(F, F.find_label(("e", 2, 3)))
        lhs = dg.multiply(a, b).diff()
        rhs = dg.multiply(a.diff(), b) + dg.multiply(a, b.diff())
        assert (lhs - rhs).is_zero()


class TestMinimalityBoundary:
    def test_trees_minimal_iff_diameter_at_most_two(self):
        for n in range(2, 8):
            for g in nx.nonisomorphic_trees(n):
                names = {v: f"v{v}" for v in sorted(g.nodes)}
                graph = Graph.build(
                    [names[v] for v in sorted(g.nodes)],
                    [(names[a], names[b]) for a, b in g.edges],
                )
                I = edge_ideal(graph)
                F = taylor_resolution(I)
                assert F.is_minimal() == (graph_diameter(graph) <= 2), graph

    def test_too_many_generators_rejected(self):
        names = tuple(f"x{i}" for i in range(130))
        ring = VariableSet(names)
        gens = [f"x{2 * i}*x{2 * i + 1}" for i in range(64)]
        with pytest.raises(PolyError):
            taylor_resolution(MonomialIdeal.from_strings(ring, gens))
