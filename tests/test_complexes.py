"""Labeled free complexes: construction checks (an inhomogeneous entry is
refused where it is stored), d^2 verification, strand homology, chain
maps, mapping cones, tensor products, and Betti numbers, all cross-checked
against Koszul-complex oracles and hand-built counterexamples."""

import inspect
import json
import re
from fractions import Fraction
from itertools import combinations, product

import pytest

from dgres import (
    BasisLabel,
    ChainMap,
    ComplexError,
    DGError,
    LabeledFreeComplex,
    Monomial,
    MonomialIdeal,
    PolyError,
    VariableSet,
    build_cone_resolution,
    build_family,
    complexes_equal,
    desuspend_truncation,
    edge_ideal,
    graded_betti,
    lyubeznik_matching,
    lyubeznik_resolution,
    mapping_cone,
    morse_reduce,
    multiplication_map,
    parse_monomial,
    path_graph,
    prune_complex,
    prune_dg,
    prune_ideal,
    quotient_dg,
    span_from_matching_sources,
    squarefree_monomials,
    taylor_dg_structure,
    taylor_resolution,
    total_betti,
)
from dgres import linalg
from dgres.classify import C5_MATCHING
from dgres.complexes import entry_str
from dgres.dg import DGStructure, Elimination, ScalarProduct
from dgres.diam4 import build_psi
from dgres.morse import matching_sources
from dgres.poly import exact, lcm_of
from dgres.strands import StrandIndex, rank_mod2

from dense_linalg import rref
from reference_complexes import equal_up_to_basis_scaling, strand_homology, strand_labels, tensor_complex
from reference_element import apply_diff
from reference_poly import (
    column,
    complex_from_json,
    complex_of,
    constant,
    entry,
    entry_polynomial,
    eval_ones,
    is_monomial_multiple,
    parse_polynomial,
    single_term,
)

RING3 = VariableSet(("x", "y", "z"))
RING4 = VariableSet(("x", "y", "z", "w"))


def ideal(ring, *gens):
    return MonomialIdeal.from_strings(ring, list(gens))


def rank_one(ring, tag=("u",)):
    """The complex Q concentrated in degree 0."""
    lbl = BasisLabel(tag, ring.one())
    return LabeledFreeComplex(ring, {0: [lbl]}, {}), lbl


def plain_cone(psi):
    """`mapping_cone` with the target copy tagged ("T", tag), the source copy
    ("S", tag)."""
    return mapping_cone(psi, lambda tag: ("T", tag), lambda tag: ("S", tag), "cone")


def poly(ring, text):
    return parse_polynomial(ring, text)


class TestConstruction:
    def test_duplicate_tags_rejected(self):
        lbl1 = BasisLabel(("a",), RING3.one())
        lbl2 = BasisLabel(("a",), RING3.variable("x"))
        with pytest.raises(ComplexError):
            LabeledFreeComplex(RING3, {0: [lbl1, lbl2]}, {})

    @pytest.mark.parametrize("build", [LabeledFreeComplex, LabeledFreeComplex._from_stored])
    def test_tag_in_two_degrees_rejected(self, build):
        # a tag names one basis element: the same tag with another
        # multidegree in another degree is refused by both constructors
        unit = BasisLabel(("u",), RING3.one())
        a1, a2 = BasisLabel(("a",), RING3.variable("x")), BasisLabel(("a",), parse_monomial(RING3, "x*y"))
        with pytest.raises(ComplexError, match=r"^tag \('a',\) occurs in degree 1 and again in degree 2$"):
            build(RING3, {0: [unit], 1: [a1], 2: [a2]}, {1: {a1: {unit: 1}}})

    def test_find_label_of_a_missing_tag(self):
        F = taylor_resolution(ideal(RING3, "x*y", "y*z"))
        with pytest.raises(ComplexError, match=r"^no label with tag \('e', 0, 1, 2\)$"):
            F.find_label(("e", 0, 1, 2))

    def test_label_with_another_multidegree_is_outside(self):
        # the tag of e0 with another multidegree: not a basis label, so
        # degree_of raises, a structure has no row or table for it and
        # refuses a product written on it, and nothing is computed for it
        F = taylor_resolution(ideal(RING3, "x*y", "y*z"))
        unit, e0 = F.labels(0)[0], F.find_label(("e", 0))
        impostor = BasisLabel(e0.tag, RING3.variable("x"))
        with pytest.raises(ComplexError, match="not in complex"):
            F.degree_of(impostor)
        calls = []

        def product(a, b):
            calls.append((a, b))
            return ScalarProduct({impostor: 1} if (a, b) == (unit, e0) else {})

        dg = DGStructure(F, product)
        for read in (lambda: dg.table(impostor, e0), lambda: dg.table(e0, impostor), lambda: dg.row(impostor)):
            with pytest.raises(DGError, match=r"^\(e,0\)\[x\] is not a basis label of "):
                read()
        assert calls == []
        with pytest.raises(DGError, match=r"^product entry 1 of .* on \(e,0\)\[x\]: not a basis label of degree 1$"):
            dg.table(unit, e0)

    def test_stray_column_rejected(self):
        unit = BasisLabel(("u",), RING3.one())
        ghost = BasisLabel(("g",), RING3.variable("x"))
        with pytest.raises(ComplexError):
            LabeledFreeComplex(
                RING3,
                {0: [unit]},
                {1: {ghost: {unit: 1}}},
            )

    def test_stray_row_rejected(self):
        unit = BasisLabel(("u",), RING3.one())
        a = BasisLabel(("a",), RING3.variable("x"))
        ghost = BasisLabel(("g",), RING3.one())
        with pytest.raises(ComplexError):
            LabeledFreeComplex(
                RING3,
                {0: [unit], 1: [a]},
                {1: {a: {ghost: 1}}},
            )

    def test_accessors(self):
        F = taylor_resolution(ideal(RING3, "x*y", "y*z"))
        assert F.ranks() == (1, 2, 1)
        assert F.top_degree() == 2
        top = F.find_label(("e", 0, 1))
        assert F.degree_of(top) == 2
        assert F.find_label(("e", 0)).multidegree == parse_monomial(
            RING3, "x*y"
        )
        with pytest.raises(ComplexError):
            F.find_label(("nope",))
        # the printed matrix agrees with the oracle's entries
        mat = F.to_json()["differentials"]["2"]
        rows, cols = F.labels(1), F.labels(2)
        for ri, r in enumerate(rows):
            for ci, c in enumerate(cols):
                assert mat[ri][ci] == str(entry(F, 2, r, c))

    def test_apply_diff_linearity(self):
        F = taylor_resolution(ideal(RING3, "x*y", "y*z", "x*z"))
        one = constant(RING3, 1)
        top = F.find_label(("e", 0, 1, 2))
        v = {top: poly(RING3, "x + 2*y")}
        image = apply_diff(F, 3, v)
        # same as applying to the unit vector and scaling
        unit_image = apply_diff(F, 3, {top: one})
        for lbl, p in image.items():
            assert p == unit_image[lbl] * poly(RING3, "x + 2*y")


class TestVerify:
    def test_koszul_passes(self):
        F = taylor_resolution(ideal(RING3, "x", "y", "z"))
        report = F.verify()
        assert report.ok
        assert report.d2_failures == []
        assert report.homogeneity_failures == []
        assert report.degree_zero_ok

    def test_d2_failure_reported(self):
        F, _ = d2_failure_complex()
        report = F.verify()
        assert not report.ok
        assert report.homogeneity_failures == []
        assert len(report.d2_failures) == 1
        deg, row_tag, col_tag, entry = report.d2_failures[0]
        assert (deg, row_tag, col_tag) == (2, ["u"], ["b"])
        assert entry == "x*y"

    def test_homogeneity_failure_reported(self):
        # d(a) = y with a at x is refused where it is stored, so a complex
        # that exists has no homogeneity failure to report; the report
        # keeps the field, always [], for the CLI's `verify` block
        ring, basis, diff = homogeneity_failure_parts()
        with pytest.raises(ComplexError, match=r"^entry y at \(\(u\)\[1\], \(a\)\[x\]\) is not a coefficient \(an int or a Fraction\)$"):
            LabeledFreeComplex(ring, basis, diff)
        (unit,), (a,) = basis.values()
        report = LabeledFreeComplex(ring, basis, {1: {a: {unit: 1}}}).verify()
        assert report.ok and report.to_json()["homogeneity_failures"] == []

    def test_degree_zero_shape_checked(self):
        u1 = BasisLabel(("u1",), RING3.one())
        u2 = BasisLabel(("u2",), RING3.one())
        F = LabeledFreeComplex(RING3, {0: [u1, u2]}, {})
        report = F.verify()
        assert not report.degree_zero_ok
        assert not report.ok
        shifted = LabeledFreeComplex(
            RING3, {0: [BasisLabel(("u",), RING3.variable("x"))]}, {}
        )
        assert not shifted.verify().degree_zero_ok

    def test_is_minimal(self):
        # xz*xy = xw*yz creates a unit entry in the Taylor complex of
        # (xw, yz, xz, xy), so it is a non-minimal resolution
        F = taylor_resolution(ideal(RING4, "x*w", "y*z", "x*z", "x*y"))
        assert not F.is_minimal()
        assert taylor_resolution(ideal(RING3, "x", "y")).is_minimal()

    def test_taylor_requires_minimal_generators(self):
        from dgres import PolyError

        with pytest.raises(PolyError):
            taylor_resolution(ideal(RING3, "x", "x*y"))


class TestStrands:
    def test_koszul_strand_homology(self):
        F = taylor_resolution(ideal(RING3, "x", "y", "z"))
        one = RING3.one()
        assert strand_homology(F, one) == (1, 0, 0, 0)
        xyz = parse_monomial(RING3, "x*y*z")
        assert strand_homology(F, xyz) == (0, 0, 0, 0)
        # every squarefree strand is exact except H_0 at b = 1
        for b in squarefree_monomials(RING3):
            h = strand_homology(F, b)
            assert h == ((1, 0, 0, 0) if b.is_one() else (0, 0, 0, 0))

    def test_strand_labels_respect_multiplicity(self):
        ring = VariableSet(("x",))
        unit = BasisLabel(("u",), ring.one())
        sq = BasisLabel(("s",), ring.variable("x") * ring.variable("x"))
        F = complex_of(
            ring, {0: [unit], 1: [sq]}, {1: {sq: {unit: poly(ring, "x^2")}}}
        )
        strand = strand_labels(F, ring.variable("x"))
        assert strand[0] == [unit]
        assert strand[1] == []  # x^2 does not divide x

    def test_is_resolution_of_positive(self):
        I = ideal(RING4, "x*y", "y*z", "z*w")
        F = taylor_resolution(I)
        ok, report = F.is_resolution_of(I)
        assert ok
        assert report["complex_ok"]
        assert report["degree1_matches_generators"]
        assert report["d1_plus_minus_generators"]
        assert report["labels_squarefree"]
        assert report["strand_failures"] == []

    def test_is_resolution_of_wrong_ideal(self):
        F = taylor_resolution(ideal(RING3, "x*y", "y*z"))
        ok, report = F.is_resolution_of(ideal(RING3, "x*y", "x*z"))
        assert not ok
        assert not report["degree1_matches_generators"]

    def test_is_resolution_of_detects_missing_top(self):
        # Koszul complex on (x, y, z) with the top stage removed: still a
        # complex, but H_2 appears on the xyz strand.
        I = ideal(RING3, "x", "y", "z")
        F = taylor_resolution(I)
        truncated = LabeledFreeComplex(
            RING3,
            {i: F.labels(i) for i in range(3)},
            {i: F.diff[i] for i in (1, 2)},
        )
        assert truncated.verify().ok
        ok, report = truncated.is_resolution_of(I)
        assert not ok
        bad = [f["strand"] for f in report["strand_failures"]]
        assert "x*y*z" in bad


class TestSerialization:
    def test_taylor_roundtrip(self):
        F = taylor_resolution(ideal(RING4, "x*y", "y*z", "z*w", "x*w"))
        G = complex_from_json(F.to_json())
        assert complexes_equal(F, G)
        assert G.name == F.name

    def test_roundtrip_preserves_nested_tags(self):
        C, _ = rank_one(RING3)
        cone = plain_cone(multiplication_map(C, RING3.variable("z")))
        back = complex_from_json(cone.to_json())
        assert complexes_equal(cone, back)
        assert back.labels(1)[0].tag == ("S", ("u",))

    def test_roundtrip_masked_ring(self):
        ring = VariableSet(("x", "y", "z")).deactivate(["z"])
        F = taylor_resolution(MonomialIdeal.from_strings(ring, ["x", "y"]))
        G = complex_from_json(F.to_json())
        assert complexes_equal(F, G)
        assert G.ring.active == (True, True, False)

    def test_json_is_stable_text(self):
        F = taylor_resolution(ideal(RING3, "x*y", "y*z"))
        once = json.dumps(F.to_json(), sort_keys=True)
        twice = json.dumps(
            complex_from_json(F.to_json()).to_json(), sort_keys=True
        )
        assert once == twice


class TestChainMap:
    def test_multiplication_map_commutes(self):
        F = taylor_resolution(ideal(RING3, "x*y", "y*z", "x*z"))
        psi = multiplication_map(F, RING3.variable("x"))
        assert psi.shift == RING3.variable("x")
        lbl = F.find_label(("e", 0, 1))
        # psi(e_l) = x e_l: the coefficient 1 of shift * m_l / m_l
        assert psi.entries[lbl] == {lbl: 1}
        assert entry_polynomial(1, lbl, psi.shift * lbl.multidegree) == poly(RING3, "x")

    def test_noncommuting_map_rejected(self):
        ring = VariableSet(("x", "y"))
        F = taylor_resolution(ideal(ring, "x", "y"))
        # swap the two degree-1 images with shift x*y: e_x -> x^2 e_y and
        # e_y -> y^2 e_x, each the coefficient 1, are homogeneous and
        # commute with d_1, but not with d_2 at e_xy -> x*y e_xy
        ex = F.find_label(("e", 0))
        ey = F.find_label(("e", 1))
        unit = F.labels(0)[0]
        top = F.labels(2)[0]
        entries = {unit: {unit: 1}, ex: {ey: 1}, ey: {ex: 1}, top: {top: 1}}
        with pytest.raises(ComplexError, match=r"^chain map does not commute at \(e,0,1\)"):
            ChainMap(F, F, entries, multidegree_shift=parse_monomial(ring, "x*y"))

    def test_nonhomogeneous_entry_rejected(self):
        ring = VariableSet(("x", "y"))
        F = taylor_resolution(ideal(ring, "x", "y"))
        ex = F.find_label(("e", 0))
        entries = {ex: {ex: poly(ring, "y")}}
        with pytest.raises(ComplexError):
            ChainMap(F, F, entries)

    def test_check_false_skips_validation(self):
        # there is no way past the checks: the entry y from e_x to e_x is
        # refused where it is stored, and ChainMap has no `check` knob
        ring = VariableSet(("x", "y"))
        F = taylor_resolution(ideal(ring, "x", "y"))
        ex = F.find_label(("e", 0))
        with pytest.raises(ComplexError, match=r"^entry y at \(\(e,0\)\[x\], \(e,0\)\[x\]\) is not a coefficient \(an int or a Fraction\)$"):
            ChainMap(F, F, {ex: {ex: poly(ring, "y")}})
        assert "check" not in inspect.signature(ChainMap).parameters


class TestDesuspension:
    def test_shifts_and_negates(self):
        G = taylor_resolution(ideal(RING3, "x*y", "y*z", "x*z"))
        D = desuspend_truncation(G)
        assert D.ranks() == G.ranks()[1:]
        for i in D.degrees():
            assert [l.tag for l in D.labels(i)] == [l.tag for l in G.labels(i + 1)]
        for i in D.degrees():
            if i == 0:
                continue
            for c in D.labels(i):
                for r in D.labels(i - 1):
                    assert entry(D, i, r, c) == -entry(G, i + 1, r, c)
        assert not D.verify().d2_failures


class TestMappingCone:
    def test_cone_of_multiplication_on_rank_one(self):
        C, lbl = rank_one(RING3)
        psi = multiplication_map(C, RING3.variable("z"))
        cone = plain_cone(psi)
        assert cone.ranks() == (1, 1)
        t0 = cone.labels(0)[0]
        s1 = cone.labels(1)[0]
        assert t0.tag == ("T", ("u",))
        assert s1.tag == ("S", ("u",))
        assert str(s1.multidegree) == "z"  # source copy picks up the shift
        assert entry(cone, 1, t0, s1) == poly(RING3, "z")
        ok, _ = cone.is_resolution_of(ideal(RING3, "z"))
        assert ok

    def test_iterated_cones_build_koszul(self):
        ring = VariableSet(("x", "y"))
        C, _ = rank_one(ring)
        K1 = plain_cone(multiplication_map(C, ring.variable("x")))
        K2 = plain_cone(multiplication_map(K1, ring.variable("y")))
        assert K2.ranks() == (1, 2, 1)
        assert K2.verify().ok
        ok, _ = K2.is_resolution_of(ideal(ring, "x", "y"))
        assert ok
        assert graded_betti(K2) == graded_betti(taylor_resolution(ideal(ring, "x", "y")))

    def test_cone_differential_signs(self):
        # d(0, s) = (psi(s), -d_S s): the source-copy differential is negated
        ring = VariableSet(("x", "y"))
        S = taylor_resolution(ideal(ring, "x", "y"))
        psi = multiplication_map(S, ring.one())
        cone = plain_cone(psi)
        top_s = cone.find_label(("S", ("e", 0, 1)))
        i = cone.degree_of(top_s)
        col = column(cone, i, top_s)
        s_rows = {r.tag: p for r, p in col.items() if r.tag[0] == "S"}
        src_top = S.find_label(("e", 0, 1))
        src_col = column(S, 2, src_top)
        assert s_rows == {("S", r.tag): -p for r, p in src_col.items()}
        t_rows = {r.tag: p for r, p in col.items() if r.tag[0] == "T"}
        assert t_rows == {("T", ("e", 0, 1)): constant(ring, 1)}
        assert cone.verify().ok

    def test_custom_relabels(self):
        C, _ = rank_one(RING3)
        cone = mapping_cone(
            multiplication_map(C, RING3.variable("x")),
            target_relabel=lambda tag: ("base",) + tag,
            source_relabel=lambda tag: ("step",) + tag,
            name="custom",
        )
        assert cone.name == "custom"
        assert cone.labels(0)[0].tag == ("base", "u")
        assert cone.labels(1)[0].tag == ("step", "u")

    def test_mixed_ring_rejected(self):
        C, _ = rank_one(RING3)
        D, _ = rank_one(RING4, tag=("v",))
        psi = ChainMap(C, D, {C.labels(0)[0]: {D.labels(0)[0]: 1}})
        with pytest.raises(ComplexError, match="^cone of a map between different rings$"):
            plain_cone(psi)


class TestTensor:
    def test_disjoint_koszul_factors(self):
        F = taylor_resolution(ideal(RING4, "x", "y"))
        G = taylor_resolution(ideal(RING4, "z", "w"))
        T = tensor_complex(F, G)
        assert T.ranks() == (1, 4, 6, 4, 1)
        assert T.verify().ok
        ok, report = T.is_resolution_of(ideal(RING4, "x", "y", "z", "w"))
        assert ok, report
        lbl = T.labels(0)[0]
        assert lbl.tag[0] == "ot"

    def test_label_multidegrees_multiply(self):
        ring = VariableSet(("x",))
        F = taylor_resolution(ideal(ring, "x"))
        T = tensor_complex(F, F)
        top = T.labels(2)[0]
        assert str(top.multidegree) == "x^2"  # product, not lcm

    def test_overlapping_supports_create_homology(self):
        # Q/(x) tensor Q/(x) has Tor_1 != 0; the x-strand of the tensor
        # complex detects it because the degree-2 label sits at x^2.
        ring = VariableSet(("x",))
        F = taylor_resolution(ideal(ring, "x"))
        T = tensor_complex(F, F)
        assert T.verify().ok
        h = strand_homology(T, ring.variable("x"))
        assert h[1] == 1
        ok, report = T.is_resolution_of(ideal(ring, "x"))
        assert not ok
        assert any(f["strand"] == "x" for f in report["strand_failures"])
        assert not report["labels_squarefree"]

    def test_tensor_rank_convolution(self):
        F = taylor_resolution(ideal(RING4, "x*y", "y*z"))
        G = taylor_resolution(ideal(RING4, "z*w"))
        T = tensor_complex(F, G)
        fr, gr = F.ranks(), G.ranks()
        expected = tuple(
            sum(
                fr[i] * gr[n - i]
                for i in range(n + 1)
                if i < len(fr) and n - i < len(gr)
            )
            for n in range(len(fr) + len(gr) - 1)
        )
        assert T.ranks() == expected
        assert T.verify().d2_failures == []

    def test_mixed_ring_rejected(self):
        F = taylor_resolution(ideal(RING3, "x"))
        G = taylor_resolution(ideal(RING4, "x"))
        with pytest.raises(ComplexError):
            tensor_complex(F, G)


class TestBetti:
    def test_koszul_graded_betti(self):
        F = taylor_resolution(ideal(RING3, "x", "y", "z"))
        expected = {(0, "1"): 1}
        for k in (1, 2, 3):
            for sub in combinations("xyz", k):
                expected[(k, "*".join(sub))] = 1
        assert graded_betti(F) == expected
        assert total_betti(F) == (1, 3, 3, 1)

    def test_total_betti_rank_one(self):
        C, _ = rank_one(RING3)
        assert total_betti(C) == (1,)

    def test_graded_betti_invariance(self, corpus):
        # Betti numbers are an invariant of the resolved module, so the
        # Taylor and Lyubeznik resolutions of the same ideal must agree.
        for I in corpus[:6]:
            if len(I.generators) > 4:
                continue
            assert graded_betti(taylor_resolution(I)) == graded_betti(
                lyubeznik_resolution(I)
            )

    def test_graded_betti_sees_non_minimality(self):
        # The Taylor complex of (xw, yz, xz, xy) has ranks (1, 4, 6, 4, 1)
        # but the module it resolves only needs (1, 4, 4, 1): graded_betti
        # must cancel the unit entries.
        F = taylor_resolution(ideal(RING4, "x*w", "y*z", "x*z", "x*y"))
        assert F.ranks() == (1, 4, 6, 4, 1)
        assert total_betti(F) == (1, 4, 4, 1)

    def test_constant_entry_outside_the_multidegree_is_ignored(self):
        # d(c) = a is a constant entry, but c has multidegree y and a has x:
        # no such entry is stored, as a Polynomial or as a coefficient, so
        # every entry graded_betti reads joins labels of one multidegree
        ring = VariableSet(("x", "y"))
        unit = BasisLabel(("u",), ring.one())
        a = BasisLabel(("a",), ring.variable("x"))
        b = BasisLabel(("b",), ring.variable("y"))
        c = BasisLabel(("c",), ring.variable("y"))
        basis = {0: [unit], 1: [a, b], 2: [c]}
        with pytest.raises(ComplexError, match=r"^entry 1 at \(\(a\)\[x\], \(c\)\[y\]\) is not a coefficient \(an int or a Fraction\)$"):
            LabeledFreeComplex(ring, basis, {2: {c: {a: constant(ring, 1)}}})
        with pytest.raises(ComplexError, match=r"^coefficient entry 1 at \(\(a\)\[x\], \(c\)\[y\]\): x does not divide y$"):
            LabeledFreeComplex(ring, basis, {2: {c: {a: 1}}})


class TestComparisons:
    def _scale_label(self, F, tag, c):
        """Rescale the basis element with the given tag by c."""
        target = F.find_label(tag)
        deg = F.degree_of(target)
        diff = {}
        for i in F.degrees():
            if i == 0:
                continue
            cols = {}
            for col_lbl in F.labels(i):
                col = dict(F.diff.get(i, {}).get(col_lbl, {}))
                if i == deg and col_lbl == target:
                    col = {r: p * c for r, p in col.items()}
                if i == deg + 1:
                    if target in col:
                        col[target] = col[target] * Fraction(1, c)
                cols[col_lbl] = col
            diff[i] = cols
        return LabeledFreeComplex(
            F.ring, {i: F.labels(i) for i in F.degrees()}, diff, name=F.name
        )

    def test_complexes_equal_exact(self):
        F = taylor_resolution(ideal(RING3, "x*y", "y*z", "x*z"))
        G = complex_from_json(F.to_json())
        assert complexes_equal(F, G)

    def test_sign_scaling_detected(self):
        F = taylor_resolution(ideal(RING3, "x*y", "y*z", "x*z"))
        G = self._scale_label(F, ("e", 0, 1), -1)
        assert G.verify().ok
        assert not complexes_equal(F, G)
        ok, eps = equal_up_to_basis_scaling(F, G)
        assert ok
        assert eps["e.0.1"] == "-1"
        assert eps["e.0"] == "1"

    def test_non_unit_scaling_needs_flag(self):
        F = taylor_resolution(ideal(RING3, "x*y", "y*z", "x*z"))
        G = self._scale_label(F, ("e", 0, 1), 2)
        assert G.verify().ok
        ok, _ = equal_up_to_basis_scaling(F, G)
        assert not ok
        ok, eps = equal_up_to_basis_scaling(F, G, signs_only=False)
        assert ok
        assert eps["e.0.1"] == "1/2"

    def test_different_entries_not_scalable(self):
        F = taylor_resolution(ideal(RING3, "x*y", "y*z", "x*z"))
        G = taylor_resolution(ideal(RING3, "x*y", "y*z", "x*z").reorder([0, 2, 1]))
        assert not complexes_equal(F, G)
        ok, _ = equal_up_to_basis_scaling(F, G)
        assert not ok


# ---------------------------------------------------------------------------
# the strand check against the dense reference


def dense_strand_labels(F, b):
    """Reference: scan every label with Monomial.divides."""
    return {i: [l for l in F.labels(i) if l.multidegree.divides(b)] for i in F.degrees()}


def dense_strand_homology(F, b):
    """Reference: dense Fraction strand matrices through `entry()` and
    `eval_ones()`, ranks from Gauss-Jordan elimination."""
    strand = dense_strand_labels(F, b)
    ranks = {}
    for i in F.degrees():
        rows, cols = strand.get(i - 1, []), strand[i]
        if i and rows and cols:
            mat = [[eval_ones(entry(F, i, r, c)) for c in cols] for r in rows]
            ranks[i] = len(rref(mat)[1])
    return tuple(
        len(strand[i]) - ranks.get(i, 0) - ranks.get(i + 1, 0) for i in F.degrees()
    )


def lattice_strands(F, I):
    """Reference lcm lattice: every b in the exponent box of the labels and
    generators that equals the lcm of the labels and generators dividing it
    (by `Monomial.divides`), in increasing exponent order."""
    members = [l.multidegree for l in F.degree] + list(I.generators)
    box = [range(max(col) + 1) for col in zip((0,) * len(F.ring), *(m.exponents for m in members))]
    for exps in product(*box):
        b = Monomial(F.ring, exps)
        if lcm_of((m for m in members if m.divides(b)), F.ring) == b:
            yield b


def dense_is_resolution_of(F, I):
    """Reference `is_resolution_of`: the same report, with the strands of
    `lattice_strands` decided by `dense_strand_homology` and H_0 by
    `Monomial.divides`."""
    report = {}
    ver = F.verify()
    report["complex_ok"] = ver.ok
    if not ver.ok:
        report["verify"] = ver.to_json()
        return False, report
    gens = sorted(str(g) for g in I.generators)
    report["degree1_matches_generators"] = gens == sorted(
        str(l.multidegree) for l in F.labels(1)
    )
    d1_ok = True
    unit = F.labels(0)[0]
    for c in F.labels(1):
        entries = [(r, p) for r, p in column(F, 1, c).items() if not p.is_zero()]
        if len(entries) != 1:
            d1_ok = False
            continue
        r, p = entries[0]
        if r != unit or not is_monomial_multiple(p):
            d1_ok = False
            continue
        m, coef = single_term(p)
        if m != c.multidegree or coef not in (1, -1):
            d1_ok = False
    report["d1_plus_minus_generators"] = d1_ok
    report["labels_squarefree"] = F.labels_squarefree()
    failures = []
    for b in lattice_strands(F, I):
        h = dense_strand_homology(F, b)
        want_h0 = 0 if any(g.divides(b) for g in I.generators) else 1
        if h[0] != want_h0:
            failures.append({"strand": str(b), "H": list(h), "H0_expected": want_h0})
            continue
        if any(h[1:]):
            failures.append({"strand": str(b), "H": list(h)})
    report["strand_failures"] = failures
    ok = report["degree1_matches_generators"] and d1_ok and not failures
    report["ok"] = ok
    return ok, report


def fresh(F):
    """A copy, whose first strand read builds a new strand index."""
    return LabeledFreeComplex(F.ring, F.basis, F.diff, name=F.name)


def assert_strands_match_dense(F, I, strands=None):
    """Strand labels and homology on every given strand (default: every
    squarefree one), and the whole `is_resolution_of` report, equal the
    dense reference's."""
    G = fresh(F)
    for b in strands or list(squarefree_monomials(F.ring)):
        assert strand_labels(G, b) == dense_strand_labels(F, b), str(b)
        assert strand_homology(G, b) == dense_strand_homology(F, b), str(b)
    sparse = json.dumps(fresh(F).is_resolution_of(I))
    assert sparse == json.dumps(dense_is_resolution_of(F, I))
    return json.loads(sparse)[1]


def path_resolutions(n: int):
    """The edge ideal of the path on n edges, with its Lyubeznik resolution
    and the Morse reduction of its Taylor resolution."""
    I = edge_ideal(path_graph(n))
    return I, [lyubeznik_resolution(I), morse_reduce(taylor_resolution(I), lyubeznik_matching(I))]


def count_rank_calls(monkeypatch) -> list:
    """A list that gets one entry per `linalg.rank` call, the exact route."""
    calls = []
    rank = linalg.rank
    monkeypatch.setattr(linalg, "rank", lambda columns: calls.append(1) or rank(columns))
    return calls


def unit_and_fraction_entries(exact: bool):
    """Over Q[x]: d(a) = 2x, d(b) = x/2 and d(c) = a - 4b, or d(c) = 0 when
    not `exact`.  The strand ranks pivot on 2 and -4, so they run through
    Fraction inverses."""
    ring = VariableSet(("x",))
    x = ring.variable("x")
    u, a, b = BasisLabel(("u",), ring.one()), BasisLabel(("a",), x), BasisLabel(("b",), x)
    c = BasisLabel(("c",), x)
    dc = {a: poly(ring, "1"), b: poly(ring, "-4")} if exact else {}
    F = complex_of(
        ring,
        {0: [u], 1: [a, b], 2: [c]},
        {1: {a: {u: poly(ring, "2*x")}, b: {u: poly(ring, "1/2*x")}}, 2: {c: dc}},
    )
    return F, ideal(ring, "x")


class TestStrandsMatchDense:
    def test_corpus_taylor_lyubeznik_morse(self, corpus):
        for I in corpus:
            T = taylor_resolution(I)
            for F in (T, lyubeznik_resolution(I), morse_reduce(T, lyubeznik_matching(I))):
                assert assert_strands_match_dense(F, I)["ok"]

    def test_c5_morse_quotient(self, c5_ideal):
        dg = taylor_dg_structure(c5_ideal)
        sources = matching_sources(C5_MATCHING)
        span = span_from_matching_sources(dg.complex, sources)
        prefer = {("e",) + tuple(t) for _, t in C5_MATCHING} | {
            ("e",) + tuple(s) for s in sources
        }
        F = quotient_dg(dg, span, prefer_eliminate=prefer).structure.complex
        assert F.ranks() == (1, 5, 5, 1)
        assert assert_strands_match_dense(F, c5_ideal)["ok"]

    def test_diameter_four_cone(self):
        res = build_cone_resolution(build_family("T4(2;1,1)"))
        assert assert_strands_match_dense(res.cone, res.decomposition.ideal_total)["ok"]

    def test_truncated_koszul(self):
        I = ideal(RING3, "x", "y", "z")
        F = taylor_resolution(I)
        truncated = LabeledFreeComplex(
            RING3,
            {i: F.labels(i) for i in range(3)},
            {i: F.diff[i] for i in (1, 2)},
        )
        report = assert_strands_match_dense(truncated, I)
        assert report["strand_failures"] == [{"strand": "x*y*z", "H": [0, 0, 1]}]

    def test_failure_order_and_strings(self):
        # the Koszul complex on x, y, z, w cut after degree 2, against an
        # ideal with x*w for w: an H_0 failure, then H_2 on the strands of
        # three and four variables, in `squarefree_monomials` order
        F = taylor_resolution(ideal(RING4, "x", "y", "z", "w"))
        truncated = LabeledFreeComplex(
            RING4,
            {i: F.labels(i) for i in range(3)},
            {i: F.diff[i] for i in (1, 2)},
        )
        report = assert_strands_match_dense(truncated, ideal(RING4, "x", "y", "z", "x*w"))
        assert report["strand_failures"] == [
            {"strand": "w", "H": [0, 0, 0], "H0_expected": 1},
            {"strand": "y*z*w", "H": [0, 0, 1]},
            {"strand": "x*z*w", "H": [0, 0, 1]},
            {"strand": "x*y*w", "H": [0, 0, 1]},
            {"strand": "x*y*z", "H": [0, 0, 1]},
            {"strand": "x*y*z*w", "H": [0, 0, 3]},
        ]

    def test_mutation_breaks_one_strand(self, corpus):
        # the column of the top Taylor label, at the lcm of all generators,
        # set to 0: only the largest strand of the lattice contains it, and
        # there H gains 1 in the top two degrees
        for I in corpus:
            T = taylor_resolution(I)
            top = T.top_degree()
            if top < 2:
                continue
            (c,) = T.labels(top)
            mutant = LabeledFreeComplex(T.ring, T.basis, {**T.diff, top: {c: {}}})
            h = [0] * (top + 1)
            h[top - 1] = h[top] = 1
            report = assert_strands_match_dense(mutant, I)
            assert report["strand_failures"] == [{"strand": str(c.multidegree), "H": h}]

    def test_non_squarefree_strand_beyond_the_squarefree_ones(self):
        # Q <- Q(-x^2) <- Q(-x^2) with d_2 = 0: every squarefree strand is
        # exact, and H_2 = 1 at x^2
        ring = VariableSet(("x",))
        x, x2 = ring.variable("x"), parse_monomial(ring, "x^2")
        u, a, c = BasisLabel(("u",), ring.one()), BasisLabel(("a",), x2), BasisLabel(("c",), x2)
        F = LabeledFreeComplex(ring, {0: [u], 1: [a], 2: [c]}, {1: {a: {u: 1}}, 2: {c: {}}})
        assert F.verify().ok
        report = assert_strands_match_dense(F, ideal(ring, "x^2"), [x, x2])
        assert report["strand_failures"] == [{"strand": "x^2", "H": [0, 0, 1]}]
        assert not report["ok"]

    @pytest.mark.parametrize("n", [6, 7, 8])
    def test_path_lyubeznik_and_morse(self, n):
        I, complexes = path_resolutions(n)
        for F in complexes:
            assert assert_strands_match_dense(F, I)["ok"]

    @pytest.mark.parametrize("exact", [True, False])
    def test_fraction_pivots(self, exact, monkeypatch):
        F, I = unit_and_fraction_entries(exact)
        assert F.verify().ok
        report = assert_strands_match_dense(F, I)
        x = I.ring.variable("x")
        calls = count_rank_calls(monkeypatch)
        assert strand_homology(fresh(F), x) == ((0, 0, 0) if exact else (0, 1, 1))
        assert calls  # the entry 1/2 sends the x-strand to the exact route
        assert not report["degree1_matches_generators"]
        assert report["strand_failures"] == ([] if exact else [{"strand": "x", "H": [0, 1, 1]}])

    def test_multiplicity(self):
        ring = VariableSet(("x",))
        unit = BasisLabel(("u",), ring.one())
        x2 = ring.variable("x") * ring.variable("x")
        sq = BasisLabel(("s",), x2)
        F = complex_of(
            ring, {0: [unit], 1: [sq]}, {1: {sq: {unit: poly(ring, "x^2")}}}
        )
        assert_strands_match_dense(F, ideal(ring, "x^2"), [ring.variable("x"), x2])
        assert strand_homology(fresh(F), ring.variable("x")) == (1, 0)
        assert strand_homology(fresh(F), x2) == (0, 0)

    def test_tensor_square_strands(self):
        # non-squarefree labels x^2 among squarefree ones
        ring = VariableSet(("x", "y"))
        F = tensor_complex(taylor_resolution(ideal(ring, "x")), taylor_resolution(ideal(ring, "x", "y")))
        strands = list(squarefree_monomials(ring)) + [parse_monomial(ring, m) for m in ("x^2", "x^2*y", "x*y^2")]
        assert_strands_match_dense(F, ideal(ring, "x", "y"), strands)

    def test_entries_outside_the_strand_are_ignored(self, monkeypatch):
        # d(c) = b with c at x and b at y is not homogeneous, so it is
        # refused where it is stored: every stored row of a column in a
        # strand divides the column's multidegree and is in the strand too
        ring, basis, _ = outside_the_strand_parts()
        (u,), (a, b), (c,) = basis.values()
        with pytest.raises(ComplexError, match=r"^coefficient entry 1 at \(\(b\)\[y\], \(c\)\[x\]\): y does not divide x$"):
            LabeledFreeComplex(ring, basis, {1: {a: {u: 1}, b: {u: 1}}, 2: {c: {b: 1}}})
        # a homogeneous complex with d^2 != 0 is still stored; the mod-2
        # ranks hold only when d^2 = 0, so its strands take the exact route
        F, I = d2_failure_complex()
        assert not F.verify().ok
        assert_strands_match_dense(F, I)
        calls = count_rank_calls(monkeypatch)
        assert strand_homology(fresh(F), ring.variable("x") * ring.variable("y")) == (0, -1, 0)
        assert calls

    def test_strand_of_another_ring_rejected(self):
        from dgres import PolyError

        F = taylor_resolution(ideal(RING3, "x", "y"))
        with pytest.raises(PolyError):
            strand_homology(F, RING4.variable("x"))
        with pytest.raises(PolyError):
            F.is_resolution_of(ideal(RING4, "x", "y"))


class TestModTwoRoute:
    """The mod-2 ranks decide a strand only when they prove its homology
    over Q; everything else takes the exact route.  On P10-P12 the dense
    reference is too slow (one strand of Lyubeznik P10 takes seconds), so
    there the reference is the exact route alone: `linalg.rank` on every
    strand, which equals the dense reference on the corpus above."""

    @pytest.mark.parametrize("n", [10, 11, 12])
    def test_paths_match_the_exact_route(self, n, monkeypatch):
        I, complexes = path_resolutions(n)
        strands = list(squarefree_monomials(I.ring))
        for F in complexes:
            G = fresh(F)
            got = [strand_homology(G, b) for b in strands], fresh(F).is_resolution_of(I)
            with monkeypatch.context() as m:
                m.setattr(StrandIndex, "_mod2", lambda self, masks: None)
                G = fresh(F)
                want = [strand_homology(G, b) for b in strands], fresh(F).is_resolution_of(I)
            assert got == want
            assert got[1][0]

    def test_even_entry_takes_the_exact_route(self, monkeypatch):
        # d(a) = 2x * u: mod 2 the x-strand reads (1, 1), over Q (0, 0)
        ring = VariableSet(("x",))
        x = ring.variable("x")
        u, a = BasisLabel(("u",), ring.one()), BasisLabel(("a",), x)
        F = LabeledFreeComplex(ring, {0: [u], 1: [a]}, {1: {a: {u: 2}}})
        assert F.verify().ok
        index = StrandIndex(F, True, ())
        masks = index.masks(x)
        assert rank_mod2(index.odd[1], masks[1], masks[0]) == 0
        calls = count_rank_calls(monkeypatch)
        assert strand_homology(fresh(F), x) == (0, 0)
        assert len(calls) == 1
        report = assert_strands_match_dense(F, ideal(ring, "x"))
        assert report["strand_failures"] == []
        assert not report["d1_plus_minus_generators"]

    def test_fraction_entry_takes_the_exact_route(self, monkeypatch):
        # d_2 = [[1, 1/2], [2, 1]] has rank 1 over Q; read with 1/2 as 0 it
        # would have rank 2 and the x-strand (0, -1, 0), one nonzero degree
        ring = VariableSet(("x",))
        x = ring.variable("x")
        u = BasisLabel(("u",), ring.one())
        p, q, c1, c2 = (BasisLabel((t,), x) for t in ("p", "q", "c1", "c2"))
        F = complex_of(
            ring,
            {0: [u], 1: [p, q], 2: [c1, c2]},
            {
                1: {p: {u: poly(ring, "2*x")}, q: {u: poly(ring, "-x")}},
                2: {c1: {p: poly(ring, "1"), q: poly(ring, "2")}, c2: {p: poly(ring, "1/2"), q: poly(ring, "1")}},
            },
        )
        assert F.verify().ok
        calls = count_rank_calls(monkeypatch)
        assert strand_homology(fresh(F), x) == (0, 0, 1)
        assert calls
        assert_strands_match_dense(F, ideal(ring, "x"))

    def test_lyubeznik_p10_makes_no_rank_call(self, monkeypatch):
        I, (F, _) = path_resolutions(10)
        calls = count_rank_calls(monkeypatch)
        ok, report = F.is_resolution_of(I)
        assert ok and report["strand_failures"] == []
        assert calls == []


# ---------------------------------------------------------------------------
# stored entries: coefficients with implied monomials, refused otherwise


def d2_failure_complex():
    """d(a) = x u and d(b) = y a, so d^2(b) = x*y u: homogeneous, with
    d^2 != 0, the hand-built complex of `TestVerify.test_d2_failure_reported`."""
    ring = VariableSet(("x", "y"))
    unit = BasisLabel(("u",), ring.one())
    a = BasisLabel(("a",), ring.variable("x"))
    b = BasisLabel(("b",), ring.variable("x") * ring.variable("y"))
    F = complex_of(
        ring,
        {0: [unit], 1: [a], 2: [b]},
        {1: {a: {unit: poly(ring, "x")}}, 2: {b: {a: poly(ring, "y")}}},
    )
    return F, ideal(ring, "x")


def homogeneity_failure_parts():
    """d(a) = y with a at x: the (ring, basis, diff) of the hand-built
    complex of `TestVerify.test_homogeneity_failure_reported`."""
    ring = VariableSet(("x", "y"))
    unit, a = BasisLabel(("u",), ring.one()), BasisLabel(("a",), ring.variable("x"))
    return ring, {0: [unit], 1: [a]}, {1: {a: {unit: poly(ring, "y")}}}


def outside_the_strand_parts():
    """d(c) = b with c at x and b at y: the (ring, basis, diff) of the
    hand-built complex of
    `TestStrandsMatchDense.test_entries_outside_the_strand_are_ignored`."""
    ring = VariableSet(("x", "y"))
    x, y = ring.variable("x"), ring.variable("y")
    u, a, b = BasisLabel(("u",), ring.one()), BasisLabel(("a",), x), BasisLabel(("b",), y)
    c = BasisLabel(("c",), x)
    basis = {0: [u], 1: [a, b], 2: [c]}
    return ring, basis, {1: {a: {u: poly(ring, "x")}, b: {u: poly(ring, "y")}}, 2: {c: {b: poly(ring, "1")}}}


def as_json(ring, basis, diff) -> dict:
    """The `to_json` form of a hand-built complex, entries as written."""
    return {
        "ring": ring.to_json(),
        "basis": {str(i): [{"tag": list(l.tag), "multidegree": str(l.multidegree)} for l in ls] for i, ls in basis.items()},
        "differentials": {
            str(i): [[str(diff.get(i, {}).get(c, {}).get(r, 0)) for c in basis[i]] for r in basis[i - 1]]
            for i in basis if i
        },
    }


def store_site(site: str):
    """One entry v stored on row r (at x) of a column c (at x*y) at `site`,
    so its implied monomial is y: (store, refusal), where store(v) is the
    stored {r: entry} and refusal(v) the message that refuses v.  For a
    product the column is e_a e_b, with a at x and b at y, and r its
    label."""
    ring = VariableSet(("x", "y"))
    x, y = ring.variable("x"), ring.variable("y")
    unit, r, c = BasisLabel(("u",), ring.one()), BasisLabel(("r",), x), BasisLabel(("c",), x * y)
    if site == "complex":
        store = lambda v: LabeledFreeComplex(ring, {0: [unit], 1: [r], 2: [c]}, {2: {c: {r: v}}}).diff[2][c]
    elif site == "chain-map":
        S, T = LabeledFreeComplex(ring, {0: [c]}, {}), LabeledFreeComplex(ring, {0: [r]}, {})
        store = lambda v: ChainMap(S, T, {c: {r: v}}).entries[c]
    else:
        a, b = BasisLabel(("a",), x), BasisLabel(("b",), y)
        cx = LabeledFreeComplex(ring, {0: [unit], 1: [a, b], 2: [r]}, {})

        def store(v):
            def product(p, q):
                if unit in (p, q):
                    return ScalarProduct({q if p == unit else p: 1})
                return ScalarProduct({r: v} if (p, q) == (a, b) else {})

            return dict(DGStructure(cx, product).table(a, b))

        return store, lambda v: f"product entry {v} of {a}*{b} on {r}: not a rational coefficient"
    return store, lambda v: f"entry {v!r} at ({r}, {c}) is not a coefficient (an int or a Fraction)"


def round_trip_cases(c5_ideal):
    I = ideal(RING4, "x*y", "y*z", "z*w", "x*w")
    T = taylor_resolution(I)
    dg = taylor_dg_structure(c5_ideal)
    sources = matching_sources(C5_MATCHING)
    prefer = {("e",) + tuple(t) for _, t in C5_MATCHING} | {("e",) + tuple(s) for s in sources}
    morse = quotient_dg(dg, span_from_matching_sources(dg.complex, sources), prefer_eliminate=prefer)
    res = build_cone_resolution(build_family("T4(2;1,1)"))
    return {
        "taylor": (T, I),
        "lyubeznik": (lyubeznik_resolution(I), I),
        "morse-quotient": (morse.structure.complex, c5_ideal),
        "cone": (res.cone, res.decomposition.ideal_total),
        "d2-failure": d2_failure_complex(),
    }


class TestStoredEntries:
    def test_round_trip_through_the_constructor(self, c5_ideal):
        # the stored differentials, passed back to the constructor, give the
        # same complex with the same reports
        for name, (F, I) in round_trip_cases(c5_ideal).items():
            G = LabeledFreeComplex(F.ring, F.basis, F.diff, name=F.name)
            assert complexes_equal(G, F), name
            assert G.diff == F.diff, name
            assert json.dumps(G.verify().to_json()) == json.dumps(F.verify().to_json()), name
            assert json.dumps(G.is_resolution_of(I)) == json.dumps(fresh(F).is_resolution_of(I)), name

    def test_both_fallbacks_stay_polynomials(self):
        # neither inhomogeneous complex is stored, parsed from JSON either:
        # the reference reader `complex_from_json` refuses it with the
        # entry, its row and its column named
        for parts, refused in (
            (homogeneity_failure_parts(), r"^entry y at \(\(u\)\[1\], \(a\)\[x\]\) "),
            (outside_the_strand_parts(), r"^entry 1 at \(\(b\)\[y\], \(c\)\[x\]\) "),
        ):
            with pytest.raises(ComplexError, match=refused):
                complex_from_json(as_json(*parts))

    @pytest.mark.parametrize("site", ["complex", "chain-map", "product"])
    def test_store_sites_accept_and_refuse(self, site):
        # every site takes coefficients only: it refuses every Polynomial,
        # c * y and zero included, and a float, a bool and a str, naming
        # the entry, its row and its column (for a product: the pair and
        # the label)
        store, refusal = store_site(site)
        ring = VariableSet(("x", "y"))
        polynomials = [poly(ring, text) for text in ("y + 1", "x", "x*y", "2*y", "3/2*y", "0")]
        for v in [*polynomials, 1.5, True, "y"]:
            with pytest.raises(ComplexError if site != "product" else DGError, match=f"^{re.escape(refusal(v))}$"):
                store(v)
        r = BasisLabel(("r",), ring.variable("x"))
        for c in (2, Fraction(3, 2)):
            got = store(c)
            assert got == {r: c} and type(got[r]) is type(c)
        if site == "product":
            return
        # the complex and the chain map drop a zero and keep integral
        # values as ints
        got = store(Fraction(4, 2))
        assert got == {r: 2} and type(got[r]) is int
        assert store(0) == store(Fraction(0)) == {}

    def test_homogeneous_polynomials_stored_as_coefficients(self):
        F, _ = unit_and_fraction_entries(True)
        u, a, b = F.labels(0)[0], *F.labels(1)
        c = F.labels(2)[0]
        assert F.diff[1][a] == {u: 2} and type(F.diff[1][a][u]) is int
        assert F.diff[1][b] == {u: Fraction(1, 2)}
        assert F.diff[2][c] == {a: 1, b: -4}
        # the oracle's readers give the Polynomials back
        assert entry(F, 1, u, b) == poly(F.ring, "1/2*x")
        assert column(F, 2, c) == {a: poly(F.ring, "1"), b: poly(F.ring, "-4")}

    def test_zero_entries_dropped(self):
        ring = VariableSet(("x",))
        u, a = BasisLabel(("u",), ring.one()), BasisLabel(("a",), ring.variable("x"))
        F = LabeledFreeComplex(ring, {0: [u], 1: [a]}, {1: {a: {u: 0}}})
        assert F.diff == {1: {a: {}}}
        G = LabeledFreeComplex(ring, {0: [u], 1: [a]}, {1: {a: {u: Fraction(0)}}})
        assert G.diff == {1: {a: {}}}
        # a zero is dropped on a row whose multidegree y does not divide the
        # column's x too, by the complex and the chain map alike; a zero of
        # any other type is still refused
        ring = VariableSet(("x", "y"))
        x, y = ring.variable("x"), ring.variable("y")
        u, a, b, c = BasisLabel(("u",), ring.one()), BasisLabel(("a",), x), BasisLabel(("b",), y), BasisLabel(("c",), x)
        basis = {0: [u], 1: [a, b], 2: [c]}
        for zero in (0, Fraction(0)):
            H = LabeledFreeComplex(ring, basis, {2: {c: {b: zero}}})
            assert H.diff == {2: {c: {}}}
            assert ChainMap(H, H, {a: {b: zero}}).entries == {a: {}}
        for zero in (0.0, False, "0", poly(ring, "0")):
            refused = "is not a coefficient (an int or a Fraction)"
            with pytest.raises(ComplexError, match=f"^{re.escape(f'entry {zero!r} at ((b)[y], (c)[x]) {refused}')}$"):
                LabeledFreeComplex(ring, basis, {2: {c: {b: zero}}})
            with pytest.raises(ComplexError, match=f"^{re.escape(f'entry {zero!r} at ((b)[y], (a)[x]) {refused}')}$"):
                ChainMap(H, H, {a: {b: zero}})

    def test_coefficient_needs_a_monomial_quotient(self):
        # a coefficient stands for c * (m_c / m_r), so m_r must divide m_c
        ring = VariableSet(("x", "y"))
        u, a = BasisLabel(("u",), ring.one()), BasisLabel(("a",), ring.variable("x"))
        b = BasisLabel(("b",), ring.variable("y"))
        with pytest.raises(ComplexError):
            LabeledFreeComplex(ring, {0: [u], 1: [a], 2: [b]}, {2: {b: {a: 1}}})
        with pytest.raises(ComplexError):
            LabeledFreeComplex(ring, {0: [u], 1: [a]}, {1: {a: {u: 1.0}}})

    def test_d2_with_a_polynomial_entry(self):
        # d(e01) = (1 - y) e0 + x e1 is refused where it is stored, so d^2
        # never meets a Polynomial entry
        ring = VariableSet(("x", "y"))
        T = taylor_resolution(ideal(ring, "x", "y"))
        e01, e0 = T.find_label(("e", 0, 1)), T.find_label(("e", 0))
        diff = {i: {c: dict(T.diff[i][c]) for c in T.labels(i)} for i in (1, 2)}
        diff[2][e01][e0] = entry(T, 2, e0, e01) + constant(ring, 1)
        refused = r"^entry -y \+ 1 at \(\(e,0\)\[x\], \(e,0,1\)\[x\*y\]\) is not a coefficient \(an int or a Fraction\)$"
        with pytest.raises(ComplexError, match=refused):
            LabeledFreeComplex(ring, T.basis, diff)


def formatter_corpus():
    """The Taylor, Lyubeznik and Morse complexes of C4, C5, P6, L(2,2,1) and
    T4(3;2,2,2), and the cone of T4(3;2,2,1)."""
    for family in ("C4", "C5", "P6", "L(2,2,1)", "T4(3;2,2,2)"):
        I = edge_ideal(build_family(family))
        T = taylor_resolution(I)
        yield from (T, lyubeznik_resolution(I), morse_reduce(T, lyubeznik_matching(I)))
    yield build_cone_resolution(build_family("T4(3;2,2,1)")).cone


class TestEntryFormatter:
    def test_entry_str_is_the_oracle_string(self):
        # every stored entry, scaled, prints as the one-term Polynomial
        # c * (m_c / m_r) of the oracle: Fractions, negative coefficients
        # and the unit monomial included
        seen = set()
        for F in formatter_corpus():
            for cols in F.diff.values():
                for c, col in cols.items():
                    for r, v in col.items():
                        for scale in (1, -1, 4, Fraction(-3, 2), Fraction(5, 7)):
                            x = exact(v * scale)
                            text = entry_str(x, r, c.multidegree)
                            assert text == str(entry_polynomial(x, r, c.multidegree)), (F.name, r, c, x)
                            seen.add((type(x), x < 0, r.multidegree == c.multidegree, x in (1, -1)))
        assert {(t, neg, unit) for t, neg, unit, _ in seen} == {
            (t, neg, unit) for t in (int, Fraction) for neg in (False, True) for unit in (False, True)
        }
        assert {(int, neg, False, True) for neg in (False, True)} <= seen


def stored_form(F):
    """Everything the constructor stores, in order: the ring and name, each
    basis as (tag, multidegree), and each column as (row tag, row
    multidegree, entry, entry type), since 1 == Fraction(1)."""
    return (
        F.ring,
        F.name,
        [(i, [(l.tag, l.multidegree) for l in F.labels(i)]) for i in F.degrees()],
        [
            (i, [(c.tag, c.multidegree, [(r.tag, r.multidegree, v, type(v)) for r, v in col.items()])
                 for c, col in cols.items()])
            for i, cols in F.diff.items()
        ],
    )


def assert_stored_as_validated(F):
    """F, written by a writer that skips the constructor's checks, equals
    the complex the validating constructor builds from its columns."""
    assert stored_form(F) == stored_form(LabeledFreeComplex(F.ring, F.basis, F.diff, name=F.name)), F.name


PATHS = [edge_ideal(build_family(f"P{n}")) for n in range(10, 15)]


class TestStoredWriters:
    """Taylor, Lyubeznik and every `Elimination.quotient` write their
    columns in stored form without the constructor's per-entry checks."""

    def test_taylor_and_lyubeznik(self, corpus):
        for I in [*corpus, *PATHS]:
            assert_stored_as_validated(taylor_resolution(I))
            assert_stored_as_validated(lyubeznik_resolution(I))

    def test_morse_along_each_lyubeznik_matching(self, corpus):
        for I in [*corpus, *PATHS]:
            M = morse_reduce(taylor_resolution(I), lyubeznik_matching(I))
            assert_stored_as_validated(M)

    def test_quotient_entry_that_becomes_integral(self):
        # over Q[x], d(c) = 2a + b and d(e) = 2a, all of multidegree x;
        # eliminating c and then a = -b/2 leaves d(e) = 2 * (-1/2) b, which
        # the quotient must store as the int -1
        ring = VariableSet(("x",))
        x = ring.variable("x")
        u = BasisLabel(("u",), ring.one())
        a, b, c, e = (BasisLabel((t,), x) for t in "abce")
        F = LabeledFreeComplex(ring, {0: [u], 1: [a, b], 2: [c, e]}, {2: {c: {a: 2, b: 1}, e: {a: 2}}})
        elim = Elimination(F, [(("c",), 2, {c: 1}, x, c), (("dc",), 1, F.diff[2][c], x, a)])
        Q = elim.quotient("Q")
        assert Q.diff[2] == {e: {b: -1}} and type(Q.diff[2][e][b]) is int
        assert_stored_as_validated(Q)

    def test_quotients_of_prune_dg(self, two_triangles_ideal, c5_ideal):
        cases = [(two_triangles_ideal, "y1"), (two_triangles_ideal, "z1"), (edge_ideal(build_family("P6")), "v2")]
        cases += [(c5_ideal, z) for z in c5_ideal.ring.names]
        for I, z in cases:
            result = prune_dg(I, (z,))
            assert_stored_as_validated(result.resolution_quotient.structure.complex)
            # the descent over Q/(z), whose ring has z deactivated
            P = result.descended.complex
            assert not P.ring.active[P.ring.index(z)]
            assert_stored_as_validated(P)


class TestBasisLabelValueType:
    """Labels hash (tag, multidegree) once; equality still compares the
    ring, so a relabel onto a smaller ring gives different labels."""

    def test_equal_labels_are_one_dict_key(self):
        T = taylor_resolution(ideal(RING3, "x*y", "y*z", "x*z"))
        index = {l: i for i in T.degrees() for l in T.labels(i)}
        for l, i in index.items():
            fresh_label = BasisLabel(tuple(l.tag), Monomial(RING3, l.multidegree.exponents))
            assert fresh_label == l and hash(fresh_label) == hash(l)
            assert index[fresh_label] == i
        xy = RING3.variable("x") * RING3.variable("y")
        assert T.find_label(("e", 0)) == BasisLabel(("e", 0), xy)

    def test_same_tag_and_exponents_over_a_deactivated_ring_differ(self):
        masked = RING3.deactivate(["z"])
        a = BasisLabel(("e", 0), parse_monomial(RING3, "x*y"))
        b = BasisLabel(("e", 0), parse_monomial(masked, "x*y"))
        assert a != b and len({a: 0, b: 1}) == 2

    def test_fields_cannot_be_assigned(self):
        lab = BasisLabel(("e", 0), parse_monomial(RING3, "x"))
        for attr, value in (("tag", ("f",)), ("multidegree", RING3.one()), ("_hash", 0)):
            with pytest.raises(AttributeError):
                setattr(lab, attr, value)
        assert lab == BasisLabel(("e", 0), parse_monomial(RING3, "x"))

    def test_prune_relabels_are_valid_over_the_smaller_ring(self):
        I = ideal(RING4, "x*y", "y*z", "z*w", "x*w")
        pruned = prune_ideal(I, ["w"])
        assert [str(g) for g in pruned.generators] == ["x*y", "y*z"]
        P = prune_complex(lyubeznik_resolution(I), ["w"]).pruned
        for g in pruned.generators:
            assert g.ring == P.ring == RING4.deactivate(["w"])
        for i in P.degrees():
            for l in P.labels(i):
                # the public constructor re-checks each relabelled multidegree
                assert Monomial(P.ring, l.multidegree.exponents) == l.multidegree
                assert l.multidegree.exponents[3] == 0
        with pytest.raises(PolyError):
            Monomial(P.ring, (0, 0, 0, 1))


# ---------------------------------------------------------------------------
# chain maps on coefficients


class TestChainMapCoefficients:
    def test_entries_stored_as_coefficients(self):
        F = taylor_resolution(ideal(RING3, "x*y", "y*z", "x*z"))
        psi = multiplication_map(F, RING3.variable("x"))
        assert all(img == {l: 1} for l, img in psi.entries.items())
        res = build_cone_resolution(build_family("T4(2;2,1)"))
        psi = build_psi(res.decomposition, res.Gp, res.F)
        assert {c for img in psi.entries.values() for c in img.values()} == {1}

    def test_homogeneous_map_that_does_not_commute(self):
        # the identity on the Koszul complex of x, y with e_xy sent to -e_xy
        ring = VariableSet(("x", "y"))
        F = taylor_resolution(ideal(ring, "x", "y"))
        entries = {l: {l: 1} for i in F.degrees() for l in F.labels(i)}
        top = F.labels(2)[0]
        entries[top] = {top: -1}
        with pytest.raises(ComplexError, match=r"^chain map does not commute at \(e,0,1\)"):
            ChainMap(F, F, entries)

    def test_non_homogeneous_entry_is_named(self):
        # Q in degree 0 has no differential, so only homogeneity can fail,
        # and it does where the entry is stored
        C, lbl = rank_one(RING3)
        with pytest.raises(ComplexError, match=r"^entry x \+ 1 at \(\(u\)\[1\], \(u\)\[1\]\) is not a coefficient \(an int or a Fraction\)$"):
            ChainMap(C, C, {lbl: {lbl: poly(RING3, "1 + x")}})
