"""Basis products as Elements, the oracle for the stored `ScalarProduct`s.

These are the product functions the dg structures had before they stored
coefficients: the Taylor product, the mapping-cone product of `diam4` and
the product of a quotient, each returning an `Element` built in
`Polynomial` arithmetic.  The cone product divides by z with
`divide_by_monomial`; the quotient product projects the parent product
with the projection of a `reference_elimination` quotient.  The tests
compare every stored product table, formatted with
`reference_poly.entry_polynomial`, against them.
`taylor_table` is the Taylor product as a `ScalarProduct` from index
tuples, the oracle for the bitmask products of `taylor.mask_product`.

The Taylor sign and product and the z-ification on index tuples
(`taylor_sign`, `taylor_product_label`, `leaf_spokes`, `zify_indices`,
`y_part`) are the oracles for the bitmask rules of `taylor.mask_sign` and
`diam4.zify`; `psi_entries` is Psi built from them.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from dgres.complexes import BasisLabel, LabeledFreeComplex
from dgres.dg import DGStructure, Element, ScalarProduct
from dgres.diam4 import StarDecomposition
from dgres.poly import Monomial, MonomialIdeal, lcm_of, monomial_divide, monomial_lcm

from reference_poly import Polynomial, VecT, coords, element


def taylor_sign(V: Sequence[int], W: Sequence[int]) -> int:
    """(-1)^sigma with sigma(V, W) = #{(v, w) in V x W : v > w}."""
    sigma = sum(1 for v in V for w in W if v > w)
    return -1 if sigma % 2 else 1


def taylor_product_label(
    ideal: MonomialIdeal, V: Sequence[int], W: Sequence[int]
) -> tuple[Fraction, Monomial, tuple[int, ...]] | None:
    """e_V e_W as (coefficient sign, monomial coefficient, union indices);
    None when V and W intersect (the product is zero)."""
    sv, sw = set(V), set(W)
    if sv & sw:
        return None
    union = tuple(sorted(sv | sw))
    mv = lcm_of((ideal.generators[i] for i in V), ideal.ring)
    mw = lcm_of((ideal.generators[i] for i in W), ideal.ring)
    coeff = monomial_divide(mv * mw, monomial_lcm(mv, mw))  # m_{V u W} = lcm(m_V, m_W)
    return Fraction(taylor_sign(V, W)), coeff, union


def leaf_spokes(dec: StarDecomposition) -> tuple[int, ...]:
    """Index (into the spokes) of the spoke under each J-generator."""
    return tuple(i for i, s in enumerate(dec.spokes) for _ in dec.leaves[s])


def zify_indices(dec: StarDecomposition, W) -> tuple[tuple[int, ...], bool]:
    """Map a subset W of G(J) to spoke indices in G(I).

    Returns (sorted spoke index set, repeat_free); with a repeat (two
    members of W on one spoke) the z-ified Taylor symbol is read as 0.
    """
    spokes = [leaf_spokes(dec)[j] for j in W]
    return tuple(sorted(set(spokes))), len(set(spokes)) == len(spokes)


def y_part(dec: StarDecomposition, W) -> Monomial:
    """y_W = m_W / x_W: the leaf part of the lcm of the J-generators in W."""
    m_w = lcm_of((dec.ideal_j.generators[j] for j in W), dec.ring)
    spoke_set, _ = zify_indices(dec, W)
    x_w = lcm_of((dec.ring.variable(dec.spokes[i]) for i in spoke_set), dec.ring)
    return monomial_divide(m_w, x_w)


def psi_entries(dec: StarDecomposition, Gp: LabeledFreeComplex, F: LabeledFreeComplex) -> dict:
    """The entries of Psi: G' -> F: g_{w} in degree 0 to the unit, the
    twisted copy of g_W to f_{W_z} (found by tag) when W is repeat-free,
    each with the coefficient 1, and everything else to 0."""
    entries: dict = {}
    for i in Gp.degrees():
        for l in Gp.labels(i):
            img = entries[l] = {}
            if i == 0:
                img[F.labels(0)[0]] = 1
            elif l.tag[0] == "S":
                spoke_set, repeat_free = zify_indices(dec, l.tag[1:])
                if repeat_free:
                    img[F.find_label(("e",) + spoke_set)] = 1
    return entries


def divide_by_monomial(p: Polynomial, m: Monomial) -> Polynomial:
    """Exact division of every term of p by m; raises if any term fails."""
    return Polynomial(p.ring, {monomial_divide(t, m): c for t, c in p.terms.items()})


def taylor_table(T: LabeledFreeComplex, V: tuple[int, ...], W: tuple[int, ...], kind: str) -> ScalarProduct:
    """e_V e_W as the sign on the label (kind, *V union W) of T, or empty
    when V and W meet, from the index tuples; kind "e" in a Taylor complex,
    "F", "G" or "S" for a copy in the cone of `diam4`."""
    if set(V) & set(W):
        return ScalarProduct()
    union = tuple(sorted(V + W))
    return ScalarProduct({T.find_label((kind,) + union): taylor_sign(V, W)})


def taylor_product(T: LabeledFreeComplex):
    """e_V e_W = (-1)^sigma(V, W) (m_V m_W / m_{V union W}) e_{V union W}."""

    def product(a: BasisLabel, b: BasisLabel) -> Element:
        V, W = a.tag[1:], b.tag[1:]
        deg = len(V) + len(W)
        if set(V) & set(W):
            return element(T, deg, {})
        union = tuple(sorted(V + W))
        lab = T.find_label(("e",) + union)
        coeff = monomial_divide(a.multidegree * b.multidegree, lab.multidegree)
        return element(T, deg, {lab: Polynomial.monomial(coeff, taylor_sign(V, W))})

    return product


def cone_product(dec: StarDecomposition, cone: LabeledFreeComplex):
    """The product on Cone(Psi) from the table in the `diam4` docstring."""
    ring = dec.ring
    z = ring.variable(dec.center)

    def find(tag, size):
        return cone.find_label(tag)

    def f_times_f(V, W) -> VecT:
        res = taylor_product_label(dec.ideal_i, V, W)
        if res is None:
            return {}
        sign, coeff, union = res
        return {find(("F",) + union, len(union)): Polynomial.monomial(coeff, sign)}

    def g_times_g(V, W, copy: str) -> VecT:
        res = taylor_product_label(dec.ideal_j, V, W)
        if res is None:
            return {}
        sign, coeff, union = res
        deg = len(union) if copy == "G" else len(union) + 1
        return {find((copy,) + union, deg): Polynomial.monomial(coeff, sign)}

    def phi_times_f(V, W) -> VecT:
        """(1/z) f_V Phi(g_W), y_W f_{V union W_z} or 0."""
        spoke_set, repeat_free = zify_indices(dec, W)
        if not repeat_free:
            return {}
        res = taylor_product_label(dec.ideal_i, V, spoke_set)
        if res is None:
            return {}
        sign, coeff, union = res
        poly = Polynomial.monomial(coeff, sign) * Polynomial.monomial(y_part(dec, W))
        return {find(("F",) + union, len(union)): divide_by_monomial(poly, z)}

    def omega(V, W) -> VecT:
        """-x_q g_W on the twisted copy when V = {q}, else 0."""
        if len(V) != 1:
            return {}
        xq = ring.variable(dec.spokes[V[0]])
        return {find(("S",) + tuple(W), len(W) + 1): Polynomial.monomial(xq, -1)}

    def f_times_g(V, W) -> VecT:
        coords = dict(phi_times_f(V, W))
        for l, p in omega(V, W).items():
            coords[l] = coords.get(l, Polynomial.zero(ring)) + p
        return coords

    def product(a: BasisLabel, b: BasisLabel) -> Element:
        ka, va = a.tag[0], a.tag[1:]
        kb, vb = b.tag[0], b.tag[1:]
        da = len(va) + (ka == "S")
        db = len(vb) + (kb == "S")
        deg = da + db
        if ka == "F" and not va:
            return Element.basis(cone, b)
        if kb == "F" and not vb:
            return Element.basis(cone, a)
        if ka == "F" and kb == "F":
            return element(cone, deg, f_times_f(va, vb))
        if ka == "G" and kb == "G":
            return element(cone, deg, g_times_g(va, vb, "G"))
        if ka == "F" and kb == "G":
            return element(cone, deg, f_times_g(va, vb))
        if ka == "G" and kb == "F":
            return element(cone, deg, f_times_g(vb, va)).scale(-1 if (da % 2 and db % 2) else 1)
        if ka == "G" and kb == "S":
            return element(cone, deg, g_times_g(va, vb, "S")).scale(-1 if da % 2 else 1)
        if ka == "S" and kb == "G":
            return element(cone, deg, g_times_g(va, vb, "S"))
        return Element.zero(cone, deg)

    return product


def quotient_product(parent: DGStructure, quotient: DGStructure, project):
    """The parent's product of the labels with the quotient's tags,
    projected by `project`, the projection of the reference elimination
    that builds the quotient from the parent."""
    qcx, degree, find = quotient.complex, quotient.degree, parent.complex.find_label

    def product(a: BasisLabel, b: BasisLabel) -> Element:
        deg = degree[a] + degree[b]
        return element(qcx, deg, project(coords(parent.basis_product(find(a.tag), find(b.tag))), deg))

    return product
