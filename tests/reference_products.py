"""Basis products as Elements, the oracle for the stored `ScalarProduct`s.

These are the product functions the dg structures had before they stored
coefficients: the Taylor product, the mapping-cone product of `diam4` and
the product of a `quotient_dg` quotient, each returning an `Element` built
in `Polynomial` arithmetic.  The cone product divides by z with
`divide_by_monomial`; the quotient product projects the parent
product with `QuotientDG.project`.  The tests compare every stored product
table, formatted with `entry_polynomial`, against them.  `taylor_table` is
the Taylor product as a `ScalarProduct` from index tuples, the oracle for
the bitmask products of `taylor.mask_product`.
"""

from __future__ import annotations

from dgres.complexes import BasisLabel, LabeledFreeComplex, VecT
from dgres.dg import DGStructure, Element, QuotientDG, ScalarProduct
from dgres.diam4 import StarDecomposition, y_part, zify_indices
from dgres.poly import Monomial, Polynomial, monomial_divide
from dgres.taylor import taylor_product_label, taylor_sign


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
            return Element(T, deg, {})
        union = tuple(sorted(V + W))
        lab = T.find_label(("e",) + union)
        coeff = monomial_divide(a.multidegree * b.multidegree, lab.multidegree)
        return Element(T, deg, {lab: Polynomial.monomial(coeff, taylor_sign(V, W))})

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
            return Element(cone, deg, f_times_f(va, vb))
        if ka == "G" and kb == "G":
            return Element(cone, deg, g_times_g(va, vb, "G"))
        if ka == "F" and kb == "G":
            return Element(cone, deg, f_times_g(va, vb))
        if ka == "G" and kb == "F":
            return Element(cone, deg, f_times_g(vb, va)).scale(-1 if (da % 2 and db % 2) else 1)
        if ka == "G" and kb == "S":
            return Element(cone, deg, g_times_g(va, vb, "S")).scale(-1 if da % 2 else 1)
        if ka == "S" and kb == "G":
            return Element(cone, deg, g_times_g(va, vb, "S"))
        return Element.zero(cone, deg)

    return product


def quotient_product(parent: DGStructure, q: QuotientDG):
    """The parent's product of the matching survivors, projected."""
    qcx, degree = q.structure.complex, q.structure.degree
    back = {
        new: old
        for i in parent.complex.degrees()
        for old, new in zip(q.elimination.survivors[i], qcx.labels(i))
    }

    def product(a: BasisLabel, b: BasisLabel) -> Element:
        prod = parent.basis_product(back[a], back[b])
        if prod.is_zero():
            return Element.zero(qcx, degree[a] + degree[b])
        return q.project(prod)

    return product
