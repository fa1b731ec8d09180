"""Elements in Polynomials, the oracle for `dgres.dg.Element`.

`ReferenceElement` is the element as it was before it stored coefficients:
every coordinate a `Polynomial`, sums and boundaries in `Polynomial`
arithmetic (`vec_add`, `vec_scale`, `apply_diff`), the multidegree
recomputed from the coordinates.
`reference_multiply` multiplies two of them through the stored basis
products of a `DGStructure`, each formatted with `entry_polynomial`, and
`reference_membership` decides span membership from the Polynomial
coordinates of the element and of the span's generators.  The tests compare
the stored form against them: strings, multidegrees, coordinates (in
order), boundaries, products and membership witnesses.
"""

from __future__ import annotations

from dataclasses import dataclass

from dgres import linalg
from dgres.complexes import BasisLabel, LabeledFreeComplex, tag_to_json
from dgres.dg import DGError, DGStructure, Element, SubmoduleSpan
from dgres.poly import Monomial, exact, monomial_divide

from reference_poly import (
    Polynomial,
    VecT,
    constant,
    coords,
    entry_polynomial,
    multidegree as poly_multidegree,
    single_term,
)


def vec_add(a: VecT, b: VecT) -> VecT:
    out = dict(a)
    for k, p in b.items():
        q = out.get(k)
        s = p if q is None else q + p
        if s.is_zero():
            out.pop(k, None)
        else:
            out[k] = s
    return out


def vec_scale(a: VecT, c) -> VecT:
    out = {}
    for k, p in a.items():
        q = p * c
        if not q.is_zero():
            out[k] = q
    return out


def apply_diff(cx: LabeledFreeComplex, i: int, v: VecT) -> VecT:
    """d_i(v) for v = {label: Polynomial}, through the stored columns."""
    out: VecT = {}
    for c, p in v.items():
        for r, q in cx.diff.get(i, {}).get(c, {}).items():
            s = out.get(r, Polynomial.zero(cx.ring)) + p * entry_polynomial(q, r, c.multidegree)
            if s.is_zero():
                out.pop(r, None)
            else:
                out[r] = s
    return out


@dataclass
class ReferenceElement:
    complex: LabeledFreeComplex
    degree: int
    coords: VecT

    def __post_init__(self):
        self.coords = {k: v for k, v in self.coords.items() if not v.is_zero()}

    @staticmethod
    def of(el: Element) -> "ReferenceElement":
        return ReferenceElement(el.complex, el.degree, coords(el))

    @staticmethod
    def zero(cx: LabeledFreeComplex, degree: int) -> "ReferenceElement":
        return ReferenceElement(cx, degree, {})

    @staticmethod
    def basis(cx: LabeledFreeComplex, label: BasisLabel) -> "ReferenceElement":
        return ReferenceElement(cx, cx.degree_of(label), {label: constant(cx.ring, 1)})

    def is_zero(self) -> bool:
        return not self.coords

    def __add__(self, other: "ReferenceElement") -> "ReferenceElement":
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if self.degree != other.degree:
            raise DGError("adding elements of different homological degrees")
        return ReferenceElement(self.complex, self.degree, vec_add(self.coords, other.coords))

    def __sub__(self, other: "ReferenceElement") -> "ReferenceElement":
        return self + other.scale(-1)

    def scale(self, c) -> "ReferenceElement":
        return ReferenceElement(self.complex, self.degree, vec_scale(self.coords, c))

    def diff(self) -> "ReferenceElement":
        if self.degree == 0 or self.is_zero():
            return ReferenceElement.zero(self.complex, max(self.degree - 1, 0))
        return ReferenceElement(self.complex, self.degree - 1, apply_diff(self.complex, self.degree, self.coords))

    def multidegree(self) -> Monomial | None:
        found = None
        for l, p in self.coords.items():
            md = poly_multidegree(p)
            if md is None:
                return None
            total = md * l.multidegree
            if found is None:
                found = total
            elif found != total:
                return None
        return found

    def __str__(self) -> str:
        if not self.coords:
            return "0"
        parts = [f"({p})*{l}" for l, p in sorted(self.coords.items(), key=lambda kv: str(kv[0].tag))]
        return " + ".join(parts)


def reference_basis_product(dg: DGStructure, a: BasisLabel, b: BasisLabel) -> ReferenceElement:
    """The stored product e_a e_b, each coefficient formatted at m_a m_b."""
    prod = dg.table(a, b)
    want = a.multidegree * b.multidegree
    return ReferenceElement(dg.complex, dg.degree[a] + dg.degree[b], {
        l: entry_polynomial(c, l, want) for l, c in prod.items()
    })


def reference_multiply(dg: DGStructure, x: ReferenceElement, y: ReferenceElement) -> ReferenceElement:
    deg = x.degree + y.degree
    out = ReferenceElement.zero(dg.complex, deg)
    for a, p in x.coords.items():
        for b, q in y.coords.items():
            prod = reference_basis_product(dg, a, b)
            if prod.is_zero():
                continue
            pq = p * q
            out = out + ReferenceElement(dg.complex, deg, {l: pq * r for l, r in prod.coords.items()})
    return out


def _coefficients(el: ReferenceElement, what: str) -> tuple[Monomial | None, dict]:
    b = el.multidegree()
    if b is None and el.coords:
        raise DGError(f"{what} is not multigraded")
    return b, {l: exact(single_term(p)[1]) for l, p in el.coords.items()}


def reference_membership(span: SubmoduleSpan, element: ReferenceElement) -> tuple[bool, list[dict] | None]:
    """Membership with each generator's (b, {l: c}) read off its Polynomial
    coordinates."""
    if element.is_zero():
        return True, []
    b, vec = _coefficients(element, "a membership element")
    gens = [
        (g, *_coefficients(ReferenceElement.of(g.element), f"span generator {g.gen_id}"))
        for g in span.generators
    ]
    found = [(g, md, v) for g, md, v in gens if md is not None and g.element.degree == element.degree and md.divides(b)]
    rows: dict[BasisLabel, int] = {}
    *cols, rhs = ({rows.setdefault(l, len(rows)): c for l, c in v.items()} for v in [*(v for _, _, v in found), vec])
    sol = linalg.solve(cols, rhs)
    if sol is None:
        return False, None
    return True, [
        {"gen": tag_to_json(g.gen_id), "coefficient": str(c), "monomial_multiple": str(monomial_divide(b, md))}
        for (g, md, _), c in zip(found, sol)
        if c
    ]
