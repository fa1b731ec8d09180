"""The Taylor complex of a monomial ideal, with its standard multiplication.

Basis elements e_U are indexed by subsets U of the ordered generators
u_0 < u_1 < ... (indices refer to positions in the chosen order), listed in
each homological degree |U| by lexicographic index order.  Labels carry the
multidegree m_U = lcm(u_i : i in U).

Differential (sign sigma(u, U) = #{v in U : v < u}):

    d(e_U) = sum_{u in U} (-1)^{sigma(u,U)} (m_U / m_{U-u}) e_{U-u},

stored as the signs alone, the monomials implied by the labels (`complexes`).

Multiplication (zero when the index sets meet; sigma(V, W) counts the pairs
(v, w) in V x W with v > w):

    e_V e_W = (-1)^{sigma(V,W)} (m_V m_W / m_{V union W}) e_{V union W}

stored the same way, as the sign on e_{V union W} (`dg.ScalarProduct`).
A dg structure reads it off a bitmask index of its labels (`mask_index`):
{label: (bitmask of U, `below_mask` of U)} and {bitmask: label}.  Index
sets meet exactly when their bitmasks do, the union label is the one at
V | W, and sigma(V, W) mod 2 is the popcount parity of V & below_mask(W),
whose bit v says whether an odd number of w in W lie below v
(`mask_sign`, the one implementation of the sign, which `mask_product`
and the lemma checks of `diam4` call).  The cone of `diam4` reads each of
its Taylor copies F, G and S through the same index.

This product is unital, associative, graded commutative, and satisfies the
Leibniz rule, so the Taylor complex is always a dg algebra (Gemeda 1976).
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable

from .complexes import BasisLabel, ComplexError, LabeledFreeComplex
from .dg import ZERO, DGStructure, ScalarProduct
from .poly import MonomialIdeal, PolyError, monomial_lcm

MAX_GENERATORS = 63


def taylor_complex(
    ideal: MonomialIdeal, faces: Iterable[tuple[int, ...]], name: str
) -> LabeledFreeComplex:
    """The Taylor differential on `faces`, index tuples listed by size, as
    labels in that order; each entry is its sign, m_U / m_{U-u} implied by
    the labels.  PolyError unless the generators are a minimal system, and
    ComplexError when a facet of a face is missing."""
    if not ideal.is_minimal_system():
        raise PolyError("generators are not a minimal system; minimalize first")
    gens = ideal.generators
    label: dict[tuple[int, ...], BasisLabel] = {}
    basis: dict[int, list[BasisLabel]] = {}
    diff: dict[int, dict[BasisLabel, dict]] = {}

    def face(U: tuple[int, ...]) -> BasisLabel:
        try:
            return label[U]
        except KeyError:
            raise ComplexError(f"face {list(U)} is missing") from None

    for U in faces:
        m = monomial_lcm(face(U[:-1]).multidegree, gens[U[-1]]) if U else ideal.ring.one()
        lab = label[U] = BasisLabel(("e",) + U, m)
        basis.setdefault(len(U), []).append(lab)
        if U:  # sigma(u, U) = #{v in U : v < u} is the position of u
            diff.setdefault(len(U), {})[lab] = {
                face(U[:pos] + U[pos + 1 :]): -1 if pos % 2 else 1 for pos in range(len(U))
            }
    # stored by construction: each column is the label just made in degree
    # |U|, each row the label of a facet, made in degree |U|-1 (`face`
    # raises for a missing one), each entry the int +-1, and m_{U-u} divides
    # m_U because an lcm over a subset divides the lcm over the set
    return LabeledFreeComplex._from_stored(ideal.ring, basis, diff, name=name)


def taylor_resolution(ideal: MonomialIdeal) -> LabeledFreeComplex:
    """Taylor complex of Q/I with the generators, a minimal system
    (`taylor_complex`), in their given order (`MonomialIdeal.reorder` picks another)."""
    t = len(ideal.generators)
    if t > MAX_GENERATORS:
        raise PolyError(f"too many generators for the Taylor complex ({t} > {MAX_GENERATORS})")
    faces = (U for size in range(t + 1) for U in combinations(range(t), size))
    return taylor_complex(ideal, faces, f"Taylor{ideal}")


def index_mask(U: Iterable[int]) -> int:
    """The bitmask of a set of distinct indices."""
    return sum(1 << u for u in U)


def below_mask(W: int) -> int:
    """The bitmask whose bit v is set when an odd number of the indices in
    the bitmask W lie below v (every high bit is set when |W| is odd), so
    that sigma(V, W) is the popcount of V & below_mask(W) mod 2."""
    out = 0
    while W:
        low = W & -W
        out ^= -(low << 1)  # bits above the index of `low`
        W ^= low
    return out


def mask_sign(V: int, below: int) -> int:
    """(-1)^sigma(V, W) from the bitmask V and `below` = below_mask(W)."""
    return -1 if (V & below).bit_count() & 1 else 1


def mask_index(cx: LabeledFreeComplex, kind: str) -> tuple[dict[BasisLabel, tuple[int, int]], dict[int, BasisLabel]]:
    """The labels (kind, *U) of cx by index bitmask: {label: (bitmask of
    U, its `below_mask`)} and {bitmask of U: label}."""
    index: dict[BasisLabel, tuple[int, int]] = {}
    at: dict[int, BasisLabel] = {}
    for l in cx.degree:
        if l.tag[0] == kind:
            m = index_mask(l.tag[1:])
            index[l], at[m] = (m, below_mask(m)), l
    return index, at


def mask_product(at: dict[int, BasisLabel], V: int, W: int, below: int) -> ScalarProduct:
    """e_V e_W in one Taylor copy, from the bitmasks V and W (`below` is
    below_mask(W)): zero when they meet, else the sign (-1)^sigma(V, W) on
    the label at[V | W]."""
    if V & W:
        return ZERO
    return ScalarProduct({at[V | W]: mask_sign(V, below)})


def taylor_dg_structure(ideal: MonomialIdeal) -> DGStructure:
    """The Taylor resolution as a dg algebra (complex + multiplication), the
    product read off the bitmask index of its labels, marked `taylor` (the
    one place that sets it) for `dg.quotient_dg`'s superset-closure lemma."""
    T = taylor_resolution(ideal)
    index, at = mask_index(T, "e")

    def product(a: BasisLabel, b: BasisLabel) -> ScalarProduct:
        (V, _), (W, below) = index[a], index[b]
        return mask_product(at, V, W, below)

    dg = DGStructure(T, product)
    dg.taylor = True
    return dg
