"""Minimal dg resolutions for edge ideals of trees of diameter at most 4.

A tree of diameter <= 4 is a star of stars: a center z, spokes x_1..x_n,
and a_i leaves y_{i,1}..y_{i,a_i} hanging off spoke x_i.  Its edge ideal
splits as I_Gamma = I + J with I = (z x_1, ..., z x_n) (a diameter-<=2
star, Taylor-minimal) and J = (x_i y_{i,j}) (a forest of stars,
Taylor-minimal).  The resolution of Q/I_Gamma is glued from the Taylor
resolutions F of Q/I and G of Q/J:

  * G' := Cone(z * id on the desuspended truncation of G) resolves J/zJ;
    its degree-i piece is G_{i+1} (+) z-twisted G_i.
  * Psi: G' -> F is the chain map that in degree 0 sends a generator of J
    to itself (an element of F_0 = Q) and in higher degrees sends the
    twisted copy of g_W to y_W f_{W_z} ("z-ification": each x_i y_{i,j} in
    W is replaced by z x_i; if two members of W share a spoke the target
    f_{W_z} is read as 0).
  * Cone(Psi) is then a minimal free resolution of Q/I_Gamma; its degree-i
    piece is F_i (+) G_i (+) z-twisted G_{i-1}, written (f, g1, g2).

The product: with Phi(g_W) := y_W f_{W_z} extended linearly, and
omega_f(g) := -x_q * (g moved to the twisted copy) when f is a degree-1
basis element of F with d(f) = z x_q (omega is 0 on degrees != 1 and is
extended linearly in f),

  (f,0,0)(f',0,0)   = (f f', 0, 0)            products inside F
  (0,g,0)(0,g',0)   = (0, g g', 0)            products inside G
  (f,0,0)(0,g,0)    = ((1/z) f Phi(g), 0, omega_f(g))
  (0,g,0)(f,0,0)    = ((1/z) Phi(g) f, 0, (-1)^{|g|} omega_f(g))
  (0,g,0)(0,0,g')   = (-1)^{|g|} (0, 0, g g')
  (0,0,g)(0,g',0)   = (0, 0, g g')
  (f,0,0)(0,0,g) = (0,0,g)(f,0,0) = (0,0,g)(0,0,g') = 0

The division by z never leaves the polynomials: (1/z) f_V Phi(g_W) is
either 0 or y_W f_{V union W_z}.  So, as every product here, it is stored
as a coefficient on its label (`dg.ScalarProduct`), and storing it checks
that the label's multidegree divides m_a m_b.  The F*F, G*G, G*S, S*G and
f_V f_{W_z} terms are Taylor products in one copy, read off the bitmask
index of the copies F, G and S (`taylor.mask_index`, `taylor.mask_product`);
each G label carries the bitmask of W_z, computed once.

z-ification has one implementation, `zify`, on bitmasks: each J-generator
carries the bit of its spoke (`StarDecomposition.spoke_bits`), and W_z is
the union of the bits under W, None when two of them coincide.  Psi, the
cone product and both z-ification lemma checks call it, and the lemma
checks take their signs from `taylor.mask_sign`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from math import comb

from .combin import Graph, GraphError, edge_monomial, graph_shape
from .complexes import (
    BasisLabel,
    ChainMap,
    LabeledFreeComplex,
    combine,
    desuspend_truncation,
    mapping_cone,
    multiplication_map,
)
from .dg import ZERO, DGStructure, ScalarProduct
from .poly import MonomialIdeal, VariableSet, lcm_of, monomial_divide, monomial_lcm
from .taylor import below_mask, index_mask, mask_index, mask_product, mask_sign, taylor_resolution


@dataclass
class StarDecomposition:
    graph: Graph
    ring: VariableSet
    center: str
    spokes: tuple[str, ...]
    leaves: dict[str, tuple[str, ...]]  # spoke -> leaves, both in fixed order
    ideal_i: MonomialIdeal  # (z x_i), spoke order
    ideal_j: MonomialIdeal  # (x_i y_{i,l}), (spoke, leaf) order
    ideal_total: MonomialIdeal  # generators of I then J

    @property
    def n(self) -> int:
        return len(self.spokes)

    @property
    def ell(self) -> int:
        return len(self.ideal_j.generators)

    @cached_property
    def spoke_bits(self) -> tuple[int, ...]:
        """The bit 1 << i of the spoke x_i under each J-generator."""
        return tuple(1 << i for i, s in enumerate(self.spokes) for _ in self.leaves[s])


def star_decompose(graph: Graph) -> StarDecomposition:
    """Decompose a tree of diameter <= 4 as center/spokes/leaves.

    The center is a vertex of eccentricity <= 2 (the middle of a longest
    path); ties are broken by degree and then vertex order, so the result
    is deterministic.  Raises for non-trees and diameter >= 5.

    One `graph_shape` pass gives a longest path u..w and every vertex's
    distances from u and w, and in a tree ecc(v) = max(d(v,u), d(v,w)).
    Proof: let D = d(u,w), p the vertex of the u..w path nearest v, and x
    any vertex, q the path vertex nearest x and h = d(x,q).  The paths x..q..w
    and x..q..u are no longer than D, so h <= d(q,u) and h <= d(q,w).  If q
    lies on the w side of p, d(v,x) = d(v,p) + d(p,q) + h <= d(v,p) + d(p,w)
    = d(v,w); on the u side, symmetrically, d(v,x) <= d(v,u); if q = p,
    d(v,x) <= d(v,p) + h <= d(v,p) + d(p,u) = d(v,u).  So no vertex is
    farther from v than u or w.  The middle vertex of the path has
    eccentricity ceil(D/2) <= 2, so a center exists.
    """
    shape = graph_shape(graph)
    if shape.family != "tree":
        raise GraphError("star_decompose needs a tree")
    if len(graph.vertices) < 2:
        raise GraphError("star_decompose needs at least one edge")
    if shape.diameter > 4:
        raise GraphError(f"tree has diameter {shape.diameter} > 4")
    adj, (du, dw) = shape.adjacency, shape.ends
    # max keeps the first vertex of the largest degree
    center = max((v for v in graph.vertices if max(du[v], dw[v]) <= 2), key=lambda v: len(adj[v]))

    spokes = tuple(adj[center])
    leaves = {
        s: tuple(w for w in adj[s] if w != center) for s in spokes
    }
    ring = VariableSet(graph.non_isolated())
    gens_i = tuple(edge_monomial(ring, center, s) for s in spokes)
    gens_j = tuple(edge_monomial(ring, s, y) for s in spokes for y in leaves[s])
    return StarDecomposition(
        graph=graph,
        ring=ring,
        center=center,
        spokes=spokes,
        leaves=leaves,
        ideal_i=MonomialIdeal(ring, gens_i),
        ideal_j=MonomialIdeal(ring, gens_j),
        ideal_total=MonomialIdeal(ring, gens_i + gens_j),
    )


# ---------------------------------------------------------------------------
# z-ification


def zify(dec: StarDecomposition, W: int) -> int | None:
    """W_z: the bitmask of the spokes under the J-generators in the bitmask
    W (each x_i y_{i,l} in W becomes z x_i), or None with a repeat (two
    members of W on one spoke), where the z-ified Taylor symbol is 0."""
    bits, wz = dec.spoke_bits, 0
    while W:
        low = W & -W
        bit = bits[low.bit_length() - 1]
        if wz & bit:
            return None
        wz |= bit
        W ^= low
    return wz


# ---------------------------------------------------------------------------
# the complexes


def build_g_prime(dec: StarDecomposition) -> tuple[LabeledFreeComplex, LabeledFreeComplex]:
    """(G', G): G is the Taylor resolution of Q/J and G' = Cone(mu_z) on the
    desuspended truncation of G, resolving J/zJ.

    G'-labels: ("G", W...) with multidegree m_W at homological degree
    |W| - 1, and ("S", W...) with multidegree z m_W at degree |W|.
    """
    G = taylor_resolution(dec.ideal_j)
    S = desuspend_truncation(G)
    z = dec.ring.variable(dec.center)
    mu = multiplication_map(S, z)
    Gp = mapping_cone(
        mu,
        target_relabel=lambda tag: ("G",) + tag[1:],
        source_relabel=lambda tag: ("S",) + tag[1:],
        name="G'",
    )
    return Gp, G


def build_psi(
    dec: StarDecomposition, Gp: LabeledFreeComplex, F: LabeledFreeComplex
) -> ChainMap:
    """Psi: G' -> F; degree 0 sends g_{w} to w * 1_F, higher degrees send
    the twisted copy of g_W to y_W f_{W_z} and the plain copy to 0.  Each
    image is its label's multidegree: w = m_w / 1 and y_W = z m_W / m_{W_z},
    so every entry is the coefficient 1.  f_{W_z} is read off the bitmask
    index of F (`taylor.mask_index`)."""
    unit_f = F.labels(0)[0]
    _, at = mask_index(F, "e")
    entries: dict[BasisLabel, dict] = {}
    for i in Gp.degrees():
        for l in Gp.labels(i):
            kind, W = l.tag[0], l.tag[1:]
            img = entries[l] = {}
            if i == 0:
                # G-copy of a single J-generator; its boundary in G_0 = Q
                img[unit_f] = 1
            elif kind == "S" and (wz := zify(dec, index_mask(W))) is not None:
                img[at[wz]] = 1
    return ChainMap(Gp, F, entries)


@dataclass
class ConeResolution:
    decomposition: StarDecomposition
    F: LabeledFreeComplex
    G: LabeledFreeComplex
    Gp: LabeledFreeComplex
    cone: LabeledFreeComplex
    dg: DGStructure


def build_cone_resolution(graph: Graph) -> ConeResolution:
    """Cone(Psi) with its multiplication, for a tree of diameter <= 4.

    For diameter <= 2 the ideal J is zero, G' is the empty complex, and the
    cone is just the Taylor resolution F (relabeled); the product table is
    then the Taylor product.
    """
    dec = star_decompose(graph)
    F = taylor_resolution(dec.ideal_i)
    Gp, G = build_g_prime(dec)
    psi = build_psi(dec, Gp, F)
    cone = mapping_cone(
        psi,
        target_relabel=lambda tag: ("F",) + tag[1:],
        source_relabel=lambda tag: tag,
        name=f"Cone(Psi){dec.ideal_total}",
    )
    dg = DGStructure(cone, _cone_product_fn(dec, cone))
    return ConeResolution(dec, F, G, Gp, cone, dg)


def _cone_product_fn(dec, cone):
    """The cone product as `ScalarProduct`s: each term is c*(m_a m_b/m_l) e_l
    (F*F, G*G, G*S and S*G: the Taylor sign on the union label in that
    copy; (1/z) f_V Phi(g_W) = y_W f_{V union W_z}: the sign sigma(V, W_z),
    the Taylor product f_V f_{W_z}; omega: -1).  Each is read off the
    bitmask index of the copies F, G and S (`taylor.mask_index`); a G label
    also carries the bitmask of W_z, None with a repeat."""
    index: dict[BasisLabel, tuple[int, int]] = {}
    at = {}
    for kind in ("F", "G", "S"):
        got, at[kind] = mask_index(cone, kind)
        index.update(got)
    at_f, at_g, at_s = at["F"], at["G"], at["S"]
    zified = {}
    for l in at_g.values():
        wz = zify(dec, index[l][0])
        zified[l] = None if wz is None else (wz, below_mask(wz))

    def f_times_g(f: BasisLabel, g: BasisLabel, sign: int) -> ScalarProduct:
        """sign * ((1/z) f_V Phi(g_W), 0, omega_{f_V}(g_W)) (V from G(I), W
        from G(J)); the first part is y_W f_{V union W_z} or 0."""
        V, W, out = index[f][0], index[g][0], ScalarProduct()
        if (wz := zified[g]) is not None:
            for l, c in mask_product(at_f, V, *wz).items():
                out[l] = sign * c
        if len(f.tag) == 2:  # omega_{f_q}(g_W) = -x_q g_W on the twisted copy
            out[at_s[W]] = -sign
        return out

    def product(a: BasisLabel, b: BasisLabel) -> ScalarProduct:
        ka, kb = a.tag[0], b.tag[0]
        # unit action
        if a.tag == ("F",):
            return ScalarProduct({b: 1})
        if b.tag == ("F",):
            return ScalarProduct({a: 1})
        (V, _), (W, below) = index[a], index[b]
        if ka == kb == "F":
            return mask_product(at_f, V, W, below)
        if ka == kb == "G":
            return mask_product(at_g, V, W, below)
        if ka == "F" and kb == "G":
            return f_times_g(a, b, 1)
        if ka == "G" and kb == "F":
            # (0,g,0)(f,0,0) = ((1/z) Phi(g) f, 0, (-1)^{|g|} omega_f(g));
            # commuting Phi(g) past f inside F gives the global sign
            # (-1)^{|g||f|}, and omega is only nonzero for |f| = 1.
            return f_times_g(b, a, -1 if (len(a.tag) % 2 == 0 and len(b.tag) % 2 == 0) else 1)
        if ka == "G" and kb == "S":
            prod = mask_product(at_s, V, W, below)
            return ScalarProduct({l: -c for l, c in prod.items()}) if len(a.tag) % 2 == 0 else prod
        if ka == "S" and kb == "G":
            return mask_product(at_s, V, W, below)
        # (F,S), (S,F), (S,S) all vanish
        return ZERO

    return product


# ---------------------------------------------------------------------------
# Betti numbers


def diam4_betti(n: int, leaf_counts) -> tuple[int, ...]:
    """Total Betti numbers of Q/I_Gamma for the diameter-<=4 tree with n
    spokes and the given leaf counts:
    beta_0 = 1, beta_1 = ell + n, beta_i = C(ell+1, i) + C(n, i) for i >= 2,
    ending at pd = max(ell + 1, n)."""
    counts = tuple(leaf_counts)
    if len(counts) != n:
        raise ValueError("need one leaf count per spoke")
    ell = sum(counts)
    if ell == 0:
        pd = n
        out = [1] + [comb(n, i) for i in range(1, pd + 1)]
        return tuple(out)
    pd = max(ell + 1, n)
    out = [1, ell + n]
    for i in range(2, pd + 1):
        out.append(comb(ell + 1, i) + comb(n, i))
    return tuple(out)


def lyubeznik_betti(a: int, b: int, c: int) -> tuple[int, ...]:
    """Total Betti numbers of Q/I_{L(a,b,c)}: 1, a+b+2c+1, then
    C(a+c+1, i) + C(b+c+1, i); pd = max(a+c+1, b+c+1)."""
    pd = max(a + c + 1, b + c + 1)
    out = [1, a + b + 2 * c + 1]
    for i in range(2, pd + 1):
        out.append(comb(a + c + 1, i) + comb(b + c + 1, i))
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


# ---------------------------------------------------------------------------
# the structural facts behind the product, machine-checkable per tree


def _subsets(ell: int) -> list[tuple[tuple[int, ...], int]]:
    """The nonempty subsets of range(ell) in `combinations` order, each as
    (index tuple, bitmask)."""
    return [(W, index_mask(W)) for size in range(1, ell + 1) for W in combinations(range(ell), size)]


def check_phi_z_multiplicative(dec: StarDecomposition) -> dict:
    """z Phi(g V g W) = Phi(g V) Phi(g W) on every pair of G-basis subsets.

    (This is the off-by-z failure of Phi to be a dg morphism; exactness of
    the relation is what makes the (1/z)-products land in F.)  Each m_W is
    computed once, and so is Phi(g_W) = y_W f_{W_z}, as (W_z, below_mask(W_z),
    y_W = m_W / x_{W_z}, m_{W_z}) on bitmasks (`zify`), None with a repeat.
    Each side is a single term, compared as (label, sign, monomial), or 0;
    the Taylor products on both sides have the sign `taylor.mask_sign` and
    the coefficient m_V m_W / lcm(m_V, m_W).
    """
    ring, gens_i, gens_j = dec.ring, dec.ideal_i.generators, dec.ideal_j.generators
    z = ring.variable(dec.center)
    subsets = _subsets(dec.ell)
    m = {W: lcm_of((gens_j[j] for j in Wt), ring) for Wt, W in subsets}
    below = {W: below_mask(W) for _, W in subsets}
    phi = {}
    for Wt, W in subsets:
        wz = zify(dec, W)
        if wz is None:
            phi[W] = None
            continue
        spokes = [i for i in range(dec.n) if wz >> i & 1]
        x_w = lcm_of((ring.variable(dec.spokes[i]) for i in spokes), ring)
        phi[W] = (wz, below_mask(wz), monomial_divide(m[W], x_w), lcm_of((gens_i[i] for i in spokes), ring))
    failures = []
    for Vt, V in subsets:
        pv = phi[V]
        for Wt, W in subsets:
            lhs = rhs = None
            if not V & W and (pu := phi[V | W]) is not None:
                coeff = monomial_divide(m[V] * m[W], m[V | W])  # m_{V u W} = lcm(m_V, m_W)
                lhs = (pu[0], mask_sign(V, below[W]), coeff * z * pu[2])
            pw = phi[W]
            if pv is not None and pw is not None and not pv[0] & pw[0]:
                (vz, _, yv, mv), (wz, wbelow, yw, mw) = pv, pw
                cf = monomial_divide(mv * mw, monomial_lcm(mv, mw))
                rhs = (vz | wz, mask_sign(vz, wbelow), yv * yw * cf)
            if lhs != rhs:
                failures.append({"V": list(Vt), "W": list(Wt)})
    return {"ok": not failures, "failures": failures}


def check_sigma_zification(dec: StarDecomposition) -> dict:
    """For disjoint V, W in G(J) with repeat-free, disjoint z-ifications,
    the commutation signs agree: sigma(V, W) = sigma(V_z, W_z) mod 2, each
    read as `taylor.mask_sign` on bitmasks."""
    subsets = [(Wt, W, below_mask(W), zify(dec, W)) for Wt, W in _subsets(dec.ell)]
    zbelow = {wz: below_mask(wz) for *_, wz in subsets if wz is not None}
    failures = []
    for Vt, V, _, vz in subsets:
        if vz is None:
            continue
        for Wt, W, wbelow, wz in subsets:
            if V & W or wz is None or vz & wz:
                continue
            if mask_sign(V, wbelow) != mask_sign(vz, zbelow[wz]):
                failures.append({"V": list(Vt), "W": list(Wt)})
    return {"ok": not failures, "failures": failures}


def check_boundary_action(res: ConeResolution) -> dict:
    """(d f, 0, 0) (0, g, 0) equals ((1/z) d(f) Phi(g), 0, 0) for |f| > 1
    and (0, d(f) g, 0) for |f| = 1, on every pair of an F label f and a G
    label g.  It reads F*G products only: `dg_check` alone covers G*S and S*G.

    (The |f| = 1 case is where omega comes from: d(f_q) = z x_q acts on the
    G-copy through the scalar z x_q.)  Both sides have multidegree m_f m_g
    and are read as {label: c} off the stored column of d(f) and the stored
    products: (d f) g = sum c_r (r g) over d(f) = {r: c_r}, and z x_q g is
    {g: 1}.
    """
    cone, dg = res.cone, res.dg
    gs = [g for g in cone.degree if g.tag[0] == "G"]
    failures = []
    for i in cone.degrees():
        for f in cone.labels(i):
            if f.tag[0] != "F" or len(f.tag) == 1:
                continue
            for g in gs:
                lhs = combine((c, dg.table(r, g)) for r, c in cone.diff[i][f].items())
                rhs = {g: 1} if i == 1 else {l: x for l, x in lhs.items() if l.tag[0] == "F"}
                if lhs != rhs:
                    failures.append({"f": list(f.tag[1:]), "g": list(g.tag[1:])})
    return {"ok": not failures, "failures": failures}
