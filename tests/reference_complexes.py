"""Constructions and comparisons of complexes that only the tests use.

- `tensor_complex`, F tensor G over Q, the naive product that criterion 7
  and `test_diam4` show is not a resolution;
- `equal_up_to_basis_scaling`, equality after rescaling basis elements by
  units, which criterion 3 and the Morse tests compare with;
- `strand_labels` and `strand_homology` of one strand, read from the
  `strands.StrandIndex` that `is_resolution_of` walks, built once per
  complex on the first strand read.
"""

from __future__ import annotations

from fractions import Fraction
from weakref import WeakKeyDictionary

from dgres.complexes import BasisLabel, ComplexError, LabeledFreeComplex
from dgres.poly import Monomial, monomial_divide
from dgres.strands import StrandIndex, positions


def tensor_complex(F: LabeledFreeComplex, G: LabeledFreeComplex) -> LabeledFreeComplex:
    """F tensor G over Q; label multidegrees multiply (they do not lcm), so
    squarefree inputs can produce non-squarefree labels."""
    if F.ring != G.ring:
        raise ComplexError("tensor over different rings")
    ring = F.ring
    basis: dict[int, list[BasisLabel]] = {}
    pair: dict[tuple[BasisLabel, BasisLabel], BasisLabel] = {}
    top = F.top_degree() + G.top_degree()
    for n in range(top + 1):
        row = []
        for i in range(n + 1):
            for a in F.labels(i):
                for b in G.labels(n - i):
                    l = BasisLabel(("ot", a.tag, b.tag), a.multidegree * b.multidegree)
                    pair[(a, b)] = l
                    row.append(l)
        if row:
            basis[n] = row
    # m_(a,b) / m_(r,b) = m_a / m_r, likewise for G: coefficients carry over
    diff: dict[int, dict[BasisLabel, dict]] = {}
    for n in range(1, top + 1):
        cols: dict[BasisLabel, dict] = {}
        for i in range(n + 1):
            dF, dG = F.diff.get(i, {}), G.diff.get(n - i, {})
            sign = -1 if i % 2 else 1
            for a in F.labels(i):
                for b in G.labels(n - i):
                    ab = pair[(a, b)]
                    col = {pair[(r, b)]: v for r, v in dF.get(a, {}).items()}
                    for r, v in dG.get(b, {}).items():
                        key = pair[(a, r)]
                        col[key] = col.get(key, 0) + sign * v
                    cols[ab] = col
        diff[n] = cols
    return LabeledFreeComplex(ring, basis, diff, name=f"{F.name}(x){G.name}")


def equal_up_to_basis_scaling(
    A: LabeledFreeComplex,
    B: LabeledFreeComplex,
    signs_only: bool = True,
) -> tuple[bool, dict | None]:
    """Equality after rescaling each basis element by a unit (by default by
    +-1 only).  Bases are matched by tag and order.  Returns (ok, scaling).
    """
    if A.degrees() != B.degrees():
        return False, None
    for i in A.degrees():
        if [l.tag for l in A.labels(i)] != [l.tag for l in B.labels(i)]:
            return False, None
    eps: dict[tuple, Fraction] = {}
    for l in A.labels(0):
        eps[l.tag] = Fraction(1)
    for i in A.degrees():
        if i == 0:
            continue
        for ca, cb in zip(A.labels(i), B.labels(i)):
            cola = {r.tag: (r, v) for r, v in A.diff.get(i, {}).get(ca, {}).items()}
            colb = {r.tag: (r, v) for r, v in B.diff.get(i, {}).get(cb, {}).items()}
            if set(cola) != set(colb):
                return False, None
            scale = None
            for rt in cola:
                (ra, va), (rb, vb) = cola[rt], colb[rt]
                if monomial_divide(ca.multidegree, ra.multidegree) != monomial_divide(cb.multidegree, rb.multidegree):
                    return False, None
                # with a_l = eps_l b_l one has A(r,c) = (eps_c/eps_r) B(r,c)
                want = Fraction(va, vb) * eps[rt]
                if scale is None:
                    scale = want
                elif scale != want:
                    return False, None
            if scale is None:
                scale = Fraction(1)
            if signs_only and scale not in (Fraction(1), Fraction(-1)):
                return False, None
            eps[ca.tag] = scale
    return True, {".".join(map(str, k)) if isinstance(k, tuple) else str(k): str(v) for k, v in eps.items()}


_INDEX: WeakKeyDictionary = WeakKeyDictionary()


def _index(F: LabeledFreeComplex) -> StrandIndex:
    """F's strand index, built on F's first strand read; its mod-2 ranks
    rest on d^2 = 0, so it records whether F verifies."""
    index = _INDEX.get(F)
    if index is None:
        index = _INDEX[F] = StrandIndex(F, F.verify().ok, ())
    return index


def strand_labels(F: LabeledFreeComplex, b: Monomial) -> dict[int, list[BasisLabel]]:
    """Labels whose multidegree divides b (componentwise, multiplicity
    counts: x^2 does not divide x)."""
    masks = _index(F).masks(b)
    return {i: [F.labels(i)[k] for k in positions(m)] for i, m in enumerate(masks)}


def strand_homology(F: LabeledFreeComplex, b: Monomial) -> tuple[int, ...]:
    """Dimensions of the homology of the b-strand, degree 0..top."""
    index = _index(F)
    return index.homology(index.masks(b))
