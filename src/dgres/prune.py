"""Pruning of free complexes (Boocher 2012) and dg descent along pruning.

Given a complex of free Q-modules with chosen bases (differentials as
matrices A_i) and a set Z of variables, the pruning P(F, Z) over Q/(Z) is
computed by one pass i = 1..top:

  (a) set the variables in Z to zero inside A_i; let U index the columns
      of A_i that became identically zero;
  (b) delete the rows of A_{i+1}, the basis elements of F_i, and the
      columns of A_i indexed by U.

The intermediate stages need not be complexes; the result is, and for the
minimal free resolution of a monomial ideal it is the minimal free
resolution of the pruned ideal over the smaller ring (Boocher 2012,
Thm 2.3).

For a squarefree monomial ideal whose minimal resolution F carries a dg
algebra structure presented as a Taylor quotient T/J (J spanned by the
two-term subcomplexes Q e_V -> Q d(e_V) over the sources of a Morse
matching), the dg structure descends to P(F, Z): the span

    I_Z = < e_V, d(e_V) : V contains a generator divisible by some z in Z >

is a dg ideal of T, its image under T ->> T/J = F is a dg ideal of F, and
F / im(I_Z) tensored down to Q/(Z) is P(F, Z).  That quotient is F
restricted to its labels whose multidegree has no Z-variable, relabelled
over Q/(Z) (`descend`; for a multigraded F this is the restriction lemma
of Gasharov-Hibi-Peeva 2002, and it agrees with Boocher's pruning):
  * each label of F is a Taylor cell e_V; its multidegree m_V has a
    variable of Z exactly when V contains a Z-divisible generator;
  * d(e_c) has terms only on labels whose multidegree divides m_c, and
    e_a e_b only on labels dividing m_a m_b, so the labels without a
    Z-variable span a sub-dg-algebra F' of F;
  * over Q/(Z), im(I_Z) is spanned by the other labels: each is e_V for a
    Z-divisible V, and any other term of a generator of I_Z lies on a
    label l without a Z-variable, so its monomial m_V / m_l carries one
    and vanishes over Q/(Z);
  * hence F / im(I_Z) tensor Q/(Z) = F' tensor Q/(Z) as dg algebras, and
    F' keeps its entries and products, whose monomials have no
    Z-variable.
`prune_dg` builds F, descends it, and compares the result with Boocher's
pruning of the Lyubeznik resolution.

Entries are stored coefficients whose monomials the labels imply (see
`complexes`), so step (a) reads only labels: the entry c * (m_c / m_r)
vanishes once Z is set to zero exactly when m_c and m_r differ in a
Z-exponent.  A surviving entry keeps its coefficient.
"""

from __future__ import annotations

from dataclasses import dataclass

from .complexes import (
    BasisLabel,
    ComplexReport,
    LabeledFreeComplex,
    complexes_equal,
    grid,
    killed,
    tag_to_json,
)
from .dg import ZERO, DGStructure, QuotientDG, ScalarProduct
from .morse import lyubeznik_matching, lyubeznik_resolution, matching_quotient
from .poly import MonomialIdeal, _monomial


def prune_ideal(ideal: MonomialIdeal, znames) -> MonomialIdeal:
    """I' = I/(Z) over Q/(Z): drop generators divisible by a Z-variable."""
    znames = tuple(znames)
    ring2 = ideal.ring.deactivate(znames)
    idx = [ideal.ring.index(n) for n in znames]
    # valid over ring2: each kept generator is valid over ideal.ring and has
    # no Z-variable
    gens = tuple(
        _monomial(ring2, g.exponents)
        for g in ideal.generators
        if not any(g.exponents[i] for i in idx)
    )
    return MonomialIdeal(ring2, gens)


@dataclass
class PruneStage:
    """Snapshot of one loop iteration: A_i after substitution and column
    deletion, the deleted degree-i basis tags, and A_{i+1} after the row
    deletion (entries of A_{i+1} not yet substituted).

    The stage keeps the labels of degrees i-1, i and i+1 and its own copies
    of the two column tables; `matrix` and `next_matrix` render the string
    grids, zeros included, only when read (`complexes.grid`).  The copies are snapshots because
    the loop replaces columns and never edits one in place."""

    degree: int
    deleted: list
    labels_below: list[BasisLabel]  # degree i-1, the rows of A_i
    labels: list[BasisLabel]  # degree i, after the deletion
    labels_above: list[BasisLabel]  # degree i+1, the columns of A_{i+1}
    table: dict  # A_i, columns by label
    next_table: dict  # A_{i+1}, columns by label

    @property
    def matrix(self) -> list[list[str]]:
        return grid(self.labels_below, self.labels, self.table)

    @property
    def next_matrix(self) -> list[list[str]]:
        return grid(self.labels, self.labels_above, self.next_table)

    def to_json(self) -> dict:
        return {
            "degree": self.degree,
            "deleted": self.deleted,
            "matrix": self.matrix,
            "next_matrix": self.next_matrix,
        }


@dataclass
class PruneResult:
    original: LabeledFreeComplex
    pruned: LabeledFreeComplex
    stages: list[PruneStage]
    report: ComplexReport

    def to_json(self) -> dict:
        return {
            "stages": [s.to_json() for s in self.stages],
            "pruned": self.pruned.to_json(),
            "report": self.report.to_json(),
        }


def prune_complex(F: LabeledFreeComplex, znames) -> PruneResult:
    """Boocher's pruning loop, with a per-stage trace.

    Setting Z to zero kills a stored coefficient c of c * (m_c / m_r) iff
    m_c / m_r has a Z-variable, which the labels decide.  Surviving labels
    keep their tags; their multidegrees get the Z-exponents stripped so the
    result is multigraded over Q/(Z), where a surviving coefficient keeps
    its meaning.
    """
    znames = tuple(znames)
    idx = [F.ring.index(n) for n in znames]
    bases: dict[int, list[BasisLabel]] = {i: list(F.labels(i)) for i in F.degrees()}
    diffs: dict[int, dict[BasisLabel, dict]] = {
        i: {c: dict(col) for c, col in F.diff.get(i, {}).items()}
        for i in F.degrees()
        if i >= 1
    }

    stages: list[PruneStage] = []
    for i in range(1, F.top_degree() + 1):
        cols = diffs.get(i, {})
        for c, col in cols.items():
            cols[c] = {r: v for r, v in col.items() if not killed(r.multidegree, c.multidegree, idx)}
        dead = [c for c in bases.get(i, []) if not cols.get(c)]
        deadset = set(dead)
        bases[i] = [c for c in bases[i] if c not in deadset]
        for c in dead:
            cols.pop(c, None)
        nxt = diffs.get(i + 1, {})
        for c2 in list(nxt):
            nxt[c2] = {r: v for r, v in nxt[c2].items() if r not in deadset}
        stages.append(
            PruneStage(
                degree=i,
                deleted=[tag_to_json(c.tag) for c in dead],
                labels_below=bases.get(i - 1, []),
                labels=bases[i],
                labels_above=bases.get(i + 1, []),
                table=dict(cols),
                next_table=dict(nxt),
            )
        )

    ring2 = F.ring.deactivate(znames)

    def strip(l: BasisLabel) -> BasisLabel:
        exps = list(l.multidegree.exponents)
        for j in idx:
            exps[j] = 0
        # valid over ring2: a label valid over F.ring with its Z-exponents zeroed
        return BasisLabel(l.tag, _monomial(ring2, tuple(exps)))

    newlab = {l: strip(l) for i in bases for l in bases[i]}
    basis = {i: [newlab[l] for l in lbls] for i, lbls in bases.items() if lbls}
    diff = {
        i: {newlab[c]: {newlab[r]: v for r, v in col.items()} for c, col in cols.items()}
        for i, cols in diffs.items()
        if cols
    }
    pruned = LabeledFreeComplex(
        ring2, basis, diff, name=f"P({F.name}, {{{', '.join(znames)}}})"
    )
    return PruneResult(F, pruned, stages, pruned.verify())


# ---------------------------------------------------------------------------
# dg descent


def descend(F: DGStructure, znames) -> DGStructure:
    """The dg structure F restricted to its labels whose multidegree has no
    Z-variable, relabelled over Q/(Z): P(F, Z) with F's products (see the
    module docstring).  A column or product of such labels has its terms
    on such labels, so both are F's, relabelled.  A product is read by
    `DGStructure.product`, so F is asked only for pairs of labels off Z
    and fills no row."""
    znames = tuple(znames)
    cx = F.complex
    idx = [cx.ring.index(n) for n in znames]
    ring2 = cx.ring.deactivate(znames)
    # valid over ring2: a label valid over cx.ring with no Z-variable
    new = {
        l: BasisLabel(l.tag, _monomial(ring2, l.multidegree.exponents))
        for l in cx.degree
        if not any(l.multidegree.exponents[j] for j in idx)
    }
    back = {p: l for l, p in new.items()}
    basis = {i: [new[l] for l in cx.labels(i) if l in new] for i in cx.degrees()}
    diff = {
        i: {new[c]: {new[r]: v for r, v in col.items()} for c, col in cols.items() if c in new}
        for i, cols in cx.diff.items()
    }
    P = LabeledFreeComplex(ring2, basis, diff, name=f"P({cx.name}, {{{', '.join(znames)}}})")

    def product(a: BasisLabel, b: BasisLabel) -> ScalarProduct:
        prod = F.product(back[a], back[b])
        return ScalarProduct({new[l]: c for l, c in prod.items()}) if prod else ZERO

    return DGStructure(P, product)


@dataclass
class PrunedDG:
    ideal: MonomialIdeal
    pruned_ideal: MonomialIdeal
    matching: list
    resolution_quotient: QuotientDG  # F = T/J
    descended: DGStructure  # P(F, Z) with F's products, `descend`
    boocher: PruneResult  # Boocher pruning of the Lyubeznik resolution
    matches_boocher: bool


def prune_dg(ideal: MonomialIdeal, znames) -> PrunedDG:
    """Descend the Lyubeznik-quotient dg structure along pruning by Z.

    F = T/J for the Lyubeznik matching (`morse.matching_quotient`, whose
    refusal of an invalid matching or of a J that is not a dg ideal
    propagates), then `descend`: F restricted to its labels off Z over
    Q/(Z), which is F / im(I_Z) over Q/(Z) (module docstring).  It is
    compared entry by entry with Boocher's pruning of the Lyubeznik
    resolution.
    """
    znames = tuple(znames)
    matching = lyubeznik_matching(ideal)
    qF = matching_quotient(ideal, matching)[1]
    P = descend(qF.structure, znames)
    boocher = prune_complex(lyubeznik_resolution(ideal), znames)
    return PrunedDG(
        ideal=ideal,
        pruned_ideal=prune_ideal(ideal, znames),
        matching=matching,
        resolution_quotient=qF,
        descended=P,
        boocher=boocher,
        matches_boocher=complexes_equal(P.complex, boocher.pruned),
    )
