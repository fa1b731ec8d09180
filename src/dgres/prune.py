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
F / im(I_Z) tensored down to Q/(Z) is P(F, Z).  `prune_dg` carries out the
whole pipeline with machine checks at each stage.

Entries are stored coefficients whose monomials the labels imply (see
`complexes`), so step (a) reads only labels: the entry c * (m_c / m_r)
vanishes once Z is set to zero exactly when m_c and m_r differ in a
Z-exponent.  A surviving entry keeps its coefficient.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .complexes import (
    BasisLabel,
    ComplexReport,
    LabeledFreeComplex,
    complexes_equal,
    grid,
    killed,
    tag_to_json,
)
from .dg import QuotientDG, SpanGenerator, SubmoduleSpan, quotient_dg, span_from_matching_sources
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


def z_divisible_subsets(ideal: MonomialIdeal, znames) -> list[tuple[int, ...]]:
    """Index subsets V of G(I) containing a generator divisible by some
    variable in Z (the index sets spanning the dg ideal I_Z)."""
    idx = [ideal.ring.index(n) for n in znames]
    zgens = {
        j
        for j, g in enumerate(ideal.generators)
        if any(g.exponents[i] for i in idx)
    }
    t = len(ideal.generators)
    out = []
    for size in range(1, t + 1):
        for V in combinations(range(t), size):
            if set(V) & zgens:
                out.append(V)
    return out


@dataclass
class PrunedDG:
    ideal: MonomialIdeal
    pruned_ideal: MonomialIdeal
    matching: list
    resolution_quotient: QuotientDG  # F = T/J
    pruned_quotient: QuotientDG  # (F / im(I_Z)) tensor Q/(Z)
    boocher: PruneResult  # direct pruning of the same F
    matches_boocher: bool


def prune_dg(ideal: MonomialIdeal, znames) -> PrunedDG:
    """Descend the Lyubeznik-quotient dg structure along pruning by Z.

    Pipeline: F = T/J for the Lyubeznik matching (`morse.matching_quotient`),
    then F modulo the image of I_Z over Q/(Z), compared entry-by-entry with
    Boocher pruning of the Lyubeznik resolution.  Both quotients are formed
    by `dg.quotient_dg`; its refusal of a span that is not a dg ideal
    (`DGIdealError`, or DGError for one not closed under d) propagates.
    """
    znames = tuple(znames)
    matching = lyubeznik_matching(ideal)
    qF = matching_quotient(ideal, matching)[1]
    T = qF.elimination.source

    # I_Z is the span of e_V and d(e_V) over the V meeting a Z-divisible
    # generator; its image in F drops the generators projecting to zero
    z_span = span_from_matching_sources(T, z_divisible_subsets(ideal, znames))
    projected = ((g.gen_id, qF.project(g.element)) for g in z_span.generators)
    span_image = SubmoduleSpan(
        qF.structure.complex, [SpanGenerator(gen_id, p) for gen_id, p in projected if not p.is_zero()]
    )

    fcx = qF.structure.complex
    zidx = [fcx.ring.index(n) for n in znames]
    prefer2 = {l.tag for l in fcx.degree if any(l.multidegree.exponents[j] for j in zidx)}
    qP = quotient_dg(
        qF.structure,
        span_image,
        kill_vars=znames,
        prefer_eliminate=prefer2,
        name=f"P(F{ideal}, {{{', '.join(znames)}}})",
    )

    boocher = prune_complex(lyubeznik_resolution(ideal), znames)
    return PrunedDG(
        ideal=ideal,
        pruned_ideal=prune_ideal(ideal, znames),
        matching=matching,
        resolution_quotient=qF,
        pruned_quotient=qP,
        boocher=boocher,
        matches_boocher=complexes_equal(qP.structure.complex, boocher.pruned),
    )
