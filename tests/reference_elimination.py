"""Unit-pivot elimination in Polynomials, the oracle for `dgres.dg.Elimination`.

`ReferenceElimination` reduces every entry as a `Polynomial`: it sets the
kill variables to zero term by term, accepts a pivot whose entry is a
nonzero constant polynomial, and projects onto Q/<kill> by reinterpreting
each polynomial over the smaller ring.  `quotient_dg_elimination` and
`morse_elimination` feed it the generators `quotient_dg` and `morse_reduce`
build, in the same order.  The tests compare the scalar kernel against it:
quotient complexes, rules and survivors; and a quotient's products against
the parent's, projected (`reference_products.quotient_product`).

`descent_elimination` is the paper's route to the pruning P(F, Z) of
F = T/J: F / im(I_Z) over Q/(Z), by a second elimination with kill
variables.  The tests compare `prune.descend`, which restricts F to its
labels without a Z-variable, against it.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from dgres.complexes import BasisLabel, LabeledFreeComplex, tag_to_json
from dgres.dg import DGError, DGStructure, SubmoduleSpan, matching_span, span_from_matching_sources
from dgres.poly import Monomial

from reference_element import vec_scale
from reference_poly import (
    VecT,
    column,
    complex_of,
    constant,
    coords,
    is_nonzero_constant,
    reinterpret,
    single_term,
    substitute_zero,
)


class ReferenceElimination:
    """Generators are (gen_id, homological degree, {label: Polynomial},
    pivot); see `dgres.dg.Elimination` for the rules and the witness."""

    def __init__(
        self,
        cx: LabeledFreeComplex,
        generators: Iterable[tuple[tuple, int, VecT, BasisLabel | None]],
        kill: Sequence[str] = (),
        prefer: Iterable[tuple] = (),
    ):
        self.source, self.kill = cx, tuple(kill)
        prefer = set(prefer)
        self.rules: dict[int, list[tuple[BasisLabel, VecT]]] = {}
        self._at: dict[int, dict[BasisLabel, int]] = {}
        by_degree: dict[int, list] = {}
        for gen_id, i, vec, pivot in generators:
            by_degree.setdefault(i, []).append((gen_id, vec, pivot))
        for i in sorted(by_degree):
            rules = self.rules[i] = []
            at = self._at[i] = {}
            queue = by_degree[i]
            while queue:
                retry, waiting = [], []
                for gen in queue:
                    gen_id, vec, pivot = gen
                    vec = self.substitute(vec, i)
                    if not vec:
                        continue
                    if pivot is None:
                        units = [l for l, p in vec.items() if is_nonzero_constant(p)]
                        pool = [l for l in units if l.tag in prefer] or units or list(vec)
                        pivot = min(pool, key=lambda l: str(l.tag))
                    entry = vec.get(pivot)
                    if entry is None or not is_nonzero_constant(entry):
                        retry.append(gen)
                        waiting.append({
                            "gen": tag_to_json(gen_id),
                            "pivot": tag_to_json(pivot.tag),
                            "entry": str(entry or 0),
                        })
                        continue
                    del vec[pivot]
                    at[pivot] = len(rules)
                    rules.append((pivot, vec_scale(vec, Fraction(-1) / single_term(entry)[1])))
                if len(retry) == len(queue):
                    err = DGError(f"no unit pivot in degree {i}: quotient is not a free complex")
                    err.witness = waiting
                    raise err
                queue = retry
            if not rules:
                del self.rules[i], self._at[i]
        self.survivors = {
            i: [l for l in cx.labels(i) if l not in self._at.get(i, ())] for i in cx.degrees()
        }

    def substitute(self, vec: VecT, i: int) -> VecT:
        out = {l: q for l, p in vec.items() if (q := substitute_zero(p, self.kill) if self.kill else p)}
        at, rules = self._at.get(i), self.rules.get(i)
        if not at:
            return out
        heap = [at[l] for l in out if l in at]
        heapq.heapify(heap)
        while heap:
            pivot, rhs = rules[heapq.heappop(heap)]
            p = out.pop(pivot, None)
            if p is None:
                continue
            for l, q in rhs.items():
                s = out.get(l)
                if s is None:
                    if l in at:
                        heapq.heappush(heap, at[l])
                    out[l] = p * q
                else:
                    s = s + p * q
                    if s.is_zero():
                        del out[l]
                    else:
                        out[l] = s
        return out

    def quotient(self, name: str) -> tuple[LabeledFreeComplex, Callable[[VecT, int], VecT]]:
        cx, kill, survivors = self.source, self.kill, self.survivors
        ring = cx.ring.deactivate(kill) if kill else cx.ring

        def relabel(l: BasisLabel) -> BasisLabel:
            if not kill:
                return l
            exps = l.multidegree.exponents
            for nm in kill:
                if exps[cx.ring.index(nm)]:
                    raise DGError(f"surviving label {l} has multidegree divisible by {nm}")
            return BasisLabel(l.tag, Monomial(ring, exps))

        new_labels = {l: relabel(l) for i in cx.degrees() for l in survivors[i]}

        def project(vec: VecT, i: int) -> VecT:
            out = {}
            for l, p in self.substitute(vec, i).items():
                q = reinterpret(p, ring) if kill else p
                if not q.is_zero():
                    out[new_labels[l]] = q
            return out

        basis = {i: [new_labels[l] for l in survivors[i]] for i in cx.degrees() if survivors[i]}
        diff: dict[int, dict[BasisLabel, VecT]] = {}
        for i in cx.degrees():
            if i and survivors[i]:
                diff[i] = {new_labels[l]: project(column(cx, i, l), i - 1) for l in survivors[i]}
        return complex_of(ring, basis, diff, name=name), project


def quotient_dg_elimination(
    dg: DGStructure, span: SubmoduleSpan, prefer_eliminate: Iterable[tuple] = ()
) -> ReferenceElimination:
    """The elimination `quotient_dg` runs: the span's generators, no fixed pivots."""
    gens = ((g.gen_id, g.element.degree, coords(g.element), None) for g in span.generators)
    return ReferenceElimination(dg.complex, gens, prefer=prefer_eliminate)


def morse_elimination(T: LabeledFreeComplex, matching, tag_prefix: str = "e") -> ReferenceElimination:
    """The elimination `morse_reduce` runs: per matched pair (sigma, tau),
    e_sigma pivoted on itself and d(e_sigma) pivoted on tau."""
    pairs = []
    for s, t in matching:
        sigma = T.find_label((tag_prefix,) + tuple(s))
        tau = T.find_label((tag_prefix,) + tuple(t))
        pairs.append((T.degree_of(sigma), sigma, tau, [list(s), list(t)]))
    pairs.sort(key=lambda p: (p[0], str(p[1].tag)))
    one = constant(T.ring, 1)
    generators = [(sigma.tag, i, {sigma: one}, sigma) for i, sigma, _, _ in pairs]
    generators += [(pair, i - 1, column(T, i, sigma), tau) for i, sigma, tau, pair in pairs]
    return ReferenceElimination(T, generators)


def descent_elimination(
    dgT: DGStructure, matching, znames: Sequence[str]
) -> tuple[ReferenceElimination, ReferenceElimination]:
    """The two eliminations of the paper's route to P(F, Z): J from the
    Taylor algebra T, J the span of e_V and d(e_V) over the matching's
    sources with the matched cells preferred as pivots, giving F = T/J;
    then, over Q/(Z), the image in F of I_Z, the span of e_V and d(e_V) over
    the index sets V that contain a generator divisible by a variable of Z,
    with F's labels that have a Z-variable preferred as pivots.  The
    second one's `quotient` is F / im(I_Z) tensor Q/(Z)."""
    T = dgT.complex
    span, prefer = matching_span(T, matching)
    to_F = quotient_dg_elimination(dgT, span, prefer)
    F, project = to_F.quotient("F")
    idx = [T.ring.index(z) for z in znames]

    def has_z(l: BasisLabel) -> bool:
        return any(l.multidegree.exponents[j] for j in idx)

    zgens = {l.tag[1] for l in T.labels(1) if has_z(l)}
    sources = [l.tag[1:] for l in T.degree if zgens & set(l.tag[1:])]
    gens = []
    for g in span_from_matching_sources(T, sources).generators:
        if vec := project(coords(g.element), g.element.degree):
            gens.append((g.gen_id, g.element.degree, vec, None))
    return to_F, ReferenceElimination(F, gens, znames, {l.tag for l in F.degree if has_z(l)})
