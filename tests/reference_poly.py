"""Polynomial helpers that only the tests and their oracles use.

The reference constructions (`reference_element`, `reference_elimination`)
and the tests build and read `Polynomial` entries: constants, single terms,
the common multidegree of the terms, evaluation at all ones, setting
variables to zero and moving to a ring with other inactive variables.
`dgres` stores coefficients, so none of these is part of it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from dgres.poly import Monomial, PolyError, Polynomial, VariableSet


def constant(ring: VariableSet, c) -> Polynomial:
    return Polynomial(ring, {ring.one(): c})


def substitute_zero(p: Polynomial, names: Iterable[str]) -> Polynomial:
    """Set the given variables to 0 (kill every term they divide)."""
    idx = [p.ring.index(n) for n in names]
    return Polynomial(p.ring, {m: c for m, c in p.terms.items() if not any(m.exponents[i] for i in idx)})


def reinterpret(p: Polynomial, ring: VariableSet) -> Polynomial:
    """Move to another VariableSet with the same name tuple (mask change);
    the public `Monomial` constructor refuses an inactive variable."""
    if ring.names != p.ring.names:
        raise PolyError("reinterpret requires identical variable names")
    return Polynomial(ring, {Monomial(ring, m.exponents): c for m, c in p.terms.items()})


def eval_ones(p: Polynomial) -> Fraction:
    """Evaluate at x_i = 1 for every variable."""
    return sum(p.terms.values(), Fraction(0))


def is_monomial_multiple(p: Polynomial) -> bool:
    return len(p.terms) == 1


def single_term(p: Polynomial) -> tuple[Monomial, Fraction]:
    if len(p.terms) != 1:
        raise PolyError("polynomial is not a single term")
    [(m, c)] = p.terms.items()
    return m, c


def is_nonzero_constant(p: Polynomial) -> bool:
    if len(p.terms) != 1:
        return False
    m, c = next(iter(p.terms.items()))
    return m.is_one() and bool(c)


def multidegree(p: Polynomial) -> Monomial | None:
    """If all terms share one monomial, return it; else None."""
    ms = set(p.terms)
    return next(iter(ms)) if len(ms) == 1 else None
