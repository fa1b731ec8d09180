"""The polynomial oracle, and the readers and writers between it and the
coefficient form that `dgres` stores.

`dgres` has no polynomial type: an entry of column c on row r enters as
its coefficient c of m_c / m_r (an int or a Fraction) and is printed with
`complexes.entry_str`.  The reference constructions (`reference_element`,
`reference_elimination`, `reference_products`) and the tests compute with
`Polynomial`s instead, so this module holds

- `Polynomial` and `parse_polynomial`, as `dgres.poly` had them;
- readers from stored form: `entry_polynomial` (c * (b / m_row)), `entry`,
  `column`, `matrix` and `coords`;
- writers into stored form: `coefficient` (the c of a Polynomial c *
  (m_c / m_r), anything else refused with ComplexError naming it, its row
  and its column), `complex_of` (the public constructor on those
  coefficients), `element` ({label: Polynomial} as an `Element`, DGError
  unless multigraded) and `complex_from_json`, which reads
  `LabeledFreeComplex.to_json` back;
- small helpers: constants, single terms, the common multidegree of the
  terms, evaluation at all ones, setting variables to zero and moving to a
  ring with other inactive variables;
- `squarefree_monomials`, every 0/1 exponent monomial of a ring, the
  strands the tests sweep by hand.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import product
from operator import add, sub
from typing import Iterable, Iterator, Sequence

from dgres.complexes import BasisLabel, ComplexError, LabeledFreeComplex
from dgres.dg import DGError, Element
from dgres.poly import Monomial, PolyError, VariableSet, _monomial, exact, parse_monomial


def _as_fraction(c) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise PolyError(f"coefficients must be exact rationals, got {type(c).__name__}")


class Polynomial:
    """Sparse polynomial: Monomial -> Fraction, zero coefficients dropped."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: VariableSet, terms: dict[Monomial, Fraction] | None = None):
        self.ring = ring
        self.terms: dict[Monomial, Fraction] = {
            m: f for m, c in (terms or {}).items() if (f := _as_fraction(c))
        }

    @staticmethod
    def zero(ring: VariableSet) -> "Polynomial":
        return Polynomial(ring)

    @staticmethod
    def monomial(m: Monomial, c=1) -> "Polynomial":
        return Polynomial(m.ring, {m: _as_fraction(c)})

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        out = dict(self.terms)
        for m, c in other.terms.items():
            c2 = out.get(m, Fraction(0)) + c
            if c2:
                out[m] = c2
            else:
                out.pop(m, None)
        p = Polynomial(self.ring)
        p.terms = out
        return p

    def __neg__(self) -> "Polynomial":
        p = Polynomial(self.ring)
        p.terms = {m: -c for m, c in self.terms.items()}
        return p

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            c = _as_fraction(other)
            if not c:
                return Polynomial(self.ring)
            p = Polynomial(self.ring)
            p.terms = {m: c * c0 for m, c0 in self.terms.items()}
            return p
        if isinstance(other, Monomial):
            p = Polynomial(self.ring)
            p.terms = {m * other: c for m, c in self.terms.items()}
            return p
        if isinstance(other, Polynomial):
            out: dict[Monomial, Fraction] = {}
            for m1, c1 in self.terms.items():
                for m2, c2 in other.terms.items():
                    m = m1 * m2
                    c = out.get(m, Fraction(0)) + c1 * c2
                    if c:
                        out[m] = c
                    else:
                        out.pop(m, None)
            p = Polynomial(self.ring)
            p.terms = out
            return p
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return isinstance(other, Polynomial) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for m in sorted(self.terms, key=lambda m: m.exponents, reverse=True):
            c = self.terms[m]
            cs = str(c)
            if m.is_one():
                parts.append(cs)
            elif c == 1:
                parts.append(str(m))
            elif c == -1:
                parts.append(f"-{m}")
            else:
                parts.append(f"{cs}*{m}")
        out = parts[0]
        for t in parts[1:]:
            out += f" + {t}" if not t.startswith("-") else f" - {t[1:]}"
        return out

    __repr__ = __str__


def parse_polynomial(ring: VariableSet, text: str) -> Polynomial:
    """Parse a signed sum of rational-coefficient monomial terms."""
    text = text.strip().replace("- ", "-").replace("+ ", "+")
    if not text or text == "0":
        return Polynomial.zero(ring)
    # normalize to '+'-separated signed terms
    text = text.replace("-", "+-")
    out = Polynomial.zero(ring)
    for term in text.split("+"):
        term = term.strip()
        if not term:
            continue
        sign = 1
        if term.startswith("-"):
            sign = -1
            term = term[1:].strip()
        coeff = Fraction(1)
        rest = term
        m = re.match(r"^(\d+(?:/\d+)?)(?:\*(.*))?$", term)
        if m:
            coeff = Fraction(m.group(1))
            rest = m.group(2) or "1"
        out = out + Polynomial.monomial(parse_monomial(ring, rest), sign * coeff)
    return out


VecT = dict[BasisLabel, Polynomial]


# ---------------------------------------------------------------------------
# readers: stored coefficients as Polynomials


def entry_polynomial(v, row: BasisLabel, b: Monomial) -> Polynomial:
    """The stored coefficient v on row `row` of a column of multidegree b, as
    the Polynomial c * (b / m_row) over the row's ring."""
    rm = row.multidegree  # it divides b for every stored entry
    return Polynomial.monomial(_monomial(rm.ring, tuple(map(sub, b.exponents, rm.exponents))), v)


def entry(F: LabeledFreeComplex, i: int, row: BasisLabel, col: BasisLabel) -> Polynomial:
    v = F.diff.get(i, {}).get(col, {}).get(row)
    return Polynomial.zero(F.ring) if v is None else entry_polynomial(v, row, col.multidegree)


def column(F: LabeledFreeComplex, i: int, col: BasisLabel) -> VecT:
    return {r: entry_polynomial(v, r, col.multidegree) for r, v in F.diff.get(i, {}).get(col, {}).items()}


def matrix(F: LabeledFreeComplex, i: int) -> list[list[Polynomial]]:
    return [[entry(F, i, r, c) for c in F.labels(i)] for r in F.labels(i - 1)]


def coords(el: Element) -> VecT:
    """The {label: Polynomial} view of a stored element (b, {l: c})."""
    return {l: entry_polynomial(c, l, el.b) for l, c in el.vec.items()}


# ---------------------------------------------------------------------------
# writers: Polynomials as stored coefficients


def coefficient(p: Polynomial, row: BasisLabel, cm: Monomial, col):
    """The coefficient c of the Polynomial entry p = c * (cm / m_row) of
    column `col`, of multidegree cm; 0 for the zero Polynomial.  Any other
    Polynomial raises ComplexError naming it, its row and its column."""
    if not p.terms:
        return 0
    rm = row.multidegree
    if len(p.terms) == 1:
        [(m, c)] = p.terms.items()
        if m.ring == cm.ring and tuple(map(add, m.exponents, rm.exponents)) == cm.exponents:
            return exact(c)
    raise ComplexError(f"entry {p} at ({row}, {col}) is not a rational multiple of {cm}/{rm}")


def complex_of(
    ring: VariableSet, basis: dict[int, Sequence[BasisLabel]], diff: dict, name: str = ""
) -> LabeledFreeComplex:
    """`LabeledFreeComplex` on columns of Polynomial entries, each stored as
    its `coefficient`; the constructor drops the zeros."""
    stored = {
        i: {c: {r: coefficient(p, r, c.multidegree, c) for r, p in col.items()} for c, col in cols.items()}
        for i, cols in diff.items()
    }
    return LabeledFreeComplex(ring, basis, stored, name=name)


def element(cx: LabeledFreeComplex, degree: int, vec: VecT) -> Element:
    """The `Element` with Polynomial coordinates {label: p}; DGError when
    they are not c * (b / m_l) for one b (mixed multidegrees, or an entry
    of several terms)."""
    vec = {l: p for l, p in vec.items() if not p.is_zero()}
    bs = {next(iter(p.terms)) * l.multidegree if len(p.terms) == 1 else None for l, p in vec.items()}
    if len(bs) > 1 or None in bs:
        raise DGError(" + ".join(f"({p})*{l}" for l, p in vec.items()) + " is not multigraded")
    b = bs.pop() if bs else None
    return Element.stored(cx, degree, b, {l: exact(next(iter(p.terms.values()))) for l, p in vec.items()})


def variable_set_from_json(d: dict) -> VariableSet:
    names = tuple(d["names"])
    return VariableSet(names, tuple(d.get("active", [True] * len(names))))


def tag_from_json(obj):
    if isinstance(obj, list):
        return tuple(tag_from_json(t) for t in obj)
    return obj


def complex_from_json(d: dict) -> LabeledFreeComplex:
    """Read `LabeledFreeComplex.to_json` back: each matrix string is parsed
    with `parse_polynomial` and must be one term c * (m_c / m_r)
    (`coefficient`); the complex is built from those coefficients."""
    ring = variable_set_from_json(d["ring"])
    basis = {
        int(k): [BasisLabel(tag_from_json(l["tag"]), parse_monomial(ring, l["multidegree"])) for l in lbls]
        for k, lbls in d["basis"].items()
    }
    diff = {
        int(k): {
            c: {r: parse_polynomial(ring, mat[ri][ci]) for ri, r in enumerate(basis.get(int(k) - 1, []))}
            for ci, c in enumerate(basis.get(int(k), []))
        }
        for k, mat in d.get("differentials", {}).items()
    }
    return complex_of(ring, basis, diff, name=d.get("name", ""))


# ---------------------------------------------------------------------------
# helpers


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


def squarefree_monomials(ring: VariableSet) -> Iterator[Monomial]:
    """All 0/1 exponent monomials in the active variables (2^n of them), in
    increasing exponent order; PolyError beyond 22 active variables."""
    act = [i for i, a in enumerate(ring.active) if a]
    if len(act) > 22:
        raise PolyError(f"refusing to enumerate 2^{len(act)} squarefree monomials")
    for bits in product((0, 1), repeat=len(act)):
        exps = [0] * len(ring)
        for i, b in zip(act, bits):
            exps[i] = b
        yield Monomial(ring, tuple(exps))
