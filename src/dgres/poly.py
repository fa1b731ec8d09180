"""Exact monomials and monomial ideals.

Exponents are ints; `exact` gives the coefficient form the rest of dgres
stores (an int, or a `fractions.Fraction` that is not integral).  Monomials
live over an ordered `VariableSet`; a variable set can mark some variables
inactive, which is how we model the smaller polynomial ring Q/<Z> that
pruning produces (the exponent tuples keep their length, but inactive
variables must never occur).

Where monomials are validated: the public constructor `Monomial(ring, exps)`
checks the length, that every exponent is an int >= 0, and that no inactive
variable occurs, so parsing, relabels onto a smaller ring and user input
are all checked.  Products, lcms, quotients
(after their divisibility check), `VariableSet.variable` and `one`, and
`combin.edge_monomial` (after the name checks of `variable`) build
their results with `_monomial`, which skips the checks: sums, maxima and
differences of valid exponents over one ring are again valid, and a
variable inactive in both operands stays 0.  A monomial hashes its
exponent tuple once, at construction.  Variable names are validated once,
when `VariableSet(names)` builds its name index; `deactivate` keeps the
names, so its ring shares that index and checks only that the names it
deactivates are known.  `UnaryCode` writes monomials as
unary int bitmasks, on which divisibility and lcms are bit operations.

Text format for monomials: ``x1^2*x3`` (``1`` for the unit monomial).
Ideals serialize as a JSON object with an ordered variable list and a list of
generator strings, and `MonomialIdeal.from_json` reads that object back.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from itertools import accumulate
from operator import add, getitem, le, sub
from typing import Iterable, Sequence


class PolyError(ValueError):
    pass


_NAME_RE = re.compile(r"^[A-Za-z][A-Za-z0-9_]*$")


@dataclass(frozen=True)
class VariableSet:
    """An ordered tuple of variable names, with an activity mask.

    Inactive variables model a quotient ring Q/<Z>: they keep their slot in
    exponent vectors but monomials over the set must not use them.
    """

    names: tuple[str, ...]
    active: tuple[bool, ...] = ()
    # name -> position, for `index`; not part of equality, hash or repr
    _position: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.active:
            object.__setattr__(self, "active", tuple(True for _ in self.names))
        if len(self.active) != len(self.names):
            raise PolyError("activity mask length mismatch")
        position: dict[str, int] = {}
        for nm in self.names:
            if not _NAME_RE.match(nm):
                raise PolyError(f"bad variable name: {nm!r}")
            if nm in position:
                raise PolyError(f"duplicate variable name: {nm!r}")
            position[nm] = len(position)
        object.__setattr__(self, "_position", position)

    def __len__(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self._position[name]
        except (KeyError, TypeError):  # TypeError: an unhashable name
            raise PolyError(f"unknown variable: {name!r}") from None

    def active_names(self) -> tuple[str, ...]:
        return tuple(n for n, a in zip(self.names, self.active) if a)

    def deactivate(self, names: Iterable[str]) -> "VariableSet":
        """This ring with `names` made inactive too.  The names are this
        ring's, already validated, so the result shares its name index."""
        kill = set(names)
        unknown = kill.difference(self._position)
        if unknown:
            raise PolyError(f"unknown variables: {sorted(unknown)}")
        ring = object.__new__(VariableSet)
        object.__setattr__(ring, "names", self.names)
        object.__setattr__(ring, "active", tuple(a and (n not in kill) for n, a in zip(self.names, self.active)))
        object.__setattr__(ring, "_position", self._position)
        return ring

    def variable(self, name: str) -> "Monomial":
        i = self.index(name)
        if not self.active[i]:
            raise PolyError(f"variable {name!r} is inactive in this ring")
        exps = [0] * len(self.names)
        exps[i] = 1
        return _monomial(self, tuple(exps))

    def one(self) -> "Monomial":
        return _monomial(self, (0,) * len(self.names))

    def to_json(self) -> dict:
        d: dict = {"names": list(self.names)}
        if not all(self.active):
            d["active"] = list(self.active)
        return d


@dataclass(frozen=True, slots=True)
class Monomial:
    """A monomial x^a over a fixed VariableSet (exponents >= 0)."""

    ring: VariableSet
    exponents: tuple[int, ...]
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.exponents) != len(self.ring):
            raise PolyError("exponent tuple has wrong length")
        for e, a in zip(self.exponents, self.ring.active):
            if not isinstance(e, int) or e < 0:
                raise PolyError(f"bad exponent {e!r}")
            if e and not a:
                raise PolyError("monomial uses an inactive variable")
        object.__setattr__(self, "_hash", hash(self.exponents))

    def __hash__(self) -> int:
        return self._hash

    def __mul__(self, other: "Monomial") -> "Monomial":
        self._check_ring(other)
        return _monomial(self.ring, tuple(map(add, self.exponents, other.exponents)))

    def _check_ring(self, other: "Monomial"):
        if self.ring is not other.ring and self.ring != other.ring:
            raise PolyError("monomials over different rings")

    def divides(self, other: "Monomial") -> bool:
        self._check_ring(other)
        return all(map(le, self.exponents, other.exponents))

    def is_one(self) -> bool:
        return not any(self.exponents)

    def is_squarefree(self) -> bool:
        return all(e <= 1 for e in self.exponents)

    def __str__(self) -> str:
        parts = []
        for name, e in zip(self.ring.names, self.exponents):
            if e == 1:
                parts.append(name)
            elif e > 1:
                parts.append(f"{name}^{e}")
        return "*".join(parts) if parts else "1"

    def __repr__(self) -> str:
        return f"Monomial({self})"


def _monomial(ring: VariableSet, exps: tuple[int, ...]) -> Monomial:
    """Monomial(ring, exps) without the checks, for exponents that are valid
    by construction (see the module docstring)."""
    m = object.__new__(Monomial)
    object.__setattr__(m, "ring", ring)
    object.__setattr__(m, "exponents", exps)
    object.__setattr__(m, "_hash", hash(exps))
    return m


def parse_monomial(ring: VariableSet, text: str) -> Monomial:
    """Parse ``x1^2*x3`` (or ``1``) into a Monomial over `ring`."""
    text = text.strip()
    if text in ("1", ""):
        return ring.one()
    exps = [0] * len(ring)
    for factor in text.split("*"):
        factor = factor.strip()
        if factor == "1":
            continue
        if "^" in factor:
            name, _, k = factor.partition("^")
            try:
                e = int(k)
            except ValueError:
                raise PolyError(f"bad exponent in {factor!r}") from None
        else:
            name, e = factor, 1
        if e < 0:
            raise PolyError(f"negative exponent in {factor!r}")
        exps[ring.index(name.strip())] += e
    m = Monomial(ring, tuple(exps))
    return m


def monomial_lcm(a: Monomial, b: Monomial) -> Monomial:
    a._check_ring(b)
    return _monomial(a.ring, tuple(map(max, a.exponents, b.exponents)))


def monomial_divide(a: Monomial, b: Monomial) -> Monomial:
    """Exact division a/b; raises PolyError if b does not divide a."""
    a._check_ring(b)
    if not b.divides(a):
        raise PolyError(f"{b} does not divide {a}")
    return _monomial(a.ring, tuple(map(sub, a.exponents, b.exponents)))


def lcm_of(ms: Iterable[Monomial], ring: VariableSet) -> Monomial:
    """The lcm of a family of monomials of `ring`; 1 for the empty family."""
    ms = list(ms)
    return reduce(monomial_lcm, ms) if ms else ring.one()


class UnaryCode:
    """Monomials as unary int bitmasks, fitted to a list of them: x_k^e sets
    the low e bits of a field as wide as the largest exponent of x_k in the
    list, the field of x_0 highest.  For masks of listed monomials, u | m
    iff `not u & ~m`, and lcm(u, m) is `u | m`; and masks compare as their
    exponent tuples do.  A squarefree list gets one bit per variable that
    occurs in it.  `fields[k][e]` is the mask of x_k^e."""

    def __init__(self, monomials: Iterable[Monomial], ring: VariableSet):
        self.ring = ring
        self.widths = list(map(max, zip((0,) * len(ring), *(m.exponents for m in monomials))))
        shifts = list(accumulate(reversed(self.widths), initial=0))[-2::-1]
        self.fields = [[((1 << e) - 1) << s for e in range(w + 1)] for w, s in zip(self.widths, shifts)]

    def mask(self, exponents: Iterable[int]) -> int:
        """The mask of the monomial with these exponents, which must fit the
        fields, as those of the listed monomials and their lcms do."""
        return sum(map(getitem, self.fields, exponents))

    def monomial(self, mask: int) -> Monomial:
        """The monomial of a mask that is an lcm of listed masks."""
        return _monomial(self.ring, tuple((mask & f[-1]).bit_count() for f in self.fields))


def exact(c: int | Fraction) -> int | Fraction:
    """c as an int when it is integral (`linalg`'s integer path)."""
    return c.numerator if type(c) is Fraction and c.denominator == 1 else c


@dataclass(frozen=True)
class MonomialIdeal:
    """A monomial ideal given by an ordered generator tuple.

    The generator order is data (Taylor/Lyubeznik constructions depend on
    it), so it is preserved verbatim; `minimalize` keeps relative order.
    """

    ring: VariableSet
    generators: tuple[Monomial, ...]

    def __post_init__(self):
        for g in self.generators:
            if g.ring is not self.ring and g.ring != self.ring:
                raise PolyError("generator over wrong ring")

    @staticmethod
    def from_strings(ring: VariableSet, gens: Sequence[str]) -> "MonomialIdeal":
        return MonomialIdeal(ring, tuple(parse_monomial(ring, g) for g in gens))

    def is_zero(self) -> bool:
        return not self.generators

    def is_squarefree(self) -> bool:
        return all(g.is_squarefree() for g in self.generators)

    def is_minimal_system(self) -> bool:
        gens = self.generators
        for i, g in enumerate(gens):
            for j, h in enumerate(gens):
                if i != j and h.divides(g):
                    return False
        return True

    def reorder(self, order: Sequence[int] | Sequence[str]) -> "MonomialIdeal":
        """Reorder generators; `order` is a permutation of indices or of
        generator strings (each naming a generator exactly once)."""
        gens = list(self.generators)
        if all(isinstance(o, int) for o in order):
            idx = list(order)  # type: ignore[arg-type]
        else:
            strs = [str(g) for g in gens]
            idx = []
            for o in order:
                if str(o) not in strs:
                    raise PolyError(f"{o!r} is not a generator")
                idx.append(strs.index(str(o)))
        if sorted(idx) != list(range(len(gens))):
            raise PolyError("order must be a permutation of the generators")
        return MonomialIdeal(self.ring, tuple(gens[i] for i in idx))

    def to_json(self) -> dict:
        return {
            "variables": list(self.ring.names),
            "generators": [str(g) for g in self.generators],
            **({"inactive": [n for n, a in zip(self.ring.names, self.ring.active) if not a]}
               if not all(self.ring.active) else {}),
        }

    @staticmethod
    def from_json(d: dict) -> "MonomialIdeal":
        lists = (d.get("variables"), d.get("generators"), d.get("inactive", [])) if isinstance(d, dict) else ()
        if not lists or not all(isinstance(v, list) and all(isinstance(x, str) for x in v) for v in lists):
            raise PolyError('an ideal is a JSON object {"variables": [names], "generators": [monomials]}')
        ring = VariableSet(tuple(d["variables"]))
        if d.get("inactive"):
            ring = ring.deactivate(d["inactive"])
        return MonomialIdeal.from_strings(ring, d["generators"])

    def __str__(self) -> str:
        return "(" + ", ".join(str(g) for g in self.generators) + ")"


def minimalize(ideal: MonomialIdeal) -> MonomialIdeal:
    """Drop generators divisible by another generator; order-stable.

    Among equal generators the first occurrence is kept.
    """
    kept: list[Monomial] = []
    gens = ideal.generators
    for i, g in enumerate(gens):
        redundant = False
        for j, h in enumerate(gens):
            if i == j:
                continue
            if h.divides(g) and (h != g or j < i):
                redundant = True
                break
        if not redundant:
            kept.append(g)
    return MonomialIdeal(ideal.ring, tuple(kept))

