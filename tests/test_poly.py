"""Monomials and monomial ideals: algebraic laws checked against
brute-force oracles and hypothesis-generated inputs; and the polynomial
oracle of the tests (`reference_poly.Polynomial`)."""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dgres import (
    Monomial,
    MonomialIdeal,
    PolyError,
    VariableSet,
    lcm_of,
    minimalize,
)
from dgres.poly import monomial_divide, monomial_lcm, parse_monomial

from reference_products import divide_by_monomial
from reference_poly import (
    Polynomial,
    constant,
    is_nonzero_constant,
    multidegree,
    parse_polynomial,
    reinterpret,
    single_term,
    substitute_zero,
    variable_set_from_json,
)

RING = VariableSet(("x", "y", "z"))
R4 = VariableSet(("x", "y", "z", "w"))


def mono(ring, exps):
    return Monomial(ring, tuple(exps))


exponents3 = st.tuples(*[st.integers(0, 3)] * 3)


class TestVariableSet:
    def test_index_by_name(self):
        assert [R4.index(n) for n in ("x", "y", "z", "w")] == [0, 1, 2, 3]
        for bad in ("v", "", ["x"]):
            with pytest.raises(PolyError, match="unknown variable"):
                R4.index(bad)

    def test_lookup_table_is_not_part_of_the_value(self):
        # equality, hashing, repr and JSON see only the names and the mask
        a, b = VariableSet(("x", "y")), VariableSet(("x", "y"), (True, True))
        assert a == b and hash(a) == hash(b)
        assert repr(a) == "VariableSet(names=('x', 'y'), active=(True, True))"
        assert a.to_json() == {"names": ["x", "y"]}
        killed = a.deactivate(["x"])
        assert killed != a and killed.index("x") == 0
        assert variable_set_from_json(killed.to_json()) == killed


class TestMonomial:
    def test_mul_adds_exponents(self):
        a, b = mono(RING, (1, 0, 2)), mono(RING, (0, 3, 1))
        assert (a * b).exponents == (1, 3, 3)

    @given(exponents3, exponents3)
    def test_divides_oracle(self, ea, eb):
        a, b = mono(RING, ea), mono(RING, eb)
        assert a.divides(b) == all(x <= y for x, y in zip(ea, eb))

    @given(exponents3, exponents3)
    def test_lcm_is_join(self, ea, eb):
        a, b = mono(RING, ea), mono(RING, eb)
        j = lcm_of([a, b], RING)
        assert j.exponents == tuple(max(x, y) for x, y in zip(ea, eb))
        assert a.divides(j) and b.divides(j)

    @given(exponents3, exponents3)
    def test_exact_division(self, ea, eb):
        a, b = mono(RING, ea), mono(RING, eb)
        prod = a * b
        assert monomial_divide(prod, a) == b
        if not a.divides(b):
            with pytest.raises(PolyError):
                monomial_divide(b, a)

    def test_str_parse_roundtrip(self):
        for exps in product(range(3), repeat=3):
            m = mono(RING, exps)
            assert parse_monomial(RING, str(m)) == m

    def test_squarefree(self):
        assert mono(RING, (1, 0, 1)).is_squarefree()
        assert not mono(RING, (2, 0, 0)).is_squarefree()

    def test_inactive_variable_rejected(self):
        masked = RING.deactivate(["y"])
        with pytest.raises(PolyError):
            Monomial(masked, (0, 1, 0))
        with pytest.raises(PolyError):
            masked.variable("y")
        # untouched variables still work
        assert masked.variable("x").exponents == (1, 0, 0)


class TestMonomialValueType:
    """Monomials are validated by the public constructor only; arithmetic
    results skip the checks and must still be the same values."""

    @given(exponents3, exponents3)
    def test_arithmetic_results_equal_public_ones(self, ea, eb):
        a, b = mono(RING, ea), mono(RING, eb)
        built = {
            a * b: mono(RING, [x + y for x, y in zip(ea, eb)]),
            monomial_lcm(a, b): mono(RING, [max(x, y) for x, y in zip(ea, eb)]),
            monomial_divide(a * b, b): mono(RING, ea),
        }
        for got, want in built.items():
            assert got == want and hash(got) == hash(want)
            assert {want: "v"}[got] == "v"

    def test_variable_and_one_equal_public_ones(self):
        assert {mono(RING, (0, 1, 0)): 1, mono(RING, (0, 0, 0)): 2} == {
            RING.variable("y"): 1,
            RING.one(): 2,
        }
        assert parse_monomial(RING, "x*z") == RING.variable("x") * RING.variable("z")

    def test_equal_rings_need_not_be_identical(self):
        other = VariableSet(("x", "y", "z"))
        assert other is not RING
        assert mono(RING, (1, 0, 0)) * mono(other, (0, 1, 0)) == mono(RING, (1, 1, 0))

    def test_same_exponents_over_a_deactivated_ring_differ(self):
        masked = RING.deactivate(["y"])
        a, b = mono(RING, (1, 0, 1)), mono(masked, (1, 0, 1))
        assert a != b
        assert len({a: 0, b: 1}) == 2
        with pytest.raises(PolyError):
            a * b
        with pytest.raises(PolyError):
            monomial_lcm(a, b)

    def test_fields_cannot_be_assigned(self):
        m = mono(RING, (1, 0, 0))
        for attr, value in (("exponents", (0, 0, 0)), ("ring", R4), ("_hash", 0)):
            with pytest.raises(AttributeError):
                setattr(m, attr, value)
        # no slot for it; Python 3.10 and 3.11 raise a TypeError here
        with pytest.raises((AttributeError, TypeError)):
            m.other = 1
        assert m == mono(RING, (1, 0, 0)) and hash(m) == hash((1, 0, 0))

    @pytest.mark.parametrize(
        "exps", [(1, 0), (1, 0, 0, 0), (1, -1, 0), (1.0, 0, 0), (Fraction(1), 0, 0), ("1", 0, 0)]
    )
    def test_constructor_rejects_bad_exponents(self, exps):
        with pytest.raises(PolyError):
            Monomial(RING, exps)

    def test_reinterpret_rejects_a_killed_variable(self):
        masked = RING.deactivate(["y"])
        p = parse_polynomial(RING, "x*y + z")
        with pytest.raises(PolyError):
            reinterpret(p, masked)
        q = reinterpret(parse_polynomial(RING, "x + 2*z"), masked)
        assert q.ring is masked and set(q.terms) == {mono(masked, (1, 0, 0)), mono(masked, (0, 0, 1))}


class TestPolynomial:
    def test_parse_and_arithmetic(self):
        p = parse_polynomial(RING, "x*y - 2*z")
        q = parse_polynomial(RING, "z")
        assert str(p + q * constant(RING, 2)) == "x*y"

    @given(exponents3, st.integers(-5, 5), exponents3, st.integers(-5, 5))
    def test_add_commutes(self, e1, c1, e2, c2):
        p = Polynomial.monomial(mono(RING, e1), Fraction(c1))
        q = Polynomial.monomial(mono(RING, e2), Fraction(c2))
        assert p + q == q + p

    def test_divide_by_monomial_exact(self):
        p = parse_polynomial(RING, "x*y*z + 2*x*y")
        assert str(divide_by_monomial(p, parse_monomial(RING, "x*y"))) == "z + 2"
        with pytest.raises(PolyError):
            divide_by_monomial(p, parse_monomial(RING, "z"))

    def test_substitute_zero_kills_divisible_terms(self):
        p = parse_polynomial(RING, "x*y + y*z + x")
        assert str(substitute_zero(p, ["y"])) == "x"
        assert str(substitute_zero(p, ["x", "y"])) == "0"

    def test_multidegree_of_term(self):
        p = parse_polynomial(RING, "3*x*z")
        assert str(multidegree(p)) == "x*z"
        assert multidegree(parse_polynomial(RING, "x + y")) is None

    def test_zero_and_constants(self):
        z = Polynomial.zero(RING)
        assert z.is_zero() and not is_nonzero_constant(z)
        one = constant(RING, 1)
        assert is_nonzero_constant(one)
        assert single_term(one) == (RING.one(), 1)


def brute_membership(ideal: MonomialIdeal, m: Monomial) -> bool:
    """Oracle: m is in the monomial ideal iff some generator divides it."""
    return any(g.divides(m) for g in ideal.generators)


class TestMonomialIdeal:
    def test_reorder_by_indices_and_strings(self):
        I = MonomialIdeal.from_strings(RING, ["x*y", "y*z", "x*z"])
        assert [str(g) for g in I.reorder([2, 0, 1]).generators] == [
            "x*z", "x*y", "y*z",
        ]
        assert [str(g) for g in I.reorder(["y*z", "x*z", "x*y"]).generators] == [
            "y*z", "x*z", "x*y",
        ]
        with pytest.raises(PolyError):
            I.reorder([0, 0, 1])
        with pytest.raises(PolyError):
            I.reorder(["x*y", "y*z", "z"])

    def test_minimalize_preserves_membership(self):
        I = MonomialIdeal.from_strings(
            R4, ["x*y", "x*y*z", "z*w", "y*z*w", "x*y"]
        )
        M = minimalize(I)
        assert M.is_minimal_system()
        assert [str(g) for g in M.generators] == ["x*y", "z*w"]
        # membership agrees on every squarefree monomial
        for bits in product((0, 1), repeat=4):
            m = mono(R4, bits)
            assert brute_membership(I, m) == brute_membership(M, m)

    @given(st.lists(st.tuples(*[st.integers(0, 1)] * 4), min_size=1, max_size=6))
    @settings(max_examples=60)
    def test_minimalize_membership_property(self, exps):
        gens = [mono(R4, e) for e in exps]
        I = MonomialIdeal(R4, tuple(gens))
        M = minimalize(I)
        assert M.is_minimal_system()
        for bits in product((0, 1), repeat=4):
            m = mono(R4, bits)
            assert brute_membership(I, m) == brute_membership(M, m)

    def test_json_roundtrip(self):
        I = MonomialIdeal.from_strings(RING, ["x*y", "z"])
        assert MonomialIdeal.from_json(I.to_json()) == I
        masked = MonomialIdeal(
            RING.deactivate(["z"]), (RING.deactivate(["z"]).variable("x"),)
        )
        assert MonomialIdeal.from_json(masked.to_json()) == masked

    def test_squarefree_flag(self):
        assert MonomialIdeal.from_strings(RING, ["x*y", "z"]).is_squarefree()
        assert not MonomialIdeal.from_strings(RING, ["x^2"]).is_squarefree()
