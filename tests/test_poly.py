import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wallachflow._poly import rational_roots, real_roots
from wallachflow.core import Parameters
from wallachflow.equilibria import quartic_coefficients


def _mul(f, g):
    out = [Fraction(0)] * (len(f) + len(g) - 1)
    for i, u in enumerate(f):
        for j, v in enumerate(g):
            out[i + j] += u * v
    return out


def _assert_matches_sympy(coeffs):
    """``real_roots`` against sympy on the exact (for floats, dyadic) polynomial:
    the same roots with the same multiplicities, values within 1e-12 relative,
    rational roots of exact input exactly."""
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    poly = sympy.Poly([sympy.Rational(*Fraction(c).as_integer_ratio()) for c in coeffs], x, domain="QQ")
    expected = sympy.real_roots(poly, multiple=False)
    found = real_roots(coeffs)
    assert [m for _, m in found] == [m for _, m in expected]
    exact = not any(isinstance(c, float) for c in coeffs)
    for (root, _), (want, _) in zip(found, expected):
        value = float(sympy.N(want, 30))
        assert abs(float(root) - value) <= 1e-12 * abs(value)
        if exact and want.is_rational:
            assert root == Fraction(int(want.p), int(want.q))
        else:
            assert isinstance(root, float)


class TestKnownRoots:
    def test_a9_double_root(self):
        p = Parameters(Fraction(5, 36), Fraction(1, 6), Fraction(1, 4))
        found, rest = rational_roots(quartic_coefficients(p))
        assert found == [(Fraction(3, 5), 2)]
        assert len(rest) == 3

    def test_neighbouring_roots_both_found(self):
        # the isolating interval of 55/39 starts at the root 1
        p = Parameters(Fraction(2, 7), Fraction(1, 2), Fraction(2, 9))
        found, _ = rational_roots(quartic_coefficients(p))
        assert found == [(Fraction(1), 1), (Fraction(55, 39), 1)]

    def test_coefficients_beyond_divisor_enumeration(self):
        # (p*x - q)(x^2 + 1) with the Mersenne primes p = 2^61-1, q = 2^89-1
        p, q = 2**61 - 1, 2**89 - 1
        found, rest = rational_roots([p, -q, p, -q])
        assert found == [(Fraction(q, p), 1)]
        assert rest == [p, 0, p]

    def test_zero_root_listed_first(self):
        # x^2 (x + 1) (x - 2) (x^2 - 2)
        coeffs = _mul(_mul([1, 0, 0], [1, 1]), _mul([1, -2], [1, 0, -2]))
        found, rest = rational_roots(coeffs)
        assert found == [(0, 2), (-1, 1), (2, 1)]
        assert rest == [1, 0, -2]

    def test_float_a9_quartic_has_four_simple_roots(self):
        # rounding 5/36 splits the double root 3/5 of the exact quartic into
        # two simple roots of the dyadic one
        coeffs = quartic_coefficients(Parameters(5 / 36, 1 / 6, 1 / 4))
        assert [m for _, m in real_roots(coeffs)] == [1, 1, 1, 1]
        _assert_matches_sympy(coeffs)

    def test_near_face_quartic_has_a_huge_simple_root(self):
        # a1 -> 1/2 drives the leading coefficient to 0 and one root to ~5e7
        coeffs = quartic_coefficients(Parameters(0.49999999, Fraction(1, 6), Fraction(1, 3)))
        assert [m for _, m in real_roots(coeffs)] == [1, 1]
        _assert_matches_sympy(coeffs)

    def test_coefficient_beyond_float_range(self):
        # 2*10**400 overflows a float; the roots are +-(2*10**400)**(1/4)
        _assert_matches_sympy([1, 0, 0, 0, -2 * 10**400])

    def test_root_beyond_float_range_is_infinite(self):
        assert real_roots([1, 0, -2 * 10**700]) == [(-math.inf, 1), (math.inf, 1)]

    def test_degenerate_inputs(self):
        assert rational_roots([0, 0, 3]) == ([], [3])
        assert rational_roots([]) == ([], [])
        assert rational_roots([Fraction(2, 3), Fraction(1, 2)]) == ([(Fraction(-3, 4), 1)], [Fraction(2, 3)])


roots_st = st.builds(Fraction, st.integers(-200, 200), st.integers(1, 30))
coeff_st = st.builds(Fraction, st.integers(-50, 50), st.integers(1, 50))
lead_st = st.builds(Fraction, st.integers(1, 50), st.integers(-50, -1) | st.integers(1, 50))


@st.composite
def planted_polynomials(draw):
    """Degree <= 6: rational roots of multiplicity 1-3 times a cofactor."""
    poly = [draw(lead_st), *draw(st.lists(coeff_st, max_size=3))]
    for root, mult in draw(st.lists(st.tuples(roots_st, st.integers(1, 3)), max_size=3)):
        for _ in range(min(mult, 7 - len(poly))):
            poly = _mul(poly, [Fraction(1), -root])
    return poly


class TestSympyOracle:
    @given(planted_polynomials())
    @settings(max_examples=50, deadline=None)
    def test_roots_and_remainder_match_sympy(self, coeffs):
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")
        poly = sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in coeffs], x, domain="QQ")
        expected = []
        divisor = sympy.Poly(1, x, domain="QQ")
        for factor, mult in poly.factor_list()[1]:
            if factor.degree() == 1:
                r = -factor.nth(0) / factor.nth(1)
                expected.append((Fraction(int(r.p), int(r.q)), mult))
                divisor *= sympy.Poly(x - r, x, domain="QQ") ** mult
        quotient, remainder = sympy.div(poly, divisor)
        assert remainder.is_zero

        found, rest = rational_roots(coeffs)
        assert sorted(found) == sorted(expected)
        assert rest == [Fraction(int(c.p), int(c.q)) for c in quotient.all_coeffs()]


@st.composite
def planted_real_polynomials(draw):
    """Degree <= 6: a cofactor times planted linear factors ``x - r`` and
    irrational factors ``x^2 - k``, each of multiplicity 1-3, with exact or
    float coefficients."""
    poly = [draw(lead_st), *draw(st.lists(coeff_st, max_size=2))]
    factor_st = st.builds(lambda r: [Fraction(1), -r], roots_st) | st.builds(
        lambda k: [Fraction(1), Fraction(0), -k], st.builds(Fraction, st.integers(2, 40), st.integers(1, 5))
    )
    for factor, mult in draw(st.lists(st.tuples(factor_st, st.integers(1, 3)), max_size=3)):
        for _ in range(mult):
            if len(poly) + len(factor) <= 8:
                poly = _mul(poly, factor)
    return [float(c) for c in poly] if draw(st.booleans()) else poly


class TestRealRootsSympyOracle:
    @given(planted_real_polynomials())
    @settings(max_examples=60, deadline=None)
    def test_roots_and_multiplicities_match_sympy(self, coeffs):
        _assert_matches_sympy(coeffs)
