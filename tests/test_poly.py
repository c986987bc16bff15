import contextlib
import io
import math
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import closed_forms
from wallachflow import blowup, cli, equilibria
from wallachflow._poly import (
    _SCREEN_PRIMES,
    Layout,
    Poly,
    Root,
    _derivative,
    _divmod,
    _gcd,
    _isolate,
    _may_have_rational_root,
    _primitive,
    _remainders,
    _variations,
    cleared,
    float_bits,
    real_roots,
    root_brackets,
    sign_at,
)
from wallachflow.core import Parameters, is_exact
from wallachflow.equilibria import quartic_coefficients
from wallachflow.surfaces import cube_grid


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
            assert isinstance(root, Fraction)
            assert root == Fraction(int(want.p), int(want.q))
        else:
            assert isinstance(root, float)


def _rational_part(found):
    return [(r, m) for r, m in found if isinstance(r, Fraction)]


class TestKnownRoots:
    def test_a9_double_root(self):
        p = Parameters(Fraction(5, 36), Fraction(1, 6), Fraction(1, 4))
        found = real_roots(quartic_coefficients(p))
        assert _rational_part(found) == [(Fraction(3, 5), 2)]
        assert [(type(r), m) for r, m in found] == [(Fraction, 2), (float, 1), (float, 1)]

    def test_neighbouring_roots_both_found(self):
        # the isolating interval of 55/39 starts at the root 1
        p = Parameters(Fraction(2, 7), Fraction(1, 2), Fraction(2, 9))
        found = real_roots(quartic_coefficients(p))
        assert _rational_part(found) == found == [(Fraction(1), 1), (Fraction(55, 39), 1)]

    def test_coefficients_beyond_divisor_enumeration(self):
        # (p*x - q)(x^2 + 1) with the Mersenne primes p = 2^61-1, q = 2^89-1
        p, q = 2**61 - 1, 2**89 - 1
        found = real_roots([p, -q, p, -q])
        assert _rational_part(found) == found == [(Fraction(q, p), 1)]

    def test_zero_root_exact_in_order(self):
        # x^2 (x + 1) (x - 2) (x^2 - 2)
        coeffs = _mul(_mul([1, 0, 0], [1, 1]), _mul([1, -2], [1, 0, -2]))
        found = real_roots(coeffs)
        assert _rational_part(found) == [(-1, 1), (0, 2), (2, 1)]
        assert [m for _, m in found] == [1, 1, 2, 1, 1]
        _assert_matches_sympy(coeffs)

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
        assert real_roots([0, 0, 3]) == []
        assert real_roots([]) == []
        assert real_roots([Fraction(2, 3), Fraction(1, 2)]) == [(Fraction(-3, 4), 1)]

    def test_roots_modulo_every_prime_but_none_rational(self):
        # (x^2 - 2)(x^2 - 3)(x^2 - 6): one of 2, 3 and 6 is a square modulo
        # every prime, so only the exact test can tell there is no rational root
        coeffs = _mul(_mul([1, 0, -2], [1, 0, -3]), [1, 0, -6])
        assert [(type(r), m) for r, m in real_roots(coeffs)] == [(float, 1)] * 6
        _assert_matches_sympy(coeffs)

    def test_lead_divisible_by_every_screen_prime(self):
        # (L*x - 1)(x^2 + 1) with L = 11*13*...*37, the product of the
        # screen's primes: the screen can try none of them
        lead = 11 * 13 * 17 * 19 * 23 * 29 * 31 * 37
        assert real_roots(_mul([lead, -1], [1, 0, 1])) == [(Fraction(1, lead), 1)]


class TestScreen:
    def test_passes_a_polynomial_with_roots_modulo_every_prime(self):
        assert _may_have_rational_root([1, 0, -11, 0, 36, 0, -36])
        assert _may_have_rational_root([math.prod(_SCREEN_PRIMES), -1])

    def test_rejects_a_polynomial_without_a_root_modulo_a_prime(self):
        # 2 is not a square modulo 11
        assert not _may_have_rational_root([1, 0, -2])
        assert not _may_have_rational_root([-3, 0, 6])

    @given(
        st.lists(st.tuples(st.integers(-40, 40), st.integers(1, 40)), min_size=1, max_size=3),
        st.sampled_from([[1], [1, 0, 1], [-1, 0, 2]]),
    )
    @settings(max_examples=50, deadline=None)
    def test_never_rejects_a_rational_root(self, roots, cofactor):
        poly = cofactor
        for p, q in roots:
            poly = _mul(poly, [q, -p])
        assert _may_have_rational_root([int(c) for c in poly])


def _int_mul(f, g):
    return [int(c) for c in _mul(f, g)] if f and g else []


def _int_add(f, g):
    n = max(len(f), len(g))
    out = [u + v for u, v in zip([0] * (n - len(f)) + f, [0] * (n - len(g)) + g)]
    while out and out[0] == 0:
        out.pop(0)
    return out


int_poly_st = st.lists(st.integers(-60, 60), min_size=1, max_size=7).filter(lambda f: f[0] != 0)


class TestIntegerRemainders:
    @given(int_poly_st, int_poly_st)
    @settings(max_examples=100, deadline=None)
    def test_pseudo_division_identity(self, f, g):
        q, r, c = _divmod(f, g)
        assert c > 0
        assert len(r) < len(g)
        assert _int_add(_int_mul(q, g), r) == [c * v for v in f]
        assert all(type(v) is int for v in q + r)

    def test_primitive_divisor_divides_exactly(self):
        # Gauss's lemma: a primitive divisor leaves c = 1
        g = [-6, 4, 9]
        assert _divmod(_int_mul(g, [5, -7, 2]), g) == ([5, -7, 2], [], 1)

    def test_gcd_is_primitive(self):
        assert _gcd([4, 0, -4], [8]) == [1]
        assert _gcd([6, 0, -6], []) == [1, 0, -1]
        assert _gcd(_int_mul([2, -3], [1, 0, 1]), _int_mul([4, -6], [1, 5])) in ([2, -3], [-2, 3])

    def test_remainder_sequence_ends_in_the_gcd(self):
        # coprime: a nonzero constant; otherwise [] after the gcd
        f = _int_mul([2, -3], [1, 0, 1])
        assert _remainders(f, _derivative(f))[-1] in ([1], [-1])
        g = _int_mul(f, [2, -3])
        *_, r, last = _remainders(g, _derivative(g))
        assert last == [] and r in ([2, -3], [-2, 3])

    @given(st.lists(st.integers(-60, 60), min_size=2, max_size=7).filter(lambda f: f[0] != 0))
    @settings(max_examples=60, deadline=None)
    def test_sturm_count_matches_sympy_for_negative_leads(self, f):
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")
        poly = sympy.Poly(f, x).sqf_part()
        if poly.LC() > 0:
            poly = -poly
        square_free = [int(c) for c in poly.all_coeffs()]
        chain = _remainders(square_free, _derivative(square_free))
        assert len(chain[-1]) == 1 and chain[-1][0] != 0
        intervals = _isolate(chain)
        assert len(intervals) == poly.count_roots()
        for lo, hi, k in intervals:
            ends = [sympy.Rational(v, 2**k) for v in (lo, hi)]
            # the roots in (lo, hi]: lo may be the root below
            assert poly.count_roots(*ends) - (poly.eval(ends[0]) == 0) == 1
            assert _variations(chain, lo, k) - _variations(chain, hi, k) == 1
            # k is the least exponent of the two ends, the grid of _refine
            assert k == 0 or lo % 2 or hi % 2


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
    def test_rational_roots_match_sympy(self, coeffs):
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")
        poly = sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in coeffs], x, domain="QQ")
        expected = []
        for factor, mult in poly.factor_list()[1]:
            if factor.degree() == 1:
                r = -factor.nth(0) / factor.nth(1)
                expected.append((Fraction(int(r.p), int(r.q)), mult))
        assert _rational_part(real_roots(coeffs)) == sorted(expected)
        _assert_matches_sympy(coeffs)


def _int_form(coeffs):
    """``coeffs`` times a positive integer: an ``int`` list, not primitive."""
    lcm = math.lcm(*(Fraction(c).denominator for c in coeffs))
    return [int(Fraction(c) * lcm * 6) for c in coeffs]


def _bits(found):
    return [(type(r), r.hex() if isinstance(r, float) else r, m) for r, m in found]


def _assert_int_input_agrees(coeffs):
    """An ``int`` list gives what the equal ``Fraction`` list gives, and what
    the exact polynomial it is a positive multiple of gives."""
    ints = _int_form(coeffs)
    assert all(type(c) is int for c in ints)
    found = _bits(real_roots(ints))
    assert found == _bits(real_roots([Fraction(c) for c in ints]))
    assert found == _bits(real_roots(coeffs))


# the exact polynomials of ``TestKnownRoots``
KNOWN_EXACT = [
    quartic_coefficients(Parameters(Fraction(5, 36), Fraction(1, 6), Fraction(1, 4))),
    quartic_coefficients(Parameters(Fraction(2, 7), Fraction(1, 2), Fraction(2, 9))),
    [2**61 - 1, -(2**89 - 1), 2**61 - 1, -(2**89 - 1)],
    _mul(_mul([1, 0, 0], [1, 1]), _mul([1, -2], [1, 0, -2])),
    [1, 0, 0, 0, -2 * 10**400],
    [1, 0, -2 * 10**700],
    [0, 0, 3],
    [],
    [Fraction(2, 3), Fraction(1, 2)],
    _mul(_mul([1, 0, -2], [1, 0, -3]), [1, 0, -6]),
    _mul([11 * 13 * 17 * 19 * 23 * 29 * 31 * 37, -1], [1, 0, 1]),
]


class TestIntegerInput:
    @pytest.mark.parametrize("coeffs", KNOWN_EXACT)
    def test_known_polynomials(self, coeffs):
        _assert_int_input_agrees(coeffs)

    def test_rational_roots_stay_fractions(self):
        # the A9 quartic in integers keeps its exact double root 3/5
        ints = _int_form(KNOWN_EXACT[0])
        assert _rational_part(real_roots(ints)) == [(Fraction(3, 5), 2)]

    @given(planted_polynomials())
    @settings(max_examples=50, deadline=None)
    def test_planted_polynomials(self, coeffs):
        _assert_int_input_agrees(coeffs)


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


# --- the sign oracle against sympy's signs at ``CRootOf`` ---------------------

IRRATIONAL_FACTORS = [[1, 0, -2], [1, 0, -3], [2, 0, -7], [1, -1, -1], [1, 0, 0, -2], [3, 0, -5, 1], [1, 0, -10]]
g_st = st.lists(st.integers(-50, 50), min_size=1, max_size=7)


@st.composite
def irrational_planted(draw):
    """An integer polynomial of degree <= 7 with irrational real roots: a lead
    times an irrational factor, and up to two more factors (irrational,
    rational, or ``x^2 + 1`` without a real root), each of multiplicity 1-2."""
    poly = [draw(st.sampled_from([-3, -1, 1, 2]))]
    pool = st.sampled_from(IRRATIONAL_FACTORS + [[3, -2], [1, 5], [1, 0, 1]])
    factors = [draw(st.sampled_from(IRRATIONAL_FACTORS)), *draw(st.lists(pool, max_size=2))]
    for factor in factors:
        for _ in range(draw(st.integers(1, 2))):
            if len(poly) + len(factor) <= 9:
                poly = _int_mul(poly, factor)
    return poly


def _irrational_roots(f):
    """``(root, r, q)`` for each irrational real root of ``f``: its ``Root``
    from ``root_brackets(f, exact=False)``, its sympy ``CRootOf`` ``r`` and
    ``r``'s minimal polynomial ``q``."""
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    found = []
    for q, _mult in sympy.Poly(f, x).factor_list()[1]:
        for i in range(q.count_roots()) if q.degree() > 1 else ():
            r = sympy.CRootOf(q, i, radicals=False)
            found.append((r, q, Fraction(str(sympy.N(r, 60)))))
    out = []
    for root, _mult in root_brackets(f, exact=False):
        assert isinstance(root, Root)
        lo, hi = Fraction(root.lo, 2**root.k), Fraction(root.hi, 2**root.k)
        # the bracket isolates one root of its square-free factor
        factor = sympy.Poly(root.factor, x)
        inside = [(r, q) for r, q, value in found if lo < value <= hi and factor.rem(q).is_zero]
        if inside:
            ((r, q),) = inside
            out.append((root, r, q))
    assert out
    return out


def _sympy_sign(g, r, q):
    """The sign of the integer polynomial ``g`` at the ``CRootOf`` ``r`` of
    the irreducible ``q``: 0 iff ``q`` divides ``g``, else the sign of the
    remainder at ``r``, which is nonzero, evaluated to 60 digits."""
    sympy = pytest.importorskip("sympy")
    x = q.gens[0]
    rem = sympy.Poly(g or [0], x, domain="QQ").rem(q.set_domain("QQ"))
    if rem.is_zero:
        return 0
    return int(sympy.sign(sympy.N(rem.as_expr().subs(x, r), 60)))


def _value_at_end(g, end, k):
    """``g(end / 2**k) * 2**(k * (len(g) - 1))``, exactly."""
    x = Fraction(end, 2**k)
    return sum(c * x ** (len(g) - 1 - i) for i, c in enumerate(g)) * 2 ** (k * (len(g) - 1))


class TestSignAt:
    @given(irrational_planted(), g_st)
    @settings(max_examples=60, deadline=None)
    def test_sign_matches_sympy(self, f, g):
        for root, r, q in _irrational_roots(f):
            assert sign_at(g, root) == _sympy_sign(g, r, q), (f, g)

    @given(irrational_planted(), g_st.filter(any))
    @settings(max_examples=40, deadline=None)
    def test_multiples_of_the_factor_vanish(self, f, h):
        for root, _r, _q in _irrational_roots(f):
            g = _int_mul(root.factor, h)
            assert sign_at(g, root) == 0, (f, h)
            assert sign_at([0, 0, *g], root) == 0, (f, h)

    @pytest.mark.parametrize("f", IRRATIONAL_FACTORS + [_int_mul([1, 0, -2], [1, 0, -3])])
    def test_a_rational_point_in_the_bracket_needs_narrowing(self, f):
        for root, r, q in _irrational_roots(f):
            c = Fraction(root.lo + root.hi, 2 ** (root.k + 1))
            g = [c.denominator, -c.numerator]
            a, b = root.hull(g)
            assert a <= 0 <= b
            k = root.k
            assert sign_at(g, root) == _sympy_sign(g, r, q) != 0
            assert root.k > k

    def test_a_shared_factor_with_roots_outside_the_bracket(self):
        # f = (x^2 - 2)(x^2 - 3): g shares x^2 - 3 with f and vanishes at an
        # end of the float bracket of +-sqrt(2), so only the Sturm count
        # rules out 0
        f = _int_mul([1, 0, -2], [1, 0, -3])
        roots = [(root, r, q) for root, r, q in _irrational_roots(f) if q.all_coeffs() == [1, 0, -2]]
        assert len(roots) == 2
        for root, r, q in roots:
            end, k = root.narrow(float_bits(root.factor))
            g = _int_mul([1, 0, -3], [2**k, -end])
            assert len(_gcd(root.factor, g)) == 3
            a, b = root.hull(g)
            assert a <= 0 <= b
            assert sign_at(g, root) == _sympy_sign(g, r, q) != 0

    @given(irrational_planted(), g_st)
    @settings(max_examples=30, deadline=None)
    def test_leading_zeros_and_the_zero_polynomial(self, f, g):
        for root, _r, _q in _irrational_roots(f):
            assert sign_at([], root) == sign_at([0, 0], root) == 0
            assert sign_at([0, 0, *g], root) == sign_at(g, root), (f, g)

    @given(irrational_planted(), g_st, st.integers(0, 200))
    @settings(max_examples=60, deadline=None)
    def test_hull_encloses_the_ends_of_the_bracket(self, f, g, bits):
        sympy = pytest.importorskip("sympy")
        for root, r, _q in _irrational_roots(f):
            for _ in range(2):
                a, b = root.hull(g)
                for end in (root.lo, root.hi):
                    assert a <= _value_at_end(g, end, root.k) <= b, (f, g, root.k)
                root.narrow(bits)
                # the narrowed bracket still holds the root
                value = sympy.Rational(str(sympy.N(r, 80)))
                assert Fraction(root.lo, 2**root.k) < value <= Fraction(root.hi, 2**root.k)


# --- the Fraction/Sturm/Musser path that ``real_roots`` replaced, kept as the
# reference: Fraction endpoints, a Sturm chain separate from the gcd of
# ``f`` and ``f'``, and Musser's factorization of every input


def _ref_gcd(f, g):
    while g:
        f, g = g, _primitive(_divmod(f, g)[1])
    return _primitive(f)


def _ref_value_at(f, n, d):
    acc, dpow = f[0], 1
    for c in f[1:]:
        dpow *= d
        acc = acc * n + c * dpow
    return acc


def _ref_sturm_chain(f):
    chain = [f, _derivative(f)]
    while len(chain[-1]) > 1:
        chain.append(_primitive([-c for c in _divmod(chain[-2], chain[-1])[1]]))
    return chain


def _ref_variations(chain, x):
    signs = [v > 0 for f in chain if (v := _ref_value_at(f, x.numerator, x.denominator))]
    return sum(map(operator.ne, signs, signs[1:]))


def _ref_isolate(f):
    chain = _ref_sturm_chain(f)
    bound = 2 + max(abs(c) for c in f[1:]) // abs(f[0])
    b = Fraction(1 << bound.bit_length())
    out = []
    stack = [(-b, b, _ref_variations(chain, -b), _ref_variations(chain, b))]
    while stack:
        lo, hi, v_lo, v_hi = stack.pop()
        if v_lo - v_hi == 1:
            out.append((lo, hi))
        elif v_lo - v_hi > 1:
            mid = (lo + hi) / 2
            v_mid = _ref_variations(chain, mid)
            stack += [(mid, hi, v_mid, v_hi), (lo, mid, v_lo, v_mid)]
    return out


def _ref_refine(f, lo, hi, bits):
    D = max(lo.denominator, hi.denominator, 1 << bits)
    a, b = lo.numerator * (D // lo.denominator), hi.numerator * (D // hi.denominator)
    df, v_b = _derivative(f), _ref_value_at(f, b, D)
    m, steps = (a + b) // 2, 0
    while v_b and b - a > 1:
        v, dv = _ref_value_at(f, m, D), _ref_value_at(df, m, D)
        if v == 0:
            return Fraction(m, D)
        if (v > 0) == (v_b > 0):
            b = m
        else:
            a = m
        last, m, steps = m, (a + b) // 2, steps + 1
        if dv and steps < 40 and 2 * (b - a) <= max(-a, b):
            newton = last - v // dv
            if newton == last:
                newton += 1 if last == a else -1
            if a < newton < b:
                m = newton
    return Fraction(b, D)


def _ref_square_free(f):
    out, k = [], 1
    g = _ref_gcd(f, _derivative(f))
    b = _divmod(f, g)[0]
    while len(b) > 1:
        h = _ref_gcd(b, g)
        q = _divmod(b, h)[0]
        if len(q) > 1:
            out.append((_primitive(q), k))
        b, g, k = h, _divmod(g, h)[0], k + 1
    return out


def _ref_rational_root(f, lo, hi):
    lead = abs(f[0])
    cand = _ref_refine(f, lo, hi, (4 * lead * lead).bit_length()).limit_denominator(lead)
    if lo < cand <= hi and _ref_value_at(f, cand.numerator, cand.denominator) == 0:
        return cand
    return None


def _reference_real_roots(coeffs):
    if all(type(c) is int for c in coeffs):
        rest = list(coeffs)
    else:
        fracs = [Fraction(c) for c in coeffs]
        lcm = math.lcm(*(c.denominator for c in fracs))
        rest = [c.numerator * (lcm // c.denominator) for c in fracs]
    while rest and rest[0] == 0:
        rest = rest[1:]
    if len(rest) <= 1:
        return []
    exact = all(map(is_exact, coeffs))
    roots = []
    for factor, mult in _ref_square_free(_primitive(rest)):
        intervals = _ref_isolate(factor)
        floating = intervals
        if exact and _may_have_rational_root(factor):
            floating = []
            for lo, hi in intervals:
                root = _ref_rational_root(factor, lo, hi)
                if root is None:
                    floating.append((lo, hi))
                else:
                    roots.append((root, mult))
                    factor = _divmod(factor, [root.denominator, -root.numerator])[0]
        tail = next(c for c in reversed(factor) if c)
        bits = 57 + max(map(abs, factor)).bit_length() - abs(tail).bit_length()
        for lo, hi in floating:
            root = _ref_refine(factor, lo, hi, bits)
            try:
                roots.append((float(root), mult))
            except OverflowError:
                roots.append((math.inf if root > 0 else -math.inf, mult))
    return sorted(roots, key=lambda rm: rm[0])


def _recorded_inputs(monkeypatch, argv):
    """Every coefficient list that ``cli.main(argv)`` hands to ``real_roots``,
    and every census resultant, which goes to ``root_brackets``."""
    seen = []

    def record(coeffs, exact=None):
        seen.append(list(coeffs))
        return real_roots(coeffs, exact)

    def record_brackets(f, exact=True):
        seen.append(list(f))
        return root_brackets(f, exact)

    monkeypatch.setattr(equilibria, "real_roots", record)
    monkeypatch.setattr(equilibria, "root_brackets", record_brackets)
    monkeypatch.setattr(blowup, "real_roots", record)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    monkeypatch.undo()
    return seen


def _seeded_polynomials(seed=1, count=100):
    """Integer polynomials with repeated rational and irrational factors,
    negative leads and large coefficients, and their float images; and
    polynomials with a root or a coefficient beyond the float range."""
    rng = random.Random(seed)
    out = [
        [1, 0, -2 * 10**700], [-3, 0, 2 * 10**700], [1, 0, 0, 0, -2 * 10**400],
        _int_mul([3, -7], [1, 0, -2 * 10**700]),
    ]
    for _ in range(count):
        poly = [rng.choice([-1, 1]) * rng.randint(1, 2**rng.randint(1, 80))]
        for _ in range(rng.randint(1, 3)):
            q, p = rng.randint(1, 2**rng.randint(1, 40)), rng.randint(-(2**40), 2**40)
            factor = rng.choice([[q, -p], [q, 0, -abs(p) - 1], [q, p, rng.randint(-50, 50)]])
            for _ in range(rng.choice([1, 1, 2, 3])):
                poly = _int_mul(poly, factor)
        out.append(poly)
        out.append([float(c) for c in poly] if max(map(abs, poly)) < 2**1000 else poly[::-1])
    return out


class TestReferenceParity:
    """``real_roots`` on integer dyadic grids gives what the Fraction/Sturm/
    Musser path gives: the same types, ``float.hex`` or ``Fraction`` values
    and multiplicities."""

    def _assert_parity(self, corpus):
        for coeffs in corpus:
            assert _bits(real_roots(coeffs)) == _bits(_reference_real_roots(coeffs)), coeffs

    def test_scan_inputs(self, monkeypatch):
        # the 164 census resultants of the scan grid's orbits off Omega (the
        # censuses of verify's A12 cross-check), and the quartics that the
        # oracle's solve_general solves at its orbits in general position
        corpus = []

        def recorded(coeffs, exact=True):
            corpus.append(list(coeffs))
            return root_brackets(coeffs, exact)

        monkeypatch.setattr(equilibria, "root_brackets", recorded)
        monkeypatch.setattr(closed_forms, "root_brackets", recorded)
        orbits = sorted({tuple(sorted(a)) for a in cube_grid(9)})
        for a in orbits:
            if a != (0.25, 0.25, 0.25):
                equilibria.solve_all(Parameters(*a))
        assert len(corpus) == 164
        for a in orbits:
            if len(set(a)) == 3:
                closed_forms.solve_general(Parameters(*a))
        monkeypatch.undo()
        assert len(corpus) > 200
        self._assert_parity(corpus)

    def test_large_coefficient_triple(self, monkeypatch):
        corpus = _recorded_inputs(monkeypatch, ["analyze", "--a", "13/97,17/89,23/101", "--exact"])
        assert corpus
        self._assert_parity(corpus)

    def test_seeded_polynomials(self):
        corpus = _seeded_polynomials()
        found = [real_roots(c) for c in corpus]
        # the corpus has repeated roots, rational roots and infinite roots
        assert any(m > 1 for f in found for _, m in f)
        assert any(type(r) is Fraction for f in found for r, _ in f)
        assert any(r in (-math.inf, math.inf) for f in found for r, _ in f)
        self._assert_parity(corpus)
        self._assert_parity(KNOWN_EXACT)


# --- Poly and its truncated series against sympy ------------------------------


def _random_poly(rng, nvars, order=None, unit=False):
    """A ``Poly`` of total degree at most 3 with small random rational
    coefficients; with ``unit`` its constant term is nonzero."""
    terms = {}
    for _ in range(rng.randint(1, 6)):
        mono = [0] * nvars
        for _ in range(rng.randint(0, 3)):
            mono[rng.randrange(nvars)] += 1
        terms[tuple(mono)] = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
    if unit:
        terms[(0,) * nvars] = Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(1, 4))
    return Poly({m: c for m, c in terms.items() if c}, nvars, order)


def _sympy_terms(expr, syms):
    """The monomials of a sympy polynomial as a dict of ``Fraction``s."""
    sympy = pytest.importorskip("sympy")
    poly = sympy.Poly(sympy.expand(expr), *syms)
    return {m: Fraction(int(c.p), int(c.q)) for m, c in poly.as_dict().items() if c}


def _to_sympy(poly, syms):
    sympy = pytest.importorskip("sympy")
    return sum(
        (sympy.Rational(c.numerator, c.denominator) * sympy.Mul(*(x**e for x, e in zip(syms, m)))
         for m, c in poly.items()),
        sympy.Integer(0),
    )


def _truncated(terms, order):
    return {m: c for m, c in terms.items() if sum(m) <= order}


@pytest.fixture(params=[2, 3], ids=["2-vars", "3-vars"])
def syms(request):
    sympy = pytest.importorskip("sympy")
    return sympy.symbols(f"x0:{request.param}")


class TestPolyAgainstSympy:
    """``Poly``'s ring operations, its truncation at ``order`` and its
    series inverse on random rational polynomials, against sympy."""

    @pytest.mark.parametrize("seed", range(8))
    def test_ring_operations(self, seed, syms):
        rng, n = random.Random(seed), len(syms)
        p, q = _random_poly(rng, n), _random_poly(rng, n)
        c = Fraction(rng.randint(-7, 7), rng.randint(1, 3))
        sp, sq = _to_sympy(p, syms), _to_sympy(q, syms)
        cases = [
            (p + q, sp + sq), (p - q, sp - sq), (p * q, sp * sq), (-p, -sp),
            (p + c, sp + c), (c - p, c - sp), (c * p, c * sp), (p ** 3, sp**3), (p ** 0, 1),
        ]
        cases += [(p.diff(i), sp.diff(x)) for i, x in enumerate(syms)]
        for got, want in cases:
            assert got == _sympy_terms(want, syms)
            assert all(got.values()) and got.nvars == n and got.order is None

    @pytest.mark.parametrize("seed", range(8))
    def test_truncation_drops_exactly_the_monomials_above_order(self, seed, syms):
        rng, n = random.Random(seed), len(syms)
        p, q = _random_poly(rng, n), _random_poly(rng, n)
        sp, sq = _to_sympy(p, syms), _to_sympy(q, syms)
        for order in range(5):
            pt, qt = Poly(p, n, order), Poly(q, n, order)
            assert pt == _truncated(p, order)
            for got, want in ((pt + qt, sp + sq), (pt - 1, sp - 1), (pt * qt, sp * sq), (pt ** 2, sp**2)):
                assert got.order == order
                assert got == _truncated(_sympy_terms(want, syms), order)
            # the lower order wins, and a derivative knows one degree less
            assert (pt * Poly(q, n, order + 2)).order == order
            assert (pt + q).order == order
            assert pt.diff(0) == _truncated(_sympy_terms(sp.diff(syms[0]), syms), order - 1)

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("order", [0, 2, 3])
    def test_inverse_is_the_taylor_series(self, seed, order, syms):
        sympy = pytest.importorskip("sympy")
        rng, n = random.Random(seed), len(syms)
        p, q = _random_poly(rng, n, order, unit=True), _random_poly(rng, n, order)
        t = sympy.Symbol("t")
        scaled = {x: t * x for x in syms}
        sp, sq = _to_sympy(p, syms).subs(scaled), _to_sympy(q, syms).subs(scaled)

        def series(expr):
            # the terms of degree at most ``order`` in x, as powers of t
            return _sympy_terms(sympy.series(expr, t, 0, order + 1).removeO().subs(t, 1), syms)

        assert p.inverse() == series(1 / sp)
        assert q / p == series(sq / sp)
        assert 3 / p == series(3 / sp)
        assert p / 2 == series(sp / 2)
        assert (p * p.inverse()) == {(0,) * n: 1}

    def test_inverse_of_zero_constant_term_raises(self):
        x, y = Poly.var(0, 2, 3), Poly.var(1, 2, 3)
        for series in (x + y * y, Poly({}, 2, 3), x * 0):
            with pytest.raises(ZeroDivisionError):
                series.inverse()
            with pytest.raises(ZeroDivisionError):
                1 / series
        with pytest.raises(ZeroDivisionError):
            (1 + x) / 0

    def test_inverse_without_order(self):
        # a constant inverts exactly; 1/(1 + x) has no polynomial form
        assert Poly.const(4, 2).inverse() == {(0, 0): Fraction(1, 4)}
        with pytest.raises(ValueError):
            (1 + Poly.var(0, 2)).inverse()


# --- cleared and Layout, the integer evaluation of laid-out polynomials ------


class TestCleared:
    def test_ints(self):
        assert cleared([3, -4, 0]) == ([3, -4, 0], 1)
        assert cleared([]) == ([], 1)

    def test_fractions(self):
        assert cleared([Fraction(1, 6), Fraction(-3, 4), Fraction(5)]) == ([2, -9, 60], 12)

    def test_floats_are_dyadic(self):
        # 0.1 is 3602879701896397 / 2**55
        assert cleared([0.5, 0.1, -2.0]) == ([2**54, 3602879701896397, -(2**56)], 2**55)

    def test_mixed(self):
        ints, d = cleared([Fraction(1, 3), 0.75, 2, Fraction(-5, 8)])
        assert (ints, d) == ([8, 18, 48, -15], 24)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(st.integers(-10**6, 10**6), st.fractions(max_denominator=10**4),
                              st.floats(-1e6, 1e6)), max_size=6))
    def test_values_over_the_lcm(self, values):
        ints, d = cleared(values)
        assert all(type(n) is int for n in ints)
        assert [Fraction(n, d) for n in ints] == [Fraction(v) for v in values]
        assert d == math.lcm(*(Fraction(v).denominator for v in values))


class TestLayout:
    """``Layout.at`` against the coefficients that ``Poly`` gives once the
    parameters are substituted, for the weights that the package uses."""

    @settings(max_examples=100, deadline=None)
    @given(
        weights=st.sampled_from([(1, 1, 1), (1, 2, 3), (1, 1, 1, 2)]),
        seed=st.integers(0, 2**32),
        d=st.integers(1, 60),
        data=st.data(),
    )
    def test_coefficients_at_rational_parameters(self, weights, seed, d, data):
        n = len(weights)
        rng = random.Random(seed)
        # parameters, then two free variables
        polys = [_random_poly(rng, n + 2) for _ in range(3)]
        numerators = data.draw(st.lists(st.integers(-60, 60), min_size=n, max_size=n))
        values = [Fraction(nj, d**w) for nj, w in zip(numerators, weights)]
        layout = Layout(polys, weights)
        for poly, row, monos, scale in zip(polys, layout.at(numerators, d), layout.monos, layout.scales):
            assert scale == math.lcm(*(c.denominator for c in poly.values()))
            expected = {}
            for mono, c in poly.items():
                term = c * math.prod(v**e for v, e in zip(values, mono[:n]))
                expected[mono[n:]] = expected.get(mono[n:], 0) + term
            assert list(monos) == list(expected)
            assert all(type(v) is int for v in row)
            assert [Fraction(v, scale * d**layout.weight) for v in row] == list(expected.values())
