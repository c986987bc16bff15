from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from wallachflow.core import (
    LieData,
    Parameters,
    exact_sqrt,
    params_from_dims,
    parse_scalar,
    scalar_to_json,
    sqrt_scalar,
)

rationals = st.fractions(
    min_value=Fraction(-5), max_value=Fraction(5), max_denominator=40
)


class TestScalar:
    def test_parse_fraction(self):
        assert parse_scalar("5/36") == Fraction(5, 36)
        assert parse_scalar("-2/3") == Fraction(-2, 3)

    def test_parse_integer_is_exact(self):
        v = parse_scalar("3")
        assert v == 3 and isinstance(v, Fraction)

    def test_parse_decimal_is_float(self):
        v = parse_scalar("0.25")
        assert isinstance(v, float)

    def test_serialization_round_trip(self):
        assert scalar_to_json(Fraction(5, 36)) == "5/36"
        assert scalar_to_json(0.25) == 0.25

    def test_exact_sqrt(self):
        assert exact_sqrt(Fraction(169, 225)) == Fraction(13, 15)
        assert exact_sqrt(Fraction(2)) is None
        assert exact_sqrt(2.0) is None

    def test_sqrt_scalar(self):
        # exact when the root is rational, else the float root
        assert sqrt_scalar(Fraction(169, 225)) == Fraction(13, 15)
        assert type(sqrt_scalar(Fraction(169, 225))) is Fraction
        assert sqrt_scalar(Fraction(2)) == 2**0.5
        assert sqrt_scalar(4.0) == 2.0 and type(sqrt_scalar(4.0)) is float
        with pytest.raises(ValueError, match="negative radicand"):
            sqrt_scalar(Fraction(-1, 4))


class TestParameters:
    def test_symmetric_functions_cached(self):
        p = Parameters(Fraction(1, 4), Fraction(1, 4), Fraction(1, 4))
        assert (p.s1, p.s2, p.s3) == (Fraction(3, 4), Fraction(3, 16), Fraction(1, 64))
        assert p.A == p.s2

    def test_example_sixth(self):
        p = Parameters(Fraction(1, 6), Fraction(1, 6), Fraction(1, 6))
        assert (p.s1, p.s2, p.s3) == (Fraction(1, 2), Fraction(1, 12), Fraction(1, 216))

    def test_example_mixed(self):
        p = Parameters(Fraction(1, 6), Fraction(1, 4), Fraction(1, 3))
        assert (p.s1, p.s2, p.s3) == (Fraction(3, 4), Fraction(13, 72), Fraction(1, 72))

    def test_rejects_a_fourth_argument(self):
        # the symmetric functions are computed, never passed
        with pytest.raises(TypeError):
            Parameters(0.1, 0.2, 0.3, 0.4)
        with pytest.raises(TypeError):
            Parameters(0.1, 0.2, 0.3, s1=0.6)

    def test_rejects_zero_pairwise_sum(self):
        with pytest.raises(ValueError):
            Parameters(1, 1, Fraction(-1, 2))

    def test_flags(self):
        p = Parameters(1, -1, 1)
        assert p.s2 == -1
        assert not p.wallach_range
        p = Parameters(1, -1, 0)
        assert not p.reduced_ok

    @given(rationals, rationals, rationals)
    def test_symmetric_functions_match_polynomial_expansion(self, a1, a2, a3):
        # brute-force oracle: expand (t - a1)(t - a2)(t - a3)
        if a1 * a2 + a1 * a3 + a2 * a3 == 0:
            return
        coeffs = [Fraction(1), -a1]
        for root in (a2, a3):
            coeffs = [c for c in coeffs] + [Fraction(0)]
            for i in range(len(coeffs) - 1, 0, -1):
                coeffs[i] -= root * coeffs[i - 1]
        p = Parameters(a1, a2, a3)
        assert coeffs[1] == -p.s1
        assert coeffs[2] == p.s2
        assert coeffs[3] == -p.s3

    def test_json_round_trip(self):
        p = Parameters(Fraction(5, 36), Fraction(1, 6), Fraction(1, 4))
        q = Parameters(*(parse_scalar(v) for v in p.to_json()["a"]))
        assert q == p


class TestLieData:
    def test_so20_case(self):
        lie = LieData(36, 30, 20, 5)
        p = params_from_dims(lie)
        assert p.a == (Fraction(5, 36), Fraction(1, 6), Fraction(1, 4))
        assert p.wallach_range

    def test_boundary_dims(self):
        p = params_from_dims(LieData(2, 2, 2, 1))
        assert p.a == (Fraction(1, 2), Fraction(1, 2), Fraction(1, 2))

    def test_equal_dims(self):
        p = params_from_dims(LieData(4, 4, 4, 1))
        assert p.a == (Fraction(1, 4), Fraction(1, 4), Fraction(1, 4))

    def test_rejects_small_dimension(self):
        with pytest.raises(ValueError):
            LieData(3, 4, 4, 2)
        with pytest.raises(ValueError):
            LieData(0, 4, 4, 1)
        with pytest.raises(ValueError):
            LieData(4, 4, 4, 0)

    def test_rejects_bool_dimension(self):
        # True is an int: it would give a1 = A/True = A
        with pytest.raises(ValueError, match="positive integers"):
            LieData(True, 1, 1, Fraction(1, 2))

    def test_rejects_nan_structure_constant(self):
        # every comparison with NaN is false, so NaN <= 0 does not reject it
        with pytest.raises(ValueError, match="must be positive"):
            LieData(2, 2, 2, float("nan"))

    @given(st.integers(2, 30), st.integers(2, 30), st.integers(2, 30))
    def test_dims_give_exact_ratios(self, d1, d2, d3):
        amax = min(d1, d2, d3)
        lie = LieData(d1, d2, d3, Fraction(amax, 2))
        p = params_from_dims(lie)
        assert p.a1 == Fraction(amax, 2) / d1
        assert p.wallach_range


class TestValidate:
    """The domain flags that the CLI and the solvers check."""

    def test_all_good(self):
        p = Parameters(Fraction(1, 4), Fraction(1, 4), Fraction(1, 4))
        assert p.s2 != 0 and p.reduced_ok and p.wallach_range

    def test_interior_note(self):
        assert Parameters(Fraction(1, 6), Fraction(1, 4), Fraction(1, 3)).interior
        assert not Parameters(Fraction(1, 2), Fraction(1, 4), Fraction(1, 3)).interior

    def test_zero_factor(self):
        p = Parameters(1, -1, 0)
        assert not p.reduced_ok
        assert not p.wallach_range
