import contextlib
import io
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wallachflow import blowup, cli, flow
from wallachflow.core import Parameters, is_exact
from wallachflow.flow import (
    MetricPoint,
    field_components,
    log_volume,
    normalization_weight,
    phi,
    vector_field_2d,
    vector_field_3d,
)

positive_rationals = st.fractions(
    min_value=Fraction(1, 20), max_value=Fraction(10), max_denominator=30
)
wallach_rationals = st.fractions(
    min_value=Fraction(1, 20), max_value=Fraction(1, 2), max_denominator=30
)


def triple(p=wallach_rationals):
    return st.tuples(p, p, p)


def normalization_term(a1, a2, a3, x1, x2, x3):
    """The scalar-curvature normalization term ``B`` of ``flow._field``, over
    any ring with division; homogeneous of degree -1 in the metric
    coefficients."""
    return flow._field(a1, a2, a3, x1, x2, x3)[3]


def b_term(p: Parameters, x: MetricPoint):
    """The scalar-curvature normalization term at a metric point."""
    return normalization_term(*p.a, *x.x)


def volume(p: Parameters, x: MetricPoint):
    """The conserved volume ``V``; exact when every exponent 1/a_i is integral."""
    exps = [1 / Fraction(ai) if is_exact(ai) else 1.0 / ai for ai in p.a]
    if x.exact and all(is_exact(e) and Fraction(e).denominator == 1 for e in exps):
        out = Fraction(1)
        for xi, e in zip(x.x, exps):
            out *= Fraction(xi) ** int(e)
        return out
    return math.exp(log_volume(p, x))


class TestBTerm:
    @given(wallach_rationals)
    def test_equal_parameters_at_unit_point(self, a):
        p = Parameters(a, a, a)
        assert b_term(p, MetricPoint(1, 1, 1)) == 1 - a

    def test_quarter_case(self):
        p = Parameters(Fraction(1, 4), Fraction(1, 4), Fraction(1, 4))
        assert b_term(p, MetricPoint(1, 1, 1)) == Fraction(3, 4)

    @given(triple(), st.fractions(min_value=Fraction(1, 7), max_value=7, max_denominator=20))
    def test_inverse_scale_homogeneity(self, a, lam):
        try:
            p = Parameters(*a)
        except ValueError:
            return
        if not p.reduced_ok:
            return
        x = MetricPoint(Fraction(3, 4), Fraction(5, 3), Fraction(7, 6))
        assert b_term(p, x.scaled(lam)) == b_term(p, x) / lam


class TestVectorField3D:
    def test_requires_nonzero_parameters(self):
        p = Parameters(1, -1, 0)
        with pytest.raises(ValueError):
            vector_field_3d(p, MetricPoint(1, 1, 1))

    @pytest.mark.parametrize(
        "x",
        [(1, 1, 1), (2, 1, 1), (1, 2, 1), (Fraction(1, 2), Fraction(1, 2), 1)],
    )
    def test_equilibria_of_sixth_case(self, x):
        p = Parameters(Fraction(1, 6), Fraction(1, 6), Fraction(1, 6))
        assert vector_field_3d(p, MetricPoint(*x)) == (0, 0, 0)

    def test_scale_invariance_of_field(self):
        # degree-0 homogeneity: the field takes the same value along a ray
        p = Parameters(Fraction(1, 4), Fraction(1, 4), Fraction(1, 4))
        v1 = vector_field_3d(p, MetricPoint(2, 2, 2))
        v2 = vector_field_3d(p, MetricPoint(1, 1, 1))
        assert v1 == v2 == (0, 0, 0)

    @given(triple(), triple(positive_rationals))
    @settings(max_examples=60)
    def test_first_integral_identity_exact(self, a, x):
        # sum of f_i / (a_i x_i) is identically zero: the rational form of
        # grad(V) . F = 0
        try:
            p = Parameters(*a)
        except ValueError:
            return
        if not p.reduced_ok:
            return
        pt = MetricPoint(*x)
        v = vector_field_3d(p, pt)
        total = sum(vi / (ai * xi) for vi, ai, xi in zip(v, p.a, pt.x))
        assert total == 0

    def test_first_integral_float(self):
        p = Parameters(0.21, 0.37, 0.44)
        pt = MetricPoint(1.7, 0.3, 2.2)
        v = vector_field_3d(p, pt)
        # directional derivative of log V along the field
        deriv = sum(vi / (ai * xi) for vi, ai, xi in zip(v, p.a, pt.x))
        scale = sum(abs(vi / (ai * xi)) for vi, ai, xi in zip(v, p.a, pt.x))
        assert abs(deriv) <= 1e-10 * max(1.0, scale)


class TestVolumeAndPhi:
    def test_unit_point(self):
        p = Parameters(Fraction(1, 6), Fraction(1, 4), Fraction(1, 3))
        assert volume(p, MetricPoint(1, 1, 1)) == 1

    def test_integer_exponents_stay_exact(self):
        p = Parameters(Fraction(1, 6), Fraction(1, 6), Fraction(1, 6))
        assert volume(p, MetricPoint(2, 1, 1)) == 64
        p = Parameters(Fraction(1, 2), Fraction(1, 2), Fraction(1, 2))
        assert volume(p, MetricPoint(2, 3, 4)) == 576

    def test_phi_examples(self):
        p = Parameters(Fraction(1, 6), Fraction(1, 6), Fraction(1, 6))
        assert phi(p, 1, 1) == 1
        assert phi(p, 2, 1) == Fraction(1, 2)

    @given(st.floats(0.2, 5), st.floats(0.2, 5))
    @settings(max_examples=40)
    def test_phi_defining_property(self, x1, x2):
        p = Parameters(0.21, 0.37, 0.44)
        x3 = phi(p, x1, x2)
        assert abs(log_volume(p, MetricPoint(x1, x2, x3))) < 1e-12

    def test_volume_overflow_safe_in_log_space(self):
        p = Parameters(0.01, 0.02, 0.015)
        lv = log_volume(p, MetricPoint(3.0, 5.0, 2.0))
        assert math.isfinite(lv)

    def test_log_volume_sums_left_to_right(self):
        # the terms are (1e16, 1.0, -1e16): left to right from 0 the 1.0 is
        # lost, as on every Python version; a compensated sum keeps it
        p = Parameters(1e-14, 1.0, 1e-14)
        x = MetricPoint(math.exp(100), math.e, math.exp(-100))
        terms = [math.log(xi) / ai for xi, ai in zip(x.x, p.a)]
        assert terms == [1e16, 1.0, -1e16] and math.fsum(terms) == 1.0
        assert repr(log_volume(p, x)) == "0.0"

    def test_a_parameter_that_rounds_to_0_is_overflow(self):
        # 10**-330 is a positive exact parameter whose float is 0.0, where
        # log(x) / a would divide by zero
        p = Parameters(Fraction(1, 10**330), Fraction(1, 5), Fraction(1, 7))
        with pytest.raises(OverflowError):
            log_volume(p, MetricPoint(1, 1, 1))


class TestVectorField2D:
    def test_reduces_to_zero_at_equilibrium(self):
        p = Parameters(Fraction(1, 6), Fraction(1, 6), Fraction(1, 6))
        assert vector_field_2d(p, 1, 1) == (0, 0)

    def test_scaled_fourteen_case(self):
        # (14, 14) lies on an equilibrium ray; its unit-volume representative
        # is a planar equilibrium
        p = Parameters(Fraction(7, 15), Fraction(7, 15), Fraction(7, 15))
        c = 14.0 ** (1.0 / 3.0)
        f, g = vector_field_2d(p, c, c)
        assert max(abs(float(f)), abs(float(g))) < 1e-13

    def test_matches_3d_composition(self):
        p = Parameters(0.21, 0.37, 0.44)
        x1, x2 = 1.3, 0.8
        x3 = phi(p, x1, x2)
        v1, v2, _v3 = vector_field_3d(p, MetricPoint(x1, x2, x3))
        assert vector_field_2d(p, x1, x2) == (v1, v2)

    def test_surface_identity(self):
        # on the unit-volume surface the third component is determined by the
        # first two through the derivatives of phi
        p = Parameters(0.21, 0.37, 0.44)
        x1, x2 = 1.3, 0.8
        x3 = float(phi(p, x1, x2))
        v1, v2, v3 = vector_field_3d(p, MetricPoint(x1, x2, x3))
        h = 1e-6
        phi_x1 = (float(phi(p, x1 + h, x2)) - float(phi(p, x1 - h, x2))) / (2 * h)
        phi_x2 = (float(phi(p, x1, x2 + h)) - float(phi(p, x1, x2 - h))) / (2 * h)
        lhs = float(v3)
        rhs = float(v1) * phi_x1 + float(v2) * phi_x2
        assert abs(lhs - rhs) < 1e-9

    def test_rejects_nonpositive(self):
        p = Parameters(Fraction(1, 6), Fraction(1, 6), Fraction(1, 6))
        with pytest.raises(ValueError):
            vector_field_2d(p, -1, 1)
        with pytest.raises(ValueError):
            MetricPoint(0, 1, 1)


def _reference_field(a1, a2, a3, x1, x2, x3):
    """The field with each ratio ``x_i / (x_j x_k)`` written out four times,
    as it was before ``field_components`` shared them: the oracle of the
    shared form.  Returns the normalization term and the three components."""
    weight = normalization_weight(a1, a2, a3)
    B = (
        1 / (a1 * x1)
        + 1 / (a2 * x2)
        + 1 / (a3 * x3)
        - (x1 / (x2 * x3) + x2 / (x1 * x3) + x3 / (x1 * x2))
    ) * weight
    f = -1 - a1 * x1 * (x1 / (x2 * x3) - x2 / (x1 * x3) - x3 / (x1 * x2)) + x1 * B
    g = -1 - a2 * x2 * (x2 / (x1 * x3) - x3 / (x1 * x2) - x1 / (x2 * x3)) + x2 * B
    h = -1 - a3 * x3 * (x3 / (x1 * x2) - x1 / (x2 * x3) - x2 / (x1 * x3)) + x3 * B
    return B, (f, g, h)


_float_param = st.floats(min_value=0.01, max_value=0.5)
_float_coord = st.floats(min_value=1e-3, max_value=1e3)


class TestSharedRatios:
    """``flow._field`` computes each ratio once; its values must be, bit for
    bit, those of the formulas with every ratio written out."""

    @staticmethod
    def assert_same(a, x):
        B, fgh = _reference_field(*a, *x)
        # repr tells -0.0 from 0.0 and compares Fractions exactly; the one
        # frame and its public readers
        assert repr(flow._field(*a, *x)) == repr((*fgh, B))
        assert repr(field_components(*a, *x)) == repr(fgh)
        assert repr(normalization_term(*a, *x)) == repr(B)

    @settings(max_examples=300, deadline=None)
    @given(
        a=st.tuples(*[st.one_of(wallach_rationals, _float_param)] * 3),
        x=st.tuples(_float_coord, _float_coord, _float_coord),
    )
    def test_float_points(self, a, x):
        self.assert_same(a, x)

    @settings(max_examples=100, deadline=None)
    @given(a=triple(), x=triple(positive_rationals))
    def test_fraction_points(self, a, x):
        self.assert_same(a, x)

    @settings(max_examples=100, deadline=None)
    @given(a=triple(), x=triple(positive_rationals))
    def test_default_unit_stays_exact(self, a, x):
        assert all(type(c) is Fraction for c in field_components(*a, *x))

    def test_blowup_report(self, monkeypatch):
        # the blow-up evaluates the field once, on Taylor series (``Poly``
        # truncated at total degree 3)
        def report():
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert cli.main(["blowup"]) == 0
            return out.getvalue()

        calls = []

        def reference(*args):
            calls.append(args)
            return _reference_field(*args)[1]

        shared = report()
        monkeypatch.setattr(flow, "field_components", reference)
        monkeypatch.setattr(blowup, "field_components", reference)
        assert report() == shared
        assert len(calls) == 1
