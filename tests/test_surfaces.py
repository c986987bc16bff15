import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wallachflow import equilibria, surfaces
from wallachflow._poly import Poly
from wallachflow.core import Parameters
from wallachflow.linearize import SIGMA_ZERO_S_HIGH, SIGMA_ZERO_S_LOW
from wallachflow.surfaces import (
    _Q_GRAD,
    _Q_POLY,
    Region,
    classify_region,
    component_classify,
    cube_grid,
    edge_curve,
    grad_q1,
    q1_eval,
    q_and_grad,
    q_eval,
    scan,
)

wallach = st.fractions(
    min_value=Fraction(1, 18), max_value=Fraction(9, 20), max_denominator=24
)


def _perms(t):
    a, b, c = t
    return [(a, b, c), (a, c, b), (b, a, c), (b, c, a), (c, a, b), (c, b, a)]


class TestDegeneracyPolynomial:
    def test_umbilic_point(self):
        p = Parameters(Fraction(1, 4), Fraction(1, 4), Fraction(1, 4))
        assert q_eval(p) == 0
        assert q_and_grad(p)[1] == (0, 0, 0)

    @pytest.mark.parametrize("s", [Fraction(1, 6), Fraction(1, 3), Fraction(2, 5)])
    def test_diagonal_closed_form(self, s):
        q = q_eval(Parameters(s, s, s))
        assert q == -((2 * s + 1) ** 4) * (4 * s - 1) ** 8

    def test_two_equal_family_closed_form_exact(self):
        for s in (Fraction(1, 2), Fraction(3, 5), Fraction(7, 10)):
            s2 = s * s
            eq = (2 * s2 - 1) ** 2 / (8 * s2)
            dist = (4 * s2 * s2 + 4 * s2 - 1) / (8 * s2)
            q = q_eval(Parameters(eq, eq, dist))
            assert q == s**8 * (1 - 8 * s2 - 4 * s2 * s2) * (1 - 2 * s2) ** 3 * (3 - 2 * s2) ** 3

    def test_two_equal_family_roots_outside_interval(self):
        # positive zeros of the family restriction, none interior to the
        # family's parameter interval
        roots = [math.sqrt(2 * math.sqrt(5) - 4) / 2, math.sqrt(2) / 2, math.sqrt(6) / 2]
        for r in roots:
            s2 = r * r
            val = r**8 * (1 - 8 * s2 - 4 * s2 * s2) * (1 - 2 * s2) ** 3 * (3 - 2 * s2) ** 3
            assert abs(val) < 1e-12
            assert not SIGMA_ZERO_S_LOW < r < SIGMA_ZERO_S_HIGH

    @given(wallach, wallach, wallach)
    @settings(max_examples=30)
    def test_permutation_invariance(self, a1, a2, a3):
        vals = {q_eval(Parameters(*t)) for t in _perms((a1, a2, a3))}
        assert len(vals) == 1
        vals = {q1_eval(Parameters(*t)) for t in _perms((a1, a2, a3))}
        assert len(vals) == 1

    def test_gradient_matches_finite_differences(self):
        p = Parameters(0.21, 0.37, 0.44)
        g = [float(v) for v in q_and_grad(p)[1]]
        h = 1e-6
        for i in range(3):
            a_up = list(p.a)
            a_dn = list(p.a)
            a_up[i] += h
            a_dn[i] -= h
            fd = (float(q_eval(Parameters(*a_up))) - float(q_eval(Parameters(*a_dn)))) / (2 * h)
            assert abs(fd - g[i]) <= 1e-6 * max(1.0, abs(g[i]))


def _monomial_sum(poly, values):
    """Reference evaluation: ``c * v**e`` per factor with the ``Fraction``
    coefficients of ``poly``, summed in its dict order."""
    total = 0
    for mono, c in poly.items():
        term = c
        for v, e in zip(values, mono):
            if e:
                term = term * v**e
        total = total + term
    return total


def _reference_grad(p):
    a1, a2, a3 = p.a
    ds1, ds2, ds3 = (_monomial_sum(g, (p.s1, p.s2, p.s3)) for g in _Q_GRAD)
    return (
        ds1 + ds2 * (a2 + a3) + ds3 * (a2 * a3),
        ds1 + ds2 * (a1 + a3) + ds3 * (a1 * a3),
        ds1 + ds2 * (a1 + a2) + ds3 * (a1 * a2),
    )


def _float_parity_triples():
    rng = random.Random(0)
    near_face = []
    for k in range(1, 17):
        h = 0.5 - 10.0**-k
        near_face += [(h, 0.3, 0.2), (0.1, h, 0.45), (h, h, 0.05), (h, h, h)]
    uniform = [tuple(rng.uniform(1e-3, 0.5) for _ in range(3)) for _ in range(300)]
    return cube_grid(9) + uniform + near_face


def _exact_parity_triples():
    rng = random.Random(0)
    triples = []
    for _ in range(200):
        triples.append(tuple(
            Fraction(rng.randint(1, d // 2), d) for d in (rng.randint(2, 120) for _ in range(3))
        ))
    return triples + [
        (Fraction(13, 97), Fraction(17, 89), Fraction(23, 101)),
        (Fraction(1, 30), Fraction(1, 2) - Fraction(1, 10**12), Fraction(1, 30)),
    ]


class TestKernelParity:
    """The exact layouts and ``_float_sums`` give what evaluating the
    monomials of Q and its partials one term at a time gives: equal
    ``Fraction``s for exact input, the same bits for float input."""

    def test_float_input_bit_for_bit(self):
        for a in _float_parity_triples():
            p = Parameters(*a)
            q_ref = _monomial_sum(_Q_POLY, (p.s1, p.s2, p.s3))
            grad_ref = _reference_grad(p)
            q, grad = q_and_grad(p)
            for got in (q, q_eval(p)):
                assert type(got) is float and got.hex() == q_ref.hex(), a
            assert all(type(g) is float for g in grad), a
            assert [g.hex() for g in grad] == [g.hex() for g in grad_ref], a

    def test_exact_input_equal_fractions(self):
        for a in _exact_parity_triples():
            p = Parameters(*a)
            q_ref = _monomial_sum(_Q_POLY, (p.s1, p.s2, p.s3))
            grad_ref = _reference_grad(p)
            q, grad = q_and_grad(p)
            for got in (q, q_eval(p)):
                assert type(got) is Fraction and got == q_ref, a
            assert all(type(g) is Fraction for g in grad), a
            assert grad == grad_ref, a

    @settings(max_examples=200, deadline=None)
    @given(a=st.tuples(*[st.fractions(min_value=Fraction(1, 10**4), max_value=1, max_denominator=10**4)] * 3))
    def test_exact_q_alone_equals_the_joint_layout(self, a):
        # exact q_eval evaluates the layout of Q alone, q_and_grad the
        # layout of Q and its partials
        p = Parameters(*a)
        assert q_eval(p) == q_and_grad(p)[0]

    def test_overflow_raises_where_the_terms_overflow(self):
        p = Parameters(1e200, 0.25, 0.25)
        with pytest.raises(OverflowError):
            _monomial_sum(_Q_POLY, (p.s1, p.s2, p.s3))
        for fn in (q_eval, q_and_grad):
            with pytest.raises(OverflowError):
                fn(p)
        # s1 ~ 1e55: s1**6, in Q, leaves the float range, and the gradient
        # comes with Q
        p = Parameters(1e55, 1e-30, 1e-30)
        with pytest.raises(OverflowError):
            q_eval(p)
        with pytest.raises(OverflowError):
            q_and_grad(p)


class TestEdgeCurves:
    def test_passes_through_umbilic(self):
        ec = edge_curve(Fraction(1, 4))
        assert ec.params.a == (Fraction(1, 4),) * 3

    @pytest.mark.parametrize("t", [Fraction(3, 10), Fraction(2, 5), Fraction(9, 20)])
    @pytest.mark.parametrize("i", [1, 2, 3])
    def test_on_surface_with_vanishing_gradient(self, t, i):
        # the edge curves consist of singular points of the surface
        ec = edge_curve(t, i)
        assert q_eval(ec.params) == 0
        assert q_and_grad(ec.params)[1] == (0, 0, 0)

    def test_permutation_symmetry(self):
        t = Fraction(3, 10)
        a1 = edge_curve(t, 1).params.a
        a2 = edge_curve(t, 2).params.a
        assert a2 == (a1[2], a1[0], a1[1]) or a2 == (a1[1], a1[2], a1[0])

    def test_near_pole_blows_up(self):
        # the pole sits at the irrational 8 t^2 = 1, unreachable exactly;
        # nearby the distinguished coordinate grows without bound
        ec = edge_curve(1 / math.sqrt(8))
        assert abs(float(ec.params.a1)) > 1e6


def omega_slice_a1_half(a2, a3):
    """Restriction of the degeneracy surface to the face a1 = 1/2, as a
    quartic in the symmetric functions of (a2, a3); vanishes exactly where
    the full polynomial vanishes on that face."""
    u = a2 + a3
    v = a2 * a3
    return (
        4 * v * (4 * v + 1) ** 2
        - 4 * (4 * v - 1) * (4 * v + 1) ** 2 * u
        - 13 * (4 * v + 1) ** 2 * u * u
        + 4 * (4 * v - 1) * u**3
        + 44 * u**4
    )


class TestFaceSlice:
    @pytest.mark.parametrize(
        "a2, a3",
        [(Fraction(1, 5), Fraction(1, 10)), (Fraction(2, 5), Fraction(9, 20)),
         (Fraction(3, 7), Fraction(1, 11))],
    )
    def test_exact_factorization_on_face(self, a2, a3):
        # on the face a1 = 1/2 the full polynomial is the slice quartic times
        # the positive factor 4 (a2 + a3)^2
        q = q_eval(Parameters(Fraction(1, 2), a2, a3))
        assert q == 4 * (a2 + a3) ** 2 * omega_slice_a1_half(a2, a3)

    def test_sign_agreement_on_grid(self):
        for a2 in np.linspace(0.02, 0.5, 25):
            for a3 in np.linspace(0.02, 0.5, 25):
                q = float(q_eval(Parameters(0.5, a2, a3)))
                s = float(omega_slice_a1_half(a2, a3))
                assert q * s >= 0

    def test_cusp_and_endpoints(self):
        c = (math.sqrt(5) - 1) / 4
        assert abs(omega_slice_a1_half(c, c)) < 1e-12
        assert abs(omega_slice_a1_half(math.sqrt(2) / 4, 0.5)) < 1e-12
        assert abs(omega_slice_a1_half(0.5, math.sqrt(2) / 4)) < 1e-12

    def test_three_quarter_sum_factorization(self):
        # restricted to s1 = 3/4 the polynomial factors with a squared term,
        # as an identity of polynomials in (s2, s3)
        restricted = Poly({}, 3)
        for (e1, e2, e3), c in _Q_POLY.items():
            restricted = restricted + Poly({(0, e2, e3): c * Fraction(3, 4) ** e1}, 3)
        s2, s3 = Poly.var(1, 3), Poly.var(2, 3)
        f = 24 * s2**2 + 64 * s2 * s3 + 8 * s2 - 128 * s3**2 - 8 * s3 + 1
        assert restricted == (32 * s2 - 64 * s3 - 5) ** 2 * f * Fraction(1, 32)

    def test_three_quarter_sum_centred_factor(self):
        # with a_i = 1/4 + x_i and x1 + x2 + x3 = 0 the squared factor is
        # -8|x|^2 - 64 x1 x2 x3, which classify_region's plane lemma bounds
        x1, x2 = Poly.var(0, 2), Poly.var(1, 2)
        x3 = -x1 - x2
        a1, a2, a3 = (Fraction(1, 4) + x for x in (x1, x2, x3))
        s2, s3 = a1 * a2 + a1 * a3 + a2 * a3, a1 * a2 * a3
        assert a1 + a2 + a3 == Poly.const(Fraction(3, 4), 2)
        assert 32 * s2 - 64 * s3 - 5 == -8 * (x1**2 + x2**2 + x3**2) - 64 * x1 * x2 * x3

    def test_half_sum_has_no_interior_zeros(self):
        rng = np.random.default_rng(4)
        for _ in range(40):
            a1, a2 = rng.uniform(0.02, 0.46, 2)
            a3 = 0.5 - a1 - a2
            if not 0.0 < a3 < 0.5:
                continue
            p = Parameters(a1, a2, a3)
            bracket = (
                -5 * a1 * a2 + a1 - 2 * a1**2 + a2 - 2 * a2**2
                + 6 * a1 * a2 * (a1 + a2)
            )
            assert bracket > 0
            assert abs(float(q_eval(p))) > 1e-12


class TestTraceSurfacePolynomial:
    def test_values(self):
        assert q1_eval(Parameters(Fraction(1, 4), Fraction(1, 4), Fraction(1, 4))) == 0
        assert q1_eval(Parameters(Fraction(1, 6), Fraction(1, 6), Fraction(1, 6))) == Fraction(4, 27)
        assert grad_q1(Parameters(Fraction(1, 4), Fraction(1, 4), Fraction(1, 4))) == (0, 0, 0)

    @given(wallach, wallach, wallach)
    @settings(max_examples=30)
    def test_pairwise_sum_substitution(self, a1, a2, a3):
        # with z_i the pairwise sums, the polynomial is 4 z1 z2 z3 - z1 - z2 - z3 + 1
        p = Parameters(a1, a2, a3)
        z1, z2, z3 = a1 + a2, a1 + a3, a2 + a3
        assert q1_eval(p) == 4 * z1 * z2 * z3 - z1 - z2 - z3 + 1


class TestComponents:
    def test_reference_points(self):
        assert component_classify(Parameters(Fraction(1, 6), Fraction(1, 6), Fraction(1, 6))) is Region.O1
        assert component_classify(Parameters(Fraction(7, 15), Fraction(7, 15), Fraction(7, 15))) is Region.O2
        assert component_classify(Parameters(Fraction(1, 6), Fraction(1, 4), Fraction(1, 3))) is Region.O3
        assert component_classify(Parameters(Fraction(1, 4), Fraction(1, 4), Fraction(1, 4))) is Region.ON_OMEGA

    def test_half_sum_plane_lies_in_first_component(self):
        p = Parameters(Fraction(1, 10), Fraction(3, 20), Fraction(1, 4))
        assert component_classify(p) is Region.O1


class TestScanGrid:
    def test_degenerate_box(self):
        samples = scan([(Fraction(1, 4), Fraction(1, 4), Fraction(1, 4))])
        assert len(samples) == 1
        assert samples[0].Q == 0
        assert samples[0].region is Region.ON_OMEGA

    def test_count_and_order(self):
        points = cube_grid(3)
        assert len(points) == 27 and points == sorted(points)
        assert {v for pt in points for v in pt} == {1 / 12, 3 / 12, 5 / 12}
        samples = scan(points)
        assert [s.params.a for s in samples] == points

    def test_small_sum_is_first_component(self):
        # interior triples with a1+a2+a3 < 1/2 always classify into the
        # component of (1/6, 1/6, 1/6)
        axis = (Fraction(1, 20), Fraction(1, 10), Fraction(3, 20))
        samples = scan([(x, y, z) for x in axis for y in axis for z in axis])
        assert len(samples) == 27
        assert all(s.region is Region.O1 for s in samples)
        assert all(s.Q != 0 for s in samples)


def _orbit_triples():
    sixth, quarter, third = Fraction(1, 6), Fraction(1, 4), Fraction(1, 3)
    near_face = Fraction(1, 2) - Fraction(1, 10**12)
    return [
        *_perms((sixth, quarter, third)),
        *_perms((Fraction(2, 17), Fraction(1, 8), Fraction(2, 17))),
        *_perms((Fraction(1, 30), near_face, Fraction(1, 30))),
        (quarter, quarter, quarter),
    ]


class TestScanOrbits:
    def test_matches_per_point_classification(self):
        # the shared sums and the sign labels give each point what the
        # per-point functions and its census give it
        points = cube_grid(4) + _orbit_triples()
        samples = scan(points)
        assert [s.params.a for s in samples] == [Parameters(*a).a for a in points]
        for s in samples:
            p = s.params
            # repr compares the floats bit for bit, signed zeros included
            assert repr(s.Q) == repr(q_eval(p)), p.a
            assert s.Q1 == q1_eval(p), p.a
            assert repr(s.gradQ) == repr(q_and_grad(p)[1]), p.a
            assert s.region is component_classify(p), p.a

    def test_float_sums_once_per_key(self, monkeypatch):
        # the permutations of a float triple may round s1 differently, so
        # the distinct (s1, s2, s3) lie between the orbits and the points
        counted = []
        float_sums = surfaces._float_sums
        monkeypatch.setattr(surfaces, "_float_sums", lambda s, count: counted.append(s) or float_sums(s, count))
        points = cube_grid(9)
        samples = scan(points)
        keys = {(p.s1, p.s2, p.s3) for p in (Parameters(*a) for a in points)}
        assert len(counted) == len(set(counted)) == len(keys) == 310
        monkeypatch.undo()
        assert [(repr(s.Q), repr(s.gradQ)) for s in samples] == [
            (repr(q), repr(g)) for q, g in (q_and_grad(s.params) for s in samples)
        ]

    @settings(max_examples=100, deadline=None)
    @given(s=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)))
    def test_float_sums_ignore_the_sign_of_a_zero(self, s):
        # -0.0 == 0.0 as a key of the scan's shared sums, so the sums must not tell them apart
        flipped = tuple(-v if v == 0 else v for v in s)
        assert repr(surfaces._float_sums(flipped, 4)) == repr(surfaces._float_sums(s, 4))

    def test_no_census(self, monkeypatch):
        # the labels come from the signs of Q and s1 - 3/4 alone
        calls = []
        solve_all = equilibria.solve_all

        def counting(p, *args, **kwargs):
            calls.append(p.a)
            return solve_all(p, *args, **kwargs)

        monkeypatch.setattr(surfaces, "solve_all", counting)
        monkeypatch.setattr(equilibria, "solve_all", counting)
        samples = scan(cube_grid(4))
        assert calls == []
        assert {s.region for s in samples} == {Region.O1, Region.O2, Region.O3}


# every value in (0, 1/2) with denominator at most 12
_TWELFTHS = sorted({Fraction(n, d) for d in range(1, 13) for n in range(1, d) if 2 * n < d})


def _gamma(n: int) -> Fraction:
    """Higham's ``gamma_n = n u / (1 - n u)`` for binary64, ``u = 2**-53``."""
    u = Fraction(1, 2**53)
    return n * u / (1 - n * u)


def _abs_terms(a) -> Fraction:
    """``sum |c s1^e1 s2^e2 s3^e3|`` over the monomials of Q at the exact ``a``."""
    a1, a2, a3 = map(Fraction, a)
    s = (a1 + a2 + a3, a1 * a2 + a1 * a3 + a2 * a3, a1 * a2 * a3)
    return sum(abs(c) * s[0] ** e1 * s[1] ** e2 * s[2] ** e3 for (e1, e2, e3), c in _Q_POLY.items())


# classify_region's count of roundings: a term rounds each s_j within
# gamma_5, each power s_j ** e (e >= 2) within one ulp (two units) and makes
# three products; the recursive sum of the 42 terms adds 41 roundings
_ROUNDINGS = max(5 * sum(m) + 2 * sum(e >= 2 for e in m) + 3 for m in _Q_POLY) + len(_Q_POLY) - 1


class TestSignRegions:
    def test_reference_points(self):
        for a, want in [((Fraction(1, 6),) * 3, Region.O1), ((Fraction(7, 15),) * 3, Region.O2),
                        ((Fraction(1, 6), Fraction(1, 4), Fraction(1, 3)), Region.O3)]:
            p = Parameters(*a)
            assert classify_region(p, q_eval(p)) is want
            pf = Parameters(*map(float, a))
            assert classify_region(pf, q_eval(pf)) is want

    def test_float_sign_is_certified(self):
        # the float Q at 1e-300, 0.2, 0.3 is -2.2e-16 and has the wrong sign;
        # the exact Q at the dyadic parameters is 2.65e-302
        a = (1e-300, 0.2, 0.3)
        assert q_eval(Parameters(*a)) < 0 < surfaces._exact_q(a)
        assert scan([a])[0].region is Region.O3
        assert component_classify(Parameters(*a)) is Region.O3

    def test_off_the_closed_cube_the_sign_is_exact(self):
        # (-1/2, 1/2, 1/2) is the point t = 1/2 of the first edge curve, so
        # Q = 0 there; 2**-40 further the float Q is still 0.0 but the exact
        # Q is -1.1e-47, and no error bound is proved off the closed cube
        on, off = (-0.5, 0.5, 0.5), (-0.5, 0.5, 0.5 + 2.0**-40)
        assert edge_curve(0.5).params.a == on
        assert q_eval(Parameters(*off)) == 0 > surfaces._exact_q(off)
        assert [s.region for s in scan([on, off])] == [Region.ON_OMEGA, Region.OUTSIDE]

    def test_outside_means_off_the_open_cube(self):
        points = [(0.5, 0.2, 0.3), (Fraction(1, 2), Fraction(1, 5), Fraction(3, 10)), (0.6, 0.2, 0.3),
                  (0.2, -0.1, 0.3)]
        assert [s.region for s in scan(points)] == [Region.OUTSIDE] * 4

    def test_the_tolerance_band_of_n20(self):
        # 11 points of the --n 20 grid have a float Q within the error
        # majorant, though Q != 0 at their dyadic values; each takes the sign
        # of its exact Q, and that gives the label of the exact census
        band = [a for a in cube_grid(20)
                if abs(q_eval(Parameters(*a))) <= surfaces._q_error_majorant(max(a))]
        assert len(band) == 11
        for s in scan(band):
            assert s.region is not Region.ON_OMEGA
            assert s.region is component_classify(Parameters(*map(Fraction, s.params.a))), s.params.a

    def test_sign_labels_equal_census_labels_over_the_twelfths(self):
        # the sorted exact triples with denominators at most 12 in the open cube
        triples = [a for a in itertools.combinations_with_replacement(_TWELFTHS, 3)
                   if q_eval(Parameters(*a)) != 0]
        assert len(triples) == 2022
        for a, s in zip(triples, scan(triples)):
            assert s.region is component_classify(s.params), a

    def test_default_tolerance_covers_the_float_error_over_the_closed_cube(self):
        # The float Q is within gamma_K sum |terms| of Q at the exact
        # parameters. sum |terms| rises in each a_i >= 0 and the tolerance
        # depends on m = max a_i alone, so over [lo, hi] in m the bound is at
        # most gamma_K sum |terms| at (hi, hi, hi) and the tolerance at least
        # its value at lo. The float tolerance is within 2**-48 of
        # Fraction(1e-10) (1 + m)^12.
        assert all(c.denominator == 1 and abs(c) < 2**53 for c in _Q_POLY.values())
        assert len(_Q_POLY) == 42 and _ROUNDINGS == 80
        gamma = _gamma(_ROUNDINGS)
        steps = 200
        for k in range(steps):
            lo, hi = Fraction(k, 2 * steps), Fraction(k + 1, 2 * steps)
            tol = Fraction(1e-10) * (1 + lo) ** 12 * (1 - Fraction(1, 2**48))
            assert 60 * gamma * _abs_terms((hi, hi, hi)) <= tol, (lo, hi)

    def test_float_error_within_the_bound(self):
        # the error model behind _ROUNDINGS, at seeded float triples in the
        # closed cube and near its faces, and on the --n 20 grid
        rng = random.Random(7)
        gamma = _gamma(_ROUNDINGS)
        draws = [tuple(rng.uniform(0, 0.5) for _ in range(3)) for _ in range(150)]
        draws += [(0.5 - 10.0**-k, rng.uniform(0, 0.5), 10.0**-k) for k in range(1, 16)]
        draws += cube_grid(20)[::97]
        for a in draws:
            p = Parameters(*a)
            err = abs(Fraction(q_eval(p)) - surfaces._exact_q(a))
            assert err <= gamma * _abs_terms(a), a
