import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wallachflow._poly import Poly
from wallachflow.core import Parameters
from wallachflow.equilibria import normalize_unit_volume, residual, solve_all
from wallachflow.flow import MetricPoint, field_components, phi
from wallachflow.linearize import (
    SIGMA_ZERO_S_HIGH,
    SIGMA_ZERO_S_LOW,
    Linearization,
    PointKind,
    _g_form,
    _laid_out_forms,
    classify,
    f1,
    f2,
    g_matrix,
    linearize_at,
    sigma_expression,
    sigma_minimizing_point,
    sigma_zero_family,
    sigma_zero_points,
)
from wallachflow.verify import eigenvalues_3x3, jacobian_2d_fd, jacobian_3d_fd

wallach = st.fractions(
    min_value=Fraction(1, 18), max_value=Fraction(9, 20), max_denominator=24
)
positive = st.fractions(
    min_value=Fraction(1, 10), max_value=8, max_denominator=24
)


class TestForms:
    @given(wallach, wallach, wallach, positive)
    @settings(max_examples=40)
    def test_homogeneity_degrees(self, a1, a2, a3, lam):
        p = Parameters(a1, a2, a3)
        x = MetricPoint(Fraction(5, 4), Fraction(2, 3), Fraction(7, 8))
        assert f1(p, x.scaled(lam)) == lam**2 * f1(p, x)
        assert f2(p, x.scaled(lam)) == lam**4 * f2(p, x)

    def test_trace_form_values(self):
        p = Parameters(Fraction(1, 6), Fraction(1, 6), Fraction(1, 6))
        assert f1(p, MetricPoint(1, 1, 1)) == Fraction(1, 36)
        p = Parameters(Fraction(7, 15), Fraction(7, 15), Fraction(7, 15))
        assert f1(p, MetricPoint(1, 1, 1)) == Fraction(-13, 15) * p.A

    def test_det_form_values(self):
        p = Parameters(Fraction(1, 6), Fraction(1, 6), Fraction(1, 6))
        assert f2(p, MetricPoint(1, 1, 1)) == p.A**2 / 9
        p = Parameters(Fraction(1, 4), Fraction(1, 4), Fraction(1, 4))
        assert f2(p, MetricPoint(1, 1, 1)) == 0


def _jacobian_3d(p, x):
    """The exact 3D Jacobian at ``x``: the linear terms of the field's own
    text over the order-1 series ``x + t``."""
    ts = [Poly.var(k, 3, 1) for k in range(3)]
    components = field_components(*p.a, *(xi + t for xi, t in zip(x.x, ts)))
    units = [tuple(int(j == k) for k in range(3)) for j in range(3)]
    return [[c.get(unit, 0) for unit in units] for c in components]


# the pinned and named exact triples, and seeded ones with a_i = k/24
_ORACLE_TRIPLES = [
    (Fraction(1, 6),) * 3,
    (Fraction(7, 15),) * 3,
    (Fraction(1, 6), Fraction(1, 4), Fraction(1, 3)),
    (Fraction(1, 8), Fraction(1, 8), Fraction(17, 56)),
    (Fraction(1, 4),) * 3,
    (Fraction(5, 36), Fraction(1, 6), Fraction(1, 4)),
]
_rng = random.Random(2)
_ORACLE_TRIPLES += [tuple(Fraction(_rng.randint(1, 12), 24) for _ in range(3)) for _ in range(300)]


def test_invariants_match_the_exact_3d_jacobian():
    # J3 x = 0 (the field is homogeneous of degree 0) and grad V^T J3 = 0 (V
    # is a first integral), so the planar Jacobian's eigenvalues are J3's
    # two others: its trace is rho and the sum of its principal 2x2 minors
    # delta, an oracle independent of F1, F2 and G
    rays = 0
    for a in _ORACLE_TRIPLES:
        p = Parameters(*a)
        for ray in solve_all(p):
            if not ray.rep.exact:
                continue
            j = _jacobian_3d(p, ray.rep)
            trace = j[0][0] + j[1][1] + j[2][2]
            minors = sum(j[i][i] * j[k][k] - j[i][k] * j[k][i] for i, k in ((0, 1), (0, 2), (1, 2)))
            lin = linearize_at(p, ray.rep)
            assert (lin.rho, lin.delta, lin.sigma) == (trace, minors, trace**2 - 4 * minors), (a, ray)
            rays += 1
    assert rays >= 40


class TestLinearizeAt:
    @pytest.mark.parametrize(
        "rep, rho, delta",
        [
            ((1, 1, 1), Fraction(2, 3), Fraction(1, 9)),
            ((2, 1, 1), Fraction(1, 3), Fraction(-2, 9)),
            ((Fraction(1, 2), Fraction(1, 2), 1), Fraction(2, 3), Fraction(-8, 9)),
            ((1, 2, 1), Fraction(1, 3), Fraction(-2, 9)),
        ],
    )
    def test_sixth_case(self, rep, rho, delta):
        p = Parameters(Fraction(1, 6), Fraction(1, 6), Fraction(1, 6))
        lin = linearize_at(p, MetricPoint(*rep))
        assert (lin.rho, lin.delta) == (rho, delta)
        assert lin.sigma == lin.rho**2 - 4 * lin.delta

    def test_seven_fifteenth_case(self):
        p = Parameters(Fraction(7, 15), Fraction(7, 15), Fraction(7, 15))
        lin = linearize_at(p, MetricPoint(14, 14, 1))
        assert lin.delta == Fraction(-4901, 44100)
        lin = linearize_at(p, MetricPoint(1, 1, 1))
        assert (lin.rho, lin.delta, lin.sigma) == (Fraction(-26, 15), Fraction(169, 225), 0)
        assert lin.lambda1 == lin.lambda2 == Fraction(-13, 15)

    def test_mixed_case_saddle(self):
        p = Parameters(Fraction(1, 6), Fraction(1, 4), Fraction(1, 3))
        lin = linearize_at(p, MetricPoint(Fraction(4, 5), Fraction(3, 5), 1))
        assert lin.delta == Fraction(-35, 72)

    def test_rejects_non_equilibrium(self):
        p = Parameters(Fraction(1, 6), Fraction(1, 6), Fraction(1, 6))
        with pytest.raises(ValueError):
            linearize_at(p, MetricPoint(Fraction(3, 2), 1, 1))

    @pytest.mark.parametrize("a, x", [
        ((Fraction(1, 6), Fraction(1, 6), Fraction(1, 6)), (Fraction(3, 2), 1, 1)),
        ((Fraction(1, 6), Fraction(1, 4), Fraction(1, 3)), (Fraction(4, 5), Fraction(3, 5), Fraction(1, 10**9))),
    ])
    def test_exact_residual_check_runs_on_the_laid_out_equations(self, a, x):
        # the same Fractions as ``equations``, so the same message
        p, pt = Parameters(*a), MetricPoint(*x)
        r1, r2 = residual(p, pt)
        assert _laid_out_forms(p, pt)[1][3:] == [r1, r2]
        message = (
            f"point {tuple(float(v) for v in pt.x)} is not an equilibrium "
            f"(residual {float(r1):.3e}, {float(r2):.3e})"
        )
        with pytest.raises(ValueError) as info:
            linearize_at(p, pt)
        assert str(info.value) == message

    def test_exact_parameters_reject_a_float_non_equilibrium(self):
        # a float point at exact parameters is checked with the fsum'd
        # laid-out equations
        p, pt = Parameters(Fraction(1, 6), Fraction(1, 4), Fraction(1, 3)), MetricPoint(1.0, 2.0, 1.0)
        r1, r2 = _laid_out_forms(p, pt)[1][3:]
        assert (r1, r2) == pytest.approx(tuple(map(float, residual(p, MetricPoint(1, 2, 1)))), rel=1e-15)
        message = f"point (1.0, 2.0, 1.0) is not an equilibrium (residual {r1:.3e}, {r2:.3e})"
        with pytest.raises(ValueError) as info:
            linearize_at(p, pt)
        assert str(info.value) == message

    @pytest.mark.parametrize("a", [(1e10, 2.0, 3.0), (1e20, 0.2, 0.3)])
    def test_residual_tolerance_scales_with_the_parameters(self, a):
        # the equations are of degree 2 in the parameters too, so the float
        # residual of a census ray grows with them: 1.5e-5 at 1e10 and
        # 3.3e4 at 1e20, where the tolerance once scaled with x alone
        p = Parameters(*a)
        (ray,) = solve_all(p)
        linearize_at(p, ray.rep)

    def test_float_parameters_linearize_as_their_dyadic_values(self):
        # one path: a float triple gives the values of its dyadic Fractions
        # bit for bit, at every ray whose representative is the same float
        # in both censuses
        rng = random.Random(5)
        same = 0
        for _ in range(40):
            pf = Parameters(*(rng.uniform(0.02, 0.5) for _ in range(3)))
            pq = Parameters(*map(Fraction, pf.a))
            exact_reps = {ray.rep.x for ray in solve_all(pq)}
            for ray in solve_all(pf):
                if ray.rep.x in exact_reps:
                    lf, lq = linearize_at(pf, ray.rep), linearize_at(pq, ray.rep)
                    assert repr((lf.rho, lf.delta, lf.sigma)) == repr((lq.rho, lq.delta, lq.sigma)), pf.a
                    same += 1
        assert same >= 80

    def test_tiny_exact_parameters_leave_the_float_range(self):
        # at a float ray A^2 (x1 x2 x3)^2 is 5.4e-323 here, a subnormal whose
        # quotient once gave delta -5.818 for -5.934; at 1e-200 it is 0.0,
        # which once raised ZeroDivisionError
        for k in (160, 200):
            p = Parameters(Fraction(1, 10**k), Fraction(1, 10**k), Fraction(3, 10))
            rays = [ray for ray in solve_all(p) if not ray.rep.exact]
            assert rays
            for ray in rays:
                with pytest.raises(OverflowError):
                    linearize_at(p, ray.rep)

    def test_scale_law(self):
        p = Parameters(Fraction(1, 6), Fraction(1, 6), Fraction(1, 6))
        lam = Fraction(5, 2)
        base = linearize_at(p, MetricPoint(2, 1, 1))
        scaled = linearize_at(p, MetricPoint(2 * lam, lam, lam))
        assert scaled.rho == base.rho / lam
        assert scaled.delta == base.delta / lam**2
        assert classify(scaled).kind == classify(base).kind


class TestClassify:
    def test_saddles_and_nodes(self):
        p = Parameters(Fraction(1, 6), Fraction(1, 6), Fraction(1, 6))
        lin = linearize_at(p, MetricPoint(1, 1, 1))
        assert classify(lin).kind is PointKind.UNSTABLE_NODE
        lin = linearize_at(p, MetricPoint(2, 1, 1))
        assert classify(lin).kind is PointKind.SADDLE

    def test_stable_node(self):
        p = Parameters(Fraction(7, 15), Fraction(7, 15), Fraction(7, 15))
        lin = linearize_at(p, MetricPoint(1, 1, 1))
        assert classify(lin).kind is PointKind.STABLE_NODE

    def test_degenerate(self):
        p = Parameters(Fraction(1, 4), Fraction(1, 4), Fraction(1, 4))
        lin = linearize_at(p, MetricPoint(1, 1, 1))
        assert (lin.rho, lin.delta) == (0, 0)
        cls = classify(lin)
        assert cls.kind is PointKind.DEGENERATE and cls.near_degenerate

    @pytest.mark.parametrize("delta", [0.0, -0.0, math.nan])
    def test_float_zero_and_nan_deltas_are_degenerate(self, delta):
        # a zero of either sign, and NaN, are neither above nor below zero
        lin = Linearization(rho=-1.0, delta=delta, sigma=1.0, lambda1=0j, lambda2=-1 + 0j, degeneracy_measure=1.0)
        cls = classify(lin)
        assert cls.kind is PointKind.DEGENERATE and cls.near_degenerate

    def test_float_sigma_comes_from_the_g_form(self):
        # the diagonal node sits near the node/focus boundary, where
        # rho^2 - 4 delta cancels to 1.6e-10 relative
        a = (0.11764705882352941, 0.125, 0.11764705882352941)
        p = Parameters(*a)
        (x,) = [r.rep for r in solve_all(p)
                if classify(linearize_at(p, r.rep)).kind is PointKind.UNSTABLE_NODE]
        sigma = linearize_at(p, x).sigma
        want = sigma_expression(Parameters(*map(Fraction, a)), MetricPoint(*map(Fraction, x.x)))
        assert abs(Fraction(sigma) - want) <= Fraction(5e-11) * want

    def test_float_g_form_sums_left_to_right(self):
        # the nine terms are (0, -0, T, -0, 0, 0.5, T, 0.5, -2T) with
        # T = 2.7e16: left to right from 0 both halves are lost, as on every
        # Python version; a compensated sum keeps them
        p, x = Parameters(1.0, -1.0, 0.5), MetricPoint(8192.0, 2.0**-14, 16384.0)
        m, sq = g_matrix(p), [v * v for v in x.x]
        terms = [m[i][j] * sq[i] * sq[j] for i in range(3) for j in range(3)]
        assert terms[5] == terms[7] == 0.5 and math.fsum(terms) == 1.0
        assert repr(_g_form(p, x)) == "0.0"

    def test_float_near_zero_sigma_is_still_a_node(self):
        # float rounding drives sigma a few ulp below zero on the diagonal
        p = Parameters(1 / 6, 1 / 6, 1 / 6)
        lin = linearize_at(p, MetricPoint(1.0, 1.0, 1.0))
        assert classify(lin).kind is PointKind.UNSTABLE_NODE


class TestSigmaExpression:
    @given(wallach, wallach, wallach)
    @settings(max_examples=40)
    def test_matrix_eigenvalues_closed_form(self, a1, a2, a3):
        p = Parameters(a1, a2, a3)
        m = np.array([[float(v) for v in row] for row in g_matrix(p)])
        eigs = np.sort(np.linalg.eigvalsh(m))
        want = np.sort([
            0.0,
            2.0 * float(p.A),
            float(a1 * a1 + a2 * a2 + a3 * a3 + p.A),
        ])
        assert np.allclose(eigs, want, atol=1e-12)

    def test_nonnegative_on_random_floats(self):
        rng = np.random.default_rng(2)
        for _ in range(500):
            a = rng.uniform(-0.5, 1.0, 3)
            p_a = a[0] * a[1] + a[0] * a[2] + a[1] * a[2]
            if p_a <= 0:
                continue
            p = Parameters(*a)
            x = MetricPoint(*np.exp(rng.uniform(-2, 2, 3)))
            assert float(sigma_expression(p, x)) >= -1e-12

    def test_zero_on_minimizing_ray(self):
        p = Parameters(Fraction(1, 7), Fraction(2, 7), Fraction(3, 7))
        x = sigma_minimizing_point(p)
        assert abs(float(sigma_expression(p, x))) < 1e-13


class TestSigmaZeroFamilies:
    def test_equal_family(self):
        p = sigma_zero_family("equal", Fraction(1, 4))
        assert p.a == (Fraction(1, 4),) * 3

    def test_two_equal_values(self):
        p = sigma_zero_family("two_equal", 0.7, k=3)
        assert abs(float(p.a1) - 1.0204081632653061e-4) < 1e-12
        assert abs(float(p.a3) - 0.4898979591836735) < 1e-10
        assert p.wallach_range

    def test_two_equal_rational_input_stays_exact(self):
        p = sigma_zero_family("two_equal", Fraction(7, 10), k=1)
        assert p.exact
        assert p.a2 == p.a3 == Fraction(1, 9800)

    def test_interval_endpoints_rejected(self):
        with pytest.raises(ValueError):
            sigma_zero_family("two_equal", SIGMA_ZERO_S_LOW)
        with pytest.raises(ValueError):
            sigma_zero_family("two_equal", SIGMA_ZERO_S_HIGH)
        with pytest.raises(ValueError):
            sigma_zero_family("equal", Fraction(3, 5))

    def test_points_equal_family(self):
        p = sigma_zero_family("equal", Fraction(1, 3))
        (pt,) = sigma_zero_points(p)
        assert pt.x == (1, 1, 1)
        assert sigma_expression(p, pt) == 0

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_points_two_equal_family(self, k):
        for s in (0.7, Fraction(7, 10)):
            p = sigma_zero_family("two_equal", s, k)
            (pt,) = sigma_zero_points(p)
            # the distinguished slot carries (1 - 2 s^2) q, the others 2 s^2 q
            vals = [float(v) for v in pt.x]
            distinguished = vals.pop(k - 1)
            assert vals[0] == vals[1]
            assert abs(distinguished / vals[0] - float((1 - 2 * s * s) / (2 * s * s))) < 1e-12
            # unit volume fixes q: the third coordinate is determined by the rest
            assert abs(float(pt.x3) - float(phi(p, pt.x1, pt.x2))) < 1e-12
            # it is an equilibrium, and a parabolic one
            r1, r2 = residual(p, pt)
            assert max(abs(float(r1)), abs(float(r2))) < 1e-12
            assert abs(float(sigma_expression(p, pt))) < 1e-10
            # and it matches the square-root parametrization of the zero set
            q = float(pt.x1) / math.sqrt(float(p.a2 + p.a3))
            for coord, pair in zip(pt.x, (p.a2 + p.a3, p.a1 + p.a3, p.a1 + p.a2)):
                assert abs(float(coord) - q * math.sqrt(float(pair))) < 1e-12

    @pytest.mark.parametrize("a", [
        (0.1, 0.1, 0.2),
        (Fraction(1, 10), Fraction(1, 10), Fraction(1, 5)),
        (0.3, 0.3, 0.1),
        (0.45, 0.45, 0.02),
    ])
    def test_points_reject_two_equal_parameters_off_the_family(self, a):
        # the sigma-minimizing ray is no equilibrium there: its residual is
        # at least 3e-4 of the scale, family points are within 2e-17
        with pytest.raises(ValueError, match="sigma=0 family"):
            sigma_zero_points(Parameters(*a))

    def test_points_reject_generic_parameters(self):
        with pytest.raises(ValueError):
            sigma_zero_points(Parameters(Fraction(1, 6), Fraction(1, 4), Fraction(1, 3)))

    def test_sigma_and_delta_vanish_together_only_at_quarter(self):
        # scanning both parabolic families: the determinant also vanishes
        # only at the fully degenerate triple (1/4, 1/4, 1/4)
        for i in range(1, 21):
            s = Fraction(i, 40)
            p = sigma_zero_family("equal", s)
            lin = linearize_at(p, MetricPoint(1, 1, 1))
            assert lin.sigma == 0
            assert (lin.delta == 0) == (s == Fraction(1, 4))
        lo, hi = SIGMA_ZERO_S_LOW, SIGMA_ZERO_S_HIGH
        for i in range(1, 21):
            s = lo + (hi - lo) * i / 21
            p = sigma_zero_family("two_equal", s, k=2)
            (pt,) = sigma_zero_points(p)
            lin = linearize_at(p, pt)
            assert abs(float(lin.sigma)) < 1e-9
            assert abs(float(lin.delta)) > 1e-3


class TestFiniteDifferenceJacobians:
    def test_matches_closed_forms_at_unit_equilibrium(self):
        p = Parameters(Fraction(1, 6), Fraction(1, 6), Fraction(1, 6))
        jac = jacobian_2d_fd(p, 1.0, 1.0)
        assert abs(np.trace(jac) - 2 / 3) < 1e-6
        assert abs(np.linalg.det(jac) - 1 / 9) < 1e-6

    def test_zero_matrix_at_degenerate_point(self):
        p = Parameters(Fraction(1, 4), Fraction(1, 4), Fraction(1, 4))
        jac = jacobian_2d_fd(p, 1.0, 1.0)
        assert np.max(np.abs(jac)) < 1e-9

    def test_negative_determinant_at_normalized_saddle(self):
        p = Parameters(Fraction(7, 15), Fraction(7, 15), Fraction(7, 15))
        ray = [r for r in solve_all(p) if r.key() == (14.0, 14.0)][0]
        m = normalize_unit_volume(p, ray)
        jac = jacobian_2d_fd(p, float(m.x1), float(m.x2))
        assert np.linalg.det(jac) < 0

    def test_3d_jacobian_always_singular(self):
        # scale invariance of the field makes x itself a null direction
        p = Parameters(0.21, 0.37, 0.44)
        jac = jacobian_3d_fd(p, MetricPoint(1.3, 0.8, 1.9))
        eigs = np.linalg.eigvals(jac)
        assert np.min(np.abs(eigs)) < 1e-6 * max(1.0, np.max(np.abs(eigs)))


class TestEigenvalues3x3:
    """The Cardano eigenvalues of A10 against numpy's."""

    @staticmethod
    def _assert_matches_numpy(m):
        # sorted by modulus, each root is paired with the nearest unpaired
        # numpy root, since a conjugate pair has one modulus
        ours = sorted(eigenvalues_3x3(m), key=abs)
        ref = list(np.linalg.eigvals(np.array(m, dtype=float)))
        scale = max(1.0, max(abs(w) for w in ref))
        for z in ours:
            w = min(ref, key=lambda w: abs(w - z))
            assert abs(w - z) <= 1e-9 * scale, (m, ours, ref)
            ref.remove(w)

    def test_at_every_a10_equilibrium(self):
        cases = [
            Parameters(Fraction(1, 6), Fraction(1, 6), Fraction(1, 6)),
            Parameters(Fraction(7, 15), Fraction(7, 15), Fraction(7, 15)),
            Parameters(Fraction(1, 6), Fraction(1, 4), Fraction(1, 3)),
        ]
        points = [(p, normalize_unit_volume(p, ray)) for p in cases for ray in solve_all(p)]
        assert len(points) == 10
        for p, m in points:
            self._assert_matches_numpy(jacobian_3d_fd(p, m))

    def test_double_eigenvalue_of_the_stable_node(self):
        # the finite differences leave -13/15 a double root at 7/15,7/15,7/15,
        # which a float discriminant would split by ~1e-8 into a complex pair
        p = Parameters(Fraction(7, 15), Fraction(7, 15), Fraction(7, 15))
        (ray,) = [r for r in solve_all(p) if r.key() == (1.0, 1.0)]
        eigs = sorted(eigenvalues_3x3(jacobian_3d_fd(p, normalize_unit_volume(p, ray))), key=abs)
        assert abs(eigs[0]) <= 1e-9
        for z in eigs[1:]:
            assert abs(z - (-13 / 15)) <= 1e-9

    @pytest.mark.parametrize("spectrum", ["real", "repeated", "complex"])
    def test_seeded_matrices(self, spectrum):
        rng = np.random.default_rng(31)
        for _ in range(50):
            lam, mu, beta = rng.uniform(-3, 3, 3)
            if spectrum == "real":
                block = np.diag([lam, mu, rng.uniform(-3, 3)])
            elif spectrum == "repeated":
                block = np.diag([lam, lam, mu])
            else:
                block = np.array([[lam, beta, 0], [-beta, lam, 0], [0, 0, mu]])
            # a rotation times a stretch of at most 4: eigenvalues that no
            # 3x3 method pins below 1e-9 of max |l| need a worse basis
            basis = np.linalg.qr(rng.normal(size=(3, 3)))[0] @ np.diag(rng.uniform(0.5, 2, 3))
            m = basis @ block @ np.linalg.inv(basis)
            self._assert_matches_numpy(m.tolist())

    def test_integer_matrices_with_repeated_roots(self):
        # exact coefficients: a zero discriminant, and d0 = d1 = 0 for 2 * I
        for m in ([[2, 0, 0], [0, 2, 0], [0, 0, 2]],
                  [[3, 1, 1], [1, 3, 1], [1, 1, 3]],
                  [[4, -1, 2], [1, 2, 2], [0, 0, 3]]):
            self._assert_matches_numpy(m)
