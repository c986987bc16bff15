import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from closed_forms import closed_form, solve_general, solve_sum_half, solve_two_equal
from wallachflow._poly import Poly, real_roots
from wallachflow.core import Parameters
from wallachflow.equilibria import (
    _SHEAR,
    _quartic,
    EquilibriumRay,
    FamilyTag,
    census,
    equations,
    normalize_unit_volume,
    quartic_coefficients,
    quartic_discriminant,
    residual,
    solve_all,
)
from wallachflow.flow import MetricPoint, field_components, log_volume
from wallachflow.linearize import linearize_at
from wallachflow.surfaces import cube_grid

wallach = st.fractions(
    min_value=Fraction(1, 18), max_value=Fraction(9, 20), max_denominator=24
)


def keys(rays):
    return sorted(r.key() for r in rays)


def tag_weights(rays) -> Counter:
    """The multiplicities of ``rays`` summed per family."""
    out = Counter()
    for ray in rays:
        out[ray.family_tag] += ray.multiplicity
    return out


def assert_matches(reference, rays, tol: float = 1e-8, tags: bool = True):
    """Each ray of ``reference`` has a ray of ``rays`` whose ``x3 = 1``
    coordinates are within ``tol * (1 + |x|)`` of its own, of its family and
    with the same per-family multiplicities if ``tags``."""
    if tags:
        assert tag_weights(rays) == tag_weights(reference)
    for ref in reference:
        assert any(
            (ray.family_tag is ref.family_tag or not tags)
            and all(abs(u - v) <= tol * (1 + abs(u)) for u, v in zip(ref.key(), ray.key()))
            for ray in rays
        ), ref


def assert_matches_closed_form(p: Parameters, rays):
    assert_matches(closed_form(p), rays)


class TestResidual:
    @pytest.mark.parametrize(
        "a, x",
        [
            ((Fraction(1, 6),) * 3, (1, 2, 1)),
            ((Fraction(1, 8), Fraction(1, 8), Fraction(1, 4)), (Fraction(3, 4), Fraction(3, 4), Fraction(1, 2))),
            ((Fraction(1, 4),) * 3, (1, 1, 1)),
        ],
    )
    def test_known_equilibria(self, a, x):
        p = Parameters(*a)
        assert residual(p, MetricPoint(*x)) == (0, 0)

    @given(wallach, wallach, wallach,
           st.fractions(min_value=Fraction(1, 5), max_value=5, max_denominator=12))
    @settings(max_examples=50)
    def test_degree_two_homogeneity(self, a1, a2, a3, lam):
        p = Parameters(a1, a2, a3)
        x = MetricPoint(Fraction(2, 3), Fraction(7, 5), Fraction(1, 2))
        base = residual(p, x)
        scaled = residual(p, x.scaled(lam))
        assert scaled == (lam * lam * base[0], lam * lam * base[1])


class TestSingleSource:
    @given(wallach, wallach, wallach,
           st.fractions(min_value=Fraction(1, 5), max_value=5, max_denominator=12),
           st.fractions(min_value=Fraction(1, 5), max_value=5, max_denominator=12),
           st.fractions(min_value=Fraction(1, 5), max_value=5, max_denominator=12))
    @settings(max_examples=50)
    def test_equations_are_the_field_with_denominators_cleared(self, a1, a2, a3, x1, x2, x3):
        p = Parameters(a1, a2, a3)
        f, g, _h = field_components(a1, a2, a3, x1, x2, x3)
        assert residual(p, MetricPoint(x1, x2, x3)) == (
            p.A * x2 * x3 * f / a1,
            p.A * x1 * x3 * g / a2,
        )

    def test_float_closed_form_rays_are_polished(self):
        # every float closed-form ray takes the correctly rounded census ray
        # it labels, whose float residual is within 1e-15 scaled; a quarter
        # of the triples lie near a face a_i -> 1/2, where the quartic has a
        # huge root that the census must find as well, and only two equal
        # parameters give a multiple ray
        rng = np.random.default_rng(2013)
        rays_checked = 0
        for k in range(200):
            a = rng.uniform(0.01, 0.5, 3)
            if k % 4 == 1:
                a[1] = a[0]
            elif k % 4 == 2:
                a[2] = 0.5 - a[0] - a[1]
                if not 0.01 < a[2] < 0.5:
                    continue
            elif k % 4 == 3:
                a[rng.integers(3)] = 0.5 - 10.0 ** -rng.uniform(4, 12)
            p = Parameters(*(float(v) for v in a))
            rays = solve_all(p)
            assert FamilyTag.NUMERIC not in {r.family_tag for r in rays}, a
            for ray in rays:
                if k % 4 != 1:
                    assert ray.multiplicity == 1, (a, ray)
                x = ray.rep
                e1, e2 = residual(p, x)
                assert max(abs(e1), abs(e2)) <= 1e-15 * (1 + max(x.x1, x.x2)) ** 2, (a, x)
                rays_checked += 1
        assert rays_checked > 400


class TestTwoEqualCase:
    def test_all_equal_generic(self):
        rays, disc = solve_two_equal(Fraction(1, 6), Fraction(1, 6))
        assert disc.D1 == Fraction(1, 9)
        reps = keys(rays)
        assert reps == [(0.5, 0.5), (1.0, 1.0), (1.0, 2.0), (2.0, 1.0)]
        assert all(r.rep.exact for r in rays)

    def test_quarter_collapses_to_diagonal(self):
        rays, disc = solve_two_equal(Fraction(1, 4), Fraction(1, 4))
        assert disc.D1 == 0 and disc.T == 0
        merged = {r.key() for r in rays}
        assert merged == {(1.0, 1.0)}

    def test_seven_fifteenths(self):
        rays, _ = solve_two_equal(Fraction(7, 15), Fraction(7, 15))
        inv14 = float(Fraction(1, 14))
        assert keys(rays) == [(inv14, 1.0), (1.0, inv14), (1.0, 1.0), (14.0, 14.0)]
        assert all(r.rep.exact for r in rays)

    def test_c_half_single_diagonal_family(self):
        rays, disc = solve_two_equal(Fraction(1, 3), Fraction(1, 2))
        assert disc.D1 == 1
        diagonal = [r for r in rays if r.family_tag is FamilyTag.TWO_EQUAL_DIAGONAL]
        assert len(diagonal) == 1
        # x3 = 2b(x1 + x2) with x1 = x2 = (b+c) q, x3 = q
        assert diagonal[0].rep.x1 == Fraction(5, 6)

    def test_b_half_has_no_off_diagonal(self):
        rays, _ = solve_two_equal(Fraction(1, 2), Fraction(1, 3))
        assert all(r.family_tag is FamilyTag.TWO_EQUAL_DIAGONAL for r in rays)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            solve_two_equal(Fraction(3, 5), Fraction(1, 4))

    def test_small_roots_near_the_faces_keep_their_digits(self):
        # near c = 1/2 (diagonal) and b = 1/2 (off-diagonal) one root of each
        # quadratic is tiny; as a difference of nearly equal floats it kept
        # only 4 or 5 digits at 1/2 - 10**-12
        half, eps = Fraction(1, 2), Fraction(1, 10**12)
        b, c = Fraction(1, 30), half - eps
        rays, _ = solve_two_equal(b, c)
        small, large = sorted(float(r.rep.x1) for r in rays if r.family_tag is FamilyTag.TWO_EQUAL_DIAGONAL)
        # x1 = 2(b+c)/mu and the roots mu multiply to 4(1-2c)(b+c)
        assert abs(small * large / float((b + c) / (1 - 2 * c)) - 1) < 1e-14
        rays, _ = solve_two_equal(half - eps, Fraction(1, 3))
        ratios = [float(r.rep.x1 / r.rep.x2) for r in rays if r.family_tag is FamilyTag.TWO_EQUAL_OFF_DIAGONAL]
        # the ratios x1/x2 of the two rays are reciprocal
        assert len(ratios) == 2 and abs(ratios[0] * ratios[1] - 1) < 1e-14

    @given(wallach, wallach)
    @settings(max_examples=40)
    def test_all_returned_rays_are_equilibria(self, b, c):
        # exact reps solve the equations exactly; square-root reps to rounding
        rays, _ = solve_two_equal(b, c)
        p = Parameters(b, b, c)
        for ray in rays:
            r1, r2 = residual(p, ray.rep)
            if ray.rep.exact:
                assert (r1, r2) == (0, 0)
            else:
                scale = (1 + max(abs(float(v)) for v in ray.rep.x)) ** 2
                assert max(abs(float(r1)), abs(float(r2))) < 1e-12 * scale


class TestSumHalfCase:
    def test_example_families(self):
        p = Parameters(Fraction(1, 10), Fraction(3, 20), Fraction(1, 4))
        rays = solve_sum_half(p)
        assert len(rays) == 4
        by_tag = {r.family_tag: r for r in rays}
        first = by_tag[FamilyTag.SUM_HALF_1].rep
        # ((1 - 2a1) q, (1 - 2a2) q, 2(a1 + a2) q) scaled to x3 = 1
        assert (first.x1, first.x2) == (Fraction(8, 5), Fraction(7, 5))
        second = by_tag[FamilyTag.SUM_HALF_2].rep
        # third component 2(1 - a1 - a2) q = (3/2) q before normalization
        assert second.x1 == Fraction(4, 5) / Fraction(3, 2)

    def test_all_families_satisfy_equations(self):
        p = Parameters(Fraction(1, 10), Fraction(3, 20), Fraction(1, 4))
        for ray in solve_sum_half(p):
            assert residual(p, ray.rep) == (0, 0)

    def test_rejects_wrong_sum(self):
        with pytest.raises(ValueError):
            solve_sum_half(Parameters(Fraction(1, 6), Fraction(1, 4), Fraction(1, 3)))

    def test_rejects_equal_values(self):
        with pytest.raises(ValueError):
            solve_sum_half(Parameters(Fraction(1, 8), Fraction(1, 8), Fraction(1, 4)))


class TestQuartic:
    def test_coefficients_for_reference_triple(self):
        p = Parameters(Fraction(1, 6), Fraction(1, 4), Fraction(1, 3))
        assert quartic_coefficients(p) == [
            Fraction(-49, 162),
            Fraction(203, 216),
            Fraction(-691, 648),
            Fraction(115, 216),
            Fraction(-125, 1296),
        ]

    @given(wallach, wallach, wallach)
    @settings(max_examples=50)
    def test_constant_coefficient_sign_interior(self, a1, a2, a3):
        p = Parameters(a1, a2, a3)
        c0 = quartic_coefficients(p)[4]
        assert c0 == (2 * a3 - 1) * (2 * a3 + 1) * (a1 + a2) ** 2
        if p.interior:
            assert c0 < 0

    def test_discriminant_zero_at_multiplicity_case(self):
        p = Parameters(Fraction(5, 36), Fraction(1, 6), Fraction(1, 4))
        assert quartic_discriminant(p) == 0

    def test_discriminant_matches_root_product(self):
        # oracle: disc = c4^6 * prod_{i<j} (r_i - r_j)^2 for a generic quartic
        rng = np.random.default_rng(0)
        for _ in range(5):
            roots = rng.uniform(-2, 2, 4)
            c4 = rng.uniform(0.5, 2)
            coeffs = c4 * np.poly(roots)
            p = Parameters(Fraction(1, 6), Fraction(1, 4), Fraction(1, 3))
            from wallachflow._poly import quartic_discriminant_coeffs

            disc = quartic_discriminant_coeffs(*coeffs)
            want = c4**6 * np.prod(
                [(roots[i] - roots[j]) ** 2 for i in range(4) for j in range(i + 1, 4)]
            )
            assert abs(disc - want) < 1e-8 * max(1.0, abs(want))


class TestSolveGeneral:
    def test_reference_case_roots(self):
        p = Parameters(Fraction(1, 6), Fraction(1, 4), Fraction(1, 3))
        rays = solve_general(p)
        assert len(rays) == 2
        exact = [r for r in rays if r.rep.exact]
        assert len(exact) == 1
        assert exact[0].rep.x == (Fraction(4, 5), Fraction(3, 5), 1)
        other = [r for r in rays if not r.rep.exact][0].key()
        assert abs(other[0] - 2.284185494) < 1e-6
        assert abs(other[1] - 2.372799295) < 1e-6

    @pytest.mark.parametrize("exact, count", [(False, 300), (True, 200)])
    def test_matches_the_census_bit_for_bit(self, exact, count):
        # in general position the closed form gives the census's x3 = 1
        # points and multiplicities to the last bit: 1/s and t/s are each
        # rounded once, at the root s
        rng = random.Random(4)
        checked = 0
        while checked < count:
            if exact:
                a = tuple(Fraction(rng.randint(1, d // 2), d) for d in (rng.randint(2, 60) for _ in range(3)))
            else:
                a = tuple(rng.uniform(1e-3, 0.5) for _ in range(3))
            if len(set(a)) < 3 or sum(map(Fraction, a)) == Fraction(1, 2):
                continue
            p = Parameters(*a)
            got, want = ([(*r.rep.x[:2], r.multiplicity) for r in f(p)] for f in (solve_general, solve_all))
            assert _float_bits(got) == _float_bits(want), a
            checked += 1

    def test_rep_off_x3_one_raises(self):
        with pytest.raises(ValueError, match="x3 = 1"):
            EquilibriumRay(MetricPoint(1, 2, 2), FamilyTag.GENERAL_QUARTIC)

    def test_double_root_case(self):
        p = Parameters(Fraction(5, 36), Fraction(1, 6), Fraction(1, 4))
        rays = solve_general(p)
        assert len(rays) == 3
        assert sorted(r.multiplicity for r in rays) == [1, 1, 2]
        doubled = [r for r in rays if r.multiplicity == 2][0]
        assert doubled.rep.exact

    def test_rejects_equal_parameters(self):
        with pytest.raises(ValueError):
            solve_general(Parameters(Fraction(1, 6), Fraction(1, 6), Fraction(1, 4)))

    @pytest.mark.parametrize("a", [
        (0.09167910314904258, 0.06169656447744752, 0.34662433237350987),
        (0.1475404440153435, 0.09490189427191044, 0.2575576617127461),
    ])
    def test_rays_next_to_the_sum_half_plane(self, a):
        # the binary sum misses 1/2, and two rays nearly share s = x3/x1, where
        # den of t = num/den nearly vanishes: t from the rounded s gave 3 rays
        # (and 4 with one twice), one of them no equilibrium
        p = Parameters(*a)
        rays = solve_general(p)
        assert len(rays) == 4 and rays == solve_all(p)
        exact = Parameters(*map(Fraction, a))
        for ray in rays:
            x = MetricPoint(*map(Fraction, ray.rep.x))
            assert all(abs(e) <= 1e-12 for e in residual(exact, x)), ray

    def test_ray_beyond_float_range_is_dropped(self):
        # a1 = 1/2 - 10**-400 gives the quartic a root s = x3/x1 near 10**400,
        # whose ray has no float representative
        p = Parameters(Fraction(1, 2) - Fraction(1, 10**400), Fraction(1, 6), Fraction(1, 3))
        rays = solve_general(p)
        assert len(rays) == 1
        assert abs(rays[0].key()[0] - 2.388049347) < 1e-8

    def test_exact_triple_near_two_faces_has_one_tiny_ray(self):
        # near the edge (1/2, 1/2, 1/3), where 8c^2 < 1 leaves no ray; the
        # quartic's primitive coefficients have 1001 to 1401 digits.  One ray
        # is left near the edge, with x2 about 2 (1/2 - a2) = 2e-300 (a
        # 3000-bit mpmath findroot gives x1 = 1 + 4e-601 and x2 = (2 +
        # 3.6e-300) 1e-300); both routes keep it only because they divide
        # exact values
        half = Fraction(1, 2)
        p = Parameters(half - Fraction(1, 10**400), half - Fraction(1, 10**300), Fraction(1, 3))
        assert [r.key() for r in solve_general(p)] == [(1.0, 2e-300)]
        assert census(p) == [(1.0, 2e-300, 1)]
        (ray,) = solve_all(p)
        assert ray.family_tag is FamilyTag.GENERAL_QUARTIC and ray.rep.x == (1.0, 2e-300, 1.0)

    def test_the_quartic_vanishes_at_no_pole_of_t(self):
        # t = num(s)/den(s) has its pole at the root (a1 + a2)/(a2 + a3) of
        # den; there the quartic is zero only where a1 = -a2, when the pole
        # is s = 0, which is no ray
        sympy = pytest.importorskip("sympy")
        a1, a2, a3 = sympy.symbols("a1 a2 a3")
        pole = (a1 + a2) / (a2 + a3)
        value = sum(c * pole ** (4 - k) for k, c in enumerate(_quartic(a1, a2, a3, 1)))
        want = (a1 + a2) ** 2 * (a1 - a3) ** 2 * (2 * (a1 + a2 + a3) - 1) ** 2 / (a2 + a3) ** 2
        assert sympy.simplify(value - want) == 0


class TestSolveAll:
    @pytest.mark.parametrize(
        "a, count",
        [
            ((Fraction(1, 6), Fraction(1, 6), Fraction(1, 6)), 4),
            ((Fraction(1, 6), Fraction(1, 4), Fraction(1, 3)), 2),
            ((Fraction(1, 4), Fraction(1, 4), Fraction(1, 4)), 1),
            ((Fraction(5, 36), Fraction(1, 6), Fraction(1, 4)), 3),
        ],
    )
    def test_counts(self, a, count):
        assert len(solve_all(Parameters(*a))) == count

    def test_equal_pair_in_other_slots(self):
        # the two-equal case must work regardless of which pair coincides
        for a in [
            (Fraction(1, 4), Fraction(1, 6), Fraction(1, 6)),
            (Fraction(1, 6), Fraction(1, 4), Fraction(1, 6)),
        ]:
            p = Parameters(*a)
            rays = solve_all(p)
            assert 1 <= len(rays) <= 4
            for ray in rays:
                r1, r2 = residual(p, ray.rep)
                scale = (1 + max(abs(float(v)) for v in ray.rep.x)) ** 2
                assert max(abs(float(r1)), abs(float(r2))) < 1e-12 * scale

    def test_results_sorted_and_positive(self):
        rays = solve_all(Parameters(Fraction(1, 6), Fraction(1, 6), Fraction(1, 6)))
        ks = [r.key() for r in rays]
        assert ks == sorted(ks)
        assert all(v > 0 for r in rays for v in r.rep.x)

    def test_closed_form_and_census_agree_two_equal(self):
        rng = np.random.default_rng(123)
        for _ in range(400):
            b, c = rng.uniform(0.05, 0.48, 2)
            p = Parameters(b, b, c)
            assert_matches_closed_form(p, solve_all(p))

    def test_closed_form_and_census_agree_general(self):
        rng = np.random.default_rng(124)
        for _ in range(400):
            a = rng.uniform(0.05, 0.48, 3)
            p = Parameters(*a)
            assert_matches_closed_form(p, solve_all(p))

    def test_closed_form_and_census_agree_sum_half(self):
        # a3 = 0.5 - a1 - a2 rounds: where the dyadic sum misses 1/2 the
        # triple is in general position, and its four rays are quartic rays,
        # next to the rays on the plane
        rng = np.random.default_rng(125)
        n = on_plane = 0
        while n < 200:
            a1, a2 = rng.uniform(0.05, 0.3, 2)
            a3 = 0.5 - a1 - a2
            if not 0.05 < a3 < 0.48:
                continue
            n += 1
            p = Parameters(a1, a2, a3)
            rays = solve_all(p)
            assert len(rays) == 4
            if sum(map(Fraction, p.a)) == Fraction(1, 2):
                on_plane += 1
                assert_matches_closed_form(p, rays)
            else:
                assert tag_weights(rays) == {FamilyTag.GENERAL_QUARTIC: 4}, (a1, a2, a3)
                assert_matches_closed_form(p, rays)
                b1, b2 = Fraction(a1), Fraction(a2)
                assert_matches(solve_sum_half(Parameters(b1, b2, Fraction(1, 2) - b1 - b2)), rays, tags=False)
        assert 0 < on_plane < n

    @pytest.mark.parametrize("a, tags", [
        # D1 = 0 at 5/24, 5/24, 1/6: just off it two diagonal rays lie 1.1e-8
        # apart (relative); in floats D1 cancels to 0 in the closed form
        ((0.2083333333333333, 0.2083333333333333, 0.16666666666666666),
         {FamilyTag.TWO_EQUAL_DIAGONAL: 2, FamilyTag.TWO_EQUAL_OFF_DIAGONAL: 2}),
        # a grid point of scan --n 20, with the diagonal x2 = x3
        ((0.1875, 0.2125, 0.2125),
         {FamilyTag.TWO_EQUAL_DIAGONAL: 2, FamilyTag.TWO_EQUAL_OFF_DIAGONAL: 2}),
        # just below 17/56 on T = 0: two off-diagonal rays near (2, 2)
        ((0.125, 0.125, 0.30357142857142855),
         {FamilyTag.TWO_EQUAL_DIAGONAL: 2, FamilyTag.TWO_EQUAL_OFF_DIAGONAL: 2}),
    ])
    @pytest.mark.parametrize("exact", [False, True], ids=["float", "dyadic"])
    def test_close_rays_keep_their_families(self, a, tags, exact):
        p = Parameters(*(map(Fraction, a) if exact else a))
        rays = solve_all(p)
        assert Counter(r.family_tag for r in rays) == tags
        assert all(r.multiplicity == 1 for r in rays)

    def test_diagonal_rays_on_the_curve_t_zero(self):
        # (b, b, c) with c on T = 0 rounded to a float: the mirror pair of
        # off-diagonal rays lies within about 1e-8 of the diagonal ray
        rng = random.Random(3)
        for _ in range(400):
            b = rng.uniform(0.005, 0.305)
            c = (1 - 4 * b + 16 * b**3) / (2 - 16 * b * b)
            rays = solve_all(Parameters(b, b, c))
            tags = {r.rep.x[:2]: r.family_tag for r in rays}
            for (x1, x2), tag in tags.items():
                assert (tag is FamilyTag.TWO_EQUAL_DIAGONAL) == (x1 == x2), (b, c, x1, x2)
                assert tags.get((x2, x1), tag) is tag, (b, c, x1, x2)

    def test_sum_half_rays_sharing_a_chart_line(self):
        # a1 = 3 a2 puts the rays of families 3 and 4 on one line x2 + x1/3 = u
        for a in [(Fraction(3, 16), Fraction(1, 16), Fraction(1, 4)), (0.1875, 0.0625, 0.25)]:
            p = Parameters(*a)
            got = {r.family_tag: r.rep.x for r in solve_all(p)}
            want = {r.family_tag: r.rep.x for r in solve_sum_half(Parameters(*map(Fraction, a)))}
            assert got == (want if p.exact else {t: tuple(map(float, x)) for t, x in want.items()})

    def test_census_alone_finds_every_ray(self):
        p = Parameters(Fraction(1, 6), Fraction(1, 6), Fraction(1, 6))
        points = census(p)
        assert points == [(0.5, 0.5, 1), (1, 1, 1), (1, 2, 1), (2, 1, 1)]
        assert all(isinstance(v, Fraction) for pt in points for v in pt[:2])
        assert all(residual(p, MetricPoint(x1, x2, 1)) == (0, 0) for x1, x2, _ in points)

    @pytest.mark.parametrize("a, count", [
        ((0.30807717, 0.1924551, 0.49860776), 2),
        ((0.3521891, 0.41073044, 0.49093233), 4),
    ])
    def test_census_finds_rays_far_from_the_unit_box(self, a, count):
        # each triple has a ray near (358, 358) or (54, 54), which a
        # search restricted to a box around (1, 1) misses
        rays = solve_all(Parameters(*a))
        assert len(rays) == count
        assert FamilyTag.NUMERIC not in {r.family_tag for r in rays}
        assert max(r.key()[0] for r in rays) > 50

    def test_census_shared_chart_line_adds_no_ray(self):
        # at (3/10, 1/10, 1/10) two rays share one value of x2 + x1/3, so
        # a perturbation puts two nearly equal roots on the resultant
        p = Parameters(*(v * (1 + 2**-50) for v in (0.3, 0.1, 0.1)))
        assert len(census(p)) == 4
        # exactly, both rays lie on the line of the double root u = 5/3
        exact = census(Parameters(Fraction(3, 10), Fraction(1, 10), Fraction(1, 10)))
        assert exact == [(Fraction(1, 3), Fraction(2, 3), 1), (Fraction(1, 2), 1, 1),
                         (Fraction(1, 2), Fraction(3, 2), 1), (2, 1, 1)]
        rays = solve_all(p)
        assert len(rays) == 4
        assert_matches_closed_form(p, rays)

    def test_census_keeps_the_ray_of_a_nearly_double_root(self):
        # at the second ray the first equation has two roots x1 within 2e-5
        # of each other; rounding its coefficients to floats moved the ray's
        # root by 2e-11 and failed the residual bound
        p = Parameters(0.19685981713741588, 0.4999999146235119, 0.23944226898753626)
        points = census(p)
        assert len(points) == 2 and abs(points[1][0] - 1.1720046101) < 1e-9
        rays = solve_all(p)
        assert len(rays) == 2
        assert_matches_closed_form(p, rays)

    def test_census_with_two_linear_equations(self):
        # here both equations lose their x1**2 term in the chart of the
        # census, so the resultant is that of two linear equations
        p = Parameters(Fraction(-1, 5), Fraction(1, 5), Fraction(-7, 50))
        (x1, x2, _mult), = census(p)
        assert abs(x1 - 1.0175542754065698) < 1e-14 and abs(x2 - 0.6175542754065698) < 1e-14

    @pytest.mark.parametrize("a, ray", [
        ((Fraction(1), Fraction(1, 3), Fraction(-5, 6)), (Fraction(9, 8), Fraction(1, 8))),
        ((Fraction(83, 90), Fraction(1, 10), Fraction(-5, 6)), (1.4512601006023367, 0.140783384036625)),
    ])
    def test_census_where_the_eliminated_equation_is_constant(self, a, ray):
        # with a3 = -5/6 and a1 = a2/3 + 8/9, l vanishes identically and the
        # eliminated equation is m(u) = 0: the rays lie on the lines of its
        # roots, a rational and an irrational one here
        p = Parameters(*a)
        ((x1, x2, mult),) = census(p)
        assert mult == 1
        assert abs(x1 - ray[0]) <= 1e-15 * ray[0] and abs(x2 - ray[1]) <= 1e-14 * ray[1]
        e = residual(p, MetricPoint(Fraction(x1), Fraction(x2), 1))
        assert max(map(abs, e)) <= 1e-15

    @pytest.mark.parametrize("a", [
        (Fraction(-1, 2), Fraction(1, 2), Fraction(1, 2)),
        (Fraction(1, 2), Fraction(-1, 2), Fraction(1, 2)),
        (Fraction(1, 2), Fraction(1, 2), Fraction(-1, 2)),
    ])
    def test_curve_of_equilibria_is_an_error(self, a):
        # both equations share the factor x1 - x2 - x3 (up to order), so
        # the rays of that plane form a curve of equilibria at x3 = 1 and
        # the resultant vanishes identically
        p = Parameters(*a)
        with pytest.raises(ValueError, match="curve"):
            census(p)
        with pytest.raises(ValueError, match="curve"):
            solve_all(p)


def _mpf(q: Fraction):
    return mpmath.mpf(q.numerator) / q.denominator


def _series_census(p):
    """The census rebuilt apart from the integer layout: ``m``, ``l`` and the
    resultant ``m**2 + l*n`` over untruncated ``Poly`` in ``Fraction``s, its real
    roots and their multiplicities by ``real_roots``, each irrational root
    refined to 400 bits by mpmath (Newton's step times the multiplicity),
    and ``x1 = -m(u)/l(u)``, ``x2 = u - x1/3`` rounded once.  Where ``l(u) =
    0`` the rays are the roots of the first equation on the line ``u``.  The
    multiplicity of ``u`` is the sum of the intersection multiplicities of
    the points on its line (complex ones included): a lone point takes all
    of it, and two points on a double root take 1 each; no other split
    occurs in the triples checked here."""
    x1, u = Poly.var(0, 2), Poly.var(1, 2)
    e1, e2 = equations(*map(Fraction, p.a), x1, u - _SHEAR * x1, 1)
    (p1, b1, c1), (p2, b2, c2) = (
        [Poly({(0, j): c for j in range(3) if (c := e.get((i, j)))}, 2) for i in (2, 1, 0)] for e in (e1, e2)
    )
    m, l, n = p1 * c2 - p2 * c1, p1 * b2 - p2 * b1, b2 * c1 - b1 * c2
    res = m * m + l * n if p1 or p2 else n
    if not (p1 or p2):  # two linear equations: x1 = -c/b from one of them
        m, l = (c1, b1) if b1 else (c2, b2)
    coeffs = [res.get((0, j), Fraction(0)) for j in range(4, -1, -1)]
    if not any(coeffs):
        raise ValueError("the equilibria form a curve")
    out = []
    for v, mult in real_roots(coeffs):
        if not abs(v) < math.inf:
            continue
        if isinstance(v, Fraction):
            lv = sum(l.get((0, j), 0) * v**j for j in range(2))
            if lv == 0:
                quads = [[sum(e.get((i, j), 0) * v**j for j in range(3 - i)) for i in (2, 1, 0)] for e in (e1, e2)]
                quad = quads[0] if any(quads[0]) else quads[1]
                on_line = real_roots(quad)
                assert len(on_line) in (0, 1, mult), (p.a, v, mult)
                pts = [(r, v - _SHEAR * Fraction(r), mult // len(on_line)) for r, _m in on_line]
            else:
                r = -sum(m.get((0, j), 0) * v**j for j in range(3)) / lv
                pts = [(r, v - _SHEAR * r, mult)]
        else:
            with mpmath.workprec(400):
                f = [_mpf(c) for c in coeffs]
                df = [c * (len(f) - 1 - i) for i, c in enumerate(f[:-1])]
                w = mpmath.mpf(v)
                for _ in range(12):
                    fw = mpmath.polyval(f, w)
                    if not fw:
                        break
                    w -= mult * fw / mpmath.polyval(df, w)
                mw, lw = (sum(_mpf(s.get((0, j), Fraction(0))) * w**j for j in range(3)) for s in (m, l))
                r = -mw / lw
                pts = [(float(r), float(w - r / 3), mult)]
        for r, x2, k in pts:
            if 0 < r < math.inf and 0 < x2 < math.inf:
                out.append((r, x2, k) if p.exact else (float(r), float(x2), k))
    return sorted(out)


def _float_bits(points):
    return [(*((type(v), v.hex() if isinstance(v, float) else v) for v in pt[:2]), pt[2]) for pt in points]


class TestCensusParity:
    """The integer census returns what the ``Poly`` construction
    returns: the same exact rays, the same multiplicities, and float
    coordinates to the last bit."""

    def _check(self, triples):
        for a in triples:
            p = Parameters(*a)
            assert _float_bits(census(p)) == _float_bits(_series_census(p)), a

    def test_scan_orbits(self):
        self._check(sorted({tuple(sorted(a)) for a in cube_grid(9)}))

    def test_uniform_floats(self):
        rng = random.Random(11)
        self._check([tuple(rng.uniform(1e-3, 0.5) for _ in range(3)) for _ in range(300)])

    def test_near_face_floats(self):
        triples = []
        for k in range(1, 17):
            h = 0.5 - 10.0**-k
            triples += [(h, 0.3, 0.2), (0.1, h, 0.45), (h, h, 0.05), (h, h, h)]
        self._check(triples)

    def test_on_line_floats(self):
        # every ordered n/64 float triple whose resultant has a root on the
        # line l(u) = 0: no rational root is searched for at float
        # parameters, so only the test at u0 = -l0/l1 finds these rays
        self._check([
            (0.25, 0.25, 0.25), (0.1875, 0.0625, 0.25), (0.046875, 0.015625, 0.4375),
            (0.09375, 0.03125, 0.375), (0.140625, 0.046875, 0.3125), (0.234375, 0.078125, 0.1875),
            (0.28125, 0.09375, 0.125), (0.328125, 0.109375, 0.0625), (0.03125, 0.3125, 0.5),
            (0.3125, 0.34375, 0.5),
        ])

    def test_exact_triples(self):
        rng = random.Random(12)
        triples = [
            tuple(Fraction(rng.randint(1, d // 2), d) for d in (rng.randint(2, 60) for _ in range(3)))
            for _ in range(200)
        ]
        self._check(triples + [
            (Fraction(13, 97), Fraction(17, 89), Fraction(23, 101)),
            (Fraction(1, 30), Fraction(1, 2) - Fraction(1, 10**12), Fraction(1, 30)),
            (Fraction(-1, 5), Fraction(1, 5), Fraction(-7, 50)),
            # only the first equation loses its x1**2 term in the chart
            (Fraction(-3, 8), Fraction(1, 6), Fraction(1, 6)),
        ])

    @pytest.mark.parametrize("a", [
        (Fraction(-1, 2), Fraction(1, 2), Fraction(1, 2)),
        (Fraction(1, 2), Fraction(-1, 2), Fraction(1, 2)),
        (Fraction(1, 2), Fraction(1, 2), Fraction(-1, 2)),
    ])
    def test_curves_raise_in_both(self, a):
        p = Parameters(*a)
        with pytest.raises(ValueError, match="curve"):
            _series_census(p)
        with pytest.raises(ValueError, match="curve"):
            census(p)


class TestNormalizeUnitVolume:
    def test_fixed_point(self):
        p = Parameters(Fraction(1, 6), Fraction(1, 4), Fraction(1, 3))
        rays = solve_all(p)
        exact = [r for r in rays if r.rep.exact][0]
        m = normalize_unit_volume(p, exact)
        assert abs(log_volume(p, m)) < 1e-12

    def test_known_scaling(self):
        p = Parameters(Fraction(1, 6), Fraction(1, 6), Fraction(1, 6))
        ray = [r for r in solve_all(p) if r.key() == (2.0, 1.0)][0]
        m = normalize_unit_volume(p, ray)
        assert abs(float(m.x1) - 2 ** (2 / 3)) < 1e-12
        assert abs(float(m.x2) - 2 ** (-1 / 3)) < 1e-12

    def test_identity_when_already_normalized(self):
        p = Parameters(Fraction(1, 6), Fraction(1, 6), Fraction(1, 6))
        ray = [r for r in solve_all(p) if r.key() == (1.0, 1.0)][0]
        assert normalize_unit_volume(p, ray).x == (1, 1, 1)


class TestMultiplicity:
    """The multiplicity of a ray is that of its root in the census
    resultant, which is its intersection multiplicity."""

    @pytest.mark.parametrize("a, ray, mult", [
        # on Omega with grad Q = 0: the off-diagonal pair merges into the
        # diagonal ray, a triple root u = 8/3 of the resultant
        ((Fraction(1, 8), Fraction(1, 8), Fraction(17, 56)), (2, 2), 3),
        # all four rays merge: u = 4/3 has multiplicity 4
        ((Fraction(1, 4), Fraction(1, 4), Fraction(1, 4)), (1, 1), 4),
        # D1 = 0: a double diagonal ray
        ((Fraction(5, 24), Fraction(5, 24), Fraction(1, 6)), (Fraction(3, 4), Fraction(3, 4)), 2),
    ])
    def test_degenerate_rays(self, a, ray, mult):
        p = Parameters(*a)
        (got,) = [r for r in solve_all(p) if r.rep.x[:2] == ray]
        assert got.rep.exact and got.multiplicity == mult
        assert linearize_at(p, got.rep).delta == 0

    def test_double_root_of_the_general_quartic(self):
        rays = solve_all(Parameters(Fraction(5, 36), Fraction(1, 6), Fraction(1, 4)))
        assert [r.multiplicity for r in rays] == [1, 1, 2]

    def test_exact_triples_with_small_denominators(self):
        # every orbit of triples in (0, 1/2]^3 with denominators <= 12: a ray
        # has delta = 0 exactly when it is a multiple intersection, and the
        # multiplicities sum to at most the degree 4 of the resultant
        values = sorted({Fraction(n, d) for d in range(1, 13) for n in range(1, d // 2 + 1)})
        degenerate = {}
        for a in itertools.combinations_with_replacement(values, 3):
            p = Parameters(*a)
            rays = solve_all(p)
            assert sum(r.multiplicity for r in rays) <= 4, a
            # a closed-form case covers every triple of (0, 1/2]^3 but the
            # pairwise distinct ones on a face with sum 1/2, and there are none
            assert FamilyTag.NUMERIC not in {r.family_tag for r in rays}, a
            for ray in rays:
                flat = linearize_at(p, ray.rep).delta == 0
                assert flat == (ray.multiplicity >= 2), (a, ray)
                if flat:
                    degenerate[a] = ray.multiplicity
        assert degenerate == {
            (Fraction(1, 4),) * 3: 4,
            (Fraction(1, 3), Fraction(5, 12), Fraction(5, 12)): 2,
        }


def _mp_rounded(a, x1, x2):
    """The solution of the x3 = 1 equations near ``(x1, x2)``, by a 300-bit
    mpmath ``findroot`` on the equations written out apart from
    ``equations``, rounded once to floats."""
    with mpmath.workprec(300):
        a1, a2, a3 = (_mpf(Fraction(v)) for v in a)

        def eqs(y1, y2):
            return (
                (a2 + a3) * (a1 * y2**2 + a1 - y2) + (a2 * y2 + a3) * y1 - (a1 * a2 + a1 * a3 + 2 * a2 * a3) * y1**2,
                (a1 + a3) * (a2 * y1**2 + a2 - y1) + (a1 * y1 + a3) * y2 - (a1 * a2 + 2 * a1 * a3 + a2 * a3) * y2**2,
            )

        root = mpmath.findroot(eqs, (mpmath.mpf(x1), mpmath.mpf(x2)))
        return float(root[0]), float(root[1])


class TestCorrectRounding:
    """Every float coordinate of a census ray is its exact value rounded
    once, checked against mpmath."""

    def test_tiny_coordinate_near_a_face(self):
        # x2 is about 2 (1/2 - a2); as u - x1/3 in floats it kept 6 digits
        a = (Fraction(1, 30), Fraction(1, 2) - Fraction(1, 10**12), Fraction(1, 30))
        rays = census(Parameters(*a))
        tiny = [x2 for _x1, x2, _m in rays if x2 < 1e-6]
        assert tiny == [2.0000000000021333e-12]
        assert _mp_rounded(a, 1.0, tiny[0]) == (1.0, 2.0000000000021333e-12)
        assert min(r.rep.x2 for r in solve_all(Parameters(*a))) == 2.0000000000021333e-12

    def test_seeded_float_triples(self):
        # half uniform, half with one parameter at 1/2 - 10^-u, u in (1, 12)
        rng = random.Random(2026)
        triples = []
        for k in range(120):
            a = [rng.uniform(1e-3, 0.5) for _ in range(3)]
            if k % 2:
                a[rng.randrange(3)] = 0.5 - 10.0 ** -rng.uniform(1, 12)
            triples.append(tuple(a))
        checked = 0
        for a in triples:
            p = Parameters(*a)
            rays = census(p)
            labelled = solve_all(p)
            assert [r.rep.x[:2] for r in labelled] == [(x1, x2) for x1, x2, _m in rays], a
            assert_matches_closed_form(p, labelled)
            for x1, x2, _m in rays:
                assert _mp_rounded(a, x1, x2) == (x1, x2), (a, x1, x2)
                checked += 1
        assert checked > 250
