"""Properties of the equilibrium census over the closed cube (0, 1/2]^3,
faces, near-faces and the empty edge included."""

import itertools
from collections import Counter
from fractions import Fraction
from types import SimpleNamespace

from hypothesis import example, given, settings
from hypothesis import strategies as st

from closed_forms import closed_form
from wallachflow._poly import Poly
from wallachflow.core import Parameters
from wallachflow.equilibria import census, residual, solve_all
from wallachflow.flow import MetricPoint
from wallachflow.linearize import PointKind, _g_form, _laid_out_forms, f1, f2, linearize_at
from wallachflow.surfaces import census_kinds, component_classify

HALF = Fraction(1, 2)
# residual of a ray, relative to (1 + max(x1, x2))^2, that its rounding allows
RESIDUAL_TOL = 1e-12

value = st.fractions(min_value=Fraction(1, 60), max_value=HALF, max_denominator=60)
near_half = st.builds(lambda k: HALF - Fraction(1, 10**k), st.integers(3, 12))
interior = st.tuples(value, value, value)
face = st.tuples(st.just(HALF), value, value)
near_face = st.tuples(near_half, value, value)
# (1/2, 1/2, c) with 8c^2 < 1 has no positive ray
empty_edge = st.tuples(st.just(HALF), st.just(HALF), value.filter(lambda c: 8 * c * c < 1))
triples = st.builds(
    lambda a, order: tuple(a[i] for i in order),
    st.one_of(interior, face, near_face, empty_edge),
    st.permutations(range(3)),
)


@settings(max_examples=100, deadline=None)
@given(triples)
@example((HALF, Fraction(1, 3), HALF))
# one root of a two-equal quadratic is tiny here
@example((Fraction(1, 30), Fraction(1, 30), HALF - Fraction(1, 10**12)))
@example((HALF - Fraction(1, 10**12), Fraction(1, 3), HALF - Fraction(1, 10**12)))
# one stable node (index sum +1), and a saddle and a stable node (0)
@example((HALF, HALF, HALF))
@example((HALF, HALF, Fraction(2, 5)))
def test_census_rays_and_labels_over_the_closed_cube(a):
    p = Parameters(*a)
    rays = solve_all(p)
    assert len(census(p)) == len(rays), a
    if a.count(HALF) >= 2 and 8 * min(a) ** 2 < 1:
        assert rays == []
    for ray in rays:
        x1, x2, _ = (Fraction(v) for v in ray.rep.x)
        e = residual(p, MetricPoint(x1, x2, 1))
        assert max(abs(float(v)) for v in e) <= RESIDUAL_TOL * (1 + float(max(x1, x2))) ** 2, (a, ray)

    kinds = census_kinds(p, rays)
    if PointKind.DEGENERATE not in kinds:
        # the Poincare index sum: a saddle counts -1, a node or a focus +1
        index_sum = sum(-1 if kind is PointKind.SADDLE else 1 for kind in kinds)
        assert index_sum == a.count(HALF) - 2, (a, kinds)
    label = component_classify(p, rays)
    tags = Counter(r.family_tag for r in rays)
    for order in itertools.permutations(range(3)):
        q = Parameters(*(a[i] for i in order))
        q_rays = solve_all(q)
        assert census_kinds(q, q_rays) == kinds, (a, order)
        assert component_classify(q, q_rays) == label, (a, order)
        # a permutation only relabels the modules, and the families with them
        assert Counter(r.family_tag for r in q_rays) == tags, (a, order)


@settings(max_examples=100, deadline=None)
@given(triples)
@example((HALF, Fraction(1, 3), HALF))
@example((Fraction(1, 6), Fraction(1, 4), Fraction(1, 3)))
def test_every_ray_is_its_x3_one_point(a):
    # the census and each closed form give x3 = 1 exactly for an exact ray
    # and 1.0 for a float one, at exact and at float parameters
    for p in (Parameters(*a), Parameters(*map(float, a))):
        for ray in solve_all(p) + closed_form(p):
            assert ray.rep.x3 == 1 and type(ray.rep.x3) is type(ray.rep.x1), (p.a, ray)


def _gamma(n: int) -> Fraction:
    """Higham's ``gamma_n = n u / (1 - n u)`` for binary64, ``u = 2**-53``."""
    u = Fraction(1, 2**53)
    return n * u / (1 - n * u)


def _assert_within_gamma_11(p, x, polys):
    """At a float ray each term is a coefficient rounded once times three
    powers (each within 2u) in three products, so within gamma_10 of its
    exact value, and the float sum rounds once more: each laid-out form is
    within gamma_11 * sum |terms| of the exact form at that point."""
    xq = tuple(map(Fraction, x.x))
    for got, poly in zip(_laid_out_forms(p, x)[1], polys):
        terms = [c * xq[0] ** i * xq[1] ** j * xq[2] ** k for (i, j, k), c in poly.items()]
        err = abs(Fraction(got) - sum(terms))
        assert err <= _gamma(11) * sum(map(abs, terms)), (p.a, x, poly)


@settings(max_examples=60, deadline=None)
@given(triples)
@example((HALF, Fraction(1, 3), HALF))
# the diagonal node lies near the node/focus boundary
@example((Fraction(2, 17), Fraction(1, 8), Fraction(2, 17)))
@example((HALF - Fraction(1, 10**12), Fraction(1, 3), HALF - Fraction(1, 10**12)))
# at the float triple two of the rays are no equilibria
@example((Fraction(49999999, 10**8), Fraction(1, 30), HALF))
def test_laid_out_forms_over_the_closed_cube(a):
    p = Parameters(*a)
    A = p.A
    # F1, F2 and G at exact a as polynomials in x, straight from the
    # ring-generic forms
    xs = SimpleNamespace(x=tuple(Poly.var(k, 3) for k in range(3)))
    polys = [form(p, xs) for form in (f1, f2, _g_form)]
    for ray in solve_all(p):
        x = ray.rep
        lin = linearize_at(p, x)
        if x.exact:
            prod = x.x1 * x.x2 * x.x3
            assert lin.rho == 2 * f1(p, x) / (A * prod), (a, ray)
            assert lin.delta == f2(p, x) / (A * A * prod * prod), (a, ray)
            assert lin.sigma == lin.rho**2 - 4 * lin.delta, (a, ray)
            assert all(isinstance(v, Fraction) for v in (lin.rho, lin.delta, lin.sigma))
            # the residual check runs on the laid-out equations
            assert tuple(_laid_out_forms(p, x)[1][3:]) == residual(p, x), (a, ray)
            continue
        _assert_within_gamma_11(p, x, polys)

    # float parameters take the same path at their dyadic values, with the
    # same bound, and linearize as those values do
    pf = Parameters(*map(float, a))
    pq = Parameters(*map(Fraction, pf.a))
    polys = [form(pq, xs) for form in (f1, f2, _g_form)]
    for ray in solve_all(pf):
        # every ray is a census ray, so it linearizes, also near a face where
        # a float closed form returned rays that are no equilibria, e.g. at
        # (0.49999999, 1/30, 1/2)
        x = ray.rep
        assert repr(linearize_at(pf, x)) == repr(linearize_at(pq, x)), (a, ray)
        _assert_within_gamma_11(pf, x, polys)
