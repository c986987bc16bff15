"""Properties of the equilibrium census over the closed cube (0, 1/2]^3,
faces, near-faces and the empty edge included."""

import itertools
import warnings
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from wallachflow.core import Parameters
from wallachflow.equilibria import _RESIDUAL_TOL, CensusWarning, census, residual, solve_all
from wallachflow.flow import MetricPoint
from wallachflow.surfaces import census_kinds, component_classify

HALF = Fraction(1, 2)

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


def _rays(p: Parameters):
    with warnings.catch_warnings():
        # an empty census warns; the counts are checked here instead
        warnings.simplefilter("ignore", CensusWarning)
        return solve_all(p)


@settings(max_examples=100, deadline=None)
@given(triples)
@example((HALF, Fraction(1, 3), HALF))
# one root of a two-equal quadratic is tiny here
@example((Fraction(1, 30), Fraction(1, 30), HALF - Fraction(1, 10**12)))
@example((HALF - Fraction(1, 10**12), Fraction(1, 3), HALF - Fraction(1, 10**12)))
def test_census_rays_and_labels_over_the_closed_cube(a):
    p = Parameters(*a)
    rays = _rays(p)
    assert len(census(p)) == len(rays), a
    if a.count(HALF) >= 2 and 8 * min(a) ** 2 < 1:
        assert rays == []
    for ray in rays:
        x1, x2, _ = (Fraction(v) for v in ray.rep_x3one().x)
        e = residual(p, MetricPoint(x1, x2, 1))
        assert max(abs(float(v)) for v in e) <= _RESIDUAL_TOL * (1 + float(max(x1, x2))) ** 2, (a, ray)

    kinds = census_kinds(p, rays)
    label = component_classify(p, rays)
    for order in itertools.permutations(range(3)):
        q = Parameters(*(a[i] for i in order))
        q_rays = _rays(q)
        assert census_kinds(q, q_rays) == kinds, (a, order)
        assert component_classify(q, q_rays) == label, (a, order)
