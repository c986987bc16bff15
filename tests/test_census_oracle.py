"""The census against an independent oracle: sympy's polynomial system
solver on the x3 = 1 equilibrium equations."""

from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from wallachflow.core import Parameters
from wallachflow.equilibria import census

sympy = pytest.importorskip("sympy")

HALF = Fraction(1, 2)
# every parameter in (0, 1/2] with denominator at most 12; a triple whose
# equilibria form a curve, such as (-1/2, 1/2, 1/2), has a negative entry
VALUES = sorted({Fraction(n, d) for d in range(1, 13) for n in range(1, d // 2 + 1)})
SUM_HALF = [(a1, a2, HALF - a1 - a2) for a1 in VALUES for a2 in VALUES if HALF - a1 - a2 in VALUES]

value = st.sampled_from(VALUES)
general = st.tuples(value, value, value)
two_equal = st.builds(
    lambda b, c, slot: tuple(c if i == slot else b for i in range(3)),
    value, value, st.integers(0, 2),
)
sum_half = st.sampled_from(SUM_HALF)
face = st.builds(lambda b, c, slot: (b, c)[:slot] + (HALF,) + (b, c)[slot:], value, value, st.integers(0, 2))


def oracle(a) -> list[tuple[float, float]]:
    """The positive real solutions of the x3 = 1 equations, by sympy."""
    x1, x2 = sympy.symbols("x1 x2")
    a1, a2, a3 = (sympy.Rational(v.numerator, v.denominator) for v in a)
    e1 = (a2 + a3) * (a1 * x2**2 + a1 - x2) + (a2 * x2 + a3) * x1 - (a1 * a2 + a1 * a3 + 2 * a2 * a3) * x1**2
    e2 = (a1 + a3) * (a2 * x1**2 + a2 - x1) + (a1 * x1 + a3) * x2 - (a1 * a2 + 2 * a1 * a3 + a2 * a3) * x2**2
    points: list[tuple[float, float]] = []
    for sol in sympy.solve_poly_system([e1, e2], x1, x2):
        z = [complex(v.evalf(40)) for v in sol]
        pt = tuple(c.real for c in z)
        real = all(abs(c.imag) <= 1e-25 * (1 + abs(c.real)) for c in z)
        # a multiple solution may come back more than once
        if real and min(pt) > 0 and not any(_close(q, pt) for q in points):
            points.append(pt)
    return sorted(points)


def _close(p, q) -> bool:
    return all(abs(u - v) <= 1e-12 * v for u, v in zip(p, q))


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.one_of(general, two_equal, sum_half, face))
def test_census_matches_sympy(a):
    # the equations are those of equilibria.equations, written out again
    # for sympy so that the oracle shares no code with the census
    got = census(Parameters(*a))
    want = oracle(a)
    # rays with equal x1 may sort either way after rounding, so match them
    assert len(got) == len(want), (a, got, want)
    assert all(any(_close(g, w) for w in want) for g in got), (a, got, want)
