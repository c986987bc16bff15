from fractions import Fraction

from wallachflow.blowup import (
    DEGENERATE_PARAMETERS,
    QuadraticPart,
    blowup_linearizations,
    delta_u_roots,
    shifted_quadratic_parts,
    shifted_taylor,
)
from wallachflow.flow import vector_field_2d


def quadratic_parts_fd() -> QuadraticPart:
    """Float cross-check of the quadratic jets via Richardson-extrapolated
    central second differences of the composed planar field."""
    def f(i, dx, dy):
        return float(vector_field_2d(DEGENERATE_PARAMETERS, 1 + dx, 1 + dy)[i])

    def d2(i, ex, ey, step):
        # the pure second difference along the axis (ex, ey), or the mixed one
        if ex and ey:
            return (f(i, step, step) - f(i, step, -step) - f(i, -step, step) + f(i, -step, -step)) / (4 * step**2)
        return (f(i, ex * step, ey * step) - 2 * f(i, 0, 0) + f(i, -ex * step, -ey * step)) / step**2

    def second(i, ex, ey, h=1e-3):
        return (4 * d2(i, ex, ey, h / 2) - d2(i, ex, ey, h)) / 3

    return QuadraticPart(*(second(i, ex, ey) / (1 if ex and ey else 2)
                           for i in (0, 1) for ex, ey in ((1, 0), (1, 1), (0, 1))))


class TestQuadraticParts:
    def test_exact_jets(self):
        parts = shifted_quadratic_parts()
        assert (parts.p_xx, parts.p_xy, parts.p_yy) == (Fraction(-1, 2), 1, 1)
        assert (parts.q_xx, parts.q_xy, parts.q_yy) == (1, 1, Fraction(-1, 2))

    def test_float_cross_check(self):
        exact = shifted_quadratic_parts()
        fd = quadratic_parts_fd()
        for name in ("p_xx", "p_xy", "p_yy", "q_xx", "q_xy", "q_yy"):
            assert abs(getattr(fd, name) - float(getattr(exact, name))) < 1e-8

    def test_shifted_field_has_no_linear_part(self):
        f, g = shifted_taylor()
        for series in (f, g):
            assert series.order == 3
            assert series.get((0, 0), 0) == 0
            assert series.get((1, 0), 0) == 0
            assert series.get((0, 1), 0) == 0

    def test_parts_of_a_given_expansion(self):
        series = shifted_taylor()
        parts = shifted_quadratic_parts(series)
        assert parts == shifted_quadratic_parts()
        assert delta_u_roots(parts) == delta_u_roots()


class TestDirectionCubic:
    def test_roots(self):
        assert delta_u_roots() == (Fraction(-2), Fraction(-1, 2), Fraction(1))

    def test_factored_form_at_sample_points(self):
        parts = shifted_quadratic_parts()
        u1, u2, u3 = delta_u_roots()
        for u in (Fraction(0), Fraction(2), Fraction(-1), Fraction(1, 3), Fraction(-3)):
            delta = parts.q2_at(1, u) - u * parts.p2_at(1, u)
            assert delta == -(u - u1) * (u - u2) * (u - u3)

    def test_p2_along_direction(self):
        parts = shifted_quadratic_parts()
        # P2(1, u) = u^2 + u - 1/2
        assert parts.p2_at(1, Fraction(1)) == Fraction(3, 2)
        assert parts.p2_at(1, Fraction(0)) == Fraction(-1, 2)


class TestBlowupLinearizations:
    def test_betas_and_eigenvalues(self):
        report = blowup_linearizations()
        betas = [pt.beta for pt in report.points]
        assert betas == [Fraction(3, 2), Fraction(-3, 4), Fraction(3, 2)]
        for pt in report.points:
            assert pt.eigenvalues == (pt.beta, -3 * pt.beta)
            # opposite signs: every blow-up point is hyperbolic of saddle type
            assert pt.eigenvalues[0] * pt.eigenvalues[1] < 0
            assert pt.verdict == "saddle"

    def test_off_diagonal_closed_form(self):
        report = blowup_linearizations()
        for pt in report.points:
            u = pt.u
            assert pt.off_diagonal == (u - 1) * (u + 1) * (2 * u * u - u + 2) / 2

    def test_overall_verdict(self):
        report = blowup_linearizations()
        assert report.verdict == "saddle with six hyperbolic sectors"

    def test_json_round_trip(self):
        payload = blowup_linearizations().to_json()
        assert payload["roots"] == ["-2/1", "-1/2", "1/1"]
        assert len(payload["points"]) == 3
        assert all(pt["verdict"] == "saddle" for pt in payload["points"])
