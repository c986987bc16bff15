"""Resolution of the fully degenerate equilibrium at parameters (1/4, 1/4, 1/4).

At that parameter triple the planar system's unique equilibrium (1, 1) has a
vanishing linear part.  Shifting it to the origin and expanding, only the
quadratic jets drive the analysis: the directional substitution
``y = u*x`` with rescaled time turns the origin into three singular points
``(0, u_i)`` at the roots of a cubic, each hyperbolic.  All three are
saddles, which resolves the original point as a saddle with six hyperbolic
sectors.

The Taylor coefficients are computed exactly: on this parameter triple the
volume constraint gives ``x3 = 1/(x1*x2)``, so the composed planar field is
a rational function.  It is expanded once, as ``Poly`` series truncated at
total degree 3, and the quadratic and cubic jets are read from that one
expansion.
"""

from __future__ import annotations

from fractions import Fraction

from ._poly import Poly, real_roots
from .core import Parameters, Record
from .flow import field_components

__all__ = [
    "QuadraticPart",
    "BlowupPoint",
    "BlowupReport",
    "DEGENERATE_PARAMETERS",
    "shifted_quadratic_parts",
    "delta_u_roots",
    "blowup_linearizations",
]

DEGENERATE_PARAMETERS = Parameters(Fraction(1, 4), Fraction(1, 4), Fraction(1, 4))

_EXPECTED_P2 = {"xx": Fraction(-1, 2), "xy": Fraction(1), "yy": Fraction(1)}
_EXPECTED_Q2 = {"xx": Fraction(1), "xy": Fraction(1), "yy": Fraction(-1, 2)}

VERDICT = "saddle with six hyperbolic sectors"


class QuadraticPart(Record):
    """Degree-2 jets of the shifted planar field in x = x1-1, y = x2-1."""

    _fields = ("p_xx", "p_xy", "p_yy", "q_xx", "q_xy", "q_yy")

    def __init__(self, p_xx: Fraction, p_xy: Fraction, p_yy: Fraction,
                 q_xx: Fraction, q_xy: Fraction, q_yy: Fraction):
        self.__dict__.update(p_xx=p_xx, p_xy=p_xy, p_yy=p_yy, q_xx=q_xx, q_xy=q_xy, q_yy=q_yy)

    def p2_at(self, x, y):
        return self.p_xx * x * x + self.p_xy * x * y + self.p_yy * y * y

    def q2_at(self, x, y):
        return self.q_xx * x * x + self.q_xy * x * y + self.q_yy * y * y


class BlowupPoint(Record):
    """One singular point (0, u) of the directional blow-up system."""

    _fields = ("u", "beta", "off_diagonal", "eigenvalues", "verdict")

    def __init__(self, u: Fraction, beta: Fraction, off_diagonal: Fraction,
                 eigenvalues: tuple[Fraction, Fraction], verdict: str):
        self.__dict__.update(u=u, beta=beta, off_diagonal=off_diagonal, eigenvalues=eigenvalues, verdict=verdict)


class BlowupReport(Record):
    _fields = ("roots", "points", "verdict")

    def __init__(self, roots: tuple[Fraction, Fraction, Fraction],
                 points: tuple[BlowupPoint, BlowupPoint, BlowupPoint], verdict: str):
        self.__dict__.update(roots=roots, points=points, verdict=verdict)

    def to_json(self) -> dict:
        from .core import scalar_to_json

        return {
            "roots": [scalar_to_json(u) for u in self.roots],
            "points": [
                {
                    "u": scalar_to_json(pt.u),
                    "beta": scalar_to_json(pt.beta),
                    "off_diagonal": scalar_to_json(pt.off_diagonal),
                    "eigenvalues": [scalar_to_json(v) for v in pt.eigenvalues],
                    "verdict": pt.verdict,
                }
                for pt in self.points
            ],
            "verdict": self.verdict,
        }


def shifted_taylor() -> tuple[Poly, Poly]:
    """Exact Taylor series to total degree 3 of the shifted planar field
    components at (1, 1), in ``x = x1 - 1`` and ``y = x2 - 1``."""
    x, y = Poly.var(0, 2, 3), Poly.var(1, 2, 3)
    x1, x2 = 1 + x, 1 + y
    x3 = (x1 * x2).inverse()  # unit volume: the exponents are all -1 here
    f, g, _h = field_components(*DEGENERATE_PARAMETERS.a, x1, x2, x3)
    return f, g


def shifted_quadratic_parts(series: tuple[Poly, Poly] | None = None) -> QuadraticPart:
    """Degree-2 jets of the shifted field (of ``series``, the pair that
    ``shifted_taylor`` returns, expanded here when not given), checked
    against their known closed forms.  A mismatch means the field formulas
    and the jet expansion have diverged, so it raises rather than returns."""
    f, g = series if series is not None else shifted_taylor()
    jets = []
    for s, expected, name in ((f, _EXPECTED_P2, "P2"), (g, _EXPECTED_Q2, "Q2")):
        low = {k: v for k, v in s.items() if sum(k) <= 1}
        if low:
            raise RuntimeError(f"{name}: shifted field has nonzero linear jet {low}")
        got = {"xx": s.get((2, 0), 0), "xy": s.get((1, 1), 0), "yy": s.get((0, 2), 0)}
        if got != expected:
            raise RuntimeError(f"{name}: quadratic jet {got} != expected {expected}")
        jets += got.values()
    return QuadraticPart(*jets)


def _delta_cubic(parts: QuadraticPart) -> list[Fraction]:
    """Coefficients (cubic first) of Delta(u) = Q2(1,u) - u*P2(1,u)."""
    return [
        -parts.p_yy,
        parts.q_yy - parts.p_xy,
        parts.q_xy - parts.p_xx,
        parts.q_xx,
    ]


def delta_u_roots(parts: QuadraticPart | None = None) -> tuple[Fraction, Fraction, Fraction]:
    """The three real roots of the blow-up direction cubic of ``parts``
    (``shifted_quadratic_parts()`` when not given), sorted."""
    roots = real_roots(_delta_cubic(parts if parts is not None else shifted_quadratic_parts()))
    flat = []
    for r, m in roots:
        flat.extend([r] * m)
    if len(flat) != 3:
        raise RuntimeError(f"direction cubic does not have three real roots: {roots}")
    return tuple(sorted(flat))  # type: ignore[return-value]


def blowup_linearizations() -> BlowupReport:
    """Linearize the blow-up system at its three singular points.

    At ``(0, u_i)`` the Jacobian is triangular with diagonal
    ``(beta_i, -3*beta_i)`` where ``beta_i = P2(1, u_i)``; the lower-left
    entry is the cubic-jet combination ``Q3(1,u) - u*P3(1,u)``.  Every
    ``beta_i`` must be nonzero, making each point a saddle.
    """
    f, g = series = shifted_taylor()
    parts = shifted_quadratic_parts(series)
    roots = delta_u_roots(parts)

    def cubic_dir(s: Poly, u: Fraction) -> Fraction:
        return sum(s.get((3 - k, k), 0) * u**k for k in range(4))

    # derivative of Delta(u), for the exact triangular-diagonal consistency check
    c3, c2, c1, _c0 = _delta_cubic(parts)

    points = []
    for u in roots:
        beta = parts.p2_at(Fraction(1), u)
        if beta == 0:
            raise RuntimeError(f"zero linearization at blow-up root u={u}")
        dprime = 3 * c3 * u * u + 2 * c2 * u + c1
        if dprime != -3 * beta:
            raise RuntimeError(
                f"direction-cubic derivative {dprime} != -3*beta at u={u}"
            )
        off = cubic_dir(g, u) - u * cubic_dir(f, u)
        points.append(
            BlowupPoint(
                u=u,
                beta=beta,
                off_diagonal=off,
                eigenvalues=(beta, -3 * beta),
                verdict="saddle",
            )
        )
    return BlowupReport(roots=roots, points=tuple(points), verdict=VERDICT)
