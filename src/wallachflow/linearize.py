"""Linearization invariants at equilibria and singular-point classification.

The trace and determinant of the planar Jacobian at an equilibrium are
rational functions of the point and the parameters: ``rho = 2*F1/(A*x1*x2*x3)``
and ``delta = F2/(A^2*x1^2*x2^2*x3^2)`` for two fixed homogeneous polynomial
forms F1 (degree 2) and F2 (degree 4).  The discriminant is
``sigma = rho^2 - 4*delta = 4*G/(x1*x2*x3)^2``, where G is the quadratic form
of ``g_matrix`` in the squared coordinates, and ``F2 = F1^2 - A^2 G``.  This
avoids differentiating the composed planar field and keeps rational inputs
exact.  Both rho and delta scale simply under rescaling of the
representative (rho ~ 1/lam, delta ~ 1/lam^2), so signs and the resulting
classification do not depend on the chosen representative.

``linearize_at`` has one path: the forms from a ``_poly.Layout`` of their
monomials in ``(a, x)``, built once, on first use, with the coefficient of
every x-monomial in integers at the exact parameters (float ones count as
their dyadic values).  The layout also holds the two equilibrium
``equations``, which give the residual that checks the point.  An exact ray
gives the same ``Fraction``s as the forms and equations; at a float ray each
coefficient is rounded once and each form is the ``math.fsum`` of its
terms.  Sigma comes from G, which does not cancel as ``rho^2 - 4*delta``
does near a node/focus boundary.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from types import SimpleNamespace

from ._poly import Layout, Poly, cleared
from .core import Parameters, Scalar, is_exact, sqrt_scalar
from .equilibria import equations, scale_to_log_volume
from .flow import MetricPoint

__all__ = [
    "Linearization",
    "Classification",
    "PointKind",
    "f1",
    "f2",
    "linearize_at",
    "classify",
    "sigma_expression",
    "g_matrix",
    "sigma_minimizing_point",
    "sigma_zero_family",
    "sigma_zero_points",
    "SIGMA_ZERO_S_LOW",
    "SIGMA_ZERO_S_HIGH",
]

# Open interval of the family parameter for the two-equal sigma=0 family.
SIGMA_ZERO_S_LOW = math.sqrt(2.0 * math.sqrt(2.0) - 2.0) / 2.0
SIGMA_ZERO_S_HIGH = math.sqrt(2.0) / 2.0

# Dimensionless degeneracy threshold; below it a float classification is
# flagged near-degenerate instead of being trusted as an exact sign.
_NEAR_DEGENERATE_TOL = 1e-9
# Residual over ``((1 + max |x_i|) (1 + max |a_i|))^2`` up to which a point is
# an equilibrium: the equations are of degree 2 in the coordinates and in the
# parameters.
_EQUILIBRIUM_RESIDUAL_TOL = 1e-8


class PointKind(enum.Enum):
    STABLE_NODE = "stable node"
    UNSTABLE_NODE = "unstable node"
    SADDLE = "saddle"
    STRONG_FOCUS = "strong focus"
    WEAK_FOCUS_OR_CENTER = "weak focus or center"
    DEGENERATE = "degenerate"


@dataclass(frozen=True)
class Linearization:
    """Trace, determinant and discriminant of the planar Jacobian."""

    rho: Scalar
    delta: Scalar
    sigma: Scalar
    lambda1: complex
    lambda2: complex
    degeneracy_measure: float | None = None


@dataclass(frozen=True)
class Classification:
    kind: PointKind
    near_degenerate: bool


def f1(p: Parameters, x: MetricPoint) -> Scalar:
    """Degree-2 homogeneous form whose value gives the Jacobian trace."""
    a1, a2, a3 = p.a
    x1, x2, x3 = x.x
    A = p.A
    return (
        a1 * a2 * x1 * x2
        + a1 * a3 * x1 * x3
        + a2 * a3 * x2 * x3
        - (A + a2 * a3) * a1 * x1 * x1
        - (A + a1 * a3) * a2 * x2 * x2
        - (A + a1 * a2) * a3 * x3 * x3
    )


def f2(p: Parameters, x: MetricPoint) -> Scalar:
    """Degree-4 homogeneous form whose value gives the Jacobian determinant,
    ``F1^2 - A^2 G``: the identity holds at ``A = a1*a2 + a1*a3 + a2*a3``.
    In floats it cancels where ``|F2| << F1^2``; ``linearize_at`` takes it
    from the layout, expanded exactly, instead."""
    return f1(p, x) ** 2 - p.A**2 * _g_form(p, x)


def g_matrix(p: Parameters) -> list[list[Scalar]]:
    """Symmetric matrix of the quadratic form behind the sigma expression."""
    a1, a2, a3 = p.a
    A = p.A
    return [
        [A + a1 * a1, -a3 * (a1 + a2), -a2 * (a1 + a3)],
        [-a3 * (a1 + a2), A + a2 * a2, -a1 * (a2 + a3)],
        [-a2 * (a1 + a3), -a1 * (a2 + a3), A + a3 * a3],
    ]


def _g_form(p: Parameters, x: MetricPoint) -> Scalar:
    """The quadratic form of ``g_matrix`` at the squared coordinates."""
    m = g_matrix(p)
    sq = [xi * xi for xi in x.x]
    # left to right from 0: ``sum`` of floats is compensated from Python 3.12
    total = 0
    for i in range(3):
        for j in range(3):
            total = total + m[i][j] * sq[i] * sq[j]
    return total


def sigma_expression(p: Parameters, x: MetricPoint) -> Scalar:
    """``sigma = rho^2 - 4*delta`` as ``4 G / (x1 x2 x3)^2``, with G the
    quadratic form of ``g_matrix`` in the squared coordinates; valid at every
    positive point, equilibrium or not."""
    x1, x2, x3 = x.x
    return 4 * _g_form(p, x) / ((x1 * x1) * (x2 * x2) * (x3 * x3))


def _build_layout() -> Layout:
    """F1, F2, G and ``equations`` over ``Poly`` in ``(a1, a2, a3, A, x1, x2,
    x3)``, laid out with ``A`` a parameter of weight 2, as the forms are
    written; F2's row is the determinant form only at ``A = s2``."""
    a1, a2, a3, A, x1, x2, x3 = (Poly.var(k, 7) for k in range(7))
    p = SimpleNamespace(a=(a1, a2, a3), A=A)
    x = SimpleNamespace(x=(x1, x2, x3), x1=x1, x2=x2, x3=x3)
    return Layout((f1(p, x), f2(p, x), _g_form(p, x), *equations(a1, a2, a3, x1, x2, x3)), (1, 1, 1, 2))


# Built on first use: expanding F2 takes milliseconds, which a command that
# never linearizes should not pay at import.
_LAYOUT: Layout | None = None


def _laid_out_forms(p: Parameters, x: MetricPoint) -> tuple[Fraction, list[Scalar]]:
    """``A`` and ``[F1, F2, G, e1, e2]`` at ``x`` from the layout, where
    ``(e1, e2)`` are the equilibrium ``equations``, at the exact (for floats,
    dyadic) ``p``.

    Each x-monomial's coefficient is an ``int`` over ``scale * D**weight``.
    An exact ``x`` is cleared to integers over the lcm ``M`` of its
    denominators, and each form is one ``Fraction``.  A float ``x`` gets
    each coefficient rounded once, and each form is the ``math.fsum`` of its
    float terms, which rounds alike on every Python version (``sum`` of
    floats changed in 3.12).  It lies within ``gamma_11 * sum(|terms|)`` of
    the exact form at ``x`` (Higham, *Accuracy and Stability of Numerical
    Algorithms*, ch. 3).
    """
    global _LAYOUT
    if _LAYOUT is None:
        _LAYOUT = _build_layout()
    (n1, n2, n3), d = cleared(p.a)
    a_num = n1 * n2 + n1 * n3 + n2 * n3
    coeffs = _LAYOUT.at((n1, n2, n3, a_num), d)
    d_pow = d**_LAYOUT.weight
    degrees = [sum(monos[0]) for monos in _LAYOUT.monos]
    exact = x.exact
    if exact:
        xs, m = cleared(x.x)
    else:
        xs = [float(v) for v in x.x]
    t1, t2, t3 = ([v**e for e in range(max(degrees) + 1)] for v in xs)
    out: list[Scalar] = []
    for cs, monos, scale, degree in zip(coeffs, _LAYOUT.monos, _LAYOUT.scales, degrees):
        den = scale * d_pow
        if exact:
            num = sum(c * t1[i] * t2[j] * t3[l] for c, (i, j, l) in zip(cs, monos))
            out.append(Fraction(num, den * m**degree))
            continue
        out.append(math.fsum(c / den * t1[i] * t2[j] * t3[l] for c, (i, j, l) in zip(cs, monos)))
    return Fraction(a_num, d * d), out


def sigma_minimizing_point(p: Parameters) -> MetricPoint:
    """The positive ray on which the sigma form attains its zero minimum."""
    a1, a2, a3 = p.a
    coords = []
    for pair_sum in (a2 + a3, a1 + a3, a1 + a2):
        if pair_sum <= 0:
            raise ValueError("pairwise parameter sums must be positive")
        coords.append(sqrt_scalar(pair_sum))
    return MetricPoint(*coords)


def _sigma_rounding_allowance(rho: Scalar, delta: Scalar) -> float:
    """Size below which a negative float sigma is indistinguishable from
    rounding, on the scale of ``rho^2`` and ``4*delta``."""
    return 1e-12 * max(1.0, float(rho) ** 2, 4.0 * abs(float(delta)))


def _eigenvalues(rho: Scalar, sigma: Scalar, delta: Scalar):
    if not is_exact(sigma) and -_sigma_rounding_allowance(rho, delta) <= sigma < 0:
        sigma = 0.0
    if sigma >= 0:
        root = sqrt_scalar(sigma)
        lam_a = (rho - root) / 2
        lam_b = (rho + root) / 2
    else:
        im = math.sqrt(-float(sigma)) / 2.0
        lam_a = complex(float(rho) / 2.0, -im)
        lam_b = complex(float(rho) / 2.0, im)
    return sorted((lam_a, lam_b), key=lambda z: abs(complex(z)))


def _quotient(num: Scalar, den: Scalar) -> Scalar:
    """``num / den``; a float ``den`` that is zero, subnormal or not finite
    lost its relative precision and raises ``OverflowError``."""
    if isinstance(den, float) and not sys.float_info.min <= abs(den) < math.inf:
        raise OverflowError(f"denominator {den!r} outside the normal float range")
    return num / den


def linearize_at(p: Parameters, x: MetricPoint) -> Linearization:
    """Linearization invariants at an equilibrium point ``x``, such as a
    ray's ``rep``.

    The values refer to the point as given; rescaling it rescales rho and
    delta but never their signs.  Float parameters give bit for bit the
    values of their dyadic ``Fraction``s.
    """
    A, (form1, form2, g, r1, r2) = _laid_out_forms(p, x)
    scale = ((1 + max(abs(float(v)) for v in x.x)) * (1 + max(abs(float(ai)) for ai in p.a))) ** 2
    if max(abs(float(r1)), abs(float(r2))) > _EQUILIBRIUM_RESIDUAL_TOL * scale:
        raise ValueError(
            f"point {tuple(float(v) for v in x.x)} is not an equilibrium "
            f"(residual {float(r1):.3e}, {float(r2):.3e})"
        )
    prod = x.x1 * x.x2 * x.x3
    rho = _quotient(2 * form1, A * prod)
    delta = _quotient(form2, A * A * prod * prod)
    sigma = _quotient(4 * g, prod * prod)
    lam1, lam2 = _eigenvalues(rho, sigma, delta)
    measure = abs(float(delta)) * float(prod) ** 2 / float(A) ** 2
    return Linearization(
        rho=rho,
        delta=delta,
        sigma=sigma,
        lambda1=lam1,
        lambda2=lam2,
        degeneracy_measure=measure,
    )


def classify(lin: Linearization) -> Classification:
    """Map (rho, delta, sigma) to the singular-point type.

    ``delta < 0``: saddle.  ``delta > 0``: node when ``sigma >= 0`` (stable
    iff ``rho < 0``), focus variants when ``sigma < 0`` (impossible for
    positive-sum parameters but reachable for general real ones).
    ``delta = 0`` (or NaN): degenerate, decided exactly only for exact
    inputs.
    """
    exact = is_exact(lin.delta)
    near = False
    if not exact and lin.degeneracy_measure is not None:
        near = lin.degeneracy_measure <= _NEAR_DEGENERATE_TOL

    if lin.delta < 0:
        return Classification(PointKind.SADDLE, near)
    if not lin.delta > 0:  # zero of either sign, or NaN
        return Classification(PointKind.DEGENERATE, near_degenerate=True)
    sigma_floor = 0 if exact else -_sigma_rounding_allowance(lin.rho, lin.delta)
    if lin.sigma >= sigma_floor:
        kind = PointKind.STABLE_NODE if lin.rho < 0 else PointKind.UNSTABLE_NODE
        return Classification(kind, near)
    if lin.rho == 0:
        return Classification(PointKind.WEAK_FOCUS_OR_CENTER, near)
    return Classification(PointKind.STRONG_FOCUS, near)


def sigma_zero_family(which: str, s: Scalar, k: int = 3) -> Parameters:
    """Parameter triples whose planar system has an equilibrium with sigma = 0.

    ``which = "equal"``: the diagonal ``(s, s, s)`` for ``s`` in (0, 1/2].
    ``which = "two_equal"``: two parameters equal to ``(2s^2-1)^2/(8s^2)`` and
    the one at index ``k`` equal to ``(4s^4+4s^2-1)/(8s^2)``, for ``s`` in the
    open interval (SIGMA_ZERO_S_LOW, SIGMA_ZERO_S_HIGH).
    """
    if which == "equal":
        if not 0 < s <= Fraction(1, 2):
            raise ValueError("equal family requires s in (0, 1/2]")
        return Parameters(s, s, s)
    if which != "two_equal":
        raise ValueError("family must be 'equal' or 'two_equal'")
    if not SIGMA_ZERO_S_LOW < float(s) < SIGMA_ZERO_S_HIGH:
        raise ValueError(
            f"two_equal family requires s in ({SIGMA_ZERO_S_LOW!r}, {SIGMA_ZERO_S_HIGH!r})"
        )
    if k not in (1, 2, 3):
        raise ValueError("k must be 1, 2 or 3")
    s2 = s * s
    equal = (2 * s2 - 1) ** 2 / (8 * s2)
    distinguished = (4 * s2 * s2 + 4 * s2 - 1) / (8 * s2)
    a = [equal, equal, equal]
    a[k - 1] = distinguished
    return Parameters(*a)


def sigma_zero_points(p: Parameters) -> list[MetricPoint]:
    """The sigma = 0 equilibria of the planar system for a family triple.

    For the diagonal family this is the exact point (1, 1, 1).  For the
    two-equal family it is the sigma-minimizing ray at unit volume:
    ``scale_to_log_volume(p, sigma_minimizing_point(p))``.  At parameter
    ``s`` that ray is proportional to ``2*s^2`` at the two equal-parameter
    slots and ``1 - 2*s^2`` at the distinguished one.  A triple with three
    distinct parameters, or a two-equal one where that ray fails
    ``linearize_at``'s equilibrium test (off the family), raises
    ``ValueError``.
    """
    a1, a2, a3 = p.a
    if a1 == a2 == a3:
        return [MetricPoint(1, 1, 1)]
    if len({a1, a2, a3}) == 3:
        raise ValueError("parameters do not belong to either sigma=0 family")
    point = scale_to_log_volume(p, sigma_minimizing_point(p))
    try:
        linearize_at(p, point)
    except ValueError as exc:
        raise ValueError(f"parameters do not belong to either sigma=0 family: {exc}") from None
    return [point]
