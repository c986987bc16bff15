"""Parameter-space surfaces: the degeneracy surface Q = 0 (where some
equilibrium has zero Jacobian determinant), the trace surface Q1 = 0 (where
some equilibrium has zero Jacobian trace), the singular edge curves of the
degeneracy surface, and the census-based classification of the three
components the surface cuts out of the open parameter cube.
"""

from __future__ import annotations

import enum
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

from ._poly import p_add, p_const, p_diff, p_eval, p_mul, p_pow, p_scale, p_var
from .core import Parameters, Scalar
from .linearize import PointKind, classify, linearize_at

__all__ = [
    "Region",
    "SurfaceSample",
    "EdgeCurvePoint",
    "q_eval",
    "grad_q",
    "q1_eval",
    "grad_q1",
    "edge_curve",
    "omega_slice_a1_half",
    "classify_region",
    "component_classify",
    "census_kinds",
    "cube_grid",
    "scan",
]


class Region(enum.Enum):
    O1 = "O1"
    O2 = "O2"
    O3 = "O3"
    ON_OMEGA = "OnOmega"
    OUTSIDE = "Outside"


@dataclass(frozen=True)
class SurfaceSample:
    params: Parameters
    Q: Scalar
    Q1: Scalar
    gradQ: tuple[Scalar, Scalar, Scalar]
    region: Region


@dataclass(frozen=True)
class EdgeCurvePoint:
    """A point of one of the three singular curves of the degeneracy surface."""

    t: Scalar
    params: Parameters


def _build_q_polynomial():
    """The degree-12 degeneracy polynomial, expanded once into monomials in
    the elementary symmetric functions (s1, s2, s3)."""
    s1, s2, s3 = (p_var(i, 3) for i in range(3))
    one = p_const(1, 3)

    def lin(*pairs, const=0):
        terms = [p_scale(v, c) for c, v in pairs]
        if const:
            terms.append(p_scale(one, const))
        return p_add(*terms)

    f_a = lin((2, s1), (4, s3), const=-1)
    f_b = p_add(
        p_scale(p_pow(s1, 5), 64),
        p_scale(p_pow(s1, 4), -64),
        p_scale(p_pow(s1, 3), 8),
        p_scale(p_pow(s1, 2), 12),
        p_scale(s1, -6),
        one,
        p_scale(p_mul(s3, p_pow(s1, 2)), 240),
        p_scale(p_mul(s3, s1), -240),
        p_scale(p_mul(p_pow(s3, 2), s1), -1536),
        p_scale(p_pow(s3, 3), -4096),
        p_scale(s3, 60),
        p_scale(p_pow(s3, 2), 768),
    )
    term1 = p_mul(f_a, f_b)

    term2 = p_scale(
        p_mul(
            p_mul(s1, f_a),
            p_mul(
                p_mul(lin((2, s1), (-32, s3), const=-1), lin((10, s1), (32, s3), const=-5)),
                s2,
            ),
        ),
        -8,
    )

    bracket3 = p_add(
        p_scale(one, 13),
        p_scale(s1, -52),
        p_scale(p_mul(s3, s1), 640),
        p_scale(p_pow(s3, 2), 1024),
        p_scale(s3, -320),
        p_scale(p_pow(s1, 2), 52),
    )
    term3 = p_scale(p_mul(p_mul(p_pow(s1, 2), bracket3), p_pow(s2, 2)), -16)

    term4 = p_scale(
        p_mul(p_mul(lin((2, s1), const=-1), lin((2, s1), (-32, s3), const=-1)), p_pow(s2, 3)),
        64,
    )
    term5 = p_scale(p_mul(p_mul(s1, lin((2, s1), const=-1)), p_pow(s2, 4)), 2048)

    return p_add(term1, term2, term3, term4, term5)


_Q_POLY = _build_q_polynomial()
_Q_GRAD = tuple(p_diff(_Q_POLY, i) for i in range(3))


def q_eval(p: Parameters) -> Scalar:
    """The degeneracy polynomial, evaluated through (s1, s2, s3)."""
    return p_eval(_Q_POLY, (p.s1, p.s2, p.s3))


def grad_q(p: Parameters) -> tuple[Scalar, Scalar, Scalar]:
    """Exact gradient of the degeneracy polynomial in the parameters, via the
    chain rule through the symmetric functions."""
    a1, a2, a3 = p.a
    s = (p.s1, p.s2, p.s3)
    ds1, ds2, ds3 = (p_eval(g, s) for g in _Q_GRAD)
    return (
        ds1 + ds2 * (a2 + a3) + ds3 * (a2 * a3),
        ds1 + ds2 * (a1 + a3) + ds3 * (a1 * a3),
        ds1 + ds2 * (a1 + a2) + ds3 * (a1 * a2),
    )


def q1_eval(p: Parameters) -> Scalar:
    """The trace-surface polynomial: zero iff some equilibrium has zero trace."""
    a1, a2, a3 = p.a
    return 4 * (a1 + a2) * (a1 + a3) * (a2 + a3) - 2 * a1 - 2 * a2 - 2 * a3 + 1


def grad_q1(p: Parameters) -> tuple[Scalar, Scalar, Scalar]:
    a1, a2, a3 = p.a
    return (
        4 * (a1 + a3) * (a2 + a3) + 4 * (a1 + a2) * (a2 + a3) - 2,
        4 * (a1 + a3) * (a2 + a3) + 4 * (a1 + a2) * (a1 + a3) - 2,
        4 * (a1 + a2) * (a2 + a3) + 4 * (a1 + a2) * (a1 + a3) - 2,
    )


def edge_curve(t: Scalar, i: int = 1) -> EdgeCurvePoint:
    """Point of the i-th singular curve of the degeneracy surface.

    The distinguished coordinate is ``-(16t^3 - 4t + 1) / (2(8t^2 - 1))``,
    the other two equal ``t``; the three curves are related by cycling the
    coordinates and meet at (1/4, 1/4, 1/4).
    """
    if i not in (1, 2, 3):
        raise ValueError("curve index must be 1, 2 or 3")
    den = 8 * t * t - 1
    if den == 0:
        raise ZeroDivisionError("edge curve has a pole at 8*t^2 = 1")
    val = -Fraction(1, 2) * (16 * t**3 - 4 * t + 1) / den
    a = [t, t, t]
    a[i - 1] = val
    return EdgeCurvePoint(t=t, params=Parameters(*a))


def omega_slice_a1_half(a2: Scalar, a3: Scalar) -> Scalar:
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


def _on_omega(p: Parameters, q: Scalar, tol: float | None) -> bool:
    """Whether ``q = q_eval(p)`` puts ``p`` on the degeneracy surface: exactly
    zero for exact input, within ``tol`` (default scaled to ``p``) for floats."""
    if p.exact:
        return q == 0
    if tol is None:
        scale = (1.0 + max(abs(float(v)) for v in p.a)) ** 12
        tol = 1e-10 * scale
    return abs(float(q)) <= tol


def _kinds_key(kinds) -> tuple[PointKind, ...]:
    return tuple(sorted(kinds, key=lambda k: k.value))


def census_kinds(p: Parameters, rays=None) -> list[PointKind]:
    """Sorted classification kinds of all equilibria of ``p``."""
    from .equilibria import solve_all

    if rays is None:
        rays = solve_all(p)
    kinds = []
    for ray in rays:
        lin = linearize_at(p, ray.as_x3one())
        kinds.append(classify(lin).kind)
    return list(_kinds_key(kinds))


# One unstable node plus three saddles marks the component of (1/6, 1/6, 1/6);
# a stable node plus three saddles the component of (7/15, 7/15, 7/15); two
# saddles the component of (1/6, 1/4, 1/3).
_REGION_BY_KINDS = {
    _kinds_key([PointKind.UNSTABLE_NODE] + [PointKind.SADDLE] * 3): Region.O1,
    _kinds_key([PointKind.STABLE_NODE] + [PointKind.SADDLE] * 3): Region.O2,
    _kinds_key([PointKind.SADDLE] * 2): Region.O3,
}


def classify_region(
    p: Parameters,
    q: Scalar,
    kinds: Callable[[], list[PointKind]],
    on_omega_tol: float | None = None,
) -> Region:
    """The region of ``p``, given ``q = q_eval(p)``: ``ON_OMEGA`` on the
    degeneracy surface, else the component that the equilibrium kinds mark,
    or ``OUTSIDE``. ``kinds()`` returns those kinds, in any order; it is
    called only off the surface, so a caller pays for no census there."""
    if _on_omega(p, q, on_omega_tol):
        return Region.ON_OMEGA
    return _REGION_BY_KINDS.get(_kinds_key(kinds()), Region.OUTSIDE)


def component_classify(p: Parameters, rays=None, on_omega_tol: float | None = None) -> Region:
    """Label a parameter triple by its equilibrium census (``classify_region``)."""
    return classify_region(p, q_eval(p), lambda: census_kinds(p, rays), on_omega_tol)


def cube_grid(n: int) -> list[tuple[float, float, float]]:
    """The n-per-axis midpoint grid ``(k + 1/2) / (2n)`` over the open cube
    (0, 1/2)^3, in lexicographic order."""
    axis = [(k + 0.5) / (2 * n) for k in range(n)]
    return [(x, y, z) for x in axis for y in axis for z in axis]


def scan(points, on_omega_tol: float | None = None) -> list[SurfaceSample]:
    """Surface values and the component label of each parameter triple; a
    triple where the flow is undefined raises ``ValueError``.

    ``Q``, ``Q1``, ``gradQ`` and the test for the degeneracy surface are
    computed per point. A permutation of a triple only relabels the modules,
    so the label off the surface is computed once per permutation orbit:
    from the census of the sorted triple, whatever the order of ``points``.
    """
    orbit_kinds: dict[tuple, list[PointKind]] = {}

    def kinds(key):
        if key not in orbit_kinds:
            orbit_kinds[key] = census_kinds(Parameters(*key))
        return orbit_kinds[key]

    samples = []
    for a in points:
        p = Parameters(*a)
        q = q_eval(p)
        samples.append(SurfaceSample(
            params=p,
            Q=q,
            Q1=q1_eval(p),
            gradQ=grad_q(p),
            region=classify_region(p, q, partial(kinds, tuple(sorted(p.a))), on_omega_tol),
        ))
    return samples
