"""Parameter-space surfaces: the degeneracy surface Q = 0 (where some
equilibrium has zero Jacobian determinant), the trace surface Q1 = 0 (where
some equilibrium has zero Jacobian trace), the singular edge curves of the
degeneracy surface, and the three components the surface cuts out of the
open parameter cube: ``classify_region`` tells them apart by the signs of Q
and ``s1 - 3/4``, and ``component_classify``, the independent cross-check,
by the equilibrium census. Both put a point on the surface exactly where
Q = 0 at its exact (for floats, dyadic) parameters.

Q and its partials in ``(s1, s2, s3)`` have one evaluation per number type.
At exact parameters they are integer sums from a ``_poly.Layout``, of Q
alone or of Q with its partials.  At float parameters ``_float_sums`` sums
their terms left to right from one set of power tables; ``q_eval``,
``q_and_grad`` and ``scan`` all take Q's float value from it.
"""

from __future__ import annotations

import enum
from fractions import Fraction

from ._poly import Layout, Poly, cleared
from .core import Parameters, Record, Scalar
from .equilibria import solve_all
from .linearize import PointKind, classify, linearize_at

__all__ = [
    "Region",
    "SurfaceSample",
    "EdgeCurvePoint",
    "q_eval",
    "q_and_grad",
    "q1_eval",
    "grad_q1",
    "edge_curve",
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


class SurfaceSample(Record):
    _fields = ("params", "Q", "Q1", "gradQ", "region")

    def __init__(self, params: Parameters, Q: Scalar, Q1: Scalar, gradQ: tuple[Scalar, Scalar, Scalar],
                 region: Region):
        self.__dict__.update(params=params, Q=Q, Q1=Q1, gradQ=gradQ, region=region)


class EdgeCurvePoint(Record):
    """A point of one of the three singular curves of the degeneracy surface."""

    _fields = ("t", "params")

    def __init__(self, t: Scalar, params: Parameters):
        self.__dict__.update(t=t, params=params)


def _build_q_polynomial() -> Poly:
    """The degree-12 degeneracy polynomial, expanded once into monomials in
    the elementary symmetric functions (s1, s2, s3)."""
    s1, s2, s3 = (Poly.var(i, 3) for i in range(3))
    f_a = 2 * s1 + 4 * s3 - 1
    f_b = (
        64 * s1**5 - 64 * s1**4 + 8 * s1**3 + 12 * s1**2 - 6 * s1 + 1
        + 240 * s3 * s1**2 - 240 * s3 * s1 - 1536 * s3**2 * s1
        - 4096 * s3**3 + 60 * s3 + 768 * s3**2
    )
    term1 = f_a * f_b
    term2 = -8 * ((s1 * f_a) * ((2 * s1 - 32 * s3 - 1) * (10 * s1 + 32 * s3 - 5) * s2))
    bracket3 = 13 - 52 * s1 + 640 * s3 * s1 + 1024 * s3**2 - 320 * s3 + 52 * s1**2
    term3 = -16 * (s1**2 * bracket3 * s2**2)
    term4 = 64 * ((2 * s1 - 1) * (2 * s1 - 32 * s3 - 1) * s2**3)
    term5 = 2048 * (s1 * (2 * s1 - 1) * s2**4)
    return term1 + term2 + term3 + term4 + term5


_Q_POLY = _build_q_polynomial()
_Q_GRAD = tuple(_Q_POLY.diff(i) for i in range(3))
# Exact input: Q alone for ``q_eval``, and Q with its partials for
# ``q_and_grad``; s_j has weight j.  Their coefficients are integers, so
# every scale is 1.
_Q_ALONE = Layout((_Q_POLY,), (1, 2, 3))
_Q_AND_GRAD = Layout((_Q_POLY, *_Q_GRAD), (1, 2, 3))
# Float input: the terms ``(float(c), e1, e2, e3)`` of Q, then of each
# partial, in the monomial order of its dict; Q's exponents bound theirs.
_FLOAT_TERMS = tuple(tuple((float(c), *mono) for mono, c in poly.items()) for poly in (_Q_POLY, *_Q_GRAD))
_TOP = tuple(max(mono[j] for mono in _Q_POLY) for j in range(3))


def _float_sums(s: tuple[float, float, float], count: int) -> list[float]:
    """The first ``count`` of Q and its partials in ``(s1, s2, s3)`` at the
    floats ``s``, each summed left to right from 0 over one set of power
    tables ``s_j ** e``, so a power that leaves the float range raises
    ``OverflowError``.  They depend on ``s`` alone, and not on the sign of a
    zero ``s_j``: a term with a zero factor is a zero, and a sum started from
    0 is never -0.0."""
    t1, t2, t3 = ([v**e for e in range(top + 1)] for v, top in zip(s, _TOP))
    sums = []
    for terms in _FLOAT_TERMS[:count]:
        # a zero exponent multiplies by s**0 = 1.0, which changes no bit
        total = 0
        for c, e1, e2, e3 in terms:
            total = total + c * t1[e1] * t2[e2] * t3[e3]
        sums.append(total)
    return sums


def _q_and_chain(sums, a) -> tuple:
    """Q and its gradient in the parameters ``a``, from ``sums``: Q and its
    partials in (s1, s2, s3), by the chain rule."""
    q, ds1, ds2, ds3 = sums
    a1, a2, a3 = a
    return q, (
        ds1 + ds2 * (a2 + a3) + ds3 * (a2 * a3),
        ds1 + ds2 * (a1 + a3) + ds3 * (a1 * a3),
        ds1 + ds2 * (a1 + a2) + ds3 * (a1 * a2),
    )


def _exact_q(a) -> Fraction:
    """Q at the triple ``a`` as a ``Fraction``; a float counts as its dyadic
    value."""
    (A1, A2, A3), d = cleared(a)
    ((q,),) = _Q_ALONE.at((A1 + A2 + A3, A1 * A2 + A1 * A3 + A2 * A3, A1 * A2 * A3), d)
    return Fraction(q, d**_Q_ALONE.weight)


def q_eval(p: Parameters) -> Scalar:
    """The degeneracy polynomial, evaluated through (s1, s2, s3): a
    ``Fraction`` for exact input, a ``float`` for float input."""
    if p.exact:
        return _exact_q(p.a)
    return _float_sums((p.s1, p.s2, p.s3), 1)[0]


def q_and_grad(p: Parameters) -> tuple[Scalar, tuple[Scalar, Scalar, Scalar]]:
    """``q_eval(p)`` and the gradient of Q in the parameters, by the chain
    rule through the symmetric functions.

    Exact input: ``s_j = N_j / D**j`` with ``a_i = A_i / D``, and
    ``_Q_AND_GRAD`` gives Q and its partials in ``s`` over ``D**w``; the
    gradient in ``a`` is then the chain rule at ``(P1 D**2, P2 D, P3)`` and
    ``A``, over ``D**(w + 2)``.  Float input: the four ``_float_sums`` at
    ``(s1, s2, s3)``, the sums ``q_eval`` makes for Q, chained at ``a``.
    """
    if not p.exact:
        return _q_and_chain(_float_sums((p.s1, p.s2, p.s3), 4), p.a)
    (A1, A2, A3), d = cleared(p.a)
    s = (A1 + A2 + A3, A1 * A2 + A1 * A3 + A2 * A3, A1 * A2 * A3)
    (q,), (p1,), (p2,), (p3,) = _Q_AND_GRAD.at(s, d)
    d_pow = d**_Q_AND_GRAD.weight
    q, grad = _q_and_chain((q, p1 * d * d, p2 * d, p3), (A1, A2, A3))
    return Fraction(q, d_pow), tuple(Fraction(g, d_pow * d * d) for g in grad)


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


def _q_error_majorant(m: float) -> float:
    """``1e-10 (1 + m)^12``, which majorizes the rounding error of the float
    ``q_eval(p)`` at every ``p`` in the closed cube with ``max a_i = m``
    (see ``classify_region``)."""
    return 1e-10 * (1.0 + m) ** 12


def _sign(x) -> int:
    return (x > 0) - (x < 0)


def _q_sign(p: Parameters, q: Scalar) -> int:
    """The sign of Q at the exact parameters of ``p`` (for floats, their
    dyadic values), given ``q = q_eval(p)``: the sign of ``q`` when ``p`` is
    exact, or when ``p`` lies in ``(0, 1/2]^3`` and ``|q|`` is above
    ``_q_error_majorant``; else the sign of ``_exact_q(p.a)``."""
    if not p.exact:
        a = p.a
        m = max(a)
        if not (0 < min(a) and m <= 0.5 and abs(q) > _q_error_majorant(m)):
            q = _exact_q(a)
    return _sign(q)


# a float s1 is two sums of three positive terms, each term also rounded on
# conversion when it is a Fraction, so |fl(s1) - s1| <= gamma_3 s1 < 2**-50
# for s1 < 3/2
_S1_ERROR = 2.0**-50


def classify_region(p: Parameters, q: Scalar) -> Region:
    """The region of ``p``, given ``q = q_eval(p)``: ``ON_OMEGA`` where
    ``Q = 0`` at the exact (for floats, dyadic) parameters, ``OUTSIDE``
    elsewhere off the open cube ``(0, 1/2)^3``, and otherwise ``O3`` where
    ``Q > 0``, ``O1`` where ``Q < 0`` and ``s1 < 3/4``, and ``O2`` where
    ``Q < 0`` and ``s1 > 3/4``. The sign of ``Q`` is ``_q_sign``'s.

    **Why two signs tell the components apart.** On the plane ``s1 = 3/4``
    in the closed cube, ``Q > 0`` except at ``(1/4, 1/4, 1/4)``. There
    ``Q = (32 s2 - 64 s3 - 5)^2 F / 32`` with
    ``F = 24 s2^2 + 64 s2 s3 + 8 s2 - 128 s3^2 - 8 s3 + 1``. Write
    ``a_i = 1/4 + x_i``, so that ``x1 + x2 + x3 = 0`` and ``|x_i| <= 1/4``.
    Then ``32 s2 - 64 s3 - 5 = -8 |x|^2 - 64 x1 x2 x3``, and for ``x != 0``
    ``|x1 x2 x3| <= |x1| (x2^2 + x3^2) / 2 < |x|^2 / 8`` (the last step is
    strict unless ``x1 = 0``, when the product is 0), so the squared factor
    is not zero. And ``F >= 1 - 8 s3 - 128 s3^2 >= 27/32``, because
    ``s2, s3 >= 0`` and ``s3 <= (s1/3)^3 = 1/64``. ``Q`` has one sign on
    each component of the open cube minus ``Omega``, so a component where
    ``Q < 0`` cannot meet the plane and lies on one side of it. The paper's
    three components ``O1``, ``O2`` and ``O3`` hold ``(1/6, 1/6, 1/6)``
    (``Q < 0``, ``s1 = 1/2``), ``(7/15, 7/15, 7/15)`` (``Q < 0``,
    ``s1 = 7/5``) and ``(1/6, 1/4, 1/3)`` (``Q > 0``). Each of the three
    sign sets is a nonempty union of components, so each is one component.

    **Certified float signs.** A float ``q`` is the recursive sum of the 42
    terms ``c s1^e1 s2^e2 s3^e3`` at the float ``s_j``: each ``s_j`` is
    within ``gamma_5`` of its exact value (at most five roundings per term,
    conversions of ``Fraction`` coordinates included), each power
    ``s_j ** e`` is faithful (within one ulp) and each ``c`` is an integer
    below ``2**53``. So ``|q - Q| <= gamma_80 sum |c s1^e1 s2^e2 s3^e3|``
    (Higham, *Accuracy and Stability of Numerical Algorithms*, ch. 3);
    underflow adds less than ``1e-300``. Every ``s_j`` rises in each
    ``a_i >= 0``, so over the closed cube that bound is at most its value
    at ``(m, m, m)``, ``m = max a_i``, which is below
    ``_q_error_majorant(m) / 60`` (a test proves it with ``Fraction``
    interval endpoints). A ``q`` above the majorant therefore has the sign
    of ``Q``; any other, and any ``q`` off the closed cube, takes the sign
    of ``Q`` at the dyadic parameters. The sign of ``s1 - 3/4`` is certified
    the same way.
    """
    q_sign = _q_sign(p, q)
    if q_sign == 0:
        return Region.ON_OMEGA
    if not p.interior:
        return Region.OUTSIDE
    if q_sign > 0:
        return Region.O3
    side = p.s1 - 0.75
    if abs(side) <= _S1_ERROR and not p.exact:
        side = sum(map(Fraction, p.a)) - Fraction(3, 4)
    return Region.O1 if side < 0 else Region.O2


def _kinds_key(kinds) -> tuple[PointKind, ...]:
    return tuple(sorted(kinds, key=lambda k: k.value))


def census_kinds(p: Parameters, rays=None) -> list[PointKind]:
    """Sorted classification kinds of all equilibria of ``p``."""
    if rays is None:
        rays = solve_all(p)
    kinds = []
    for ray in rays:
        lin = linearize_at(p, ray.rep)
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


def component_classify(p: Parameters, rays=None) -> Region:
    """The region of ``p`` by its equilibrium census, the independent
    cross-check of ``classify_region``: ``ON_OMEGA`` as there, else the
    component that the kinds mark, or ``OUTSIDE`` when they mark none."""
    if _q_sign(p, q_eval(p)) == 0:
        return Region.ON_OMEGA
    return _REGION_BY_KINDS.get(_kinds_key(census_kinds(p, rays)), Region.OUTSIDE)


def cube_grid(n: int) -> list[tuple[float, float, float]]:
    """The n-per-axis midpoint grid ``(k + 1/2) / (2n)`` over the open cube
    (0, 1/2)^3, in lexicographic order."""
    axis = [(k + 0.5) / (2 * n) for k in range(n)]
    return [(x, y, z) for x in axis for y in axis for z in axis]


def scan(points) -> list[SurfaceSample]:
    """Surface values and the region (``classify_region``) of each parameter
    triple; a triple where the flow is undefined raises ``ValueError``.

    ``Q1``, ``gradQ`` and the region are computed per point, with no
    equilibrium census. ``Q`` and its partials in ``(s1, s2, s3)`` depend
    on ``(s1, s2, s3)`` alone: at float points ``_float_sums`` runs once per
    distinct float key, and its sums are chained to ``gradQ`` per point as
    ``q_and_grad`` chains them, which gives ``q_and_grad``'s bits.
    """
    key_sums: dict[tuple, list[float]] = {}
    samples = []
    for a in points:
        p = Parameters(*a)
        if p.exact:
            q, grad = q_and_grad(p)
        else:
            key = (p.s1, p.s2, p.s3)
            if key not in key_sums:
                key_sums[key] = _float_sums(key, 4)
            q, grad = _q_and_chain(key_sums[key], p.a)
        samples.append(SurfaceSample(
            params=p,
            Q=q,
            Q1=q1_eval(p),
            gradQ=grad,
            region=classify_region(p, q),
        ))
    return samples
