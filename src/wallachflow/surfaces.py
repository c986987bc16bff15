"""Parameter-space surfaces: the degeneracy surface Q = 0 (where some
equilibrium has zero Jacobian determinant), the trace surface Q1 = 0 (where
some equilibrium has zero Jacobian trace), the singular edge curves of the
degeneracy surface, and the census-based classification of the three
components the surface cuts out of the open parameter cube.

At exact parameters Q and its partials in ``(s1, s2, s3)`` are integer sums
from one ``_poly.Layout``.
"""

from __future__ import annotations

import enum
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

from ._poly import Layout, Poly, cleared
from .core import Parameters, Scalar
from .equilibria import solve_all
from .linearize import PointKind, classify, linearize_at

__all__ = [
    "Region",
    "SurfaceSample",
    "EdgeCurvePoint",
    "q_eval",
    "grad_q",
    "q_and_grad",
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
# Q and its partials for exact input, and Q alone for ``q_eval``; s_j has
# weight j.  Their coefficients are integers, so every scale is 1.
_Q_LAYOUT = Layout((_Q_POLY, *_Q_GRAD), (1, 2, 3))
_Q_ALONE = Layout((_Q_POLY,), (1, 2, 3))


@dataclass(frozen=True)
class _Kernel:
    """A polynomial of (s1, s2, s3) with integer coefficients, laid out for
    float evaluation from power tables, in the monomial order of its dict.

    ``floats`` holds ``(float(c), e1, e2, e3)``. ``top`` is the highest
    exponent of each ``s_j``.
    """

    floats: tuple[tuple[float, int, int, int], ...]
    top: tuple[int, int, int]


def _kernel(poly) -> _Kernel:
    return _Kernel(
        floats=tuple((float(c), *mono) for mono, c in poly.items()),
        top=tuple(max(mono[j] for mono in poly) for j in range(3)),
    )


_Q_KERNEL = _kernel(_Q_POLY)
_GRAD_KERNELS = tuple(map(_kernel, _Q_GRAD))


def _float_sum(terms, s1, s2, s3) -> float:
    # a zero exponent multiplies by s**0 = 1.0, which changes no bit
    total = 0
    for c, e1, e2, e3 in terms:
        total = total + c * s1[e1] * s2[e2] * s3[e3]
    return total


def _float_sums(s: tuple[float, float, float], kernels) -> list[float]:
    """The sums of ``kernels`` at the floats ``s = (s1, s2, s3)``, from one
    set of power tables ``s_j ** e``.  They depend on ``s`` alone, and not
    on the sign of a zero ``s_j``: a term with a zero factor is a zero, and
    a sum started from 0 is never -0.0."""
    top = [max(k.top[j] for k in kernels) for j in range(3)]
    tables = [[v**e for e in range(t + 1)] for v, t in zip(s, top)]
    return [_float_sum(k.floats, *tables) for k in kernels]


def _chain(ds1, ds2, ds3, a1, a2, a3) -> tuple:
    """The gradient in the parameters from the partials in (s1, s2, s3)."""
    return (
        ds1 + ds2 * (a2 + a3) + ds3 * (a2 * a3),
        ds1 + ds2 * (a1 + a3) + ds3 * (a1 * a3),
        ds1 + ds2 * (a1 + a2) + ds3 * (a1 * a2),
    )


def _evaluate(p: Parameters, with_q: bool, with_grad: bool):
    """``(Q, gradQ)`` at ``p``, each ``None`` unless asked for.

    Exact input: ``s_j = N_j / D**j`` with ``a_i = A_i / D``, and
    ``_Q_LAYOUT`` gives Q and its partials in ``s`` over ``D**w`` (Q alone
    comes from ``_Q_ALONE``); the gradient in ``a`` is then ``_chain(P1
    D**2, P2 D, P3, A)`` over ``D**(w + 2)``. Float input: power tables of
    ``s_j ** e`` reach the exponents the asked polynomials use, so a power
    that leaves the float range raises ``OverflowError``, and each monomial
    is ``float(c) * s1**e1 * ...`` in the same order as the ``Fraction``
    coefficients' float fallback.
    """
    if not p.exact:
        kernels = ((_Q_KERNEL,) if with_q else ()) + (_GRAD_KERNELS if with_grad else ())
        sums = _float_sums((p.s1, p.s2, p.s3), kernels)
        return (sums[0] if with_q else None), (_chain(*sums[-3:], *p.a) if with_grad else None)
    (A1, A2, A3), d = cleared(p.a)
    s = (A1 + A2 + A3, A1 * A2 + A1 * A3 + A2 * A3, A1 * A2 * A3)
    if not with_grad:
        ((q,),) = _Q_ALONE.at(s, d)
        return Fraction(q, d**_Q_ALONE.weight), None
    (q,), (p1,), (p2,), (p3,) = _Q_LAYOUT.at(s, d)
    d_pow = d**_Q_LAYOUT.weight
    q = Fraction(q, d_pow) if with_q else None
    return q, tuple(Fraction(g, d_pow * d * d) for g in _chain(p1 * d * d, p2 * d, p3, A1, A2, A3))


def q_eval(p: Parameters) -> Scalar:
    """The degeneracy polynomial, evaluated through (s1, s2, s3): a
    ``Fraction`` for exact input, a ``float`` for float input."""
    return _evaluate(p, True, False)[0]


def grad_q(p: Parameters) -> tuple[Scalar, Scalar, Scalar]:
    """Exact gradient of the degeneracy polynomial in the parameters, via the
    chain rule through the symmetric functions."""
    return _evaluate(p, False, True)[1]


def q_and_grad(p: Parameters) -> tuple[Scalar, tuple[Scalar, Scalar, Scalar]]:
    """``(q_eval(p), grad_q(p))`` from one set of power tables."""
    return _evaluate(p, True, True)


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

    ``Q1``, ``gradQ`` and the test for the degeneracy surface are computed
    per point. ``Q`` and the partials of ``gradQ`` in ``(s1, s2, s3)`` are
    functions of ``(s1, s2, s3)``: at float points they are summed once per
    distinct float key and chained to ``gradQ`` per point, which gives the
    bits of ``q_and_grad``. A permutation of a triple only relabels the
    modules, so the label off the surface is computed once per permutation
    orbit: from the census of the sorted triple, whatever the order of
    ``points``.
    """
    orbit_kinds: dict[tuple, list[PointKind]] = {}
    key_sums: dict[tuple, list[float]] = {}

    def kinds(key):
        if key not in orbit_kinds:
            orbit_kinds[key] = census_kinds(Parameters(*key))
        return orbit_kinds[key]

    samples = []
    for a in points:
        p = Parameters(*a)
        if p.exact:
            q, grad = q_and_grad(p)
        else:
            key = (p.s1, p.s2, p.s3)
            if key not in key_sums:
                key_sums[key] = _float_sums(key, (_Q_KERNEL, *_GRAD_KERNELS))
            q, *partials = key_sums[key]
            grad = _chain(*partials, *p.a)
        samples.append(SurfaceSample(
            params=p,
            Q=q,
            Q1=q1_eval(p),
            gradQ=grad,
            region=classify_region(p, q, partial(kinds, tuple(sorted(p.a))), on_omega_tol),
        ))
    return samples
