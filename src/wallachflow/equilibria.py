"""Equilibrium rays of the flow: closed-form case analysis plus a generic
census by exact elimination.

Equilibria form positive rays (the defining equations are homogeneous of
degree 2), so each family is reported through one representative.  The
closed-form solvers follow the three-way case split on the parameters
(two equal / pairwise distinct with half sum / general position via a
quartic); ``solve_all`` dispatches, always runs the independent ``census``
with ``x3 = 1``, and reconciles the two.

``equations`` is the single source of the two equilibrium equations: the
exact ``residual``, the census and the damped-Newton polish ``_newton`` of
float closed-form rays all evaluate it.  The census evaluates it once, at
import, over ``_poly.Poly`` in its sheared chart, and runs each triple in
integers from that layout.  ``scale_to_log_volume`` is the single volume
scaling of a ray.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass, replace
from fractions import Fraction

from ._poly import Poly, quartic_discriminant_coeffs, real_roots
from .core import Parameters, Scalar, exact_sqrt, is_exact
from .flow import MetricPoint, log_volume

__all__ = [
    "EquilibriumRay",
    "FamilyTag",
    "CaseDiscriminants",
    "CensusWarning",
    "equations",
    "residual",
    "solve_two_equal",
    "solve_sum_half",
    "quartic_coefficients",
    "quartic_discriminant",
    "solve_general",
    "solve_all",
    "census",
    "normalize_unit_volume",
    "scale_to_log_volume",
]

# Relative distance below which two x3=1 representatives are the same ray.
_DEDUP_RTOL = 1e-8
# Acceptable polished residual, relative to the degree-2 scale of the point.
_RESIDUAL_TOL = 1e-12
# Residual, relative to the same scale, up to which a point counts as an
# equilibrium: ``linearize_at`` refuses a point beyond it, and ``solve_all``
# drops an unconfirmed float closed-form ray beyond it.
_EQUILIBRIUM_RESIDUAL_TOL = 1e-8
# In the census chart x2 = u - x1/3, L = 0 at a root of the resultant for four
# triples with denominators <= 12 (549 with u = x2); ``census`` serves them.
_SHEAR = Fraction(1, 3)


class FamilyTag(enum.Enum):
    TWO_EQUAL_DIAGONAL = "two_equal_diagonal"
    TWO_EQUAL_OFF_DIAGONAL = "two_equal_off_diagonal"
    SUM_HALF_1 = "sum_half_1"
    SUM_HALF_2 = "sum_half_2"
    SUM_HALF_3 = "sum_half_3"
    SUM_HALF_4 = "sum_half_4"
    GENERAL_QUARTIC = "general_quartic"
    NUMERIC = "numeric"


class CensusWarning(UserWarning):
    """Closed-form and numeric equilibrium censuses disagree."""


@dataclass(frozen=True)
class EquilibriumRay:
    """One positive equilibrium ray, reported through a representative.

    ``convention`` records how the representative was normalized
    (``"x3=1"`` or the general-case ``"x1=1"`` parametrization).
    """

    rep: MetricPoint
    family_tag: FamilyTag
    multiplicity: int = 1
    convention: str = "x3=1"

    def rep_x3one(self) -> MetricPoint:
        """The x3 = 1 representative of the ray (exact for exact reps)."""
        return MetricPoint(self.rep.x1 / self.rep.x3, self.rep.x2 / self.rep.x3, self.rep.x3 / self.rep.x3)

    def as_x3one(self) -> "EquilibriumRay":
        return replace(self, rep=self.rep_x3one(), convention="x3=1")

    def key(self) -> tuple[float, float]:
        r = self.rep_x3one()
        return (float(r.x1), float(r.x2))


@dataclass(frozen=True)
class CaseDiscriminants:
    """Discriminants governing how many rays each closed-form case yields."""

    D1: Scalar | None = None
    T: Scalar | None = None


def equations(a1, a2, a3, x1, x2, x3):
    """The two homogeneous degree-2 equilibrium equations, over any ring.

    They are the first two field components with their denominators cleared:
    ``e1 = A*x2*x3*f/a1`` and ``e2 = A*x1*x3*g/a2`` with ``(f, g, h)`` from
    ``flow.field_components`` and ``A = a1*a2 + a1*a3 + a2*a3``.  Exact
    scalars give exact values, Python floats the values ``_newton`` polishes
    with, and ``_poly.Poly`` the polynomials the census lays out.
    """
    e1 = (
        (a2 + a3) * (a1 * x2 * x2 + a1 * x3 * x3 - x2 * x3)
        + (a2 * x2 + a3 * x3) * x1
        - (a1 * a2 + a1 * a3 + 2 * a2 * a3) * x1 * x1
    )
    e2 = (
        (a1 + a3) * (a2 * x1 * x1 + a2 * x3 * x3 - x1 * x3)
        + (a1 * x1 + a3 * x3) * x2
        - (a1 * a2 + 2 * a1 * a3 + a2 * a3) * x2 * x2
    )
    return e1, e2


def residual(p: Parameters, x: MetricPoint) -> tuple[Scalar, Scalar]:
    """The equilibrium equations at a metric point (exact for exact input)."""
    return equations(*p.a, *x.x)


def _residual_fits(r: tuple[Scalar, Scalar], x: tuple[Scalar, ...]) -> bool:
    """Whether the residual ``r`` of ``equations`` at the point ``x`` lets
    ``x`` count as an equilibrium: no component exceeds
    ``_EQUILIBRIUM_RESIDUAL_TOL * (1 + max |x_i|)^2``."""
    scale = (1 + max(abs(float(v)) for v in x)) ** 2
    return not max(abs(float(r[0])), abs(float(r[1]))) > _EQUILIBRIUM_RESIDUAL_TOL * scale


def _sqrt_scalar(v: Scalar) -> Scalar:
    """Square root, exact when the radicand is an exact perfect square."""
    if v < 0:
        raise ValueError("negative radicand")
    r = exact_sqrt(v) if is_exact(v) else None
    return r if r is not None else math.sqrt(float(v))


def solve_two_equal(b: Scalar, c: Scalar) -> tuple[list[EquilibriumRay], CaseDiscriminants]:
    """Rays for parameters ``(b, b, c)`` with ``b, c`` in (0, 1/2].

    The diagonal family has ``x1 = x2`` with ``x3/x1 = mu/(2(b+c))`` where
    ``mu`` solves ``mu^2 - 2*mu + 4*(1-2c)*(b+c) = 0`` (discriminant D1); the
    off-diagonal family has ``x3 = 2b*(x1+x2)`` with ``x1/x2`` solving a
    reciprocal quadratic whose discriminant has the sign of T.
    """
    if not (0 < b <= Fraction(1, 2) and 0 < c <= Fraction(1, 2)):
        raise ValueError("two-equal case expects b, c in (0, 1/2]")
    rays: list[EquilibriumRay] = []

    d1 = 1 - 4 * (1 - 2 * c) * (b + c)
    t_disc = 1 - 4 * b - 2 * c + 16 * b * b * (b + c)

    if d1 >= 0:
        root = _sqrt_scalar(d1)
        mult = 2 if d1 == 0 else 1
        # 1 - root as (1 - d1) / (1 + root): no cancellation as c -> 1/2
        mus = {4 * (1 - 2 * c) * (b + c) / (1 + root), 1 + root} if d1 != 0 else {1 + root}
        for mu in sorted(mus, key=float):
            if mu <= 0:
                continue
            scale = mu  # normalize x3 = 1
            rep = MetricPoint(2 * (b + c) / scale, 2 * (b + c) / scale, mu / scale)
            rays.append(EquilibriumRay(rep, FamilyTag.TWO_EQUAL_DIAGONAL, mult))

    if b != Fraction(1, 2) and t_disc >= 0:
        # reciprocal quadratic in r = x1/x2:
        #   (b+c)(1-4b^2) r^2 - (1-2b+8b^2(b+c)) r + (b+c)(1-4b^2) = 0
        lead = (b + c) * (1 - 4 * b * b)
        mid = 1 - 2 * b + 8 * b * b * (b + c)
        disc = mid * mid - 4 * lead * lead  # equals T * (1 + 2c)
        root = _sqrt_scalar(disc)
        mult = 2 if t_disc == 0 else 1
        # the roots are reciprocal; (mid - root) / (2*lead) cancels as b -> 1/2
        rs = {2 * lead / (mid + root), (mid + root) / (2 * lead)} if disc != 0 else {mid / (2 * lead)}
        for r in sorted(rs, key=float):
            if r <= 0:
                continue
            x3 = 2 * b * (r + 1)
            rep = MetricPoint(r / x3, 1 / x3, x3 / x3)
            rays.append(EquilibriumRay(rep, FamilyTag.TWO_EQUAL_OFF_DIAGONAL, mult))

    return rays, CaseDiscriminants(D1=d1, T=t_disc)


def solve_sum_half(p: Parameters) -> list[EquilibriumRay]:
    """The four closed-form families when the parameters sum to 1/2.

    Requires pairwise distinct parameters in (0, 1/2).
    """
    a1, a2, a3 = p.a
    sum_ok = p.s1 == Fraction(1, 2) if p.exact else abs(float(p.s1) - 0.5) <= 1e-12
    if not sum_ok:
        raise ValueError("sum-half case expects a1+a2+a3 = 1/2")
    if a1 == a2 or a1 == a3 or a2 == a3:
        raise ValueError("sum-half case expects pairwise distinct parameters")
    if not p.interior:
        raise ValueError("sum-half case expects parameters in (0, 1/2)")
    tags = (FamilyTag.SUM_HALF_1, FamilyTag.SUM_HALF_2, FamilyTag.SUM_HALF_3, FamilyTag.SUM_HALF_4)
    triples = [
        (1 - 2 * a1, 1 - 2 * a2, 2 * (a1 + a2)),
        (1 - 2 * a1, 1 - 2 * a2, 2 * (1 - a1 - a2)),
        (1 - 2 * a1, 1 + 2 * a2, 2 * (a1 + a2)),
        (1 + 2 * a1, 1 - 2 * a2, 2 * (a1 + a2)),
    ]
    rays = []
    for tag, (u, v, w) in zip(tags, triples):
        rays.append(EquilibriumRay(MetricPoint(u / w, v / w, w / w), tag))
    return rays


def quartic_coefficients(p: Parameters) -> list[Scalar]:
    """Coefficients ``[c4, c3, c2, c1, c0]`` of the general-position quartic in
    ``s = x3/x1`` (exact for exact parameters)."""
    a1, a2, a3 = p.a
    c4 = (a2 + a3) ** 2 * (2 * a1 - 1) * (2 * a1 + 1)
    c3 = (a2 + a3) * (2 * a2 + 4 * a1 * a3 + 1 - 4 * a1 * a1)
    c2 = (
        2 * a1 * a1
        + 2 * a3 * a3
        - 8 * a1 * a2 * a2 * a3
        - 2 * a2 * a2
        - 8 * a1 * a1 * a2 * a3
        - 2 * a2
        - 8 * a1 * a2 * a3 * a3
        - 2 * a1 * a3
        - a1
        - a3
        - 8 * a1 * a1 * a3 * a3
    )
    c1 = (a1 + a2) * (4 * a1 * a3 + 2 * a2 + 1 - 4 * a3 * a3)
    c0 = (2 * a3 - 1) * (2 * a3 + 1) * (a1 + a2) ** 2
    return [c4, c3, c2, c1, c0]


def quartic_discriminant(p: Parameters) -> Scalar:
    """Discriminant of the general-position quartic (zero at multiple roots)."""
    return quartic_discriminant_coeffs(*quartic_coefficients(p))


def _t_from_s(p: Parameters, s: Scalar) -> Scalar:
    a1, a2, a3 = p.a
    den = (a2 + a3) * s - (a1 + a2)
    if den == 0:
        raise ZeroDivisionError("degenerate ray parametrization")
    num = 2 * a1 * (a2 + a3) * s * s + (a3 - a1) * s - 2 * a3 * (a1 + a2)
    return num / den


def solve_general(p: Parameters) -> list[EquilibriumRay]:
    """Rays for pairwise distinct parameters with sum != 1/2, via the quartic.

    Representatives keep the ``(1, t, s)`` parametrization (``convention
    "x1=1"``); a multiple root of the quartic is reported once, with its
    exact multiplicity.
    """
    a1, a2, a3 = p.a
    if a1 == a2 or a1 == a3 or a2 == a3:
        raise ValueError("general case expects pairwise distinct parameters")
    if p.s1 == Fraction(1, 2):
        raise ValueError("general case expects a1+a2+a3 != 1/2")
    coeffs = quartic_coefficients(p)
    rays = []
    for s, mult in real_roots(coeffs):
        if not 0 < s < math.inf:  # s = inf: x1 = x3/s is below the float range
            continue
        try:
            t = _t_from_s(p, s)
        except ZeroDivisionError:
            warnings.warn(
                f"quartic root s={float(s):.17g} hits the degenerate parametrization",
                CensusWarning,
                stacklevel=2,
            )
            continue
        if t <= 0:
            continue
        rep = MetricPoint(1 if is_exact(s) else 1.0, t, s)
        rays.append(EquilibriumRay(rep, FamilyTag.GENERAL_QUARTIC, mult, convention="x1=1"))
    return rays


# ---------------------------------------------------------------------------
# census by elimination, and the Newton polish of float rays


def _jacobian(a1, a2, a3, x1, x2):
    """Jacobian of the x3 = 1 equations with respect to ``(x1, x2)``."""
    j11 = (a2 * x2 + a3) - 2 * (a1 * a2 + a1 * a3 + 2 * a2 * a3) * x1
    j12 = (a2 + a3) * (2 * a1 * x2 - 1) + a2 * x1
    j21 = (a1 + a3) * (2 * a2 * x1 - 1) + a1 * x2
    j22 = (a1 * x1 + a3) - 2 * (a1 * a2 + 2 * a1 * a3 + a2 * a3) * x2
    return j11, j12, j21, j22


def _newton(a: tuple[float, ...], x1: float, x2: float, max_iter: int, tol: float):
    """Damped Newton on the x3 = 1 equations from the float start ``(x1, x2)``.

    The point stops moving once ``max|e| <= tol * (1 + max(x1, x2))**2``;
    steps are shortened to keep iterates positive and halved (up to 8 times)
    while they do not decrease the residual.  Returns the final iterate.
    ``_max`` and ``_min`` propagate NaN like numpy's ``maximum`` and
    ``minimum``, and the square is ``t * t``: the tests check the iterates
    bit for bit against the same kernel written elementwise in numpy.
    """
    for _ in range(max_iter):
        e1, e2 = equations(*a, x1, x2, 1.0)
        norm = _max(abs(e1), abs(e2))
        t = 1.0 + _max(x1, x2)
        if not norm > tol * (t * t):
            break
        j11, j12, j21, j22 = _jacobian(*a, x1, x2)
        det = j11 * j22 - j12 * j21
        if not abs(det) > 1e-300:
            break
        s1 = -(j22 * e1 - j12 * e2) / det
        s2 = -(-j21 * e1 + j11 * e2) / det
        # keep iterates strictly positive
        lam = 1.0
        for xv, sv in ((x1, s1), (x2, s2)):
            if sv < -0.9 * xv:
                lam = _min(lam, -0.9 * xv / sv)
        # backtrack while the damped full step does not decrease the residual
        for _bt in range(8):
            f1n, f2n = equations(*a, x1 + lam * s1, x2 + lam * s2, 1.0)
            if not (_max(abs(f1n), abs(f2n)) > norm and lam > 1e-6):
                break
            lam = lam / 2
        x1, x2 = x1 + lam * s1, x2 + lam * s2
    return x1, x2


def _max(x: float, y: float) -> float:
    return x if x >= y or x != x else y


def _min(x: float, y: float) -> float:
    return x if x <= y or x != x else y


def _census_layout():
    """The two equations in the census chart, laid out once: for each
    equation and each ``(i, j)``, the monomials ``(c, e1, e2, e3)`` of the
    coefficient of ``x1**i * u**j``, which is ``sum(c * a1**e1 * a2**e2 *
    a3**e3) / 9`` (the shear's 1/3 enters at most squared).  Every monomial
    has degree 1 or 2 in the parameters."""
    a1, a2, a3, x1, u = (Poly.var(k, 5) for k in range(5))
    layout = []
    for e in equations(a1, a2, a3, x1, u - _SHEAR * x1, 1):
        rows = [[[] for _j in range(3 - i)] for i in range(3)]
        for (e1, e2, e3, i, j), c in (9 * e).items():
            rows[i][j].append((int(c), e1, e2, e3))
        layout.append(rows)
    return layout


_CENSUS_LAYOUT = _census_layout()


def _census_rows(a: tuple[Fraction, ...]) -> list[list[list[int]]]:
    """The census coefficients of both equations at ``a``, each times
    ``9 * D**2``, where ``D`` is the lcm of the denominators of ``a``:
    with ``A_i = D * a_i`` a monomial is ``c * A**e * D**(2 - |e|)``."""
    d = math.lcm(*(v.denominator for v in a))
    p1, p2, p3 = ((1, A, A * A) for A in (v.numerator * (d // v.denominator) for v in a))
    d_pow = (d * d, d, 1)
    return [
        [[sum(c * p1[e1] * p2[e2] * p3[e3] * d_pow[e1 + e2 + e3] for c, e1, e2, e3 in terms) for terms in row]
         for row in rows]
        for rows in _CENSUS_LAYOUT
    ]


def _mul(f: list[int], g: list[int]) -> list[int]:
    """The product of two polynomials, lowest degree first."""
    out = [0] * (len(f) + len(g) - 1)
    for i, u in enumerate(f):
        for j, v in enumerate(g):
            out[i + j] += u * v
    return out


def census(p: Parameters) -> list[tuple[float, float]]:
    """The sorted positive solutions ``(x1, x2)`` of the x3 = 1 equations.

    In the chart ``x2 = u - x1/3`` both equations are quadratics in ``x1``
    with constant leading terms; at each real root ``u`` of their resultant
    (Basu, Pollack and Roy, *Algorithms in Real Algebraic Geometry*), the
    solutions are the positive roots of the first that pass ``_RESIDUAL_TOL``.
    An identically zero resultant, a curve of equilibria, raises ``ValueError``.

    The arithmetic is in integers: ``_CENSUS_LAYOUT`` holds the monomials of
    ``equations`` in that chart, and one common denominator of the ``a_i``
    turns every coefficient into an ``int`` (``_census_rows``).  The
    resultant and the quadratic at a root ``u = N/M`` (each coefficient times
    ``M**2``) are positive multiples of the exact ones, so ``real_roots``
    sees the same primitive polynomials.
    """
    a = tuple(map(Fraction, p.a))
    (c1, b1, (p1,)), (c2, b2, (p2,)) = rows = _census_rows(a)
    # e = p*x1**2 + b*x1 + c with constant p, linear b and quadratic c in u,
    # each lowest degree first
    m = [p1 * v2 - p2 * v1 for v1, v2 in zip(c1, c2)]
    l = [p1 * v2 - p2 * v1 for v1, v2 in zip(b1, b2)]
    n = [x - y for x, y in zip(_mul(b2, c1), _mul(b1, c2))]
    res = [x + y for x, y in zip(_mul(m, m), _mul(l, n))] if p1 or p2 else n  # else two linear equations
    if not any(res):
        raise ValueError(f"the equilibria form a curve for a={tuple(map(float, p.a))}")
    fa = tuple(float(v) for v in a)
    out: list[tuple[float, float]] = []
    for v, _mult in real_roots(res[::-1]):
        if not abs(v) < math.inf:  # a root beyond the float range
            continue
        # exact: the roots of a nearly double quadratic are ill-conditioned
        num, den = v.as_integer_ratio()
        u_pow = [den * den, num * den, num * num]
        quadratic = [sum(c * w for c, w in zip(row, u_pow)) for row in rows[0]][::-1]
        v = Fraction(num, den)
        for r, _mult in real_roots(quadratic):
            if not 0 < r < math.inf:
                continue
            pt = (float(r), float(v - _SHEAR * Fraction(r)))
            fits = max(map(abs, equations(*fa, *pt, 1.0))) <= _RESIDUAL_TOL * (1 + max(pt)) ** 2
            if pt[1] > 0 and fits and not any(_close(q, pt) for q in out):
                out.append(pt)
    return sorted(out)


def _close(pa, pb, rtol: float = _DEDUP_RTOL) -> bool:
    return all(abs(u - v) <= rtol * (1 + abs(u)) for u, v in zip(pa, pb))


def _dispatch_closed_form(p: Parameters) -> list[EquilibriumRay] | None:
    a = p.a
    half = Fraction(1, 2)
    # two equal parameters: rotate the equal pair into the leading slots
    for perm in ((0, 1, 2), (0, 2, 1), (1, 2, 0)):
        if a[perm[0]] == a[perm[1]]:
            b, c = a[perm[0]], a[perm[2]]
            if not (0 < b <= half and 0 < c <= half):
                return None
            rays, _disc = solve_two_equal(b, c)
            out = []
            for ray in rays:
                coords = [None, None, None]
                for i, src in enumerate(perm):
                    coords[src] = ray.rep.x[i]
                rep = MetricPoint(*coords)
                rep = MetricPoint(rep.x1 / rep.x3, rep.x2 / rep.x3, rep.x3 / rep.x3)
                out.append(replace(ray, rep=rep))
            return out
    sum_is_half = (p.s1 == half) if p.exact else abs(float(p.s1) - 0.5) <= 1e-12
    if sum_is_half:
        if p.interior:
            return solve_sum_half(p)
        return None
    return solve_general(p)


def solve_all(p: Parameters) -> list[EquilibriumRay]:
    """All equilibrium rays: closed-form case results merged against the
    independent ``census``, polished and deduplicated.

    Emits a ``CensusWarning`` when the two routes disagree, and when a
    parameter triple in (0, 1/2]^3 yields a count outside 1..4.  A float
    closed-form ray that the census does not confirm and that is no
    equilibrium at the float parameters is dropped.
    """
    try:
        closed = _dispatch_closed_form(p) or []
    except (ValueError, ZeroDivisionError):
        closed = []

    # polish the float closed-form rays, keeping their order
    a = tuple(float(v) for v in p.a)
    polished = [
        ray if ray.rep.exact
        else replace(ray, rep=MetricPoint(*_newton(a, *ray.key(), 40, 1e-15), 1.0), convention="x3=1")
        for ray in closed
    ]

    # drop closed-form coincidences (distinct families can share a ray)
    merged: list[tuple[tuple[float, float], EquilibriumRay]] = []
    for ray in polished:
        key = ray.key()
        if not any(_close(key, other) for other, _ in merged):
            merged.append((key, ray))

    numeric = census(p)
    unmatched = [not any(_close(key, pt, rtol=1e-5) for pt in numeric) for key, _ in merged]
    extra = [pt for pt in numeric if not any(_close(key, pt, rtol=1e-5) for key, _ in merged)]
    if closed and (extra or any(unmatched)):
        warnings.warn(
            f"closed-form census ({len(merged)} rays) and numeric census "
            f"({len(numeric)} roots) disagree for a={tuple(map(float, p.a))}",
            CensusWarning,
            stacklevel=2,
        )
    merged = [
        (key, ray) for (key, ray), lone in zip(merged, unmatched)
        if ray.rep.exact or not lone
        or _residual_fits(equations(*a, *ray.rep.x), ray.rep.x)
    ]
    for x1, x2 in extra:
        ray = EquilibriumRay(MetricPoint(x1, x2, 1.0), FamilyTag.NUMERIC)
        merged.append((ray.key(), ray))

    merged.sort(key=lambda kr: kr[0])
    if p.wallach_range and not 1 <= len(merged) <= 4:
        warnings.warn(
            f"census count {len(merged)} outside 1..4 for parameters in (0,1/2]^3",
            CensusWarning,
            stacklevel=2,
        )
    return [ray for _, ray in merged]


def scale_to_log_volume(p: Parameters, x: MetricPoint, log_v: float = 0.0) -> MetricPoint:
    """Scale ``x`` along its ray onto the level set ``log V = log_v``.

    ``V`` is homogeneous of degree ``1/a1 + 1/a2 + 1/a3``, which is nonzero
    because ``Parameters`` rejects ``s2 == 0``.  A point already on the level
    set is returned unchanged (so it stays exact).
    """
    lv = log_volume(p, x)
    if lv == log_v:
        return x
    q = math.exp((log_v - lv) / float(1 / p.a1 + 1 / p.a2 + 1 / p.a3))
    return MetricPoint(float(x.x1) * q, float(x.x2) * q, float(x.x3) * q)


def normalize_unit_volume(p: Parameters, ray: EquilibriumRay) -> MetricPoint:
    """Scale the ray's representative onto the unit-volume surface."""
    return scale_to_log_volume(p, ray.rep)
