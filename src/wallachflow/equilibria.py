"""Equilibrium rays of the flow: a census by exact elimination, labelled by
a closed-form case analysis.

Equilibria form positive rays (the defining equations are homogeneous of
degree 2), so each ray is reported through its ``x3 = 1`` point.
``census`` takes every ray, with its multiplicity, from the roots of one
resultant, exactly or correctly rounded; it is the package's only solver.
``solve_all`` labels each census ray by the three-way case split on the
parameters (two equal / pairwise distinct with half sum / general position
via a quartic) without solving again: a family is a set of lines, tested
exactly at the ray's census root.  ``quartic_coefficients`` and
``quartic_discriminant`` give the general-position quartic and its
discriminant.

``equations`` is the single source of the two equilibrium equations: the
exact ``residual`` evaluates it, and the census lays it out once, at import,
in its sheared chart as a ``_poly.Layout``, which evaluates it at each
triple in integers.
``scale_to_log_volume`` is the single volume scaling of a ray.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction

from ._poly import Layout, Poly, Root, cleared, enclose, float_bits, real_roots, sign_at
from ._poly import quartic_discriminant_coeffs, root_brackets
from .core import Parameters, Scalar, is_exact
from .flow import MetricPoint, log_volume

__all__ = [
    "EquilibriumRay",
    "FamilyTag",
    "CensusWarning",
    "equations",
    "residual",
    "quartic_coefficients",
    "quartic_discriminant",
    "solve_all",
    "census",
    "normalize_unit_volume",
    "scale_to_log_volume",
]

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
    """A census warning.  The package emits none; ``perfbench/tracing.py``
    counts it around ``solve_all``."""


@dataclass(frozen=True)
class EquilibriumRay:
    """One positive equilibrium ray, reported through its ``x3 = 1`` point
    ``rep``: exact where the root it comes from is rational, correctly
    rounded otherwise.  A ``rep`` off ``x3 = 1`` raises ``ValueError``."""

    rep: MetricPoint
    family_tag: FamilyTag
    multiplicity: int = 1

    def __post_init__(self):
        if self.rep.x3 != 1:
            raise ValueError(f"a ray is represented by its x3 = 1 point, not x3 = {self.rep.x3}")

    def key(self) -> tuple[float, float]:
        return (float(self.rep.x1), float(self.rep.x2))


def equations(a1, a2, a3, x1, x2, x3):
    """The two homogeneous degree-2 equilibrium equations, over any ring.

    They are the first two field components with their denominators cleared:
    ``e1 = A*x2*x3*f/a1`` and ``e2 = A*x1*x3*g/a2`` with ``(f, g, h)`` from
    ``flow.field_components`` and ``A = a1*a2 + a1*a3 + a2*a3``.  Exact
    scalars give exact values, Python floats float residuals, and
    ``_poly.Poly`` the polynomials the census lays out.
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


def _sums_to_half(a) -> bool:
    """``a1 + a2 + a3 = 1/2`` exactly, for floats in their dyadic values."""
    return sum(map(Fraction, a)) == Fraction(1, 2)


def _sum_half_rays(a1, a2) -> list[tuple]:
    """The ``x3 = 1`` points ``(x1, x2)`` of the four sum-half families."""
    w, w2 = 2 * (a1 + a2), 2 * (1 - a1 - a2)
    return [((1 - 2 * a1) / w, (1 - 2 * a2) / w), ((1 - 2 * a1) / w2, (1 - 2 * a2) / w2),
            ((1 - 2 * a1) / w, (1 + 2 * a2) / w), ((1 + 2 * a1) / w, (1 - 2 * a2) / w)]


def quartic_coefficients(p: Parameters) -> list[Scalar]:
    """Coefficients ``[c4, c3, c2, c1, c0]`` of the general-position quartic in
    ``s = x3/x1`` (exact for exact parameters)."""
    return _quartic(*p.a, 1)


def _quartic(a1, a2, a3, one) -> list:
    """``quartic_coefficients`` homogenized by ``one``: at ``(A_i, D)`` with
    ``A_i = D * a_i`` they are the coefficients at ``a`` times ``D**4``."""
    o2, o3 = one * one, one * one * one
    c4 = (a2 + a3) ** 2 * (2 * a1 - one) * (2 * a1 + one)
    c3 = (a2 + a3) * (2 * a2 * o2 + 4 * a1 * a3 * one + o3 - 4 * a1 * a1 * one)
    c2 = (
        2 * (a1 * a1 + a3 * a3 - a2 * a2 - a1 * a3) * o2 - (a1 + 2 * a2 + a3) * o3
        - 8 * a1 * a2 * a3 * (a1 + a2 + a3) - 8 * a1 * a1 * a3 * a3
    )
    c1 = (a1 + a2) * (4 * a1 * a3 * one + 2 * a2 * o2 + o3 - 4 * a3 * a3 * one)
    c0 = (2 * a3 - one) * (2 * a3 + one) * (a1 + a2) ** 2
    return [c4, c3, c2, c1, c0]


def quartic_discriminant(p: Parameters) -> Scalar:
    """Discriminant of the general-position quartic (zero at multiple roots)."""
    return quartic_discriminant_coeffs(*quartic_coefficients(p))


# ---------------------------------------------------------------------------
# census by elimination


# the two equations over ``Poly`` in (a1, a2, a3, x1, u), in the census chart
_CHART = Layout(
    equations(*(Poly.var(k, 5) for k in range(4)), Poly.var(4, 5) - _SHEAR * Poly.var(3, 5), 1), (1, 1, 1)
)


def _census_rows(a) -> list[list[list[int]]]:
    """``rows[e][i][j]``: the coefficient of ``x1**i * u**j`` in equation
    ``e`` of the census chart at ``a``, an integer over the common
    denominator of ``_CHART.at``."""
    out = []
    for coeffs, monos in zip(_CHART.at(*cleared(a)), _CHART.monos):
        rows = [[0] * (3 - i) for i in range(3)]
        for c, (i, j) in zip(coeffs, monos):
            rows[i][j] = c
        out.append(rows)
    return out


def _mul(f: list[int], g: list[int]) -> list[int]:
    """The product of two polynomials, lowest degree first."""
    out = [0] * (len(f) + len(g) - 1)
    for i, u in enumerate(f):
        for j, v in enumerate(g):
            out[i + j] += u * v
    return out


def _ray(m: list[int], l: list[int], root: Root):
    """``x1 = -m(u)/l(u)`` and ``x2 = u - x1/3 = (m + 3 u l) / (3 l)``, free
    of cancellation, correctly rounded at the root ``u`` by ``enclose``
    (over the common denominator ``3 l``), or ``None`` for a ray that is not
    positive or leaves the float range; ``m``, ``l`` lowest degree first."""
    num2 = [v + 3 * w for v, w in zip(m, [0] + l[:2])]
    return enclose(root, [3 * v for v in l[::-1]], ([-3 * v for v in m[::-1]], num2[::-1]))


def _on_line(rows: list[list[list[int]]], u: Fraction, mult: int):
    """The rays at a root ``u`` of the resultant where ``l(u) = m(u) = 0``:
    the roots ``x1`` of the first equation that does not vanish on the line,
    exact when rational.  A lone root takes the multiplicity of ``u``; two
    take 1 each, as on the double root ``u = 5/3`` at ``3/10, 1/10, 1/10``."""
    num, den = u.numerator, u.denominator
    u_pow = [den * den, num * den, num * num]
    for eq in rows:
        quadratic = [sum(c * w for c, w in zip(row, u_pow)) for row in eq][::-1]
        if any(quadratic):
            break
    roots = [r for r, _mult in real_roots(quadratic)]
    out = []
    for r in roots:
        x2 = u - _SHEAR * Fraction(r)
        if 0 < r < math.inf and x2 > 0:
            out.append((r, x2 if is_exact(r) else float(x2), mult if len(roots) == 1 else 1))
    return out


def _census(p: Parameters) -> tuple[list[tuple[Scalar, Scalar, int, Root | None]], list[int], list[int]]:
    """The rays of ``census``, sorted but not yet rounded at float
    parameters, as ``(x1, x2, multiplicity, root)``, with the ``m`` and
    ``l`` of the chart.  ``root`` is the ``Root`` ``u`` that ``_ray`` took
    the ray from, its bracket as narrow as ``enclose`` left it, and
    ``None`` for a rational root or a ray of ``_on_line``."""
    (c1, b1, (p1,)), (c2, b2, (p2,)) = rows = _census_rows(p.a)
    # e = p*x1**2 + b*x1 + c: constant p, linear b, quadratic c in u, lowest degree first
    m = [p1 * v2 - p2 * v1 for v1, v2 in zip(c1, c2)]
    l = [p1 * v2 - p2 * v1 for v1, v2 in zip(b1, b2)] + [0]
    n = [x - y for x, y in zip(_mul(b2, c1), _mul(b1, c2))]
    if p1 or p2:
        res = [x + y for x, y in zip(_mul(m, m), _mul(l[:2], n))]
    else:  # two linear equations: x1 = -c/b from one with b != 0
        res = n
        m, l = (c1, b1 + [0]) if any(b1) else (c2, b2 + [0])
    if not any(res):
        raise ValueError(f"the equilibria form a curve for a={tuple(map(float, p.a))}")
    while not res[-1]:
        res.pop()
    out = []
    u0 = Fraction(-l[0], l[1]) if l[1] else None
    for root, mult in root_brackets(res[::-1], p.exact) if len(res) > 1 else ():
        if isinstance(root, Root) and u0 is not None and not sign_at([u0.denominator, -u0.numerator], root):
            root = u0
        if not isinstance(root, Root) and l[0] + l[1] * root:
            x1 = -(m[0] + (m[1] + m[2] * root) * root) / (l[0] + l[1] * root)
            if x1 > 0 and root - _SHEAR * x1 > 0:
                out.append((x1, root - _SHEAR * x1, mult, None))
        elif isinstance(root, Root) and any(l):
            ray = _ray(m, l, root)
            out += [(*ray, mult, root)] if ray else []
        else:  # l(u) = m(u) = 0; l vanishes identically only for a negative a_i,
            # and an irrational u is then rounded to within 2**-55
            if isinstance(root, Root):
                top, k = root.narrow(float_bits(root.factor))
                root = Fraction(top, 1 << k)
            out += [(*ray, None) for ray in _on_line(rows, root, mult)]
    return sorted(out, key=lambda r: r[:3] if p.exact else (float(r[0]), float(r[1]), r[2])), m, l


def census(p: Parameters) -> list[tuple[Scalar, Scalar, int]]:
    """The positive solutions of the x3 = 1 equations, sorted, as ``(x1, x2,
    multiplicity)``.

    In the chart ``x2 = u - x1/3`` both equations are ``p*x1**2 + b(u)*x1 +
    c(u)`` with constant ``p``, with integer coefficients from
    ``_census_rows``.  Eliminating ``x1**2`` gives ``l(u)*x1 + m(u) = 0``,
    and their resultant ``m**2 + l*n`` (Basu, Pollack and Roy) is the only
    polynomial solved: a real root ``u`` with ``l(u) != 0`` carries exactly
    one solution, ``x1 = -m(u)/l(u)`` (a rational univariate representation,
    Rouillier 1999), of intersection multiplicity that of ``u``.  At exact
    parameters a rational ``u`` gives ``Fraction``s and any other ``u``
    correctly rounded floats from ``_ray``.  Float parameters want floats
    only, so no rational root is searched for and every ``u`` goes to
    ``_ray``, which rounds a rational ray as ``float`` rounds its
    ``Fraction`` except exactly halfway between two floats, where
    ``_poly.enclose`` takes the lower one.
    Where ``l(u) = m(u) = 0``, as at ``1/4, 1/4, 1/4``, ``_on_line`` solves
    one equation on the line ``u``.  As ``l`` is linear, that ``u`` is
    ``u0 = -l0/l1`` (or ``l = 0``): ``sign_at`` decides exactly whether a
    ``Root`` is ``u0``.  A curve of equilibria (zero resultant) raises
    ``ValueError``.
    """
    rays = [ray[:3] for ray in _census(p)[0]]
    return rays if p.exact else [(float(x1), float(x2), mult) for x1, x2, mult in rays]


def _lies_on(line: tuple, ray: tuple, m: list[int], l: list[int]) -> bool:
    """Whether the ray ``(x1, x2, mult, root)`` of ``_census`` (with its
    chart's ``m``, ``l``) lies on ``alpha*x1 + beta*x2 + gamma = 0``, for
    the rational ``line = (alpha, beta, gamma)``, decided exactly.

    Exact coordinates are substituted; a float one without a ``Root`` is an
    irrational root of ``_on_line`` on a rational line ``u``, and so on no
    rational line crossing it (each family of ``_families`` has one).  A
    ray with a ``Root`` ``u`` is ``x1 = -m(u)/l(u)``, ``x2 = u - x1/3`` with
    ``l(u) != 0``, so it is on the line iff ``c = (beta - 3*alpha)*m +
    3*(beta*u + gamma)*l``, of degree at most 2, vanishes at ``u``.
    """
    alpha, beta, gamma = line
    x1, x2, _mult, root = ray
    if root is None:
        return is_exact(x1) and alpha * x1 + beta * x2 + gamma == 0
    (alpha, beta, gamma), _d = cleared(line)
    c = [(beta - 3 * alpha) * mj + 3 * (gamma * lj + beta * lk) for mj, lj, lk in zip(m, l, [0] + l)]
    return sign_at(c[::-1], root) == 0


def _families(p: Parameters) -> tuple[list[tuple[FamilyTag, list[tuple]]], FamilyTag]:
    """The closed-form case of ``p`` as ``(families, other)``: a ray takes the
    tag of the first family ``(tag, lines)`` it lies on every line of, or
    ``other``.  Two equal parameters in (0, 1/2] (the pair first found, in
    the order of the lines ``x1 = x2``, ``x1 = 1``, ``x2 = 1``) have the
    diagonal family on their line.  Pairwise distinct ones in (0, 1/2) whose
    exact, or for floats dyadic, values sum to 1/2 have four rational rays
    ``(y1, y2)``, each on its lines ``x2 + x1/3 = y2 + y1/3`` and ``x1 =
    y1``.  In general position every ray is ``general_quartic``; no case
    covers the rest.
    """
    a = p.a
    for (i, j), line in (((0, 1), (1, -1, 0)), ((0, 2), (1, 0, -1)), ((1, 2), (0, 1, -1))):
        if a[i] == a[j]:
            if not p.wallach_range:
                return [], FamilyTag.NUMERIC
            return [(FamilyTag.TWO_EQUAL_DIAGONAL, [line])], FamilyTag.TWO_EQUAL_OFF_DIAGONAL
    if not _sums_to_half(a):
        return [], FamilyTag.GENERAL_QUARTIC
    if not p.interior:
        return [], FamilyTag.NUMERIC
    families = [(FamilyTag(f"sum_half_{k}"), [(1, 3, -y1 - 3 * y2), (1, 0, -y1)])
                for k, (y1, y2) in enumerate(_sum_half_rays(*map(Fraction, a[:2])), 1)]
    return families, FamilyTag.NUMERIC


def solve_all(p: Parameters) -> list[EquilibriumRay]:
    """The rays of ``census``, values and multiplicities, labelled by the
    closed-form case of ``p`` with exact line tests; ``numeric`` where no
    case covers ``p``.  Each ray is its census point with ``x3 = 1``."""
    families, other = _families(p)
    rays, m, l = _census(p)
    out = []
    for ray in rays:
        tag = next((tag for tag, lines in families if all(_lies_on(ln, ray, m, l) for ln in lines)), other)
        x1, x2, mult = ray[:3] if p.exact else (float(ray[0]), float(ray[1]), ray[2])
        out.append(EquilibriumRay(MetricPoint(x1, x2, 1 if is_exact(x1) else 1.0), tag, mult))
    out.sort(key=EquilibriumRay.key)
    return out


def scale_to_log_volume(p: Parameters, x: MetricPoint, log_v: float = 0.0) -> MetricPoint:
    """Scale ``x`` along its ray onto the level set ``log V = log_v``.

    ``V`` is homogeneous of degree ``1/a1 + 1/a2 + 1/a3``, which is nonzero
    because ``Parameters`` rejects ``s2 == 0``.  A point already on the level
    set is returned unchanged (so it stays exact).  ``OverflowError`` when
    the factor or a scaled coordinate is not a positive finite float, as for
    a subnormal ``a_i``, whose ``1/a_i`` is infinite.
    """
    lv = log_volume(p, x)
    if lv == log_v:
        return x
    q = math.exp((log_v - lv) / float(1 / p.a1 + 1 / p.a2 + 1 / p.a3))
    scaled = (q, float(x.x1) * q, float(x.x2) * q, float(x.x3) * q)
    if not all(0 < v < math.inf for v in scaled):  # NaN fails too
        raise OverflowError("the volume scaling left the float range")
    return MetricPoint(*scaled[1:])


def normalize_unit_volume(p: Parameters, ray: EquilibriumRay) -> MetricPoint:
    """Scale the ray's representative onto the unit-volume surface."""
    return scale_to_log_volume(p, ray.rep)
