"""The closed-form case analysis of the equilibrium rays, kept as a test
oracle for the census.

The three-way case split on the parameters follows the paper: two equal
parameters (two quadratics), pairwise distinct parameters with half sum (four
rational families), and general position (a quartic in ``s = x3/x1``).  The
package labels each census ray by exact line tests and never solves these
forms; the tests compare the census with them.  The quartic has one source,
``equilibria._quartic``, which A9's discriminant reads too, and the sum-half
families come from ``equilibria._sum_half_rays``, which the labels use.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from wallachflow._poly import Root, cleared, enclose, root_brackets
from wallachflow.core import Parameters, Scalar, is_exact, sqrt_scalar
from wallachflow.equilibria import EquilibriumRay, FamilyTag, _quartic, _sum_half_rays, _sums_to_half
from wallachflow.flow import MetricPoint


@dataclass(frozen=True)
class CaseDiscriminants:
    """Discriminants governing how many rays each closed-form case yields."""

    D1: Scalar | None = None
    T: Scalar | None = None


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
        root = sqrt_scalar(d1)
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
        root = sqrt_scalar(disc)
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
    if not _sums_to_half(p.a):
        raise ValueError("sum-half case expects a1+a2+a3 = 1/2")
    if a1 == a2 or a1 == a3 or a2 == a3:
        raise ValueError("sum-half case expects pairwise distinct parameters")
    if not p.interior:
        raise ValueError("sum-half case expects parameters in (0, 1/2)")
    return [EquilibriumRay(MetricPoint(x1, x2, 1 if is_exact(x1) else 1.0), FamilyTag(f"sum_half_{k}"))
            for k, (x1, x2) in enumerate(_sum_half_rays(a1, a2), 1)]


def solve_general(p: Parameters) -> list[EquilibriumRay]:
    """Rays for pairwise distinct parameters with sum != 1/2, via the quartic.

    The ray ``(1, t, s)`` is reported through its ``x3 = 1`` point ``(1/s,
    t/s, 1)``; a multiple root of the quartic is reported once, with its
    exact multiplicity.  The quartic and ``t = num(s)/den(s)`` are integers
    over the exact (for floats, dyadic) parameters.  A rational root ``s``
    gives the point exactly; any other root gives ``1/s`` and ``t/s``
    correctly rounded by ``_poly.enclose``, so ``t/s`` keeps its digits
    where ``den`` nearly vanishes, next to the sum-half plane, and a tiny
    one near a face ``a_i -> 1/2`` its sign.  At float parameters no
    rational root is searched for.  No root is a pole of ``t``: at the root
    ``(a1 + a2)/(a2 + a3)`` of ``den`` the quartic is
    ``(a1 + a2)^2 (a1 - a3)^2 (2 s1 - 1)^2 / (a2 + a3)^2``, which is not zero
    unless ``a1 = -a2``, and then that root is ``s = 0``, which is no ray.
    """
    a1, a2, a3 = p.a
    if a1 == a2 or a1 == a3 or a2 == a3:
        raise ValueError("general case expects pairwise distinct parameters")
    if _sums_to_half(p.a):
        raise ValueError("general case expects a1+a2+a3 != 1/2")
    (a1, a2, a3), d = cleared(p.a)
    # t = num(s) / den(s), highest degree first
    num = [2 * a1 * (a2 + a3), (a3 - a1) * d, -2 * a3 * (a1 + a2)]
    den = [0, (a2 + a3) * d, -(a1 + a2) * d]
    quartic = _quartic(a1, a2, a3, d)
    while quartic and not quartic[0]:
        quartic.pop(0)
    rays = []
    for s, mult in root_brackets(quartic, p.exact) if len(quartic) > 1 else ():
        if isinstance(s, Root):
            # over the common denominator s den(s): 1/s = den(s) / (s den(s)),
            # and den has no s**2 term
            ray = enclose(s, [den[1], den[2], 0], (den, num))
            if ray is None:
                continue
            rep = MetricPoint(*ray, 1.0)
        else:  # only an exact p gives a rational s
            if not s > 0:
                continue
            t = ((num[0] * s + num[1]) * s + num[2]) / (den[1] * s + den[2])
            if not t > 0:
                continue
            rep = MetricPoint(1 / s, t / s, 1)
        rays.append(EquilibriumRay(rep, FamilyTag.GENERAL_QUARTIC, mult))
    return sorted(rays, key=EquilibriumRay.key)


def closed_form(p: Parameters) -> list[EquilibriumRay]:
    """The rays of the closed form of the case of ``p``: two equal
    parameters, a dyadic sum of 1/2, or general position.  Two equal
    parameters give the rays of ``solve_two_equal``, which puts the equal
    pair first: as it returns them when that is the triple's own order, else
    permuted back to it and scaled back to ``x3 = 1``.  A sum of 1/2 off the
    open cube, which no case covers, gives none."""
    a = p.a
    for perm in ((0, 1, 2), (0, 2, 1), (1, 2, 0)):
        if a[perm[0]] == a[perm[1]]:
            rays = solve_two_equal(a[perm[0]], a[perm[2]])[0]
            if perm == (0, 1, 2):
                return rays
            points = [[r.rep.x[perm.index(i)] for i in range(3)] for r in rays]
            return [EquilibriumRay(MetricPoint(x1 / x3, x2 / x3, x3 / x3), r.family_tag, r.multiplicity)
                    for r, (x1, x2, x3) in zip(rays, points)]
    if _sums_to_half(a):
        return solve_sum_half(p) if p.interior else []
    return solve_general(p)
