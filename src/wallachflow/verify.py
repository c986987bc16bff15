"""Reproduction suite: the package's headline results as named checks.

Each check re-derives one published-result cluster from scratch (exact
census values, surface closed forms, the blow-up report, conservation and
classification behavior) and returns the problems it found, none when it
passes, with the detail to report when it passes.  ``CHECKS`` names the
checks A1-A12, and ``run_check`` reports each under its name; the CLI
``verify`` command and the acceptance tests both run this registry.
The finite-difference Jacobians of A10 and the eigenvalues of a 3x3 matrix
live here, next to their only user; this module is loaded only by
``verify``.  The checks run on the standard library alone: the seeded
samples are drawn from ``random.Random``.
"""

from __future__ import annotations

import cmath
import math
import random
import time
from fractions import Fraction
from types import SimpleNamespace

from . import blowup as blowup_mod
from . import equilibria as eq_mod
from . import linearize as lin_mod
from ._poly import Poly, real_roots
from .core import Parameters, Record, Scalar
from .flow import MetricPoint, vector_field_2d, vector_field_3d
from .integrate import integrate_flow, integrate_flow_3d
from .linearize import PointKind, classify
from .surfaces import Region, component_classify, cube_grid, grad_q1, q1_eval, q_eval, scan

__all__ = ["CheckResult", "CHECKS", "run_all", "run_check"]


class CheckResult(Record, frozen=False):
    _fields = ("name", "passed", "detail", "seconds")

    def __init__(self, name: str, passed: bool, detail: str, seconds: float = 0.0):
        self.__dict__.update(name=name, passed=passed, detail=detail, seconds=seconds)


def _census(p: Parameters):
    """x3=1 keys mapped to (ray, linearization) for all equilibria of p."""
    rays = eq_mod.solve_all(p)
    out = {}
    for ray in rays:
        out[ray.key()] = (ray, lin_mod.linearize_at(p, ray.rep))
    return out


def _expect(cond: bool, problems: list[str], message: str):
    if not cond:
        problems.append(message)


# --- individual checks ------------------------------------------------------


def check_census_unstable_node() -> tuple[list[str], str]:
    """Census at (1/6, 1/6, 1/6): four exact points and their invariants."""
    problems: list[str] = []
    t0 = time.perf_counter()
    p = Parameters(Fraction(1, 6), Fraction(1, 6), Fraction(1, 6))
    census = _census(p)
    elapsed = time.perf_counter() - t0
    _expect(elapsed < 1.0, problems, f"census took {elapsed:.2f}s >= 1s")
    expected_delta = {
        (1.0, 1.0): Fraction(1, 9),
        (2.0, 1.0): Fraction(-2, 9),
        (0.5, 0.5): Fraction(-8, 9),
        (1.0, 2.0): Fraction(-2, 9),
    }
    _expect(set(census) == set(expected_delta), problems,
            f"points {sorted(census)} != {sorted(expected_delta)}")
    for key, want in expected_delta.items():
        if key in census:
            ray, lin = census[key]
            _expect(ray.rep.exact, problems, f"{key}: representative not exact")
            _expect(lin.delta == want, problems,
                    f"delta{key} = {lin.delta} != {want}")
    if (1.0, 1.0) in census:
        lin = census[(1.0, 1.0)][1]
        _expect(lin.rho == Fraction(2, 3), problems, f"rho(1,1) = {lin.rho} != 2/3")
        _expect(lin.sigma == 0, problems, f"sigma(1,1) = {lin.sigma} != 0")
    return problems, "4 exact equilibria with determinants {1/9, -2/9, -8/9, -2/9}"


def check_census_stable_node() -> tuple[list[str], str]:
    """Census at (7/15, 7/15, 7/15): stable node plus three exact saddles."""
    problems: list[str] = []
    p = Parameters(Fraction(7, 15), Fraction(7, 15), Fraction(7, 15))
    census = _census(p)
    inv14 = float(Fraction(1, 14))
    _expect(set(census) == {(1.0, 1.0), (inv14, 1.0), (1.0, inv14), (14.0, 14.0)},
            problems, f"unexpected point set {sorted(census)}")
    if (1.0, 1.0) in census:
        lin = census[(1.0, 1.0)][1]
        _expect(lin.delta == Fraction(169, 225), problems,
                f"delta(1,1) = {lin.delta} != 169/225")
        _expect(lin.rho == Fraction(-26, 15), problems,
                f"rho(1,1) = {lin.rho} != -26/15")
        _expect(lin.sigma == 0, problems, f"sigma(1,1) = {lin.sigma} != 0")
        _expect(classify(lin).kind is PointKind.STABLE_NODE, problems,
                "point (1,1) not classified as a stable node")
    for key in ((inv14, 1.0), (1.0, inv14)):
        if key in census:
            _expect(census[key][1].delta == Fraction(-4901, 225), problems,
                    f"delta{key} = {census[key][1].delta} != -4901/225")
    if (14.0, 14.0) in census:
        _expect(census[(14.0, 14.0)][1].delta == Fraction(-4901, 44100), problems,
                f"delta(14,14) = {census[(14.0, 14.0)][1].delta} != -4901/44100")
    return problems, "stable node with delta 169/225 and saddles -4901/225, -4901/44100"


def check_census_two_saddles() -> tuple[list[str], str]:
    """Census at (1/6, 1/4, 1/3): exactly two saddles, one exact, one float."""
    problems: list[str] = []
    p = Parameters(Fraction(1, 6), Fraction(1, 4), Fraction(1, 3))
    census = _census(p)
    _expect(len(census) == 2, problems, f"expected 2 equilibria, got {len(census)}")
    kinds = [classify(lin).kind for _, lin in census.values()]
    _expect(kinds == [PointKind.SADDLE] * 2, problems, f"kinds {kinds}")
    exact_key = (0.8, 0.6)
    if exact_key in census:
        lin = census[exact_key][1]
        _expect(lin.delta == Fraction(-35, 72), problems,
                f"delta(4/5,3/5) = {lin.delta} != -35/72")
    else:
        problems.append("missing the exact point (4/5, 3/5)")
    target = (2.284185494, 2.372799295)
    others = [k for k in census if k != exact_key]
    if others:
        key = others[0]
        _expect(max(abs(key[0] - target[0]), abs(key[1] - target[1])) <= 1e-6,
                problems, f"second point {key} not within 1e-6 of {target}")
        _expect(abs(float(census[key][1].delta) - (-0.0982)) <= 5e-4, problems,
                f"delta at second point = {float(census[key][1].delta)} != -0.0982 +- 5e-4")
    return problems, "two saddles: delta(4/5,3/5) = -35/72, second at (2.2841855, 2.3727993)"


def check_degeneracy_polynomial_closed_forms() -> tuple[list[str], str]:
    """Closed forms of the degeneracy polynomial on both one-parameter families."""
    problems: list[str] = []
    for i in range(1, 21):
        s = Fraction(i, 41)  # 20 rationals in (0, 1/2]
        q = q_eval(Parameters(s, s, s))
        _expect(q + (2 * s + 1) ** 4 * (4 * s - 1) ** 8 == 0, problems,
                f"diagonal closed form fails at s={s}")
    lo, hi = lin_mod.SIGMA_ZERO_S_LOW, lin_mod.SIGMA_ZERO_S_HIGH
    for i in range(1, 21):
        s = lo + (hi - lo) * i / 21.0
        p = lin_mod.sigma_zero_family("two_equal", s, k=3)
        q = float(q_eval(p))
        s2 = s * s
        want = s**8 * (1 - 8 * s2 - 4 * s2 * s2) * (1 - 2 * s2) ** 3 * (3 - 2 * s2) ** 3
        _expect(abs(q - want) <= 1e-10 * max(1.0, abs(want)), problems,
                f"two-equal closed form fails at s={s:.6f}: {q} vs {want}")
    return problems, "both one-parameter closed forms of the surface polynomial hold"


def check_degenerate_point_blowup() -> tuple[list[str], str]:
    """The fully degenerate parameter point and its blow-up resolution."""
    problems: list[str] = []
    p = blowup_mod.DEGENERATE_PARAMETERS
    census = _census(p)
    _expect(set(census) == {(1.0, 1.0)}, problems,
            f"expected the unique equilibrium (1,1), got {sorted(census)}")
    if (1.0, 1.0) in census:
        lin = census[(1.0, 1.0)][1]
        _expect((lin.rho, lin.delta, lin.sigma) == (0, 0, 0), problems,
                f"(rho, delta, sigma) = {(lin.rho, lin.delta, lin.sigma)} != (0, 0, 0)")
        _expect(classify(lin).kind is PointKind.DEGENERATE, problems, "not degenerate")
    report = blowup_mod.blowup_linearizations()
    _expect(report.roots == (Fraction(-2), Fraction(-1, 2), Fraction(1)), problems,
            f"roots {report.roots}")
    betas = tuple(pt.beta for pt in report.points)
    _expect(betas == (Fraction(3, 2), Fraction(-3, 4), Fraction(3, 2)), problems,
            f"beta values {betas}")
    _expect(all(pt.verdict == "saddle" for pt in report.points), problems,
            "not all blow-up points are saddles")
    return problems, "unique degenerate equilibrium; blow-up roots (-2, -1/2, 1), three saddles"


def check_sigma_nonnegative() -> tuple[list[str], str]:
    """sigma >= 0 for 1e5 random draws with positive pairwise-sum parameters."""
    problems: list[str] = []
    # a ~ U(-0.5, 1) and log x ~ U(-2, 2), written out as random.uniform
    # computes them, lo + (hi - lo) * random(), without its call per draw
    rnd, exp = random.Random(20240817).random, math.exp
    n = 0
    min_sigma = math.inf
    while n < 100_000:
        a1, a2, a3 = -0.5 + 1.5 * rnd(), -0.5 + 1.5 * rnd(), -0.5 + 1.5 * rnd()
        amat = a1 * a2 + a1 * a3 + a2 * a3
        if amat <= 0:
            continue
        n += 1
        x1, x2, x3 = exp(-2.0 + 4.0 * rnd()), exp(-2.0 + 4.0 * rnd()), exp(-2.0 + 4.0 * rnd())
        s1, s2, s3 = x1 * x1, x2 * x2, x3 * x3
        g = (
            (amat + a1 * a1) * s1 * s1
            + (amat + a2 * a2) * s2 * s2
            + (amat + a3 * a3) * s3 * s3
            - 2 * a3 * (a1 + a2) * s1 * s2
            - 2 * a1 * (a2 + a3) * s2 * s3
            - 2 * a2 * (a1 + a3) * s1 * s3
        )
        sigma = 4 * g / (s1 * s2 * s3)
        if sigma < min_sigma:
            min_sigma = sigma
    _expect(min_sigma >= -1e-12, problems, f"min sigma {min_sigma} < -1e-12")

    for triple in ((Fraction(1, 7), Fraction(2, 5), Fraction(1, 3)),
                   (Fraction(1, 2), Fraction(1, 9), Fraction(3, 8))):
        p = Parameters(*triple)
        for x in (MetricPoint(1, 2, 3), MetricPoint(Fraction(5, 7), 1, Fraction(2, 9))):
            s = lin_mod.sigma_expression(p, x)
            _expect(s >= 0, problems, f"exact sigma {s} < 0 at {triple}")

    p = Parameters(0.31, 0.17, 0.44)
    xmin = lin_mod.sigma_minimizing_point(p)
    s = float(lin_mod.sigma_expression(p, xmin))
    _expect(abs(s) <= 1e-12, problems, f"sigma at minimizing ray = {s}")
    return problems, f"1e5 draws: min sigma {min_sigma:.2e}; exact spot checks nonnegative"


def check_sigma_zero_families() -> tuple[list[str], str]:
    """The two sigma = 0 parameter families, and absence of sigma = 0 off them."""
    problems: list[str] = []
    for i in range(1, 21):
        s = Fraction(i, 40)
        p = lin_mod.sigma_zero_family("equal", s)
        for pt in lin_mod.sigma_zero_points(p):
            sig = lin_mod.sigma_expression(p, pt)
            _expect(abs(float(sig)) <= 1e-10, problems, f"equal family s={s}: sigma={sig}")
    lo, hi = lin_mod.SIGMA_ZERO_S_LOW, lin_mod.SIGMA_ZERO_S_HIGH
    for i in range(1, 21):
        s = lo + (hi - lo) * i / 21.0
        for k in (1, 2, 3):
            p = lin_mod.sigma_zero_family("two_equal", s, k)
            for pt in lin_mod.sigma_zero_points(p):
                sig = float(lin_mod.sigma_expression(p, pt))
                _expect(abs(sig) <= 1e-10, problems,
                        f"two-equal family s={s:.5f} k={k}: sigma={sig:.2e}")
                r1, r2 = eq_mod.residual(p, pt)
                scale = (1 + max(float(c) for c in pt.x)) ** 2
                _expect(max(abs(float(r1)), abs(float(r2))) <= 1e-9 * scale, problems,
                        f"two-equal family s={s:.5f} k={k}: point is not an equilibrium")

    rng = random.Random(7)
    smallest = math.inf
    for _ in range(200):
        p = Parameters(*(rng.uniform(0.02, 0.5) for _ in range(3)))
        for ray in eq_mod.solve_all(p):
            v1 = eq_mod.normalize_unit_volume(p, ray)
            smallest = min(smallest, abs(float(lin_mod.sigma_expression(p, v1))))
    _expect(smallest > 1e-8, problems,
            f"a random off-family triple produced sigma as small as {smallest:.2e}")
    return problems, f"family points have |sigma| <= 1e-10; off-family minimum {smallest:.2e}"


def _min_rho(a1: float, a2: float, a3: float):
    """Signed trace closest to zero over the census, and the number of rays."""
    p = Parameters(a1, a2, a3)
    rhos = [float(lin_mod.linearize_at(p, r.rep).rho) for r in eq_mod.solve_all(p)]
    return min(rhos, key=abs, default=None), len(rhos)


def _zero_trace_a3(a1: float, a2: float) -> float | None:
    """An a3 in (0, 1/2) where some equilibrium's trace vanishes, or None.

    A sign change of the smallest trace between two points of a 24-point
    grid along a3 brackets the real branch of the trace surface, where the
    zero-trace point is a positive ray.  Along a3, Q1 is a quadratic: over
    ``Poly`` in a3 at the dyadic a1, a2 its roots are exact, and the one in
    the bracket, rounded by ``real_roots``, is the a3 returned.  A bracket
    that holds no root or two gives None.
    """
    grid = [0.02 + i * ((0.48 - 0.02) / 23) for i in range(23)] + [0.48]
    vals = [_min_rho(a1, a2, a3) for a3 in grid]
    for i in range(len(grid) - 1):
        (v0, c0), (v1, c1) = vals[i], vals[i + 1]
        if v0 is None or v1 is None or c0 != c1:
            continue
        if v0 * v1 < 0:
            q1 = q1_eval(SimpleNamespace(a=(Fraction(a1), Fraction(a2), Poly.var(0, 1))))
            roots = [r for r, _m in real_roots([q1.get((k,), 0) for k in (2, 1, 0)], False)
                     if grid[i] < r < grid[i + 1]]
            return roots[0] if len(roots) == 1 else None
    return None


def check_trace_surface() -> tuple[list[str], str]:
    """The trace surface: its exact singular point, zero-trace equilibria on
    20 constructed surface points, and none off the surface.

    Construction: bracket a sign change of an equilibrium trace along a3
    (guaranteeing the real branch of the surface), then take the root of
    the polynomial in that bracket.
    """
    problems: list[str] = []
    p0 = Parameters(Fraction(1, 4), Fraction(1, 4), Fraction(1, 4))
    _expect(q1_eval(p0) == 0, problems, "Q1(1/4,1/4,1/4) != 0")
    _expect(grad_q1(p0) == (0, 0, 0), problems, "grad Q1(1/4,1/4,1/4) != 0")

    rng = random.Random(11)
    built = 0
    attempts = 0
    while built < 20 and attempts < 200:
        attempts += 1
        a1 = rng.uniform(0.05, 0.45)
        a2 = rng.uniform(0.05, 0.45)
        a3 = _zero_trace_a3(a1, a2)
        if a3 is None:
            continue
        p = Parameters(a1, a2, a3)
        if abs(float(q1_eval(p))) > 1e-12:
            continue
        built += 1
        best = min(
            abs(float(lin_mod.linearize_at(p, r.rep).rho))
            for r in eq_mod.solve_all(p)
        )
        _expect(best <= 1e-8, problems,
                f"({a1:.5f},{a2:.5f},{a3:.5f}): |Q1| <= 1e-12 but min |rho| = {best:.2e}")
    _expect(built == 20, problems, f"only constructed {built}/20 surface points")

    off_min = math.inf
    n = 0
    while n < 30:
        p = Parameters(*(rng.uniform(0.02, 0.5) for _ in range(3)))
        if abs(float(q1_eval(p))) < 0.01:
            continue
        n += 1
        best = min(
            abs(float(lin_mod.linearize_at(p, r.rep).rho))
            for r in eq_mod.solve_all(p)
        )
        off_min = min(off_min, best)
    _expect(off_min > 1e-6, problems,
            f"off-surface parameters reached |rho| = {off_min:.2e}")
    return problems, (
        "exact singular point; 20 zero-trace constructions land on the surface "
        f"(|Q1| <= 1e-12); off-surface min |rho| = {off_min:.2e}"
    )


def check_double_root_case() -> tuple[list[str], str]:
    """The multiplicity-2 case (5/36, 1/6, 1/4): zero discriminant, 3 rays."""
    problems: list[str] = []
    p = Parameters(Fraction(5, 36), Fraction(1, 6), Fraction(1, 4))
    d3 = eq_mod.quartic_discriminant(p)
    _expect(d3 == 0, problems, f"discriminant = {d3} != 0")
    rays = eq_mod.solve_all(p)
    _expect(len(rays) == 3, problems, f"{len(rays)} rays != 3")
    _expect(sorted(r.multiplicity for r in rays) == [1, 1, 2], problems,
            f"multiplicities {sorted(r.multiplicity for r in rays)} != [1, 1, 2]")
    return problems, "exact zero discriminant; 3 rays with one double root"


def _central_difference(field, base: list[float]) -> list[list[float]]:
    """Central finite-difference Jacobian of ``field`` (float list in, float
    components out) at ``base`` as a list of rows, with step
    ``1e-6 * max(1, |x_j|)``."""
    n = len(base)
    columns = []
    for j in range(n):
        h = 1e-6 * max(1.0, abs(base[j]))
        if h == 0.0:
            raise ValueError("finite-difference step underflow")
        up = list(base)
        dn = list(base)
        up[j] += h
        dn[j] -= h
        fu = field(up)
        fd = field(dn)
        columns.append([(float(fu[i]) - float(fd[i])) / (2 * h) for i in range(n)])
    return [list(row) for row in zip(*columns)]


def jacobian_2d_fd(p: Parameters, x1: Scalar, x2: Scalar) -> list[list[float]]:
    """Central finite-difference Jacobian of the planar field."""
    return _central_difference(
        lambda x: vector_field_2d(p, x[0], x[1]), [float(x1), float(x2)]
    )


def jacobian_3d_fd(p: Parameters, x: MetricPoint) -> list[list[float]]:
    """Central finite-difference Jacobian of the 3D field."""
    return _central_difference(
        lambda y: vector_field_3d(p, MetricPoint(*y)).v, [float(v) for v in x.x]
    )


_CUBE_ROOTS_OF_UNITY = (1, complex(-0.5, math.sqrt(3) / 2), complex(-0.5, -math.sqrt(3) / 2))


def eigenvalues_3x3(m: list[list[float]]) -> list[complex]:
    """The three eigenvalues of the 3x3 matrix ``m``: the complex roots of
    its characteristic cubic ``l^3 - tr l^2 + c2 l - det``, by Cardano's
    formula.

    The coefficients and the discriminant are exact rationals of the float
    entries: in floats the discriminant of a double eigenvalue cancels to
    rounding, and its square root then splits the pair by ~1e-8.  A close
    pair may still come out complex with a tiny imaginary part, so all three
    roots stay complex."""
    (a, b, c), (d, e, f), (g, h, i) = [[Fraction(v) for v in row] for row in m]
    tr = a + e + i
    c2 = a * e - b * d + a * i - c * g + e * i - f * h
    det = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    d0 = tr * tr - 3 * c2
    d1 = -2 * tr**3 + 9 * tr * c2 - 27 * det
    root = cmath.sqrt(float(d1 * d1 - 4 * d0**3))
    d0, d1, tr = float(d0), float(d1), float(tr)
    # the sign that avoids cancellation in d1 +- root
    big = (d1 + root) / 2 if abs(d1 + root) >= abs(d1 - root) else (d1 - root) / 2
    if big == 0:  # d0 = d1 = 0: a triple root
        return [complex(tr / 3)] * 3
    cube = big ** (1 / 3)
    return [(tr - w * cube - d0 / (w * cube)) / 3 for w in _CUBE_ROOTS_OF_UNITY]


def check_jacobian_cross_check() -> tuple[list[str], str]:
    """Finite-difference Jacobians agree with the closed forms at every
    equilibrium of the three census cases; the 3D Jacobian is rank-deficient."""
    problems: list[str] = []
    cases = [
        Parameters(Fraction(1, 6), Fraction(1, 6), Fraction(1, 6)),
        Parameters(Fraction(7, 15), Fraction(7, 15), Fraction(7, 15)),
        Parameters(Fraction(1, 6), Fraction(1, 4), Fraction(1, 3)),
    ]
    for p in cases:
        for ray in eq_mod.solve_all(p):
            v1 = eq_mod.normalize_unit_volume(p, ray)
            lin = lin_mod.linearize_at(p, v1)
            (j00, j01), (j10, j11) = jacobian_2d_fd(p, v1.x1, v1.x2)
            tr, det = j00 + j11, j00 * j11 - j01 * j10
            _expect(abs(tr - float(lin.rho)) <= 1e-6, problems,
                    f"{tuple(map(float, p.a))} {ray.key()}: FD trace {tr} vs {float(lin.rho)}")
            _expect(abs(det - float(lin.delta)) <= 1e-6, problems,
                    f"{tuple(map(float, p.a))} {ray.key()}: FD det {det} vs {float(lin.delta)}")
            moduli = [abs(z) for z in eigenvalues_3x3(jacobian_3d_fd(p, v1))]
            _expect(min(moduli) <= 1e-6 * max(1.0, max(moduli)), problems,
                    f"{tuple(map(float, p.a))} {ray.key()}: no near-zero 3D eigenvalue")
    return problems, "FD trace/determinant match closed forms to 1e-6; 3D Jacobian singular"


def check_first_integral() -> tuple[list[str], str]:
    """Volume conservation along integrated trajectories."""
    problems: list[str] = []
    rng = random.Random(5)
    for p in (Parameters(Fraction(7, 15), Fraction(7, 15), Fraction(7, 15)),
              Parameters(Fraction(1, 6), Fraction(1, 4), Fraction(1, 3))):
        rays = eq_mod.solve_all(p)
        for _ in range(5):
            x0 = MetricPoint(*(math.exp(rng.uniform(-0.7, 0.7)) for _ in range(3)))
            traj = integrate_flow_3d(p, x0, t_max=50.0, rel_tol=1e-10, equilibria=rays)
            _expect(traj.max_volume_drift <= 1e-7, problems,
                    f"3D drift {traj.max_volume_drift:.2e} > 1e-7")
        for _ in range(3):
            x0 = tuple(math.exp(rng.uniform(-0.3, 0.3)) for _ in range(2))
            traj = integrate_flow(p, x0, t_max=20.0, rel_tol=1e-10, equilibria=rays)
            _expect(traj.max_volume_drift <= 1e-8, problems,
                    f"2D drift {traj.max_volume_drift:.2e} > 1e-8")
    return problems, "volume drift <= 1e-7 (3D, 10 runs) and <= 1e-8 (2D, 6 runs)"


def check_component_classification() -> tuple[list[str], str]:
    """The three reference components, a full interior 9x9x9 grid scan, and
    the census cross-check of the scan's sign labels, once per permutation
    orbit of the grid."""
    problems: list[str] = []
    refs = [
        (Parameters(Fraction(1, 6), Fraction(1, 6), Fraction(1, 6)), Region.O1),
        (Parameters(Fraction(7, 15), Fraction(7, 15), Fraction(7, 15)), Region.O2),
        (Parameters(Fraction(1, 6), Fraction(1, 4), Fraction(1, 3)), Region.O3),
    ]
    for p, want in refs:
        got = component_classify(p)
        _expect(got is want, problems, f"{tuple(map(float, p.a))}: {got} != {want}")

    t0 = time.perf_counter()
    samples = scan(cube_grid(9))
    elapsed = time.perf_counter() - t0
    labels: dict[str, int] = {}
    orbits: dict[tuple, set[Region]] = {}
    for sample in samples:
        labels[sample.region.value] = labels.get(sample.region.value, 0) + 1
        orbits.setdefault(tuple(sorted(sample.params.a)), set()).add(sample.region)
    _expect(set(labels) <= {"O1", "O2", "O3", "OnOmega"}, problems,
            f"unexpected labels {labels}")
    _expect(elapsed < 60.0, problems, f"grid scan took {elapsed:.1f}s >= 60s")
    agree = 0
    for a, regions in orbits.items():
        want = component_classify(Parameters(*a))
        agree += regions == {want}
        _expect(regions == {want}, problems,
                f"{a}: sign labels {sorted(r.value for r in regions)}, census {want.value}")
    return problems, (
        f"representatives map to O1/O2/O3; 729-point scan {labels}; "
        f"census labels agree on {agree} of {len(orbits)} orbits"
    )


CHECKS = [
    ("A1", check_census_unstable_node),
    ("A2", check_census_stable_node),
    ("A3", check_census_two_saddles),
    ("A4", check_degeneracy_polynomial_closed_forms),
    ("A5", check_degenerate_point_blowup),
    ("A6", check_sigma_nonnegative),
    ("A7", check_sigma_zero_families),
    ("A8", check_trace_surface),
    ("A9", check_double_root_case),
    ("A10", check_jacobian_cross_check),
    ("A11", check_first_integral),
    ("A12", check_component_classification),
]


def run_check(name: str, func) -> CheckResult:
    """Run one check; a check that raises is a failure under its own name."""
    t0 = time.perf_counter()
    try:
        problems, detail = func()
        result = CheckResult(name, not problems, "; ".join(problems) or detail)
    except Exception as exc:  # a crash is a failure, not an abort
        result = CheckResult(name, False, f"raised {type(exc).__name__}: {exc}")
    result.seconds = time.perf_counter() - t0
    return result


def run_all() -> list[CheckResult]:
    return [run_check(name, func) for name, func in CHECKS]
