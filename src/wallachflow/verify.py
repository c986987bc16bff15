"""Reproduction suite: the package's headline results as named checks.

Each check re-derives one published-result cluster from scratch (exact
census values, surface closed forms, the blow-up report, conservation and
classification behavior) and reports pass/fail with a detail string.  The
CLI ``verify`` command and the acceptance tests both run this registry.
The finite-difference Jacobians of A10 live here, next to their only user;
like numpy, this module is loaded only by ``verify``.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import blowup as blowup_mod
from . import equilibria as eq_mod
from . import linearize as lin_mod
from .core import Parameters, Scalar
from .flow import MetricPoint, vector_field_2d, vector_field_3d
from .integrate import integrate_flow, integrate_flow_3d
from .linearize import PointKind, classify
from .surfaces import Region, component_classify, cube_grid, grad_q1, q1_eval, q_eval, scan

__all__ = ["CheckResult", "CHECKS", "run_all", "run_check"]


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float = 0.0


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


def check_census_unstable_node() -> CheckResult:
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
    return CheckResult("A1", not problems, "; ".join(problems) or
                       "4 exact equilibria with determinants {1/9, -2/9, -8/9, -2/9}")


def check_census_stable_node() -> CheckResult:
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
    return CheckResult("A2", not problems, "; ".join(problems) or
                       "stable node with delta 169/225 and saddles -4901/225, -4901/44100")


def check_census_two_saddles() -> CheckResult:
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
    return CheckResult("A3", not problems, "; ".join(problems) or
                       "two saddles: delta(4/5,3/5) = -35/72, second at (2.2841855, 2.3727993)")


def check_degeneracy_polynomial_closed_forms() -> CheckResult:
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
    return CheckResult("A4", not problems, "; ".join(problems) or
                       "both one-parameter closed forms of the surface polynomial hold")


def check_degenerate_point_blowup() -> CheckResult:
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
    return CheckResult("A5", not problems, "; ".join(problems) or
                       "unique degenerate equilibrium; blow-up roots (-2, -1/2, 1), three saddles")


def check_sigma_nonnegative() -> CheckResult:
    """sigma >= 0 for 1e5 random draws with positive pairwise-sum parameters."""
    problems: list[str] = []
    rng = np.random.default_rng(20240817)
    n = 0
    min_sigma = math.inf
    while n < 100_000:
        a = rng.uniform(-0.5, 1.0, size=(3, 40_000))
        x = np.exp(rng.uniform(-2.0, 2.0, size=(3, 40_000)))
        amat = a[0] * a[1] + a[0] * a[2] + a[1] * a[2]
        keep = amat > 0
        a, x, amat = a[:, keep], x[:, keep], amat[keep]
        take = min(a.shape[1], 100_000 - n)
        a, x, amat = a[:, :take], x[:, :take], amat[:take]
        sq = x * x
        g = (
            (amat + a[0] ** 2) * sq[0] ** 2
            + (amat + a[1] ** 2) * sq[1] ** 2
            + (amat + a[2] ** 2) * sq[2] ** 2
            - 2 * a[2] * (a[0] + a[1]) * sq[0] * sq[1]
            - 2 * a[0] * (a[1] + a[2]) * sq[1] * sq[2]
            - 2 * a[1] * (a[0] + a[2]) * sq[0] * sq[2]
        )
        sigma = 4 * g / (sq[0] * sq[1] * sq[2])
        min_sigma = min(min_sigma, float(sigma.min()))
        n += take
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
    return CheckResult("A6", not problems, "; ".join(problems) or
                       f"1e5 draws: min sigma {min_sigma:.2e}; exact spot checks nonnegative")


def check_sigma_zero_families() -> CheckResult:
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

    rng = np.random.default_rng(7)
    smallest = math.inf
    for _ in range(200):
        a = rng.uniform(0.02, 0.5, 3)
        p = Parameters(*a)
        for ray in eq_mod.solve_all(p):
            v1 = eq_mod.normalize_unit_volume(p, ray)
            smallest = min(smallest, abs(float(lin_mod.sigma_expression(p, v1))))
    _expect(smallest > 1e-8, problems,
            f"a random off-family triple produced sigma as small as {smallest:.2e}")
    return CheckResult("A7", not problems, "; ".join(problems) or
                       f"family points have |sigma| <= 1e-10; off-family minimum {smallest:.2e}")


def _min_rho_closed_form(a1: float, a2: float, a3: float):
    """Signed trace closest to zero over the closed-form census, or None."""
    try:
        p = Parameters(a1, a2, a3)
        rays = eq_mod.solve_general(p)
    except (ValueError, ZeroDivisionError):
        return None, 0
    if not rays:
        return None, 0
    rhos = [float(lin_mod.linearize_at(p, r.rep).rho) for r in rays]
    return min(rhos, key=abs), len(rhos)


def _bisect_zero_trace(a1: float, a2: float) -> float | None:
    """An a3 in (0, 1/2) where some equilibrium's trace vanishes, found by
    bracketing a sign change of the smallest trace and bisecting."""
    grid = np.linspace(0.02, 0.48, 24)
    vals = [_min_rho_closed_form(a1, a2, a3) for a3 in grid]
    for i in range(len(grid) - 1):
        (v0, c0), (v1, c1) = vals[i], vals[i + 1]
        if v0 is None or v1 is None or c0 != c1:
            continue
        if v0 * v1 < 0:
            lo, hi, flo = grid[i], grid[i + 1], v0
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                fm, _ = _min_rho_closed_form(a1, a2, mid)
                if fm is None or fm == 0.0 or hi - lo < 1e-16:
                    return mid
                if (flo < 0) == (fm < 0):
                    lo, flo = mid, fm
                else:
                    hi = mid
            return 0.5 * (lo + hi)
    return None


def _polish_on_surface(a1: float, a2: float, a3: float) -> float | None:
    """Secant-polish a3 so the trace-surface polynomial vanishes to <= 1e-13."""
    def q1_at(v: float) -> float:
        return float(q1_eval(Parameters(a1, a2, v)))

    x0, x1v = a3, a3 * (1 + 1e-7) + 1e-12
    f0, f1v = q1_at(x0), q1_at(x1v)
    for _ in range(60):
        if abs(f1v) <= 1e-13:
            return x1v
        if f1v == f0:
            return None
        x0, x1v, f0 = x1v, x1v - f1v * (x1v - x0) / (f1v - f0), f1v
        if not (0 < x1v < 0.5):
            return None
        f1v = q1_at(x1v)
    return None


def check_trace_surface() -> CheckResult:
    """The trace surface: its exact singular point, zero-trace equilibria on
    20 constructed surface points, and none off the surface.

    Construction: bracket a sign change of an equilibrium trace along a3
    (guaranteeing the real branch of the surface), then polish a3 onto the
    polynomial's zero set.
    """
    problems: list[str] = []
    p0 = Parameters(Fraction(1, 4), Fraction(1, 4), Fraction(1, 4))
    _expect(q1_eval(p0) == 0, problems, "Q1(1/4,1/4,1/4) != 0")
    _expect(grad_q1(p0) == (0, 0, 0), problems, "grad Q1(1/4,1/4,1/4) != 0")

    rng = np.random.default_rng(11)
    built = 0
    attempts = 0
    while built < 20 and attempts < 200:
        attempts += 1
        a1 = float(rng.uniform(0.05, 0.45))
        a2 = float(rng.uniform(0.05, 0.45))
        a3 = _bisect_zero_trace(a1, a2)
        if a3 is None:
            continue
        a3 = _polish_on_surface(a1, a2, a3)
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
        a = rng.uniform(0.02, 0.5, 3)
        p = Parameters(*a)
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
    return CheckResult("A8", not problems, "; ".join(problems) or
                       "exact singular point; 20 zero-trace constructions land on the surface "
                       f"(|Q1| <= 1e-12); off-surface min |rho| = {off_min:.2e}")


def check_double_root_case() -> CheckResult:
    """The multiplicity-2 case (5/36, 1/6, 1/4): zero discriminant, 3 rays."""
    problems: list[str] = []
    p = Parameters(Fraction(5, 36), Fraction(1, 6), Fraction(1, 4))
    d3 = eq_mod.quartic_discriminant(p)
    _expect(d3 == 0, problems, f"discriminant = {d3} != 0")
    rays = eq_mod.solve_all(p)
    _expect(len(rays) == 3, problems, f"{len(rays)} rays != 3")
    _expect(sorted(r.multiplicity for r in rays) == [1, 1, 2], problems,
            f"multiplicities {sorted(r.multiplicity for r in rays)} != [1, 1, 2]")
    return CheckResult("A9", not problems, "; ".join(problems) or
                       "exact zero discriminant; 3 rays with one double root")


def _central_difference(field, base: np.ndarray) -> np.ndarray:
    """Central finite-difference Jacobian of ``field`` (float array in, float
    components out) at ``base``, with step ``1e-6 * max(1, |x_j|)``."""
    n = len(base)
    jac = np.empty((n, n))
    for j in range(n):
        h = 1e-6 * max(1.0, abs(base[j]))
        if h == 0.0:
            raise ValueError("finite-difference step underflow")
        up = base.copy()
        dn = base.copy()
        up[j] += h
        dn[j] -= h
        fu = field(up)
        fd = field(dn)
        jac[:, j] = [(float(fu[i]) - float(fd[i])) / (2 * h) for i in range(n)]
    return jac


def jacobian_2d_fd(p: Parameters, x1: Scalar, x2: Scalar) -> np.ndarray:
    """Central finite-difference Jacobian of the planar field."""
    return _central_difference(
        lambda x: vector_field_2d(p, x[0], x[1]), np.array([float(x1), float(x2)])
    )


def jacobian_3d_fd(p: Parameters, x: MetricPoint) -> np.ndarray:
    """Central finite-difference Jacobian of the 3D field."""
    return _central_difference(
        lambda y: vector_field_3d(p, MetricPoint(*y)).v, np.array([float(v) for v in x.x])
    )


def check_jacobian_cross_check() -> CheckResult:
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
            jac = jacobian_2d_fd(p, v1.x1, v1.x2)
            tr, det = float(np.trace(jac)), float(np.linalg.det(jac))
            _expect(abs(tr - float(lin.rho)) <= 1e-6, problems,
                    f"{tuple(map(float, p.a))} {ray.key()}: FD trace {tr} vs {float(lin.rho)}")
            _expect(abs(det - float(lin.delta)) <= 1e-6, problems,
                    f"{tuple(map(float, p.a))} {ray.key()}: FD det {det} vs {float(lin.delta)}")
            jac3 = jacobian_3d_fd(p, v1)
            eigs = np.linalg.eigvals(jac3)
            scale = max(1.0, float(np.max(np.abs(eigs))))
            _expect(float(np.min(np.abs(eigs))) <= 1e-6 * scale, problems,
                    f"{tuple(map(float, p.a))} {ray.key()}: no near-zero 3D eigenvalue")
    return CheckResult("A10", not problems, "; ".join(problems) or
                       "FD trace/determinant match closed forms to 1e-6; 3D Jacobian singular")


def check_first_integral() -> CheckResult:
    """Volume conservation along integrated trajectories."""
    problems: list[str] = []
    rng = np.random.default_rng(5)
    for p in (Parameters(Fraction(7, 15), Fraction(7, 15), Fraction(7, 15)),
              Parameters(Fraction(1, 6), Fraction(1, 4), Fraction(1, 3))):
        rays = eq_mod.solve_all(p)
        for _ in range(5):
            x0 = MetricPoint(*np.exp(rng.uniform(-0.7, 0.7, 3)))
            traj = integrate_flow_3d(p, x0, t_max=50.0, rel_tol=1e-10, equilibria=rays)
            _expect(traj.max_volume_drift <= 1e-7, problems,
                    f"3D drift {traj.max_volume_drift:.2e} > 1e-7")
        for _ in range(3):
            x0 = tuple(np.exp(rng.uniform(-0.3, 0.3, 2)))
            traj = integrate_flow(p, x0, t_max=20.0, rel_tol=1e-10, equilibria=rays)
            _expect(traj.max_volume_drift <= 1e-8, problems,
                    f"2D drift {traj.max_volume_drift:.2e} > 1e-8")
    return CheckResult("A11", not problems, "; ".join(problems) or
                       "volume drift <= 1e-7 (3D, 10 runs) and <= 1e-8 (2D, 6 runs)")


def check_component_classification() -> CheckResult:
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
    return CheckResult("A12", not problems, "; ".join(problems) or
                       f"representatives map to O1/O2/O3; 729-point scan {labels} in {elapsed:.2f}s; "
                       f"census labels agree on {agree} of {len(orbits)} orbits")


CHECKS = [
    check_census_unstable_node,
    check_census_stable_node,
    check_census_two_saddles,
    check_degeneracy_polynomial_closed_forms,
    check_degenerate_point_blowup,
    check_sigma_nonnegative,
    check_sigma_zero_families,
    check_trace_surface,
    check_double_root_case,
    check_jacobian_cross_check,
    check_first_integral,
    check_component_classification,
]


def run_check(func) -> CheckResult:
    t0 = time.perf_counter()
    try:
        result = func()
    except Exception as exc:  # a crash is a failure, not an abort
        result = CheckResult(func.__name__, False, f"raised {type(exc).__name__}: {exc}")
    result.seconds = time.perf_counter() - t0
    return result


def run_all() -> list[CheckResult]:
    return [run_check(f) for f in CHECKS]
