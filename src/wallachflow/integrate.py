"""Adaptive time integration of the planar and 3D flows.

The stepper is an embedded Dormand-Prince 5(4) pair with a PI step
controller (safety 0.9, growth capped at 5x).  Integration happens in
logarithmic coordinates, which keeps the metric coefficients positive
without clipping; the conserved volume is recorded along the way as a
quality diagnostic.

The stepper and both charts work on Python floats and the ``math`` module,
so a run's bits do not depend on a vectorized ``exp`` kernel.  The step is
straight-line scalar code for each chart's size, 2 or 3 components; every
weighted sum starts from 0.0 and runs in tableau order, zero coefficients
included.  Each chart converts the parameters once, which changes no bit of
the field, and hands the stepper one stage function: a single call, with
the log state's components as positional arguments, that counts the
evaluation, maps the log state to the point, tests it and evaluates the
field there with one call of ``flow._field``, the frame that
``flow.field_components`` reads, in the float unit ``1.0`` (see ``_drive``).
The seventh stage of an accepted step is reused as the next step's first
and for the step's diagnosis, so a run costs one field evaluation at the
start and six per attempted step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .core import Parameters
from .equilibria import normalize_unit_volume, scale_to_log_volume, solve_all
from .flow import MetricPoint, _field, _phi_exponents, log_volume, normalization_weight

__all__ = [
    "Trajectory",
    "TrajectoryStatus",
    "integrate_flow",
    "integrate_flow_3d",
    "dopri_step",
    "check_rtol",
]

# Dormand-Prince 5(4) tableau: the rows of the stage matrix below its
# diagonal, the 5th- and 4th-order weights and their difference.  The last
# row equals the 5th-order weights, so the seventh stage is the derivative
# at the result and serves as the next step's first (FSAL).
_A = (
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_B = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
_BHAT = (5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40)
_E = tuple(b - bhat for b, bhat in zip(_B, _BHAT))
# the same coefficients as scalars, for the straight-line step
(
    (_A21,),
    (_A31, _A32),
    (_A41, _A42, _A43),
    (_A51, _A52, _A53, _A54),
    (_A61, _A62, _A63, _A64, _A65),
    (_A71, _A72, _A73, _A74, _A75, _A76),
) = _A
_B1, _B2, _B3, _B4, _B5, _B6, _B7 = _B
_E1, _E2, _E3, _E4, _E5, _E6, _E7 = _E

_SAFETY = 0.9
_MAX_GROWTH = 5.0
_MIN_SHRINK = 0.2
_PI_ALPHA = 0.7 / 5
_PI_BETA = 0.4 / 5
_MIN_STEP = 1e-14
_DOMAIN_LO = 1e-8
_DOMAIN_HI = 1e8
_FIELD_TOL = 1e-10
_EQ_DIST_TOL = 1e-6


class TrajectoryStatus:
    CONVERGED = "converged"
    LEFT_DOMAIN = "left_domain"
    MAX_TIME = "max_time"
    STEP_UNDERFLOW = "step_underflow"


@dataclass
class Trajectory:
    """Accepted integration steps plus the terminal diagnosis.

    ``steps_rejected`` counts every attempted step that was not accepted,
    including retries after a stage the float field could not evaluate;
    ``field_evals`` counts the evaluations of the field: one at the start
    and six per attempted step, fewer when a stage ended its step early.
    """

    samples: list[tuple[float, float, float, float, float]] = field(default_factory=list)
    status: str = TrajectoryStatus.MAX_TIME
    equilibrium_id: int | None = None
    exit_face: str | None = None
    max_volume_drift: float = 0.0
    steps_accepted: int = 0
    steps_rejected: int = 0
    field_evals: int = 0

    @property
    def times(self) -> list[float]:
        return [s[0] for s in self.samples]

    @property
    def final_point(self) -> tuple[float, ...]:
        return self.samples[-1][1:4]


def _rms(v, scale) -> float:
    """``sqrt(mean((v / scale)**2))``, summed left to right."""
    s = 0.0
    for vi, si in zip(v, scale):
        r = vi / si
        s = s + r * r
    return math.sqrt(s / len(v))


def dopri_step(f, y: list[float], h: float, first):
    """One Dormand-Prince step of size ``h`` from ``y``, a state of 2 or 3
    components (the planar or the 3D chart).

    ``f(*y)``, called with the state's components as positional arguments,
    returns a stage, a tuple whose first item is the derivative at ``y``, or
    None where it cannot be evaluated; ``first`` is the stage at ``y``.
    Returns the 5th-order result, the embedded 4th-order error estimate and
    the seventh stage, which is the stage at the result; or None when a
    stage could not be evaluated.

    The step is written out as straight-line code for each of the two
    sizes; any other size raises ``ValueError``.  Each weighted sum starts
    from 0.0 and runs in tableau order with the zero coefficients kept, so
    that a non-finite stage always reaches the result and a zero sum is
    +0.0.  ``0.0 + x`` is the float add that ``0 + x`` reaches after
    converting the int, so the bits are those of a sum from 0 in every
    case, -0.0, NaN and the infinities included.
    """
    if len(y) == 2:
        ua, ub = y
        k1a, k1b = first[0]
        stage = f(ua + h * (0.0 + _A21 * k1a),
                  ub + h * (0.0 + _A21 * k1b))
        if stage is None:
            return None
        k2a, k2b = stage[0]
        stage = f(ua + h * (0.0 + _A31 * k1a + _A32 * k2a),
                  ub + h * (0.0 + _A31 * k1b + _A32 * k2b))
        if stage is None:
            return None
        k3a, k3b = stage[0]
        stage = f(ua + h * (0.0 + _A41 * k1a + _A42 * k2a + _A43 * k3a),
                  ub + h * (0.0 + _A41 * k1b + _A42 * k2b + _A43 * k3b))
        if stage is None:
            return None
        k4a, k4b = stage[0]
        stage = f(ua + h * (0.0 + _A51 * k1a + _A52 * k2a + _A53 * k3a + _A54 * k4a),
                  ub + h * (0.0 + _A51 * k1b + _A52 * k2b + _A53 * k3b + _A54 * k4b))
        if stage is None:
            return None
        k5a, k5b = stage[0]
        stage = f(ua + h * (0.0 + _A61 * k1a + _A62 * k2a + _A63 * k3a + _A64 * k4a + _A65 * k5a),
                  ub + h * (0.0 + _A61 * k1b + _A62 * k2b + _A63 * k3b + _A64 * k4b + _A65 * k5b))
        if stage is None:
            return None
        k6a, k6b = stage[0]
        stage = f(ua + h * (0.0 + _A71 * k1a + _A72 * k2a + _A73 * k3a
                            + _A74 * k4a + _A75 * k5a + _A76 * k6a),
                  ub + h * (0.0 + _A71 * k1b + _A72 * k2b + _A73 * k3b
                            + _A74 * k4b + _A75 * k5b + _A76 * k6b))
        if stage is None:
            return None
        k7a, k7b = stage[0]
        y5 = [
            ua + h * (0.0 + _B1 * k1a + _B2 * k2a + _B3 * k3a + _B4 * k4a
                      + _B5 * k5a + _B6 * k6a + _B7 * k7a),
            ub + h * (0.0 + _B1 * k1b + _B2 * k2b + _B3 * k3b + _B4 * k4b
                      + _B5 * k5b + _B6 * k6b + _B7 * k7b),
        ]
        err = [
            h * (0.0 + _E1 * k1a + _E2 * k2a + _E3 * k3a + _E4 * k4a
                 + _E5 * k5a + _E6 * k6a + _E7 * k7a),
            h * (0.0 + _E1 * k1b + _E2 * k2b + _E3 * k3b + _E4 * k4b
                 + _E5 * k5b + _E6 * k6b + _E7 * k7b),
        ]
        return y5, err, stage
    ua, ub, uc = y
    k1a, k1b, k1c = first[0]
    stage = f(ua + h * (0.0 + _A21 * k1a),
              ub + h * (0.0 + _A21 * k1b),
              uc + h * (0.0 + _A21 * k1c))
    if stage is None:
        return None
    k2a, k2b, k2c = stage[0]
    stage = f(ua + h * (0.0 + _A31 * k1a + _A32 * k2a),
              ub + h * (0.0 + _A31 * k1b + _A32 * k2b),
              uc + h * (0.0 + _A31 * k1c + _A32 * k2c))
    if stage is None:
        return None
    k3a, k3b, k3c = stage[0]
    stage = f(ua + h * (0.0 + _A41 * k1a + _A42 * k2a + _A43 * k3a),
              ub + h * (0.0 + _A41 * k1b + _A42 * k2b + _A43 * k3b),
              uc + h * (0.0 + _A41 * k1c + _A42 * k2c + _A43 * k3c))
    if stage is None:
        return None
    k4a, k4b, k4c = stage[0]
    stage = f(ua + h * (0.0 + _A51 * k1a + _A52 * k2a + _A53 * k3a + _A54 * k4a),
              ub + h * (0.0 + _A51 * k1b + _A52 * k2b + _A53 * k3b + _A54 * k4b),
              uc + h * (0.0 + _A51 * k1c + _A52 * k2c + _A53 * k3c + _A54 * k4c))
    if stage is None:
        return None
    k5a, k5b, k5c = stage[0]
    stage = f(ua + h * (0.0 + _A61 * k1a + _A62 * k2a + _A63 * k3a + _A64 * k4a + _A65 * k5a),
              ub + h * (0.0 + _A61 * k1b + _A62 * k2b + _A63 * k3b + _A64 * k4b + _A65 * k5b),
              uc + h * (0.0 + _A61 * k1c + _A62 * k2c + _A63 * k3c + _A64 * k4c + _A65 * k5c))
    if stage is None:
        return None
    k6a, k6b, k6c = stage[0]
    stage = f(ua + h * (0.0 + _A71 * k1a + _A72 * k2a + _A73 * k3a
                        + _A74 * k4a + _A75 * k5a + _A76 * k6a),
              ub + h * (0.0 + _A71 * k1b + _A72 * k2b + _A73 * k3b
                        + _A74 * k4b + _A75 * k5b + _A76 * k6b),
              uc + h * (0.0 + _A71 * k1c + _A72 * k2c + _A73 * k3c
                        + _A74 * k4c + _A75 * k5c + _A76 * k6c))
    if stage is None:
        return None
    k7a, k7b, k7c = stage[0]
    y5 = [
        ua + h * (0.0 + _B1 * k1a + _B2 * k2a + _B3 * k3a + _B4 * k4a
                  + _B5 * k5a + _B6 * k6a + _B7 * k7a),
        ub + h * (0.0 + _B1 * k1b + _B2 * k2b + _B3 * k3b + _B4 * k4b
                  + _B5 * k5b + _B6 * k6b + _B7 * k7b),
        uc + h * (0.0 + _B1 * k1c + _B2 * k2c + _B3 * k3c + _B4 * k4c
                  + _B5 * k5c + _B6 * k6c + _B7 * k7c),
    ]
    err = [
        h * (0.0 + _E1 * k1a + _E2 * k2a + _E3 * k3a + _E4 * k4a
             + _E5 * k5a + _E6 * k6a + _E7 * k7a),
        h * (0.0 + _E1 * k1b + _E2 * k2b + _E3 * k3b + _E4 * k4b
             + _E5 * k5b + _E6 * k6b + _E7 * k7b),
        h * (0.0 + _E1 * k1c + _E2 * k2c + _E3 * k3c + _E4 * k4c
             + _E5 * k5c + _E6 * k6c + _E7 * k7c),
    ]
    return y5, err, stage


def _integrate(f, y: list[float], first, t_max: float, rtol: float, observe, traj: Trajectory):
    """Step from ``y``, whose stage is ``first``, until an observer verdict,
    step underflow or ``t_max``; return the verdict.

    ``observe(t, x, v)`` sees every accepted step and may return a
    (status, payload) pair that ends the run.  ``traj`` counts the steps.
    """
    t = 0.0
    scale = [rtol * (1.0 + abs(c)) for c in y]
    d0, d1 = _rms(y, scale), _rms(first[0], scale)
    h = min(max(1e-6 if d1 <= 1e-15 else 0.01 * d0 / d1, 1e-8), 1.0)
    err_prev = 1.0
    while t < t_max:
        # the test precedes the clip to t_max, so a last step shorter than
        # _MIN_STEP is still taken and the run ends at t_max
        if h < _MIN_STEP:
            return (TrajectoryStatus.STEP_UNDERFLOW, None)
        if t_max - t < h:
            h = t_max - t
        step = dopri_step(f, y, h, first)
        if step is None or not all(map(math.isfinite, step[0])):
            traj.steps_rejected += 1
            h *= 0.25
            continue
        y_new, err, last = step
        # _rms(err, rtol * (1 + max(|u|, |w|))) in one loop, summed in _rms's order
        s = 0.0
        for u, w, e in zip(y, y_new, err):
            u, w = abs(u), abs(w)
            r = e / (rtol * (1.0 + (w if w > u else u)))
            s = s + r * r
        err_norm = math.sqrt(s / len(err))
        if err_norm <= 1.0:
            traj.steps_accepted += 1
            t += h
            y, first = y_new, last
            verdict = observe(t, last[1], last[2])
            if verdict is not None:
                return verdict
            # the clamps are comparisons that give what max and min gave,
            # NaN included: max(a, b) is ``b if b > a else a`` and min(a, b)
            # is ``b if b < a else a``; err_prev is 1.0 or a clamped norm
            if err_norm < 1e-10:
                err_norm = 1e-10
            factor = _SAFETY * err_norm**-_PI_ALPHA * err_prev**_PI_BETA
            err_prev = err_norm
            if not factor > _MIN_SHRINK:
                factor = _MIN_SHRINK
            elif factor > _MAX_GROWTH:
                factor = _MAX_GROWTH
            h *= factor
        else:
            traj.steps_rejected += 1
            factor = _SAFETY * err_norm**-_PI_ALPHA
            h *= factor if factor > _MIN_SHRINK else _MIN_SHRINK
    return (TrajectoryStatus.MAX_TIME, None)


def check_rtol(rel_tol: float):
    """Raise ``ValueError`` unless ``rel_tol`` lies in ``[1e-12, 1e-3]``."""
    if not 1e-12 <= rel_tol <= 1e-3:
        raise ValueError("rel_tol must lie in [1e-12, 1e-3]")


def _domain_exit(x: tuple[float, float, float]) -> str | None:
    for name, v in zip(("x1", "x2", "x3"), x):
        if v < _DOMAIN_LO:
            return f"{name}-min"
        if v > _DOMAIN_HI:
            return f"{name}-max"
    return None


def _drive(
    traj: Trajectory, a, point, stage, targets, y0: list[float], t_max: float, rel_tol: float
) -> Trajectory:
    """Integrate the log-coordinate flow from ``y0`` into ``traj`` and
    diagnose the run.

    ``a`` holds the parameters as floats, and ``point`` and ``stage`` are a
    chart's (see ``_planar_chart``).  ``stage(*y)`` is the one call the
    stepper makes per field evaluation: it counts the evaluation on
    ``traj`` and returns ``(k, x, v)``, the derivative of the log state, the
    point ``(x1, x2, x3)`` and the chart's velocity, or None where the point
    is not strictly positive and finite or the evaluation raises
    ``ArithmeticError``.  ``point(y)`` maps a log state to its point; it
    serves only the start, where a point outside the box ends the run even
    if the field fails there.  A run converges when the velocity is below
    ``_FIELD_TOL`` and the point lies within ``_EQ_DIST_TOL`` (scaled) of a
    target, compared over the target's leading coordinates.
    """
    v_ref = None
    a1, a2, a3 = a
    lo, hi, tol = _DOMAIN_LO, _DOMAIN_HI, _FIELD_TOL
    exp, log = math.exp, math.log

    def observe(t, x, v):
        nonlocal v_ref
        # log V summed left to right, as ``sum`` did before Python 3.12
        x1, x2, x3 = x
        vol = exp(log(x1) / a1 + log(x2) / a2 + log(x3) / a3)
        if v_ref is None:
            v_ref = vol
        drift = abs(vol - v_ref) / abs(v_ref)
        # max(traj.max_volume_drift, drift), which keeps the maximum at a NaN drift
        if drift > traj.max_volume_drift:
            traj.max_volume_drift = drift
        traj.samples.append((t, *x, vol))
        # a NaN coordinate fails the range test, and _domain_exit names no face for it
        if not (lo <= x1 <= hi and lo <= x2 <= hi and lo <= x3 <= hi):
            face = _domain_exit(x)
            if face is not None:
                return (TrajectoryStatus.LEFT_DOMAIN, face)
        # max(map(abs, v)) <= tol as comparisons: a NaN first component
        # fails it, and a later one is skipped, as max skips it; v has 2 or
        # 3 components, so v[-1] is the last or tested twice
        if v is not None and abs(v[0]) <= tol and not abs(v[1]) > tol and not abs(v[-1]) > tol:
            for idx, target in enumerate(targets):
                d = max(abs(xi - ti) for xi, ti in zip(x, target)) / (
                    1.0 + max(abs(c) for c in target)
                )
                if d <= _EQ_DIST_TOL:
                    return (TrajectoryStatus.CONVERGED, idx)
        return None

    first = stage(*y0)
    try:
        # a start outside the box ends the run even where the field fails there
        verdict = observe(0.0, *(first[1:] if first else (point(y0), None)))
        if not all(map(math.isfinite, traj.samples[0])):
            raise OverflowError
    except (ArithmeticError, ValueError):
        raise ValueError("the start point's x3 or volume is outside the float range") from None
    if verdict is None:
        if first is None:
            raise ValueError("the flow field cannot be evaluated in floats at the start point")
        verdict = _integrate(stage, y0, first, t_max, rel_tol, observe, traj)
    traj.status, payload = verdict
    if traj.status == TrajectoryStatus.CONVERGED:
        traj.equilibrium_id = payload
    elif traj.status == TrajectoryStatus.LEFT_DOMAIN:
        traj.exit_face = payload
    return traj


def _planar_chart(p: Parameters, traj: Trajectory):
    """The planar chart in floats: the parameters, ``point`` and the stage
    function, which counts its evaluations on ``traj`` (see ``_drive``).

    Mixing an exact scalar into a float operation rounds it to float there,
    so converting the parameters once, and passing the field the unit
    ``1.0``, changes no bit of the field; only the all-exact normalization
    weight and phi's exponents are computed from the original scalars before
    they are rounded.  The stage takes the log state's components as
    positional arguments, ``stage(ya, yb)``.
    """
    a = a1, a2, a3 = tuple(float(ai) for ai in p.a)
    weight = float(normalization_weight(*p.a))
    e1, e2 = (float(e) for e in _phi_exponents(p))
    exp, log, inf = math.exp, math.log, math.inf

    def point(y):
        # x3 = phi(x1, x2), as ``flow.power`` evaluates it; a coordinate that
        # underflowed to 0 has no logarithm, and x3 = 0 marks the point invalid
        x1, x2 = exp(y[0]), exp(y[1])
        if not (x1 > 0 and x2 > 0):
            return (x1, x2, 0.0)
        return (x1, x2, exp(e1 * log(x1)) * exp(e2 * log(x2)))

    def stage(ya, yb):
        # ``point`` and the field in one frame, with the same operations
        traj.field_evals += 1
        try:
            x1, x2 = exp(ya), exp(yb)
            if 0 < x1 < inf and 0 < x2 < inf:
                x3 = exp(e1 * log(x1)) * exp(e2 * log(x2))
                if 0 < x3 < inf:
                    v1, v2, _v3, _b = _field(a1, a2, a3, x1, x2, x3, weight, 1.0)
                    return (v1 / x1, v2 / x2), (x1, x2, x3), (v1, v2)
        except ArithmeticError:
            pass
        return None

    return a, point, stage


def _chart_3d(p: Parameters, traj: Trajectory):
    """The 3D chart in floats, converted and shaped as ``_planar_chart``."""
    a = a1, a2, a3 = tuple(float(ai) for ai in p.a)
    weight = float(normalization_weight(*p.a))
    exp, inf = math.exp, math.inf

    def point(y):
        # an overflow raises OverflowError, which rejects the stage
        return [exp(u) for u in y]

    def stage(y1, y2, y3):
        traj.field_evals += 1
        try:
            x1, x2, x3 = exp(y1), exp(y2), exp(y3)
            if 0 < x1 < inf and 0 < x2 < inf and 0 < x3 < inf:
                v1, v2, v3, _b = _field(a1, a2, a3, x1, x2, x3, weight, 1.0)
                return (v1 / x1, v2 / x2, v3 / x3), (x1, x2, x3), (v1, v2, v3)
        except ArithmeticError:
            pass
        return None

    return a, point, stage


def integrate_flow(
    p: Parameters,
    x0: tuple[float, float],
    t_max: float = 50.0,
    rel_tol: float = 1e-10,
    equilibria=None,
) -> Trajectory:
    """Integrate the planar flow from ``x0`` until it settles on a known
    equilibrium, exits the positivity box, or reaches ``t_max``."""
    if not p.reduced_ok:
        raise ValueError("planar flow requires all a_i nonzero")
    check_rtol(rel_tol)
    if not (x0[0] > 0 and x0[1] > 0):
        raise ValueError("initial point must be positive")

    rays = solve_all(p) if equilibria is None else equilibria
    targets = [
        (float(m.x1), float(m.x2)) for m in (normalize_unit_volume(p, ray) for ray in rays)
    ]
    y0 = [math.log(float(x0[0])), math.log(float(x0[1]))]
    traj = Trajectory()
    return _drive(traj, *_planar_chart(p, traj), targets, y0, float(t_max), float(rel_tol))


def integrate_flow_3d(
    p: Parameters,
    x0: MetricPoint,
    t_max: float = 50.0,
    rel_tol: float = 1e-10,
    equilibria=None,
) -> Trajectory:
    """Integrate the unreduced 3D flow; the recorded volume must stay at its
    initial value up to integration error."""
    if not p.reduced_ok:
        raise ValueError("volume tracking requires all a_i nonzero")
    check_rtol(rel_tol)

    traj = Trajectory()
    a, point, stage = _chart_3d(p, traj)
    # the flow keeps the start's volume, so the targets are the equilibrium
    # rays scaled onto that level set
    y0 = [math.log(float(v)) for v in x0.x]
    lv = log_volume(p, MetricPoint(*point(y0)))
    targets = [
        tuple(float(c) for c in scale_to_log_volume(p, ray.rep, lv).x)
        for ray in (solve_all(p) if equilibria is None else equilibria)
    ]
    return _drive(traj, a, point, stage, targets, y0, float(t_max), float(rel_tol))
