"""Adaptive time integration of the planar and 3D flows.

The stepper is an embedded Dormand-Prince 5(4) pair with a PI step
controller (safety 0.9, growth capped at 5x).  Integration happens in
logarithmic coordinates, which keeps the metric coefficients positive
without clipping; the conserved volume is recorded along the way as a
quality diagnostic.

The stepper and both charts work on Python floats and the ``math`` module,
so a run's bits do not depend on a vectorized ``exp`` kernel.  Each chart
converts the parameters once, which changes no bit of the field, and steps
with one Python call per attempted step: straight-line code generated from
the tableau, the chart's map and ``flow._FIELD_TEXT`` (see
``_compile_chart``), which writes each stage's map, tests, field and
derivative inline, tests the result and computes the error norm.
``dopri_step``, generated from the same tableau text with a stage that
calls a function, is the oracle of those steps.
The seventh stage of an accepted step is reused as the next step's first
and for the step's diagnosis, so a run costs one field evaluation at the
start and six per attempted step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .core import Parameters, _exec_source
from .equilibria import normalize_unit_volume, scale_to_log_volume, solve_all
from .flow import _FIELD_TEXT, MetricPoint, _phi_exponents, log_volume, normalization_weight

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
    def final_point(self) -> tuple[float, ...]:
        return self.samples[-1][1:4]


def _rms(v, scale) -> float:
    """``sqrt(mean((v / scale)**2))``, summed left to right."""
    s = 0.0
    for vi, si in zip(v, scale):
        r = vi / si
        s = s + r * r
    return math.sqrt(s / len(v))


# the docstring of the generated ``dopri_step``, indented as in its text
_STEP_DOC = """One Dormand-Prince step of size ``h`` from ``y``, a state of 2 or 3
    components (the planar or the 3D chart).

    ``f(*y)``, called with the state's components as positional arguments,
    returns a stage, a tuple whose first item is the derivative at ``y``, or
    None where it cannot be evaluated; ``first`` is the stage at ``y``.
    Returns the 5th-order result, the embedded 4th-order error estimate and
    the seventh stage, which is the stage at the result; or None when a
    stage could not be evaluated.

    The step is straight-line code for each of the two sizes, generated
    from the tableau; any other size raises ``ValueError``.  Each weighted
    sum starts from 0.0 and runs in tableau order with the zero
    coefficients kept, so a non-finite stage always reaches the result and
    a zero sum is +0.0: the bits of a sum from the int 0, whose first add
    converts the int to 0.0.  The float charts' steps are generated from
    the same tableau text, with each stage written inline.
    """


def _weighted_sum(coeffs, terms):
    # 0.0 + c1 * t1 + ... up to the last coefficient, zeros kept, in repr literals
    return " + ".join(["0.0", *(f"{c!r} * {t}" for c, t in zip(coeffs, terms))])


def _names(prefix, n):
    # one name per component: prefix + a, b[, c]
    return [prefix + c for c in "abc"[:n]]


def _step_text(n, emit_stage):
    """The text of a Dormand-Prince step over ``n`` components: the lines
    of stages 2 to 7, then the 5th-order result's and the error estimate's
    expressions, component by component.  The state is ``ua, ub[, uc]`` and
    the derivative of stage ``i`` is ``kia, kib[, kic]``; ``emit_stage(i,
    points, ki)`` writes the lines that evaluate stage ``i`` at the
    expressions ``points`` and bind ``ki``."""
    u = _names("u", n)
    k = [_names(f"k{i}", n) for i in range(1, 8)]
    cols = list(zip(*k))  # component j of each stage
    lines = []
    for i, (row, ki) in enumerate(zip(_A, k[1:]), 2):
        lines += emit_stage(i, [f"{uj} + h * ({_weighted_sum(row, col)})" for uj, col in zip(u, cols)], ki)
    y5 = [f"{uj} + h * ({_weighted_sum(_B, col)})" for uj, col in zip(u, cols)]
    err = [f"h * ({_weighted_sum(_E, col)})" for col in cols]
    return lines, y5, err


def _indent(lines, depth):
    return [" " * depth + line for line in lines]


def _compile_step():
    """``dopri_step`` generated from the tableau, with a stage emitter that
    calls ``f``: for each chart size the stages, the result and the error
    estimate component by component."""

    def call_f(_i, points, ki):
        return [
            "stage = f(" + ",\n          ".join(points) + ")",
            "if stage is None:",
            "    return None",
            f"{', '.join(ki)} = stage[0]",
        ]

    lines = ["def dopri_step(f, y, h, first):", f'    """{_STEP_DOC}"""', "    n = len(y)"]
    for n in (2, 3):
        stages, y5, err = _step_text(n, call_f)
        lines += [
            f"    if n == {n}:",
            f"        {', '.join(_names('u', n))} = y",
            f"        {', '.join(_names('k1', n))} = first[0]",
            *_indent(stages, 8),
            "        y5 = [",
            *(f"            {e}," for e in y5),
            "        ]",
            "        err = [",
            *(f"            {e}," for e in err),
            "        ]",
            "        return y5, err, stage",
        ]
    lines.append('    raise ValueError(f"a Dormand-Prince step takes 2 or 3 components, not {n}")')
    source = "\n".join(lines) + "\n"
    return _exec_source(source, "<dopri_step>", {"__name__": __name__})["dopri_step"]


def __getattr__(name: str):
    # dopri_step, the oracle of the chart steps, is compiled on first use,
    # as the charts are, so that importing the package does not compile it
    if name == "dopri_step":
        globals()[name] = step = _compile_step()
        return step
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# The float charts: the size of the log state ``ya, yb[, yc]``, the
# parameters the map reads beside ``a1, a2, a3`` and the normalization
# weight, and the map from the log state to the point ``x1, x2, x3`` as
# (statement, test) pairs.  A point that fails a test, or whose evaluation
# raises ``ArithmeticError``, has no stage.  The planar chart's x3 is
# ``phi(x1, x2)``, evaluated as ``flow.power`` evaluates it.
_CHARTS = {
    "planar": (2, ("e1", "e2"), (
        ("x1, x2 = exp(ya), exp(yb)", "0.0 < x1 < inf and 0.0 < x2 < inf"),
        ("x3 = exp(e1 * log(x1)) * exp(e2 * log(x2))", "0.0 < x3 < inf"),
    )),
    "3d": (3, (), (
        ("x1, x2, x3 = exp(ya), exp(yb), exp(yc)", "0.0 < x1 < inf and 0.0 < x2 < inf and 0.0 < x3 < inf"),
    )),
}


def _compile_chart(name: str):
    """The factory of a float chart, generated from its map in ``_CHARTS``,
    ``flow._FIELD_TEXT`` and the tableau.  ``chart(traj, a1, a2, a3, weight,
    *params)`` returns ``(point, stage, step)``:

    - ``point(y)``, the point of the log state ``y``;
    - ``stage(ya, yb[, yc])``, which counts one evaluation on ``traj`` and
      returns ``(k, x, v)``, the derivative of the log state, the point and
      the chart's velocity, or None where the stage fails;
    - ``step(y, h, first, rtol)``, one Dormand-Prince step from ``y`` whose
      derivative is ``first``, with the map, the field and ``k = v / x`` of
      each stage written inline, in the order of ``dopri_step``'s sums.  It
      counts the stages it attempted on ``traj`` and returns ``(y5,
      err_norm, k7, x7, v7)``: the result, the error norm ``_rms(err,
      rtol * (1 + max(|u|, |w|)))`` over the state ``u`` and the result
      ``w``, and the seventh stage; or None where a stage fails or the
      result is not finite.

    The field is evaluated in the float unit ``one = 1.0``.  The text is
    registered in ``linecache`` under ``<name chart>``.
    """
    n, params, chart_map = _CHARTS[name]
    ys = _names("y", n)
    x = "x1, x2, x3"
    v = ", ".join(f"v{j}" for j in range(1, n + 1))
    k = ", ".join(f"v{j} / x{j}" for j in range(1, n + 1))

    # the map, where a failed test raises ArithmeticError as the field's own
    # overflow or division by zero does, then the field
    evaluate = []
    for statement, test in chart_map:
        evaluate += [statement, f"if not ({test}):", "    raise ArithmeticError"]
    evaluate += _FIELD_TEXT.splitlines()

    def inline(i, points, ki):
        return [
            f"evals = {i - 1}",
            *(f"{yj} = {point}" for yj, point in zip(ys, points)),
            *evaluate,
            f"{', '.join(ki)} = {k}",
        ]

    stages, y5, err = _step_text(n, inline)
    u, w = _names("u", n), _names("y5", n)
    norm = []
    for uj, wj, ej in zip(u, w, err):
        # one term of _rms, with |u| and |w| as comparisons
        norm += [
            f"m = {uj} if {uj} >= 0.0 else -{uj}",
            f"q = {wj} if {wj} >= 0.0 else -{wj}",
            f"e = {ej}",
            "r = e / (rtol * (1.0 + (q if q > m else m)))",
            "s = s + r * r",
        ]
    lines = [
        f"def chart(traj, a1, a2, a3, weight{''.join(f', {p}' for p in params)}):",
        "    exp, log, inf, sqrt = math.exp, math.log, math.inf, math.sqrt",
        "",
        "    def point(y):",
        f"        {', '.join(ys)} = y",
        *_indent([statement for statement, _test in chart_map], 8),
        f"        return {x}",
        "",
        f"    def stage({', '.join(ys)}):",
        "        traj.field_evals += 1",
        "        one = 1.0",
        "        try:",
        *_indent(evaluate, 12),
        f"            return ({k}), ({x}), ({v})",
        "        except ArithmeticError:",
        "            return None",
        "",
        "    def step(y, h, first, rtol):",
        "        one = 1.0",
        f"        {', '.join(u)} = y",
        f"        {', '.join(_names('k1', n))} = first",
        "        try:",
        *_indent(stages, 12),
        "        except ArithmeticError:",
        "            traj.field_evals += evals",
        "            return None",
        "        traj.field_evals += 6",
        *(f"        {wj} = {e}" for wj, e in zip(w, y5)),
        f"        if not ({' and '.join(f'-inf < {wj} < inf' for wj in w)}):",
        "            return None",
        "        s = 0.0",
        *_indent(norm, 8),
        f"        return ({', '.join(w)}), sqrt(s / {float(n)!r}), ({', '.join(_names('k7', n))}), ({x}), ({v})",
        "",
        "    return point, stage, step",
    ]
    source = "\n".join(lines) + "\n"
    return _exec_source(source, f"<{name} chart>", {"__name__": __name__, "math": math})["chart"]


# the chart factories, compiled on first use
_CHART_FACTORIES: dict = {}


def _chart(name: str, traj: Trajectory, *args):
    """``(point, stage, step)`` of chart ``name`` (see ``_compile_chart``)."""
    factory = _CHART_FACTORIES.get(name)
    if factory is None:
        factory = _CHART_FACTORIES[name] = _compile_chart(name)
    return factory(traj, *args)


def _integrate(step, y, first, t_max: float, rtol: float, observe, traj: Trajectory):
    """Step from ``y``, whose derivative is ``first``, until an observer
    verdict, step underflow or ``t_max``; return the verdict.

    ``step(y, h, first, rtol)`` is a chart's step (see ``_compile_chart``):
    it returns ``(y5, err_norm, k7, x7, v7)``, or None for a step that
    failed.  ``observe(t, x, v)`` sees every accepted step and may return a
    (status, payload) pair that ends the run.  ``traj`` counts the steps.
    """
    t = 0.0
    scale = [rtol * (1.0 + abs(c)) for c in y]
    d0, d1 = _rms(y, scale), _rms(first, scale)
    h = min(max(1e-6 if d1 <= 1e-15 else 0.01 * d0 / d1, 1e-8), 1.0)
    err_prev = 1.0
    while t < t_max:
        # the test precedes the clip to t_max, so a last step shorter than
        # _MIN_STEP is still taken and the run ends at t_max
        if h < _MIN_STEP:
            return (TrajectoryStatus.STEP_UNDERFLOW, None)
        if t_max - t < h:
            h = t_max - t
        result = step(y, h, first, rtol)
        if result is None:
            traj.steps_rejected += 1
            h *= 0.25
            continue
        y_new, err_norm, k, x, v = result
        if err_norm <= 1.0:
            traj.steps_accepted += 1
            t += h
            y, first = y_new, k
            verdict = observe(t, x, v)
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
    traj: Trajectory, a, point, stage, step, targets, y0: list[float], t_max: float, rel_tol: float
) -> Trajectory:
    """Integrate the log-coordinate flow from ``y0`` into ``traj`` and
    diagnose the run.

    ``a`` holds the parameters as floats, and ``point``, ``stage`` and
    ``step`` are a chart's (see ``_compile_chart``).  ``stage(*y0)``
    evaluates the start: it counts the evaluation on ``traj`` and returns
    ``(k, x, v)``, the derivative of the log state, the point ``(x1, x2,
    x3)`` and the chart's velocity, or None where the point is not strictly
    positive and finite or the evaluation raises ``ArithmeticError``.
    ``point(y)`` maps a log state to its point; it serves only the start,
    where a point outside the box ends the run even if the field fails
    there.  ``step`` makes every later evaluation (see ``_integrate``).  A
    run converges when the velocity is below ``_FIELD_TOL`` and the point
    lies within ``_EQ_DIST_TOL`` (scaled) of a target, compared over the
    target's leading coordinates.
    """
    v_ref = abs_ref = None
    a1, a2, a3 = a
    lo, hi, tol = _DOMAIN_LO, _DOMAIN_HI, _FIELD_TOL
    exp, log = math.exp, math.log

    def observe(t, x, v):
        nonlocal v_ref, abs_ref
        # log V summed left to right, as ``sum`` did before Python 3.12
        x1, x2, x3 = x
        vol = exp(log(x1) / a1 + log(x2) / a2 + log(x3) / a3)
        if v_ref is None:
            v_ref, abs_ref = vol, abs(vol)
        drift = abs(vol - v_ref) / abs_ref
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
        # a NaN first step size would never fall below _MIN_STEP
        if first is None or not all(map(math.isfinite, first[0])):
            raise ValueError("the flow field cannot be evaluated in floats at the start point")
        verdict = _integrate(step, y0, first[0], t_max, rel_tol, observe, traj)
    traj.status, payload = verdict
    if traj.status == TrajectoryStatus.CONVERGED:
        traj.equilibrium_id = payload
    elif traj.status == TrajectoryStatus.LEFT_DOMAIN:
        traj.exit_face = payload
    return traj


def _planar_chart(p: Parameters, traj: Trajectory):
    """The planar chart in floats: the parameters, ``point``, ``stage`` and
    ``step``, which count their evaluations on ``traj`` (see
    ``_compile_chart``).

    Mixing an exact scalar into a float operation rounds it to float there,
    so converting the parameters once, and evaluating the field in the unit
    ``1.0``, changes no bit of the field; only the all-exact normalization
    weight and phi's exponents are computed from the original scalars before
    they are rounded.
    """
    a = tuple(float(ai) for ai in p.a)
    weight = float(normalization_weight(*p.a))
    e1, e2 = (float(e) for e in _phi_exponents(p))
    return (a, *_chart("planar", traj, *a, weight, e1, e2))


def _chart_3d(p: Parameters, traj: Trajectory):
    """The 3D chart in floats, converted and shaped as ``_planar_chart``."""
    a = tuple(float(ai) for ai in p.a)
    return (a, *_chart("3d", traj, *a, float(normalization_weight(*p.a))))


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
    a, point, stage, step = _chart_3d(p, traj)
    # the flow keeps the start's volume, so the targets are the equilibrium
    # rays scaled onto that level set
    y0 = [math.log(float(v)) for v in x0.x]
    lv = log_volume(p, MetricPoint(*point(y0)))
    targets = [
        tuple(float(c) for c in scale_to_log_volume(p, ray.rep, lv).x)
        for ray in (solve_all(p) if equilibria is None else equilibria)
    ]
    return _drive(traj, a, point, stage, step, targets, y0, float(t_max), float(rel_tol))
