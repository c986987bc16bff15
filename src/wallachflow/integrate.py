"""Adaptive time integration of the planar and 3D flows.

``integrate_flow`` is the one entry point, and the length of its start
picks the system: two coordinates ``(x1, x2)`` run the planar flow on the
``V = 1`` surface, three run the unreduced 3D flow.

The stepper is an embedded Dormand-Prince 5(4) pair with a PI step
controller (safety 0.9, growth capped at 5x).  Integration happens in
logarithmic coordinates, which keeps the metric coefficients positive
without clipping; the conserved volume is recorded along the way as a
quality diagnostic.

The stepper and both charts work on Python floats and the ``math`` module,
so a run's bits do not depend on a vectorized ``exp`` kernel.  Each chart
converts the parameters once, which changes no bit of the field, and makes
a whole run in one Python call: ``run``, straight-line code generated from
the tableau, the chart's map and ``flow._FIELD_TEXT`` (see
``_compile_chart``), which holds the adaptive loop, writes each stage's
map, tests, field and derivative inline, and records each taken step.  It
calls back into Python only to name the face where a run leaves the box
and to match a convergence target.  The planar chart omits the field's
``v3``, which it never reads.  The seventh stage of an accepted step is
reused as the next step's first and for the step's diagnosis, so a run
costs one field evaluation at the start and six per attempted step.
"""

from __future__ import annotations

import math

from .core import Parameters, Record, _exec_source
from .equilibria import scale_to_log_volume, solve_all
from .flow import _FIELD_TEXT, MetricPoint, _phi_exponents, log_volume, normalization_weight

__all__ = [
    "Trajectory",
    "TrajectoryStatus",
    "integrate_flow",
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


class Trajectory(Record, frozen=False):
    """Accepted integration steps plus the terminal diagnosis.

    ``steps_rejected`` counts every attempted step that was not accepted,
    including retries after a stage the float field could not evaluate;
    ``field_evals`` counts the evaluations of the field: one at the start
    and six per attempted step, fewer when a stage ended its step early.
    """

    _fields = ("samples", "status", "equilibrium_id", "exit_face", "max_volume_drift", "steps_accepted",
               "steps_rejected", "field_evals")

    def __init__(
        self,
        samples: list[tuple[float, float, float, float, float]] | None = None,
        status: str = TrajectoryStatus.MAX_TIME,
        equilibrium_id: int | None = None,
        exit_face: str | None = None,
        max_volume_drift: float = 0.0,
        steps_accepted: int = 0,
        steps_rejected: int = 0,
        field_evals: int = 0,
    ):
        self.__dict__.update(
            samples=[] if samples is None else samples, status=status, equilibrium_id=equilibrium_id,
            exit_face=exit_face, max_volume_drift=max_volume_drift, steps_accepted=steps_accepted,
            steps_rejected=steps_rejected, field_evals=field_evals,
        )

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


def _weighted_sum(coeffs, terms):
    # 0.0 + c1 * t1 + ... in tableau order, in repr literals, with the zero
    # coefficients kept: a non-finite stage always reaches the sum, and a
    # zero sum is +0.0, the bits of a sum from the int 0
    return " + ".join(["0.0", *(f"{c!r} * {t}" for c, t in zip(coeffs, terms))])


def _names(prefix, n):
    # one name per component: prefix + a, b[, c]
    return [prefix + c for c in "abc"[:n]]


def _step_text(n, evaluate, k):
    """The text of a Dormand-Prince step over ``n`` components: the lines
    of stages 2 to 7, then the 5th-order result's and the error estimate's
    expressions, component by component.  The state is ``ua, ub[, uc]`` and
    the derivative of stage ``i`` is ``kia, kib[, kic]``.  Stage ``i`` is
    written inline: it sets ``evals`` to the count of the stages before it,
    binds its point to the log state ``ya, yb[, yc]``, runs the lines
    ``evaluate`` and binds its derivative to the expression ``k``."""
    u, ys = _names("u", n), _names("y", n)
    ks = [_names(f"k{i}", n) for i in range(1, 8)]
    cols = list(zip(*ks))  # component j of each stage
    lines = []
    for i, (row, ki) in enumerate(zip(_A, ks[1:]), 2):
        lines += [
            f"evals = {i - 1}",
            *(f"{yj} = {uj} + h * ({_weighted_sum(row, col)})" for yj, uj, col in zip(ys, u, cols)),
            *evaluate,
            f"{', '.join(ki)} = {k}",
        ]
    y5 = [f"{uj} + h * ({_weighted_sum(_B, col)})" for uj, col in zip(u, cols)]
    err = [f"h * ({_weighted_sum(_E, col)})" for col in cols]
    return lines, y5, err


def _indent(lines, depth):
    return [" " * depth + line for line in lines]


# The float charts by the size of the log state ``ya, yb[, yc]``: the name,
# the parameters the map reads beside ``a1, a2, a3`` and the normalization
# weight, and the map from the log state to the point ``x1, x2, x3`` as
# (statement, test) pairs.  A point that fails a test, or whose evaluation
# raises ``ArithmeticError``, has no stage.  The planar chart's x3 is
# ``phi(x1, x2)``, evaluated as ``flow.power`` evaluates it.
_CHARTS = {
    2: ("planar", ("e1", "e2"), (
        ("x1, x2 = exp(ya), exp(yb)", "0.0 < x1 < inf and 0.0 < x2 < inf"),
        ("x3 = exp(e1 * log(x1)) * exp(e2 * log(x2))", "0.0 < x3 < inf"),
    )),
    3: ("3d", (), (
        ("x1, x2, x3 = exp(ya), exp(yb), exp(yc)", "0.0 < x1 < inf and 0.0 < x2 < inf and 0.0 < x3 < inf"),
    )),
}


def _compile_chart(n: int):
    """The factory of the float chart of size ``n``, generated from its map
    in ``_CHARTS``, ``flow._FIELD_TEXT`` and the tableau.  ``chart(traj, a1,
    a2, a3, weight, *params)`` returns ``(point, stage, run)``:

    - ``point(y)``, the point of the log state ``y``;
    - ``stage(ya, yb[, yc])``, which counts one evaluation on ``traj`` and
      returns ``(k, x, v)``, the derivative of the log state, the point and
      the chart's velocity, or None where the stage fails;
    - ``run(y, first, h, t_max, rtol, v_ref, exit_face, match)``, the
      adaptive loop from the log state ``y``, whose derivative is ``first``,
      with the first step size ``h`` (see ``_drive``).

    ``run`` writes each Dormand-Prince step inline (see ``_step_text``): a
    stage that fails or a result that is not finite retries the step at a
    quarter of its size; otherwise the error norm is ``_rms(err, rtol * (1 +
    max(|u|, |w|)))`` over the state ``u`` and the result ``w``, and the PI
    controller takes or retries the step.  The seventh stage of a taken step
    is the next step's first.  At its point ``x`` and velocity ``v``, ``run``
    appends ``(t, x1, x2, x3, V)`` to ``traj.samples``, keeps the largest
    drift ``|V - v_ref| / v_ref`` of the volume ``V`` in
    ``traj.max_volume_drift``, and ends the run where ``exit_face(x)`` names
    a face of a point outside the box, or where ``max(|v|) <= _FIELD_TOL``
    and ``match(x)`` names a target.  It adds its evaluations and steps to
    ``traj`` and returns the verdict ``(status, face or target)``.

    The field is evaluated in the float unit ``one = 1.0``; the planar chart
    splices it in without the ``v3`` line, which nothing there reads.  The
    text is registered in ``linecache`` under ``<name chart>``.
    """
    name, params, chart_map = _CHARTS[n]
    ys, u, w = _names("y", n), _names("u", n), _names("y5", n)
    x = "x1, x2, x3"
    v = ", ".join(f"v{j}" for j in range(1, n + 1))
    k = ", ".join(f"v{j} / x{j}" for j in range(1, n + 1))

    # the map, where a failed test raises ArithmeticError as the field's own
    # overflow or division by zero does, then the field
    evaluate = []
    for statement, test in chart_map:
        evaluate += [statement, f"if not ({test}):", "    raise ArithmeticError"]
    evaluate += [line for line in _FIELD_TEXT.splitlines() if n == 3 or not line.startswith("v3 =")]

    stages, y5, err = _step_text(n, evaluate, k)
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
    # max(map(abs, v)) <= _FIELD_TOL as comparisons: a NaN first component
    # fails it, and a later one is skipped, as max skips it
    field_test = " and ".join(
        [f"abs(v1) <= {_FIELD_TOL!r}", *(f"not abs(v{j}) > {_FIELD_TOL!r}" for j in range(2, n + 1))]
    )
    box = " and ".join(f"{_DOMAIN_LO!r} <= x{j} <= {_DOMAIN_HI!r}" for j in (1, 2, 3))
    loop = [
        "while t < t_max:",
        "    # the test precedes the clip to t_max, so a last step shorter",
        "    # than _MIN_STEP is still taken and the run ends at t_max",
        f"    if h < {_MIN_STEP!r}:",
        f"        return {TrajectoryStatus.STEP_UNDERFLOW!r}, None",
        "    if t_max - t < h:",
        "        h = t_max - t",
        "    try:",
        *_indent(stages, 8),
        "    except ArithmeticError:",
        "        field_evals += evals",
        "        rejected += 1",
        "        h *= 0.25",
        "        continue",
        "    field_evals += 6",
        *(f"    {wj} = {e}" for wj, e in zip(w, y5)),
        f"    if not ({' and '.join(f'-inf < {wj} < inf' for wj in w)}):",
        "        rejected += 1",
        "        h *= 0.25",
        "        continue",
        "    s = 0.0",
        *_indent(norm, 4),
        f"    err_norm = sqrt(s / {float(n)!r})",
        "    if err_norm <= 1.0:",
        "        accepted += 1",
        "        t += h",
        f"        {', '.join(u)} = {', '.join(w)}",
        f"        {', '.join(_names('k1', n))} = {', '.join(_names('k7', n))}",
        "        # log V summed left to right, as ``sum`` did before Python 3.12",
        "        vol = exp(log(x1) / a1 + log(x2) / a2 + log(x3) / a3)",
        "        # max(drift_max, drift), which keeps the maximum at a NaN drift",
        "        drift = abs(vol - v_ref) / v_ref",
        "        if drift > drift_max:",
        "            drift_max = drift",
        f"        append((t, {x}, vol))",
        "        # every stage's point is finite, so exit_face names a face",
        f"        if not ({box}):",
        f"            return {TrajectoryStatus.LEFT_DOMAIN!r}, exit_face(({x}))",
        f"        if {field_test}:",
        f"            target = match(({x}))",
        "            if target is not None:",
        f"                return {TrajectoryStatus.CONVERGED!r}, target",
        "        # the clamps are comparisons that give what max and min gave,",
        "        # NaN included: max(a, b) is ``b if b > a else a`` and min(a, b)",
        "        # is ``b if b < a else a``; err_prev is 1.0 or a clamped norm",
        "        if err_norm < 1e-10:",
        "            err_norm = 1e-10",
        f"        factor = {_SAFETY!r} * err_norm ** {-_PI_ALPHA!r} * err_prev ** {_PI_BETA!r}",
        "        err_prev = err_norm",
        f"        if not factor > {_MIN_SHRINK!r}:",
        f"            factor = {_MIN_SHRINK!r}",
        f"        elif factor > {_MAX_GROWTH!r}:",
        f"            factor = {_MAX_GROWTH!r}",
        "        h *= factor",
        "    else:",
        "        rejected += 1",
        f"        factor = {_SAFETY!r} * err_norm ** {-_PI_ALPHA!r}",
        f"        h *= factor if factor > {_MIN_SHRINK!r} else {_MIN_SHRINK!r}",
        f"return {TrajectoryStatus.MAX_TIME!r}, None",
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
        "    def run(y, first, h, t_max, rtol, v_ref, exit_face, match):",
        "        one = 1.0",
        f"        {', '.join(u)} = y",
        f"        {', '.join(_names('k1', n))} = first",
        "        field_evals, accepted, rejected = traj.field_evals, traj.steps_accepted, traj.steps_rejected",
        "        drift_max, append = traj.max_volume_drift, traj.samples.append",
        "        t, err_prev = 0.0, 1.0",
        "        try:",
        *_indent(loop, 12),
        "        finally:",
        "            traj.field_evals, traj.steps_accepted, traj.steps_rejected = field_evals, accepted, rejected",
        "            traj.max_volume_drift = drift_max",
        "",
        "    return point, stage, run",
    ]
    source = "\n".join(lines) + "\n"
    return _exec_source(source, f"<{name} chart>", {"__name__": __name__, "math": math})["chart"]


# the chart factories, compiled on first use
_CHART_FACTORIES: dict = {}


def _chart(p: Parameters, traj: Trajectory, n: int):
    """The chart of size ``n`` in floats: the parameters, ``point``,
    ``stage`` and ``run``, which count their evaluations on ``traj`` (see
    ``_compile_chart``).

    Mixing an exact scalar into a float operation rounds it to float there,
    so converting the parameters once, and evaluating the field in the unit
    ``1.0``, changes no bit of the field; only the all-exact normalization
    weight and the planar chart's phi exponents are computed from the
    original scalars before they are rounded.
    """
    factory = _CHART_FACTORIES.get(n)
    if factory is None:
        factory = _CHART_FACTORIES[n] = _compile_chart(n)
    a = tuple(float(ai) for ai in p.a)
    exponents = [float(e) for e in _phi_exponents(p)] if n == 2 else []
    return (a, *factory(traj, *a, float(normalization_weight(*p.a)), *exponents))


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
    traj: Trajectory, a, point, stage, run, targets, y0: list[float], t_max: float, rel_tol: float
) -> Trajectory:
    """Integrate the log-coordinate flow from ``y0`` into ``traj`` and
    diagnose the run.

    ``a`` holds the parameters as floats, and ``point``, ``stage`` and
    ``run`` are a chart's (see ``_compile_chart``).  ``stage(*y0)``
    evaluates the start: it counts the evaluation on ``traj`` and returns
    ``(k, x, v)``, the derivative of the log state, the point ``(x1, x2,
    x3)`` and the chart's velocity, or None where the point is not strictly
    positive and finite or the evaluation raises ``ArithmeticError``.
    ``point(y)`` maps a log state to its point; it serves only the start,
    where a point outside the box ends the run even if the field fails
    there.  ``run`` makes every later evaluation and observes every taken
    step as the start is observed here.  A run converges when the velocity
    is below ``_FIELD_TOL`` and the point lies within ``_EQ_DIST_TOL``
    (scaled) of a target, compared over the target's leading coordinates.
    """
    a1, a2, a3 = a

    def match(x):
        for idx, target in enumerate(targets):
            d = max(abs(xi - ti) for xi, ti in zip(x, target)) / (1.0 + max(abs(c) for c in target))
            if d <= _EQ_DIST_TOL:
                return idx
        return None

    first = stage(*y0)
    try:
        # a start outside the box ends the run even where the field fails there
        x, v = first[1:] if first else (point(y0), None)
        # log V summed left to right, as ``sum`` did before Python 3.12
        vol = math.exp(math.log(x[0]) / a1 + math.log(x[1]) / a2 + math.log(x[2]) / a3)
        if vol == 0.0 or not all(map(math.isfinite, (*x, vol))):
            raise OverflowError
    except (ArithmeticError, ValueError):
        raise ValueError("the start point's x3 or volume is outside the float range") from None
    traj.samples.append((0.0, *x, vol))
    verdict = None
    face = _domain_exit(x)
    if face is not None:
        verdict = (TrajectoryStatus.LEFT_DOMAIN, face)
    elif v is not None and max(map(abs, v)) <= _FIELD_TOL:
        target = match(x)
        if target is not None:
            verdict = (TrajectoryStatus.CONVERGED, target)
    if verdict is None:
        # a NaN first step size would never fall below _MIN_STEP
        if first is None or not all(map(math.isfinite, first[0])):
            raise ValueError("the flow field cannot be evaluated in floats at the start point")
        scale = [rel_tol * (1.0 + abs(c)) for c in y0]
        d0, d1 = _rms(y0, scale), _rms(first[0], scale)
        h = min(max(1e-6 if d1 <= 1e-15 else 0.01 * d0 / d1, 1e-8), 1.0)
        verdict = run(y0, first[0], h, t_max, rel_tol, vol, _domain_exit, match)
    traj.status, payload = verdict
    if traj.status == TrajectoryStatus.CONVERGED:
        traj.equilibrium_id = payload
    elif traj.status == TrajectoryStatus.LEFT_DOMAIN:
        traj.exit_face = payload
    return traj


def integrate_flow(
    p: Parameters,
    x0: tuple[float, ...],
    t_max: float = 50.0,
    rel_tol: float = 1e-10,
    equilibria=None,
) -> Trajectory:
    """Integrate the flow from ``x0`` until it settles on a known
    equilibrium, exits the positivity box, or reaches ``t_max``.

    Two coordinates ``(x1, x2)`` run the planar flow on ``V = 1``, whose
    targets are the equilibrium rays at unit volume.  Three run the
    unreduced 3D flow, whose recorded volume must stay at its initial value
    up to integration error, so its targets are the rays scaled onto that
    level set.
    """
    if not p.reduced_ok:
        raise ValueError("the flow requires all a_i nonzero")
    check_rtol(rel_tol)
    n = len(x0)
    if n not in (2, 3):
        raise ValueError("initial point must have 2 or 3 coordinates")
    if not all(c > 0 for c in x0):
        raise ValueError("initial point must be positive")

    traj = Trajectory()
    a, point, stage, run = _chart(p, traj, n)
    y0 = [math.log(float(c)) for c in x0]
    # the targets are the rays on the run's level set of the volume: V = 1
    # for the planar flow, the start's volume for the 3D flow, which keeps it
    lv = 0.0 if n == 2 else log_volume(p, MetricPoint(*point(y0)))
    targets = [
        tuple(float(c) for c in scale_to_log_volume(p, ray.rep, lv).x[:n])
        for ray in (solve_all(p) if equilibria is None else equilibria)
    ]
    return _drive(traj, a, point, stage, run, targets, y0, float(t_max), float(rel_tol))
