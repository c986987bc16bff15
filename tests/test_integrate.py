import inspect
import itertools
import json
import linecache
import math
import os
import random
import re
import struct
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wallachflow import cli
from wallachflow import flow as flow_mod
from wallachflow import integrate as integrate_mod
from wallachflow.core import Parameters
from wallachflow.equilibria import normalize_unit_volume, solve_all
from wallachflow.flow import MetricPoint, phi, vector_field_2d, vector_field_3d
from wallachflow.integrate import (
    Trajectory,
    TrajectoryStatus,
    _chart_3d,
    _domain_exit,
    _drive,
    _planar_chart,
    integrate_flow,
    integrate_flow_3d,
)


@pytest.fixture(scope="module")
def stable_params():
    return Parameters(Fraction(7, 15), Fraction(7, 15), Fraction(7, 15))


@pytest.fixture(scope="module")
def unstable_params():
    return Parameters(Fraction(1, 6), Fraction(1, 6), Fraction(1, 6))


def _reference_step(f, y, h, first):
    """The Dormand-Prince step as comprehensions over the components, for
    any size: the oracle of the charts' generated steps, which shares no
    code with their generator.  Each weighted sum starts from the int 0,
    where the generated steps start from 0.0, and runs in tableau order,
    zero coefficients kept."""
    (
        (a21,),
        (a31, a32),
        (a41, a42, a43),
        (a51, a52, a53, a54),
        (a61, a62, a63, a64, a65),
        (a71, a72, a73, a74, a75, a76),
    ) = integrate_mod._A
    k1 = first[0]
    stage = f(*[u + h * (0 + a21 * q1) for u, q1 in zip(y, k1)])
    if stage is None:
        return None
    k2 = stage[0]
    stage = f(*[u + h * (0 + a31 * q1 + a32 * q2) for u, q1, q2 in zip(y, k1, k2)])
    if stage is None:
        return None
    k3 = stage[0]
    stage = f(*[
        u + h * (0 + a41 * q1 + a42 * q2 + a43 * q3)
        for u, q1, q2, q3 in zip(y, k1, k2, k3)
    ])
    if stage is None:
        return None
    k4 = stage[0]
    stage = f(*[
        u + h * (0 + a51 * q1 + a52 * q2 + a53 * q3 + a54 * q4)
        for u, q1, q2, q3, q4 in zip(y, k1, k2, k3, k4)
    ])
    if stage is None:
        return None
    k5 = stage[0]
    stage = f(*[
        u + h * (0 + a61 * q1 + a62 * q2 + a63 * q3 + a64 * q4 + a65 * q5)
        for u, q1, q2, q3, q4, q5 in zip(y, k1, k2, k3, k4, k5)
    ])
    if stage is None:
        return None
    k6 = stage[0]
    stage = f(*[
        u + h * (0 + a71 * q1 + a72 * q2 + a73 * q3 + a74 * q4 + a75 * q5 + a76 * q6)
        for u, q1, q2, q3, q4, q5, q6 in zip(y, k1, k2, k3, k4, k5, k6)
    ])
    if stage is None:
        return None
    k7 = stage[0]
    b1, b2, b3, b4, b5, b6, b7 = integrate_mod._B
    e1, e2, e3, e4, e5, e6, e7 = integrate_mod._E
    cols = list(zip(y, k1, k2, k3, k4, k5, k6, k7))
    y5 = [
        u + h * (0 + b1 * q1 + b2 * q2 + b3 * q3 + b4 * q4 + b5 * q5 + b6 * q6 + b7 * q7)
        for u, q1, q2, q3, q4, q5, q6, q7 in cols
    ]
    err = [
        h * (0 + e1 * q1 + e2 * q2 + e3 * q3 + e4 * q4 + e5 * q5 + e6 * q6 + e7 * q7)
        for _u, q1, q2, q3, q4, q5, q6, q7 in cols
    ]
    return y5, err, stage


def _bits(obj):
    """``obj`` with every float replaced by its 8 bytes, so that NaNs and
    signed zeros compare bit for bit."""
    if isinstance(obj, float):
        return struct.pack("<d", obj)
    if isinstance(obj, (list, tuple)):
        return type(obj)(_bits(o) for o in obj)
    return obj


def _step_over(f):
    """``step(y, h, first, rtol)`` over the stage function ``f``, shaped as
    the step that each chart's ``run`` writes inline: ``_reference_step``,
    the finiteness test of the result and ``_rms`` of the error estimate.
    It returns ``(y5, err_norm, k7, x7, v7)``, or None for a step that
    failed."""

    def step(y, h, first, rtol):
        got = _reference_step(f, y, h, (first,))
        if got is None or not all(map(math.isfinite, got[0])):
            return None
        y5, err, (k7, x7, v7) = got
        scale = [rtol * (1 + max(abs(u), abs(w))) for u, w in zip(y, y5)]
        return y5, integrate_mod._rms(err, scale), k7, x7, v7

    return step


def _reference_observe(traj, a, targets, v_ref=None):
    """``observe(t, x, v)``, which records an accepted step on ``traj`` and
    may return a (status, payload) pair that ends the run; the volume's
    reference is ``v_ref``, or the volume at the first call."""
    abs_ref = None if v_ref is None else abs(v_ref)
    a1, a2, a3 = a
    lo, hi, tol = integrate_mod._DOMAIN_LO, integrate_mod._DOMAIN_HI, integrate_mod._FIELD_TOL
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
            face = integrate_mod._domain_exit(x)
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
                if d <= integrate_mod._EQ_DIST_TOL:
                    return (TrajectoryStatus.CONVERGED, idx)
        return None

    return observe


def _reference_integrate(step, y, first, h, t_max, rtol, observe, traj):
    """Step from ``y``, whose derivative is ``first``, with the first step
    size ``h``, until an observer verdict, step underflow or ``t_max``;
    return the verdict.  ``step`` is shaped as ``_step_over``'s, and
    ``observe(t, x, v)`` sees every accepted step.  ``traj`` counts the
    steps, and ``step``'s stages count the field evaluations.  The step
    controller clamps with ``max`` and ``min``, which
    ``TestClampComparisons`` holds equal to the comparisons of ``run``."""
    t = 0.0
    err_prev = 1.0
    while t < t_max:
        if h < integrate_mod._MIN_STEP:
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
            factor = integrate_mod._SAFETY * max(err_norm, 1e-10) ** -integrate_mod._PI_ALPHA
            factor *= err_prev**integrate_mod._PI_BETA
            err_prev = max(err_norm, 1e-10)
            h *= min(integrate_mod._MAX_GROWTH, max(integrate_mod._MIN_SHRINK, factor))
        else:
            traj.steps_rejected += 1
            h *= max(integrate_mod._MIN_SHRINK, integrate_mod._SAFETY * err_norm**-integrate_mod._PI_ALPHA)
    return (TrajectoryStatus.MAX_TIME, None)


def _reference_drive(traj, a, point, stage, _run, targets, y0, t_max, rel_tol):
    """``_drive`` as plain Python: the start, then ``_reference_integrate``
    over ``_step_over(stage)`` with ``_reference_observe``.  The oracle of
    each chart's ``run``, which shares no code with its generator; it takes
    ``_drive``'s arguments and ignores ``run``."""
    observe = _reference_observe(traj, a, targets)
    first = stage(*y0)
    try:
        verdict = observe(0.0, *(first[1:] if first else (point(y0), None)))
        if not all(map(math.isfinite, traj.samples[0])):
            raise OverflowError
    except (ArithmeticError, ValueError):
        raise ValueError("the start point's x3 or volume is outside the float range") from None
    if verdict is None:
        if first is None or not all(map(math.isfinite, first[0])):
            raise ValueError("the flow field cannot be evaluated in floats at the start point")
        scale = [rel_tol * (1.0 + abs(c)) for c in y0]
        d0, d1 = integrate_mod._rms(y0, scale), integrate_mod._rms(first[0], scale)
        h = min(max(1e-6 if d1 <= 1e-15 else 0.01 * d0 / d1, 1e-8), 1.0)
        verdict = _reference_integrate(_step_over(stage), y0, first[0], h, t_max, rel_tol, observe, traj)
    traj.status, payload = verdict
    if traj.status == TrajectoryStatus.CONVERGED:
        traj.equilibrium_id = payload
    elif traj.status == TrajectoryStatus.LEFT_DOMAIN:
        traj.exit_face = payload
    return traj


def _outcome(traj):
    """Everything a run records on ``traj``, floats as bytes."""
    return _bits((
        traj.samples, traj.status, traj.exit_face, traj.equilibrium_id, traj.max_volume_drift,
        traj.field_evals, traj.steps_accepted, traj.steps_rejected,
    ))


@pytest.fixture
def exp_calls(monkeypatch):
    """``math.exp`` replaced by a counting wrapper, which charts made after
    it bind.  ``state["bad"]`` maps a call number (from 0, counted since
    ``state["calls"]`` was last reset) to an exception class to raise or a
    value to return instead; ``state["args"]`` lists the arguments of the
    calls."""
    state = {"calls": 0, "bad": {}, "args": []}
    exp = math.exp

    def counted_exp(u):
        i = state["calls"]
        state["calls"] = i + 1
        state["args"].append(u)
        bad = state["bad"].get(i)
        if bad is None:
            return exp(u)
        if isinstance(bad, type):
            raise bad
        return bad

    monkeypatch.setattr(math, "exp", counted_exp)
    return state


# math.exp calls per stage of each chart: x1, x2 and phi's two factors in
# the planar chart, x1, x2, x3 in 3D
_EXPS_PER_STAGE = {_planar_chart: 4, _chart_3d: 3}
# replacements of the calls of one stage, keyed by the call within the
# stage: an exception of exp, a point outside the float range, and a point
# (1e-200, 1e-200, 1) where x1 * x2 underflows and the field divides by 0
_STAGE_FAILURES = {
    _planar_chart: [{0: OverflowError}, {3: OverflowError}, {0: math.inf}, {1: math.nan}, {2: 0.0},
                    {3: math.inf}, {0: 1e-200, 1: 1e-200, 2: 1.0, 3: 1.0}],
    _chart_3d: [{0: OverflowError}, {2: OverflowError}, {0: math.inf}, {1: math.nan}, {2: 0.0},
                {0: 1e-200, 1: 1e-200, 2: 1.0}],
}
_P = Parameters(Fraction(1, 6), Fraction(1, 4), Fraction(1, 3))


def _start(chart):
    # a log state of the chart's size, away from the equilibria of _P
    return [0.1, -0.2, 0.05][:2 if chart is _planar_chart else 3]


def _stage_point(chart, x):
    """The replacements of one stage's ``math.exp`` calls that put its
    point at ``x``; the planar chart's x3 is the product of its two
    factors."""
    return dict(enumerate(x if chart is _chart_3d else (x[0], x[1], x[2], 1.0)))


# a first step size whose quarter is below _MIN_STEP: a run from it up to
# t_max = _ONE_TRY makes one attempt, taken or retried into step underflow
_ONE_TRY = 2e-14


def _run_from(chart, p, y, h, rtol, exp_calls, bad=None, oracle=False, first=None):
    """A run of ``chart`` at ``p`` from ``y`` up to ``t_max = h`` with the
    first step size ``h``, on a fresh chart and Trajectory, with the
    replacements ``bad`` in the ``math.exp`` calls of the run (see
    ``exp_calls``): the verdict, the outcome on the Trajectory, whose counts
    leave out the start's evaluation, and the arguments of ``math.exp``,
    floats as bytes.  The start's derivative is its stage's unless
    ``first`` is given, and the volume's reference is 1.  The run is the
    chart's ``run``, or with ``oracle`` ``_reference_integrate`` over
    ``_step_over`` the chart's ``stage``; neither has a target."""
    traj = Trajectory()
    a, _point, stage, run = chart(p, traj)
    exp_calls.update(calls=0, bad={})
    k = stage(*y)[0] if first is None else first
    traj.field_evals = 0
    exp_calls.update(calls=0, bad=bad or {}, args=[])
    if oracle:
        observe = _reference_observe(traj, a, [], 1.0)
        verdict = _reference_integrate(_step_over(stage), y, k, h, h, rtol, observe, traj)
    else:
        verdict = run(y, k, h, h, rtol, 1.0, _domain_exit, lambda _x: None)
    return _bits(verdict), _outcome(traj), _bits(exp_calls["args"])


class TestStepper:
    @pytest.mark.parametrize("chart", [_planar_chart, _chart_3d])
    def test_local_error_estimate_order(self, chart):
        # the embedded error estimate of the 5(4) pair shrinks like h^5
        _a, _point, stage, _run = chart(_P, Trajectory())
        y = _start(chart)
        first = stage(*y)[0]
        errs = [_step_over(stage)(y, h, first, 1e-6)[1] for h in (0.1, 0.05, 0.025)]
        assert errs[0] / errs[1] > 2**4.5
        assert errs[1] / errs[2] > 2**4.5

    def test_global_error_tracks_tolerance(self, stable_params):
        # the error at t = 3 of runs at two tolerances, against a run at the
        # least tolerance, shrinks with the tolerance
        x0 = MetricPoint(1.8, 0.7, 1.3)
        finals = []
        for rtol in (1e-6, 1e-9, 1e-12):
            traj = integrate_flow_3d(stable_params, x0, t_max=3.0, rel_tol=rtol)
            assert traj.status == TrajectoryStatus.MAX_TIME and traj.samples[-1][0] == 3.0
            finals.append(traj.final_point)
        errors = [max(abs(c - e) for c, e in zip(final, finals[-1])) for final in finals[:2]]
        assert errors[0] / max(errors[1], 1e-18) > 10

    @pytest.mark.parametrize("chart", [_planar_chart, _chart_3d])
    def test_seventh_stage_is_the_stage_at_the_result(self, chart):
        # FSAL: the last row of the tableau is the 5th-order weights, so the
        # seventh stage of a step, which the next step takes as its first,
        # is, bit for bit, the stage at its result
        _a, _point, stage, _run = chart(_P, Trajectory())
        rng = np.random.default_rng(5)
        for _ in range(20):
            y = rng.uniform(-0.5, 0.5, 2 if chart is _planar_chart else 3).tolist()
            y5, _err_norm, *last = _step_over(stage)(y, float(rng.uniform(0.01, 0.5)), stage(*y)[0], 1e-6)
            assert _bits(tuple(last)) == _bits(stage(*y5))


# the chart whose log state has n components
_CHART_OF_SIZE = {2: _planar_chart, 3: _chart_3d}
# points where the derivative at _P holds inf, -inf or NaN in component i
_NON_FINITE_POINTS = {
    "inf": [(1e50, 1e-300, 1e50), (1e-300, 1e50, 1e50), (1e-300, 1e50, 1e50)],
    "-inf": [(1e300, 1.0, 1.0), (1.0, 1e300, 1.0), (1.0, 1.0, 1e300)],
    "nan": [(1e-300, 1e300, 1.0), (1e-300, 1.0, 1e50), (1e-300, 1e50, 1.0)],
}


class TestStraightLineStep:
    """The Dormand-Prince step that each float chart's ``run`` writes
    inline from the tableau, on its own; ``TestFusedRun`` holds ``run`` to
    the reference."""

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("weights", [0, 1, 2, 3, 4, 5, "_B", "_E"])
    def test_a_zero_sum_starts_from_0(self, n, weights):
        # each weighted sum (row ``weights`` of the stage matrix, the
        # 5th-order weights or the error weights) is written, for each
        # component, 0.0 + c1 * k1 + ... in tableau order, in repr literals:
        # a zero sum is +0.0, as a sum from the int 0 is, and the zero
        # coefficients a72, b2, b7 and e2 are kept, so that a non-finite
        # stage always reaches the sum
        row = getattr(integrate_mod, weights) if isinstance(weights, str) else integrate_mod._A[weights]
        sums = re.findall(r"h \* \(([^()]*)\)", inspect.getsource(_CHART_OF_SIZE[n](_P, Trajectory())[3]))
        # stages 2 to 7, the result and the error estimate of each component
        assert len(sums) == 8 * n and all(s.startswith("0.0 + ") for s in sums)
        for c in "abc"[:n]:
            terms = " + ".join(f"{w!r} * k{i}{c}" for i, w in enumerate(row, 1))
            assert sums.count(f"0.0 + {terms}") == 1, c
        assert sum(s.count(" + 0.0 * k") for s in sums) == 4 * n

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("bad_call", range(1, 7))
    def test_a_stage_that_cannot_be_evaluated_fails_the_step(self, n, bad_call, exp_calls):
        # the first math.exp call of stage bad_call + 1 (stages 2 to 7) of
        # the one attempt raises; no later one runs, and the retry at a
        # quarter of the step size underflows
        chart = _CHART_OF_SIZE[n]
        per, y = _EXPS_PER_STAGE[chart], _start(chart)
        verdict, outcome, _args = _run_from(chart, _P, y, _ONE_TRY, 1e-6, exp_calls)
        assert verdict == (TrajectoryStatus.MAX_TIME, None) and outcome[-3:] == (6, 1, 0)
        bad = {(bad_call - 1) * per: OverflowError}
        verdict, outcome, _args = _run_from(chart, _P, y, _ONE_TRY, 1e-6, exp_calls, bad)
        assert verdict == (TrajectoryStatus.STEP_UNDERFLOW, None)
        assert outcome[-3:] == (bad_call, 0, 1)
        assert exp_calls["calls"] == (bad_call - 1) * per + 1

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("bad_call", range(7))
    @pytest.mark.parametrize("bad_value", [math.inf, -math.inf, math.nan])
    def test_a_non_finite_stage_reaches_the_result(self, n, bad_call, bad_value, exp_calls):
        # the derivative of stage bad_call + 1 holds bad_value in one
        # component: the start's is given so, a later stage sits at a point
        # of _NON_FINITE_POINTS, and every stage after it at (1, 1, 1),
        # whatever its log state; so stage 2 or 7 reaches the result only
        # through its zero weight, which must be kept.  Every stage of the
        # one attempt is evaluated, and the step fails on its result
        chart = _CHART_OF_SIZE[n]
        per, y = _EXPS_PER_STAGE[chart], _start(chart)
        for component in range(n):
            results = []
            for x_bad in ((1.0, 1.0, 1.0), _NON_FINITE_POINTS[repr(bad_value)][component]):
                exp_calls.update(calls=0, bad={})
                first = list(chart(_P, Trajectory())[2](*y)[0])
                if bad_call == 0 and x_bad != (1.0, 1.0, 1.0):
                    first[component] = bad_value
                bad = {}
                for stage_no in range(2, 8):
                    x = x_bad if stage_no == bad_call + 1 else (1.0, 1.0, 1.0)
                    bad.update({(stage_no - 2) * per + j: v for j, v in _stage_point(chart, x).items()})
                verdict, outcome, _args = _run_from(chart, _P, y, _ONE_TRY, 1e-6, exp_calls, bad, first=first)
                results.append((verdict, outcome[-3:], exp_calls["calls"]))
            assert results[0] == (_bits((TrajectoryStatus.MAX_TIME, None)), (6, 1, 0), 6 * per + 1)
            assert results[1] == (_bits((TrajectoryStatus.STEP_UNDERFLOW, None)), (6, 0, 1), 6 * per), component

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("bad_call", range(1, 7))
    def test_the_driver_rejects_a_step_with_a_non_finite_stage(self, n, bad_call, exp_calls):
        # stage bad_call + 1 of the first attempted step sits where the
        # field is NaN; the calls before it are the start's stage and
        # volume.  That step is rejected and the run goes on
        chart = _CHART_OF_SIZE[n]
        per, y = _EXPS_PER_STAGE[chart], _start(chart)
        point = _stage_point(chart, _NON_FINITE_POINTS["nan"][0])
        exp_calls.update(calls=0, bad={per + 1 + (bad_call - 1) * per + j: v for j, v in point.items()})
        traj = Trajectory()
        _drive(traj, *chart(_P, traj), [], y, 1.0, 1e-3)
        assert traj.status == TrajectoryStatus.MAX_TIME
        assert traj.steps_rejected == 1
        assert traj.steps_accepted > 0


class TestFusedRun:
    """Each float chart's generated ``run`` against ``_reference_integrate``
    over ``_step_over`` its own ``stage`` (``_reference_step``, the
    finiteness test and ``_rms``) and ``_reference_observe``, bit for bit:
    the same verdict, samples, volume drift and counts, and the same
    arguments of ``math.exp``, the log states of the stages and the volumes
    of the samples."""

    @staticmethod
    def _both(chart, p, y, h, rtol, exp_calls, bad=None):
        # the oracle and the fused run, each on its own chart and Trajectory
        oracle = _run_from(chart, p, y, h, rtol, exp_calls, bad, oracle=True)
        fused = _run_from(chart, p, y, h, rtol, exp_calls, bad)
        assert oracle == fused
        return fused[:2]

    @pytest.mark.parametrize("a", ["1/6,1/4,1/3", "0.17,0.26,0.33", "0.01,0.01,0.49"])
    @pytest.mark.parametrize("chart", [_planar_chart, _chart_3d])
    def test_equals_the_reference_bit_for_bit(self, chart, a, exp_calls):
        p = Parameters(*(Fraction(s) if "/" in s else float(s) for s in a.split(",")))
        n = 2 if chart is _planar_chart else 3
        rng = np.random.default_rng(23)
        seen = set()
        for _ in range(60):
            y = rng.uniform(-3.0, 3.0, n).tolist()
            h = float(10 ** rng.uniform(-8, 0))
            rtol = float(10 ** rng.uniform(-12, -3))
            _a, _point, stage, _run = chart(p, Trajectory())
            if stage(*y) is None:
                continue
            _verdict, outcome = self._both(chart, p, y, h, rtol, exp_calls)
            evals, accepted, rejected = outcome[-3:]
            seen.add((rejected > 0, evals < 6 * (accepted + rejected)))
        # the draws include runs with no retry, and retries after a failed
        # stage
        assert (False, False) in seen and (True, True) in seen

    @pytest.mark.parametrize("chart", [_planar_chart, _chart_3d])
    @pytest.mark.parametrize("stage_no", range(2, 8))
    def test_a_failed_stage_is_counted_alike(self, chart, stage_no, exp_calls):
        per, y = _EXPS_PER_STAGE[chart], _start(chart)
        assert self._both(chart, _P, y, _ONE_TRY, 1e-6, exp_calls)[1][-3:] == (6, 1, 0)
        for failure in _STAGE_FAILURES[chart]:
            bad = {(stage_no - 2) * per + j: value for j, value in failure.items()}
            verdict, outcome = self._both(chart, _P, y, _ONE_TRY, 1e-6, exp_calls, bad)
            assert verdict == _bits((TrajectoryStatus.STEP_UNDERFLOW, None)), failure
            assert outcome[-3:] == (stage_no - 1, 0, 1), failure

    @pytest.mark.parametrize("chart", [_planar_chart, _chart_3d])
    def test_a_result_that_is_not_finite_fails_the_step(self, chart, exp_calls):
        # the seventh stage at (1e-300, 1e300, 1), where the ratio x2 / (x1
        # x3) overflows and the field is inf - inf = NaN: every stage is
        # evaluated, and the NaN reaches the result through the stage's zero
        # weight
        per, y = _EXPS_PER_STAGE[chart], _start(chart)
        bad = {5 * per + j: value for j, value in _stage_point(chart, (1e-300, 1e300, 1.0)).items()}
        verdict, outcome = self._both(chart, _P, y, _ONE_TRY, 1e-6, exp_calls, bad)
        assert verdict == _bits((TrajectoryStatus.STEP_UNDERFLOW, None))
        assert outcome[-3:] == (6, 0, 1)
        # the reference evaluates every stage and returns a NaN result
        _a, _point, stage, _run = chart(_P, Trajectory())
        exp_calls.update(calls=0, bad={})
        first = stage(*y)
        exp_calls.update(calls=0, bad=bad)
        y5, _err, _last = _reference_step(stage, y, _ONE_TRY, first)
        assert not all(map(math.isfinite, y5))

    @pytest.mark.parametrize("three_d", [False, True])
    def test_seeded_runs_equal_the_reference_driver(self, three_d, exp_calls, monkeypatch):
        # integrate_flow and integrate_flow_3d from seeded starts, at exact
        # and float parameters, through _drive and through _reference_drive:
        # the same samples, status, exit face, equilibrium, volume drift and
        # counts, bit for bit, and the same arguments of math.exp
        rng = random.Random(11)
        drive = integrate_mod._drive
        seen = []
        for a in ("1/6,1/4,1/3", "7/15,7/15,7/15", "1/6,1/6,1/6", "0.17,0.26,0.33"):
            p = Parameters(*(Fraction(s) if "/" in s else float(s) for s in a.split(",")))
            rays = solve_all(p)
            for rtol in (1e-6, 1e-10):
                for _ in range(3):
                    x = [math.exp(rng.uniform(-0.5, 0.5)) for _ in range(3 if three_d else 2)]
                    runs = []
                    for driver in (_reference_drive, drive):
                        monkeypatch.setattr(integrate_mod, "_drive", driver)
                        exp_calls.update(calls=0, bad={}, args=[])
                        if three_d:
                            traj = integrate_flow_3d(p, MetricPoint(*x), t_max=60.0, rel_tol=rtol, equilibria=rays)
                        else:
                            traj = integrate_flow(p, tuple(x), t_max=60.0, rel_tol=rtol, equilibria=rays)
                        runs.append((_outcome(traj), _bits(exp_calls["args"])))
                    assert runs[0] == runs[1], (a, x, rtol)
                    seen.append((a, traj.status, traj.steps_rejected > 0))
        assert {status for _a, status, _rejected in seen} == {
            TrajectoryStatus.CONVERGED, TrajectoryStatus.LEFT_DOMAIN, TrajectoryStatus.MAX_TIME,
        }
        assert any(rejected for _a, _status, rejected in seen)

    def test_the_generated_text_is_shown(self):
        # each chart's run is compiled from text registered in linecache,
        # with the map and the field's text spliced into each of its stages;
        # the planar chart leaves out the field's v3, which it never reads
        field = flow_mod._FIELD_TEXT.splitlines()
        for chart, name in ((_planar_chart, "planar"), (_chart_3d, "3d")):
            _a, point, stage, run = chart(_P, Trajectory())
            source = inspect.getsource(run)
            assert source.startswith("    def run(y, first, h, t_max, rtol, v_ref, exit_face, match):\n")
            assert inspect.getsourcefile(run) == f"<{name} chart>"
            statements = [statement for statement, _test in integrate_mod._CHARTS[name][2]]
            spliced = [line for line in field if name == "3d" or not line.startswith("v3 =")]
            for line in spliced + statements:
                assert source.count(f"                {line}\n") == 6, line
                assert inspect.getsource(stage).count(f"{line}\n") == 1, line
            assert "_field" not in source and "step(" not in source
            assert inspect.getsource(point).count(statements[-1]) == 1
        # _field is compiled from the same text
        source = inspect.getsource(flow_mod._field)
        assert all(f"    {line}\n" in source for line in field)

    def test_only_the_3d_chart_computes_v3(self):
        # the planar chart's k and velocity read v1 and v2 only, and v3's
        # float products and sums never raise, so its line is left out
        _planar_chart(_P, Trajectory())
        _chart_3d(_P, Trajectory())
        texts = {name: "".join(linecache.getlines(f"<{name} chart>")) for name in ("planar", "3d")}
        assert not re.search(r"^ *v3 = ", texts["planar"], re.M)
        assert len(re.findall(r"^ *v3 = ", texts["3d"], re.M)) == 7

    def test_importing_the_cli_compiles_no_step(self):
        # the chart runs are compiled on first use
        code = "import wallachflow.cli, wallachflow.integrate as i\nprint(sorted(i._CHART_FACTORIES))"
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
        assert out.stdout == "[]\n"


_CLAMP_VALUES = [math.nan, math.inf, -math.inf, 1e-10, 0.2, 5.0, 0.0, -0.0, 1.0]


class TestClampComparisons:
    """Each chart's ``run`` clamps by comparisons where the driver called
    ``max`` and ``min``: ``max(a, b)`` is ``b if b > a else a`` and ``min(a,
    b)`` is ``b if b < a else a``, so the bits are the same, NaN and the
    infinities included.  The step controller's forms are written here as in
    ``run``; the field test is read from ``run``'s text."""

    @settings(max_examples=300, deadline=None)
    @given(x=st.one_of(st.sampled_from(_CLAMP_VALUES), st.floats()))
    def test_step_controller(self, x):
        lo, hi = integrate_mod._MIN_SHRINK, integrate_mod._MAX_GROWTH
        # the growth after an accepted step
        factor = x
        if not factor > lo:
            factor = lo
        elif factor > hi:
            factor = hi
        assert _bits(factor) == _bits(min(hi, max(lo, x)))
        # the shrink after a rejected step
        assert _bits(x if x > lo else lo) == _bits(max(lo, x))
        # the floor of an accepted error norm
        err_norm = x
        if err_norm < 1e-10:
            err_norm = 1e-10
        assert _bits(err_norm) == _bits(max(x, 1e-10))

    @settings(max_examples=300, deadline=None)
    @given(
        old=st.one_of(st.sampled_from(_CLAMP_VALUES), st.floats()),
        new=st.one_of(st.sampled_from(_CLAMP_VALUES), st.floats()),
    )
    def test_drift_update(self, old, new):
        drift_max = old
        if new > drift_max:
            drift_max = new
        assert _bits(drift_max) == _bits(max(old, new))

    @pytest.mark.parametrize("chart", [_planar_chart, _chart_3d])
    def test_a_huge_error_shrinks_the_step_by_the_floor(self, chart, exp_calls):
        # stage 7 of the first step sits at (1e-100, 1, 1), where the
        # derivative is about 1e100: it has no weight in the result but the
        # error weight -1/40, so 0.9 * err_norm**-0.14 is far below
        # _MIN_SHRINK and the retry takes h * _MIN_SHRINK
        per, y = _EXPS_PER_STAGE[chart], _start(chart)
        bad = {5 * per + j: value for j, value in _stage_point(chart, (1e-100, 1.0, 1.0)).items()}
        _verdict, outcome, args = _run_from(chart, _P, y, 0.1, 1e-6, exp_calls, bad)
        assert outcome[-1] == 1
        # the first call of each attempt is the second stage's exp(ya), at
        # ya = y[0] + h * _A21 * k1a
        h1, h2 = (struct.unpack("<d", args[i])[0] - y[0] for i in (0, 6 * per))
        assert h2 / h1 == pytest.approx(integrate_mod._MIN_SHRINK, rel=1e-9)

    @pytest.mark.parametrize("chart", [_planar_chart, _chart_3d])
    def test_field_test_of_run(self, chart):
        # run ends in convergence at a target only where max(map(abs, v))
        # <= _FIELD_TOL, which fails at a NaN first component and skips a
        # later one; its test is read from the generated text
        n = 2 if chart is _planar_chart else 3
        (test,) = re.findall(r"^ *if (abs\(v1\) .*):$", inspect.getsource(chart(_P, Trajectory())[3]), re.M)
        tol = integrate_mod._FIELD_TOL
        values = [math.nan, math.inf, 0.0, -tol, tol, 2 * tol]
        seen = set()
        for v in itertools.product(values, repeat=n):
            want = max(map(abs, v)) <= tol
            assert eval(test, {}, {f"v{j}": vj for j, vj in enumerate(v, 1)}) == want, v
            seen.add((want, math.isnan(v[0]), any(map(math.isnan, v[1:]))))
        assert seen >= {(False, True, False), (True, False, True), (False, False, True)}

    @pytest.mark.parametrize("n", [2, 3])
    def test_field_test_of_the_start(self, n):
        # the start sits on the one target with velocity v; the run
        # converges at once iff max(map(abs, v)) <= _FIELD_TOL
        tol = integrate_mod._FIELD_TOL
        values = [math.nan, math.inf, 0.0, -tol, tol, 2 * tol]
        x = (1.0, 1.0, 1.0)
        for v in itertools.product(values, repeat=n):
            traj = Trajectory()
            stage = lambda *_y, v=v: ((0.0,) * n, x, v)  # noqa: E731
            run = lambda *_args: (TrajectoryStatus.MAX_TIME, None)  # noqa: E731
            _drive(traj, x, None, stage, run, [x[:n]], [0.0] * n, 1e-3, 1e-6)
            assert (traj.status == TrajectoryStatus.CONVERGED) == (max(map(abs, v)) <= tol), v


class TestRunStatus:
    def test_a_run_within_the_least_step_of_tmax_ends_at_tmax(self, stable_params):
        # t_max below _MIN_STEP once ended "step_underflow" with no step
        for t_max in (1e-20, 0.5 * integrate_mod._MIN_STEP):
            traj = integrate_flow(stable_params, (1.05, 0.95), t_max=t_max)
            assert traj.status == TrajectoryStatus.MAX_TIME
            assert traj.steps_accepted == 1
            assert [s[0] for s in traj.samples] == [0.0, t_max]

    def test_tiny_tmax_from_the_command_line(self, capsys):
        argv = ["flow", "--a", "1/6,1/4,1/3", "--x0", "1.05,0.95", "--tmax", "1e-20"]
        assert cli.main(argv) == 0
        (run,) = json.loads(capsys.readouterr().err)["runs"]
        assert (run["status"], run["steps"]) == ("max_time", 2)

    def test_a_stage_that_fails_everywhere_ends_step_underflow(self, stable_params, monkeypatch):
        # the field works at the start only: once the chart's run starts,
        # math.exp raises OverflowError in every stage, so every step is
        # retried at a quarter of its size until the size drops below
        # _MIN_STEP
        stepping = []
        exp, drive = math.exp, integrate_mod._drive

        def failing_exp(u):
            if stepping:
                raise OverflowError
            return exp(u)

        def drive_stepping(traj, a, point, stage, run, *args):
            def start_stepping(*run_args):
                stepping.append(True)
                return run(*run_args)

            return drive(traj, a, point, stage, start_stepping, *args)

        # the charts bind math.exp when they are made, inside integrate_flow
        monkeypatch.setattr(math, "exp", failing_exp)
        monkeypatch.setattr(integrate_mod, "_drive", drive_stepping)
        for x0 in ((1.05, 0.95), MetricPoint(1.05, 0.95, 1.0)):
            stepping.clear()
            run = integrate_flow if isinstance(x0, tuple) else integrate_flow_3d
            traj = run(stable_params, x0, t_max=1.0)
            assert traj.status == TrajectoryStatus.STEP_UNDERFLOW
            assert traj.steps_accepted == 0 and traj.steps_rejected > 0
            assert traj.field_evals == 1 + traj.steps_rejected


# parameters of at least 1/50 keep phi's exponents below 25 in size, so
# x3 = phi(x1, x2) stays far inside the float range on these coordinates
_exact = st.fractions(min_value=Fraction(1, 50), max_value=Fraction(1, 2), max_denominator=200)
_float = st.floats(min_value=0.02, max_value=0.5)
_param = st.one_of(_exact, _float)
_coord = st.floats(min_value=0.1, max_value=10.0)


class TestFloatCharts:
    """The charts convert the parameters to floats once; the field they
    evaluate must equal the exact-parameter formulas bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(a=st.tuples(_param, _param, _param), x=st.tuples(_coord, _coord, _coord))
    def test_float_field_equals_the_formula(self, a, x):
        p = Parameters(*a)
        _a, point, stage, _step = _chart_3d(p, Trajectory())
        y = [math.log(c) for c in x]
        k, xs, v = stage(*y)
        assert xs == point(y) == tuple(math.exp(u) for u in y)
        assert _bits(v) == _bits(vector_field_3d(p, MetricPoint(*xs)).v)
        assert _bits(k) == _bits(tuple(vi / xi for vi, xi in zip(v, xs)))

    @settings(max_examples=300, deadline=None)
    @given(
        a=st.tuples(*[st.floats(min_value=0.01, max_value=0.5)] * 3),
        x=st.tuples(*[st.floats(min_value=1e-150, max_value=1e150)] * 3),
    )
    def test_float_unit(self, a, x):
        # the charts splice the field's text in with the unit 1.0; an int 1
        # is converted to 1.0 in each float operation, so the bits are the
        # same as flow._field's, over the float range of the field
        p = Parameters(*a)
        _a, _point, stage, _step = _chart_3d(p, Trajectory())
        _k, xs, v = stage(*(math.log(c) for c in x))
        assert _bits(v) == _bits(flow_mod._field(*p.a, *xs)[:3])

    @settings(max_examples=300, deadline=None)
    @given(a=st.tuples(_param, _param, _param), x=st.tuples(_coord, _coord))
    def test_planar_chart_equals_phi_and_the_planar_field(self, a, x):
        p = Parameters(*a)
        _a, point, stage, _step = _planar_chart(p, Trajectory())
        y = [math.log(c) for c in x]
        k, (x1, x2, x3), v = stage(*y)
        assert (x1, x2, x3) == point(y)
        assert (x1, x2) == (math.exp(y[0]), math.exp(y[1]))
        assert x3 == phi(p, x1, x2)
        assert v == vector_field_2d(p, x1, x2)
        assert k == (v[0] / x1, v[1] / x2)


class TestPlanarIntegration:
    def test_equilibrium_start_is_fixed(self, unstable_params):
        traj = integrate_flow(unstable_params, (1.0, 1.0), t_max=10.0)
        assert traj.status == TrajectoryStatus.CONVERGED
        assert len(traj.samples) == 1
        assert traj.max_volume_drift == 0.0

    def test_volume_pinned_along_reduced_flow(self, unstable_params):
        traj = integrate_flow(unstable_params, (1.05, 0.95), t_max=100.0, rel_tol=1e-10)
        assert traj.status in (TrajectoryStatus.CONVERGED, TrajectoryStatus.LEFT_DOMAIN)
        assert traj.max_volume_drift <= 1e-8

    def test_converges_to_stable_node(self, stable_params):
        traj = integrate_flow(stable_params, (1.08, 0.93), t_max=300.0)
        assert traj.status == TrajectoryStatus.CONVERGED
        final = traj.final_point
        assert abs(final[0] - 1.0) < 1e-5 and abs(final[1] - 1.0) < 1e-5

    def test_rejects_bad_tolerance_and_start(self, unstable_params):
        with pytest.raises(ValueError):
            integrate_flow(unstable_params, (1.0, 1.0), rel_tol=1.0)
        with pytest.raises(ValueError):
            integrate_flow(unstable_params, (-1.0, 1.0))

    def test_positive_samples(self, stable_params):
        traj = integrate_flow(stable_params, (0.5, 1.7), t_max=50.0)
        for (_t, x1, x2, x3, _v) in traj.samples:
            assert x1 > 0 and x2 > 0 and x3 > 0

    def test_times_strictly_increasing(self, stable_params):
        traj = integrate_flow(stable_params, (0.8, 1.2), t_max=50.0)
        times = [s[0] for s in traj.samples]
        assert all(b > a for a, b in zip(times, times[1:]))


class TestVolumeConservation3D:
    def test_equilibrium_ray_start(self, unstable_params):
        traj = integrate_flow_3d(unstable_params, MetricPoint(2.0, 1.0, 1.0), t_max=10.0)
        assert traj.status == TrajectoryStatus.CONVERGED
        assert traj.max_volume_drift == 0.0

    def test_drift_small_on_random_starts(self, stable_params):
        rng = np.random.default_rng(9)
        for _ in range(3):
            x0 = MetricPoint(*np.exp(rng.uniform(-0.5, 0.5, 3)))
            traj = integrate_flow_3d(stable_params, x0, t_max=50.0, rel_tol=1e-10)
            assert traj.max_volume_drift <= 1e-7

    def test_drift_stays_at_rounding_for_any_tolerance(self, stable_params):
        # log-coordinate integration makes the conserved volume a linear
        # invariant of the transformed system, so the stepper preserves it to
        # rounding regardless of tolerance
        x0 = MetricPoint(1.8, 0.7, 1.3)
        for rtol in (1e-4, 1e-8, 1e-12):
            traj = integrate_flow_3d(stable_params, x0, t_max=20.0, rel_tol=rtol)
            assert traj.max_volume_drift <= 1e-12


class TestLimitClassification:
    def test_constant_trajectory(self, unstable_params):
        rays = solve_all(unstable_params)
        targets = [
            tuple(float(v) for v in normalize_unit_volume(unstable_params, r).x)[:2]
            for r in rays
        ]
        traj = integrate_flow(unstable_params, (1.0, 1.0), t_max=5.0, equilibria=rays)
        assert traj.status == TrajectoryStatus.CONVERGED
        assert targets[traj.equilibrium_id] == (1.0, 1.0)
        assert traj.exit_face is None

    def test_domain_exit_reports_face(self, unstable_params):
        # the node is unstable here, so a generic start escapes the box
        traj = integrate_flow(unstable_params, (1.4, 0.6), t_max=500.0)
        assert traj.status == TrajectoryStatus.LEFT_DOMAIN
        assert traj.exit_face in {f"x{i}-{side}" for i in (1, 2, 3) for side in ("min", "max")}
        assert traj.equilibrium_id is None

    @pytest.mark.parametrize("i", range(3))
    @pytest.mark.parametrize("value, side", [
        (1e-8, None),
        (1e8, None),
        (math.nextafter(1e-8, 0.0), "min"),
        (math.nextafter(1e8, math.inf), "max"),
        (math.nan, None),
    ])
    def test_the_box_is_closed(self, i, value, side, exp_calls, monkeypatch):
        # the run tests the range first and asks _domain_exit for the face
        # only outside it; a NaN fails the range test but has no face, and
        # no stage has a NaN point
        x = tuple(value if j == i else 1.0 for j in range(3))
        face = None if side is None else f"x{i + 1}-{side}"
        assert _domain_exit(x) == face
        if math.isnan(value):
            return
        asked = []
        monkeypatch.setattr(integrate_mod, "_domain_exit", lambda x: asked.append(x) or _domain_exit(x))
        # the 3D chart from (1, 1, 1), then every stage of the first 40
        # steps at x: the start's stage and volume take math.exp calls 0 to
        # 3, and each step 18 stage calls and one for the volume.  At
        # rel_tol 1e20 every step is taken
        exp_calls.update(calls=0, bad={4 + 19 * step + j: x[j % 3] for step in range(40) for j in range(18)})
        traj = Trajectory()
        _drive(traj, *_chart_3d(_P, traj), [], [0.0, 0.0, 0.0], 1.0, 1e20)
        assert traj.exit_face == face
        assert asked[0] == (1.0, 1.0, 1.0) and bool(asked[1:]) == (face is not None)
        if face is None:
            assert traj.status == TrajectoryStatus.MAX_TIME and 1 < traj.steps_accepted < 40
        else:
            assert traj.status == TrajectoryStatus.LEFT_DOMAIN and traj.steps_accepted == 1

    def test_start_beyond_the_float_range_is_an_error(self, stable_params):
        # x3 = phi(x1, x2) overflows here, so the start and its volume have
        # no float value, although the start also lies outside the box
        with pytest.raises(ValueError, match="float range"):
            integrate_flow(stable_params, (1e-300, 1e-300))

    @pytest.mark.parametrize("a1, weight", [(0.0, 1.0), (1.0, math.nan)])
    def test_start_inside_the_box_where_the_field_fails_is_an_error(self, a1, weight):
        # at the start x = (1, 1, 1), inside the box, the charts' field
        # raises ZeroDivisionError (1 / (a1 x1) at a1 = 0) or is NaN (a NaN
        # weight): the stage rejects the ArithmeticError, a NaN derivative
        # fails the start like it, and the field is evaluated once.  The
        # driver's volume reads the parameters (1, 1, 1)
        for name, y0, exponents in (("planar", [0.0, 0.0], (-1.0, -1.0)), ("3d", [0.0] * 3, ())):
            traj = Trajectory()
            chart = integrate_mod._chart(name, traj, a1, 1.0, 1.0, weight, *exponents)
            with pytest.raises(ValueError, match="cannot be evaluated in floats at the start point"):
                _drive(traj, (1.0, 1.0, 1.0), *chart, [], y0, 1.0, 1e-6)
            assert traj.field_evals == 1

    def test_start_where_the_field_is_nan_is_an_error(self, capsys):
        # 1 / (a1 x1) overflows and the normalization weight underflows, so
        # the field is inf * 0 = NaN at the start, where the first step size
        # would be NaN and no rejection would end the run
        p = Parameters(1e-309, 1e10, 1e10)
        with pytest.raises(ValueError, match="cannot be evaluated in floats at the start point"):
            integrate_flow_3d(p, MetricPoint(1.0, 1.0, 1.0))
        argv = ["flow", "--a", "1e-309,1e10,1e10", "--x0", "1,1,1", "--three-d"]
        assert cli.main(argv) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: the flow field cannot be evaluated in floats at the start point\n"

    def test_3d_stage_beyond_the_float_range_is_rejected(self, stable_params):
        # math.exp raises OverflowError at this log state; the stage and the
        # run count the evaluation and reject the stage instead of raising
        traj = Trajectory()
        _a, point, stage, run = _chart_3d(stable_params, traj)
        with pytest.raises(OverflowError):
            point([800.0, 0.0, 0.0])
        assert stage(800.0, 0.0, 0.0) is None
        assert traj.field_evals == 1
        # the one attempt's second stage lies next to the log state 800
        first = stage(0.0, 0.0, 0.0)[0]
        verdict = run([800.0, 0.0, 0.0], first, _ONE_TRY, _ONE_TRY, 1e-6, 1.0, _domain_exit, lambda _x: None)
        assert verdict == (TrajectoryStatus.STEP_UNDERFLOW, None)
        assert (traj.field_evals, traj.steps_accepted, traj.steps_rejected) == (3, 0, 1)

    def test_3d_start_at_the_largest_float_is_a_domain_error(self, capsys):
        # the start's volume leaves the float range
        argv = ["flow", "--a", "1/6,1/4,1/3", "--three-d", "--x0", "1.7976931348623157e308,1,1"]
        assert cli.main(argv) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: the start point's x3 or volume is outside the float range\n"

    def test_saddle_avoidance(self, unstable_params):
        # random starts never settle on a saddle: they reach the node or leave
        rays = solve_all(unstable_params)
        targets = [
            tuple(float(v) for v in normalize_unit_volume(unstable_params, r).x)[:2]
            for r in rays
        ]
        node_ids = {
            i for i, r in enumerate(rays) if r.key() == (1.0, 1.0)
        }
        rng = np.random.default_rng(31)
        for _ in range(100):
            x0 = tuple(np.exp(rng.uniform(-0.4, 0.4, 2)))
            traj = integrate_flow(unstable_params, x0, t_max=400.0, equilibria=rays)
            if traj.status == TrajectoryStatus.CONVERGED:
                assert traj.equilibrium_id in node_ids
            else:
                assert traj.status in (
                    TrajectoryStatus.LEFT_DOMAIN,
                    TrajectoryStatus.MAX_TIME,
                )
