import inspect
import itertools
import json
import math
import os
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
    _integrate,
    _planar_chart,
    dopri_step,
    integrate_flow,
    integrate_flow_3d,
)


@pytest.fixture(scope="module")
def stable_params():
    return Parameters(Fraction(7, 15), Fraction(7, 15), Fraction(7, 15))


@pytest.fixture(scope="module")
def unstable_params():
    return Parameters(Fraction(1, 6), Fraction(1, 6), Fraction(1, 6))


class TestStepper:
    def test_local_error_estimate_order(self):
        # the embedded error estimate of the 5(4) pair shrinks like h^5
        mat = ((-1.0, 2.0), (0.5, -2.0))

        def f(*y):
            return ([row[0] * y[0] + row[1] * y[1] for row in mat],)

        y0 = [1.0, -0.3]
        errs = []
        for h in (0.1, 0.05, 0.025):
            _y, err, _last = dopri_step(f, y0, h, f(*y0))
            errs.append(max(abs(e) for e in err))
        assert errs[0] / errs[1] > 2**4.5
        assert errs[1] / errs[2] > 2**4.5

    def test_global_error_tracks_tolerance(self):
        # manufactured linear problem with known solution, on two equal
        # components because the stepper takes a chart's 2 or 3
        lam = -1.3

        def f(*y):
            return ([lam * y[0], lam * y[1]], y, None)

        errors = []
        for rtol in (1e-6, 1e-9):
            final = {}

            def observe(t, x, _v):
                final["t"], final["y"] = t, x[0]
                assert x[1] == x[0]
                return None

            status, _ = _integrate(_step_over(f), [1.0, 1.0], f(1.0, 1.0)[0], 3.0, rtol, observe, Trajectory())
            assert status == TrajectoryStatus.MAX_TIME
            errors.append(abs(final["y"] - math.exp(lam * final["t"])))
        assert errors[0] / max(errors[1], 1e-18) > 10

    @pytest.mark.parametrize("chart", [_planar_chart, _chart_3d])
    def test_seventh_stage_is_the_stage_at_the_result(self, chart):
        # FSAL: the last row of the tableau is the 5th-order weights, so the
        # stage the step returns is, bit for bit, the field at its result
        p = Parameters(Fraction(1, 6), Fraction(1, 4), Fraction(1, 3))
        _a, _point, f, _step = chart(p, Trajectory())
        rng = np.random.default_rng(5)
        for _ in range(20):
            y = rng.uniform(-0.5, 0.5, 2 if chart is _planar_chart else 3).tolist()
            y5, _err, last = dopri_step(f, y, float(rng.uniform(0.01, 0.5)), f(*y))
            assert last == f(*y5)

    def test_unevaluable_stage_fails_the_step(self):
        # y' = (1, 1) from 0: the stages of a step of size h reach y = h
        def f(*y):
            return None if y[0] > 0.3 else ([1.0, 1.0],)

        assert dopri_step(f, [0.0, 0.0], 0.5, f(0.0, 0.0)) is None
        assert dopri_step(f, [0.0, 0.0], 0.1, f(0.0, 0.0)) is not None

    def test_the_generated_source_is_shown(self):
        # the step is compiled from generated text, registered in linecache
        source = inspect.getsource(dopri_step)
        assert source.startswith("def dopri_step(f, y, h, first):\n")
        assert "k7c = stage[0]" in source

    @pytest.mark.parametrize("n", [1, 4])
    def test_only_the_chart_sizes_are_stepped(self, n):
        def f(*y):
            return ([1.0] * n,)

        with pytest.raises(ValueError):
            dopri_step(f, [0.0] * n, 0.1, f(*[0.0] * n))


def _reference_step(f, y, h, first):
    """The Dormand-Prince step as comprehensions over the components, for
    any size: the oracle of the straight-line ``dopri_step``.  Each weighted
    sum starts from the int 0, where ``dopri_step`` starts from 0.0, and
    runs in tableau order, zero coefficients kept."""
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
    a chart's generated step: ``dopri_step``, the finiteness test of the
    result and ``_rms`` of the error estimate.  The oracle of those steps,
    and the step of the stage functions written here."""

    def step(y, h, first, rtol):
        got = dopri_step(f, y, h, (first,))
        if got is None or not all(map(math.isfinite, got[0])):
            return None
        y5, err, (k7, x7, v7) = got
        scale = [rtol * (1 + max(abs(u), abs(w))) for u, w in zip(y, y5)]
        return y5, integrate_mod._rms(err, scale), k7, x7, v7

    return step


def _constant_field(n, bad_call=None, bad_value=math.nan, component=0):
    """``y' = (1, 2, 3)[:n]`` whatever ``y``, except that call ``bad_call``
    (0 is the first stage) puts ``bad_value`` in one component."""
    calls = []

    def f(*y):
        k = [1.0, 2.0, 3.0][:n]
        if len(calls) == bad_call:
            k[component] = bad_value
        calls.append(y)
        return (k, y, None)

    return f


class TestStraightLineStep:
    """``dopri_step`` against the comprehension form it replaced."""

    @pytest.mark.parametrize("a", ["1/6,1/4,1/3", "0.17,0.26,0.33", "0.01,0.01,0.49"])
    @pytest.mark.parametrize("chart", [_planar_chart, _chart_3d])
    def test_equals_the_reference_bit_for_bit(self, chart, a):
        p = Parameters(*(Fraction(s) if "/" in s else float(s) for s in a.split(",")))
        _a, _point, stage, _step = chart(p, Trajectory())
        n = 2 if chart is _planar_chart else 3
        rng = np.random.default_rng(17)
        failed = 0
        for _ in range(200):
            y = rng.uniform(-3.0, 3.0, n).tolist()
            first = stage(*y)
            if first is None:
                continue
            h = float(10 ** rng.uniform(-8, 1))
            # the stage inputs must agree too
            inputs, ref_inputs = [], []
            got = dopri_step(lambda *u: inputs.append(u) or stage(*u), y, h, first)
            ref = _reference_step(lambda *u: ref_inputs.append(u) or stage(*u), y, h, first)
            assert _bits((got, inputs)) == _bits((ref, ref_inputs))
            failed += got is None
        # the draws include steps whose stages leave the float range
        assert 0 < failed < 200

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("weights", [0, 1, 2, 3, 4, 5, "_B", "_E"])
    def test_a_zero_sum_starts_from_0(self, n, weights):
        # each stage is a zero with the sign that makes its weighted term in
        # one sum -0.0 (row ``weights`` of the stage matrix, the 5th-order
        # weights or the error weights); a sum that starts from 0 turns that
        # into +0.0, and so does the state -0.0 it is added to
        if isinstance(weights, str):
            row = getattr(integrate_mod, weights)
        else:
            row = integrate_mod._A[weights]
        signs = [-0.0 if w >= 0 else 0.0 for w in row] + [-0.0] * (7 - len(row))

        def run(step):
            calls = []

            def f(*y):
                k = [signs[len(calls)]] * n
                calls.append(y)
                return (k, y, None)

            return step(f, [-0.0] * n, 0.5, f(*[-0.0] * n)), calls

        got, inputs = run(dopri_step)
        assert _bits((got, inputs)) == _bits(run(_reference_step))
        y5, err, _last = got
        if weights == "_B":
            zero = y5
        elif weights == "_E":
            zero = err
        else:
            zero = inputs[1 + weights]  # inputs[0] is the start's stage
        assert [math.copysign(1.0, v) for v in zero] == [1.0] * n

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("bad_call", range(1, 7))
    def test_a_stage_that_cannot_be_evaluated_fails_the_step(self, n, bad_call):
        # stage bad_call + 1 (stages 2 to 7) returns None; no later one runs
        calls = []

        def f(*y):
            calls.append(y)
            return None if len(calls) == bad_call else ([1.0] * n,)

        assert dopri_step(f, [0.0] * n, 0.1, ([1.0] * n,)) is None
        assert len(calls) == bad_call
        calls.clear()
        assert _reference_step(f, [0.0] * n, 0.1, ([1.0] * n,)) is None

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("bad_call", range(7))
    @pytest.mark.parametrize("bad_value", [math.inf, -math.inf, math.nan])
    def test_a_non_finite_stage_reaches_the_result(self, n, bad_call, bad_value):
        # the derivative does not depend on y, so a non-finite stage 2 or 7
        # reaches y5 only through its zero weight, which must be kept
        for component in range(n):
            f = _constant_field(n, bad_call, bad_value, component)
            first = f(*[0.0] * n)
            step = dopri_step(f, [0.0] * n, 0.1, first)
            g = _constant_field(n, bad_call, bad_value, component)
            assert _bits(step) == _bits(_reference_step(g, [0.0] * n, 0.1, g(*[0.0] * n)))
            y5, err, _last = step
            assert not math.isfinite(y5[component])
            assert not all(map(math.isfinite, err))

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("bad_call", range(1, 7))
    def test_the_driver_rejects_a_step_with_a_non_finite_stage(self, n, bad_call):
        # call 0 is the start's stage, calls 1 to 6 are stages 2 to 7 of the
        # first attempted step; that step is rejected and the run goes on
        f = _constant_field(n, bad_call)
        traj = Trajectory()
        status, _ = _integrate(_step_over(f), [0.0] * n, f(*[0.0] * n)[0], 1.0, 1e-6, lambda *_: None, traj)
        assert status == TrajectoryStatus.MAX_TIME
        assert traj.steps_rejected == 1
        assert traj.steps_accepted > 0


@pytest.fixture
def exp_calls(monkeypatch):
    """``math.exp`` replaced by a counting wrapper, which charts made after
    it bind.  ``state["bad"]`` maps a call number (from 0, counted since
    ``state["calls"]`` was last reset) to an exception class to raise or a
    value to return instead."""
    state = {"calls": 0, "bad": {}}
    exp = math.exp

    def counted_exp(u):
        i = state["calls"]
        state["calls"] = i + 1
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
# the seventh stage at (1e-300, 1e300, 1), where the ratio x2 / (x1 x3)
# overflows and the field is inf - inf = NaN: every stage is evaluated, and
# the NaN reaches the result through the stage's zero weight
_NAN_SEVENTH_STAGE = {
    _planar_chart: {0: 1e-300, 1: 1e300, 2: 1.0, 3: 1.0},
    _chart_3d: {0: 1e-300, 1: 1e300, 2: 1.0},
}


class TestFusedSteps:
    """Each float chart's generated ``step`` against ``_step_over`` its own
    ``stage`` (``dopri_step``, the finiteness test and ``_rms``), bit for
    bit, with the same count of field evaluations."""

    @staticmethod
    def _both(chart, p, y, h, rtol, exp_calls, bad=None):
        # the oracle and the fused step, each on its own chart and Trajectory
        results = []
        for fused in (False, True):
            traj = Trajectory()
            _a, _point, stage, step = chart(p, traj)
            exp_calls.update(calls=0, bad={})
            first = stage(*y)[0]
            exp_calls.update(calls=0, bad=bad or {})
            before = traj.field_evals
            got = (step if fused else _step_over(stage))(y, h, first, rtol)
            if got is not None:
                got = [list(part) if isinstance(part, (list, tuple)) else part for part in got]
            results.append((_bits(got), traj.field_evals - before))
        assert results[0] == results[1]
        return results[1]

    @pytest.mark.parametrize("a", ["1/6,1/4,1/3", "0.17,0.26,0.33", "0.01,0.01,0.49"])
    @pytest.mark.parametrize("chart", [_planar_chart, _chart_3d])
    def test_equals_dopri_step_bit_for_bit(self, chart, a, exp_calls):
        p = Parameters(*(Fraction(s) if "/" in s else float(s) for s in a.split(",")))
        n = 2 if chart is _planar_chart else 3
        rng = np.random.default_rng(23)
        counts = set()
        for _ in range(200):
            y = rng.uniform(-3.0, 3.0, n).tolist()
            h = float(10 ** rng.uniform(-8, 1.5))
            rtol = float(10 ** rng.uniform(-12, -3))
            _a, _point, stage, _step = chart(p, Trajectory())
            if stage(*y) is None:
                continue
            got, evals = self._both(chart, p, y, h, rtol, exp_calls)
            counts.add((got is None, evals))
        # the draws include steps that fail at a stage and steps that do not
        assert (False, 6) in counts and any(failed for failed, _evals in counts)

    @pytest.mark.parametrize("chart", [_planar_chart, _chart_3d])
    @pytest.mark.parametrize("stage_no", range(2, 8))
    def test_a_failed_stage_is_counted_alike(self, chart, stage_no, exp_calls):
        p = Parameters(Fraction(1, 6), Fraction(1, 4), Fraction(1, 3))
        y = [0.1, -0.2, 0.05][:2 if chart is _planar_chart else 3]
        per = _EXPS_PER_STAGE[chart]
        assert self._both(chart, p, y, 0.1, 1e-6, exp_calls)[0] is not None
        for failure in _STAGE_FAILURES[chart]:
            bad = {(stage_no - 2) * per + j: value for j, value in failure.items()}
            assert self._both(chart, p, y, 0.1, 1e-6, exp_calls, bad) == (None, stage_no - 1), failure

    @pytest.mark.parametrize("chart", [_planar_chart, _chart_3d])
    def test_a_result_that_is_not_finite_fails_the_step(self, chart, exp_calls):
        p = Parameters(Fraction(1, 6), Fraction(1, 4), Fraction(1, 3))
        y = [0.1, -0.2, 0.05][:2 if chart is _planar_chart else 3]
        per = _EXPS_PER_STAGE[chart]
        bad = {5 * per + j: value for j, value in _NAN_SEVENTH_STAGE[chart].items()}
        assert self._both(chart, p, y, 0.1, 1e-6, exp_calls, bad) == (None, 6)
        # dopri_step itself evaluates every stage and returns a NaN result
        _a, _point, stage, _step = chart(p, Trajectory())
        exp_calls.update(calls=0, bad={})
        first = stage(*y)
        exp_calls.update(calls=0, bad=bad)
        y5, _err, _last = dopri_step(stage, y, 0.1, first)
        assert not all(map(math.isfinite, y5))

    def test_the_generated_text_is_shown(self):
        # each chart's step is compiled from text registered in linecache,
        # with the map and the field's text spliced into each of its stages
        p = Parameters(Fraction(1, 6), Fraction(1, 4), Fraction(1, 3))
        field = flow_mod._FIELD_TEXT.splitlines()
        for chart, name in ((_planar_chart, "planar"), (_chart_3d, "3d")):
            _a, point, stage, step = chart(p, Trajectory())
            source = inspect.getsource(step)
            assert source.startswith("    def step(y, h, first, rtol):\n")
            assert inspect.getsourcefile(step) == f"<{name} chart>"
            statements = [statement for statement, _test in integrate_mod._CHARTS[name][2]]
            for line in field + statements:
                assert source.count(f"            {line}\n") == 6, line
            assert "dopri_step" not in source and "_field" not in source
            for line in field + statements:
                assert inspect.getsource(stage).count(f"{line}\n") == 1, line
            assert inspect.getsource(point).count(statements[-1]) == 1
        # _field is compiled from the same text
        source = inspect.getsource(flow_mod._field)
        assert all(f"    {line}\n" in source for line in field)

    def test_importing_the_cli_compiles_no_step(self):
        # the chart steps and dopri_step are compiled on first use
        code = (
            "import wallachflow.cli, wallachflow.integrate as i\n"
            "print(sorted(i._CHART_FACTORIES), 'dopri_step' in vars(i))"
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
        assert out.stdout == "[] False\n"


_CLAMP_VALUES = [math.nan, math.inf, -math.inf, 1e-10, 0.2, 5.0, 0.0, -0.0, 1.0]


class TestClampComparisons:
    """``_integrate`` and ``_drive`` clamp by comparisons where they called
    ``max`` and ``min``: ``max(a, b)`` is ``b if b > a else a`` and ``min(a,
    b)`` is ``b if b < a else a``, so the bits are the same, NaN and the
    infinities included.  The step controller's forms are written here as in
    ``_integrate``; ``observe``'s field test runs through ``_drive``."""

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
        traj = Trajectory(max_volume_drift=old)
        if new > traj.max_volume_drift:
            traj.max_volume_drift = new
        assert _bits(traj.max_volume_drift) == _bits(max(old, new))

    def test_a_huge_error_shrinks_the_step_by_the_floor(self):
        # stage 7 of the first step is 1e12 where every other stage is 1:
        # it has no weight in the result but the error weight -1/40, so the
        # error norm is about 2.5e8 and 0.9 * err_norm**-0.14 about 0.06;
        # the retry takes h * _MIN_SHRINK
        calls = []

        def f(*y):
            calls.append(y)
            return ((1e12, 1e12) if len(calls) == 7 else (1.0, 1.0), y, None)

        traj = Trajectory()
        _integrate(_step_over(f), [0.0, 0.0], f(0.0, 0.0)[0], 1e-6, 1e-6, lambda *_: None, traj)
        assert traj.steps_rejected == 1
        # with k1 = 1 the second stage of a step from 0 is at h * _A21
        a21 = integrate_mod._A[0][0]
        h1, h2 = calls[1][0] / a21, calls[7][0] / a21
        assert h2 / h1 == pytest.approx(integrate_mod._MIN_SHRINK, rel=1e-12)

    @pytest.mark.parametrize("n", [2, 3])
    def test_field_test_of_observe(self, n):
        # the start sits on the one target with velocity v; the run
        # converges at once iff max(map(abs, v)) <= _FIELD_TOL, which
        # fails at a NaN first component and skips a later one
        tol = integrate_mod._FIELD_TOL
        values = [math.nan, math.inf, 0.0, -tol, tol, 2 * tol]
        x = (1.0, 1.0, 1.0)
        seen = set()
        for v in itertools.product(values, repeat=n):
            traj = Trajectory()
            stage = lambda *_y, v=v: ((0.0,) * n, x, v)  # noqa: E731
            _drive(traj, x, None, stage, _step_over(stage), [x[:n]], [0.0] * n, 1e-3, 1e-6)
            want = max(map(abs, v)) <= tol
            assert (traj.status == TrajectoryStatus.CONVERGED) == want, v
            seen.add((want, math.isnan(v[0]), any(map(math.isnan, v[1:]))))
        assert seen >= {(False, True, False), (True, False, True), (False, False, True)}


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
        # the field works at the start only: once the driver steps, math.exp
        # raises OverflowError in every stage, so every step is retried at a
        # quarter of its size until the size drops below _MIN_STEP
        stepping = []
        exp, integrate = math.exp, integrate_mod._integrate

        def failing_exp(u):
            if stepping:
                raise OverflowError
            return exp(u)

        def start_stepping(*args):
            stepping.append(True)
            return integrate(*args)

        # the charts bind math.exp when they are made, inside integrate_flow
        monkeypatch.setattr(math, "exp", failing_exp)
        monkeypatch.setattr(integrate_mod, "_integrate", start_stepping)
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
    def test_the_box_is_closed(self, i, value, side, monkeypatch):
        # the driver tests the range first and asks _domain_exit for the
        # face only outside it; a NaN fails the range test but has no face
        x = tuple(value if j == i else 1.0 for j in range(3))
        face = None if side is None else f"x{i + 1}-{side}"
        assert _domain_exit(x) == face
        asked = []
        monkeypatch.setattr(integrate_mod, "_domain_exit", lambda x: asked.append(x) or _domain_exit(x))
        calls = []

        def stage(*y):
            # a start at (1, 1, 1), then x at every later stage
            calls.append(y)
            return ((0.0, 0.0), (1.0, 1.0, 1.0) if len(calls) == 1 else x, (1.0, 1.0))

        traj = Trajectory()
        _drive(traj, (1.0, 1.0, 1.0), None, stage, _step_over(stage), [], [0.0, 0.0], 1.0, 1e-6)
        assert traj.exit_face == face
        assert bool(asked) == (not 1e-8 <= value <= 1e8)
        if face is None:
            assert traj.status == TrajectoryStatus.MAX_TIME and traj.steps_accepted > 1
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

    def test_3d_stage_beyond_the_float_range_is_rejected(self, stable_params, monkeypatch):
        # math.exp raises OverflowError at this log state; the stage and the
        # step count the evaluation and reject the stage instead of raising
        traj = Trajectory()
        a, point, stage, step = _chart_3d(stable_params, traj)
        with pytest.raises(OverflowError):
            point([800.0, 0.0, 0.0])
        assert stage(800.0, 0.0, 0.0) is None
        assert traj.field_evals == 1
        seen = {}

        def drive_one_step(step, _y0, first, _t_max, rel_tol, _observe, traj):
            # the step's second stage lies next to the log state 800
            before = traj.field_evals
            seen["step"] = step([800.0, 0.0, 0.0], 0.1, first, rel_tol)
            seen["counted"] = traj.field_evals - before
            return (TrajectoryStatus.MAX_TIME, None)

        monkeypatch.setattr(integrate_mod, "_integrate", drive_one_step)
        assert _drive(traj, a, point, stage, step, [], [0.0, 0.0, 0.0], 1.0, 1e-6) is traj
        assert seen == {"step": None, "counted": 1}
        assert traj.status == TrajectoryStatus.MAX_TIME

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
