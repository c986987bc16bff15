import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wallachflow import cli
from wallachflow import integrate as integrate_mod
from wallachflow.core import Parameters
from wallachflow.equilibria import normalize_unit_volume, solve_all
from wallachflow.flow import (
    MetricPoint,
    field_components,
    normalization_weight,
    phi,
    vector_field_2d,
    vector_field_3d,
)
from wallachflow.integrate import (
    Trajectory,
    TrajectoryStatus,
    _chart_3d,
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

        def f(y):
            return ([row[0] * y[0] + row[1] * y[1] for row in mat],)

        y0 = [1.0, -0.3]
        errs = []
        for h in (0.1, 0.05, 0.025):
            _y, err, _last = dopri_step(f, y0, h, f(y0))
            errs.append(max(abs(e) for e in err))
        assert errs[0] / errs[1] > 2**4.5
        assert errs[1] / errs[2] > 2**4.5

    def test_global_error_tracks_tolerance(self):
        # manufactured linear problem with known solution
        lam = -1.3

        def f(y):
            return ([lam * y[0]], y, None)

        errors = []
        for rtol in (1e-6, 1e-9):
            final = {}

            def observe(t, x, _v):
                final["t"], final["y"] = t, x[0]
                return None

            status, _ = _integrate(f, [1.0], f([1.0]), 3.0, rtol, observe, Trajectory())
            assert status == TrajectoryStatus.MAX_TIME
            errors.append(abs(final["y"] - math.exp(lam * final["t"])))
        assert errors[0] / max(errors[1], 1e-18) > 10

    @pytest.mark.parametrize("chart", [_planar_chart, _chart_3d])
    def test_seventh_stage_is_the_stage_at_the_result(self, chart):
        # FSAL: the last row of the tableau is the 5th-order weights, so the
        # stage the step returns is, bit for bit, the field at its result
        p = Parameters(Fraction(1, 6), Fraction(1, 4), Fraction(1, 3))
        _a, _point, f = chart(p, Trajectory())
        rng = np.random.default_rng(5)
        for _ in range(20):
            y = rng.uniform(-0.5, 0.5, 2 if chart is _planar_chart else 3).tolist()
            y5, _err, last = dopri_step(f, y, float(rng.uniform(0.01, 0.5)), f(y))
            assert last == f(y5)

    def test_unevaluable_stage_fails_the_step(self):
        # y' = 1 from 0: the stages of a step of size h reach y = h
        def f(y):
            return None if y[0] > 0.3 else ([1.0],)

        assert dopri_step(f, [0.0], 0.5, f([0.0])) is None
        assert dopri_step(f, [0.0], 0.1, f([0.0])) is not None


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
        fa = tuple(float(ai) for ai in p.a)
        weight = float(normalization_weight(*p.a))
        assert field_components(*fa, *x, weight) == field_components(*p.a, *x)
        _a, point, stage = _chart_3d(p, Trajectory())
        y = [math.log(c) for c in x]
        k, xs, v = stage(y)
        assert list(xs) == point(y) == [math.exp(u) for u in y]
        assert tuple(v) == vector_field_3d(p, MetricPoint(*xs)).v
        assert list(k) == [vi / xi for vi, xi in zip(v, xs)]

    @settings(max_examples=300, deadline=None)
    @given(a=st.tuples(_param, _param, _param), x=st.tuples(_coord, _coord))
    def test_planar_chart_equals_phi_and_the_planar_field(self, a, x):
        p = Parameters(*a)
        _a, point, stage = _planar_chart(p, Trajectory())
        y = [math.log(c) for c in x]
        k, (x1, x2, x3), v = stage(y)
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
        times = traj.times
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

    def test_start_beyond_the_float_range_is_an_error(self, stable_params):
        # x3 = phi(x1, x2) overflows here, so the start and its volume have
        # no float value, although the start also lies outside the box
        with pytest.raises(ValueError, match="float range"):
            integrate_flow(stable_params, (1e-300, 1e-300))

    def test_start_inside_the_box_where_the_field_fails_is_an_error(self, stable_params, monkeypatch):
        # each chart's stage function rejects the ArithmeticError of the
        # field, and the start at x = (1, 1, 1) lies inside the box
        def field_components(*_args):
            raise ZeroDivisionError

        monkeypatch.setattr(integrate_mod, "field_components", field_components)
        for chart, y0 in ((_planar_chart, [0.0, 0.0]), (_chart_3d, [0.0, 0.0, 0.0])):
            traj = Trajectory()
            a, point, stage = chart(stable_params, traj)
            with pytest.raises(ValueError, match="start point"):
                _drive(traj, a, point, stage, [], y0, 1.0, 1e-6)
            assert traj.field_evals == 1

    def test_3d_stage_beyond_the_float_range_is_rejected(self, stable_params, monkeypatch):
        # math.exp raises OverflowError at this log state; the stage function
        # counts the evaluation and rejects the stage instead of raising
        traj = Trajectory()
        a, point, stage = _chart_3d(stable_params, traj)
        with pytest.raises(OverflowError):
            point([800.0, 0.0, 0.0])
        seen = {}

        def drive_one_stage(f, _y0, _first, _t_max, _rel_tol, _observe, traj):
            before = traj.field_evals
            seen["stage"] = f([800.0, 0.0, 0.0])
            seen["counted"] = traj.field_evals - before
            return (TrajectoryStatus.MAX_TIME, None)

        monkeypatch.setattr(integrate_mod, "_integrate", drive_one_stage)
        assert _drive(traj, a, point, stage, [], [0.0, 0.0, 0.0], 1.0, 1e-6) is traj
        assert seen == {"stage": None, "counted": 1}
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
