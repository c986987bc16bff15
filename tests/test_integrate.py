import math
from fractions import Fraction

import numpy as np
import pytest

from wallachflow.core import Parameters
from wallachflow.equilibria import normalize_unit_volume, solve_all
from wallachflow.flow import MetricPoint
from wallachflow.integrate import (
    TrajectoryStatus,
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
        mat = np.array([[-1.0, 2.0], [0.5, -2.0]])

        def f(_t, y):
            return mat @ y

        y0 = np.array([1.0, -0.3])
        errs = []
        for h in (0.1, 0.05, 0.025):
            _y, err, _k = dopri_step(f, 0.0, y0, h)
            errs.append(np.max(np.abs(err)))
        assert errs[0] / errs[1] > 2**4.5
        assert errs[1] / errs[2] > 2**4.5

    def test_global_error_tracks_tolerance(self):
        # manufactured linear problem with known solution
        lam = -1.3

        def f(_t, y):
            return lam * y

        from wallachflow.integrate import _adaptive_integrate

        errors = []
        for rtol in (1e-6, 1e-9):
            final = {}

            def observe(t, y):
                final["t"], final["y"] = t, float(y[0])
                return None

            status, _ = _adaptive_integrate(f, np.array([1.0]), 3.0, rtol, observe)
            assert status == TrajectoryStatus.MAX_TIME
            errors.append(abs(final["y"] - math.exp(lam * final["t"])))
        assert errors[0] / max(errors[1], 1e-18) > 10


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
