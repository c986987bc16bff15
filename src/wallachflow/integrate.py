"""Adaptive time integration of the planar and 3D flows.

The stepper is an embedded Dormand-Prince 5(4) pair with a PI step
controller (safety 0.9, growth capped at 5x).  Integration happens in
logarithmic coordinates, which keeps the metric coefficients positive
without clipping; the conserved volume is recorded along the way as a
quality diagnostic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import Parameters
from .equilibria import normalize_unit_volume, scale_to_log_volume, solve_all
from .flow import MetricPoint, log_volume, phi, vector_field_2d, vector_field_3d

__all__ = [
    "Trajectory",
    "TrajectoryStatus",
    "integrate_flow",
    "integrate_flow_3d",
    "dopri_step",
    "check_rtol",
]

# Dormand-Prince 5(4) tableau
_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
_B4 = (5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40)

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
    """Accepted integration steps plus the terminal diagnosis."""

    samples: list[tuple[float, float, float, float, float]] = field(default_factory=list)
    status: str = TrajectoryStatus.MAX_TIME
    equilibrium_id: int | None = None
    exit_face: str | None = None
    max_volume_drift: float = 0.0

    @property
    def times(self) -> list[float]:
        return [s[0] for s in self.samples]

    @property
    def final_point(self) -> tuple[float, ...]:
        return self.samples[-1][1:4]


def dopri_step(f, t: float, y: np.ndarray, h: float):
    """One Dormand-Prince step: the 5th-order result and the embedded
    4th-order error estimate."""
    k = [np.asarray(f(t, y), dtype=float)]
    for i in range(1, 7):
        yi = y + h * sum(aij * kj for aij, kj in zip(_A[i], k))
        k.append(np.asarray(f(t + _C[i] * h, yi), dtype=float))
    y5 = y + h * sum(b * kj for b, kj in zip(_B5, k))
    err = h * sum((b5 - b4) * kj for b5, b4, kj in zip(_B5, _B4, k))
    return y5, err, k


def _initial_step(f, t0, y0, rtol):
    f0 = np.asarray(f(t0, y0), dtype=float)
    scale = rtol * (1.0 + np.abs(y0))
    d0 = float(np.sqrt(np.mean((y0 / scale) ** 2)))
    d1 = float(np.sqrt(np.mean((f0 / scale) ** 2)))
    h = 1e-6 if d1 <= 1e-15 else 0.01 * d0 / d1
    return min(max(h, 1e-8), 1.0)


def _adaptive_integrate(f, y0: np.ndarray, t_max: float, rtol: float, observe):
    """Drive the stepper until an observer verdict, step underflow, or t_max.

    ``observe(t, y)`` is called at every accepted step; a non-None return
    terminates the run with that (status, payload) pair.
    """
    t = 0.0
    y = np.array(y0, dtype=float)
    verdict = observe(t, y)
    if verdict is not None:
        return verdict
    h = _initial_step(f, t, y, rtol)
    err_prev = 1.0
    while t < t_max:
        h = min(h, t_max - t)
        if h < _MIN_STEP:
            return (TrajectoryStatus.STEP_UNDERFLOW, None)
        y_new, err, _k = dopri_step(f, t, y, h)
        if not np.all(np.isfinite(y_new)):
            h *= 0.25
            continue
        scale = rtol * (1.0 + np.maximum(np.abs(y), np.abs(y_new)))
        err_norm = float(np.sqrt(np.mean((err / scale) ** 2)))
        if err_norm <= 1.0:
            t += h
            y = y_new
            verdict = observe(t, y)
            if verdict is not None:
                return verdict
            factor = _SAFETY * max(err_norm, 1e-10) ** -_PI_ALPHA * max(err_prev, 1e-10) ** _PI_BETA
            err_prev = max(err_norm, 1e-10)
            h *= min(_MAX_GROWTH, max(_MIN_SHRINK, factor))
        else:
            h *= max(_MIN_SHRINK, _SAFETY * err_norm**-_PI_ALPHA)
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


def _drive(p: Parameters, rhs, coords, velocity, targets, y0, t_max, rel_tol) -> Trajectory:
    """Integrate ``rhs`` from the log state ``y0`` and diagnose the run.

    ``coords(y)`` maps a log state to ``(x1, x2, x3)`` and ``velocity(x)``
    gives the chart's field there.  A run converges when that velocity is below
    ``_FIELD_TOL`` and the point lies within ``_EQ_DIST_TOL`` (scaled) of a
    target, compared over the target's leading coordinates.
    """
    traj = Trajectory()
    v_ref: list[float] = []

    def observe(t, y):
        x = coords(y)
        v = math.exp(log_volume(p, MetricPoint(*x)))
        if not v_ref:
            v_ref.append(v)
        drift = abs(v - v_ref[0]) / abs(v_ref[0])
        traj.max_volume_drift = max(traj.max_volume_drift, drift)
        traj.samples.append((t, *x, v))
        face = _domain_exit(x)
        if face is not None:
            return (TrajectoryStatus.LEFT_DOMAIN, face)
        if max(abs(float(c)) for c in velocity(x)) <= _FIELD_TOL:
            for idx, target in enumerate(targets):
                d = max(abs(a - b) for a, b in zip(x, target)) / (
                    1.0 + max(abs(c) for c in target)
                )
                if d <= _EQ_DIST_TOL:
                    return (TrajectoryStatus.CONVERGED, idx)
        return None

    status, payload = _adaptive_integrate(rhs, y0, float(t_max), float(rel_tol), observe)
    traj.status = status
    if status == TrajectoryStatus.CONVERGED:
        traj.equilibrium_id = payload
    elif status == TrajectoryStatus.LEFT_DOMAIN:
        traj.exit_face = payload
    return traj


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

    def rhs(_t, y):
        x1, x2 = math.exp(y[0]), math.exp(y[1])
        v1, v2 = vector_field_2d(p, x1, x2)
        return (float(v1) / x1, float(v2) / x2)

    def coords(y):
        x1, x2 = math.exp(y[0]), math.exp(y[1])
        return (x1, x2, float(phi(p, x1, x2)))

    y0 = np.log([float(x0[0]), float(x0[1])])
    return _drive(
        p, rhs, coords, lambda x: vector_field_2d(p, x[0], x[1]), targets, y0, t_max, rel_tol
    )


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

    def rhs(_t, y):
        x = MetricPoint(*np.exp(y))
        v = vector_field_3d(p, x)
        return tuple(float(vi) / float(xi) for vi, xi in zip(v.v, x.x))

    def coords(y):
        return tuple(float(v) for v in np.exp(y))

    # the flow keeps the start's volume, so the targets are the equilibrium
    # rays scaled onto that level set
    y0 = np.log([float(v) for v in x0.x])
    lv = log_volume(p, MetricPoint(*coords(y0)))
    targets = [
        tuple(float(c) for c in scale_to_log_volume(p, ray.rep, lv).x)
        for ray in (solve_all(p) if equilibria is None else equilibria)
    ]

    return _drive(
        p, rhs, coords, lambda x: vector_field_3d(p, MetricPoint(*x)).v, targets, y0, t_max, rel_tol
    )
