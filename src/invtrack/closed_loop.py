"""Observer-controller interconnection and the separation structure.

The combined error state is six-dimensional: the tracking error eta (pose
relative to the reference) and the estimation error eps (estimate relative
to the true pose).  Around a constant-input reference the linearization is
block upper-triangular with the controller loop matrix, the feedback
cross-coupling, and the observer error matrix, so the closed-loop spectrum
is the plain union of the two designs.  The CLI and the tests check all of
it against finite-difference linearizations of the full nonlinear loop.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import se2
from .controller import ControllerGains, ctrl_loop_matrix, feedback_values, relative_pose
from .errors import DegenerateReferenceError, DivergenceError, GeometryError
from .numerics import ErrorField, integrate, once_per_time
from .observer import ObserverGains, obs_error_matrix, observer_rate
from .observer import observer_field  # noqa: F401 (perfbench's tracer test reads it here)
# observer_rate's globals, which its inlined statements read from this module.
from .observer import _check_condition, gram_condition  # noqa: F401
from .robot import LandmarkSet, dynamics_values, measure_values
from .robot import RobotInput  # noqa: F401 (read by observer_rate's inlined statements)
from .se2 import GroupElement
from .trajectories import ReferenceTrajectory

DIVERGENCE_LIMIT = 1e6


def _input_grid(t_end: float) -> list[float]:
    """The 257 evenly spaced times on [0, t_end] at which a scenario's
    reference input is sampled: checked for u_r = 0 here, and measured for
    drift by the invariance command."""
    return [t_end * k / 256.0 for k in range(257)]


def _at_time(err: ValueError, t: float) -> ValueError:
    """err, as its own class, with the time at which the error field raised
    it appended."""
    return type(err)(f"{err} (at t={t:.6g})")


@dataclass(frozen=True)
class Scenario:
    """Complete description of one closed-loop run."""

    trajectory: ReferenceTrajectory
    landmarks: LandmarkSet
    controller_gains: ControllerGains
    observer_gains: ObserverGains
    initial_pose: GroupElement
    initial_estimate: GroupElement
    t_end: float
    dt: float

    def __post_init__(self):
        if not (self.dt > 0.0 and math.isfinite(self.dt)):
            raise ValueError(f"dt must be positive, got {self.dt}")
        if not (self.t_end > 0.0 and math.isfinite(self.t_end)):
            raise ValueError(f"t_end must be positive, got {self.t_end}")
        # The feedback is undefined at u_r = 0; catch it before a run starts.
        for t in _input_grid(self.t_end):
            if abs(self.trajectory.input(t).u) < 1e-12:
                raise ValueError(f"reference input u vanishes near t={t:.6g}")


@dataclass(frozen=True)
class SimulationResult:
    """Sampled closed-loop run; every series shares the time grid."""

    times: np.ndarray            # (n,)
    poses: np.ndarray            # (n, 3) true state
    estimates: np.ndarray        # (n, 3)
    references: np.ndarray       # (n, 3)
    tracking_errors: np.ndarray  # (n, 3) eta components
    estimation_errors: np.ndarray  # (n, 3) eps components
    inputs: np.ndarray           # (n, 2) applied (u, v)


def _loop_pair(reference, coords, kg, og):
    """The closed-loop right-hand side rate(t, w) on flat (x, y, theta,
    xhat, yhat, thetahat) tuples and simulate's sample row row(t, w) =
    (x_r, y_r, theta_r, eta, eps, u, v) of one run, written with the five
    core calls.

    In the rate, a GeometryError or a DegenerateReferenceError (u_r = 0) is
    timestamped.  Any other ValueError raises DivergenceError at the stage
    time unless the stage state is finite and the reference is not (bad
    input), and an OverflowError always raises it.  The row raises what its
    core calls raise.
    """
    def rate(t, w):
        x, y, th, xh, yh, thh = w
        xr, yr, thr, ur, vr = reference(t)
        try:
            eta_x, eta_y, eta_th = relative_pose(xr, yr, thr, xh, yh, thh)
            u, v = feedback_values(eta_x, eta_y, eta_th, ur, vr, kg)
            values = measure_values(x, y, coords)
            dxh, dyh, dthh = observer_rate(xh, yh, thh, u, v, coords, values, og)
        except (GeometryError, DegenerateReferenceError) as err:
            raise _at_time(err, t) from err
        except ValueError as err:
            # An RK stage state can overflow before integrate sees the step
            # (say a heading of inf in normalize_angle), and a huge gain can
            # overflow the applied input of a finite one; w is checked only here.
            if all(map(math.isfinite, w)):
                if not all(map(math.isfinite, (xr, yr, thr, ur, vr))):
                    raise
                raise DivergenceError(t, "closed-loop input diverged") from err
            raise DivergenceError(t, "closed-loop state diverged") from err
        except OverflowError as err:
            # A finite stage coordinate past ~1.3e154, squared by ** 2 in
            # measure_values, which raises where x * x would give inf.
            raise DivergenceError(t, "closed-loop state diverged") from err
        dx, dy, dth = dynamics_values(th, u, v)
        return (dx, dy, dth, dxh, dyh, dthh)

    def row(t, w):
        x, y, th, xh, yh, thh = w
        xr, yr, thr, ur, vr = reference(t)
        eta_x, eta_y, eta_th = relative_pose(xr, yr, thr, x, y, th)
        eps_x, eps_y, eps_th = relative_pose(x, y, th, xh, yh, thh)
        etah_x, etah_y, etah_th = relative_pose(xr, yr, thr, xh, yh, thh)
        u, v = feedback_values(etah_x, etah_y, etah_th, ur, vr, kg)
        return (xr, yr, thr, eta_x, eta_y, eta_th, eps_x, eps_y, eps_th, u, v)

    return rate, row


# The cores themselves, taken at import: a tracer that later rebinds these
# names to timing wrappers must not hand the inliner a wrapper's source.
_CORES = (relative_pose, feedback_values, measure_values, observer_rate, dynamics_values)


@functools.cache
def _generated_pair(p: int) -> Callable:
    """_loop_pair with its core calls inlined and its landmark loops
    unrolled over p landmarks, generated on the first run with p landmarks
    (never at import or parse time)."""
    from .inline import inline_cores  # on first use: not compiled at import

    return inline_cores(_loop_pair, _CORES, {"coords": [(f"lx{i}", f"ly{i}") for i in range(p)]})


def _loop_rate(
    traj: ReferenceTrajectory,
    lm: LandmarkSet,
    kg: ControllerGains,
    og: ObserverGains,
) -> tuple[Callable[[float, tuple], tuple], Callable[[float, tuple], tuple], Callable]:
    """_loop_pair's rate and row for one run, generated for its landmark
    count, and their reference lookup reference(t) = traj.sample(t) =
    (x_r, y_r, theta_r, u_r, v_r), queried once per time."""
    coords = lm.coords
    reference = once_per_time(traj.sample)
    return (*_generated_pair(len(coords))(reference, coords, kg, og), reference)


def simulate(sc: Scenario) -> SimulationResult:
    """Run the coupled plant/observer/controller loop with fixed-step RK4.

    Measurements come from the true state at every stage; the controller
    sees only the estimate.  Aborts with DivergenceError when the state
    leaves a 1e6 box and with GeometryError (timestamped) when the landmark
    geometry degenerates as seen from the estimate.
    """
    rate, row, _ = _loop_rate(sc.trajectory, sc.landmarks, sc.controller_gains, sc.observer_gains)
    w0 = tuple(map(float, sc.initial_pose + sc.initial_estimate))
    rows = [row(0.0, w0)]

    def after_step(t: float, w: tuple) -> tuple:
        for comp in w:
            if not abs(comp) <= DIVERGENCE_LIMIT:
                raise DivergenceError(t, "closed-loop state diverged")
        rows.append(row(t, w))
        return w

    times, states = integrate(
        rate, w0, 0.0, sc.t_end, sc.dt, after_step, state="closed-loop state"
    )
    w_rows = np.asarray(states)
    samples = np.asarray(rows)
    return SimulationResult(
        np.asarray(times),
        w_rows[:, 0:3],
        w_rows[:, 3:6],
        samples[:, 0:3],
        samples[:, 3:6],
        samples[:, 6:9],
        samples[:, 9:11],
    )


def controller_error_field(
    traj: ReferenceTrajectory,
    gains: ControllerGains,
) -> ErrorField:
    """Tracking-error dynamics under perfect state feedback (no observer)."""
    reference = once_per_time(traj.sample)

    def rate(t: float, w: tuple) -> tuple:
        xr, yr, thr, ur, vr = reference(t)
        g_ref = GroupElement(xr, yr, thr)
        g = se2.compose(g_ref, GroupElement(w[0], w[1], w[2]))
        u, v = feedback_values(w[0], w[1], w[2], ur, vr, gains)
        dg = dynamics_values(g.theta, u, v)
        return se2.relative_rate(g_ref, dynamics_values(thr, ur, vr), g, dg)

    return ErrorField(rate, 3)


def observer_error_field(
    traj: ReferenceTrajectory,
    lm: LandmarkSet,
    gains: ObserverGains,
) -> ErrorField:
    """Estimation-error dynamics with the true state riding the reference.

    GeometryError is timestamped as in simulate().
    """
    coords = lm.coords
    reference = once_per_time(traj.sample)

    def rate(t: float, w: tuple) -> tuple:
        xr, yr, thr, ur, vr = reference(t)
        g = GroupElement(xr, yr, thr)
        gh = se2.compose(g, GroupElement(w[0], w[1], w[2]))
        dg = dynamics_values(thr, ur, vr)
        try:
            dgh = observer_rate(*gh, ur, vr, coords, measure_values(xr, yr, coords), gains)
        except GeometryError as err:
            raise _at_time(err, t) from err
        return se2.relative_rate(g, dg, gh, dgh)

    return ErrorField(rate, 3)


def closed_loop_error_field(
    traj: ReferenceTrajectory,
    lm: LandmarkSet,
    kg: ControllerGains,
    og: ObserverGains,
) -> ErrorField:
    """Joint (eta, eps) dynamics of the full output-feedback loop: the
    right-hand side that simulate() integrates, seen in error coordinates.

    GeometryError is timestamped as in simulate().
    """
    loop, _, reference = _loop_rate(traj, lm, kg, og)

    def rate(t: float, w: tuple) -> tuple:
        xr, yr, thr, ur, vr = reference(t)
        g_ref = GroupElement(xr, yr, thr)
        g = se2.compose(g_ref, GroupElement(w[0], w[1], w[2]))
        gh = se2.compose(g, GroupElement(w[3], w[4], w[5]))
        dw = loop(t, g + gh)
        dg, dgh = dw[:3], dw[3:]
        dref = dynamics_values(thr, ur, vr)
        deta = se2.relative_rate(g_ref, dref, g, dg)
        deps = se2.relative_rate(g, dg, gh, dgh)
        return deta + deps

    return ErrorField(rate, 6)


def separation_matrix(
    u_r: float,
    v_r: float,
    kg: ControllerGains,
    og: ObserverGains,
) -> np.ndarray:
    """Block upper-triangular closed-loop linearization around zero error.

    Diagonal blocks are the controller and observer designs; the coupling
    block is how estimation error leaks into the tracking loop through the
    feedback, d(u, 0, u v)/d(eta_hat) at zero error.  Zero matrix when
    u_r = 0.
    """
    au = abs(u_r)
    out = np.zeros((6, 6))
    out[:3, :3] = ctrl_loop_matrix(u_r, v_r, kg)
    out[:3, 3:] = [
        [-au * kg.k1, -u_r * v_r, 0.0],
        [0.0, 0.0, 0.0],
        [0.0, -u_r * kg.k2, -au * kg.k3],
    ]
    out[3:, 3:] = obs_error_matrix(u_r, v_r, og)
    return out
