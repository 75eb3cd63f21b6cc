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
from array import array
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import se2
from .controller import ControllerGains, ctrl_loop_matrix, feedback_values, relative_pose
from .errors import DegenerateReferenceError, DivergenceError, GeometryError
from .numerics import ErrorField, compiled_rk4_step, grid, once_per_time, rk4_step
from .observer import ObserverGains, _check_condition, gram_condition, obs_error_matrix, observer_rate
from .observer import observer_field  # noqa: F401 (perfbench's tracer test reads it here)
# Globals of the cores, which their inlined statements read from this module.
from .observer import MAX_CONDITION  # noqa: F401
from .robot import LandmarkSet, dynamics_values, measure_values
from .robot import non_finite_input  # noqa: F401 (read by observer_rate's inlined statements)
from .se2 import GroupElement, normalize_angle
from .se2 import TAU  # noqa: F401
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
    """Sampled closed-loop run; every series shares the time grid.
    simulate returns the fields as column views of one (n, 18) table, one
    row per grid time, in reporting.CSV_COLUMNS order:

        columns  field              shape   values
        0        times              (n,)    t
        1-3      poses              (n, 3)  x, y, theta: the true state
        4-6      estimates          (n, 3)  xhat, yhat, thetahat
        7-9      references         (n, 3)  xr, yr, thetar
        10-12    tracking_errors    (n, 3)  eta_x, eta_y, eta_theta
        13-15    estimation_errors  (n, 3)  eps_x, eps_y, eps_theta
        16-17    inputs             (n, 2)  u, v: the applied input
    """

    times: np.ndarray
    poses: np.ndarray
    estimates: np.ndarray
    references: np.ndarray
    tracking_errors: np.ndarray
    estimation_errors: np.ndarray
    inputs: np.ndarray


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


def _loop_run(reference, coords, kg, og):
    """simulate's run of _loop_pair: run(w, times) integrates the rate by
    classical RK4 over the grid times from the state w at times[0] and
    returns one flat array('d') that holds, for each grid time t in turn,
    (t, *w, *row(t, w)) with w the state at t: the 18 floats of one row of
    SimulationResult's table.  It is numerics.integrate's loop with
    simulate's post-step box, written with one rk4_step call and the row's
    calls per step.

    The row at a step's start time comes first, as simulate always sampled
    it before the step, so that generated code computes it with the step's
    first stage, which shares its time and state.
    """
    rate, row = _loop_pair(reference, coords, kg, og)

    def run(w, times):
        buf = array("d")
        t = times[0]
        for t1 in times[1:]:
            r = row(t, w)
            buf.extend((t, *w, *r))
            w = rk4_step(rate, t, w, t1 - t)
            # Fails on NaN and inf too: integrate's finite-state check and
            # the box in one, which raised the same error.
            for c in w:
                if not abs(c) <= DIVERGENCE_LIMIT:
                    raise DivergenceError(t1, "closed-loop state diverged")
            t = t1
        r = row(t, w)
        buf.extend((t, *w, *r))
        return buf

    return run


# The cores themselves, taken at import: a tracer that later rebinds these
# names to timing wrappers must not hand the inliner a wrapper's source.
_CORES = (
    relative_pose, normalize_angle, feedback_values, measure_values, observer_rate,
    gram_condition, _check_condition, dynamics_values,
)


@functools.cache
def _generated_run(p: int) -> Callable:
    """_loop_run with _loop_pair, rk4_step (on the six-float state) and the
    cores inlined, the state unrolled and the landmark loops unrolled over p
    landmarks, generated on the first simulate with p landmarks (never at
    import or parse time).  Value numbering then computes once what stages
    at one time share: the reference sample, cos and sin of its heading,
    the feedback's reference factors, and the row's estimate error, input
    and cos/sin of the heading, which the first stage reads."""
    from .inline import inline_cores  # on first use: not compiled at import

    cores = (*_CORES, _loop_pair, compiled_rk4_step(6))
    unrolled = {"coords": [(f"lx{i}", f"ly{i}") for i in range(p)], "w": [f"w{i}" for i in range(6)]}
    return inline_cores(_loop_run, cores, unrolled)


def simulate(sc: Scenario) -> SimulationResult:
    """Run the coupled plant/observer/controller loop with fixed-step RK4
    on the grid numerics.grid(0, t_end, dt).

    Measurements come from the true state at every stage; the controller
    sees only the estimate.  Aborts with DivergenceError when the state
    leaves a 1e6 box and with GeometryError (timestamped) when the landmark
    geometry degenerates as seen from the estimate.  The run is _loop_run,
    generated for the landmark count, and queries the reference once per
    distinct stage time.
    """
    coords = sc.landmarks.coords
    run = _generated_run(len(coords))(
        once_per_time(sc.trajectory.sample), coords, sc.controller_gains, sc.observer_gains
    )
    buf = run(tuple(map(float, sc.initial_pose + sc.initial_estimate)), grid(0.0, sc.t_end, sc.dt))
    table = np.frombuffer(buf).reshape(-1, 18)
    return SimulationResult(
        table[:, 0], table[:, 1:4], table[:, 4:7], table[:, 7:10],
        table[:, 10:13], table[:, 13:16], table[:, 16:18],
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

    GeometryError is timestamped as in simulate().  The fd probes evaluate
    _loop_pair's rate as written, with its core calls.
    """
    reference = once_per_time(traj.sample)
    loop, _ = _loop_pair(reference, lm.coords, kg, og)

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
