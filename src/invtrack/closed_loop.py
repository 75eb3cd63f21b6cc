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

import math
from dataclasses import dataclass, field

import numpy as np

from .controller import ControllerGains, ctrl_loop_matrix, feedback_values, relative_pose
from .errors import DegenerateReferenceError, DivergenceError, GeometryError
from .numerics import ErrorField, generated_run, grid, once_per_time
from .observer import ObserverGains, obs_error_matrix, observer_rate
from .observer import observer_field  # noqa: F401 (perfbench's tracer test reads it here)
from .robot import LandmarkSet, dynamics_values, measure_values
from .se2 import GroupElement, compose_values, relative_rate_values
from .trajectories import ReferenceTrajectory

DIVERGENCE_LIMIT = 1e6


def _input_grid(t_end: float) -> list[float]:
    """The 257 evenly spaced times on [0, t_end] at which a scenario's
    reference input is sampled, once, as Scenario.grid_inputs: checked for
    u_r = 0 there, and measured for drift by the invariance command."""
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
    # The reference input at each _input_grid(t_end) time, sampled once here.
    grid_inputs: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (self.dt > 0.0 and math.isfinite(self.dt)):
            raise ValueError(f"dt must be positive, got {self.dt}")
        if not (self.t_end > 0.0 and math.isfinite(self.t_end)):
            raise ValueError(f"t_end must be positive, got {self.t_end}")
        # The feedback is undefined at u_r = 0; catch it before a run starts.
        inputs = []
        for t in _input_grid(self.t_end):
            inp = self.trajectory.input(t)
            if abs(inp.u) < 1e-12:
                raise ValueError(f"reference input u vanishes near t={t:.6g}")
            inputs.append(inp)
        object.__setattr__(self, "grid_inputs", tuple(inputs))


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
    """simulate's parts for numerics.rk4_run, written with the five core
    calls: the closed-loop rate(t, w) on flat (x, y, theta, xhat, yhat,
    thetahat) tuples; the row (t, *w, x_r, y_r, theta_r, eta, eps, u, v),
    one row of SimulationResult's table; and after(t, w), the 1e6 box.

    In the rate, a GeometryError or a DegenerateReferenceError (u_r = 0) is
    timestamped.  Any other ValueError raises DivergenceError at the stage
    time unless the stage state is finite and the reference is not (bad
    input), and an OverflowError always raises it.  The row raises what its
    core calls raise, and after raises DivergenceError at t on a state
    component past DIVERGENCE_LIMIT, NaN and inf included.
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
            # An RK stage state can overflow before after checks the step
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
        return (t, x, y, th, xh, yh, thh, xr, yr, thr,
                eta_x, eta_y, eta_th, eps_x, eps_y, eps_th, u, v)

    def after(t, w):
        for c in w:
            if not abs(c) <= DIVERGENCE_LIMIT:
                raise DivergenceError(t, "closed-loop state diverged")
        return w

    return rate, row, after


def simulate(sc: Scenario) -> SimulationResult:
    """Run the coupled plant/observer/controller loop with fixed-step RK4
    on the grid numerics.grid(0, t_end, dt).

    Measurements come from the true state at every stage; the controller
    sees only the estimate.  Aborts with DivergenceError when the state
    leaves a 1e6 box and with GeometryError (timestamped) when the landmark
    geometry degenerates as seen from the estimate.  The run is rk4_run on
    _loop_pair as numerics.generated_run generates it for the landmark
    count; it queries the reference once per distinct stage time.
    """
    coords = sc.landmarks.coords
    run = generated_run(_loop_pair, len(coords), 6)(
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
    """Tracking-error dynamics under perfect state feedback (no observer),
    on the reference and its velocity looked up once per probe time."""

    @once_per_time
    def reference(t: float) -> tuple:
        xr, yr, thr, ur, vr = traj.sample(t)
        return (xr, yr, thr, ur, vr, *dynamics_values(thr, ur, vr))

    def rate(t: float, w: tuple) -> tuple:
        ex, ey, eth = w
        xr, yr, thr, ur, vr, dxr, dyr, dthr = reference(t)
        x, y, th = compose_values(xr, yr, thr, ex, ey, eth)
        u, v = feedback_values(ex, ey, eth, ur, vr, gains)
        dx, dy, dth = dynamics_values(th, u, v)
        return relative_rate_values(xr, yr, thr, dxr, dyr, dthr, x, y, th, dx, dy, dth)

    return ErrorField(rate, 3)


def observer_error_field(
    traj: ReferenceTrajectory,
    lm: LandmarkSet,
    gains: ObserverGains,
) -> ErrorField:
    """Estimation-error dynamics with the true state riding the reference,
    whose pose, velocity and ranges are looked up once per probe time.

    GeometryError is timestamped as in simulate().
    """
    coords = lm.coords

    @once_per_time
    def reference(t: float) -> tuple:
        xr, yr, thr, ur, vr = traj.sample(t)
        return (xr, yr, thr, ur, vr, *dynamics_values(thr, ur, vr), measure_values(xr, yr, coords))

    def rate(t: float, w: tuple) -> tuple:
        ex, ey, eth = w
        xr, yr, thr, ur, vr, dx, dy, dth, values = reference(t)
        xh, yh, thh = compose_values(xr, yr, thr, ex, ey, eth)
        try:
            dxh, dyh, dthh = observer_rate(xh, yh, thh, ur, vr, coords, values, gains)
        except GeometryError as err:
            raise _at_time(err, t) from err
        return relative_rate_values(xr, yr, thr, dx, dy, dth, xh, yh, thh, dxh, dyh, dthh)

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
    _loop_pair's rate as written, with its core calls, on the reference
    looked up once per probe time; its velocity is looked up with it.
    """
    sample = once_per_time(traj.sample)
    loop, _, _ = _loop_pair(sample, lm.coords, kg, og)

    @once_per_time
    def reference(t: float) -> tuple:
        xr, yr, thr, ur, vr = sample(t)
        return (xr, yr, thr, *dynamics_values(thr, ur, vr))

    def rate(t: float, w: tuple) -> tuple:
        ex, ey, eth, px, py, pth = w
        xr, yr, thr, dxr, dyr, dthr = reference(t)
        x, y, th = compose_values(xr, yr, thr, ex, ey, eth)
        xh, yh, thh = compose_values(x, y, th, px, py, pth)
        dx, dy, dth, dxh, dyh, dthh = loop(t, (x, y, th, xh, yh, thh))
        return (
            relative_rate_values(xr, yr, thr, dxr, dyr, dthr, x, y, th, dx, dy, dth)
            + relative_rate_values(x, y, th, dx, dy, dth, xh, yh, thh, dxh, dyh, dthh)
        )

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
