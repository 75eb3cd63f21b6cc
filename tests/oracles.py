"""Reference forms that the package's bare-float cores are checked against,
and the forms that only tests use.

The SE(2) inverse and principal log (ValueError at heading +-pi), the
squared-range output error, the numpy rotation_exp that builds the test
attitudes, and the scene helpers measure (a pose's squared ranges, the
measure_values tuple) and transform_landmarks (a landmark set moved by a
planar transformation): no command reaches them, so they live here rather
than in the package (tools/output_digests.py --unreached keeps it that
way). The controller, observer and closed-loop error fields composed from the public
layers, each value boxed (the tracking error and the feedback from their
cores relative_pose and feedback_values, the input as a RobotInput); a
central-difference Jacobian on numpy arrays, one array per shifted point,
which numerics.linearize_error_field gives bit for bit at the origin and
the other fd checks of closed forms use; numerics.rk4_step as the
per-component loop over zip that the generated straight-line step is held
to bit for bit; the Riccati flow of riccati_values and the Euler-Poincare
rates of ep_rate_values written as the textbook formulas, with 3x3 arrays,
np.linalg.solve and np.cross, plus the runs that integrate them with
numerics.integrate (the rigid-body run also under a force model, which
mech.integrate_ep refuses); the SVD projection onto SO(3) that
project_attitude's polar iteration is held to; hat, Rodrigues' formula,
J_r^-1, the force models and the rigid body's tracking-error field on 3x3
arrays, and that field's linearization in closed form;
IntegratedTrajectory's reference poses integrated by numerics.integrate on
the unicycle field; and the relative check that the property tests hold the
cores to, with its grid bound where the oracle is subnormal.
"""

import bisect
import math

import numpy as np

from invtrack import se2
from invtrack.controller import feedback_values, relative_pose
from invtrack.ekf import DEFAULT_INITIAL_COVARIANCE, ekf_jacobians
from invtrack.mech import SMALL_ROTATION, ep_rate_values, rotation_exp_values
from invtrack.numerics import FD_STEP, ErrorField, integrate
from invtrack.observer import observer_field
from invtrack.errors import GeometryError
from invtrack.robot import (
    LandmarkSet,
    RobotInput,
    dynamics,
    dynamics_values,
    finite_input,
    measure_values,
)
from invtrack.se2 import SMALL_ANGLE, GroupElement, TangentVector
from invtrack.trajectories import _POSE_STEP, IntegratedTrajectory


def inverse(g):
    """Group inverse, compose(g, inverse(g)) = identity."""
    c = math.cos(g.theta)
    s = math.sin(g.theta)
    return GroupElement(
        -g.x * c - g.y * s,
        g.x * s - g.y * c,
        se2.normalize_angle(-g.theta),
    )


def log(g):
    """Principal logarithm, the inverse of se2.exp for headings strictly
    inside (-pi, pi); ValueError at a heading of exactly pi, where the
    logarithm is not unique."""
    th = se2.normalize_angle(g.theta)
    if not math.isfinite(th) or not (math.isfinite(g.x) and math.isfinite(g.y)):
        raise ValueError(f"group element has non-finite components: {g}")
    if abs(th) == math.pi:
        raise ValueError("log undefined for heading of exactly pi; perturb or reject the input")
    if abs(th) < SMALL_ANGLE:
        d = 1.0 - th * th / 12.0
    else:
        d = th * math.sin(th) / (2.0 * (1.0 - math.cos(th)))
    h = 0.5 * th
    return TangentVector(
        d * g.x + h * g.y,
        -h * g.x + d * g.y,
        th,
    )


def measure(g, lm):
    """Squared ranges from the pose g to every landmark of lm, the scene's
    measurement as the tuple measure_values gives."""
    return measure_values(g.x, g.y, lm.coords)


def transform_landmarks(g0, lm):
    """The landmark set moved by g0: each landmark rotated by g0.theta, then
    translated by (g0.x, g0.y)."""
    c = math.cos(g0.theta)
    s = math.sin(g0.theta)
    return LandmarkSet(
        tuple((lx * c - ly * s + g0.x, lx * s + ly * c + g0.y) for lx, ly in lm.coords)
    )


def output_error(x_hat, lm, y):
    """Predicted minus measured squared ranges (y one float per landmark),
    one entry per landmark."""
    if len(y) != len(lm):
        raise ValueError(f"measurement length {len(y)} != landmark count {len(lm)}")
    out = np.empty(len(lm))
    for i, (lx, ly) in enumerate(lm.coords):
        out[i] = (x_hat.x - lx) ** 2 + (x_hat.y - ly) ** 2 - y[i]
    return out


def boxed_feedback(eta, ref_inp, gains):
    """feedback_values on the error eta and the reference input ref_inp,
    boxed in a RobotInput."""
    return RobotInput(*feedback_values(*eta, ref_inp.u, ref_inp.v, gains))


def composed_error_field(traj, lm, kg, og):
    """closed_loop_error_field composed from the public layers: tracking
    error, feedback, measurement, plant and reference dynamics, observer
    field, each building and validating its own boxed values."""

    def rate(t, w):
        g_ref = traj.pose(t)
        ref_inp = traj.input(t)
        g = se2.compose(g_ref, GroupElement(w[0], w[1], w[2]))
        gh = se2.compose(g, GroupElement(w[3], w[4], w[5]))
        inp = boxed_feedback(relative_pose(*g_ref, *gh), ref_inp, kg)
        y = measure(g, lm)
        dref = dynamics(g_ref, ref_inp)
        dg = dynamics(g, inp)
        dgh = observer_field(gh, inp, lm, y, og)
        deta = se2.relative_rate(g_ref, dref, g, dg)
        deps = se2.relative_rate(g, dg, gh, dgh)
        return np.asarray(deta + deps)

    return ErrorField(rate, 6)


def composed_controller_error_field(traj, gains):
    """controller_error_field composed from the public layers: reference
    pose and input per call, feedback and both dynamics boxed and checked."""

    def rate(t, w):
        g_ref = traj.pose(t)
        ref_inp = traj.input(t)
        g = se2.compose(g_ref, GroupElement(w[0], w[1], w[2]))
        inp = boxed_feedback(w[:3], ref_inp, gains)
        dref = dynamics(g_ref, ref_inp)
        dg = dynamics(g, inp)
        return np.asarray(se2.relative_rate(g_ref, dref, g, dg))

    return ErrorField(rate, 3)


def composed_observer_error_field(traj, lm, gains):
    """observer_error_field composed from the public layers: the measured
    ranges, the boxed dynamics and observer_field; the Gram-cap
    GeometryError carries the time as in the package."""

    def rate(t, w):
        g = traj.pose(t)
        inp = traj.input(t)
        gh = se2.compose(g, GroupElement(w[0], w[1], w[2]))
        y = measure(g, lm)
        dg = dynamics(g, inp)
        try:
            dgh = observer_field(gh, inp, lm, y, gains)
        except GeometryError as err:
            raise GeometryError(f"{err} (at t={t:.6g})") from err
        return np.asarray(se2.relative_rate(g, dg, gh, dgh))

    return ErrorField(rate, 3)


def rk4_step_oracle(field, t, x, h):
    """numerics.rk4_step as a loop over the components: the same operations
    in the same order, so the generated step must give the same bits."""
    hh = 0.5 * h
    k1 = field(t, x)
    k2 = field(t + hh, tuple([a + hh * b for a, b in zip(x, k1)]))
    k3 = field(t + hh, tuple([a + hh * b for a, b in zip(x, k2)]))
    k4 = field(t + h, tuple([a + h * b for a, b in zip(x, k3)]))
    h6 = h / 6.0
    return tuple([
        a + h6 * (b + 2.0 * (c + d) + e)
        for a, b, c, d, e in zip(x, k1, k2, k3, k4)
    ])


def jacobian_fd_oracle(fn, point):
    """Central-difference Jacobian of fn at point (step FD_STEP): fn sees
    each shifted point as an array, and np.column_stack gathers the columns."""
    p = np.asarray(point, dtype=float)
    cols = []
    for j in range(p.size):
        dp = np.zeros_like(p)
        dp[j] = FD_STEP
        hi = np.asarray(fn(p + dp), dtype=float)
        lo = np.asarray(fn(p - dp), dtype=float)
        cols.append((hi - lo) / (2.0 * FD_STEP))
    jac = np.column_stack(cols)
    if not np.all(np.isfinite(jac)):
        raise ValueError("fd Jacobian has non-finite entries")
    return jac


def ekf_field_oracle(x_hat, P, inp, lm, y, Q, R):
    F, H = ekf_jacobians(x_hat, inp, lm)
    L = P @ np.linalg.solve(R, H).T
    resid = output_error(x_hat, lm, y)
    xdot = np.asarray(dynamics(x_hat, inp)) - L @ resid
    pdot = F @ P + P @ F.T + Q - L @ H @ P
    return xdot, 0.5 * (pdot + pdot.T)


def ekf_oracle_run(traj, lm, t_end, dt, Q, R, P0=None):
    """run_along_reference with ekf_field_oracle as the right-hand side:
    (times, estimates (n, 3), covariances (n, 3, 3))."""
    Pm = np.eye(3) * DEFAULT_INITIAL_COVARIANCE if P0 is None else np.asarray(P0, dtype=float)

    def rate(t, w):
        xdot, pdot = ekf_field_oracle(
            GroupElement(*w[:3]), np.array(w[3:]).reshape(3, 3), traj.input(t), lm,
            measure(traj.pose(t), lm), Q, R,
        )
        return xdot.tolist() + pdot.ravel().tolist()

    def keep_psd(t, w):
        P = np.array(w[3:]).reshape(3, 3)
        return w[:3] + tuple((0.5 * (P + P.T)).ravel().tolist())

    g0 = traj.pose(0.0)
    w0 = (g0.x, g0.y, g0.theta, *Pm.ravel().tolist())
    times, states = integrate(rate, w0, 0.0, t_end, dt, keep_psd)
    rows = np.asarray(states)
    return np.asarray(times), rows[:, :3], rows[:, 3:].reshape(-1, 3, 3)


def project_rotation(m):
    """Nearest rotation matrix (Frobenius) by SVD, with the reflection case fixed up."""
    u, _, vt = np.linalg.svd(m)
    r = u @ vt
    if np.linalg.det(r) < 0.0:
        u[:, -1] = -u[:, -1]
        r = u @ vt
    return r


def _flat(m):
    return tuple(np.asarray(m, dtype=float).ravel().tolist())


def hat(w):
    """Skew-symmetric matrix with hat(w) @ v = w x v."""
    return np.array(
        [
            [0.0, -w[2], w[1]],
            [w[2], 0.0, -w[0]],
            [-w[1], w[0], 0.0],
        ]
    )


def rotation_exp(w):
    """mech.rotation_exp_values as a 3x3 array: the attitudes the tests build."""
    return np.array(rotation_exp_values(*map(float, w))).reshape(3, 3)


def rotation_exp_oracle(w):
    """Rodrigues formula on arrays, with a series branch for small rotations."""
    angle = float(np.linalg.norm(w))
    K = hat(w)
    if angle < SMALL_ROTATION:
        return np.eye(3) + K + 0.5 * (K @ K)
    a = math.sin(angle) / angle
    b = (1.0 - math.cos(angle)) / (angle * angle)
    return np.eye(3) + a * K + b * (K @ K)


def inv_right_jacobian(w):
    """Maps body angular velocity to the rate of exponential coordinates."""
    angle = float(np.linalg.norm(w))
    K = hat(w)
    if angle < 1e-5:
        coeff = 1.0 / 12.0
    else:
        coeff = 1.0 / (angle * angle) - (1.0 + math.cos(angle)) / (
            2.0 * angle * math.sin(angle)
        )
    return np.eye(3) + 0.5 * K + coeff * (K @ K)


def damping_oracle(coefficients):
    """Torque -D xi on arrays."""
    d = np.asarray(coefficients, dtype=float)
    return lambda att, xi: -d * xi


def gravity_gradient_oracle(strength, body_axis):
    """Torque strength * ((R^T e_z) x axis) on arrays, axis normalized."""
    axis = np.asarray(body_axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    e_z = np.array([0.0, 0.0, 1.0])
    return lambda att, xi: strength * np.cross(att.T @ e_z, axis)


def ep_dynamics_oracle(attitude, velocity, inertia, force, u):
    """force is a package force model, called on flat tuples."""
    att_dot = attitude @ hat(velocity)
    torque = u if force is None else np.array(force(_flat(attitude), _flat(velocity))) + u
    gyro = np.linalg.solve(inertia, np.cross(inertia @ velocity, velocity))
    return att_dot, gyro + np.linalg.solve(inertia, torque)


def ep_oracle_run(s, t_end, dt):
    """integrate_ep with ep_dynamics_oracle as the right-hand side, under
    the body's force model alone, which integrate_ep refuses when there is
    one: (times, attitudes (n, 3, 3), velocities (n, 3))."""

    def rate(t, w):
        att_dot, vel_dot = ep_dynamics_oracle(
            np.array(w[:9]).reshape(3, 3), np.array(w[9:]), s.inertia, s.force, np.zeros(3)
        )
        return att_dot.ravel().tolist() + vel_dot.tolist()

    def reproject(t, w):
        return tuple(project_rotation(np.array(w[:9]).reshape(3, 3)).ravel().tolist()) + w[9:]

    w0 = s.attitude.ravel().tolist() + s.velocity.tolist()
    times, states = integrate(rate, w0, 0.0, t_end, dt, reproject)
    rows = np.asarray(states)
    return np.asarray(times), rows[:, :9].reshape(-1, 3, 3), rows[:, 9:]


def ep_error_field_oracle(s, force):
    """mech.tracking_error_field on arrays: the reference attitude by the
    numpy Rodrigues formula, the feedforward as I (I^-1 (I xi_r) x xi_r)
    plus the force, and J_r^-1 as a 3x3 array.  force is a model on
    arrays (damping_oracle, gravity_gradient_oracle) or None."""
    xi_r = s.velocity
    inertia, inertia_inv = _flat(s.inertia), _flat(np.linalg.inv(s.inertia))

    def feedforward(att_r):
        rates = ep_rate_values((0.0,) * 9 + _flat(xi_r), inertia, inertia_inv, (0.0, 0.0, 0.0))
        u = -(s.inertia @ np.array(rates[9:]))
        return u if force is None else u - force(att_r, xi_r)

    def rate(t, w):
        w = np.asarray(w, dtype=float)
        att_r = s.attitude @ rotation_exp_oracle(t * xi_r)
        u_r = feedforward(att_r)
        eta = rotation_exp_oracle(w[:3])
        att = att_r @ eta
        xi = xi_r + w[3:]
        torque = u_r if force is None else force(att, xi) + u_r
        rates = ep_rate_values(_flat(att) + _flat(xi), inertia, inertia_inv, _flat(torque))
        omega_rel = xi - eta.T @ xi_r
        zeta_dot = inv_right_jacobian(w[:3]) @ omega_rel
        return np.concatenate([zeta_dot, rates[9:]])

    return ErrorField(rate, 6)


def ep_error_matrix(s, t, damping=None, strength=0.0, axis=(0.0, 0.0, 1.0)):
    """The rigid body's tracking-error linearization at time t in closed form:
    A(t) = [[-hat(xi_r), I3],
            [-s I^-1 hat(a) hat(R_r(t)^T e_z), I^-1 (hat(I xi_r) - hat(xi_r) I - D)]]
    with R_r(t) = R_0 exp(t xi_r), a the unit force axis, s the force
    strength and D the damping (zero when None)."""
    xi_r = s.velocity
    inertia_inv = np.linalg.inv(s.inertia)
    a = np.asarray(axis, dtype=float)
    a = a / np.linalg.norm(a)
    d = np.zeros((3, 3)) if damping is None else np.diag(damping)
    att_r = s.attitude @ rotation_exp_oracle(t * xi_r)
    out = np.zeros((6, 6))
    out[:3, :3] = -hat(xi_r)
    out[:3, 3:] = np.eye(3)
    out[3:, :3] = -strength * inertia_inv @ hat(a) @ hat(att_r.T @ np.array([0.0, 0.0, 1.0]))
    out[3:, 3:] = inertia_inv @ (hat(s.inertia @ xi_r) - hat(xi_r) @ s.inertia - d)
    return out


class IntegratedTrajectoryOracle(IntegratedTrajectory):
    """IntegratedTrajectory whose pose runs numerics.integrate on the full
    unicycle field, four input calls per step, from the nearest knot."""

    def _rate(self, t, w):
        u, v = finite_input(RobotInput(*self._input_fn(t)))
        return dynamics_values(w[2], u, v)

    def pose(self, t):
        if t < 0.0:
            raise ValueError(f"time must be >= 0, got {t}")
        i = bisect.bisect_right(self._times, t) - 1
        t0 = self._times[i]
        if t0 == t:
            return self._knots[i]
        _, states = integrate(self._rate, self._knots[i], t0, t, _POSE_STEP)
        w = states[-1]
        pose = GroupElement(w[0], w[1], se2.normalize_angle(w[2]))
        self._times.insert(i + 1, t)
        self._knots.insert(i + 1, pose)
        return pose


def assert_close(got, want, rtol=1e-12):
    """Largest entry-wise difference within rtol of the largest oracle entry."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert np.max(np.abs(got - want)) <= rtol * np.max(np.abs(want))


def assert_rates_close(got, want):
    """assert_close, except where the oracle's largest entry is subnormal:
    rates near 1e-315 (products of values near 1e-158) lie on a fixed grid
    of 2^-1074 where no relative bound can hold, so there the bound is 16
    grid steps.  An all-zero oracle still needs an exactly zero result."""
    want = np.asarray(want, dtype=float)
    if 0.0 < np.max(np.abs(want)) < np.finfo(float).tiny:
        assert np.max(np.abs(np.asarray(got) - want)) <= 16 * np.finfo(float).smallest_subnormal
    else:
        assert_close(got, want)
