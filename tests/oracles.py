"""Reference forms that the package's bare-float cores are checked against,
and the forms that only tests use.

The SE(2) inverse and principal log (ValueError at heading +-pi), the
boxed group product compose and relative-pose rate relative_rate (written
apart from se2.compose_values and se2.relative_rate_values, which are held
to them bit for bit), the squared-range output error, the Gram
condition number seen from an estimate and the estimates bisected to
either side of its cap, the numpy rotation_exp that builds the test
attitudes, and the scene helpers
measure (a pose's squared ranges, the measure_values tuple) and
transform_landmarks (a landmark set moved by a planar transformation): no
command reaches them, so they live here rather than in the package
(tools/output_digests.py --unreached keeps it that way). The controller,
observer and closed-loop error fields composed from the public layers and
those two SE(2) forms, each value boxed (the tracking error and the
feedback from their cores relative_pose and feedback_values, the input as
a RobotInput); a
central-difference Jacobian on numpy arrays, one array per shifted point,
which numerics.linearize_error_field gives bit for bit at the origin and
the other fd checks of closed forms use; numerics.rk4_step as the
per-component loop over zip that the generated straight-line step is held
to bit for bit (with bits, which compares floats by their bytes);
integrate, a fixed-step RK4 loop written apart from numerics.rk4_run (a
list of states, the finite check and an optional after_step), which
rk4_run as written is held to bit for bit on each model's parts; the
Riccati flow of riccati_values and the Euler-Poincare rates written as
the textbook formulas, with 3x3 arrays, np.linalg.solve and np.cross, plus
the runs that integrate them with integrate (the rigid-body run also under
a force model, which mech.integrate_ep never applies); the SVD projection
onto SO(3) that project_attitude's polar iteration is held to; hat,
Rodrigues' formula, J_r^-1, the force models and the rigid body's
tracking-error field on 3x3 arrays, and that field's linearization in
closed form; the rigid body's full-attitude rates ep_rate_values (R hat(xi)
and Euler's equation in one 12-tuple) and its full-attitude tracking-error
field, the 9-entry attitude products by matmul_values, which
mech._free_body's rate and mech.tracking_error_field are held to bit for
bit;
IntegratedTrajectory's reference poses integrated by integrate on the
unicycle field; the relative check that the property tests hold the
cores to, with its grid bound where the oracle is subnormal; and the
time-series CSV built as one string from the whole table, which
reporting.write_timeseries_csv's blocks are held to byte for byte; the
recursive JSON writer with json.dumps quoting and an isinstance chain,
which reporting.json_text is held to byte for byte and raise for raise;
max_pairwise_distance with np.linalg.norm and linearize_error_field with
its Jacobian gathered by zip, which the package's forms are held to bit for
bit.
"""

import bisect
import json
import math
import struct
from typing import Callable, Sequence

import numpy as np

from invtrack import se2
from invtrack.controller import feedback_values, relative_pose
from invtrack.ekf import DEFAULT_INITIAL_COVARIANCE, ekf_jacobians
from invtrack.mech import (
    SMALL_ROTATION,
    inv_right_jacobian_values,
    rotation_exp_values,
)
from invtrack.numerics import FD_STEP, ErrorField, VectorField, grid, rk4_step
from invtrack.observer import MAX_CONDITION, body_frame_landmarks, gram_condition, observer_field
from invtrack.errors import DivergenceError, GeometryError
from invtrack.reporting import CSV_COLUMNS, FLOAT_FORMAT
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


def compose(a, b):
    """Group product a*b on boxed poses, written apart from
    se2.compose_values: the oracle that the core and its se2.compose
    wrapper are held to bit for bit."""
    ca = math.cos(a.theta)
    sa = math.sin(a.theta)
    return GroupElement(
        b.x * ca - b.y * sa + a.x,
        b.x * sa + b.y * ca + a.y,
        se2.normalize_angle(a.theta + b.theta),
    )


def relative_rate(a, a_rate, b, b_rate):
    """Coordinate time-derivative of the relative pose inverse(a)*b on boxed
    poses, a_rate and b_rate the world-frame coordinate rates (xdot, ydot,
    thetadot) of the two: the form of se2.relative_rate_values that the
    composed error fields use."""
    c = math.cos(a.theta)
    s = math.sin(a.theta)
    dxb = b.x - a.x
    dyb = b.y - a.y
    ex = dxb * c + dyb * s
    ey = -dxb * s + dyb * c
    rvx = b_rate[0] - a_rate[0]
    rvy = b_rate[1] - a_rate[1]
    wa = a_rate[2]
    return (
        rvx * c + rvy * s + wa * ey,
        -rvx * s + rvy * c - wa * ex,
        b_rate[2] - a_rate[2],
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


def body_frame_condition(x_hat, lm):
    """gain_matrix's Gram condition number, seen from the estimate x_hat."""
    coords = body_frame_landmarks(x_hat, lm)
    g = coords @ coords.T
    return gram_condition(g[0, 0], g[0, 1], g[1, 1])


def cap_boundary_estimate(side, lm):
    """An estimate far out along a ray, where the landmarks lm look nearly
    collinear, bisected in distance to a Gram condition number 1e-3
    relative below (side -1) or above (side +1) MAX_CONDITION."""
    target = MAX_CONDITION * (1.0 + side * 1e-3)

    def pose(dist):
        return GroupElement(dist * math.cos(0.3), dist * math.sin(0.3), 2.0)

    lo, hi = 10.0, 1e7
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if body_frame_condition(pose(mid), lm) < target:
            lo = mid
        else:
            hi = mid
    return pose(lo)


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
        g = compose(g_ref, GroupElement(w[0], w[1], w[2]))
        gh = compose(g, GroupElement(w[3], w[4], w[5]))
        inp = boxed_feedback(relative_pose(*g_ref, *gh), ref_inp, kg)
        y = measure(g, lm)
        dref = dynamics(g_ref, ref_inp)
        dg = dynamics(g, inp)
        dgh = observer_field(gh, inp, lm, y, og)
        deta = relative_rate(g_ref, dref, g, dg)
        deps = relative_rate(g, dg, gh, dgh)
        return np.asarray(deta + deps)

    return ErrorField(rate, 6)


def composed_controller_error_field(traj, gains):
    """controller_error_field composed from the public layers: reference
    pose and input per call, feedback and both dynamics boxed and checked."""

    def rate(t, w):
        g_ref = traj.pose(t)
        ref_inp = traj.input(t)
        g = compose(g_ref, GroupElement(w[0], w[1], w[2]))
        inp = boxed_feedback(w[:3], ref_inp, gains)
        dref = dynamics(g_ref, ref_inp)
        dg = dynamics(g, inp)
        return np.asarray(relative_rate(g_ref, dref, g, dg))

    return ErrorField(rate, 3)


def composed_observer_error_field(traj, lm, gains):
    """observer_error_field composed from the public layers: the measured
    ranges, the boxed dynamics and observer_field; the Gram-cap
    GeometryError carries the time as in the package."""

    def rate(t, w):
        g = traj.pose(t)
        inp = traj.input(t)
        gh = compose(g, GroupElement(w[0], w[1], w[2]))
        y = measure(g, lm)
        dg = dynamics(g, inp)
        try:
            dgh = observer_field(gh, inp, lm, y, gains)
        except GeometryError as err:
            raise GeometryError(f"{err} (at t={t:.6g})") from err
        return np.asarray(relative_rate(g, dg, gh, dgh))

    return ErrorField(rate, 3)


def bits(values):
    """Each float's bytes, for comparing results bit for bit.  Every NaN
    reads as one value: CPython's float add picks which NaN operand to
    return differently once the interpreter specializes the instruction, so
    the same line of code can flip a NaN's sign bit."""
    return [b"nan" if v != v else struct.pack("d", v) for v in values]


def outcome(rate, t, w):
    """rate(t, w) as the bits of its result, or as the class, message, time
    and cause class of what it raised."""
    try:
        return ("ok", bits(rate(t, w)))
    except (ValueError, ArithmeticError) as err:
        return (type(err), str(err), getattr(err, "time", None), type(err.__cause__))


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


def integrate(
    field: VectorField,
    x0: Sequence[float],
    t0: float,
    t1: float,
    dt: float,
    after_step: Callable[[float, tuple], tuple] | None = None,
    state: str = "state",
) -> tuple[list[float], list[tuple]]:
    """Integrate xdot = field(t, x) from t0 to t1 with fixed-step RK4.

    The grid is grid(t0, t1, dt).  after_step(t, x) runs once after each
    step, with t the step's end time, and the state it returns is carried
    forward.  Returns (times, states)
    with states[i] the state at times[i], including t0.

    Raises:
        ScenarioError: the grid needs more than MAX_STEPS steps.
        DivergenceError: a state component became NaN/Inf; its message
            reads "<state> diverged".
    """
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    if t1 < t0:
        raise ValueError(f"t1 must be >= t0, got [{t0}, {t1}]")
    times = grid(t0, t1, dt)
    x = tuple(float(c) for c in x0)
    states = [x]
    for i in range(len(times) - 1):
        t = times[i + 1]
        x = rk4_step(field, times[i], x, t - times[i])
        if not all(map(math.isfinite, x)):
            raise DivergenceError(t, f"{state} diverged")
        if after_step is not None:
            x = after_step(t, x)
        states.append(x)
    return times, states


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
    return lambda vertical, xi: -d * xi


def gravity_gradient_oracle(strength, body_axis):
    """Torque strength * (Gamma x axis) on arrays, Gamma the vertical, axis normalized."""
    axis = np.asarray(body_axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    return lambda vertical, xi: strength * np.cross(vertical, axis)


def ep_dynamics_oracle(attitude, velocity, inertia, force, u):
    """force is a package force model, called on flat tuples: the vertical
    R^T e_z (the attitude's last row) and the velocity."""
    att_dot = attitude @ hat(velocity)
    torque = u if force is None else np.array(force(_flat(attitude[2]), _flat(velocity))) + u
    gyro = np.linalg.solve(inertia, np.cross(inertia @ velocity, velocity))
    return att_dot, gyro + np.linalg.solve(inertia, torque)


def ep_oracle_run(s, t_end, dt, force=None):
    """integrate_ep with ep_dynamics_oracle as the right-hand side, under
    the force model alone (integrate_ep runs the free body only):
    (times, attitudes (n, 3, 3), velocities (n, 3))."""

    def rate(t, w):
        att_dot, vel_dot = ep_dynamics_oracle(
            np.array(w[:9]).reshape(3, 3), np.array(w[9:]), s.inertia, force, np.zeros(3)
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
    arrays (damping_oracle, gravity_gradient_oracle), called on the
    attitude's last row R^T e_z and the velocity, or None."""
    xi_r = s.velocity
    inertia, inertia_inv = _flat(s.inertia), _flat(np.linalg.inv(s.inertia))

    def feedforward(att_r):
        rates = ep_rate_values((0.0,) * 9 + _flat(xi_r), inertia, inertia_inv, (0.0, 0.0, 0.0))
        u = -(s.inertia @ np.array(rates[9:]))
        return u if force is None else u - force(att_r[2], xi_r)

    def rate(t, w):
        w = np.asarray(w, dtype=float)
        att_r = s.attitude @ rotation_exp_oracle(t * xi_r)
        u_r = feedforward(att_r)
        eta = rotation_exp_oracle(w[:3])
        att = att_r @ eta
        xi = xi_r + w[3:]
        torque = u_r if force is None else force(att[2], xi) + u_r
        rates = ep_rate_values(_flat(att) + _flat(xi), inertia, inertia_inv, _flat(torque))
        omega_rel = xi - eta.T @ xi_r
        zeta_dot = inv_right_jacobian(w[:3]) @ omega_rel
        return np.concatenate([zeta_dot, rates[9:]])

    return ErrorField(rate, 6)


def matmul_values(a, b):
    """Product of two 3x3 matrices held row-major in 9-tuples."""
    a00, a01, a02, a10, a11, a12, a20, a21, a22 = a
    b00, b01, b02, b10, b11, b12, b20, b21, b22 = b
    return (
        a00 * b00 + a01 * b10 + a02 * b20,
        a00 * b01 + a01 * b11 + a02 * b21,
        a00 * b02 + a01 * b12 + a02 * b22,
        a10 * b00 + a11 * b10 + a12 * b20,
        a10 * b01 + a11 * b11 + a12 * b21,
        a10 * b02 + a11 * b12 + a12 * b22,
        a20 * b00 + a21 * b10 + a22 * b20,
        a20 * b01 + a21 * b11 + a22 * b21,
        a20 * b02 + a21 * b12 + a22 * b22,
    )


def ep_rate_values(w, inertia, inertia_inv, torque):
    """Attitude and velocity derivatives on the flat state (attitude
    row-major, velocity), on bare floats: R hat(xi) row-major and
    I^-1 ((I xi) x xi + torque), with I and I^-1 row-major."""
    r00, r01, r02, r10, r11, r12, r20, r21, r22, a, b, c = w
    i00, i01, i02, i10, i11, i12, i20, i21, i22 = inertia
    j00, j01, j02, j10, j11, j12, j20, j21, j22 = inertia_inv
    t0, t1, t2 = torque
    m0 = i00 * a + i01 * b + i02 * c
    m1 = i10 * a + i11 * b + i12 * c
    m2 = i20 * a + i21 * b + i22 * c
    g0 = m1 * c - m2 * b + t0
    g1 = m2 * a - m0 * c + t1
    g2 = m0 * b - m1 * a + t2
    return (
        r01 * c - r02 * b, r02 * a - r00 * c, r00 * b - r01 * a,
        r11 * c - r12 * b, r12 * a - r10 * c, r10 * b - r11 * a,
        r21 * c - r22 * b, r22 * a - r20 * c, r20 * b - r21 * a,
        j00 * g0 + j01 * g1 + j02 * g2,
        j10 * g0 + j11 * g1 + j12 * g2,
        j20 * g0 + j21 * g1 + j22 * g2,
    )


def full_attitude_error_field(s, force):
    """mech.tracking_error_field on bare floats with the whole attitude: the
    reference and error attitudes as 9-entry products (matmul_values), the
    force on the 9-entry attitude, and the velocity rate read off the
    12-entry ep_rate_values.  force maps (attitude row-major 9-tuple,
    velocity 3-tuple) to a 3-tuple torque, or is None."""
    inertia, inertia_inv = s.inertia_flat, s.inertia_inv_flat
    attitude = _flat(s.attitude)
    xi_r = x0, x1, x2 = _flat(s.velocity)

    def feedforward(att_r):
        a, b, c = xi_r
        i00, i01, i02, i10, i11, i12, i20, i21, i22 = inertia
        m0 = i00 * a + i01 * b + i02 * c
        m1 = i10 * a + i11 * b + i12 * c
        m2 = i20 * a + i21 * b + i22 * c
        u0, u1, u2 = m2 * b - m1 * c, m0 * c - m2 * a, m1 * a - m0 * b
        if force is None:
            return (u0, u1, u2)
        f0, f1, f2 = force(att_r, xi_r)
        return (u0 - f0, u1 - f1, u2 - f2)

    def rate(t, w):
        att_r = matmul_values(attitude, rotation_exp_values(t * x0, t * x1, t * x2))
        u_r = feedforward(att_r)
        z0, z1, z2, d0, d1, d2 = w
        eta = e00, e01, e02, e10, e11, e12, e20, e21, e22 = rotation_exp_values(z0, z1, z2)
        att = matmul_values(att_r, eta)
        xi = v0, v1, v2 = (x0 + d0, x1 + d1, x2 + d2)
        if force is None:
            torque = u_r
        else:
            f0, f1, f2 = force(att, xi)
            torque = (f0 + u_r[0], f1 + u_r[1], f2 + u_r[2])
        rates = ep_rate_values(att + xi, inertia, inertia_inv, torque)
        o0 = v0 - (e00 * x0 + e10 * x1 + e20 * x2)
        o1 = v1 - (e01 * x0 + e11 * x1 + e21 * x2)
        o2 = v2 - (e02 * x0 + e12 * x1 + e22 * x2)
        j00, j01, j02, j10, j11, j12, j20, j21, j22 = inv_right_jacobian_values(z0, z1, z2)
        return (
            j00 * o0 + j01 * o1 + j02 * o2,
            j10 * o0 + j11 * o1 + j12 * o2,
            j20 * o0 + j21 * o1 + j22 * o2,
        ) + rates[9:]

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
    """IntegratedTrajectory whose pose runs integrate on the full
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


def timeseries_csv(result) -> str:
    """reporting.write_timeseries_csv's file as one string, built from the
    whole table at once: the header, then one FLOAT_FORMAT row per time."""
    table = np.column_stack((
        result.times,
        result.poses,
        result.estimates,
        result.references,
        result.tracking_errors,
        result.estimation_errors,
        result.inputs,
    ))
    row_format = ",".join([FLOAT_FORMAT] * len(CSV_COLUMNS))
    lines = [",".join(CSV_COLUMNS)]
    lines.extend(row_format % tuple(row) for row in table.tolist())
    lines.append("")
    return "\n".join(lines)


def _emit_oracle(obj, indent, pieces):
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            pieces.append("{}")
            return
        pieces.append("{\n")
        last = len(obj) - 1
        for i, (key, value) in enumerate(obj.items()):
            if not isinstance(key, str):
                raise TypeError(f"JSON keys must be strings, got {key!r}")
            pieces.append(f'{pad}  {json.dumps(key)}: ')
            _emit_oracle(value, indent + 1, pieces)
            pieces.append(",\n" if i != last else "\n")
        pieces.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            pieces.append("[]")
            return
        pieces.append("[\n")
        last = len(obj) - 1
        for i, value in enumerate(obj):
            pieces.append(pad + "  ")
            _emit_oracle(value, indent + 1, pieces)
            pieces.append(",\n" if i != last else "\n")
        pieces.append(pad + "]")
    elif isinstance(obj, bool):
        pieces.append("true" if obj else "false")
    elif obj is None:
        pieces.append("null")
    elif isinstance(obj, int):
        pieces.append(str(obj))
    elif isinstance(obj, float):
        if not math.isfinite(obj):
            raise ValueError(f"JSON has no value for the float {obj}")
        pieces.append(FLOAT_FORMAT % obj)
    elif isinstance(obj, str):
        pieces.append(json.dumps(obj))
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def json_text_oracle(obj) -> str:
    """reporting.json_text as an isinstance chain that recurses with an
    integer indent and quotes each string by json.dumps."""
    pieces = []
    _emit_oracle(obj, 0, pieces)
    pieces.append("\n")
    return "".join(pieces)


def max_pairwise_distance_oracle(mats) -> float:
    """numerics.max_pairwise_distance with np.linalg.norm on each pair."""
    norms = [0.0]
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(len(mats)):
            for j in range(i + 1, len(mats)):
                norms.append(float(np.linalg.norm(mats[i] - mats[j])))
    return float(np.max(norms))


def linearize_error_field_oracle(field, times):
    """numerics.linearize_error_field with each Jacobian gathered row by
    row through zip and checked by np.all(np.isfinite(...))."""
    rate, origin = field.rate, (0.0,) * field.dim
    shifted = [
        (origin[:j] + (FD_STEP,) + origin[j + 1:], origin[:j] + (-FD_STEP,) + origin[j + 1:])
        for j in range(field.dim)
    ]
    h2 = 2.0 * FD_STEP
    mats = []
    for t in times:
        cols = []
        for up, down in shifted:
            hi = rate(t, up)
            lo = rate(t, down)
            cols.append([(a - b) / h2 for a, b in zip(hi, lo)])
        jac = np.array(list(zip(*cols)), dtype=float)
        if not np.all(np.isfinite(jac)):
            raise DivergenceError(t, "error-field linearization is not finite")
        mats.append(jac)
    return mats
