"""Continuous-time extended Kalman filter on raw pose coordinates.

Kept as the contrast case: its correction is built in the world frame, so
the linearized error dynamics F - L H inherit the robot's position along
the trajectory and keep changing even on a steady circle.  The invariant
observer exists precisely to remove that time dependence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError
from .numerics import generated_run, grid, max_pairwise_distance, once_per_time, probe_times
from .robot import LandmarkSet, RobotInput, dynamics_values, measure_values, non_finite_input
from .se2 import GroupElement

DEFAULT_PROCESS_NOISE = 1e-3
DEFAULT_MEASUREMENT_NOISE = 1e-2
DEFAULT_INITIAL_COVARIANCE = 1e-2


def ekf_jacobians(
    x_hat: GroupElement,
    inp: RobotInput,
    lm: LandmarkSet,
) -> tuple[np.ndarray, np.ndarray]:
    """Analytic F = df/dx and H = dh/dx at the estimate."""
    u = inp.u
    F = np.array(
        [
            [0.0, 0.0, -u * math.sin(x_hat.theta)],
            [0.0, 0.0, u * math.cos(x_hat.theta)],
            [0.0, 0.0, 0.0],
        ]
    )
    H = np.zeros((len(lm), 3))
    for i, (lx, ly) in enumerate(lm.coords):
        H[i, 0] = 2.0 * (x_hat.x - lx)
        H[i, 1] = 2.0 * (x_hat.y - ly)
    return F, H


def riccati_values(
    w: tuple,
    u: float,
    v: float,
    coords: tuple,
    y: tuple,
    q: float,
    r_inv: float,
) -> tuple:
    """Time derivative of (x_hat, P) under the continuous-time Riccati flow,
    on the flat state (x, y, theta, p00, p01, p02, p11, p12, p22) that holds
    the upper triangle of the symmetric P, with Q = q I and R^-1 = r_inv I.

    y is the measurement, one value per landmark in coords.  Checks nothing.

    H has rows (2(x - lx), 2(y - ly), 0), so with S = r_inv H the gain
    L = P S^T only ever meets the first two columns of P:
    L res = P[:, :2] (S^T res) and L H P = P[:, :2] (S^T H) P[:2, :].
    """
    x, yy, th, p00, p01, p02, p11, p12, p22 = w
    g0 = g1 = m00 = m01 = m10 = m11 = 0.0
    for (lx, ly), yi in zip(coords, y):
        hx = 2.0 * (x - lx)
        hy = 2.0 * (yy - ly)
        s0 = r_inv * hx
        s1 = r_inv * hy
        res = (x - lx) ** 2 + (yy - ly) ** 2 - yi
        g0 += s0 * res
        g1 += s1 * res
        m00 += s0 * hx
        m01 += s0 * hy
        m10 += s1 * hx
        m11 += s1 * hy
    # A = P[:, :2] (S^T H), so L H P = A P[:2, :].
    a00 = p00 * m00 + p01 * m10
    a01 = p00 * m01 + p01 * m11
    a10 = p01 * m00 + p11 * m10
    a11 = p01 * m01 + p11 * m11
    a20 = p02 * m00 + p12 * m10
    a21 = p02 * m01 + p12 * m11
    # F has the single nonzero column f = (-u sin, u cos, 0) at index 2, so
    # (F P)_ij = f_i P_2j and (P F^T)_ij = P_i2 f_j.
    c, s, om = dynamics_values(th, u, v)
    f0 = -s
    d00 = f0 * p02 + p02 * f0 + q - (a00 * p00 + a01 * p01)
    d01 = f0 * p12 + p02 * c - (a00 * p01 + a01 * p11)
    d02 = f0 * p22 - (a00 * p02 + a01 * p12)
    d10 = c * p02 + p12 * f0 - (a10 * p00 + a11 * p01)
    d11 = c * p12 + p12 * c + q - (a10 * p01 + a11 * p11)
    d12 = c * p22 - (a10 * p02 + a11 * p12)
    d20 = p22 * f0 - (a20 * p00 + a21 * p01)
    d21 = p22 * c - (a20 * p01 + a21 * p11)
    d22 = q - (a20 * p02 + a21 * p12)
    # d01 and d10 (and each other off-diagonal pair) agree up to rounding;
    # their mean is the one rate of the entry P keeps for the pair.
    e01 = 0.5 * (d01 + d10)
    e02 = 0.5 * (d02 + d20)
    e12 = 0.5 * (d12 + d21)
    return (
        c - (p00 * g0 + p01 * g1),
        s - (p01 * g0 + p11 * g1),
        om - (p02 * g0 + p12 * g1),
        d00, e01, e02, d11, e12, d22,
    )


def _riccati_rate(reference, coords, q, r_inv):
    """The filter's parts for numerics.rk4_run, written with the core calls:
    the rate on the flat state of riccati_values, fed by noise-free
    measurements of the reference reference(t) = (x_r, y_r, theta_r, u_r,
    v_r); the state as its row; and after(t, w), the finite check and then
    keep_psd, which a NaN passes.

    A non-finite reference input raises robot.non_finite_input's error.  An
    estimate that squares out of float range, a stage heading that leaves it
    (cos of inf raises the try's only ValueError) or a non-finite state after
    a step raises DivergenceError at t.
    """
    def rate(t, w):
        xr, yr, _, u, v = reference(t)
        if not (math.isfinite(u) and math.isfinite(v)):
            raise non_finite_input(u, v)
        y = measure_values(xr, yr, coords)
        try:
            # Named, so that generated code hands the stage its nine values
            # without a tuple built to carry them.
            dx, dy, dth, d00, d01, d02, d11, d12, d22 = riccati_values(w, u, v, coords, y, q, r_inv)
        except (OverflowError, ValueError) as err:  # ** 2 past ~1.3e154, or cos(inf)
            raise DivergenceError(t, "EKF state diverged") from err
        return (dx, dy, dth, d00, d01, d02, d11, d12, d22)

    def row(t, w):
        return w

    def after(t, w):
        for c in w:
            if not math.isfinite(c):
                raise DivergenceError(t, "EKF state diverged")
        keep_psd(t, w)
        return w

    return rate, row, after


# keep_psd's floor on the smallest eigenvalue of P.
PSD_FLOOR = -1e-9


def keep_psd(t: float, w: tuple) -> tuple:
    """The filter run's post-step check: w unchanged once its P, on the
    flat state (x, y, theta, p00, p01, p02, p11, p12, p22), has
    lambda_min(P) >= PSD_FLOOR.

    That holds exactly when every principal minor of A = P - PSD_FLOOR I is
    >= 0; they are read on bare floats from the unpacked state.

    Raises:
        DivergenceError: at t, when P has left the cone.
    """
    x, y, th, p00, p01, p02, p11, p12, p22 = w
    a00 = p00 - PSD_FLOOR
    a11 = p11 - PSD_FLOOR
    a22 = p22 - PSD_FLOOR
    m12 = a11 * a22 - p12 * p12
    if (
        a00 < 0.0 or a11 < 0.0 or a22 < 0.0 or m12 < 0.0
        or a00 * a22 - p02 * p02 < 0.0
        or a00 * a11 - p01 * p01 < 0.0
        or a00 * m12 - p01 * (p01 * a22 - p12 * p02) + p02 * (p01 * p12 - a11 * p02) < 0.0
    ):
        # The Riccati flow preserves positive semidefiniteness, so a P
        # outside the cone means the step size cannot follow the initial
        # covariance transient.
        raise DivergenceError(
            t, "EKF integration unstable (P must be positive semidefinite); reduce dt"
        )
    return w


@dataclass(frozen=True)
class EkfRun:
    """Sampled filter run: times, estimates (n, 3), covariances (n, 3, 3)."""

    times: np.ndarray
    estimates: np.ndarray
    covariances: np.ndarray


def run_along_reference(
    traj,
    lm: LandmarkSet,
    t_end: float,
    dt: float,
    q: float,
    r: float,
    p0: float,
) -> EkfRun:
    """Integrate the filter fed by noise-free measurements of the reference,
    with Q = q I, R = r I and P(0) = p0 I.

    The estimate starts on the reference, so the run isolates how the
    covariance (and with it the gain) evolves along the path.  The noise
    levels are validated here, once; after every step P is checked to be
    positive semidefinite, and a stage estimate that squares out of float
    range, or a stage heading past it, raises DivergenceError at the stage
    time.  The run is rk4_run on _riccati_rate as numerics.generated_run
    generates it for the landmark count, on the grid numerics.grid(0,
    t_end, dt).  The flow carries the upper triangle of P, and the
    returned run holds it expanded to full matrices.
    """
    if dt <= 0.0 or t_end <= 0.0:
        raise ValueError(f"dt and t_end must be positive, got dt={dt}, t_end={t_end}")
    for name, level in (("q", q), ("r", r), ("p0", p0)):
        if not (level > 0.0 and math.isfinite(level)):
            raise ValueError(f"noise level {name} must be positive and finite, got {level}")
    coords = lm.coords
    run = generated_run(_riccati_rate, len(coords), 9)(once_per_time(traj.sample), coords, q, 1.0 / r)
    w0 = tuple(map(float, (*traj.pose(0.0), p0, 0.0, 0.0, p0, 0.0, p0)))
    times = grid(0.0, t_end, dt)
    w_rows = np.frombuffer(run(w0, times)).reshape(-1, 9)
    # Row-major P from (p00, p01, p02, p11, p12, p22).
    covariances = w_rows[:, [3, 4, 5, 4, 6, 7, 5, 7, 8]].reshape(-1, 3, 3)
    return EkfRun(np.asarray(times), w_rows[:, :3], covariances)


def time_variance_probe(
    traj,
    lm: LandmarkSet,
    times,
    dt: float = 1e-3,
    q: float = DEFAULT_PROCESS_NOISE,
    r: float = DEFAULT_MEASUREMENT_NOISE,
    p0: float = DEFAULT_INITIAL_COVARIANCE,
) -> float:
    """Max pairwise Frobenius distance between the world-frame linearized
    error dynamics F - L H, with L = P H^T / r, sampled along a run."""
    times = probe_times(sorted(float(t) for t in times))
    run = run_along_reference(traj, lm, times[-1], dt, q, r, p0)
    mats = []
    for tq in times:
        i = int(np.argmin(np.abs(run.times - tq)))
        F, H = ekf_jacobians(GroupElement(*run.estimates[i]), traj.input(tq), lm)
        # A product past float range is inf, which the drift carries to main.
        with np.errstate(over="ignore", invalid="ignore"):
            L = run.covariances[i] @ (H * (1.0 / r)).T
            mats.append(F - L @ H)
    return max_pairwise_distance(mats)
