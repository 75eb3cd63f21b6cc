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
from .numerics import integrate, max_pairwise_distance
from .observer import output_error
from .robot import LandmarkSet, Measurement, RobotInput, dynamics, measure
from .se2 import GroupElement

DEFAULT_PROCESS_NOISE = 1e-3
DEFAULT_MEASUREMENT_NOISE = 1e-2
DEFAULT_INITIAL_COVARIANCE = 1e-2


@dataclass(frozen=True, eq=False)
class EkfState:
    """Pose estimate with covariance P (3x3, symmetric positive semidefinite)."""

    x_hat: GroupElement
    P: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.P, dtype=float)
        object.__setattr__(self, "P", p)
        if p.shape != (3, 3):
            raise ValueError(f"P must be 3x3, got {p.shape}")
        if not np.all(np.isfinite(p)):
            raise ValueError("P has non-finite entries")
        if not np.allclose(p, p.T, atol=1e-9):
            raise ValueError("P must be symmetric")
        if np.min(np.linalg.eigvalsh(0.5 * (p + p.T))) < -1e-9:
            raise ValueError("P must be positive semidefinite")


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


def ekf_field(
    x_hat: GroupElement,
    P: np.ndarray,
    inp: RobotInput,
    lm: LandmarkSet,
    y: Measurement,
    Q: np.ndarray,
    R: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Time derivative of (x_hat, P) under the continuous-time Riccati flow.

    Takes raw arrays and checks nothing: callers validate P (see EkfState)
    and the shape of R (p x p) once, before a run.
    """
    F, H = ekf_jacobians(x_hat, inp, lm)
    L = P @ np.linalg.solve(R, H).T
    resid = output_error(x_hat, lm, y)
    xdot = np.asarray(dynamics(x_hat, inp)) - L @ resid
    pdot = F @ P + P @ F.T + Q - L @ H @ P
    return xdot, 0.5 * (pdot + pdot.T)


def ekf_error_matrix(
    x_hat: GroupElement,
    inp: RobotInput,
    lm: LandmarkSet,
    L: np.ndarray,
) -> np.ndarray:
    """World-frame linearized error dynamics F - L H for a given gain."""
    F, H = ekf_jacobians(x_hat, inp, lm)
    Lm = np.asarray(L, dtype=float)
    if Lm.shape != (3, len(lm)):
        raise ValueError(f"L must be 3x{len(lm)}, got {Lm.shape}")
    return F - Lm @ H


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
    Q: np.ndarray | None = None,
    R: np.ndarray | None = None,
    P0: np.ndarray | None = None,
) -> EkfRun:
    """Integrate the filter fed by noise-free measurements of the reference.

    The estimate starts on the reference, so the run isolates how the
    covariance (and with it the gain) evolves along the path.  P0 and R are
    validated here, once; after every step P is re-symmetrized and checked
    to be positive semidefinite.
    """
    if dt <= 0.0 or t_end <= 0.0:
        raise ValueError(f"dt and t_end must be positive, got dt={dt}, t_end={t_end}")
    p = len(lm)
    Qm = np.eye(3) * DEFAULT_PROCESS_NOISE if Q is None else np.asarray(Q, dtype=float)
    Rm = np.eye(p) * DEFAULT_MEASUREMENT_NOISE if R is None else np.asarray(R, dtype=float)
    Pm = np.eye(3) * DEFAULT_INITIAL_COVARIANCE if P0 is None else np.asarray(P0, dtype=float)
    if Rm.shape != (p, p):
        raise ValueError(f"R must be {p}x{p}, got {Rm.shape}")
    start = EkfState(traj.pose(0.0), Pm)

    def rate(t: float, w: tuple) -> list:
        y = measure(traj.pose(t), lm)
        P = np.array(w[3:]).reshape(3, 3)
        xdot, pdot = ekf_field(GroupElement(w[0], w[1], w[2]), P, traj.input(t), lm, y, Qm, Rm)
        return xdot.tolist() + pdot.ravel().tolist()

    def keep_psd(t: float, w: tuple) -> tuple:
        P = np.array(w[3:]).reshape(3, 3)
        P = 0.5 * (P + P.T)
        if np.min(np.linalg.eigvalsh(P)) < -1e-9:
            # The Riccati flow preserves positive semidefiniteness, so a P
            # outside the cone means the step size cannot follow the
            # initial covariance transient.
            raise DivergenceError(
                t, "EKF integration unstable (P must be positive semidefinite); reduce dt"
            )
        return w[:3] + tuple(P.ravel().tolist())

    w0 = (start.x_hat.x, start.x_hat.y, start.x_hat.theta, *start.P.ravel().tolist())
    times, states = integrate(rate, w0, 0.0, t_end, dt, keep_psd)
    w_rows = np.asarray(states)
    return EkfRun(np.asarray(times), w_rows[:, :3], w_rows[:, 3:].reshape(-1, 3, 3))


def time_variance_probe(
    traj,
    lm: LandmarkSet,
    times,
    dt: float = 1e-3,
    Q: np.ndarray | None = None,
    R: np.ndarray | None = None,
    P0: np.ndarray | None = None,
) -> float:
    """Max pairwise Frobenius distance between F - L H sampled along a run."""
    times = sorted(float(t) for t in times)
    if len(times) < 2:
        raise ValueError("need at least two probe times")
    run = run_along_reference(traj, lm, times[-1], dt, Q=Q, R=R, P0=P0)
    p = len(lm)
    Rm = np.eye(p) * DEFAULT_MEASUREMENT_NOISE if R is None else np.asarray(R, dtype=float)
    mats = []
    for tq in times:
        i = int(np.argmin(np.abs(run.times - tq)))
        x_hat = GroupElement(*run.estimates[i])
        _, H = ekf_jacobians(x_hat, traj.input(tq), lm)
        L = run.covariances[i] @ np.linalg.solve(Rm, H).T
        mats.append(ekf_error_matrix(x_hat, traj.input(tq), lm, L))
    return max_pairwise_distance(mats)
