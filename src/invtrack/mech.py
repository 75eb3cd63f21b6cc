"""Rigid-body attitude dynamics and the invariance probe for their tracking error.

A rotating body with left-invariant kinetic energy has velocity dynamics
that never see the attitude directly; attitude enters only through the
applied force model, which reads it as the body-frame vertical
Gamma = R^T e_z (the heavy top's advected quantity).  Spun about a
constant body velocity (a relative equilibrium plus the matching
feedforward), the linearized tracking-error dynamics are therefore frozen
in time exactly when the force model ignores Gamma.  The probe below
measures that drift numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import DivergenceError
from .numerics import ErrorField, grid, once_per_time, rk4_run, time_invariance_probe

ForceModel = Callable[[tuple, tuple], tuple]
"""force(vertical, velocity) -> torque, each a 3-tuple of floats in the body
frame: the vertical Gamma = R^T e_z is the last row of the attitude R."""

SMALL_ROTATION = 1e-8


def _exp_like(x: float, y: float, z: float, p: float, q: float) -> tuple:
    """I + p K + q K^2 row-major, K = hat((x, y, z)) the skew matrix with
    K v = (x, y, z) x v; K^2 has entries x_i x_j off the diagonal."""
    return (
        1.0 - q * (y * y + z * z), -p * z + q * (x * y), p * y + q * (x * z),
        p * z + q * (x * y), 1.0 - q * (x * x + z * z), -p * x + q * (y * z),
        -p * y + q * (x * z), p * x + q * (y * z), 1.0 - q * (x * x + y * y),
    )


def rotation_exp_values(x: float, y: float, z: float) -> tuple:
    """exp(hat(w)) row-major, by Rodrigues' formula with a series branch
    below SMALL_ROTATION."""
    angle = math.sqrt(x * x + y * y + z * z)
    if angle < SMALL_ROTATION:
        return _exp_like(x, y, z, 1.0, 0.5)
    return _exp_like(
        x, y, z, math.sin(angle) / angle, (1.0 - math.cos(angle)) / (angle * angle)
    )


def inv_right_jacobian_values(x: float, y: float, z: float) -> tuple:
    """J_r^-1(w) row-major: maps body angular velocity to the rate of the
    exponential coordinates w, with a series coefficient below 1e-5."""
    angle = math.sqrt(x * x + y * y + z * z)
    if angle < 1e-5:
        coeff = 1.0 / 12.0
    else:
        coeff = 1.0 / (angle * angle) - (1.0 + math.cos(angle)) / (
            2.0 * angle * math.sin(angle)
        )
    return _exp_like(x, y, z, 0.5, coeff)


def orthonormality_defect(m: np.ndarray) -> float:
    """Largest entry of |R^T R - I|, over every matrix of a (..., 3, 3) stack."""
    return float(np.max(np.abs(np.swapaxes(m, -1, -2) @ m - np.eye(3))))


# project_attitude accepts an attitude R whose defect max|R^T R - I| is at
# most PROJECTION_DEFECT_CAP, and then runs POLAR_STEPS Newton steps.  Why
# three steps reach roundoff: ||R^T R - I||_2 <= ||R^T R - I||_F <= 3 * cap,
# so every singular value s of R has |s - 1| <= 3 cap / (1 + sqrt(1 - 3 cap))
# = 1.52e-2.  A step R <- (R + R^-T) / 2 keeps the polar factor and maps each
# s to (s + 1/s) / 2, so e = s - 1 becomes e^2 / (2 (1 + e)):
# 1.52e-2 -> 1.2e-4 -> 6.8e-9 -> 2.3e-17, below half an ulp of 1.
PROJECTION_DEFECT_CAP = 1e-2
POLAR_STEPS = 3


def project_attitude(t: float, w: tuple) -> tuple:
    """integrate_ep's post-step check: the flat state (attitude row-major,
    velocity) with its attitude replaced by the nearest rotation.

    Runs the polar (Newton) iteration R <- (R + R^-T) / 2 on bare floats,
    R^-T being the cofactor matrix over det R; near the rotation group it
    converges to the same rotation U V^T as the SVD R = U S V^T.

    Raises:
        DivergenceError: at t, when the attitude is a reflection (det <= 0)
            or its defect exceeds PROJECTION_DEFECT_CAP.  One RK4 step from
            a rotation reaches neither at a step the body can follow.
    """
    r00, r01, r02, r10, r11, r12, r20, r21, r22 = w[:9]
    defect = max(
        abs(r00 * r00 + r10 * r10 + r20 * r20 - 1.0),
        abs(r01 * r01 + r11 * r11 + r21 * r21 - 1.0),
        abs(r02 * r02 + r12 * r12 + r22 * r22 - 1.0),
        abs(r00 * r01 + r10 * r11 + r20 * r21),
        abs(r00 * r02 + r10 * r12 + r20 * r22),
        abs(r01 * r02 + r11 * r12 + r21 * r22),
    )
    if not defect <= PROJECTION_DEFECT_CAP:
        raise DivergenceError(
            t, f"attitude defect {defect:.3g} exceeds {PROJECTION_DEFECT_CAP:g}; reduce dt"
        )
    for _ in range(POLAR_STEPS):
        c00 = r11 * r22 - r12 * r21
        c01 = r12 * r20 - r10 * r22
        c02 = r10 * r21 - r11 * r20
        c10 = r02 * r21 - r01 * r22
        c11 = r00 * r22 - r02 * r20
        c12 = r01 * r20 - r00 * r21
        c20 = r01 * r12 - r02 * r11
        c21 = r02 * r10 - r00 * r12
        c22 = r00 * r11 - r01 * r10
        det = r00 * c00 + r01 * c01 + r02 * c02
        if det <= 0.0:  # only the first step can see it: each step keeps det > 0
            raise DivergenceError(t, "attitude is a reflection (det <= 0); reduce dt")
        k = 1.0 / det
        r00 = 0.5 * (r00 + k * c00)
        r01 = 0.5 * (r01 + k * c01)
        r02 = 0.5 * (r02 + k * c02)
        r10 = 0.5 * (r10 + k * c10)
        r11 = 0.5 * (r11 + k * c11)
        r12 = 0.5 * (r12 + k * c12)
        r20 = 0.5 * (r20 + k * c20)
        r21 = 0.5 * (r21 + k * c21)
        r22 = 0.5 * (r22 + k * c22)
    return (r00, r01, r02, r10, r11, r12, r20, r21, r22) + w[9:]


def _flat(m: np.ndarray) -> tuple:
    return tuple(np.asarray(m, dtype=float).ravel().tolist())


@dataclass(frozen=True, eq=False)
class EpSystem:
    """Rigid body: attitude, body velocity and inertia, validated once.

    The inertia must be symmetric positive definite and the attitude a
    proper rotation.  Once validated, the attitude (row-major), velocity, I
    and I^-1 are flattened into attitude_flat, velocity_flat, inertia_flat
    and inertia_inv_flat for the routines below; those that apply a force
    model take it as an argument, so one body serves every force.
    """

    attitude: np.ndarray
    velocity: np.ndarray
    inertia: np.ndarray
    attitude_flat: tuple = field(init=False, repr=False)
    velocity_flat: tuple = field(init=False, repr=False)
    inertia_flat: tuple = field(init=False, repr=False)
    inertia_inv_flat: tuple = field(init=False, repr=False)

    def __post_init__(self):
        att = np.asarray(self.attitude, dtype=float)
        vel = np.asarray(self.velocity, dtype=float)
        ine = np.asarray(self.inertia, dtype=float)
        object.__setattr__(self, "attitude", att)
        object.__setattr__(self, "velocity", vel)
        object.__setattr__(self, "inertia", ine)
        if att.shape != (3, 3) or orthonormality_defect(att) > 1e-6 or np.linalg.det(att) < 0.0:
            raise ValueError("attitude must be a proper rotation matrix")
        if vel.shape != (3,) or not np.all(np.isfinite(vel)):
            raise ValueError("velocity must be a finite 3-vector")
        if ine.shape != (3, 3) or not np.allclose(ine, ine.T, atol=1e-12):
            raise ValueError("inertia must be symmetric 3x3")
        if np.min(np.linalg.eigvalsh(ine)) <= 0.0:
            raise ValueError("inertia must be positive definite")
        object.__setattr__(self, "attitude_flat", _flat(att))
        object.__setattr__(self, "velocity_flat", _flat(vel))
        object.__setattr__(self, "inertia_flat", _flat(ine))
        object.__setattr__(self, "inertia_inv_flat", _flat(np.linalg.inv(ine)))


def euler_rate_values(a: float, b: float, c: float, inertia: tuple, inertia_inv: tuple,
                      torque: tuple) -> tuple:
    """Euler's equation on floats: the rate I^-1 ((I xi) x xi + torque) of
    the body velocity xi = (a, b, c), as a 3-tuple.

    inertia and inertia_inv hold I and I^-1 row-major; torque is the total
    body torque (force model plus control).  Checks nothing: EpSystem
    validates a body once, before its arrays are flattened for this core.
    """
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
        j00 * g0 + j01 * g1 + j02 * g2,
        j10 * g0 + j11 * g1 + j12 * g2,
        j20 * g0 + j21 * g1 + j22 * g2,
    )


def _free_body(reference, coords, inertia, inertia_inv):
    """integrate_ep's parts for numerics.rk4_run (reference and coords go
    unused): the free body's rate on the flat state (attitude row-major,
    velocity), R hat(xi) row-major and euler_rate_values at zero torque; the
    state as its row; and after each step the finite check and then
    project_attitude."""
    def rate(t, w):
        r00, r01, r02, r10, r11, r12, r20, r21, r22, a, b, c = w
        va, vb, vc = euler_rate_values(a, b, c, inertia, inertia_inv, (0.0, 0.0, 0.0))
        return (
            r01 * c - r02 * b, r02 * a - r00 * c, r00 * b - r01 * a,
            r11 * c - r12 * b, r12 * a - r10 * c, r10 * b - r11 * a,
            r21 * c - r22 * b, r22 * a - r20 * c, r20 * b - r21 * a,
            va, vb, vc,
        )

    def row(t, w):
        return w

    def after(t, w):
        if not all(map(math.isfinite, w)):
            raise DivergenceError(t, "rigid-body state diverged")
        return project_attitude(t, w)

    return rate, row, after


def integrate_ep(s: EpSystem, t_end: float, dt: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fixed-step RK4 (rk4_run on _free_body) on (attitude, velocity) of the
    free body (no force, no torque); attitude is re-projected onto the
    rotation group after every step (project_attitude) so the drift stays
    at roundoff level.  The state and I and I^-1 come flattened from s.

    Returns (times, attitudes (n, 3, 3), velocities (n, 3)).
    """
    if dt <= 0.0 or t_end <= 0.0:
        raise ValueError(f"dt and t_end must be positive, got dt={dt}, t_end={t_end}")
    times = grid(0.0, t_end, dt)
    run = rk4_run(_free_body, None, None, s.inertia_flat, s.inertia_inv_flat)
    w_rows = np.frombuffer(run(s.attitude_flat + s.velocity_flat, times)).reshape(-1, 12)
    return np.asarray(times), w_rows[:, :9].reshape(-1, 3, 3), w_rows[:, 9:]


def spin_feedforward(s: EpSystem, vertical_r: tuple, force: Optional[ForceModel]) -> tuple:
    """Torque holding the body at its own velocity s.velocity where its
    body-frame vertical is vertical_r, as three floats: the negated
    gyroscopic torque -(I xi_r) x xi_r, less the force (None: the free body)."""
    xi_r = a, b, c = s.velocity_flat
    i00, i01, i02, i10, i11, i12, i20, i21, i22 = s.inertia_flat
    m0 = i00 * a + i01 * b + i02 * c
    m1 = i10 * a + i11 * b + i12 * c
    m2 = i20 * a + i21 * b + i22 * c
    u0, u1, u2 = m2 * b - m1 * c, m0 * c - m2 * a, m1 * a - m0 * b
    if force is None:
        return (u0, u1, u2)
    f0, f1, f2 = force(vertical_r, xi_r)
    return (u0 - f0, u1 - f1, u2 - f2)


def _last_row_times(r: tuple, m: tuple) -> tuple:
    """The last row of R M, from R's last row r and M row-major."""
    r0, r1, r2 = r
    m00, m01, m02, m10, m11, m12, m20, m21, m22 = m
    return (
        r0 * m00 + r1 * m10 + r2 * m20,
        r0 * m01 + r1 * m11 + r2 * m21,
        r0 * m02 + r1 * m12 + r2 * m22,
    )


def tracking_error_field(s: EpSystem, force: Optional[ForceModel]) -> ErrorField:
    """Tracking-error dynamics of the body along its steady spin under force
    (None: the free body), on bare floats.

    The reference spins from the body's attitude at its own constant body
    velocity xi_r = s.velocity under the matching feedforward torque; the
    error is the relative attitude eta in exponential coordinates and the
    velocity difference.  A force reads the attitude R = R_r eta only through
    its vertical, the last row of R, so the field carries the last rows of
    R_r and R alone.  The reference's vertical and feedforward are taken
    once per time (numerics.once_per_time).
    """
    inertia, inertia_inv = s.inertia_flat, s.inertia_inv_flat
    vertical_0 = s.attitude_flat[6:]
    x0, x1, x2 = s.velocity_flat

    @once_per_time
    def reference(t: float) -> tuple[tuple, tuple]:
        vertical_r = _last_row_times(vertical_0, rotation_exp_values(t * x0, t * x1, t * x2))
        return vertical_r, spin_feedforward(s, vertical_r, force)

    def rate(t: float, w: tuple) -> tuple:
        vertical_r, u_r = reference(t)
        z0, z1, z2, d0, d1, d2 = w
        eta = e00, e01, e02, e10, e11, e12, e20, e21, e22 = rotation_exp_values(z0, z1, z2)
        v0, v1, v2 = x0 + d0, x1 + d1, x2 + d2
        if force is None:
            torque = u_r
        else:
            f0, f1, f2 = force(_last_row_times(vertical_r, eta), (v0, v1, v2))
            torque = (f0 + u_r[0], f1 + u_r[1], f2 + u_r[2])
        # Relative attitude rate xi - eta^T xi_r in the body frame of eta,
        # then pulled back to exponential coordinates by J_r^-1.
        o0 = v0 - (e00 * x0 + e10 * x1 + e20 * x2)
        o1 = v1 - (e01 * x0 + e11 * x1 + e21 * x2)
        o2 = v2 - (e02 * x0 + e12 * x1 + e22 * x2)
        j00, j01, j02, j10, j11, j12, j20, j21, j22 = inv_right_jacobian_values(z0, z1, z2)
        return (
            j00 * o0 + j01 * o1 + j02 * o2,
            j10 * o0 + j11 * o1 + j12 * o2,
            j20 * o0 + j21 * o1 + j22 * o2,
        ) + euler_rate_values(v0, v1, v2, inertia, inertia_inv, torque)

    return ErrorField(rate, 6)


def error_linearization_drift(s: EpSystem, force: Optional[ForceModel], times) -> float:
    """Drift of the linearized tracking-error dynamics along a steady spin:
    numerics.time_invariance_probe of tracking_error_field(s, force).  Near
    zero when the force model ignores attitude; order one when it does not.
    """
    return time_invariance_probe(tracking_error_field(s, force), times)


def damping_force(coefficients) -> ForceModel:
    """Torque -D xi with positive diagonal D; drains kinetic energy, ignores attitude."""
    d = np.asarray(coefficients, dtype=float)
    if d.shape != (3,) or np.any(d <= 0.0):
        raise ValueError("damping needs three positive coefficients")
    n0, n1, n2 = (-d).tolist()

    def force(vertical: tuple, xi: tuple) -> tuple:
        return (n0 * xi[0], n1 * xi[1], n2 * xi[2])

    return force


def gravity_gradient_force(strength: float, body_axis) -> ForceModel:
    """Pendulum-style torque strength * (Gamma x axis), with Gamma = R^T e_z
    the body-frame vertical and the axis normalized; depends on attitude."""
    axis = np.asarray(body_axis, dtype=float)
    norm = np.linalg.norm(axis)
    if norm == 0.0:
        raise ValueError("body_axis must be nonzero")
    a0, a1, a2 = (axis / norm).tolist()
    k = float(strength)

    def force(vertical: tuple, xi: tuple) -> tuple:
        g0, g1, g2 = vertical
        return (k * (g1 * a2 - g2 * a1), k * (g2 * a0 - g0 * a2), k * (g0 * a1 - g1 * a0))

    return force
