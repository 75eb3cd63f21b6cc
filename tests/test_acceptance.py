"""End-to-end acceptance checks, one per shipped guarantee.

Every test prints a single CRITERION line (visible under pytest -s), then
asserts it.  Tolerances here are the published ones and must not be loosened.
"""

import math
import time

import numpy as np

from invtrack.cli import main as cli_main
from invtrack.closed_loop import (
    closed_loop_error_field,
    controller_error_field,
    observer_error_field,
    separation_matrix,
    simulate,
)
from invtrack.controller import ControllerGains, ctrl_loop_matrix
from invtrack.ekf import time_variance_probe
from invtrack.mech import (
    EpSystem,
    damping_force,
    error_linearization_drift,
    gravity_gradient_force,
    integrate_ep,
)
from invtrack.numerics import (
    Spectrum,
    eigenvalues,
    linearize_error_field,
    spectrum_match_distance,
    time_invariance_probe,
)
from invtrack.observer import (
    ObserverGains,
    body_frame_landmarks,
    gain_matrix,
    obs_error_matrix,
)
from invtrack.robot import LandmarkSet, RobotInput, dynamics, invariance_residual
from invtrack.scenario import STANDARD_LANDMARKS, parse_scenario
from invtrack.se2 import IDENTITY, GroupElement, normalize_angle
from invtrack.trajectories import PermanentTrajectory

UNIT_KG = ControllerGains(1.0, 1.0, 1.0)
UNIT_OG = ObserverGains(1.0, 1.0, 1.0)
LANDMARKS = LandmarkSet(STANDARD_LANDMARKS)
CIRCLE = PermanentTrajectory(1.0, 0.5, IDENTITY)
CIRCLE_TIMES = (0.0, math.pi, 2.0 * math.pi, 3.0 * math.pi)


def report(n: int, label: str, ok: bool, detail: str) -> None:
    print(f"CRITERION {n} ({label}): {'PASS' if ok else 'FAIL'} [{detail}]")
    assert ok, f"criterion {n} ({label}): {detail}"


def pose_dynamics_defect(traj, t_end: float, n: int = 1000) -> float:
    """Max defect between the trajectory's velocity and the model field."""
    h = 1e-6
    worst = 0.0
    for t in np.linspace(0.0, t_end, n):
        gp = traj.pose(t + h)
        gm = traj.pose(t - h)
        rate = (
            (gp.x - gm.x) / (2 * h),
            (gp.y - gm.y) / (2 * h),
            normalize_angle(gp.theta - gm.theta) / (2 * h),
        )
        f = dynamics(traj.pose(t), traj.input(t))
        worst = max(worst, max(abs(a - b) for a, b in zip(rate, f)))
    return worst


def test_criterion_1_model_equivariance():
    rng = np.random.default_rng(11)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        g0 = GroupElement(rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(-3, 3))
        g = GroupElement(rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(-3, 3))
        inp = RobotInput(rng.uniform(-2, 2), rng.uniform(-2, 2))
        lm = LandmarkSet(
            tuple((rng.uniform(-10, 10), rng.uniform(-10, 10)) for _ in range(4))
        )
        worst = max(worst, invariance_residual(g0, g, inp, lm))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-9 and elapsed < 1.0
    report(1, "model equivariance", ok, f"residual={worst:.3e} time={elapsed:.2f}s")


def test_criterion_2_reference_trajectories():
    line = PermanentTrajectory(1.0, 0.0, IDENTITY)
    line_defect = pose_dynamics_defect(line, 10.0)
    period = 2.0 * math.pi / abs(CIRCLE.u * CIRCLE.v)
    circle_defect = pose_dynamics_defect(CIRCLE, period)
    g0, gT = CIRCLE.pose(0.0), CIRCLE.pose(period)
    closure = max(
        abs(gT.x - g0.x), abs(gT.y - g0.y), abs(normalize_angle(gT.theta - g0.theta))
    )
    ok = line_defect < 1e-8 and circle_defect < 1e-8 and closure < 1e-10
    report(
        2,
        "reference trajectories",
        ok,
        f"line={line_defect:.3e} circle={circle_defect:.3e} closure={closure:.3e}",
    )


def test_criterion_3_design_spectra():
    half = math.sqrt(3.0) / 2.0
    expected = Spectrum((complex(-1.0, 0.0), complex(-0.5, half), complex(-0.5, -half)))
    a_ctrl = ctrl_loop_matrix(1.0, 0.5, UNIT_KG)
    a_obs = obs_error_matrix(1.0, 0.5, UNIT_OG)
    d_ctrl = spectrum_match_distance(eigenvalues(a_ctrl), expected)
    d_obs = spectrum_match_distance(eigenvalues(a_obs), expected)
    fd_ctrl = linearize_error_field(controller_error_field(CIRCLE, UNIT_KG), [0.0])[0]
    fd_obs = linearize_error_field(
        observer_error_field(CIRCLE, LANDMARKS, UNIT_OG), [0.0]
    )[0]
    dev = max(
        float(np.linalg.norm(fd_ctrl - a_ctrl)), float(np.linalg.norm(fd_obs - a_obs))
    )
    ok = d_ctrl < 1e-9 and d_obs < 1e-9 and dev < 1e-5
    report(
        3,
        "design spectra",
        ok,
        f"ctrl={d_ctrl:.3e} obs={d_obs:.3e} linearization={dev:.3e}",
    )


def test_criterion_4_separation_structure():
    block = separation_matrix(1.0, 0.5, UNIT_KG, UNIT_OG)
    union = eigenvalues(ctrl_loop_matrix(1.0, 0.5, UNIT_KG)).union(
        eigenvalues(obs_error_matrix(1.0, 0.5, UNIT_OG))
    )
    mismatch = spectrum_match_distance(eigenvalues(block), union)
    field = closed_loop_error_field(CIRCLE, LANDMARKS, UNIT_KG, UNIT_OG)
    mats = linearize_error_field(field, CIRCLE_TIMES[:3])
    dev = max(float(np.linalg.norm(m - block)) for m in mats)
    ok = mismatch < 1e-6 and dev < 1e-4
    report(4, "separation structure", ok, f"union={mismatch:.3e} fd={dev:.3e}")


def test_criterion_5_invariance_vs_ekf():
    loop_drift = time_invariance_probe(
        closed_loop_error_field(CIRCLE, LANDMARKS, UNIT_KG, UNIT_OG), CIRCLE_TIMES
    )
    obs_drift = time_invariance_probe(
        observer_error_field(CIRCLE, LANDMARKS, UNIT_OG), CIRCLE_TIMES
    )
    line = PermanentTrajectory(1.0, 0.0, GroupElement(0.0, -5.0, 0.3))
    line_drift = time_invariance_probe(
        closed_loop_error_field(line, LANDMARKS, UNIT_KG, UNIT_OG), (0.0, 1.0, 2.0, 3.0)
    )
    wobble = parse_scenario({"trajectory": {"v_wobble": {}}})
    wobble_drift = time_invariance_probe(
        closed_loop_error_field(
            wobble.scenario.trajectory, LANDMARKS, UNIT_KG, UNIT_OG
        ),
        wobble.probe_times,
    )
    ekf_drift = time_variance_probe(CIRCLE, LANDMARKS, CIRCLE_TIMES)
    ok = (
        loop_drift < 1e-6
        and obs_drift < 1e-6
        and line_drift < 1e-6
        and wobble_drift > 1e-2
        and ekf_drift > 0.1
    )
    report(
        5,
        "invariance vs EKF",
        ok,
        f"loop={loop_drift:.3e} obs={obs_drift:.3e} line={line_drift:.3e} "
        f"wobble={wobble_drift:.3e} ekf={ekf_drift:.3e}",
    )


def test_criterion_6_closed_loop_convergence():
    parsed = parse_scenario(
        {
            "initial_tracking_error": [0.1, 0.1, 0.1],
            "initial_estimate_error": [0.1, 0.1, 0.1],
        }
    )
    t0 = time.perf_counter()
    res = simulate(parsed.scenario)
    elapsed = time.perf_counter() - t0
    final_eta = float(np.linalg.norm(res.tracking_errors[-1]))
    final_eps = float(np.linalg.norm(res.estimation_errors[-1]))
    ok = final_eta < 1e-3 and final_eps < 1e-3 and elapsed < 5.0
    report(
        6,
        "closed-loop convergence",
        ok,
        f"eta={final_eta:.3e} eps={final_eps:.3e} time={elapsed:.2f}s",
    )


def test_criterion_7_gain_identity():
    rng = np.random.default_rng(71)
    worst = 0.0
    for _ in range(100):
        coords = tuple(
            (x + rng.uniform(-2, 2), y + rng.uniform(-2, 2))
            for x, y in STANDARD_LANDMARKS
        )
        if rng.uniform() < 0.5:
            coords = coords + ((rng.uniform(-10, 10), rng.uniform(-10, 10)),)
        lm = LandmarkSet(coords)
        x_hat = GroupElement(rng.uniform(-3, 3), rng.uniform(-3, 3), rng.uniform(-3, 3))
        inp = RobotInput(rng.uniform(-2, 2), rng.uniform(-2, 2))
        og = ObserverGains(*rng.uniform(0.2, 3.0, 3))
        bf = body_frame_landmarks(x_hat, lm)
        L = gain_matrix(bf, inp, og)
        au = abs(inp.u)
        weights = np.array(
            [
                [au * og.l1, inp.u * inp.v],
                [-inp.u * inp.v, au * og.l2],
                [0.0, inp.u * og.l3],
            ]
        )
        worst = max(worst, float(np.max(np.abs(L @ (-2.0 * bf.T) - weights))))
    ok = worst < 1e-10
    report(7, "gain identity", ok, f"defect={worst:.3e}")


def test_criterion_8_rigid_body_probes():
    inertia = np.diag([1.0, 2.0, 3.0])
    xi_r = np.array([0.4, 1.0, -0.6])
    times = [0.0, 1.0, 2.0]
    body = EpSystem(np.eye(3), xi_r, inertia)
    frozen = error_linearization_drift(body, damping_force([0.5, 0.4, 0.3]), times)
    drifting = error_linearization_drift(body, gravity_gradient_force(1.0, [0.0, 0.0, 1.0]), times)
    _, _, velocities = integrate_ep(body, 10.0, 1e-3)
    energies = 0.5 * np.einsum("ni,ij,nj->n", velocities, inertia, velocities)
    energy_drift = float(np.max(np.abs(energies - energies[0])) / energies[0])
    ok = frozen < 1e-6 and drifting > 1e-2 and energy_drift < 1e-8
    report(
        8,
        "rigid-body probes",
        ok,
        f"frozen={frozen:.3e} drifting={drifting:.3e} energy={energy_drift:.3e}",
    )


def test_criterion_9_cli_determinism(tmp_path):
    sim_a, sim_b = tmp_path / "sim_a", tmp_path / "sim_b"
    assert cli_main(["simulate", "--out", str(sim_a), "--t-end", "2.0"]) == 0
    assert cli_main(["simulate", "--out", str(sim_b), "--t-end", "2.0"]) == 0
    eig_a, eig_b = tmp_path / "eig_a", tmp_path / "eig_b"
    assert cli_main(["eigs", "--out", str(eig_a)]) == 0
    assert cli_main(["eigs", "--out", str(eig_b)]) == 0
    same = (
        (sim_a / "report.json").read_bytes() == (sim_b / "report.json").read_bytes()
        and (sim_a / "timeseries.csv").read_bytes()
        == (sim_b / "timeseries.csv").read_bytes()
        and (eig_a / "eigs.json").read_bytes() == (eig_b / "eigs.json").read_bytes()
    )
    report(9, "CLI determinism", same, "report, timeseries, eigs byte-compared")
