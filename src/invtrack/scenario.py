"""Scenario documents: JSON config parsing, defaults, validation, canonical form.

The shipped default is the standard test case: unit-speed circle with
steering ratio 0.5, three well-spread landmarks, all gains 1, thirty
seconds at millisecond steps.  Validation errors always name the offending
field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import se2
from .closed_loop import Scenario
from .controller import ControllerGains
from .ekf import DEFAULT_INITIAL_COVARIANCE, DEFAULT_MEASUREMENT_NOISE, DEFAULT_PROCESS_NOISE
from .errors import GeometryError, ScenarioError
from .observer import ObserverGains
from .robot import LandmarkSet, RobotInput
from .se2 import GroupElement
from .trajectories import (
    IntegratedTrajectory,
    PermanentTrajectory,
    PiecewiseTrajectory,
    ReferenceTrajectory,
    Segment,
)

STANDARD_LANDMARKS = ((10.0, 0.0), (0.0, 10.0), (-10.0, -10.0))
STANDARD_U = 1.0
STANDARD_V = 0.5
STANDARD_T_END = 30.0
STANDARD_DT = 1e-3

_TOP_KEYS = {
    "trajectory",
    "landmarks",
    "gains",
    "controller_gains",
    "observer_gains",
    "initial_pose",
    "initial_estimate",
    "initial_tracking_error",
    "initial_estimate_error",
    "t_end",
    "dt",
    "probe_times",
    "ekf",
    "mech",
}


@dataclass(frozen=True)
class MechConfig:
    """Settings for the rigid-body probe command."""

    inertia: tuple[float, float, float]
    reference_velocity: tuple[float, float, float]
    damping: tuple[float, float, float]
    force_strength: float
    force_axis: tuple[float, float, float]
    probe_times: tuple[float, ...]
    t_end: float
    dt: float


@dataclass(frozen=True)
class ParsedScenario:
    """Scenario plus command options and the canonical document they came from."""

    scenario: Scenario
    probe_times: tuple[float, ...]
    ekf_process_noise: float
    ekf_measurement_noise: float
    ekf_initial_covariance: float
    mech: MechConfig
    canonical: dict


def _require_number(value, field: str, positive: bool = False, nonzero: bool = False) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(f"{field} must be a number, got {value!r}")
    out = float(value)
    if not math.isfinite(out):
        raise ScenarioError(f"{field} must be finite, got {out}")
    if positive and out <= 0.0:
        raise ScenarioError(f"{field} must be > 0, got {out}")
    if nonzero and out == 0.0:
        raise ScenarioError(f"{field} must be nonzero")
    return out


def _require_triple(value, field: str) -> tuple[float, float, float]:
    if not isinstance(value, (list, tuple)) or len(value) != 3:
        raise ScenarioError(f"{field} must be a list of 3 numbers")
    return tuple(_require_number(v, f"{field}[{i}]") for i, v in enumerate(value))


def _check_keys(doc: dict, allowed: set, context: str) -> None:
    for key in doc:
        if key not in allowed:
            raise ScenarioError(f"unknown field {context}{key!r}")


def _parse_trajectory(doc: dict) -> tuple[ReferenceTrajectory, dict]:
    _check_keys(doc, {"u", "v", "start", "segments", "v_wobble"}, "trajectory.")
    start_raw = doc.get("start", [0.0, 0.0, 0.0])
    start_vals = _require_triple(start_raw, "trajectory.start")
    start = GroupElement(*start_vals)
    if "segments" in doc:
        if "u" in doc or "v" in doc or "v_wobble" in doc:
            raise ScenarioError("trajectory.segments excludes trajectory.u/v/v_wobble")
        raw = doc["segments"]
        if not isinstance(raw, list) or not raw:
            raise ScenarioError("trajectory.segments must be a non-empty list")
        segs = []
        for i, seg in enumerate(raw):
            if not isinstance(seg, dict):
                raise ScenarioError(f"trajectory.segments[{i}] must be an object")
            _check_keys(seg, {"u", "v", "duration"}, f"trajectory.segments[{i}].")
            segs.append(
                Segment(
                    _require_number(seg.get("u"), f"trajectory.segments[{i}].u", nonzero=True),
                    _require_number(seg.get("v", 0.0), f"trajectory.segments[{i}].v"),
                    _require_number(
                        seg.get("duration"), f"trajectory.segments[{i}].duration", positive=True
                    ),
                )
            )
        traj = PiecewiseTrajectory(tuple(segs), start)
        canonical = {
            "segments": [
                {"u": s.u, "v": s.v, "duration": s.duration} for s in segs
            ],
            "start": list(start_vals),
        }
        return traj, canonical

    u = _require_number(doc.get("u", STANDARD_U), "trajectory.u", nonzero=True)
    v = _require_number(doc.get("v", STANDARD_V), "trajectory.v")
    if "v_wobble" in doc:
        wob = doc["v_wobble"]
        if not isinstance(wob, dict):
            raise ScenarioError("trajectory.v_wobble must be an object")
        _check_keys(wob, {"amplitude", "angular_rate"}, "trajectory.v_wobble.")
        amp = _require_number(wob.get("amplitude", 0.3), "trajectory.v_wobble.amplitude")
        rate = _require_number(
            wob.get("angular_rate", 1.0), "trajectory.v_wobble.angular_rate"
        )

        def input_fn(t: float, _u=u, _v=v, _a=amp, _r=rate) -> RobotInput:
            return RobotInput(_u, _v + _a * math.sin(_r * t))

        traj = IntegratedTrajectory(input_fn, start)
        canonical = {
            "u": u,
            "v": v,
            "v_wobble": {"amplitude": amp, "angular_rate": rate},
            "start": list(start_vals),
        }
        return traj, canonical

    traj = PermanentTrajectory(u, v, start)
    canonical = {"u": u, "v": v, "start": list(start_vals)}
    return traj, canonical


def _parse_gains(doc, field: str, names: tuple[str, str, str], factory):
    if not isinstance(doc, dict):
        raise ScenarioError(f"{field} must be an object")
    _check_keys(doc, set(names), f"{field}.")
    vals = [
        _require_number(doc.get(n, 1.0), f"{field}.{n}", positive=True) for n in names
    ]
    return factory(*vals), {n: v for n, v in zip(names, vals)}


def _default_probe_times(traj: ReferenceTrajectory) -> tuple[float, ...]:
    # Quarter-period multiples on a closed circle, quarter-turn-of-sine
    # multiples otherwise; either way four times that separate a
    # time-varying linearization from a frozen one.
    period = traj.period() if isinstance(traj, PermanentTrajectory) else None
    if period is not None:
        quarter = period / 4.0
        return (0.0, quarter, 2.0 * quarter, 3.0 * quarter)
    return (0.0, 0.5 * math.pi, math.pi, 1.5 * math.pi)


def _parse_mech(doc: dict) -> tuple[MechConfig, dict]:
    allowed = {
        "inertia",
        "reference_velocity",
        "damping",
        "force_strength",
        "force_axis",
        "probe_times",
        "t_end",
        "dt",
    }
    _check_keys(doc, allowed, "mech.")
    inertia = _require_triple(doc.get("inertia", [1.0, 2.0, 3.0]), "mech.inertia")
    if any(v <= 0.0 for v in inertia):
        raise ScenarioError("mech.inertia entries must be > 0")
    ref_vel = _require_triple(
        doc.get("reference_velocity", [0.4, 1.0, -0.6]), "mech.reference_velocity"
    )
    damping = _require_triple(doc.get("damping", [0.5, 0.4, 0.3]), "mech.damping")
    if any(v <= 0.0 for v in damping):
        raise ScenarioError("mech.damping entries must be > 0")
    strength = _require_number(doc.get("force_strength", 1.0), "mech.force_strength")
    axis = _require_triple(doc.get("force_axis", [0.0, 0.0, 1.0]), "mech.force_axis")
    if all(v == 0.0 for v in axis):
        raise ScenarioError("mech.force_axis must be nonzero")
    raw_times = doc.get("probe_times", [0.0, 1.0, 2.0])
    if not isinstance(raw_times, list) or len(raw_times) < 2:
        raise ScenarioError("mech.probe_times must be a list of at least 2 numbers")
    times = tuple(
        _require_number(v, f"mech.probe_times[{i}]") for i, v in enumerate(raw_times)
    )
    t_end = _require_number(doc.get("t_end", 10.0), "mech.t_end", positive=True)
    dt = _require_number(doc.get("dt", 1e-3), "mech.dt", positive=True)
    cfg = MechConfig(inertia, ref_vel, damping, strength, axis, times, t_end, dt)
    canonical = {
        "inertia": list(inertia),
        "reference_velocity": list(ref_vel),
        "damping": list(damping),
        "force_strength": strength,
        "force_axis": list(axis),
        "probe_times": list(times),
        "t_end": t_end,
        "dt": dt,
    }
    return cfg, canonical


def parse_scenario(doc: dict) -> ParsedScenario:
    """Validate a scenario document, fill in defaults, build the run objects."""
    if not isinstance(doc, dict):
        raise ScenarioError("scenario document must be a JSON object")
    _check_keys(doc, _TOP_KEYS, "")

    traj_doc = doc.get("trajectory", {})
    if not isinstance(traj_doc, dict):
        raise ScenarioError("trajectory must be an object")
    trajectory, traj_canonical = _parse_trajectory(traj_doc)

    lm_raw = doc.get("landmarks", [list(c) for c in STANDARD_LANDMARKS])
    if not isinstance(lm_raw, list):
        raise ScenarioError("landmarks must be a list of [x, y] pairs")
    coords = []
    for i, entry in enumerate(lm_raw):
        if not isinstance(entry, (list, tuple)) or len(entry) != 2:
            raise ScenarioError(f"landmarks[{i}] must be an [x, y] pair")
        coords.append(
            (
                _require_number(entry[0], f"landmarks[{i}][0]"),
                _require_number(entry[1], f"landmarks[{i}][1]"),
            )
        )
    try:
        landmarks = LandmarkSet(tuple(coords))
    except GeometryError as err:
        raise ScenarioError(f"landmarks: {err}") from err

    if "gains" in doc:
        # Shorthand: one object holding both gain triples, split by prefix.
        if "controller_gains" in doc or "observer_gains" in doc:
            raise ScenarioError("gains excludes controller_gains/observer_gains")
        merged = doc["gains"]
        if not isinstance(merged, dict):
            raise ScenarioError("gains must be an object")
        _check_keys(merged, {"k1", "k2", "k3", "l1", "l2", "l3"}, "gains.")
        ctrl_doc = {k: v for k, v in merged.items() if k.startswith("k")}
        obs_doc = {k: v for k, v in merged.items() if k.startswith("l")}
        kg, kg_canonical = _parse_gains(
            ctrl_doc, "gains", ("k1", "k2", "k3"), ControllerGains
        )
        og, og_canonical = _parse_gains(obs_doc, "gains", ("l1", "l2", "l3"), ObserverGains)
    else:
        kg, kg_canonical = _parse_gains(
            doc.get("controller_gains", {}), "controller_gains", ("k1", "k2", "k3"), ControllerGains
        )
        og, og_canonical = _parse_gains(
            doc.get("observer_gains", {}), "observer_gains", ("l1", "l2", "l3"), ObserverGains
        )

    if "initial_pose" in doc and "initial_tracking_error" in doc:
        raise ScenarioError("initial_pose excludes initial_tracking_error")
    if "initial_estimate" in doc and "initial_estimate_error" in doc:
        raise ScenarioError("initial_estimate excludes initial_estimate_error")
    ref0 = trajectory.pose(0.0)
    if "initial_pose" in doc:
        pose0 = GroupElement(*_require_triple(doc["initial_pose"], "initial_pose"))
    else:
        eta0 = _require_triple(
            doc.get("initial_tracking_error", [0.0, 0.0, 0.0]), "initial_tracking_error"
        )
        pose0 = se2.compose(ref0, GroupElement(*eta0))
    if "initial_estimate" in doc:
        est0 = GroupElement(*_require_triple(doc["initial_estimate"], "initial_estimate"))
    else:
        eps0 = _require_triple(
            doc.get("initial_estimate_error", [0.0, 0.0, 0.0]), "initial_estimate_error"
        )
        est0 = se2.compose(pose0, GroupElement(*eps0))

    t_end = _require_number(doc.get("t_end", STANDARD_T_END), "t_end", positive=True)
    dt = _require_number(doc.get("dt", STANDARD_DT), "dt", positive=True)

    raw_times = doc.get("probe_times")
    if raw_times is None:
        probe_times = _default_probe_times(trajectory)
    else:
        if not isinstance(raw_times, list) or len(raw_times) < 2:
            raise ScenarioError("probe_times must be a list of at least 2 numbers")
        probe_times = tuple(
            _require_number(v, f"probe_times[{i}]") for i, v in enumerate(raw_times)
        )
        if any(t < 0.0 for t in probe_times):
            raise ScenarioError("probe_times entries must be >= 0")

    ekf_doc = doc.get("ekf", {})
    if not isinstance(ekf_doc, dict):
        raise ScenarioError("ekf must be an object")
    _check_keys(
        ekf_doc, {"process_noise", "measurement_noise", "initial_covariance"}, "ekf."
    )
    q = _require_number(
        ekf_doc.get("process_noise", DEFAULT_PROCESS_NOISE), "ekf.process_noise", positive=True
    )
    r = _require_number(
        ekf_doc.get("measurement_noise", DEFAULT_MEASUREMENT_NOISE),
        "ekf.measurement_noise",
        positive=True,
    )
    p0 = _require_number(
        ekf_doc.get("initial_covariance", DEFAULT_INITIAL_COVARIANCE),
        "ekf.initial_covariance",
        positive=True,
    )

    mech_doc = doc.get("mech", {})
    if not isinstance(mech_doc, dict):
        raise ScenarioError("mech must be an object")
    mech_cfg, mech_canonical = _parse_mech(mech_doc)

    try:
        scenario = Scenario(
            trajectory, landmarks, kg, og, pose0, est0, t_end, dt
        )
    except ValueError as err:
        raise ScenarioError(str(err)) from err

    canonical = {
        "trajectory": traj_canonical,
        "landmarks": [list(c) for c in coords],
        "controller_gains": kg_canonical,
        "observer_gains": og_canonical,
        "initial_pose": [pose0.x, pose0.y, pose0.theta],
        "initial_estimate": [est0.x, est0.y, est0.theta],
        "t_end": t_end,
        "dt": dt,
        "probe_times": list(probe_times),
        "ekf": {
            "process_noise": q,
            "measurement_noise": r,
            "initial_covariance": p0,
        },
        "mech": mech_canonical,
    }
    return ParsedScenario(scenario, probe_times, q, r, p0, mech_cfg, canonical)
