"""Scenario documents: JSON config parsing, defaults, validation, canonical form.

The shipped default is the standard test case: unit-speed circle with
steering ratio 0.5, three well-spread landmarks, all gains 1, thirty
seconds at millisecond steps.  Validation errors always name the offending
field.  Each section is validated once, straight into its canonical form
(defaults filled in, numbers as floats, sequences as lists), and the run
objects are built from that canonical form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import se2
from .closed_loop import Scenario
from .controller import ControllerGains
from .ekf import DEFAULT_INITIAL_COVARIANCE, DEFAULT_MEASUREMENT_NOISE, DEFAULT_PROCESS_NOISE
from .errors import GeometryError, ScenarioError
from .observer import ObserverGains
from .robot import LandmarkSet
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


_positive = partial(_require_number, positive=True)
_nonzero = partial(_require_number, nonzero=True)


def _require_triple(value, field: str) -> list[float]:
    if not isinstance(value, (list, tuple)) or len(value) != 3:
        raise ScenarioError(f"{field} must be a list of 3 numbers")
    return [_require_number(v, f"{field}[{i}]") for i, v in enumerate(value)]


def _positive_triple(value, field: str) -> list[float]:
    out = _require_triple(value, field)
    if any(v <= 0.0 for v in out):
        raise ScenarioError(f"{field} entries must be > 0")
    return out


def _force_axis(value, field: str) -> list[float]:
    axis = _require_triple(value, field)
    if all(v == 0.0 for v in axis):
        raise ScenarioError(f"{field} must be nonzero")
    # Length as gravity_gradient_force computes it: tiny entries give 0, huge ones inf.
    with np.errstate(over="ignore"):
        length = float(np.linalg.norm(np.asarray(axis, dtype=float)))
    if not 0.0 < length < math.inf:
        raise ScenarioError(f"{field} length must be finite and > 0, got {length}")
    return axis


def _probe_times(value, field: str) -> list[float]:
    if not isinstance(value, list) or len(value) < 2:
        raise ScenarioError(f"{field} must be a list of at least 2 numbers")
    times = [_require_number(v, f"{field}[{i}]") for i, v in enumerate(value)]
    # A drift between linearizations at one time only is 0 whatever the field.
    if len(set(times)) < 2:
        raise ScenarioError(f"{field} must hold at least 2 distinct times")
    return times


def _object(value, field: str, allowed) -> dict:
    if not isinstance(value, dict):
        raise ScenarioError(f"{field} must be an object")
    for key in value:
        if key not in allowed:
            raise ScenarioError(f"unknown field {field}.{key!r}")
    return value


def _section(value, field: str, spec: dict) -> dict:
    """Validate an object against spec {key: (default, check)} into canonical form.

    Keys are checked and emitted in spec order, missing ones at their default.
    """
    doc = _object(value, field, spec)
    return {k: check(doc.get(k, default), f"{field}.{k}") for k, (default, check) in spec.items()}


_SEGMENT = {"u": (None, _nonzero), "v": (0.0, _require_number), "duration": (None, _positive)}
_WOBBLE = {"amplitude": (0.3, _require_number), "angular_rate": (1.0, _require_number)}
_GAINS = {
    "controller_gains": {name: (1.0, _positive) for name in ("k1", "k2", "k3")},
    "observer_gains": {name: (1.0, _positive) for name in ("l1", "l2", "l3")},
}
_EKF = {
    "process_noise": (DEFAULT_PROCESS_NOISE, _positive),
    "measurement_noise": (DEFAULT_MEASUREMENT_NOISE, _positive),
    "initial_covariance": (DEFAULT_INITIAL_COVARIANCE, _positive),
}
_MECH = {
    "inertia": ([1.0, 2.0, 3.0], _positive_triple),
    "reference_velocity": ([0.4, 1.0, -0.6], _require_triple),
    "damping": ([0.5, 0.4, 0.3], _positive_triple),
    "force_strength": (1.0, _require_number),
    "force_axis": ([0.0, 0.0, 1.0], _force_axis),
    "probe_times": ([0.0, 1.0, 2.0], _probe_times),
    "t_end": (10.0, _positive),
    "dt": (1e-3, _positive),
}


def _finite_product(value: float, field: str, name: str) -> None:
    # The run objects multiply the document's numbers; finite factors can
    # still overflow.
    if not math.isfinite(value):
        raise ScenarioError(f"{field}: {name} must be finite, got {value}")


def _trajectory_section(value) -> dict:
    doc = _object(value, "trajectory", ("u", "v", "start", "segments", "v_wobble"))
    start = _require_triple(doc.get("start", [0.0, 0.0, 0.0]), "trajectory.start")
    if "segments" in doc:
        if "u" in doc or "v" in doc or "v_wobble" in doc:
            raise ScenarioError("trajectory.segments excludes trajectory.u/v/v_wobble")
        raw = doc["segments"]
        if not isinstance(raw, list) or not raw:
            raise ScenarioError("trajectory.segments must be a non-empty list")
        segs = [_section(s, f"trajectory.segments[{i}]", _SEGMENT) for i, s in enumerate(raw)]
        for i, seg in enumerate(segs):
            u, v, duration = seg["u"], seg["v"], seg["duration"]
            field = f"trajectory.segments[{i}]"
            _finite_product(u * duration, field, "distance u*duration")
            _finite_product(u * v * duration, field, "turn angle u*v*duration")
        out = {"segments": segs}
    else:
        out = {
            "u": _nonzero(doc.get("u", STANDARD_U), "trajectory.u"),
            "v": _require_number(doc.get("v", STANDARD_V), "trajectory.v"),
        }
        u, v = out["u"], out["v"]
        _finite_product(u * v, "trajectory", "turn rate u*v")
        if "v_wobble" in doc:
            wobble = out["v_wobble"] = _section(doc["v_wobble"], "trajectory.v_wobble", _WOBBLE)
            _finite_product(
                abs(u) * (abs(v) + abs(wobble["amplitude"])), "trajectory.v_wobble",
                "peak turn rate |u|*(|v| + |amplitude|)",
            )
    out["start"] = start
    return out


def _reference(section: dict) -> ReferenceTrajectory:
    start = GroupElement(*section["start"])
    if "segments" in section:
        return PiecewiseTrajectory(tuple(Segment(**s) for s in section["segments"]), start)
    u, v = section["u"], section["v"]
    if "v_wobble" not in section:
        return PermanentTrajectory(u, v, start)
    amp, rate = section["v_wobble"]["amplitude"], section["v_wobble"]["angular_rate"]

    def input_fn(t: float, _u=u, _v=v, _a=amp, _r=rate) -> tuple[float, float]:
        return (_u, _v + _a * math.sin(_r * t))

    return IntegratedTrajectory(input_fn, start)


def _initial(doc: dict, absolute: str, offset: str, base: GroupElement) -> GroupElement:
    """Resolve an exclusive absolute/offset pair; the offset composes onto base."""
    if absolute in doc:
        if offset in doc:
            raise ScenarioError(f"{absolute} excludes {offset}")
        return GroupElement(*_require_triple(doc[absolute], absolute))
    eta = _require_triple(doc.get(offset, [0.0, 0.0, 0.0]), offset)
    return se2.compose(base, GroupElement(*eta))


def _default_probe_times(traj: ReferenceTrajectory) -> tuple[float, ...]:
    # Quarter-period multiples on a closed circle, quarter-turn-of-sine
    # multiples otherwise; either way four times that separate a
    # time-varying linearization from a frozen one.
    period = traj.period() if isinstance(traj, PermanentTrajectory) else None
    if period is not None:
        quarter = period / 4.0
        return (0.0, quarter, 2.0 * quarter, 3.0 * quarter)
    return (0.0, 0.5 * math.pi, math.pi, 1.5 * math.pi)


def parse_scenario(doc: dict) -> ParsedScenario:
    """Validate a scenario document, fill in defaults, build the run objects."""
    if not isinstance(doc, dict):
        raise ScenarioError("scenario document must be a JSON object")
    for key in doc:
        if key not in _TOP_KEYS:
            raise ScenarioError(f"unknown field {key!r}")

    canonical = {"trajectory": _trajectory_section(doc.get("trajectory", {}))}
    trajectory = _reference(canonical["trajectory"])

    raw = doc.get("landmarks", [list(c) for c in STANDARD_LANDMARKS])
    if not isinstance(raw, list):
        raise ScenarioError("landmarks must be a list of [x, y] pairs")
    coords = canonical["landmarks"] = []
    for i, entry in enumerate(raw):
        if not isinstance(entry, (list, tuple)) or len(entry) != 2:
            raise ScenarioError(f"landmarks[{i}] must be an [x, y] pair")
        coords.append([_require_number(c, f"landmarks[{i}][{j}]") for j, c in enumerate(entry)])
    try:
        landmarks = LandmarkSet(tuple(tuple(c) for c in coords))
    except GeometryError as err:
        raise ScenarioError(f"landmarks: {err}") from err

    merged = None
    if "gains" in doc:
        # Shorthand: one object holding both gain triples.
        if "controller_gains" in doc or "observer_gains" in doc:
            raise ScenarioError("gains excludes controller_gains/observer_gains")
        merged = _object(doc["gains"], "gains", ("k1", "k2", "k3", "l1", "l2", "l3"))
    for name, spec in _GAINS.items():
        if merged is None:
            canonical[name] = _section(doc.get(name, {}), name, spec)
        else:
            canonical[name] = _section({k: merged[k] for k in spec if k in merged}, "gains", spec)
    kg = ControllerGains(**canonical["controller_gains"])
    og = ObserverGains(**canonical["observer_gains"])

    pose0 = _initial(doc, "initial_pose", "initial_tracking_error", trajectory.pose(0.0))
    est0 = _initial(doc, "initial_estimate", "initial_estimate_error", pose0)
    canonical["initial_pose"] = list(pose0)
    canonical["initial_estimate"] = list(est0)
    # Every range measurement squares a pose's offset to a landmark.
    for field, (x, y, _) in (
        ("trajectory.start", canonical["trajectory"]["start"]),
        ("initial_pose", pose0),
        ("initial_estimate", est0),
    ):
        for i, (lx, ly) in enumerate(coords):
            dx, dy = x - lx, y - ly
            _finite_product(dx * dx + dy * dy, field, f"squared range to landmarks[{i}]")

    t_end = canonical["t_end"] = _positive(doc.get("t_end", STANDARD_T_END), "t_end")
    dt = canonical["dt"] = _positive(doc.get("dt", STANDARD_DT), "dt")

    if doc.get("probe_times") is None:
        canonical["probe_times"] = list(_default_probe_times(trajectory))
    else:
        canonical["probe_times"] = _probe_times(doc["probe_times"], "probe_times")
        if any(t < 0.0 for t in canonical["probe_times"]):
            raise ScenarioError("probe_times entries must be >= 0")

    # The reference stays within its path length up to the last time any
    # analysis asks for; the ranges measured along it must stay finite too.
    horizon = max(t_end, *canonical["probe_times"])
    ref = canonical["trajectory"]
    if "segments" in ref:
        segs = ref["segments"]
        reach = sum(abs(s["u"]) * s["duration"] for s in segs) + abs(segs[-1]["u"]) * horizon
    else:
        reach = abs(ref["u"]) * horizon
    for i, (lx, ly) in enumerate(coords):
        far = math.hypot(ref["start"][0] - lx, ref["start"][1] - ly) + reach
        _finite_product(far * far, "trajectory", f"squared range to landmarks[{i}] along the run")

    ekf = canonical["ekf"] = _section(doc.get("ekf", {}), "ekf", _EKF)
    mech = canonical["mech"] = _section(doc.get("mech", {}), "mech", _MECH)
    mech_cfg = MechConfig(**{k: tuple(v) if isinstance(v, list) else v for k, v in mech.items()})

    try:
        scenario = Scenario(trajectory, landmarks, kg, og, pose0, est0, t_end, dt)
    except ValueError as err:
        raise ScenarioError(str(err)) from err

    return ParsedScenario(
        scenario, tuple(canonical["probe_times"]), ekf["process_noise"],
        ekf["measurement_noise"], ekf["initial_covariance"], mech_cfg, canonical,
    )
