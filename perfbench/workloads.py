"""Seeded scenario documents for each benchmark workload.

Every workload draws its scenarios from fixed, documented ranges with a
random.Random seeded by (workload, seed).  Draws are never repeated or
filtered by outcome: the ranges themselves are chosen so that every
scenario passes its verdict at the stated size.  The program under test only
ever sees the resulting JSON documents.

Sizes are cut down from the standard 30 s / 10 s runs so that one analysis
takes a few tenths of a second and a timed run holds dozens of them; the
per-step work is the same as at full size.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    commands: tuple[str, ...]          # cycled, one per scenario
    scenario_count: int
    make: Callable[[random.Random, bool], dict]
    reference: tuple[tuple[str, dict], ...]  # fixed (command, document) pairs
    tail_quantile: float               # highest with >= 10 samples beyond at the seed
    trace_analyses: int                # analyses in the traced pass


def _signed(rng: random.Random, lo: float, hi: float) -> float:
    return rng.choice((-1.0, 1.0)) * rng.uniform(lo, hi)


def _triple(rng: random.Random, half_width: float) -> list:
    return [rng.uniform(-half_width, half_width) for _ in range(3)]


def _gains(rng: random.Random, lo: float, hi: float) -> dict:
    return {k: rng.uniform(lo, hi) for k in ("k1", "k2", "k3", "l1", "l2", "l3")}


def _spread_landmarks(rng: random.Random, count: int, r_lo: float, r_hi: float) -> list:
    # Evenly spaced bearings with jitter: never collinear, well conditioned
    # from anywhere near the origin.
    out = []
    step = 2.0 * math.pi / count
    offset = rng.uniform(0.0, step)
    for i in range(count):
        bearing = offset + i * step + rng.uniform(-0.25, 0.25) * step
        radius = rng.uniform(r_lo, r_hi)
        out.append([radius * math.cos(bearing), radius * math.sin(bearing)])
    return out


def _start(rng: random.Random) -> list:
    return [rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0), rng.uniform(-math.pi, math.pi)]


# loop-permanent: circles and lines, forward and reverse, three landmarks.
# Gains in [3, 3.5] keep k3^2 <= 4 k2 (and l2^2 <= 4 l3) nearly, so with
# |u| >= 1 every error pole lies left of about -1.5 and the final error is
# far below the 1e-3 verdict tolerance at 8 s.
def _loop_permanent(rng: random.Random, tiny: bool) -> dict:
    u = _signed(rng, 1.0, 1.5)
    v = 0.0 if rng.random() < 0.5 else _signed(rng, 0.2, 0.8)
    return {
        "trajectory": {"u": u, "v": v, "start": _start(rng)},
        "landmarks": _spread_landmarks(rng, 3, 8.0, 14.0),
        "gains": _gains(rng, 3.0, 3.5),
        "initial_tracking_error": _triple(rng, 0.1),
        "initial_estimate_error": _triple(rng, 0.1),
        "t_end": 8.0,
        "dt": 0.08 if tiny else 0.004,
    }


# loop-wobble-dense: non-permanent v_wobble references (IntegratedTrajectory)
# seen by twelve landmarks.  Their tracking error decays at about 1/s
# whatever the gains, hence the longer horizon at a coarser step.
def _loop_wobble(rng: random.Random, tiny: bool) -> dict:
    return {
        "trajectory": {
            "u": _signed(rng, 1.0, 1.5),
            "v": rng.uniform(-0.5, 0.5),
            "v_wobble": {
                "amplitude": rng.uniform(0.1, 0.4),
                "angular_rate": rng.uniform(0.5, 2.0),
            },
            "start": _start(rng),
        },
        "landmarks": _spread_landmarks(rng, 12, 6.0, 15.0),
        "gains": _gains(rng, 4.0, 5.0),
        "initial_tracking_error": _triple(rng, 0.1),
        "initial_estimate_error": _triple(rng, 0.1),
        "t_end": 10.0,
        "dt": 0.1 if tiny else 0.01,
    }


# ekf-contrast: circles with the standard noise settings.  The EKF needs the
# 1 ms step to follow its covariance transient, so the probe horizon is
# shortened instead of the step lengthened.
def _ekf_contrast(rng: random.Random, tiny: bool) -> dict:
    horizon = 0.03 if tiny else 0.48
    return {
        "trajectory": {"u": _signed(rng, 0.8, 1.2), "v": _signed(rng, 0.3, 0.7), "start": _start(rng)},
        "landmarks": _spread_landmarks(rng, 3, 7.0, 10.0),
        "probe_times": [0.0, horizon / 3.0, 2.0 * horizon / 3.0, horizon],
        "dt": 0.001,
    }


# rigid-spin: inertias and spins within 20% of the standard ones.
def _rigid_spin(rng: random.Random, tiny: bool) -> dict:
    inertia = [base * rng.uniform(0.8, 1.2) for base in (1.0, 2.0, 3.0)]
    spin = [base * rng.uniform(0.8, 1.2) for base in (0.4, 1.0, -0.6)]
    return {"mech": {"inertia": inertia, "reference_velocity": spin,
                     "t_end": 0.02 if tiny else 0.3, "dt": 0.001}}


# verify-sweep: random permanent (u, v), gains and three to six landmarks;
# the commands eigs, separation and invariance run in turn.
def _verify_sweep(rng: random.Random, tiny: bool) -> dict:
    return {
        "trajectory": {
            "u": _signed(rng, 0.5, 2.0),
            "v": 0.0 if rng.random() < 0.25 else _signed(rng, 0.2, 1.0),
            "start": _start(rng),
        },
        "landmarks": _spread_landmarks(rng, rng.randint(3, 6), 5.0, 15.0),
        "gains": _gains(rng, 0.5, 3.0),
    }


_REFERENCE_ERRORS = {
    "initial_tracking_error": [0.05, -0.05, 0.05],
    "initial_estimate_error": [-0.05, 0.05, -0.05],
}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "loop-permanent",
            "headline closed-loop simulate on circles and lines; closed-form references",
            ("simulate",), 64, _loop_permanent,
            (("simulate", {"trajectory": {"u": 1.0, "v": 0.5},
                           "gains": {k: 3.5 for k in ("k1", "k2", "k3", "l1", "l2", "l3")},
                           **_REFERENCE_ERRORS, "t_end": 8.0, "dt": 0.004}),),
            0.8, 3,
        ),
        Workload(
            "loop-wobble-dense",
            "simulate on non-permanent references with 12 landmarks; RK4 reference poses",
            ("simulate",), 64, _loop_wobble,
            (("simulate", {"trajectory": {"u": 1.0, "v": 0.2,
                                          "v_wobble": {"amplitude": 0.3, "angular_rate": 1.0}},
                           "landmarks": [[10.0 * math.cos(k * math.pi / 6), 10.0 * math.sin(k * math.pi / 6)]
                                         for k in range(12)],
                           "gains": {k: 4.5 for k in ("k1", "k2", "k3", "l1", "l2", "l3")},
                           **_REFERENCE_ERRORS, "t_end": 10.0, "dt": 0.01}),),
            0.6, 3,
        ),
        Workload(
            "ekf-contrast",
            "ekf-compare: the EKF Riccati stage and numpy RK4 steps",
            ("ekf-compare",), 64, _ekf_contrast,
            (("ekf-compare", {"probe_times": [0.0, 0.16, 0.32, 0.48]}),),
            0.75, 3,
        ),
        Workload(
            "rigid-spin",
            "mech-lemma: Euler-Poincare integration on SO(3), the only mech workload",
            ("mech-lemma",), 64, _rigid_spin,
            (("mech-lemma", {"mech": {"t_end": 0.3}}),),
            0.75, 3,
        ),
        Workload(
            "verify-sweep",
            "eigs, separation and invariance over hundreds of scenarios; no integration",
            ("eigs", "separation", "invariance"), 300, _verify_sweep,
            (("eigs", {}), ("separation", {}), ("invariance", {})),
            0.95, 60,
        ),
    )
}


def scenarios(workload: Workload, seed: int, tiny: bool = False) -> list[tuple[str, dict]]:
    """The workload's (command, document) list for a seed, in run order."""
    rng = random.Random(f"{workload.name}:{seed}")
    docs = [workload.make(rng, tiny) for _ in range(workload.scenario_count)]
    cmds = workload.commands
    return [(cmds[i % len(cmds)], doc) for i, doc in enumerate(docs)]


def integration_steps(command: str, doc: dict) -> int:
    """RK4 steps one analysis needs, from the document alone."""
    if command == "simulate":
        return int(math.ceil(doc["t_end"] / doc["dt"] - 1e-9))
    if command == "ekf-compare":
        return int(math.ceil(max(doc["probe_times"]) / doc["dt"] - 1e-9))
    if command == "mech-lemma":
        mech = doc["mech"]
        return int(math.ceil(mech["t_end"] / mech.get("dt", 1e-3) - 1e-9))
    return 0
