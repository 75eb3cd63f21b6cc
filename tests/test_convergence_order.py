"""RK4's order, seen in the numbers themselves: each halving of the step
divides the change of the final state by 2^4 = 16.

The generated runs are held bit for bit to numerics.rk4_run as written,
rk4_run to the integrate oracle, and its step to a per-component oracle
loop, so a fault they share (in the grid, the stage times or the short
last step) passes those tests; it does not pass these.  The band and the step ranges are not fitted to any run: a ratio
must show an order within 4 +- 0.5, which orders 3 and 5 (ratios 8
and 32) fall outside.  Every horizon is (n + part) times the finest step,
so each run ends with a short last step.  The EKF is left out: at the steps
its runs take, its covariance transient is not yet in RK4's asymptotic
range (the changes of P(1) fall 436-fold, then 7-fold, from 1 ms down).
"""

import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from invtrack import se2, trajectories
from invtrack.closed_loop import Scenario, simulate
from invtrack.controller import ControllerGains
from invtrack.mech import EpSystem, integrate_ep
from invtrack.observer import ObserverGains
from invtrack.robot import LandmarkSet
from invtrack.se2 import GroupElement
from invtrack.trajectories import IntegratedTrajectory, PiecewiseTrajectory

from strategies import floats, references, signed

BAND = (16.0 / math.sqrt(2.0), 16.0 * math.sqrt(2.0))
ROUNDOFF = 1e-12
LOOP_STEPS = [2.0 ** -k for k in range(6, 10)]   # 15.6 ms down to 1.95 ms
BODY_STEPS = [2.0 ** -k for k in range(5, 9)]    # 31.3 ms down to 3.9 ms
STANDARD = LandmarkSet(((10.0, 0.0), (0.0, 10.0), (-10.0, -10.0)))
OFFSETS = st.tuples(signed(0.05, 0.5), signed(0.05, 0.5), signed(0.05, 0.5))
# n finest steps and a part of one: 0.5 s to 1.5 s on LOOP_STEPS, 1 s to
# 3 s on BODY_STEPS.
STEPS = st.integers(256, 768)
PART = floats(0.05, 0.95)


def _horizon(traj, n, part, dt):
    """(n + part) * dt, ending inside a piecewise reference's first leg:
    its input jumps where a leg ends, and a step across the jump is first
    order."""
    if isinstance(traj, PiecewiseTrajectory):
        n = min(n, int(traj.segments[0].duration / dt) - 1)
    return (n + part) * dt


def _ratios(finals):
    """Each change of the final state over a halving, over the next one,
    while the next one stays above roundoff: at most 768 steps round to
    about sqrt(768) eps ~ 6e-15 of the state, and a change counts from
    ROUNDOFF, some 150 times that.  Each example must check one ratio."""
    changes = [float(np.max(np.abs(np.subtract(a, b)))) for a, b in zip(finals, finals[1:])]
    floor = ROUNDOFF * (1.0 + float(np.max(np.abs(finals[-1]))))
    ratios = [a / b for a, b in zip(changes, changes[1:]) if b > floor]
    assume(ratios)
    return ratios


def _in_band(ratios):
    return all(BAND[0] <= r <= BAND[1] for r in ratios)


@settings(max_examples=20)
@given(traj=references(), track=OFFSETS, est=OFFSETS, n=STEPS, part=PART)
def test_simulate_run(traj, track, est, n, part):
    t_end = _horizon(traj, n, part, LOOP_STEPS[-1])
    pose0 = se2.compose(traj.pose(0.0), GroupElement(*track))
    est0 = se2.compose(pose0, GroupElement(*est))
    gains = (ControllerGains(1.0, 1.0, 1.0), ObserverGains(1.0, 1.0, 1.0))
    finals = []
    for dt in LOOP_STEPS:
        res = simulate(Scenario(traj, STANDARD, *gains, pose0, est0, t_end, dt))
        assert res.times[-1] == t_end
        finals.append((*res.poses[-1], *res.estimates[-1]))
    # RK4 has order 4 only on a smooth rate.  The loop's rate has a kink
    # where the applied input u changes sign (observer_rate's gains scale
    # with |u|), and a jump where the estimate's heading error to the
    # reference crosses the +-pi wrap of relative_pose (the feedback reads
    # the wrapped angle); a run that meets either is not checked.
    assume(np.all(res.inputs[:, 0] * traj.input(0.0).u > 0.0))
    wrapped = np.remainder(res.estimates[:, 2] - res.references[:, 2] + math.pi, 2.0 * math.pi)
    assume(np.all(np.abs(np.diff(wrapped)) < math.pi))
    ratios = _ratios(finals)
    assert _in_band(ratios), ratios


@settings(max_examples=20)
@given(inertia=st.tuples(floats(1.0, 3.0), floats(1.0, 3.0), floats(1.0, 3.0)),
       velocity=st.tuples(signed(0.2, 1.5), signed(0.2, 1.5), signed(0.2, 1.5)),
       n=STEPS, part=PART)
def test_integrate_ep(inertia, velocity, n, part):
    body = EpSystem(np.eye(3), np.array(velocity), np.diag(inertia))
    t_end = (n + part) * BODY_STEPS[-1]
    finals = []
    for dt in BODY_STEPS:
        times, attitudes, velocities = integrate_ep(body, t_end, dt)
        assert times[-1] == t_end
        finals.append((*attitudes[-1].ravel(), *velocities[-1]))
    ratios = _ratios(finals)
    assert _in_band(ratios), ratios


@settings(max_examples=20)
@given(traj=references(), n=STEPS, part=PART)
def test_integrated_reference_sample(traj, n, part):
    # The integrated reference of traj's input profile, from its start, on
    # pose steps LOOP_STEPS in place of the 1 ms of production.  (A straight
    # leg is linear in t, which RK4 integrates exactly: its changes are
    # roundoff, and _ratios checks none of them.)
    t_end = _horizon(traj, n, part, LOOP_STEPS[-1])
    finals = []
    saved = trajectories._POSE_STEP
    try:
        for step in LOOP_STEPS:
            trajectories._POSE_STEP = step
            finals.append(IntegratedTrajectory(traj.input, traj.pose(0.0)).sample(t_end)[:3])
    finally:
        trajectories._POSE_STEP = saved
    ratios = _ratios(finals)
    assert _in_band(ratios), ratios
