import copy
import math
import warnings

import numpy as np
import pytest

from invtrack.errors import ScenarioError
from invtrack.reporting import scenario_digest
from invtrack.scenario import (
    STANDARD_DT,
    STANDARD_LANDMARKS,
    STANDARD_T_END,
    parse_scenario,
)
from invtrack.trajectories import (
    IntegratedTrajectory,
    PermanentTrajectory,
    PiecewiseTrajectory,
)


class TestDefaults:
    def test_empty_document(self):
        p = parse_scenario({})
        sc = p.scenario
        assert isinstance(sc.trajectory, PermanentTrajectory)
        assert sc.trajectory.u == 1.0
        assert sc.trajectory.v == 0.5
        assert sc.landmarks.coords == STANDARD_LANDMARKS
        assert sc.controller_gains.k1 == sc.controller_gains.k2 == sc.controller_gains.k3 == 1.0
        assert sc.observer_gains.l1 == sc.observer_gains.l2 == sc.observer_gains.l3 == 1.0
        assert sc.t_end == STANDARD_T_END
        assert sc.dt == STANDARD_DT
        assert (sc.initial_pose.x, sc.initial_pose.y, sc.initial_pose.theta) == (0.0, 0.0, 0.0)
        assert sc.initial_estimate == sc.initial_pose

    def test_default_probe_times_quarter_period(self):
        # Standard circle turns at rate u v = 0.5, so a quarter period is pi.
        p = parse_scenario({})
        assert np.allclose(p.probe_times, [0.0, math.pi, 2 * math.pi, 3 * math.pi])

    def test_wobble_probe_times(self):
        p = parse_scenario({"trajectory": {"v_wobble": {}}})
        assert np.allclose(p.probe_times, [0.0, math.pi / 2, math.pi, 1.5 * math.pi])

    def test_ekf_defaults(self):
        p = parse_scenario({})
        assert p.ekf_process_noise == 1e-3
        assert p.ekf_measurement_noise == 1e-2
        assert p.ekf_initial_covariance == 1e-2

    def test_mech_defaults(self):
        m = parse_scenario({}).mech
        assert m.inertia == (1.0, 2.0, 3.0)
        assert m.reference_velocity == (0.4, 1.0, -0.6)
        assert m.damping == (0.5, 0.4, 0.3)
        assert m.force_strength == 1.0
        assert m.force_axis == (0.0, 0.0, 1.0)
        assert m.probe_times == (0.0, 1.0, 2.0)
        assert m.t_end == 10.0
        assert m.dt == 1e-3


class TestTrajectories:
    def test_minimal_constant(self):
        p = parse_scenario({"trajectory": {"u": 2.0, "v": -0.25, "start": [1.0, 2.0, 0.3]}})
        traj = p.scenario.trajectory
        assert isinstance(traj, PermanentTrajectory)
        g = traj.pose(0.0)
        assert (g.x, g.y, g.theta) == (1.0, 2.0, 0.3)

    def test_segments(self):
        doc = {
            "trajectory": {
                "segments": [
                    {"u": 1.0, "duration": 2.0},
                    {"u": -1.0, "v": 0.5, "duration": 1.0},
                ]
            }
        }
        traj = parse_scenario(doc).scenario.trajectory
        assert isinstance(traj, PiecewiseTrajectory)
        assert traj.input(0.5).v == 0.0
        assert traj.input(2.5).u == -1.0

    def test_wobble_input(self):
        doc = {"trajectory": {"v_wobble": {"amplitude": 0.2, "angular_rate": 2.0}}}
        traj = parse_scenario(doc).scenario.trajectory
        assert isinstance(traj, IntegratedTrajectory)
        inp = traj.input(math.pi / 4)
        assert abs(inp.v - (0.5 + 0.2 * math.sin(math.pi / 2))) < 1e-15

    def test_segments_exclude_constant_fields(self):
        doc = {"trajectory": {"u": 1.0, "segments": [{"u": 1.0, "duration": 1.0}]}}
        with pytest.raises(ScenarioError, match="segments"):
            parse_scenario(doc)

    def test_zero_forward_speed_rejected(self):
        with pytest.raises(ScenarioError, match="trajectory.u must be nonzero"):
            parse_scenario({"trajectory": {"u": 0.0}})


class TestValidation:
    def test_unknown_top_level_key(self):
        with pytest.raises(ScenarioError, match="unknown field 'roll'"):
            parse_scenario({"roll": 1})

    def test_non_object_document(self):
        with pytest.raises(ScenarioError, match="JSON object"):
            parse_scenario([1, 2, 3])

    def test_negative_gain_via_alias(self):
        with pytest.raises(ScenarioError) as info:
            parse_scenario({"gains": {"k1": -1}})
        assert "gains.k1" in str(info.value)
        assert "> 0" in str(info.value)

    def test_gains_alias_excludes_split_form(self):
        doc = {"gains": {"k1": 1.0}, "controller_gains": {"k1": 1.0}}
        with pytest.raises(ScenarioError, match="gains excludes"):
            parse_scenario(doc)

    def test_gains_alias_fills_both_triples(self):
        p = parse_scenario({"gains": {"k2": 3.0, "l3": 0.5}})
        sc = p.scenario
        assert sc.controller_gains.k2 == 3.0
        assert sc.controller_gains.k1 == 1.0
        assert sc.observer_gains.l3 == 0.5
        assert sc.observer_gains.l1 == 1.0

    def test_collinear_landmarks(self):
        doc = {"landmarks": [[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]]}
        with pytest.raises(ScenarioError, match="^landmarks:"):
            parse_scenario(doc)

    def test_landmark_entry_shape(self):
        with pytest.raises(ScenarioError, match=r"landmarks\[1\]"):
            parse_scenario({"landmarks": [[0.0, 0.0], [1.0], [2.0, 0.0]]})

    def test_pose_and_tracking_error_exclusive(self):
        doc = {"initial_pose": [0, 0, 0], "initial_tracking_error": [0, 0, 0]}
        with pytest.raises(ScenarioError, match="initial_pose excludes"):
            parse_scenario(doc)

    def test_estimate_and_estimate_error_exclusive(self):
        doc = {"initial_estimate": [0, 0, 0], "initial_estimate_error": [0, 0, 0]}
        with pytest.raises(ScenarioError, match="initial_estimate excludes"):
            parse_scenario(doc)

    def test_bool_is_not_a_number(self):
        with pytest.raises(ScenarioError, match="t_end must be a number"):
            parse_scenario({"t_end": True})

    def test_nonpositive_dt(self):
        with pytest.raises(ScenarioError, match="dt must be > 0"):
            parse_scenario({"dt": 0.0})

    def test_short_probe_times(self):
        with pytest.raises(ScenarioError, match="probe_times"):
            parse_scenario({"probe_times": [0.0]})

    def test_negative_probe_time(self):
        with pytest.raises(ScenarioError, match=">= 0"):
            parse_scenario({"probe_times": [-1.0, 0.0]})

    def test_ekf_unknown_key(self):
        with pytest.raises(ScenarioError, match="unknown field ekf"):
            parse_scenario({"ekf": {"q": 1.0}})

    def test_mech_nonpositive_inertia(self):
        with pytest.raises(ScenarioError, match="mech.inertia"):
            parse_scenario({"mech": {"inertia": [1.0, 0.0, 1.0]}})


class TestInitialConditions:
    def test_tracking_error_composes_with_reference(self):
        doc = {
            "trajectory": {"start": [1.0, 2.0, math.pi / 2]},
            "initial_tracking_error": [0.1, 0.2, 0.0],
        }
        pose0 = parse_scenario(doc).scenario.initial_pose
        # Offset is applied in the reference frame, rotated by pi/2.
        assert abs(pose0.x - 0.8) < 1e-15
        assert abs(pose0.y - 2.1) < 1e-15
        assert abs(pose0.theta - math.pi / 2) < 1e-15

    def test_estimate_error_composes_with_pose(self):
        doc = {
            "initial_pose": [0.0, 0.0, 0.0],
            "initial_estimate_error": [0.3, -0.1, 0.05],
        }
        est0 = parse_scenario(doc).scenario.initial_estimate
        assert (est0.x, est0.y, est0.theta) == (0.3, -0.1, 0.05)

    def test_absolute_overrides(self):
        doc = {"initial_pose": [5.0, 6.0, 0.1], "initial_estimate": [5.1, 6.1, 0.1]}
        sc = parse_scenario(doc).scenario
        assert sc.initial_pose.x == 5.0
        assert sc.initial_estimate.x == 5.1


class TestCanonical:
    KEYS = (
        "trajectory",
        "landmarks",
        "controller_gains",
        "observer_gains",
        "initial_pose",
        "initial_estimate",
        "t_end",
        "dt",
        "probe_times",
        "ekf",
        "mech",
    )

    def test_key_order(self):
        assert tuple(parse_scenario({}).canonical) == self.KEYS

    def test_defaults_are_materialized(self):
        c = parse_scenario({}).canonical
        assert c["trajectory"] == {"u": 1.0, "v": 0.5, "start": [0.0, 0.0, 0.0]}
        assert c["landmarks"] == [list(p) for p in STANDARD_LANDMARKS]
        assert c["ekf"]["process_noise"] == 1e-3
        assert c["mech"]["t_end"] == 10.0

    def test_digest_is_stable(self):
        doc = {"trajectory": {"u": 1.0, "v": 0.5}, "t_end": 12.0}
        d1 = scenario_digest(parse_scenario(doc).canonical)
        d2 = scenario_digest(parse_scenario(dict(doc)).canonical)
        assert d1 == d2
        assert len(d1) == 64

    def test_digest_separates_scenarios(self):
        d1 = scenario_digest(parse_scenario({}).canonical)
        d2 = scenario_digest(parse_scenario({"t_end": 29.0}).canonical)
        assert d1 != d2

    def test_equivalent_spellings_share_digest(self):
        # Integer 1 and float 1.0 coerce to the same canonical float.
        d1 = scenario_digest(parse_scenario({"trajectory": {"u": 1}}).canonical)
        d2 = scenario_digest(parse_scenario({"trajectory": {"u": 1.0}}).canonical)
        assert d1 == d2


_SEG = {"u": 1.0, "duration": 1.0}

# One fault per document, and the exact message it must produce: at least one
# row per section and per message template.
SINGLE_FAULTS = [
    ([1, 2], "scenario document must be a JSON object"),
    ({"roll": 1}, "unknown field 'roll'"),
    ({"trajectory": []}, "trajectory must be an object"),
    ({"trajectory": {"w": 1}}, "unknown field trajectory.'w'"),
    ({"trajectory": {"start": [0, 0]}}, "trajectory.start must be a list of 3 numbers"),
    ({"trajectory": {"start": [0, "a", 0]}}, "trajectory.start[1] must be a number, got 'a'"),
    ({"trajectory": {"u": 0}}, "trajectory.u must be nonzero"),
    ({"trajectory": {"u": "1"}}, "trajectory.u must be a number, got '1'"),
    ({"trajectory": {"u": math.nan}}, "trajectory.u must be finite, got nan"),
    ({"trajectory": {"v": math.inf}}, "trajectory.v must be finite, got inf"),
    ({"trajectory": {"v_wobble": 0.3}}, "trajectory.v_wobble must be an object"),
    ({"trajectory": {"v_wobble": {"phase": 1}}}, "unknown field trajectory.v_wobble.'phase'"),
    (
        {"trajectory": {"v_wobble": {"amplitude": None}}},
        "trajectory.v_wobble.amplitude must be a number, got None",
    ),
    (
        {"trajectory": {"v_wobble": {"angular_rate": -math.inf}}},
        "trajectory.v_wobble.angular_rate must be finite, got -inf",
    ),
    (
        {"trajectory": {"v": 0.5, "segments": [_SEG]}},
        "trajectory.segments excludes trajectory.u/v/v_wobble",
    ),
    (
        {"trajectory": {"v_wobble": {}, "segments": [_SEG]}},
        "trajectory.segments excludes trajectory.u/v/v_wobble",
    ),
    ({"trajectory": {"segments": []}}, "trajectory.segments must be a non-empty list"),
    ({"trajectory": {"segments": _SEG}}, "trajectory.segments must be a non-empty list"),
    ({"trajectory": {"segments": [_SEG, 5]}}, "trajectory.segments[1] must be an object"),
    (
        {"trajectory": {"segments": [{**_SEG, "w": 0}]}},
        "unknown field trajectory.segments[0].'w'",
    ),
    (
        {"trajectory": {"segments": [{"duration": 1.0}]}},
        "trajectory.segments[0].u must be a number, got None",
    ),
    (
        {"trajectory": {"segments": [_SEG, {"u": 0.0, "duration": 1.0}]}},
        "trajectory.segments[1].u must be nonzero",
    ),
    (
        {"trajectory": {"segments": [{**_SEG, "v": True}]}},
        "trajectory.segments[0].v must be a number, got True",
    ),
    (
        {"trajectory": {"segments": [{"u": 1.0, "duration": 0}]}},
        "trajectory.segments[0].duration must be > 0, got 0.0",
    ),
    (
        {"trajectory": {"segments": [{"u": 1.0}]}},
        "trajectory.segments[0].duration must be a number, got None",
    ),
    ({"landmarks": {"a": 1}}, "landmarks must be a list of [x, y] pairs"),
    ({"landmarks": [[0, 0], [1, 0, 0], [0, 1]]}, "landmarks[1] must be an [x, y] pair"),
    ({"landmarks": [[0, 0], [1, "x"], [0, 1]]}, "landmarks[1][1] must be a number, got 'x'"),
    ({"landmarks": [[0, 0], [1, 0], [math.inf, 1]]}, "landmarks[2][0] must be finite, got inf"),
    (
        {"landmarks": [[0, 0], [1, 1], [2, 2]]},
        "landmarks: landmarks are collinear (or coincident)",
    ),
    ({"landmarks": [[0, 0], [1, 0]]}, "landmarks: need at least 3 landmarks, got 2"),
    ({"controller_gains": [1, 1, 1]}, "controller_gains must be an object"),
    ({"observer_gains": "unit"}, "observer_gains must be an object"),
    ({"observer_gains": {"k1": 1}}, "unknown field observer_gains.'k1'"),
    ({"controller_gains": {"k2": 0}}, "controller_gains.k2 must be > 0, got 0.0"),
    ({"observer_gains": {"l3": "1"}}, "observer_gains.l3 must be a number, got '1'"),
    ({"observer_gains": {"l1": -2.5}}, "observer_gains.l1 must be > 0, got -2.5"),
    ({"gains": 1}, "gains must be an object"),
    ({"gains": {"m1": 1}}, "unknown field gains.'m1'"),
    ({"gains": {"l2": -1}}, "gains.l2 must be > 0, got -1.0"),
    ({"gains": {"k3": math.inf}}, "gains.k3 must be finite, got inf"),
    ({"gains": {}, "observer_gains": {}}, "gains excludes controller_gains/observer_gains"),
    (
        {"initial_pose": [0, 0, 0], "initial_tracking_error": [0, 0, 0]},
        "initial_pose excludes initial_tracking_error",
    ),
    (
        {"initial_estimate": [0, 0, 0], "initial_estimate_error": [0, 0, 0]},
        "initial_estimate excludes initial_estimate_error",
    ),
    ({"initial_pose": [0, 0]}, "initial_pose must be a list of 3 numbers"),
    ({"initial_estimate": "origin"}, "initial_estimate must be a list of 3 numbers"),
    (
        {"initial_tracking_error": [0, 0, None]},
        "initial_tracking_error[2] must be a number, got None",
    ),
    (
        {"initial_estimate_error": [math.nan, 0, 0]},
        "initial_estimate_error[0] must be finite, got nan",
    ),
    ({"t_end": True}, "t_end must be a number, got True"),
    ({"t_end": -1}, "t_end must be > 0, got -1.0"),
    ({"dt": 0.0}, "dt must be > 0, got 0.0"),
    ({"dt": math.inf}, "dt must be finite, got inf"),
    ({"probe_times": [0.0]}, "probe_times must be a list of at least 2 numbers"),
    ({"probe_times": 1.0}, "probe_times must be a list of at least 2 numbers"),
    ({"probe_times": [0.0, "1"]}, "probe_times[1] must be a number, got '1'"),
    ({"probe_times": [-1.0, 0.0]}, "probe_times entries must be >= 0"),
    ({"ekf": None}, "ekf must be an object"),
    ({"ekf": {"q": 1}}, "unknown field ekf.'q'"),
    ({"ekf": {"process_noise": 0}}, "ekf.process_noise must be > 0, got 0.0"),
    ({"ekf": {"measurement_noise": "1e-2"}}, "ekf.measurement_noise must be a number, got '1e-2'"),
    ({"ekf": {"initial_covariance": math.inf}}, "ekf.initial_covariance must be finite, got inf"),
    ({"mech": []}, "mech must be an object"),
    ({"mech": {"mass": 1}}, "unknown field mech.'mass'"),
    ({"mech": {"inertia": [1, 2]}}, "mech.inertia must be a list of 3 numbers"),
    ({"mech": {"inertia": [1, 0, 1]}}, "mech.inertia entries must be > 0"),
    (
        {"mech": {"reference_velocity": [0, "a", 0]}},
        "mech.reference_velocity[1] must be a number, got 'a'",
    ),
    ({"mech": {"damping": [0.5, -0.1, 0.3]}}, "mech.damping entries must be > 0"),
    ({"mech": {"force_strength": math.nan}}, "mech.force_strength must be finite, got nan"),
    ({"mech": {"force_axis": [0, 0, 0]}}, "mech.force_axis must be nonzero"),
    ({"mech": {"probe_times": [1.0]}}, "mech.probe_times must be a list of at least 2 numbers"),
    ({"mech": {"probe_times": [0.0, None]}}, "mech.probe_times[1] must be a number, got None"),
    ({"mech": {"t_end": 0}}, "mech.t_end must be > 0, got 0.0"),
    ({"mech": {"dt": -1e-3}}, "mech.dt must be > 0, got -0.001"),
    # Finite numbers whose products in the trajectory constructors overflow.
    ({"trajectory": {"u": 1e200, "v": 1e200}}, "trajectory: turn rate u*v must be finite, got inf"),
    (
        {"trajectory": {"segments": [_SEG, {"u": 1e200, "duration": 1e200}]}},
        "trajectory.segments[1]: distance u*duration must be finite, got inf",
    ),
    (
        {"trajectory": {"segments": [{"u": 1e200, "v": 1e200, "duration": 1.0}]}},
        "trajectory.segments[0]: turn angle u*v*duration must be finite, got inf",
    ),
    (
        {"trajectory": {"u": 1e200, "v_wobble": {"amplitude": 1e200}}},
        "trajectory.v_wobble: peak turn rate |u|*(|v| + |amplitude|) must be finite, got inf",
    ),
    # Finite poses and landmarks whose squared range overflows.
    (
        {"landmarks": [[1e160, 0], [0, 1e160], [-1e160, -1e160]]},
        "trajectory.start: squared range to landmarks[0] must be finite, got inf",
    ),
    (
        {"trajectory": {"start": [1e155, 0, 0]}},
        "trajectory.start: squared range to landmarks[0] must be finite, got inf",
    ),
    (
        {"initial_pose": [0, -1e155, 0]},
        "initial_pose: squared range to landmarks[0] must be finite, got inf",
    ),
    (
        {"initial_estimate": [-1e155, 1e155, 0]},
        "initial_estimate: squared range to landmarks[0] must be finite, got inf",
    ),
    # A finite start whose reference travels out of range: its path length
    # over max(t_end, largest probe time) bounds how far it gets.
    (
        {"trajectory": {"u": 1e300, "v": 0}},
        "trajectory: squared range to landmarks[0] along the run must be finite, got inf",
    ),
    (
        {"trajectory": {"segments": [_SEG, {"u": 1e150, "duration": 1e10}]}},
        "trajectory: squared range to landmarks[0] along the run must be finite, got inf",
    ),
    (
        {"trajectory": {"u": 1e150, "v": 0}, "t_end": 1.0, "probe_times": [0.0, 1e10]},
        "trajectory: squared range to landmarks[0] along the run must be finite, got inf",
    ),
    # Probe times at one instant only: any drift between them reads 0.
    ({"probe_times": [0.0, 0.0]}, "probe_times must hold at least 2 distinct times"),
    ({"probe_times": [0.5, 0.5, 0.5]}, "probe_times must hold at least 2 distinct times"),
    ({"mech": {"probe_times": [1.0, 1.0]}}, "mech.probe_times must hold at least 2 distinct times"),
]


@pytest.mark.parametrize("doc, message", SINGLE_FAULTS)
def test_single_fault_message(doc, message):
    with pytest.raises(ScenarioError) as info:
        parse_scenario(doc)
    assert str(info.value) == message


def test_reach_within_range_parses():
    # The last fault above with probe times inside t_end: 1e150 m of travel
    # keeps every squared range finite.
    doc = {"trajectory": {"u": 1e150, "v": 0}, "t_end": 1.0, "probe_times": [0.0, 1.0]}
    assert parse_scenario(doc).canonical["trajectory"]["u"] == 1e150


class TestForceAxis:
    # gravity_gradient_force divides by the axis length; these axes have
    # nonzero entries but a length that underflows to 0 or overflows to inf.
    @pytest.mark.parametrize("axis", [[1e-170, 1e-170, 0.0], [1e200, 1e200, 0.0]])
    def test_unusable_length_rejected(self, axis):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ScenarioError, match=r"^mech\.force_axis length"):
                parse_scenario({"mech": {"force_axis": axis}})

    def test_tiny_but_representable_axis_accepted(self):
        axis = parse_scenario({"mech": {"force_axis": [1e-150, 0.0, 0.0]}}).mech.force_axis
        assert axis == (1e-150, 0.0, 0.0)


# Documents whose canonical form must parse back to itself: the README's
# "two configs that resolve to the same run share a digest".
FIXED_POINT_DOCS = [
    {},
    {"trajectory": {"u": -1.5, "v": 0.2, "start": [1.0, -2.0, 3.0]}, "probe_times": None},
    {
        "trajectory": {
            "segments": [{"u": 1.0, "duration": 2.0}, {"u": -1, "v": 0.5, "duration": 1}]
        },
        "gains": {"k2": 3.0, "l3": 0.5},
        "initial_tracking_error": [0.1, -0.2, 0.3],
        "initial_estimate_error": [0.05, 0.0, -0.1],
    },
    {
        "trajectory": {"v": 0.1, "v_wobble": {"amplitude": 0.2}, "start": [0, 0, 1]},
        "controller_gains": {"k1": 2},
        "observer_gains": {"l2": 4},
        "initial_pose": [0.5, 0.5, 0.0],
        "t_end": 5,
        "dt": 0.002,
        "probe_times": [0, 0.5],
        "ekf": {"measurement_noise": 0.05},
        "mech": {
            "inertia": [2, 3, 4],
            "reference_velocity": [0.1, 0.2, 0.3],
            "damping": [1, 1, 1],
            "force_strength": -2,
            "force_axis": [1, 0, 0],
            "probe_times": [0, 0.5, 1],
            "t_end": 3,
            "dt": 0.01,
        },
    },
]


@pytest.mark.parametrize("doc", FIXED_POINT_DOCS)
def test_canonical_is_a_fixed_point(doc):
    p = parse_scenario(doc)
    again = parse_scenario(copy.deepcopy(p.canonical))
    assert again.canonical == p.canonical
    assert scenario_digest(again.canonical) == scenario_digest(p.canonical)
    assert again.probe_times == p.probe_times
    assert again.mech == p.mech
