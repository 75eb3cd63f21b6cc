import json

import numpy as np
import pytest

from invtrack import cli
from invtrack.cli import main
from invtrack.ekf import run_along_reference, time_variance_probe
from invtrack.reporting import CSV_COLUMNS
from invtrack.scenario import parse_scenario
from oracles import assert_close, ekf_oracle_run

VERDICT_KEYS = ("command", "pass", "metrics", "tolerances", "scenario_digest")


def write_config(tmp_path, doc):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def read_report(out_dir, name="report.json"):
    return json.loads((out_dir / name).read_text(encoding="utf-8"))


class TestVerdicts:
    def test_eigs_passes(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["eigs", "--out", str(out)]) == 0
        assert capsys.readouterr().out == "eigs: pass\n"
        report = read_report(out, "eigs.json")
        assert report["command"] == "eigs"
        assert report["pass"] is True
        assert report["metrics"]["controller_abscissa"] < 0.0
        assert report["metrics"]["union_mismatch"] < 1e-9

    def test_verdict_key_order(self, tmp_path):
        out = tmp_path / "out"
        main(["eigs", "--out", str(out)])
        pairs = json.loads(
            (out / "eigs.json").read_text(encoding="utf-8"),
            object_pairs_hook=lambda p: p,
        )
        assert tuple(k for k, _ in pairs) == VERDICT_KEYS

    def test_separation_passes(self, tmp_path):
        out = tmp_path / "out"
        assert main(["separation", "--out", str(out)]) == 0
        report = read_report(out)
        assert report["metrics"]["linearization_match"] <= 1e-4
        assert report["tolerances"]["spectrum_union"] == 1e-6

    def test_invariance_passes(self, tmp_path):
        out = tmp_path / "out"
        assert main(["invariance", "--out", str(out)]) == 0
        report = read_report(out)
        assert report["metrics"]["closed_loop_drift"] <= 1e-6
        assert report["metrics"]["input_variation"] == 0.0

    def test_ekf_compare_passes(self, tmp_path):
        out = tmp_path / "out"
        assert main(["ekf-compare", "--out", str(out)]) == 0
        report = read_report(out)
        assert report["metrics"]["ekf_drift"] > 0.1
        assert report["metrics"]["observer_drift"] <= 1e-6

    def test_ekf_compare_coarse_step_is_diagnosed(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["ekf-compare", "--out", str(out), "--dt", "0.01"]) == 2
        assert "reduce dt" in capsys.readouterr().err

    def test_ekf_compare_low_measurement_noise_is_diagnosed(self, tmp_path, capsys):
        # At r = 5e-3 the covariance transient is too fast for the 1 ms
        # step, and the PSD guard stops the run after its first step.
        cfg = write_config(tmp_path, {"ekf": {"measurement_noise": 5e-3}})
        assert main(["ekf-compare", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            "error: EKF integration unstable (P must be positive semidefinite); "
            "reduce dt at t=0.001\n"
        )

    def test_mech_lemma_passes(self, tmp_path):
        out = tmp_path / "out"
        assert main(["mech-lemma", "--out", str(out)]) == 0
        report = read_report(out)
        assert report["metrics"]["velocity_force_drift"] <= 1e-6
        assert report["metrics"]["attitude_force_drift"] >= 1e-2
        assert report["metrics"]["energy_drift"] <= 1e-8

    def test_mech_lemma_flags_set_the_mech_section(self, tmp_path):
        flagged, configured = tmp_path / "flagged", tmp_path / "configured"
        argv = ["mech-lemma", "--out", str(flagged), "--t-end", "0.5", "--dt", "2e-3"]
        assert main(argv) == 0
        cfg = write_config(tmp_path, {"mech": {"t_end": 0.5, "dt": 2e-3}})
        assert main(["mech-lemma", "--config", cfg, "--out", str(configured)]) == 0
        assert (flagged / "report.json").read_bytes() == (configured / "report.json").read_bytes()

    def test_mech_lemma_coarse_step_is_diagnosed(self, tmp_path, capsys):
        assert main(["mech-lemma", "--out", str(tmp_path / "out"), "--dt", "1"]) == 2
        assert "reduce dt" in capsys.readouterr().err

    @pytest.mark.parametrize("mech", [None, 5, [1, 2]])
    def test_mech_lemma_flags_on_non_object_mech(self, tmp_path, capsys, mech):
        cfg = write_config(tmp_path, {"mech": mech})
        out = tmp_path / "out"
        assert main(["mech-lemma", "--config", cfg, "--out", str(out), "--dt", "0.01"]) == 2
        assert capsys.readouterr().err == "error: mech must be an object\n"


class TestReverseDriving:
    # u_r < 0 on the standard circle; simulate's reverse runs are covered in
    # test_closed_loop.py.
    REVERSE = {"trajectory": {"u": -1.0, "v": 0.5}}

    @pytest.mark.parametrize("command", ["eigs", "separation", "invariance"])
    def test_verdict_passes(self, tmp_path, capsys, command):
        out = tmp_path / "out"
        assert main([command, "--config", write_config(tmp_path, self.REVERSE), "--out", str(out)]) == 0
        assert capsys.readouterr().out == f"{command}: pass\n"
        report = read_report(out, "eigs.json" if command == "eigs" else "report.json")
        assert report["pass"] is True

    def test_ekf_compare_passes_and_run_matches_oracle(self, tmp_path):
        doc = dict(self.REVERSE, probe_times=[0.0, 0.16, 0.32, 0.48])
        out = tmp_path / "out"
        assert main(["ekf-compare", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 0
        assert read_report(out)["metrics"]["ekf_drift"] > 0.1
        parsed = parse_scenario(doc)
        sc = parsed.scenario
        q = parsed.ekf_process_noise
        r = parsed.ekf_measurement_noise
        p0 = parsed.ekf_initial_covariance
        run = run_along_reference(sc.trajectory, sc.landmarks, 0.48, sc.dt, q=q, r=r, p0=p0)
        times, estimates, covariances = ekf_oracle_run(
            sc.trajectory, sc.landmarks, 0.48, sc.dt,
            q * np.eye(3), r * np.eye(len(sc.landmarks)), p0 * np.eye(3),
        )
        assert run.times.tolist() == times.tolist()
        assert_close(run.estimates, estimates)
        assert_close(run.covariances, covariances)


class TestEkfNoiseWiring:
    # Three distinct levels, each large enough that the run with q and r
    # swapped still follows the covariance transient at 1 ms.
    NOISE = {"process_noise": 1.3e-2, "measurement_noise": 2.9e-2, "initial_covariance": 5e-3}
    TIMES = [0.0, 0.1, 0.2]

    def _cli_drift(self, tmp_path, noise):
        doc = {"probe_times": self.TIMES, "ekf": noise}
        out = tmp_path / "out"
        assert main(["ekf-compare", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 0
        return read_report(out)["metrics"]["ekf_drift"]

    def test_cli_drift_is_the_probe_on_the_scenario_noise(self, tmp_path):
        sc = parse_scenario({}).scenario
        want = time_variance_probe(
            sc.trajectory, sc.landmarks, self.TIMES, dt=sc.dt, q=1.3e-2, r=2.9e-2, p0=5e-3
        )
        assert self._cli_drift(tmp_path, self.NOISE) == want
        swapped = time_variance_probe(
            sc.trajectory, sc.landmarks, self.TIMES, dt=sc.dt, q=2.9e-2, r=1.3e-2, p0=5e-3
        )
        assert swapped != want


class TestSimulate:
    def test_perfect_start_stays_put(self, tmp_path):
        out = tmp_path / "out"
        assert main(["simulate", "--out", str(out), "--t-end", "2.0"]) == 0
        text = (out / "timeseries.csv").read_text(encoding="utf-8")
        rows = text.strip().split("\n")
        assert rows[0] == ",".join(CSV_COLUMNS)
        i0 = CSV_COLUMNS.index("eta_x")
        for row in rows[1:]:
            vals = [float(v) for v in row.split(",")]
            assert max(abs(v) for v in vals[i0 : i0 + 6]) < 1e-9

    def test_sample_count_follows_dt(self, tmp_path):
        out = tmp_path / "out"
        main(["simulate", "--out", str(out), "--t-end", "1.0", "--dt", "0.01"])
        assert read_report(out)["metrics"]["samples"] == 101

    def test_unconverged_run_fails(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"initial_tracking_error": [0.1, 0.0, 0.0]})
        out = tmp_path / "out"
        rc = main(["simulate", "--config", cfg, "--out", str(out), "--t-end", "0.5"])
        assert rc == 1
        assert capsys.readouterr().out == "simulate: FAIL\n"
        report = read_report(out)
        assert report["pass"] is False
        assert report["metrics"]["final_tracking_error"] > 1e-3

    def test_tol_override(self, tmp_path):
        cfg = write_config(tmp_path, {"initial_tracking_error": [0.1, 0.0, 0.0]})
        out = tmp_path / "out"
        rc = main(
            ["simulate", "--config", cfg, "--out", str(out), "--t-end", "0.5", "--tol", "0.5"]
        )
        assert rc == 0
        assert read_report(out)["tolerances"]["final_error"] == 0.5


class TestFailureModes:
    def test_wobble_breaks_invariance(self, tmp_path):
        cfg = write_config(tmp_path, {"trajectory": {"v_wobble": {}}})
        out = tmp_path / "out"
        assert main(["invariance", "--config", cfg, "--out", str(out)]) == 1
        report = read_report(out)
        assert report["pass"] is False
        assert report["metrics"]["closed_loop_drift"] > 1e-2

    def test_missing_config(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["eigs", "--config", str(tmp_path / "nope.json"), "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not (out / "eigs.json").exists()

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        out = tmp_path / "out"
        assert main(["eigs", "--config", str(path), "--out", str(out)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_unknown_field(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"rolll": 1})
        out = tmp_path / "out"
        assert main(["eigs", "--config", cfg, "--out", str(out)]) == 2
        assert "unknown field" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command", ["simulate", "eigs", "separation", "invariance", "ekf-compare"]
    )
    def test_overflowing_turn_rate_is_bad_input(self, tmp_path, capsys, command):
        # u and v are finite, their product is not: a named scenario fault.
        config = write_config(tmp_path, {"trajectory": {"u": 1e200, "v": 1e200}})
        out = tmp_path / "out"
        argv = [command, "--config", config, "--out", str(out), "--t-end", "0.01"]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "error: trajectory: turn rate u*v must be finite, got inf\n"
        )

    @pytest.mark.parametrize(
        "command", ["simulate", "eigs", "separation", "invariance", "ekf-compare"]
    )
    @pytest.mark.parametrize(
        "doc, message",
        [
            (
                {"landmarks": [[1e160, 0], [0, 1e160], [-1e160, -1e160]]},
                "trajectory.start: squared range to landmarks[0] must be finite, got inf",
            ),
            (
                {"trajectory": {"start": [1e155, 0, 0]}},
                "trajectory.start: squared range to landmarks[0] must be finite, got inf",
            ),
            (
                {"trajectory": {"u": 1e300, "v": 0}},
                "trajectory: squared range to landmarks[0] along the run must be finite, got inf",
            ),
        ],
        ids=["far-landmarks", "far-start", "far-reference"],
    )
    def test_overflowing_range_is_bad_input(self, tmp_path, capsys, command, doc, message):
        # Finite coordinates whose squared range to a landmark is not, at the
        # start or once the reference has travelled.
        out = tmp_path / "out"
        argv = [command, "--config", write_config(tmp_path, doc), "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, message",
        [
            ("simulate", "closed-loop state diverged at t=0.0005"),
            ("separation", "error-field linearization is not finite at t=0"),
            ("invariance", "error-field linearization is not finite at t=0"),
            ("ekf-compare", "error-field linearization is not finite at t=0"),
        ],
    )
    def test_huge_gain_is_a_named_divergence(self, tmp_path, capsys, command, message):
        # k1 = 1e300 is a valid gain, but the loop leaves float range inside
        # its first step (a stage heading of inf), and the error fields at
        # the first probe time have non-finite rates.
        config = write_config(tmp_path, {"gains": {"k1": 1e300}})
        argv = [command, "--config", config, "--out", str(tmp_path / "out"), "--t-end", "0.05"]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "command, doc, field",
        [
            (command, {"probe_times": [0.0, 0.0]}, "probe_times")
            for command in ("simulate", "eigs", "separation", "invariance", "ekf-compare")
        ]
        + [("mech-lemma", {"mech": {"probe_times": [1.0, 1.0]}}, "mech.probe_times")],
    )
    def test_repeated_probe_time_is_bad_input(self, tmp_path, capsys, command, doc, field):
        # Linearizations at one time only cannot drift: a named scenario
        # fault, not a traceback (ekf-compare) or a drift of 0 (the others).
        out = tmp_path / "out"
        argv = [command, "--config", write_config(tmp_path, doc), "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {field} must hold at least 2 distinct times\n"
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--dt", "--t-end"])
    def test_override_on_non_object_config(self, tmp_path, capsys, flag):
        cfg = write_config(tmp_path, [1, 2])
        out = tmp_path / "out"
        assert main(["eigs", "--config", cfg, "--out", str(out), flag, "0.01"]) == 2
        assert capsys.readouterr().err == "error: scenario document must be a JSON object\n"
        assert not out.exists()


HELP_TOP = """\
usage: invtrack [-h]
                {simulate,eigs,separation,invariance,ekf-compare,mech-lemma}
                ...

Invariant tracking and estimation analyses for a wheeled robot.

positional arguments:
  {simulate,eigs,separation,invariance,ekf-compare,mech-lemma}
    simulate            run the closed loop and write the time series plus a
                        verdict
    eigs                design spectra and stability margins at the reference
                        input
    separation          check the closed-loop linearization splits into the
                        two designs
    invariance          check the error linearizations are frozen along the
                        reference
    ekf-compare         contrast the invariant observer with an EKF on the
                        same run
    mech-lemma          rigid-body probes: which force models keep the error
                        field frozen

options:
  -h, --help            show this help message and exit
"""

HELP_OPTIONS = """
options:
  -h, --help       show this help message and exit
  --config CONFIG  JSON scenario file (defaults apply when omitted)
  --out OUT        output directory
  --dt DT          override the scenario step size
  --t-end T_END    override the scenario horizon
  --tol TOL        override the verdict tolerance
"""


def command_help(name):
    pad = " " * len(f"usage: invtrack {name} ")
    return (
        f"usage: invtrack {name} [-h] [--config CONFIG] --out OUT [--dt DT]\n"
        f"{pad}[--t-end T_END] [--tol TOL]\n" + HELP_OPTIONS
    )


def test_parser_is_built_once_per_process(tmp_path, capsys, monkeypatch):
    # The argparse tree is built on the first call and reused; --help, at a
    # fixed width, prints what the per-call tree printed.
    monkeypatch.setenv("COLUMNS", "80")
    cli._build_parser.cache_clear()
    assert main(["eigs", "--out", str(tmp_path / "a")]) == 0
    assert main(["separation", "--out", str(tmp_path / "b"), "--t-end", "1"]) == 0
    assert cli._build_parser.cache_info().misses == 1
    capsys.readouterr()
    helps = [([], HELP_TOP)] + [([name], command_help(name)) for name in cli._COMMANDS]
    for argv, want in helps:
        with pytest.raises(SystemExit) as info:
            main(argv + ["--help"])
        assert info.value.code == 0
        assert capsys.readouterr().out == want
    assert cli._build_parser.cache_info().misses == 1


class TestDeterminism:
    def test_simulate_is_byte_identical(self, tmp_path):
        args = ["simulate", "--t-end", "2.0"]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
        assert (
            out1 / "timeseries.csv"
        ).read_bytes() == (out2 / "timeseries.csv").read_bytes()

    def test_eigs_is_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["eigs", "--out", str(out1)])
        main(["eigs", "--out", str(out2)])
        assert (out1 / "eigs.json").read_bytes() == (out2 / "eigs.json").read_bytes()

    def test_nested_out_dir_is_created(self, tmp_path):
        out = tmp_path / "deep" / "er" / "out"
        assert main(["eigs", "--out", str(out)]) == 0
        assert (out / "eigs.json").exists()
