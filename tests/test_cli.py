import json

import numpy as np
import pytest

from invtrack import cli
from invtrack.cli import main
from invtrack.closed_loop import _input_grid
from invtrack.ekf import run_along_reference, time_variance_probe
from invtrack.errors import ScenarioError
from invtrack.reporting import CSV_COLUMNS
from invtrack.scenario import parse_scenario
from invtrack.trajectories import permanence_probe
from oracles import assert_close, bits, ekf_oracle_run
from test_output_digests import output_digests

VERDICT_KEYS = ("command", "pass", "metrics", "tolerances", "scenario_digest")


def fault_cases():
    """(command, document, error line) of every fault in tools/output_digests.py."""
    for name, commands, doc in output_digests.HAND_SCENES:
        lines = output_digests.FAULTS.get(name, {})
        for command in commands:
            line = lines if isinstance(lines, str) else lines.get(command)
            if line is not None:
                yield pytest.param(command, doc, line, id=f"{name}/{command}")


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

    @pytest.mark.parametrize("trajectory", [
        {"v_wobble": {"amplitude": 0.3, "angular_rate": 1.5}},
        {"segments": [{"u": 1.0, "v": 0.5, "duration": 10.0}, {"u": 2.0, "v": -0.5, "duration": 5.0}]},
        {},
    ])
    def test_invariance_samples_the_input_grid_once(self, tmp_path, monkeypatch, trajectory):
        # The scenario's u_r = 0 check samples the 257 grid inputs that the
        # input variation then reads: no second pass over the grid.  A
        # permanent reference's constant input is sampled at t = 0 alone.
        doc = {"trajectory": trajectory}
        sc = parse_scenario(doc).scenario
        kind = type(sc.trajectory)
        grid = _input_grid(sc.t_end)
        want = permanence_probe([sc.trajectory.input(t) for t in grid])
        if not trajectory:
            grid = [0.0]
        calls = []
        original = kind.input

        def counting(self, t):
            calls.append(t)
            return original(self, t)

        monkeypatch.setattr(kind, "input", counting)
        out = tmp_path / "out"
        assert main(["invariance", "--config", write_config(tmp_path, doc), "--out", str(out)]) in (0, 1)
        assert calls == grid
        got = read_report(out)["metrics"]["input_variation"]
        assert (got > 0.0) == bool(trajectory) and bits([got]) == bits([want])

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
        noise = parsed.canonical["ekf"]
        q = noise["process_noise"]
        r = noise["measurement_noise"]
        p0 = noise["initial_covariance"]
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

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command, doc, message", fault_cases())
    def test_documented_fault(self, tmp_path, capsys, command, doc, message):
        # Exit 2 with the scene's one error line and no warning; nothing
        # written: no --out when the document does not parse, an empty one
        # when the run fails.
        out = tmp_path / "out"
        argv = [command, "--config", write_config(tmp_path, doc), "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        try:
            parse_scenario(doc)
        except ScenarioError:
            assert not out.exists()
        else:
            assert list(out.iterdir()) == []

    def test_every_fault_scene_has_one_error_line(self):
        commands = {name: set(cmds) for name, cmds, _ in output_digests.HAND_SCENES}
        assert set(output_digests.FAULTS) == {n for n in commands if n.startswith("fault-")}
        for name, message in output_digests.FAULTS.items():
            assert isinstance(message, str) or set(message) <= commands[name]

    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "-1e-9"])
    def test_tol_must_be_finite_and_non_negative(self, tmp_path, capsys, tol):
        out = tmp_path / "out"
        assert main(["eigs", "--out", str(out), f"--tol={tol}"]) == 2
        err = capsys.readouterr().err
        assert err == f"error: --tol must be finite and >= 0, got {float(tol)}\n"
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

    # The short horizons the tests above run each command on.
    SHORT = {
        "simulate": ["--t-end", "2.0"],
        "eigs": [],
        "separation": [],
        "invariance": [],
        "ekf-compare": [],
        "mech-lemma": ["--t-end", "0.5", "--dt", "2e-3"],
    }

    @pytest.mark.parametrize("command", list(SHORT))
    def test_stale_outputs_are_rewritten(self, tmp_path, command, capsys):
        # Into an --out that holds 1 MB under every output name, a run writes
        # the bytes of a run into a fresh directory and leaves the rest alone.
        args = [command, *self.SHORT[command], "--out"]
        fresh, reused = tmp_path / "fresh", tmp_path / "reused"
        rc = main(args + [str(fresh)])
        printed = capsys.readouterr()
        stale = b"x" * (1 << 20)
        reused.mkdir()
        names = ("report.json", "eigs.json", "timeseries.csv")
        for name in names:
            (reused / name).write_bytes(stale)
        assert main(args + [str(reused)]) == rc
        assert capsys.readouterr() == printed
        written = {p.name for p in fresh.iterdir()}
        assert written and written <= set(names)
        for name in names:
            want = (fresh / name).read_bytes() if name in written else stale
            assert (reused / name).read_bytes() == want

    def test_nested_out_dir_is_created(self, tmp_path):
        out = tmp_path / "deep" / "er" / "out"
        assert main(["eigs", "--out", str(out)]) == 0
        assert (out / "eigs.json").exists()
