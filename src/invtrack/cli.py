"""Command-line front end.

Every command reads an optional JSON scenario file, runs one analysis, and
writes a verdict report (plus a time series for `simulate`) into --out.
Exit status: 0 when the verdict passes, 1 when it fails, 2 on bad input.
Output files are byte-deterministic for a given scenario.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import reporting
from .closed_loop import (
    Scenario,
    _input_grid,
    closed_loop_error_field,
    controller_error_field,
    observer_error_field,
    separation_matrix,
    simulate,
)
from .controller import ctrl_loop_matrix
from .ekf import time_variance_probe
from .errors import InvtrackError, ScenarioError
from .mech import (
    EpSystem,
    damping_force,
    error_linearization_drift,
    gravity_gradient_force,
    integrate_ep,
    orthonormality_defect,
)
from .numerics import (
    eigenvalues,
    linearize_error_field,
    spectrum_match_distance,
    time_invariance_probe,
)
from .observer import obs_error_matrix
from .scenario import ParsedScenario, parse_scenario
from .trajectories import permanence_probe

EKF_DRIFT_FLOOR = 0.1
DEPENDENT_DRIFT_FLOOR = 1e-2
ENERGY_DRIFT_CAP = 1e-8
LINEARIZATION_MATCH_CAP = 1e-4


@functools.cache  # built on the first call, then shared by every later one
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="invtrack",
        description="Invariant tracking and estimation analyses for a wheeled robot.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        p.add_argument("--config", help="JSON scenario file (defaults apply when omitted)")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--dt", type=float, help="override the scenario step size")
        p.add_argument("--t-end", type=float, help="override the scenario horizon")
        p.add_argument("--tol", type=float, help="override the verdict tolerance")
    return parser


def _load_scenario(args: argparse.Namespace, section: Optional[str]) -> ParsedScenario:
    """Read --config (the defaults when omitted), write --dt/--t-end into its
    `section` (None: the top level), and parse it."""
    doc: dict = {}
    if args.config is not None:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except OSError as err:
            raise ScenarioError(f"cannot read config {args.config}: {err}") from err
        except json.JSONDecodeError as err:
            raise ScenarioError(f"config {args.config} is not valid JSON: {err}") from err
    target = doc.setdefault(section, {}) if section and isinstance(doc, dict) else doc
    if isinstance(target, dict):  # parse_scenario names any other document's fault
        if args.dt is not None:
            target["dt"] = args.dt
        if args.t_end is not None:
            target["t_end"] = args.t_end
    return parse_scenario(doc)


def _spectrum_rows(spec) -> list:
    return [[z.real, z.imag] for z in spec.values]


def _cmd_simulate(parsed: ParsedScenario, tol: float, out_dir: Path) -> tuple[bool, dict, dict]:
    res = simulate(parsed.scenario)
    reporting.write_text(out_dir / "timeseries.csv", reporting.timeseries_csv(res))
    final_eta = float(np.linalg.norm(res.tracking_errors[-1]))
    final_eps = float(np.linalg.norm(res.estimation_errors[-1]))
    metrics = {
        "final_tracking_error": final_eta,
        "final_estimation_error": final_eps,
        "max_tracking_error": float(np.linalg.norm(res.tracking_errors, axis=1).max()),
        "max_estimation_error": float(np.linalg.norm(res.estimation_errors, axis=1).max()),
        "samples": len(res.times),
    }
    passed = final_eta <= tol and final_eps <= tol
    return passed, metrics, {"final_error": tol}


def _separation_spectra(sc: Scenario, t: float):
    """Controller, observer and closed-loop spectra at the reference input at t,
    and the distance of the closed-loop spectrum from the union of the other two."""
    inp = sc.trajectory.input(t)
    ctrl = eigenvalues(ctrl_loop_matrix(inp.u, inp.v, sc.controller_gains))
    obs = eigenvalues(obs_error_matrix(inp.u, inp.v, sc.observer_gains))
    combined = eigenvalues(
        separation_matrix(inp.u, inp.v, sc.controller_gains, sc.observer_gains)
    )
    return ctrl, obs, combined, spectrum_match_distance(combined, ctrl.union(obs))


def _cmd_eigs(parsed: ParsedScenario, tol: float, out_dir: Path) -> tuple[bool, dict, dict]:
    ctrl, obs, combined, union_mismatch = _separation_spectra(parsed.scenario, 0.0)
    metrics = {
        "controller_abscissa": ctrl.max_real(),
        "observer_abscissa": obs.max_real(),
        "closed_loop_abscissa": combined.max_real(),
        "union_mismatch": union_mismatch,
        "controller_spectrum": _spectrum_rows(ctrl),
        "observer_spectrum": _spectrum_rows(obs),
        "closed_loop_spectrum": _spectrum_rows(combined),
    }
    passed = (
        ctrl.max_real() < -tol
        and obs.max_real() < -tol
        and combined.max_real() < -tol
    )
    return passed, metrics, {"stability_margin": tol}


def _cmd_separation(parsed: ParsedScenario, tol: float, out_dir: Path) -> tuple[bool, dict, dict]:
    sc = parsed.scenario
    union_mismatch = _separation_spectra(sc, parsed.probe_times[0])[3]

    field = closed_loop_error_field(
        sc.trajectory, sc.landmarks, sc.controller_gains, sc.observer_gains
    )
    times = parsed.probe_times[:3]
    fd_mats = linearize_error_field(field, times)
    deviation = 0.0
    for t, mat in zip(times, fd_mats):
        inp = sc.trajectory.input(t)
        predicted = separation_matrix(
            inp.u, inp.v, sc.controller_gains, sc.observer_gains
        )
        deviation = max(deviation, float(np.linalg.norm(mat - predicted)))

    metrics = {
        "spectrum_union_mismatch": union_mismatch,
        "linearization_match": deviation,
    }
    tolerances = {"spectrum_union": tol, "linearization_match": LINEARIZATION_MATCH_CAP}
    passed = union_mismatch <= tol and deviation <= LINEARIZATION_MATCH_CAP
    return passed, metrics, tolerances


def _observer_and_loop_drift(sc: Scenario, times) -> tuple[float, float]:
    """Linearization drift of the observer and of the closed-loop error field."""
    obs_drift = time_invariance_probe(
        observer_error_field(sc.trajectory, sc.landmarks, sc.observer_gains), times
    )
    loop_drift = time_invariance_probe(
        closed_loop_error_field(
            sc.trajectory, sc.landmarks, sc.controller_gains, sc.observer_gains
        ),
        times,
    )
    return obs_drift, loop_drift


def _cmd_invariance(parsed: ParsedScenario, tol: float, out_dir: Path) -> tuple[bool, dict, dict]:
    sc = parsed.scenario
    times = parsed.probe_times
    ctrl_drift = time_invariance_probe(
        controller_error_field(sc.trajectory, sc.controller_gains), times
    )
    obs_drift, loop_drift = _observer_and_loop_drift(sc, times)
    input_variation = permanence_probe(
        [sc.trajectory.input(t) for t in _input_grid(sc.t_end)]
    )
    metrics = {
        "controller_drift": ctrl_drift,
        "observer_drift": obs_drift,
        "closed_loop_drift": loop_drift,
        "input_variation": input_variation,
    }
    passed = ctrl_drift <= tol and obs_drift <= tol and loop_drift <= tol
    return passed, metrics, {"linearization_drift": tol}


def _cmd_ekf_compare(parsed: ParsedScenario, tol: float, out_dir: Path) -> tuple[bool, dict, dict]:
    sc = parsed.scenario
    ekf_drift = time_variance_probe(
        sc.trajectory,
        sc.landmarks,
        parsed.probe_times,
        dt=sc.dt,
        q=parsed.ekf_process_noise,
        r=parsed.ekf_measurement_noise,
        p0=parsed.ekf_initial_covariance,
    )
    obs_drift, loop_drift = _observer_and_loop_drift(sc, parsed.probe_times)
    metrics = {
        "ekf_drift": ekf_drift,
        "observer_drift": obs_drift,
        "closed_loop_drift": loop_drift,
    }
    tolerances = {"ekf_drift_min": EKF_DRIFT_FLOOR, "invariant_drift_max": tol}
    passed = ekf_drift > EKF_DRIFT_FLOOR and obs_drift <= tol and loop_drift <= tol
    return passed, metrics, tolerances


def _cmd_mech_lemma(parsed: ParsedScenario, tol: float, out_dir: Path) -> tuple[bool, dict, dict]:
    cfg = parsed.mech
    inertia = np.diag(cfg.inertia)
    eye = np.eye(3)
    xi_r = np.asarray(cfg.reference_velocity)

    damped = EpSystem(eye, xi_r, inertia, damping_force(cfg.damping))
    velocity_drift = error_linearization_drift(damped, cfg.probe_times)

    tilted = EpSystem(
        eye, xi_r, inertia, gravity_gradient_force(cfg.force_strength, cfg.force_axis)
    )
    attitude_drift = error_linearization_drift(tilted, cfg.probe_times)

    free = EpSystem(eye, xi_r, inertia, None)
    times, attitudes, velocities = integrate_ep(free, cfg.t_end, cfg.dt)
    energies = 0.5 * np.einsum("ni,ij,nj->n", velocities, inertia, velocities)
    energy_drift = float(np.max(np.abs(energies - energies[0])) / energies[0])
    defect = orthonormality_defect(attitudes)

    metrics = {
        "velocity_force_drift": velocity_drift,
        "attitude_force_drift": attitude_drift,
        "energy_drift": energy_drift,
        "attitude_defect": defect,
    }
    tolerances = {
        "invariant_drift_max": tol,
        "dependent_drift_min": DEPENDENT_DRIFT_FLOOR,
        "energy_drift_max": ENERGY_DRIFT_CAP,
    }
    passed = (
        velocity_drift <= tol
        and attitude_drift >= DEPENDENT_DRIFT_FLOOR
        and energy_drift <= ENERGY_DRIFT_CAP
    )
    return passed, metrics, tolerances


class _Command(NamedTuple):
    """A command's help text, default verdict tolerance, handler, report file
    name, and the scenario section its --dt/--t-end set (None: the top level)."""

    help: str
    tol: float
    run: Callable[[ParsedScenario, float, Path], tuple[bool, dict, dict]]
    report: str = "report.json"
    section: Optional[str] = None


_COMMANDS = {
    "simulate": _Command("run the closed loop and write the time series plus a verdict",
                         1e-3, _cmd_simulate),
    "eigs": _Command("design spectra and stability margins at the reference input",
                     0.0, _cmd_eigs, report="eigs.json"),
    "separation": _Command("check the closed-loop linearization splits into the two designs",
                           1e-6, _cmd_separation),
    "invariance": _Command("check the error linearizations are frozen along the reference",
                           1e-6, _cmd_invariance),
    "ekf-compare": _Command("contrast the invariant observer with an EKF on the same run",
                            1e-6, _cmd_ekf_compare),
    "mech-lemma": _Command("rigid-body probes: which force models keep the error field frozen",
                           1e-6, _cmd_mech_lemma, section="mech"),
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        command = _COMMANDS[args.command]
        parsed = _load_scenario(args, command.section)
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        tol = command.tol if args.tol is None else args.tol
        passed, metrics, tolerances = command.run(parsed, tol, out_dir)
        report = reporting.verdict(
            args.command, passed, metrics, tolerances,
            reporting.scenario_digest(parsed.canonical),
        )
        reporting.write_text(out_dir / command.report, reporting.json_text(report))
    except InvtrackError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    status = "pass" if report["pass"] else "FAIL"
    print(f"{args.command}: {status}")
    return 0 if report["pass"] else 1


if __name__ == "__main__":
    sys.exit(main())
