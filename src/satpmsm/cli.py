"""Command-line interface.

    satpmsm simulate --config ipm.cfg [--out DIR] [--seed N]
    satpmsm estimate --config ipm.cfg [--ingest manifest.txt] [--seed N]
    satpmsm validate --config ipm.cfg
    satpmsm curves   --config ipm.cfg

simulate writes one trace CSV per planned run plus a manifest; estimate runs
the identification either on ingested traces (--ingest, or a manifest left by
a previous simulate) or fully in memory; validate and curves emit plot-data
CSVs. simulate and estimate split the plan's runs over one process per
usable CPU, at most two, forked by multiprocessing where the platform can
fork, with the same bytes out as one process.
Exit codes: 0 success, 1 configuration or usage error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from .config import ProjectConfig, load_config, step_files
from .estimator import identify, plan_runs, run_identification, write_simulated
from .magnetics import NumericalFailure
from .simulator import Trace
from .textio import read_manifest, write_manifest, write_report
from .validation import angle_sweep, flux_by_integration, magnetization_curves, step_response

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2


def _run_name(idx: int, role: str, i_target: float) -> str:
    return f"{idx:03d}_{role}_{i_target:+.3f}A.csv"


def cmd_simulate(config: ProjectConfig, seed: int) -> int:
    runs = plan_runs(config.plan, config.motor.R)
    names = [f"traces/{_run_name(idx, run.role, run.i_target)}" for idx, run in enumerate(runs)]
    (config.out_dir / "traces").mkdir(parents=True, exist_ok=True)
    write_simulated(
        config.motor, runs, [config.out_dir / name for name in names],
        steps_per_period=config.steps_per_period,
        measure_periods=config.measure_periods,
        noise_amp=config.noise_amp, seed=seed)
    write_manifest(config.out_dir / "manifest.txt", runs, names)
    print(f"wrote {len(runs)} traces and manifest.txt to {config.out_dir}")
    return EXIT_OK


def cmd_estimate(config: ProjectConfig, seed: int, ingest: Path | None) -> int:
    if ingest is None and (config.out_dir / "manifest.txt").exists():
        ingest = config.out_dir / "manifest.txt"

    if ingest is not None:
        entries = read_manifest(ingest)
        paths = [path for _, path in entries]
        # each trace is read by its worker just before its checks
        result = identify([run for run, _ in entries], lambda lo, hi: map(Trace.from_csv, paths[lo:hi]),
                          config.motor, [str(path) for path in paths])
        source = f"ingested {len(entries)} traces from {ingest}"
    else:
        result = run_identification(
            config.motor, config.plan,
            steps_per_period=config.steps_per_period,
            measure_periods=config.measure_periods,
            noise_amp=config.noise_amp, seed=seed)
        source = f"simulated {len(plan_runs(config.plan, config.motor.R))} runs in memory"

    config.out_dir.mkdir(parents=True, exist_ok=True)
    report_path = config.out_dir / "report.txt"
    write_report(report_path, result)
    p = result.params
    print(f"# {source}")
    print(f"Ld  = {p.Ld * 1e3:10.4f} mH   (1-sigma {result.sigma['Ld'] * 1e3:.4f})")
    print(f"Lq  = {p.Lq * 1e3:10.4f} mH   (1-sigma {result.sigma['Lq'] * 1e3:.4f})")
    for name in ("a30", "a12", "a40", "a22", "a04"):
        unit = "A/Wb^2" if name in ("a30", "a12") else "A/Wb^3"
        print(f"{name} = {getattr(p, name):10.4f} {unit} (1-sigma {result.sigma[name]:.4f})")
    print(f"report written to {report_path}")
    return EXIT_OK


def cmd_validate(config: ProjectConfig) -> int:
    config.out_dir.mkdir(parents=True, exist_ok=True)
    result = angle_sweep(config.motor, config.sweep, steps_per_period=config.steps_per_period)
    sweep_path = config.out_dir / f"angle_sweep_{config.sweep.angle_deg:g}deg.csv"
    result.write_csv(sweep_path)
    print(f"wrote {sweep_path}")

    for u_step, r in zip(config.step_volts, step_response(config.motor, config.step_volts, config.step_t_end)):
        step_path, flux_path = (config.out_dir / name for name in step_files(u_step))
        r.write_csv(step_path)
        flux_by_integration(r.saturated, config.motor).write_csv(flux_path)
        print(f"wrote {step_path}")
        print(f"wrote {flux_path}")
    return EXIT_OK


def cmd_curves(config: ProjectConfig) -> int:
    config.out_dir.mkdir(parents=True, exist_ok=True)
    curves = magnetization_curves(config.motor, config.curve_grid, config.curve_levels)
    path_d = config.out_dir / "magnetization_phid.csv"
    path_q = config.out_dir / "magnetization_phiq.csv"
    curves.write_csv(path_d, path_q)
    print(f"wrote {path_d}")
    print(f"wrote {path_q}")
    return EXIT_OK


def _seed(text: str) -> int:
    """The type of --seed: numpy seeds its generators with non-negative integers only."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


class _Parser(argparse.ArgumentParser):
    """argparse's parser, whose usage errors exit EXIT_CONFIG: its 2 is a numerical failure here."""
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="satpmsm",
        description="Saturated-PMSM injection simulator and magnetic-parameter estimator")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, needs_seed, needs_ingest in (
        ("simulate", True, False),
        ("estimate", True, True),
        ("validate", False, False),
        ("curves", False, False),
    ):
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True, help="project config file")
        sp.add_argument("--out", help="output directory (overrides [paths] out_dir)")
        if needs_seed:
            sp.add_argument("--seed", type=_seed, default=0, help="noise seed (a non-negative integer)")
        if needs_ingest:
            sp.add_argument("--ingest", help="run manifest of externally recorded traces")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config)
        if args.out:
            config = dataclasses.replace(config, out_dir=Path(args.out))
        if args.command == "simulate":
            return cmd_simulate(config, args.seed)
        if args.command == "estimate":
            ingest = Path(args.ingest) if getattr(args, "ingest", None) else None
            return cmd_estimate(config, args.seed, ingest)
        if args.command == "validate":
            return cmd_validate(config)
        return cmd_curves(config)
    except (OSError, ValueError) as exc:  # a refused input, a config's ConfigError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalFailure as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
