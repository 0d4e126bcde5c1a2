"""satpmsm benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload identify|dataset|validate \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; satpmsm is imported from ./src and
the fixtures are read from ./configs. Scratch files go to ./.perfbench.
With --trace 0 the last stdout line carries the end-to-end metrics; with
--trace 1 the same loop runs with spans recorded at every layer boundary
and the last line carries the per-layer metrics. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

THREAD_CAPS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_CAPS:
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))
from perfbench import tracing  # noqa: E402
from perfbench import workloads as wl  # noqa: E402
from perfbench.gen import FIXTURES, Generator  # noqa: E402

SETUP_PROBES = 5


def import_program():
    """Import satpmsm from the checkout's src/ (never an installed copy)."""
    src = ROOT / "src"
    if not (src / "satpmsm" / "__init__.py").is_file() or not (ROOT / "configs").is_dir():
        raise SystemExit(f"error: no satpmsm sources under {src} or no configs/ next to them")
    sys.path.insert(0, str(src))
    modules = [importlib.import_module(f"satpmsm.{m}") for m in tracing.LAYERS]
    if Path(modules[0].__file__).resolve().parents[1] != src:
        raise SystemExit(f"error: satpmsm imported from {modules[0].__file__}, not {src}")
    return modules[0]


def setup_probe(args) -> None:
    """Child process body: import the program and generate the first cycle's
    configs; the parent times it from spawn to exit."""
    import_program()
    gen = Generator(ROOT, args.workload, args.seed, args.tiny)
    for fixture in FIXTURES:
        gen.write(fixture, 0, Path(args.work_dir) / f"{fixture}.cfg")


def time_setup(args, work: Path) -> list[float]:
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", "0", "--work-dir", str(work / "probe")]
    if args.tiny:
        argv.append("--tiny")
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        # no timeout: waiting with one polls in steps of up to 50 ms
        subprocess.run(argv, check=True, stdout=subprocess.DEVNULL)
        samples.append(time.perf_counter() - start)
    return samples


def machine_record(args, ops) -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)), "cpu_model": cpu,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "thread_caps": {v: os.environ.get(v) for v in THREAD_CAPS},
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "ops": {kind: sum(op.kind == kind for op in ops) for kind in dict.fromkeys(op.kind for op in ops)},
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sized configs")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--work-dir", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


END_TO_END_UNITS = {"setup_s": "s", "cycle_s": "s", "ok_frac": "ratio", "peak_rss_mb": "MB", "ipm_err": "ratio"}


def end_to_end(workload, ops, setup) -> dict[str, float]:
    """The gated metrics; perfbench/README.md says what each is on each
    workload. Raises ValueError when a metric has no sample."""
    errs = [op.err for op in ops if op.kind == workload.ipm_err and op.err is not None]
    if not errs:
        raise ValueError(f"no {workload.ipm_err} operation produced an accuracy figure")
    return {
        "setup_s": statistics.median(setup),
        "cycle_s": statistics.median(wl.cycle_seconds(ops).values()),
        "ok_frac": sum(not op.failed for op in ops) / len(ops),
        "peak_rss_mb": peak_rss_mb(),
        "ipm_err": statistics.median(errs),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def report_lines(args, kinds, ops, setup, problems) -> list[str]:
    """Human-readable metrics under their per-command names, with units and
    sample counts."""
    failed = sum(op.failed for op in ops)
    cycles = list(wl.cycle_seconds(ops).values())
    lines = [f"# {args.workload} seed={args.seed} trace={args.trace}: {len(ops)} ops, {failed} failed",
             f"setup_s            {statistics.median(setup):10.4f} s      (median of {len(setup)})",
             f"cycle_s            {statistics.median(cycles):10.4f} s      (median of {len(cycles)})"]
    for kind, s in kinds.items():
        lines.append(f"{kind + '_s':<18} {s['median_s']:10.4f} s      (median of {s['n']}, "
                     f"min {s['min_s']:.4f}, max {s['max_s']:.4f}, failed {s['failed']})")
        if s["err_median"] is not None:
            name = ("sweep_err_" if kind.startswith("validate") else "coef_err_") + kind.split("_")[1]
            lines.append(f"{name:<18} {s['err_median']:10.4f} ratio  (median of {s['n'] - s['failed']})")
        lines += [f"    {kind}: {f}" for f in s["failures"]]
    lines.append(f"failed_frac        {failed / len(ops):10.4f} failed/attempted ({failed}/{len(ops)})")
    lines.append(f"peak_rss_mb        {peak_rss_mb():10.1f} MB")
    lines += [f"PROBLEM: {p}" for p in problems]
    return lines


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        setup_probe(args)
        return 0
    if args.workload not in wl.WORKLOADS:
        print(f"error: unknown workload {args.workload!r} (one of {', '.join(wl.WORKLOADS)})", file=sys.stderr)
        return 1
    cli = import_program()
    workload = wl.WORKLOADS[args.workload]
    scratch = ROOT / ".perfbench"
    work = scratch / "work" / f"{args.workload}_{args.seed}_{os.getpid()}"
    results = scratch / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = results / f"{args.workload}_seed{args.seed}_trace{args.trace}"
    try:
        setup = time_setup(args, work)
        gen = Generator(ROOT, args.workload, args.seed, args.tiny)
        determinism = wl.Runner(cli, Generator(ROOT, args.workload, args.seed, tiny=True), work / "determinism")
        problems = [p for p in [wl.check_ingest_determinism(determinism)] if p]
        cycles = workload.cycles(args.seconds)
        if args.trace:
            # the first and last cycles also run untraced, one before and one
            # after the traced loop, so a drift in machine speed cancels
            # to first order in the tracing overhead
            reference = wl.Runner(cli, gen, work / "reference")
            workload.cycle(reference, 0)
            tracer = tracing.Tracer()
            runner = wl.Runner(cli, gen, work / "loop", tracer)
            tracer.install()
            try:
                wl.run_cycles(runner, workload, cycles)
            finally:
                tracer.uninstall()
            workload.cycle(reference, cycles - 1)
            traced = wl.cycle_seconds(runner.ops)
            overhead = (traced[0] + traced[cycles - 1]) / sum(op.seconds for op in reference.ops) - 1.0
            tracer.write(stem.with_name(stem.name + "_spans.csv"))
            metrics = tracing.layer_metrics(tracer.finished(), tracer.counts,
                                            sum(op.seconds for op in runner.ops), overhead)
        else:
            runner = wl.Runner(cli, gen, work / "loop")
            wl.run_cycles(runner, workload, cycles)
            metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in end_to_end(workload, runner.ops, setup).items()}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ops = runner.ops
    kinds = wl.summarize(ops)
    problems += [f"{kind}: {p}" for kind, s in kinds.items() for p in s["problems"]]
    print("\n".join(report_lines(args, kinds, ops, setup, problems)))
    if args.trace:
        print("\n".join(f"{name:<30} {value:14.6g} {unit}" for name, (value, unit) in metrics.items()))
    machine = machine_record(args, ops)
    print("# machine: " + json.dumps(machine))
    result = {
        "correct": not problems,
        "attempted": len(ops),
        "failed": sum(op.failed for op in ops),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    with open(stem.with_suffix(".json"), "w") as fh:
        json.dump({"result": result, "machine": machine, "setup_s": setup, "ops_by_kind": kinds,
                   "ops": [vars(op) for op in ops]}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
