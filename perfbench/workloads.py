"""The three workloads, their output checks and their metrics.

Every operation is one in-process call of `satpmsm.cli.main(argv)` on a
generated config, timed until it returns whatever its exit code. A workload
is a closed loop with one client that repeats a fixed cycle of operations.
A run holds a whole number of cycles (at least one) fixed by its length and
the workload's nominal cycle time, so a seed and a length always mean the
same operations, the same IPM/SPM mix and the same counts.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

from .gen import PARAM_KEYS, Generator, parse_cfg

LD_LQ_TOL = 0.02


@dataclass
class Op:
    kind: str  # command and fixture, e.g. "estimate_ipm"
    cycle: int
    seconds: float
    code: int
    stderr: str = ""
    problems: list[str] = field(default_factory=list)  # failed output checks
    err: float | None = None  # accuracy against the generated truth

    @property
    def failed(self) -> bool:
        return self.code != 0 or bool(self.problems)


def grid_points(max_a: float, step_a: float) -> int:
    """Points of the program's zero-symmetric +-step ... +-max grid."""
    k = math.floor(max_a / step_a + 1e-9)
    return 2 * (k + (1 if max_a - k * step_a > 1e-9 * max_a else 0))


def planned_runs(cfg: dict) -> int:
    plan = cfg["plan"]
    n_id = grid_points(float(plan["id_max_A"]), float(plan["id_step_A"]))
    n_iq = grid_points(float(plan["iq_max_A"]), float(plan["iq_step_A"]))
    return 2 + n_id + 2 * n_iq


def read_rows(path: Path) -> list[list[float]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return [[float(v) for v in row] for row in rows[1:]]


def check_report(path: Path, truth: dict[str, float], op: Op) -> None:
    """All seven parameters finite, Ld and Lq within 2 % of the truth; the
    accuracy figure is the largest relative error of the seven."""
    params, section = {}, None
    for raw in path.read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if line.startswith("["):
            section = line.strip("[]")
        elif "=" in line and section == "parameters":
            key, value = (part.strip() for part in line.split("=", 1))
            params[key] = float(value)
    missing = [k for k in PARAM_KEYS if not math.isfinite(params.get(k, math.nan))]
    if missing:
        op.problems.append(f"report lacks finite {', '.join(missing)}")
        return
    rel = {k: abs(params[k] / truth[k] - 1.0) for k in PARAM_KEYS}
    for k in ("Ld_mH", "Lq_mH"):
        if rel[k] > LD_LQ_TOL:
            op.problems.append(f"{k} off by {rel[k]:.3%}")
    op.err = max(rel.values())


def check_manifest(out: Path, cfg: dict, op: Op) -> None:
    """One [run] block per planned run, each naming a trace that exists."""
    traces = [line.split("=", 1)[1].strip() for line in (out / "manifest.txt").read_text().splitlines()
              if line.strip().startswith("trace")]
    if len(traces) != planned_runs(cfg):
        op.problems.append(f"manifest lists {len(traces)} traces, plan has {planned_runs(cfg)}")
    if not all((out / t).is_file() for t in traces):
        op.problems.append("manifest names a missing trace")


def check_validate(out: Path, cfg: dict, op: Op) -> None:
    """Angle-sweep rows match the magnitude grid; each step response reaches
    its end time and has a flux-integration file of the same length. The
    accuracy figure is the sweep's largest model/simulation ripple misfit."""
    val, motor = cfg["validate"], cfg["motor"]
    sweeps = list(out.glob("angle_sweep_*.csv"))
    steps = sorted(out.glob("step_response_*.csv"))
    fluxes = sorted(out.glob("flux_integration_*.csv"))
    if len(sweeps) != 1 or not steps or len(steps) != len(fluxes):
        op.problems.append(f"validate wrote {len(sweeps)} sweep, {len(steps)} step, {len(fluxes)} flux CSVs")
        return
    sweep = read_rows(sweeps[0])
    n_mag = grid_points(float(val["mag_max_A"]), float(val["mag_step_A"])) // 2
    if len(sweep) != n_mag:
        op.problems.append(f"angle sweep has {len(sweep)} rows, grid has {n_mag}")
    t_end = float(val.get("step_t_end_s", 12.0 * float(motor["Ld_mH"]) * 1e-3 / float(motor["R_ohm"])))
    for step, flux in zip(steps, fluxes):
        rows = read_rows(step)
        if len(rows) < 2 or rows[0][0] != 0.0 or abs(rows[-1][0] / t_end - 1.0) > 0.01:
            op.problems.append(f"{step.name} does not span [0, {t_end:.4g}] s")
        if len(read_rows(flux)) != len(rows):
            op.problems.append(f"{flux.name} rows differ from {step.name}")
    if sweep:
        op.err = max(abs(model / measured - 1.0) for _, model, measured in sweep)


def check_curves(out: Path, cfg: dict, op: Op) -> None:
    """Both curve files: one row per grid point, one column per level."""
    plan = cfg["plan"]
    n_grid = grid_points(float(plan["id_max_A"]), float(plan["id_max_A"]) / 8)
    for name in ("magnetization_phid.csv", "magnetization_phiq.csv"):
        rows = read_rows(out / name)
        if len(rows) != n_grid or any(len(r) != 4 for r in rows):
            op.problems.append(f"{name} is not {n_grid} rows of 4 columns")


class Runner:
    """Runs operations in-process against generated configs."""

    def __init__(self, cli, gen: Generator, work: Path, tracer=None):
        self.cli = cli  # the satpmsm.cli module; main is looked up per call, so a traced run sees it wrapped
        self.gen = gen
        self.work = work
        self.tracer = tracer  # tags spans with the index of the running op
        self.cycle = 0
        self.ops: list[Op] = []

    def prepare(self, fixture: str, index: int):
        """Write config `index` of `fixture`; return its path, parsed
        sections, truth, noise seed and a fresh output directory."""
        cfg_path = self.work / "configs" / f"{fixture}_{index:04d}.cfg"
        truth = self.gen.write(fixture, index, cfg_path)
        out = self.work / "out" / f"{fixture}_{index:04d}"
        shutil.rmtree(out, ignore_errors=True)
        return cfg_path, parse_cfg(cfg_path.read_text()), truth, self.gen.op_seed(fixture, index), out

    def call(self, argv) -> tuple[int, float, str]:
        """Exit code, wall seconds and last stderr line of one CLI call."""
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            start = time.perf_counter()
            try:
                code = self.cli.main([str(a) for a in argv])
            except Exception as exc:  # a crash is a failed operation, not a stopped run
                code, stderr = 3, io.StringIO(f"uncaught {type(exc).__name__}: {exc}")
            seconds = time.perf_counter() - start
        lines = [ln for ln in stderr.getvalue().splitlines() if ln.strip()]
        return code, seconds, lines[-1] if lines else ""

    def run(self, kind: str, argv) -> Op:
        if self.tracer is not None:
            self.tracer.op = len(self.ops)
        code, seconds, err_line = self.call(argv)
        op = Op(kind, self.cycle, seconds, code, err_line)
        self.ops.append(op)
        return op


def identify_cycle(r: Runner, k: int) -> None:
    for fixture in ("ipm", "spm"):
        cfg_path, cfg, truth, seed, out = r.prepare(fixture, k)
        op = r.run(f"estimate_{fixture}", ["estimate", "--config", cfg_path, "--out", out, "--seed", seed])
        if op.code == 0:
            check_report(out / "report.txt", truth, op)
        shutil.rmtree(out, ignore_errors=True)


def dataset_cycle(r: Runner, k: int) -> None:
    cfg_path, cfg, truth, seed, out = r.prepare("ipm", k)
    op = r.run("simulate_ipm", ["simulate", "--config", cfg_path, "--out", out, "--seed", seed])
    if op.code == 0:
        check_manifest(out, cfg, op)
    op = r.run("ingest_ipm", ["estimate", "--config", cfg_path, "--out", out,
                              "--ingest", out / "manifest.txt", "--seed", seed])
    if op.code == 0:
        check_report(out / "report.txt", truth, op)
    shutil.rmtree(out, ignore_errors=True)


def validate_cycle(r: Runner, k: int) -> None:
    for fixture in ("ipm", "spm"):
        cfg_path, cfg, truth, seed, out = r.prepare(fixture, k)
        op = r.run(f"validate_{fixture}", ["validate", "--config", cfg_path, "--out", out])
        if op.code == 0:
            check_validate(out, cfg, op)
        op = r.run(f"curves_{fixture}", ["curves", "--config", cfg_path, "--out", out])
        if op.code == 0:
            check_curves(out, cfg, op)
        shutil.rmtree(out, ignore_errors=True)


@dataclass(frozen=True)
class Workload:
    cycle: object
    ipm_err: str  # op kind whose accuracy figure is reported as ipm_err
    nominal_cycle_s: float  # one cycle's wall time on a 2-core 2.1 GHz Xeon

    def cycles(self, seconds: float) -> int:
        return max(1, math.ceil(seconds / self.nominal_cycle_s))


WORKLOADS = {
    "identify": Workload(identify_cycle, "estimate_ipm", 7.0),
    "dataset": Workload(dataset_cycle, "ingest_ipm", 7.9),
    "validate": Workload(validate_cycle, "validate_ipm", 21.8),
}


def run_cycles(r: Runner, workload: Workload, cycles: int) -> None:
    """Closed loop with one client: each operation starts when the previous
    one has returned."""
    for k in range(cycles):
        r.cycle = k
        workload.cycle(r, k)


def check_ingest_determinism(r: Runner) -> str:
    """Simulate, ingest and estimate in memory on one config and seed; the
    two reports must be byte-identical. Returns a problem or ''."""
    cfg_path, _, _, seed, out = r.prepare("ipm", 0)
    mem = out.with_name(out.name + "_mem")
    shutil.rmtree(mem, ignore_errors=True)
    codes = [
        r.call(["simulate", "--config", cfg_path, "--out", out, "--seed", seed])[0],
        r.call(["estimate", "--config", cfg_path, "--out", out, "--ingest", out / "manifest.txt",
                "--seed", seed])[0],
        r.call(["estimate", "--config", cfg_path, "--out", mem, "--seed", seed])[0],
    ]
    try:
        if codes != [0, 0, 0]:
            return f"determinism check exit codes {codes}"
        if (out / "report.txt").read_bytes() != (mem / "report.txt").read_bytes():
            return "ingest report differs from in-memory report"
        return ""
    finally:
        shutil.rmtree(out, ignore_errors=True)
        shutil.rmtree(mem, ignore_errors=True)


def cycle_seconds(ops: list[Op]) -> dict[int, float]:
    """Per cycle index: the summed latency of its operations."""
    totals: dict[int, float] = {}
    for op in ops:
        totals[op.cycle] = totals.get(op.cycle, 0.0) + op.seconds
    return totals


def summarize(ops: list[Op]) -> dict[str, dict]:
    """Per op kind: latency median/min/max, sample count, failures, accuracy."""
    out = {}
    for kind in dict.fromkeys(op.kind for op in ops):
        sel = [op for op in ops if op.kind == kind]
        secs = [op.seconds for op in sel]
        errs = [op.err for op in sel if op.err is not None]
        out[kind] = {
            "n": len(sel), "failed": sum(op.failed for op in sel),
            "median_s": statistics.median(secs), "min_s": min(secs), "max_s": max(secs),
            "err_median": statistics.median(errs) if errs else None,
            "failures": sorted({f"exit {op.code}: {op.stderr}" for op in sel if op.code != 0}),
            "problems": sorted({p for op in sel for p in op.problems}),
        }
    return out
