"""Tests of the benchmark itself (not of satpmsm).

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench.gen import COEF_KEYS, Generator, parse_cfg
from perfbench.tracing import Span, busy_time, self_times, union_length
from perfbench.workloads import grid_points, planned_runs

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "perfbench" / "run.py"


def span(name, start, end, parent=-1):
    return Span(name, "layer", start, end, parent, 0, "")


def test_union_length_merges_overlaps():
    assert union_length([(0.0, 1.0), (0.5, 2.0), (3.0, 4.0)]) == pytest.approx(3.0)
    assert union_length([]) == 0.0


def test_self_time_subtracts_child_coverage():
    spans = [
        span("root", 0.0, 10.0),
        span("a", 1.0, 4.0, parent=0),
        span("a.inner", 2.0, 3.0, parent=1),
        span("b", 3.5, 6.0, parent=0),  # overlaps its sibling: covered once
    ]
    assert self_times(spans) == pytest.approx([10.0 - 5.0, 3.0 - 1.0, 1.0, 2.5])
    assert busy_time(spans, lambda s: s.name.startswith("a")) == pytest.approx(3.0)


def test_grid_counts_match_the_fixture_plans():
    ipm = parse_cfg((ROOT / "configs" / "ipm.cfg").read_text())
    spm = parse_cfg((ROOT / "configs" / "spm.cfg").read_text())
    assert planned_runs(ipm) == 44
    assert planned_runs(spm) == 98
    assert grid_points(2.0, 0.25) == 16


def fixture_digests():
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted((ROOT / "configs").iterdir())}


def test_generator_is_deterministic_and_leaves_fixtures_alone(tmp_path):
    before = fixture_digests()
    a = Generator(ROOT, "identify", 7)
    b = Generator(ROOT, "identify", 7)
    for fixture in ("ipm", "spm"):
        for index in range(3):
            truth = a.write(fixture, index, tmp_path / "a" / f"{fixture}{index}.cfg")
            assert truth == b.write(fixture, index, tmp_path / "b" / f"{fixture}{index}.cfg")
            assert (tmp_path / "a" / f"{fixture}{index}.cfg").read_bytes() == \
                (tmp_path / "b" / f"{fixture}{index}.cfg").read_bytes()
            assert a.op_seed(fixture, index) == b.op_seed(fixture, index)
    assert fixture_digests() == before

    text, truth = a.config("ipm", 0)
    shipped = parse_cfg((ROOT / "configs" / "ipm.cfg").read_text())["motor"]
    for key in COEF_KEYS:
        assert 0.95 <= truth[key] / float(shipped[key]) <= 1.05
    assert parse_cfg(text)["sim"]["noise_mA"] == "10"
    assert a.config("ipm", 0) != a.config("ipm", 1)
    assert a.config("ipm", 0) != Generator(ROOT, "identify", 8).config("ipm", 0)


@pytest.mark.parametrize("workload", ["identify", "dataset", "validate"])
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_on_tiny_configs(workload, trace):
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "1", "--seconds", "0",
         "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
    assert set(result["metrics"]) == names


def test_refuses_to_run_without_the_program(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for p in (ROOT / "perfbench").glob("*.py"):
        (bench / p.name).write_bytes(p.read_bytes())
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "identify", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
