import dataclasses
import itertools
import math
import os
import re
import shutil
from pathlib import Path

import numpy as np
import pytest

from satpmsm import estimator
from satpmsm.cli import main
from satpmsm.config import load_config, symmetric_grid
from satpmsm.estimator import identify, plan_runs, run_identification
from satpmsm.ripple import TooShort, Unresolved
from satpmsm.simulator import Trace
from satpmsm.textio import ConfigError, read_manifest

import oracles

IPM_CFG = """\
# interior-magnet motor, desk-scale sweep
[motor]
R_ohm = 12.15
Ld_mH = 91.9
Lq_mH = 45.8
pole_pairs = 6
a30_AperWb2 = 7.70
a12_AperWb2 = 5.35
a40_AperWb3 = 19.42
a22_AperWb3 = 22.18
a04_AperWb3 = 6.62

[plan]
omega_Hz = 500
waveform = square
u_tilde_V = 30
id_grid_A = -1.0, -0.5, 0.5, 1.0
iq_grid_A = -1.0, -0.5, 0.5, 1.0

[sim]
steps_per_period = 200
measure_periods = 12
noise_mA = 0

[paths]
out_dir = out
"""


@pytest.fixture
def cfg_path(tmp_path):
    path = tmp_path / "ipm.cfg"
    path.write_text(IPM_CFG)
    return path


class TestConfig:
    def test_symmetric_grid(self):
        grid = symmetric_grid(2.0, 0.3)
        assert grid[0] == -2.0 and grid[-1] == 2.0
        assert len(grid) == 14
        assert all(-v in grid for v in grid)
        assert symmetric_grid(8.0, 0.5) == tuple(np.concatenate(
            [np.arange(-8, 0, 0.5), np.arange(0.5, 8.5, 0.5)]))

    def test_load(self, cfg_path):
        cfg = load_config(cfg_path)
        assert cfg.motor.Ld == pytest.approx(91.9e-3)
        assert cfg.motor.R == 12.15
        assert cfg.plan.omega == pytest.approx(2 * math.pi * 500)
        assert cfg.plan.u_tilde == 30.0
        assert len(cfg.plan.id_grid) == 4
        assert cfg.noise_amp == 0.0
        assert cfg.out_dir == cfg_path.parent / "out"

    def test_byte_order_mark_ignored(self, tmp_path):
        # a config saved as "UTF-8 with BOM" loads as the same config
        text = (Path(__file__).resolve().parents[1] / "configs" / "ipm.cfg").read_text()
        (tmp_path / "plain.cfg").write_text(text, encoding="utf-8")
        (tmp_path / "bom.cfg").write_text("\ufeff" + text, encoding="utf-8")
        assert load_config(tmp_path / "bom.cfg") == load_config(tmp_path / "plain.cfg")

    def test_grid_from_max_and_step(self, tmp_path):
        text = IPM_CFG.replace("id_grid_A = -1.0, -0.5, 0.5, 1.0", "id_max_A = 2.0\nid_step_A = 0.3")
        path = tmp_path / "g.cfg"
        path.write_text(text)
        cfg = load_config(path)
        assert len(cfg.plan.id_grid) == 14

    def test_missing_section(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[motor]\nR_ohm = 1\nLd_mH = 10\nLq_mH = 10\n")
        with pytest.raises(ConfigError, match="plan"):
            load_config(path)

    def test_duplicate_section(self, tmp_path, capsys):
        path = tmp_path / "twice.cfg"
        path.write_text(IPM_CFG + "\n[motor]\nR_ohm = 1\n")
        with pytest.raises(ConfigError, match=re.escape(f"{path}: duplicate section [motor]")):
            load_config(path)
        assert main(["validate", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == f"error: {path}: duplicate section [motor]\n"

    def test_bad_value_diagnostics(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text(IPM_CFG.replace("R_ohm = 12.15", "R_ohm = twelve"))
        with pytest.raises(ConfigError, match="R_ohm"):
            load_config(path)
        # integer fields refuse fractions rather than truncating them
        for old, new, field in (("pole_pairs = 6", "pole_pairs = 2.5", "pole_pairs"),
                                ("steps_per_period = 200", "steps_per_period = 200.9",
                                 "steps_per_period"),
                                ("measure_periods = 12", "measure_periods = 12.5",
                                 "measure_periods")):
            path.write_text(IPM_CFG.replace(old, new))
            with pytest.raises(ConfigError, match=f"{field}.*integer"):
                load_config(path)
        # values the model or the plan rejects name the file and section too
        (tmp_path / "wave.txt").write_text("1.0\nabc\n-1.0\n")
        for old, new, where, message in (
                ("omega_Hz = 500", "omega_Hz = -500", "plan", "omega must be positive"),
                ("Ld_mH = 91.9", "Ld_mH = 0", "motor", "Ld must be positive"),
                ("id_grid_A = -1.0, -0.5, 0.5, 1.0", "id_max_A = -2.0\nid_step_A = 0.3",
                 "plan", "limit and step must be positive"),
                ("u_tilde_V = 30", "u_tilde_V = 0", "plan", "u_tilde must be positive"),
                ("waveform = square", "waveform = file:wave.txt", "plan",
                 "wave.txt: could not convert string to float: 'abc'"),
                ("[paths]", "[validate]\ninject_axis = x\n\n[paths]", "validate",
                 "inject_axis must be 'd' or 'q'"),
                ("[paths]", "[curves]\nlevels_A = 0.0, nan\n\n[paths]", "curves",
                 "levels_A must be a comma-separated list of finite numbers"),
                ("[paths]", "[validate]\nstep_t_end_s = -0.5\n\n[paths]", "validate",
                 "step_t_end_s must be positive"),
                ("noise_mA = 0", "noise_mA = -1", "sim", "noise_mA must be >= 0"),
                ("steps_per_period = 200", "steps_per_period = 51", "sim", "steps_per_period must be even and >= 50"),
                ("steps_per_period = 200", "steps_per_period = 48", "sim", "steps_per_period must be even and >= 50"),
                ("measure_periods = 12", "measure_periods = 1", "sim", "measure_periods must be >= 2"),
                ("R_ohm = 12.15\n", "", "motor", "missing field 'R_ohm'"),
                ("R_ohm = 12.15", "R_ohm = inf", "motor", "field 'R_ohm' must be finite"),
                ("[paths]", "[curves]\nlevels_A = a, b\n\n[paths]", "curves",
                 "levels_A must be a comma-separated list of finite numbers")):
            path.write_text(IPM_CFG.replace(old, new))
            with pytest.raises(ConfigError, match=re.escape(f"{path} [{where}]: ") + ".*"
                               + re.escape(message)):
                load_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.cfg")

    def test_discard_key_refused(self, tmp_path, capsys):
        # runs are measured from rest with no transient discard: a config
        # that still sets one fails at load, naming the key, rather than
        # being run as if it were honoured
        path = tmp_path / "old.cfg"
        path.write_text(IPM_CFG.replace("noise_mA = 0", "noise_mA = 0\ndiscard_s = 0.06"))
        with pytest.raises(ConfigError, match=re.escape(f"{path} [sim]: discard_s")):
            load_config(path)
        assert main(["estimate", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
        assert "discard_s" in capsys.readouterr().err

    def test_negative_magnitude_refused(self, tmp_path, capsys):
        # an explicit mag_grid_A with a negative entry exits 1 at load,
        # naming the section and the first such value, whether or not the
        # list has other entries; a mag_max_A/mag_step_A grid is symmetric
        # and keeps its non-negative half
        path = tmp_path / "neg.cfg"
        for grid, value in (("-1.0, 0.5, 1.5", "-1"), ("0.5, -0.25, -1.0", "-0.25")):
            path.write_text(IPM_CFG.replace("[paths]", f"[validate]\nmag_grid_A = {grid}\n\n[paths]"))
            assert main(["validate", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
            err = capsys.readouterr().err
            assert f"{path} [validate]: " in err and f"got {value}\n" in err
        path.write_text(IPM_CFG.replace("[paths]", "[validate]\nmag_max_A = 1.0\nmag_step_A = 0.5\n\n[paths]"))
        assert load_config(path).sweep.magnitudes == (0.5, 1.0)

    def test_unknown_key_or_section_refused(self, tmp_path, capsys):
        # a misspelt key or section fails at load, naming the file, the
        # section and the key, rather than leaving the default in force
        path = tmp_path / "typo.cfg"
        # no config key names a manifest ([paths] ingest): --ingest and the
        # manifest that simulate leaves in the output directory do
        for old, new, message in (("noise_mA = 0", "noise_ma = 10", f"{path} [sim]: noise_ma"),
                                  ("[sim]", "[simm]", f"{path}: unknown section [simm]"),
                                  ("out_dir = out", "out_dir = out\ningest = manifest.txt",
                                   f"{path} [paths]: ingest")):
            path.write_text(IPM_CFG.replace(old, new))
            with pytest.raises(ConfigError, match=re.escape(message)):
                load_config(path)
            assert main(["estimate", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
            assert message in capsys.readouterr().err

    def test_colliding_step_files_refused(self, tmp_path, capsys):
        # two step voltages whose files share a name exit 1 at load, naming
        # both values and the file, rather than the second overwriting the
        # first; the default pair, 0.25 R and R times the largest d bias,
        # gets the same check
        path = tmp_path / "steps.cfg"
        path.write_text(IPM_CFG.replace("[paths]", "[validate]\nstep_volts_V = 6.001, 6.004\n\n[paths]"))
        assert main(["validate", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
        assert (f"{path} [validate]: step_volts_V 6.001 and 6.004 both write step_response_+6.00V.csv"
                in capsys.readouterr().err)
        assert not (tmp_path / "o").exists()
        path.write_text(IPM_CFG.replace("R_ohm = 12.15", "R_ohm = 0.004"))
        with pytest.raises(ConfigError, match=re.escape("both write step_response_+0.00V.csv")):
            load_config(path)

    @pytest.mark.parametrize("noise_mA", ["0", "10"])
    def test_negative_seed_refused(self, cfg_path, tmp_path, capsys, noise_mA):
        # a seed numpy cannot take is refused while parsing, naming --seed,
        # whether or not noise is drawn
        cfg_path.write_text(IPM_CFG.replace("noise_mA = 0", f"noise_mA = {noise_mA}"))
        for command, seed in itertools.product(("simulate", "estimate"), ("-1", "abc")):
            with pytest.raises(SystemExit) as info:
                main([command, "--config", str(cfg_path), "--out", str(tmp_path / "o"), "--seed", seed])
            assert info.value.code == 1
            assert f"argument --seed: expected a non-negative integer, got '{seed}'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


class TestSimulateCommand:
    def test_writes_traces_and_manifest(self, cfg_path):
        assert main(["simulate", "--config", str(cfg_path)]) == 0
        out = cfg_path.parent / "out"
        entries = read_manifest(out / "manifest.txt")
        assert len(entries) == 2 + 4 + 2 * 4
        roles = [run.role for run, _ in entries]
        assert roles.count("d_sweep") == 4
        for run, trace_path in entries:
            assert trace_path.exists()

    def test_deterministic_reruns(self, cfg_path, tmp_path):
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["simulate", "--config", str(cfg_path), "--out", str(out1), "--seed", "3"]) == 0
        assert main(["simulate", "--config", str(cfg_path), "--out", str(out2), "--seed", "3"]) == 0
        for f1 in sorted((out1 / "traces").iterdir()):
            f2 = out2 / "traces" / f1.name
            assert f1.read_bytes() == f2.read_bytes(), f1.name

    def test_empty_grids_two_traces(self, cfg_path, tmp_path):
        text = IPM_CFG.replace("id_grid_A = -1.0, -0.5, 0.5, 1.0\n", "").replace(
            "iq_grid_A = -1.0, -0.5, 0.5, 1.0\n", "")
        path = tmp_path / "zero.cfg"
        path.write_text(text)
        out = tmp_path / "zout"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
        assert len(list((out / "traces").iterdir())) == 2


class TestEstimateCommand:
    def test_in_memory_estimate(self, cfg_path, capsys):
        out = cfg_path.parent / "mem_out"
        assert main(["estimate", "--config", str(cfg_path), "--out", str(out)]) == 0
        report = oracles.read_report(out / "report.txt")
        assert "parameters" in report and "sigma" in report
        # inductances come back within a percent on the in-memory loop
        assert report["parameters"]["Ld_mH"] == pytest.approx(91.9, rel=1e-2)
        assert report["parameters"]["Lq_mH"] == pytest.approx(45.8, rel=1e-2)
        assert "simulated" in capsys.readouterr().out

    def test_report_parameters_load_as_motor(self, cfg_path):
        # a report's [parameters] section, made a config's [motor] section,
        # loads back to the estimated motor: every field exactly, but for Ld
        # and Lq, which pass through mH and back, within 2 ulp
        out = cfg_path.parent / "out"
        assert main(["estimate", "--config", str(cfg_path), "--out", str(out)]) == 0
        config = load_config(cfg_path)
        result = run_identification(config.motor, config.plan, steps_per_period=config.steps_per_period,
                                    measure_periods=config.measure_periods)
        report = (out / "report.txt").read_text()
        parameters = report.split("[parameters]\n", 1)[1].split("\n\n", 1)[0]
        motor = IPM_CFG.split("[motor]\n", 1)[1].split("\n\n", 1)[0]
        cfg_path.write_text(IPM_CFG.replace(motor, parameters))
        loaded = load_config(cfg_path).motor
        for field in dataclasses.fields(loaded):
            got, want = getattr(loaded, field.name), getattr(result.params, field.name)
            if field.name in ("Ld", "Lq"):
                assert abs(got - want) <= 2 * math.ulp(want), field.name
            else:
                assert got == want, field.name

    def test_round_trip_ingest_equals_in_memory(self, cfg_path):
        base = cfg_path.parent
        assert main(["simulate", "--config", str(cfg_path), "--out", str(base / "sim")]) == 0
        assert main(["estimate", "--config", str(cfg_path), "--out", str(base / "mem")]) == 0
        assert main(["estimate", "--config", str(cfg_path), "--out", str(base / "ing"),
                     "--ingest", str(base / "sim" / "manifest.txt")]) == 0
        mem = (base / "mem" / "report.txt").read_bytes()
        ing = (base / "ing" / "report.txt").read_bytes()
        assert mem == ing

    @pytest.mark.parametrize("shift", [0.0005, 100.0005], ids=["quarter_period", "100s"])
    def test_bench_time_stamps_ingest(self, cfg_path, shift):
        # a dataset whose time columns start a quarter period (500 Hz), or
        # 100 s and a quarter period, on, with a note after one header,
        # ingests to the report of the dataset as simulated
        base = cfg_path.parent
        assert main(["simulate", "--config", str(cfg_path), "--out", str(base / "sim")]) == 0
        shutil.copytree(base / "sim", base / "moved")
        for path in (base / "moved" / "traces").glob("*.csv"):
            tr = Trace.from_csv(path)
            Trace(tr.t + shift, tr.u, tr.i).to_csv(path)
        noted = next((base / "moved" / "traces").glob("000_*.csv"))
        header, rows = noted.read_text().split("\n", 1)
        noted.write_text(f"{header}\n# note, with commas\n{rows}")
        for name in ("sim", "moved"):
            assert main(["estimate", "--config", str(cfg_path), "--out", str(base / f"ing_{name}"),
                         "--ingest", str(base / name / "manifest.txt")]) == 0
        want, got = (oracles.read_report(base / f"ing_{name}" / "report.txt") for name in ("sim", "moved"))
        for key, value in want["parameters"].items():
            assert got["parameters"][key] == pytest.approx(value, rel=1e-9), key

    def test_run_roles_are_labels(self, cfg_path):
        # the estimator reads no run role: a manifest whose roles are all
        # relabelled gives the same report, byte for byte
        base = cfg_path.parent
        assert main(["simulate", "--config", str(cfg_path), "--out", str(base / "sim")]) == 0
        manifest = base / "sim" / "manifest.txt"
        relabelled = base / "sim" / "relabelled.txt"
        relabelled.write_text(re.sub(r"(?m)^role = .*$", "role = bench_run", manifest.read_text()))
        for path, out in ((manifest, "ing"), (relabelled, "relabelled")):
            assert main(["estimate", "--config", str(cfg_path), "--out", str(base / out),
                         "--ingest", str(path)]) == 0
        assert (base / "relabelled" / "report.txt").read_bytes() == (base / "ing" / "report.txt").read_bytes()

    def test_estimate_picks_up_simulated_manifest(self, cfg_path, capsys):
        assert main(["simulate", "--config", str(cfg_path)]) == 0
        assert main(["estimate", "--config", str(cfg_path)]) == 0
        assert "ingested" in capsys.readouterr().out

    def test_missing_trace_file_named(self, cfg_path, capsys, monkeypatch):
        # two workers, runs 0-6 and 7-13: each fault below is put into run 3
        # and run 10 alike, and run 5 starts late (a numerical failure), yet
        # the input error of run 3, the first run to fail a check, reading
        # included, is the one reported
        monkeypatch.setattr(estimator, "_worker_count", lambda n: 2)
        base = cfg_path.parent

        def faulty(edit):
            assert main(["simulate", "--config", str(cfg_path), "--out", str(base / "sim")]) == 0
            traces = base / "sim" / "traces"
            late = next(traces.glob("005_*.csv"))
            tr = Trace.from_csv(late)
            Trace(tr.t[200:], tr.u[:, 200:], tr.i[:, 200:]).to_csv(late)
            victim, later = next(traces.glob("003_*.csv")), next(traces.glob("010_*.csv"))
            edit(victim)
            edit(later)
            code = main(["estimate", "--config", str(cfg_path), "--out", str(base / "x"),
                         "--ingest", str(base / "sim" / "manifest.txt")])
            assert code == 1
            err = capsys.readouterr().err
            assert victim.name in err and later.name not in err and late.name not in err
            return err

        faulty(Path.unlink)
        # a trace cut to its header and one row is refused the same way
        faulty(lambda path: path.write_text("\n".join(path.read_text().splitlines()[:2]) + "\n"))
        # so are a nan current sample, a value that is no number, a time stamp
        # moved by 0.3 dt and a row short of a value or one value over: input
        # errors naming the file, not numerical failures
        dt = 1 / 500 / 200  # the config's sample period: 200 steps of a 500 Hz period
        for edit, message in ((lambda v: v[:3] + ["nan"] + v[4:], "i_d in data row 5 is not finite"),
                              (lambda v: v[:3] + ["abc"] + v[4:], "could not convert string 'abc'"),
                              (lambda v: v[:2] + ["1.5e"] + v[3:],
                               "data row 5, column u_q: could not convert string '1.5e'"),
                              (lambda v: [repr(float(v[0]) + 0.3 * dt)] + v[1:], "t must be uniformly sampled"),
                              (lambda v: v[:-1], "data row 5 has 4 values, the header names 5"),
                              (lambda v: v + ["0"], "data row 5 has 6 values, the header names 5")):
            def edit_row(path):
                lines = path.read_text().splitlines()
                lines[5] = ",".join(edit(lines[5].split(",")))
                path.write_text("\n".join(lines) + "\n")

            assert message in faulty(edit_row)

    @pytest.mark.parametrize("error, keep", [(TooShort, slice(300)), (Unresolved, slice(None, None, 20))])
    def test_short_or_coarse_trace_named(self, cfg_path, capsys, error, keep):
        # a trace of under two whole periods, or sampled too coarsely to
        # resolve one, is a numerical failure naming its run: by file through
        # the CLI, by index and role through identify
        base = cfg_path.parent
        assert main(["simulate", "--config", str(cfg_path), "--out", str(base / "sim")]) == 0
        victim = next((base / "sim" / "traces").glob("003_*.csv"))
        tr = Trace.from_csv(victim)
        Trace(tr.t[keep], tr.u[:, keep], tr.i[:, keep]).to_csv(victim)
        code = main(["estimate", "--config", str(cfg_path), "--out", str(base / "x"),
                     "--ingest", str(base / "sim" / "manifest.txt")])
        assert code == 2
        assert f"{error.__name__}: {victim}: " in capsys.readouterr().err
        entries = read_manifest(base / "sim" / "manifest.txt")
        traces = [Trace.from_csv(path) for _, path in entries]
        with pytest.raises(error, match=r"^run 3 \(d_sweep, "):
            identify([run for run, _ in entries], oracles.in_memory(traces), load_config(cfg_path).motor)

    @staticmethod
    def mixed_manifest(cfg_path):
        """One manifest joining a 500 Hz / 30 V plan (traces under slow/) and
        a 1 kHz / 20 V plan (under fast/)."""
        base = cfg_path.parent
        fast = base / "fast.cfg"
        fast.write_text(IPM_CFG.replace("omega_Hz = 500", "omega_Hz = 1000").replace(
            "u_tilde_V = 30", "u_tilde_V = 20"))
        blocks = []
        for cfg, name in ((cfg_path, "slow"), (fast, "fast")):
            assert main(["simulate", "--config", str(cfg), "--out", str(base / name)]) == 0
            text = (base / name / "manifest.txt").read_text()
            blocks.append(text.replace("trace = traces/", f"trace = {name}/traces/"))
        (base / "mixed.txt").write_text("".join(blocks))
        return base / "mixed.txt"

    def test_mixed_manifest_estimated(self, cfg_path, capsys):
        # each run is scaled by its own drive, so the union of two plans
        # estimates as well as either plan alone (a single shared scale would
        # be 3x off for half of the runs)
        base = cfg_path.parent
        assert main(["estimate", "--config", str(cfg_path), "--out", str(base / "est"),
                     "--ingest", str(self.mixed_manifest(cfg_path))]) == 0
        assert "ingested 28 traces" in capsys.readouterr().out
        got = oracles.read_report(base / "est" / "report.txt")["parameters"]
        for key, want in (("Ld_mH", 91.9), ("Lq_mH", 45.8), ("a30_AperWb2", 7.70),
                          ("a12_AperWb2", 5.35), ("a40_AperWb3", 19.42),
                          ("a22_AperWb3", 22.18), ("a04_AperWb3", 6.62)):
            assert got[key] == pytest.approx(want, rel=0.03), key

    def test_dead_second_zero_bias_run_refused(self, cfg_path, capsys):
        # every zero-bias run must show its ripple, not only the first of its
        # axis: the second plan's d run with a current of noise alone is a
        # numerical failure naming its file
        manifest = self.mixed_manifest(cfg_path)
        victim = next((cfg_path.parent / "fast" / "traces").glob("000_ld_*.csv"))
        tr = Trace.from_csv(victim)
        noise = np.random.default_rng(1).uniform(-0.010, 0.010, len(tr.t))
        dataclasses.replace(tr, i=np.stack([noise, tr.i[1]])).to_csv(victim)
        code = main(["estimate", "--config", str(cfg_path), "--out", str(cfg_path.parent / "est"),
                     "--ingest", str(manifest)])
        assert code == 2
        err = capsys.readouterr().err
        assert "ZeroRipple" in err and f"fast/traces/{victim.name}: d-axis zero-bias run" in err

    def test_trace_not_at_rest_exit_code(self, cfg_path, capsys, monkeypatch):
        # an ingested trace that starts one period into its run cannot have
        # its flux rebuilt from zero: numerical failure naming the file. With
        # two workers, runs 0-6 and 7-13, a later run's fault in either
        # slice, a file that cannot be read among them, does not hide it
        monkeypatch.setattr(estimator, "_worker_count", lambda n: 2)
        base = cfg_path.parent

        def late_start(path):
            tr = Trace.from_csv(path)
            Trace(tr.t[200:], tr.u[:, 200:], tr.i[:, 200:]).to_csv(path)

        def short_row(path):
            lines = path.read_text().splitlines()
            path.write_text("\n".join(lines[:5] + [lines[5].rpartition(",")[0]] + lines[6:]) + "\n")

        for later, fault in ((None, None), ("005", late_start), ("010", late_start),
                             ("005", short_row), ("010", short_row)):
            assert main(["simulate", "--config", str(cfg_path), "--out", str(base / "sim")]) == 0
            victim = next((base / "sim" / "traces").glob("003_*.csv"))
            late_start(victim)
            if later is not None:
                fault(next((base / "sim" / "traces").glob(f"{later}_*.csv")))
            code = main(["estimate", "--config", str(cfg_path), "--out", str(base / "x"),
                         "--ingest", str(base / "sim" / "manifest.txt")])
            assert code == 2
            err = capsys.readouterr().err
            assert "NotAtRest" in err and victim.name in err and f"/{later}_" not in err
            with pytest.raises(ChildProcessError):  # every worker reaped
                os.waitpid(-1, os.WNOHANG)

    def test_reversed_current_channels_exit_code(self, cfg_path, capsys):
        # i_d and i_q negated in every ingested trace, as reversed current
        # sensors record them: a numerical failure, not a configuration error
        base = cfg_path.parent
        assert main(["simulate", "--config", str(cfg_path), "--out", str(base / "sim")]) == 0
        for path in (base / "sim" / "traces").glob("*.csv"):
            tr = Trace.from_csv(path)
            dataclasses.replace(tr, i=-tr.i).to_csv(path)
        code = main(["estimate", "--config", str(cfg_path), "--out", str(base / "x"),
                     "--ingest", str(base / "sim" / "manifest.txt")])
        assert code == 2
        assert capsys.readouterr().err.startswith("numerical failure: NonPhysical: estimated 1/Ld = -")

    def test_dead_worker_exit_code(self, cfg_path, capsys, monkeypatch):
        # a worker that dies without a result is no numerical failure of the
        # data: one error line naming the worker and its exit status, exit 1
        monkeypatch.setattr(estimator, "_worker_count", lambda n: 2)
        monkeypatch.setattr(estimator, "_child", lambda *args: os._exit(3))
        assert main(["estimate", "--config", str(cfg_path), "--out", str(cfg_path.parent / "x")]) == 1
        assert capsys.readouterr().err == "error: worker 0 of 2 left no result (exit status 3)\n"
        with pytest.raises(ChildProcessError):  # the worker reaped
            os.waitpid(-1, os.WNOHANG)

    def test_same_files_for_any_worker_count(self, tmp_path, monkeypatch):
        # the IPM fixture's plan at 10 mA, simulated by one, two or three
        # workers: the same trace files and manifest, byte for byte
        cfg = tmp_path / "ipm.cfg"
        cfg.write_text((Path(__file__).resolve().parents[1] / "configs" / "ipm.cfg").read_text()
                       .replace("noise_mA = 0", "noise_mA = 10"))
        written = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(estimator, "_worker_count", lambda n: workers)
            out = tmp_path / f"workers_{workers}"
            assert main(["simulate", "--config", str(cfg), "--out", str(out), "--seed", "3"]) == 0
            written.append({p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()})
        assert len(written[0]) == 1 + 44
        assert written[0] == written[1] == written[2]

    def test_null_motor_alphas_within_sigma(self, tmp_path, capsys):
        text = IPM_CFG
        for key in ("a30_AperWb2 = 7.70", "a12_AperWb2 = 5.35", "a40_AperWb3 = 19.42",
                    "a22_AperWb3 = 22.18", "a04_AperWb3 = 6.62"):
            text = text.replace(key, key.split("=")[0] + "= 0.0")
        text = text.replace("noise_mA = 0", "noise_mA = 10").replace(
            "measure_periods = 12", "measure_periods = 30")
        path = tmp_path / "null.cfg"
        path.write_text(text)
        out = tmp_path / "out"
        assert main(["estimate", "--config", str(path), "--out", str(out), "--seed", "11"]) == 0
        report = oracles.read_report(out / "report.txt")
        for name, unit in (("a30", "AperWb2"), ("a12", "AperWb2"), ("a40", "AperWb3"),
                           ("a22", "AperWb3"), ("a04", "AperWb3")):
            est = report["parameters"][f"{name}_{unit}"]
            sig = report["sigma"][f"{name}_{unit}"]
            assert abs(est) <= 3 * sig, (name, est, sig)


class TestValidateAndCurves:
    def test_validate_outputs(self, cfg_path):
        out = cfg_path.parent / "val"
        assert main(["validate", "--config", str(cfg_path), "--out", str(out)]) == 0
        sweep = list(out.glob("angle_sweep_*.csv"))
        steps = list(out.glob("step_response_*.csv"))
        fluxes = list(out.glob("flux_integration_*.csv"))
        assert len(sweep) == 1 and len(steps) == 2 and len(fluxes) == 2
        header = sweep[0].read_text().splitlines()[0]
        assert header == "x,y_model,y_measured"

    def test_validate_shipped_spm(self, tmp_path):
        # the shipped SPM fixture's harshest step crosses the current at
        # which the first-order seed lands past the fold of the d-axis curve;
        # the record-seeded inversion still writes every flux file
        cfg = Path(__file__).resolve().parents[1] / "configs" / "spm.cfg"
        out = tmp_path / "val"
        assert main(["validate", "--config", str(cfg), "--out", str(out)]) == 0
        steps = sorted(out.glob("step_response_*.csv"))
        fluxes = sorted(out.glob("flux_integration_*.csv"))
        assert len(steps) == 2
        assert [f.name.replace("flux_integration", "step_response") for f in fluxes] == [s.name for s in steps]
        for step, flux in zip(steps, fluxes):
            assert len(flux.read_text().splitlines()) == len(step.read_text().splitlines())

    @pytest.mark.xfail(strict=True, reason="ROADMAP direction 1: the SPM d-axis curve folds, and "
                       "curves exits 2 where i_d = -1 A has no preimage on the origin's branch")
    def test_curves_shipped_spm(self, tmp_path):
        cfg = Path(__file__).resolve().parents[1] / "configs" / "spm.cfg"
        assert main(["curves", "--config", str(cfg), "--out", str(tmp_path / "cur")]) == 0

    def test_curves_outputs(self, cfg_path):
        out = cfg_path.parent / "cur"
        assert main(["curves", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert (out / "magnetization_phid.csv").exists()
        assert (out / "magnetization_phiq.csv").exists()

    def test_config_error_exit_code(self, tmp_path):
        path = tmp_path / "broken.cfg"
        path.write_text("[motor]\nR_ohm = -5\n")
        assert main(["estimate", "--config", str(path)]) == 1

    def test_validate_runaway_step_exit_code(self, tmp_path, capsys):
        # a simulated response that overflows is a numerical failure naming
        # its drive, not a trace file's refused data row
        text = (Path(__file__).resolve().parents[1] / "configs" / "ipm.cfg").read_text()
        path = tmp_path / "ipm_huge_step.cfg"
        path.write_text(text.replace("[validate]\n", "[validate]\nstep_volts_V = 1e6\n"))
        assert main(["validate", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            "numerical failure: StepTooLarge: the response to u_bar = (1e+06, 0) V left the finite range at "
            "t = 9.07654e-05 s: dt = 4.53827e-05 s does not resolve it\n")

    def test_estimate_runaway_bias_exit_code(self, tmp_path, capsys):
        text = (Path(__file__).resolve().parents[1] / "configs" / "ipm.cfg").read_text()
        path = tmp_path / "ipm_huge_bias.cfg"
        path.write_text(text.replace("id_max_A = 2.0", "id_max_A = 1e6").replace("id_step_A = 0.3", "id_step_A = 5e5"))
        assert main(["estimate", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            "numerical failure: StepTooLarge: run 2 (d_sweep, -1000000.000 A): the response to u_bar = "
            "(-1.215e+07, 0) V left the finite range at t = 2e-05 s: dt = 1e-05 s does not resolve it\n")

    @pytest.mark.parametrize("workers", [1, 2])
    def test_simulate_runaway_bias_names_trace_file(self, tmp_path, capsys, monkeypatch, workers):
        # the runaway run 2 above, simulated: simulate names the trace file
        # it was to write and writes no manifest, estimate names the run
        monkeypatch.setattr(estimator, "_worker_count", lambda n: workers)
        text = (Path(__file__).resolve().parents[1] / "configs" / "ipm.cfg").read_text()
        path = tmp_path / "ipm_huge_bias.cfg"
        path.write_text(text.replace("id_max_A = 2.0", "id_max_A = 1e6").replace("id_step_A = 0.3", "id_step_A = 5e5"))
        runaway = ("the response to u_bar = (-1.215e+07, 0) V left the finite range at t = 2e-05 s: "
                   "dt = 1e-05 s does not resolve it\n")
        out = tmp_path / "sim"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 2
        trace = out / "traces" / "002_d_sweep_-1000000.000A.csv"
        assert capsys.readouterr().err == f"numerical failure: StepTooLarge: {trace}: {runaway}"
        assert not trace.exists() and not (out / "manifest.txt").exists()
        assert main(["estimate", "--config", str(path), "--out", str(tmp_path / "est")]) == 2
        assert capsys.readouterr().err == f"numerical failure: StepTooLarge: run 2 (d_sweep, -1000000.000 A): {runaway}"

    def test_numerical_failure_exit_code(self, tmp_path, capsys):
        # a strongly folded d-axis curve is not invertible across the
        # requested curve grid: curves must exit 2 and name the point
        text = IPM_CFG.replace("a30_AperWb2 = 7.70", "a30_AperWb2 = -60.0")
        text += "\n[curves]\ncurve_grid_A = 0.0, 1.8\nlevels_A = 0.0\n"
        path = tmp_path / "fold.cfg"
        path.write_text(text)
        code = main(["curves", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "NonConvergence" in capsys.readouterr().err


def test_file_waveform_config_end_to_end(tmp_path):
    n = 256
    tau = 2 * math.pi * np.arange(n) / n
    samples = np.sin(tau)
    samples -= samples.mean()
    (tmp_path / "wave.txt").write_text("\n".join(f"{v:.17g}" for v in samples) + "\n")
    text = IPM_CFG.replace("waveform = square", "waveform = file:wave.txt").replace(
        "id_grid_A = -1.0, -0.5, 0.5, 1.0\n", "").replace(
        "iq_grid_A = -1.0, -0.5, 0.5, 1.0\n", "").replace(
        "measure_periods = 12", "measure_periods = 6")
    path = tmp_path / "wavecfg.cfg"
    path.write_text(text)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
    assert len(list((out / "traces").iterdir())) == 2
    # the sampled waveform travels with the dataset and round-trips
    assert (out / "waveform.txt").exists()
    entries = read_manifest(out / "manifest.txt")
    assert entries[0][0].spec.waveform.kind == "sampled"
    assert np.allclose(entries[0][0].spec.waveform.samples, samples)


def test_seed_changes_noisy_traces(tmp_path):
    text = IPM_CFG.replace("noise_mA = 0", "noise_mA = 10").replace(
        "id_grid_A = -1.0, -0.5, 0.5, 1.0\n", "").replace(
        "iq_grid_A = -1.0, -0.5, 0.5, 1.0\n", "").replace(
        "measure_periods = 12", "measure_periods = 4")
    path = tmp_path / "noisy.cfg"
    path.write_text(text)
    o1, o2 = tmp_path / "s1", tmp_path / "s2"
    assert main(["simulate", "--config", str(path), "--out", str(o1), "--seed", "1"]) == 0
    assert main(["simulate", "--config", str(path), "--out", str(o2), "--seed", "2"]) == 0
    f1 = sorted((o1 / "traces").iterdir())[0]
    f2 = sorted((o2 / "traces").iterdir())[0]
    assert f1.read_bytes() != f2.read_bytes()


def test_plan_grid_consistency(cfg_path):
    cfg = load_config(cfg_path)
    runs = plan_runs(cfg.plan, cfg.motor.R)
    d_sweep = [r for r in runs if r.role == "d_sweep"]
    assert [r.i_target for r in d_sweep] == [-1.0, -0.5, 0.5, 1.0]
    for r in d_sweep:
        assert r.spec.u_bar_d == pytest.approx(cfg.motor.R * r.i_target)
