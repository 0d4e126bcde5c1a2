import math
import re

import pytest

from satpmsm.estimator import EstimationResult, PlanRun
from satpmsm.injection import InjectionSpec, Waveform
from satpmsm.magnetics import MotorParams
from satpmsm.textio import (
    ConfigError,
    parse_sections,
    read_manifest,
    waveform_from_name,
    write_manifest,
    write_report,
)

import oracles


class TestParser:
    def test_sections_in_order(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_text("[a]\nx = 1\n# comment\n[b]\ny = 2  # trailing\n[a]\nx = 3\n")
        sections = parse_sections(path)
        assert [name for name, _ in sections] == ["a", "b", "a"]
        assert sections[0][1] == {"x": "1"}
        assert sections[1][1] == {"y": "2"}
        assert sections[2][1] == {"x": "3"}

    def test_duplicate_key_in_section(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_text("[a]\nx = 1\nx = 2\n")
        with pytest.raises(ConfigError, match="duplicate"):
            parse_sections(path)

    def test_key_outside_section(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_text("x = 1\n")
        with pytest.raises(ConfigError, match="section"):
            parse_sections(path)

    def test_missing_equals(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_text("[a]\njust words\n")
        with pytest.raises(ConfigError, match="key = value"):
            parse_sections(path)


class TestWaveformNames:
    def test_builtins(self, tmp_path):
        assert waveform_from_name("square", tmp_path, "x").kind == "square"
        assert waveform_from_name("sine", tmp_path, "x").kind == "sine"

    def test_file_reference(self, tmp_path):
        wf = tmp_path / "wave.txt"
        wf.write_text("1.0\n-1.0\n1.0\n-1.0\n")
        w = waveform_from_name("file:wave.txt", tmp_path, "x")
        assert w.kind == "sampled" and len(w.samples) == 4

    def test_from_file(self, tmp_path):
        path = tmp_path / "wave.txt"
        path.write_text("# one period\n1.0\n-1.0\n1.0\n-1.0\n")
        w = waveform_from_name("file:wave.txt", tmp_path, "x")
        assert w.kind == "sampled"
        assert len(w.samples) == 4

    def test_byte_order_mark_ignored(self, tmp_path):
        # a waveform file saved as "UTF-8 with BOM" reads as without it
        (tmp_path / "wave.txt").write_text("\ufeff1.0\n-1.0\n1.0\n-1.0\n", encoding="utf-8")
        assert waveform_from_name("file:wave.txt", tmp_path, "x").samples == (1.0, -1.0, 1.0, -1.0)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="does not exist"):
            waveform_from_name("file:nope.txt", tmp_path, "x")

    def test_unknown(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown waveform"):
            waveform_from_name("sawtooth", tmp_path, "x")


class TestManifest:
    def test_round_trip(self, tmp_path):
        spec = InjectionSpec(1.5, 0.0, 30.0, 0.0, 2 * math.pi * 500, Waveform.square())
        runs = [PlanRun("d_sweep", 0.123456789, spec)]
        trace = tmp_path / "tr.csv"
        trace.write_text("t,u_d,u_q,i_d,i_q\n0,0,0,0,0\n0.001,0,0,0,0\n")
        write_manifest(tmp_path / "m.txt", runs, ["tr.csv"])
        back = read_manifest(tmp_path / "m.txt")
        assert len(back) == 1
        run, path = back[0]
        assert run.role == "d_sweep"
        assert run.i_target == 0.123456789
        assert run.spec.u_bar_d == 1.5
        assert run.spec.omega == pytest.approx(2 * math.pi * 500, rel=1e-15)
        assert path == trace
        # a mixed run list keeps each run's own pulsation and waveform, and
        # each distinct sampled waveform is written to its own file once
        tri = Waveform.from_samples([0.0, 1.0, 0.0, -1.0])
        ramp = Waveform.from_samples([-1.5, -0.5, 0.5, 1.5])
        specs = [InjectionSpec(0.0, 0.0, 30.0, 0.0, 2 * math.pi * 500, Waveform.square()),
                 InjectionSpec(0.0, 2.0, 0.0, 20.0, 2 * math.pi * 1000, Waveform.sine()),
                 InjectionSpec(0.0, 0.0, 10.0, 0.0, 2 * math.pi * 250, tri),
                 InjectionSpec(1.0, 0.0, 10.0, 0.0, 2 * math.pi * 750, ramp),
                 InjectionSpec(0.0, 0.0, 0.0, 10.0, 2 * math.pi * 250, tri)]
        runs = [PlanRun("d_sweep", float(k), spec) for k, spec in enumerate(specs)]
        write_manifest(tmp_path / "mixed.txt", runs, ["tr.csv"] * len(runs))
        back = read_manifest(tmp_path / "mixed.txt")
        for spec, (run, _) in zip(specs, back, strict=True):
            assert run.spec.waveform == spec.waveform
            assert run.spec.omega == pytest.approx(spec.omega, rel=1e-15)
            assert run.spec.u_bar_d == spec.u_bar_d and run.spec.u_tilde_q == spec.u_tilde_q
        assert sorted(p.name for p in tmp_path.glob("waveform*")) == ["waveform.txt", "waveform_2.txt"]

    def test_missing_trace_file(self, tmp_path):
        spec = InjectionSpec(0, 0, 30.0, 0, 2 * math.pi * 500, Waveform.square())
        write_manifest(tmp_path / "m.txt", [PlanRun("ld", 0.0, spec)], ["gone.csv"])
        with pytest.raises(ConfigError, match="gone.csv"):
            read_manifest(tmp_path / "m.txt")

    def test_rejects_unknown_section(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("[walk]\nrole = ld\n")
        with pytest.raises(ConfigError, match="unexpected section"):
            read_manifest(path)
        # no [run] block at all, and a [run] block without its waveform
        path.write_text("# identification run manifest\n")
        with pytest.raises(ConfigError, match=r"m\.txt: manifest lists no \[run\] block"):
            read_manifest(path)
        path.write_text("[run]\nrole = ld\ntrace = tr.csv\n")
        with pytest.raises(ConfigError, match=r"m\.txt \[run #1\]: missing field 'waveform'"):
            read_manifest(path)

    def test_bad_pulsation_names_its_run(self, tmp_path):
        # a drive the injection refuses, a negative pulsation in the second
        # block, names the manifest and the block as every manifest fault does
        spec = InjectionSpec(0, 0, 30.0, 0, 2 * math.pi * 500, Waveform.square())
        (tmp_path / "tr.csv").write_text("t,u_d,u_q,i_d,i_q\n0,0,0,0,0\n0.001,0,0,0,0\n")
        path = tmp_path / "m.txt"
        write_manifest(path, [PlanRun("ld", 0.0, spec)] * 2, ["tr.csv"] * 2)
        first, second = path.read_text().split("[run]\n")[1:]
        path.write_text("[run]\n" + first + "[run]\n" + re.sub(r"omega_Hz = .*", "omega_Hz = -500", second))
        with pytest.raises(ConfigError, match=re.escape(f"{path} [run #2]: omega must be positive")):
            read_manifest(path)


class TestReport:
    def test_round_trip_values(self, tmp_path):
        p = MotorParams(R=12.15, Ld=91.9e-3, Lq=45.8e-3, n_pp=6,
                        a30=7.7, a12=5.35, a40=19.42, a22=22.18, a04=6.62)
        result = EstimationResult(
            params=p,
            sigma={"Ld": 1e-4, "Lq": 2e-4, "a30": 0.1, "a12": 0.2,
                   "a40": 0.3, "a22": 0.4, "a04": 0.5},
            residual_rms=4e-9)
        path = tmp_path / "report.txt"
        write_report(path, result)
        back = oracles.read_report(path)
        assert back["parameters"]["Ld_mH"] == pytest.approx(91.9, rel=1e-15)
        assert back["parameters"]["a22_AperWb3"] == 22.18
        assert back["sigma"]["Lq_mH"] == pytest.approx(0.2, rel=1e-12)
        assert back["fit_residual_rms"] == {"current_A": 4e-9}
        assert back["parameters"]["pole_pairs"] == 6
