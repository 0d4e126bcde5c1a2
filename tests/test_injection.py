import math

import numpy as np
import pytest

from satpmsm.injection import F_array, InjectionSpec, Waveform, f_array
from satpmsm.simulator import SimConfig, simulate

import oracles


def sampled_ramp(n=64):
    # zero-mean sawtooth-like test waveform
    vals = np.linspace(-1.0, 1.0, n)
    return Waveform.from_samples(vals - vals.mean())


class TestWaveformConstruction:
    def test_builtins(self):
        assert Waveform.square().kind == "square"
        assert Waveform.sine().kind == "sine"
        for kind in ("square", "sine"):
            with pytest.raises(ValueError, match=f"^{kind} waveform takes no samples$"):
                Waveform(kind, (1.0, -1.0))

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            Waveform("triangle")

    def test_sampled_must_have_zero_mean(self):
        with pytest.raises(ValueError):
            Waveform.from_samples([1.0, 1.0, 0.5, 0.9])

    def test_sampled_too_short(self):
        with pytest.raises(ValueError):
            Waveform.from_samples([0.0])

    def test_sampled_values_finite_and_not_all_zero(self):
        for value in (math.nan, math.inf):
            with pytest.raises(ValueError, match="^sampled waveform values must be finite$"):
                Waveform.from_samples([1.0, value, -1.0])
        with pytest.raises(ValueError, match="^sampled waveform is identically zero$"):
            Waveform.from_samples([0.0, -0.0, 0.0])


class TestF:
    def test_square_values(self):
        sq = Waveform.square()
        assert f_array(sq, math.pi / 2) == 1.0
        assert f_array(sq, 3 * math.pi / 2) == -1.0
        assert f_array(sq, 0.0) == 1.0
        assert f_array(sq, math.pi) == -1.0

    def test_sine_peak(self):
        assert f_array(Waveform.sine(), math.pi / 2) == pytest.approx(1.0, rel=1e-15)

    def test_periodicity(self):
        for w in (Waveform.square(), Waveform.sine(), sampled_ramp()):
            for tau in (0.3, 2.0, 4.5):
                assert f_array(w, tau) == pytest.approx(f_array(w, tau + 6 * math.pi), abs=1e-12)
                assert f_array(w, tau) == pytest.approx(f_array(w, tau - 4 * math.pi), abs=1e-12)

    def test_zero_mean_midpoint_quadrature(self):
        # ~1e4 midpoint nodes, count aligned to the waveform's pieces so the
        # rule is exact for the piecewise-linear cases
        for w, n in ((Waveform.square(), 10000), (Waveform.sine(), 10000), (sampled_ramp(), 10048)):
            integral = oracles.midpoint_integral(lambda x: f_array(w, x), 0.0, 2 * math.pi, n)
            assert abs(integral) < 1e-10


class TestBigF:
    def test_square_shape(self):
        sq = Waveform.square()
        assert F_array(sq, 0.0) == pytest.approx(-math.pi / 2, rel=1e-15)
        assert F_array(sq, math.pi / 2) == pytest.approx(0.0, abs=1e-15)
        assert F_array(sq, math.pi) == pytest.approx(math.pi / 2, rel=1e-15)
        assert F_array(sq, 1.5 * math.pi) == pytest.approx(0.0, abs=1e-12)

    def test_sine_is_minus_cos(self):
        sn = Waveform.sine()
        for tau in np.linspace(0, 2 * math.pi, 17):
            assert F_array(sn, float(tau)) == pytest.approx(-math.cos(tau), abs=1e-14)

    def test_zero_mean(self):
        # cell counts aligned to the waveform pieces: the midpoint error then
        # cancels over the period for the piecewise-quadratic primitive
        for w in (Waveform.square(), Waveform.sine(), sampled_ramp(100)):
            integral = oracles.midpoint_integral(lambda x: F_array(w, x), 0.0, 2 * math.pi, 10000)
            assert abs(integral) < 1e-10

    def test_derivative_recovers_f(self):
        # away from the square's jumps and the sampled kinks
        rng = np.random.default_rng(0)
        for w in (Waveform.square(), Waveform.sine()):
            for _ in range(50):
                tau = float(rng.uniform(0.05, 2 * math.pi - 0.05))
                if w.kind == "square" and abs(tau - math.pi) < 1e-3:
                    continue
                h = 1e-6
                deriv = (F_array(w, tau + h) - F_array(w, tau - h)) / (2 * h)
                f = float(f_array(w, tau))
                assert abs(deriv - f) <= 1e-4 * max(1.0, abs(f))

    def test_sampled_primitive_vs_quadrature_oracle(self):
        # F for a sampled waveform == fine-grid integral of f minus the
        # period mean of that integral; independent high-resolution midpoint
        # integration of the f values themselves
        w = sampled_ramp(32)
        n = 640000  # multiple of 32: cells aligned with the kinks
        h = 2 * math.pi / n
        mids = (np.arange(n) + 0.5) * h
        fv = f_array(w, mids)
        raw = np.concatenate([[0.0], np.cumsum(fv * h)])  # primitive at cell edges
        mean = float(np.sum(0.5 * (raw[1:] + raw[:-1]) * h)) / (2 * math.pi)
        for k in range(0, n + 1, n // 16):
            tau = k * h
            assert F_array(w, float(tau)) == pytest.approx(float(raw[k]) - mean, abs=1e-8)

    def test_same_period_as_f(self):
        for w in (Waveform.square(), Waveform.sine(), sampled_ramp()):
            for tau in (0.7, 3.0, 5.1):
                assert F_array(w, tau) == pytest.approx(F_array(w, tau + 2 * math.pi), abs=1e-12)


class TestInjectionSpec:
    def test_omega_positive(self):
        with pytest.raises(ValueError):
            InjectionSpec(0, 0, 1, 0, omega=0.0, waveform=Waveform.square())
        # so must every voltage be finite
        with pytest.raises(ValueError, match="^u_tilde_q must be finite$"):
            InjectionSpec(0, 0, 1, math.inf, omega=1.0, waveform=Waveform.square())

    def test_period(self):
        spec = InjectionSpec(0, 0, 1, 0, omega=2 * math.pi * 500, waveform=Waveform.square())
        assert spec.period == pytest.approx(1 / 500, rel=1e-15)

    def test_voltage_fig2_point(self, ipm):
        # square injection at quarter period: 23 + 30 = 53 V on the d axis
        spec = InjectionSpec(u_bar_d=23.0, u_bar_q=0.0, u_tilde_d=30.0, u_tilde_q=0.0,
                             omega=2 * math.pi * 500, waveform=Waveform.square())
        tr = simulate(ipm, spec, SimConfig(dt=spec.period / 200, t_end=spec.period))
        assert tr.u[0, 50] == pytest.approx(53.0, rel=1e-14)
        assert np.all(tr.u[1] == 0.0)

    def test_constant_when_no_ripple(self, ipm):
        spec = InjectionSpec(u_bar_d=5.0, u_bar_q=-2.0, u_tilde_d=0.0, u_tilde_q=0.0,
                             omega=100.0, waveform=Waveform.sine())
        tr = simulate(ipm, spec, SimConfig(dt=spec.period / 200, t_end=0.5))
        assert np.all(tr.u[0] == 5.0) and np.all(tr.u[1] == -2.0)

    def test_sine_zero_crossing(self, ipm):
        spec = InjectionSpec(0.0, 0.0, 7.0, 3.0, omega=1000.0, waveform=Waveform.sine())
        tr = simulate(ipm, spec, SimConfig(dt=spec.period / 200, t_end=spec.period))
        # sample 100 sits at half a period
        assert abs(tr.u[0, 100]) < 1e-12 and abs(tr.u[1, 100]) < 1e-12
