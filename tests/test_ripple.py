import math

import numpy as np
import pytest

from satpmsm.estimator import RankDeficient, gram_fit
from satpmsm.injection import F_array, InjectionSpec, Waveform
from satpmsm.ripple import RippleMeasurement, TooShort, Unresolved, extract_ripple, rebuild_flux
from satpmsm.simulator import SimConfig, Trace, simulate

import oracles

OMEGA = 2 * math.pi * 500.0


def synthetic_trace(spec, n_periods=20, samples_per_period=200,
                    bar_d=0.0, til_d=0.0, bar_q=0.0, til_q=0.0, t0=0.0):
    sp = spec.period / samples_per_period
    t = t0 + sp * np.arange(n_periods * samples_per_period + 1)
    F = F_array(spec.waveform, spec.omega * t)
    u_d = spec.u_bar_d + spec.u_tilde_d * np.zeros_like(t)
    return Trace(t=t, u=np.stack([u_d, np.zeros_like(t)]), i=np.stack([bar_d + til_d * F, bar_q + til_q * F]))


class TestOls:
    def test_matches_normal_equations(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(40, 3))
        y = rng.normal(size=40)
        beta, xtx_inv = gram_fit(X.T @ X, X.T @ y)
        want = np.linalg.solve(X.T @ X, X.T @ y)
        assert np.allclose(beta, want, rtol=1e-10)
        assert np.allclose(xtx_inv, np.linalg.inv(X.T @ X), rtol=1e-9)

    def test_rank_deficient(self):
        X = np.column_stack([np.ones(10), np.ones(10)])
        with pytest.raises(RankDeficient):
            gram_fit(X.T @ X, X.T @ np.ones(10))
        # a zero column, as records with no q excitation would give the q
        # columns of the identification
        X = np.column_stack([np.ones(10), np.zeros(10)])
        with pytest.raises(RankDeficient, match="a regressor column is zero"):
            gram_fit(X.T @ X, X.T @ np.ones(10))

    def test_underdetermined(self):
        X = np.ones((1, 2))
        with pytest.raises(RankDeficient):
            gram_fit(X.T @ X, X.T @ np.ones(1))


class TestRebuildFlux:
    @pytest.mark.parametrize("waveform", [Waveform.square(), Waveform.sine()])
    def test_both_axes_are_the_per_axis_integral(self, waveform):
        # both axes integrate as one (2, n) array over one set of sample
        # steps; each row is bit for bit its axis integrated alone, by held
        # levels under a square drive and by the trapezoid rule under a
        # smooth one
        t = 1e-5 * np.arange(1001)
        u_d, u_q, i_d, i_q = np.random.default_rng(6).normal(size=(4, len(t)))
        R = 12.15

        def trapezoid(y):
            return np.concatenate([[0.0], np.cumsum(0.5 * (y[1:] + y[:-1]) * np.diff(t))])

        def held(y):
            return np.concatenate([[0.0], np.cumsum(y[:-1] * np.diff(t))])

        u_rule = held if waveform == Waveform.square() else trapezoid
        want = np.stack([u_rule(u) - R * trapezoid(i) for u, i in ((u_d, i_d), (u_q, i_q))])
        got = rebuild_flux(Trace(t, np.stack([u_d, u_q]), np.stack([i_d, i_q])), R, waveform == Waveform.square())
        assert got.tobytes() == want.tobytes()

    def test_constant_drive_takes_either_rule(self):
        # the trapezoid of two equal samples, 0.5 * (u + u) * dt, is u * dt
        # bit for bit, so a step response's constant drive rebuilds the same
        # flux held or not
        t = 1e-5 * np.arange(1001)
        i_d, i_q = np.random.default_rng(7).normal(size=(2, len(t)))
        tr = Trace(t, np.stack([np.full_like(t, 97.2), np.full_like(t, -0.3)]), np.stack([i_d, i_q]))
        assert rebuild_flux(tr, 12.15, True).tobytes() == rebuild_flux(tr, 12.15, False).tobytes()


class TestExtractRipple:
    def test_exact_model_recovery(self):
        spec = InjectionSpec(0, 0, 30.0, 0, OMEGA, Waveform.square())
        tr = synthetic_trace(spec, bar_d=2.0, til_d=0.3, bar_q=-0.5, til_q=0.01)
        m = extract_ripple(tr, spec, discard=0.0)
        assert m.i_bar[0] == pytest.approx(2.0, abs=1e-12)
        assert m.i_tilde[0] == pytest.approx(0.3, abs=1e-12)
        assert m.i_bar[1] == pytest.approx(-0.5, abs=1e-12)
        assert m.i_tilde[1] == pytest.approx(0.01, abs=1e-12)
        assert m.residual_rms[0] < 1e-13
        assert m.n_periods_used == 20

    def test_constant_trace(self):
        spec = InjectionSpec(0, 0, 0.0, 0, OMEGA, Waveform.square())
        tr = synthetic_trace(spec, bar_q=1.25)
        m = extract_ripple(tr, spec, discard=0.0)
        assert m.i_tilde[1] == pytest.approx(0.0, abs=1e-13)
        assert m.i_bar[1] == pytest.approx(1.25, abs=1e-13)

    def test_constant_offset_orthogonality(self):
        # adding a constant moves the mean by that constant and leaves the
        # ripple coefficient untouched
        spec = InjectionSpec(0, 0, 10.0, 0, OMEGA, Waveform.square())
        tr = synthetic_trace(spec, bar_d=1.0, til_d=0.2)
        shifted = Trace(t=tr.t, u=tr.u, i=np.stack([tr.i[0] + 0.77, tr.i[1]]))
        a = extract_ripple(tr, spec, discard=0.0)
        b = extract_ripple(shifted, spec, discard=0.0)
        assert b.i_bar[0] - a.i_bar[0] == pytest.approx(0.77, abs=1e-12)
        assert abs(b.i_tilde[0] - a.i_tilde[0]) < 1e-12

    def test_phase_robustness(self):
        # moving the discard by a non-integer fraction of a period must not
        # move the ripple estimate (whole-period windows keep the fit exact)
        spec = InjectionSpec(0, 0, 10.0, 0, OMEGA, Waveform.square())
        tr = synthetic_trace(spec, n_periods=30, bar_d=1.0, til_d=0.2)
        a = extract_ripple(tr, spec, discard=2.0 * spec.period)
        b = extract_ripple(tr, spec, discard=2.37 * spec.period)
        assert abs(a.i_tilde[0] - b.i_tilde[0]) < 1e-10
        assert abs(a.i_bar[0] - b.i_bar[0]) < 1e-10

    def test_too_short(self):
        spec = InjectionSpec(0, 0, 10.0, 0, OMEGA, Waveform.square())
        tr = synthetic_trace(spec, n_periods=4)
        with pytest.raises(TooShort):
            extract_ripple(tr, spec, discard=2.5 * spec.period)
        with pytest.raises(TooShort):
            extract_ripple(tr, spec, discard=10 * spec.period)
        for discard in (-spec.period, math.nan):
            with pytest.raises(ValueError, match="^discard must be >= 0$"):
                extract_ripple(tr, spec, discard=discard)

    def test_unresolved(self):
        spec = InjectionSpec(0, 0, 10.0, 0, OMEGA, Waveform.square())
        tr = synthetic_trace(spec, n_periods=40, samples_per_period=8)
        with pytest.raises(Unresolved):
            extract_ripple(tr, spec, discard=0.0)

    def test_unbiased_under_noise(self):
        spec = InjectionSpec(0, 0, 10.0, 0, OMEGA, Waveform.square())
        base = synthetic_trace(spec, n_periods=50, bar_d=1.0, til_d=0.3)
        estimates = []
        for seed in range(100):
            noisy = base.with_noise(0.010, seed)
            m = extract_ripple(noisy, spec, discard=0.0)
            estimates.append(m.i_tilde[0])
        estimates = np.array(estimates)
        assert abs(float(np.mean(estimates)) - 0.3) < 1e-3
        assert np.max(np.abs(estimates - 0.3)) < 1e-3

    def test_sigma_tracks_noise_scatter(self):
        # reported standard error should match the seed-to-seed scatter, for
        # a constant mean and for one that drifts as in a run from rest,
        # 0.2 (1 - exp(-t/tau)) A
        spec = InjectionSpec(0, 0, 10.0, 0, OMEGA, Waveform.square())
        base = synthetic_trace(spec, n_periods=50, bar_d=1.0, til_d=0.3)
        traces = [base]
        for tau_periods in (5, 15, 30):
            drift = 0.2 * (1.0 - np.exp(-base.t / (tau_periods * spec.period)))
            traces.append(Trace(t=base.t, u=base.u, i=np.stack([base.i[0] - 1.0 + drift, base.i[1]])))
        for tr in traces:
            estimates, sigmas = [], []
            for seed in range(60):
                m = extract_ripple(tr.with_noise(0.010, seed), spec, discard=0.0)
                estimates.append(m.i_tilde[0])
                sigmas.append(m.sigma_i_tilde[0])
            scatter = float(np.std(estimates))
            sigma = float(np.mean(sigmas))
            assert 0.7 * scatter < sigma < 1.4 * scatter

    def test_validation(self):
        with pytest.raises(ValueError):
            RippleMeasurement(np.zeros(2), np.zeros(2), residual_rms=np.array([-1.0, 0.0]),
                              n_periods_used=3, n_samples=0, sigma_i_tilde=np.zeros(2))
        with pytest.raises(ValueError):
            RippleMeasurement(np.zeros(2), np.zeros(2), residual_rms=np.zeros(2),
                              n_periods_used=0, n_samples=0, sigma_i_tilde=np.zeros(2))


class TestOnSimulatedRuns:
    def test_default_discard_whole_periods(self, ipm):
        spec = InjectionSpec(0, 0, 30.0, 0, OMEGA, Waveform.square())
        d = oracles.default_discard(ipm, spec)
        assert d >= 7.0 * max(ipm.Ld, ipm.Lq) / ipm.R
        assert d / spec.period == pytest.approx(round(d / spec.period), abs=1e-9)

    def test_zero_bias_ripple_matches_linear_limit(self, ipm):
        # at zero bias the ripple is u_tilde/(omega L) up to O(1/omega^2)
        spec = InjectionSpec(0, 0, 30.0, 0, OMEGA, Waveform.square())
        dt = spec.period / 200
        discard = oracles.default_discard(ipm, spec)
        cfg = SimConfig(dt=dt, t_end=discard + 30 * spec.period)
        m = extract_ripple(simulate(ipm, spec, cfg), spec, discard)
        want = 30.0 / (OMEGA * ipm.Ld)
        assert m.i_tilde[0] == pytest.approx(want, rel=2e-3)
        assert abs(m.i_bar[0]) < 1e-3

    def test_extraction_tracks_operating_point_hessian(self, spm):
        # biased run: the measured ripple slope equals the inverse-inductance
        # at the *exact* steady flux; reference via the bisection oracle
        spec = InjectionSpec(23.0, 0, 30.0, 0, OMEGA, Waveform.square())
        dt = spec.period / 200
        discard = oracles.default_discard(spm, spec)
        cfg = SimConfig(dt=dt, t_end=discard + 30 * spec.period)
        m = extract_ripple(simulate(spm, spec, cfg), spec, discard)
        fd, fq = oracles.invert_flux_bisection(spm, 23.0 / spm.R, 0.0)
        h_dd, _, _ = oracles.hessian_fd_oracle(spm, fd, fq)
        assert m.i_tilde[0] == pytest.approx(30.0 * h_dd / OMEGA, rel=5e-3)
        assert m.i_bar[0] == pytest.approx(23.0 / spm.R, rel=1e-3)

    def test_prediction_gap_contracts_when_omega_doubles(self, ipm):
        # extracted ripple approaches the first-order prediction at O(1/omega^2)
        def gap(omega):
            spec = InjectionSpec(0.3 * ipm.R, 0, 30.0, 0, omega, Waveform.square())
            dt = spec.period / 200
            discard = oracles.default_discard(ipm, spec)
            cfg = SimConfig(dt=dt, t_end=discard + 30 * spec.period)
            m = extract_ripple(simulate(ipm, spec, cfg), spec, discard)
            want_d, _ = oracles.ripple_amplitudes_oracle(ipm, 0.3 * ipm.R, 0.0, 30.0, 0.0, omega)
            return abs(m.i_tilde[0] - want_d) * omega  # scale out the 1/omega of i_tilde itself

        gaps = [gap(OMEGA * 2**k) for k in range(3)]
        assert gaps[0] > gaps[1] > gaps[2]
