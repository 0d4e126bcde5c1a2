import dataclasses
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from satpmsm import simulator
from satpmsm.config import load_config
from satpmsm.estimator import plan_runs
from satpmsm.injection import F_array, InjectionSpec, Waveform
from satpmsm.magnetics import (MotorParams, _stacked_currents, energy, flux_from_currents_exact,
                               flux_from_currents_first_order)
from satpmsm.simulator import (
    SimConfig,
    StepTooLarge,
    Trace,
    simulate,
    simulate_averaged,
    simulate_batch,
    simulate_periodic,
)

import oracles

OMEGA_500 = 2 * math.pi * 500.0


def square_spec(u_bar_d=0.0, u_bar_q=0.0, u_tilde_d=0.0, u_tilde_q=0.0, omega=OMEGA_500):
    return InjectionSpec(u_bar_d, u_bar_q, u_tilde_d, u_tilde_q, omega, Waveform.square())


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SimConfig(dt=0.0, t_end=1.0)
        with pytest.raises(ValueError):
            SimConfig(dt=1e-5, t_end=0.0)

    def test_step_too_large(self, ipm):
        spec = square_spec(u_tilde_d=10.0)
        cfg = SimConfig(dt=spec.period / 10, t_end=0.01)
        with pytest.raises(StepTooLarge):
            simulate(ipm, spec, cfg)

    def test_square_alignment_required(self, ipm):
        spec = square_spec(u_tilde_d=10.0)
        cfg = SimConfig(dt=spec.period / 51, t_end=0.01)
        with pytest.raises(ValueError, match="step boundaries"):
            simulate(ipm, spec, cfg)

    def test_sine_period_alignment_required(self, ipm):
        # every period must be the same whole number of steps, whatever the
        # waveform, because the periods are integrated side by side
        spec = InjectionSpec(0.0, 0.0, 10.0, 0.0, OMEGA_500, Waveform.sine())
        dt = spec.period / 200.5
        with pytest.raises(ValueError, match=rf"period {spec.period:.6g}s .* dt={dt:.6g}s"):
            simulate(ipm, spec, SimConfig(dt=dt, t_end=0.01))


def plain_rk4(rows, R, dt, X0, u_bar, u_tilde, f0, fmid, f1, out=None):
    """Reference: classic RK4 of dphi/dt = u - R * i(phi) as plain array
    expressions, each stage's drive computed from its own waveform value."""
    def rhs(X, f):
        return (u_bar + u_tilde * f) - R * _stacked_currents(rows, X)

    X = np.array(X0, dtype=float)
    for k in range(len(fmid)):
        if out is not None:
            out[..., k] = X
        k1 = rhs(X, f0[k])
        k2 = rhs(X + 0.5 * dt * k1, fmid[k])
        k3 = rhs(X + 0.5 * dt * k2, fmid[k])
        k4 = rhs(X + dt * k3, f1[k])
        X = X + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return X


class TestKernel:
    """`_rk4` integrates in buffers it allocates once and reuses a stage's
    drive, or, for a batch of at most `_FLOAT_LANES` lanes, lane by lane in
    Python floats; none of it may change a bit of the result."""

    @pytest.mark.parametrize("waveform", [
        Waveform.square(),
        Waveform.sine(),
        # zeros of both signs, so a drive reused across a sign of zero shows
        Waveform.from_samples([-1.0, -0.0, 0.0, 1.0, 0.5, -0.5]),
        None,
    ], ids=["square", "sine", "sampled", "averaged"])
    # n_lanes lanes, times the chunks: up to `_FLOAT_LANES` lanes in all take
    # the float path, past it the array kernel
    @pytest.mark.parametrize("chunks, n_lanes", [
        pytest.param(chunks, n, id=str(chunks) if n == 6 else f"{chunks}-{n}lanes")
        for n in (6, simulator._FLOAT_LANES, simulator._FLOAT_LANES + 1) for chunks in (None, 3)])
    @pytest.mark.parametrize("stored", [False, True])
    def test_matches_plain_rk4_bitwise(self, ipm, spm, waveform, chunks, n_lanes, stored):
        # lane j repeats lane j % 6 of these, from a start scaled by 1 + j // 6 %
        motors = [ipm, spm, ipm.without_saturation(), spm, ipm, spm]
        # the fifth lane rests at -0.0 under a drive of -0.0 + 0.0 * f, whose
        # zero takes the sign of f: it leaves -0.0 at the first stage whose
        # f is +0.0 or positive. The sixth runs away from 1e100 Wb: its
        # current overflows to inf, and inf - inf makes NaN
        u_bar = np.array([[24.3, -0.0, -8.0, 40.0, -0.0, 5.0], [6.0, 0.0, 12.0, -30.0, -0.0, 5.0]])
        u_tilde = np.array([[30.0, 20.0, 0.0, 25.0, 0.0, 30.0], [0.0, 15.0, 30.0, -10.0, 0.0, 0.0]])
        X0 = np.array([[0.0, 0.05, -0.02, 0.3, -0.0, 1e100], [0.0, -0.01, 0.04, 0.02, -0.0, -3e99]])
        lanes = np.arange(n_lanes) % 6
        rows, R = simulator._lanes([motors[j] for j in lanes])
        u_bar, u_tilde, X0 = u_bar[:, lanes], u_tilde[:, lanes], X0[:, lanes] * (1.0 + 0.01 * (np.arange(n_lanes) // 6))
        spec = InjectionSpec(0.0, 0.0, 1.0, 0.0, OMEGA_500, waveform or Waveform.square())
        dt = spec.period / 60
        if waveform is None:  # the averaged system: no ripple
            u_tilde = np.zeros_like(u_tilde)
            drive = np.zeros(121), np.zeros(120), np.zeros(120)
        else:
            drive = simulator._waveform_arrays(spec, dt, 120)
        if chunks:  # lanes (2, n, P): every operand repeated, one start per chunk
            rows, R, u_bar, u_tilde = (np.repeat(a[..., None], chunks, axis=-1) for a in (rows, R, u_bar, u_tilde))
            X0 = X0[..., None] * np.array([1.0, 0.5, 2.0])
        # the samples go through a strided view, as `_record` passes them
        outs = [np.full(X0.shape + (121,), np.nan)[..., 1:] for _ in range(2)] if stored else [None, None]
        with np.errstate(over="ignore", invalid="ignore"):  # the runaway lane's, on the arrays
            got = simulator._rk4(rows, R, dt, X0, u_bar, u_tilde, *drive, outs[0])
            want = plain_rk4(rows, R, dt, X0, u_bar, u_tilde, *drive, outs[1])
        runaway = lanes == 5
        assert np.all(np.isfinite(want[:, ~runaway])) and np.all(np.isnan(want[:, runaway]))
        assert got.tobytes() == want.tobytes()
        if stored:
            assert outs[0].tobytes() == outs[1].tobytes()
            assert outs[0][..., 0].tobytes() == X0.tobytes()


class TestAgainstLinearAnalytic:
    def test_rl_step_response(self):
        # linear motor under constant d voltage: textbook RL charging curve
        p = MotorParams(R=10.0, Ld=0.1, Lq=0.05)
        spec = square_spec(u_bar_d=1.0)
        dt = spec.period / 200
        tr = simulate(p, spec, SimConfig(dt=dt, t_end=0.05))
        scale = 1.0 / p.R
        for t, i in zip(tr.t[::10], tr.i[0, ::10]):
            want = oracles.rl_step_current(1.0, p.R, p.Ld, t)
            assert abs(i - want) <= 1e-6 * scale
        assert np.all(tr.i[1] == 0.0)

    def test_post_transient_mean_matches_bias_over_R(self, spm):
        # square injection on top of a bias: mean current settles at u_bar/R
        spec = square_spec(u_bar_d=23.0, u_tilde_d=30.0)
        dt = spec.period / 200
        cfg = SimConfig(dt=dt, t_end=0.24)
        tr = simulate(spm, spec, cfg)
        n_per = 200
        window = tr.i[0, -40 * n_per - 1:-1]
        mean = float(np.mean(window))
        want = 23.0 / 6.69  # = 3.438... from the drive voltage and resistance
        assert abs(mean - want) <= 1e-3 * want


class TestSymmetryAndDeterminism:
    def test_mirror_symmetry_bitwise(self, ipm):
        # mirroring the q drive about the d axis mirrors the whole trajectory
        # from rest, bit for bit
        spec = square_spec(u_bar_d=3.0, u_bar_q=2.0, u_tilde_d=8.0, u_tilde_q=5.0)
        mirrored = square_spec(u_bar_d=3.0, u_bar_q=-2.0, u_tilde_d=8.0, u_tilde_q=-5.0)
        cfg = SimConfig(dt=spec.period / 200, t_end=0.02)
        run, run_m = simulate_batch(ipm, [spec], cfg), simulate_batch(ipm, [mirrored], cfg)
        (tr,), (tr_m,) = run, run_m
        assert np.array_equal(tr.i[0], tr_m.i[0])
        assert np.array_equal(tr.i[1], -tr_m.i[1])
        assert np.array_equal(run.flux[1], -run_m.flux[1])
        assert np.array_equal(run.flux[0], run_m.flux[0])

    def test_same_seed_reproduces(self, ipm):
        spec = square_spec(u_tilde_d=20.0)
        clean = simulate(ipm, spec, SimConfig(dt=spec.period / 200, t_end=0.02))
        a, b, c = (clean.with_noise(0.01, seed) for seed in (42, 42, 43))
        assert np.array_equal(a.i[0], b.i[0])
        assert not np.array_equal(a.i[0], c.i[0])
        # noise never touches the voltages or the time axis
        for name in ("t", "u"):
            assert np.array_equal(getattr(a, name), getattr(clean, name)), name

    def test_with_noise_refuses_negative_amplitude(self, ipm):
        spec = square_spec(u_tilde_d=20.0)
        clean = simulate(ipm, spec, SimConfig(dt=spec.period / 200, t_end=0.002))
        assert clean.with_noise(0.0, 1) is clean
        with pytest.raises(ValueError, match="noise amplitude must be >= 0"):
            clean.with_noise(-0.01, 1)

    @pytest.mark.parametrize("amp", [math.nan, math.inf])
    def test_with_noise_refuses_non_finite_amplitude(self, ipm, amp):
        spec = square_spec(u_tilde_d=20.0)
        clean = simulate(ipm, spec, SimConfig(dt=spec.period / 200, t_end=0.002))
        with pytest.raises(ValueError, match=f"^noise amplitude must be finite, got {amp}$"):
            clean.with_noise(amp, 1)

    def test_batch_matches_single(self, ipm):
        s1 = square_spec(u_bar_d=2.0, u_tilde_d=20.0)
        s2 = square_spec(u_bar_q=4.0, u_tilde_q=15.0)
        cfg = SimConfig(dt=s1.period / 200, t_end=0.015)
        batch = simulate_batch(ipm, [s1, s2], cfg)
        alone = [simulate(ipm, s1, cfg), simulate(ipm, s2, cfg)]
        for b, a in zip(batch, alone):
            assert np.array_equal(b.i[0], a.i[0])
            assert np.array_equal(b.i[1], a.i[1])
        # the averaged system mixes motors per lane: saturated, linear and a
        # different-R lane in one batch match each lane run alone
        lanes = [(ipm, (10.0, 5.0)), (ipm.without_saturation(), (10.0, 5.0)),
                 (dataclasses.replace(ipm, R=2 * ipm.R), (-8.0, 3.0))]
        cfg = SimConfig(dt=1e-5, t_end=0.01)
        batch = simulate_averaged([p for p, _ in lanes], [u for _, u in lanes], cfg)
        for j, (b, (p, u)) in enumerate(zip(batch, lanes)):
            alone = simulate_averaged([p], [u], cfg)
            for name in ("t", "u", "i"):
                assert np.array_equal(getattr(b, name), getattr(alone[0], name)), name
            assert np.array_equal(batch.flux[:, j], alone.flux[:, 0])

    def test_batch_requires_common_omega(self, ipm):
        s1 = square_spec(u_tilde_d=10.0, omega=OMEGA_500)
        s2 = square_spec(u_tilde_d=10.0, omega=2 * OMEGA_500)
        cfg = SimConfig(dt=s1.period / 200, t_end=0.01)
        with pytest.raises(ValueError):
            simulate_batch(ipm, [s1, s2], cfg)
        # the averaged batch takes one mean voltage pair per lane's motor
        with pytest.raises(ValueError, match="^need one mean voltage pair per motor$"):
            simulate_averaged([ipm, ipm], [(1.0, 0.0)], cfg)

    def test_no_runs_is_an_empty_record(self, ipm):
        cfg = SimConfig(dt=1e-5, t_end=0.01)
        for record in (simulate_batch(ipm, [], cfg), simulate_averaged([], [], cfg), simulate_periodic(ipm, [])):
            assert len(record) == 0 and record.flux.shape[:2] == (2, 0)


def sequential_currents(p, specs, cfg):
    """Reference: the currents (2, n, steps + 1) of the runs integrated from
    rest one step after the other, by the same RK4 kernel."""
    rows, _ = simulator._lanes([p] * len(specs))
    return _stacked_currents(rows[..., None], sequential_flux(p, specs, cfg))


def sequential_flux(p, specs, cfg):
    """Reference: the flux record (2, n, steps + 1) of the runs integrated
    from rest one step after the other, by the same RK4 kernel."""
    u_bar, u_tilde = simulator._stacked_drive(specs, cfg.dt)
    n_steps = round(cfg.t_end / cfg.dt)
    rows, R = simulator._lanes([p] * len(specs))
    phi = np.empty((2, len(specs), n_steps + 1))
    phi[..., -1] = simulator._rk4(rows, R, cfg.dt, np.zeros(u_bar.shape), u_bar, u_tilde,
                                  *simulator._waveform_arrays(specs[0], cfg.dt, n_steps), phi[..., :-1])
    return phi


def from_rest(p, spec, dt, n_steps, u_bar, u_tilde):
    """The flux and current records (2, n, n_steps + 1) of `_record`'s runs
    of motor p from rest under spec's waveform, and its number of fine
    sweeps."""
    traces, sweeps = simulator._record(p, spec, dt, n_steps, u_bar, u_tilde)
    return (traces.flux, batch_currents(traces)), sweeps


def batch_currents(traces):
    return np.array([[tr.i[0] for tr in traces], [tr.i[1] for tr in traces]])


class TestPeriodParallel:
    """`simulate_batch` integrates the periods side by side (parareal) where
    that pays, and sequentially elsewhere; either way it must reproduce the
    sequential integration up to rounding."""

    @pytest.mark.parametrize("name", ["ipm", "spm"])
    def test_fixture_plan_matches_sequential(self, name):
        config = load_config(Path(__file__).resolve().parents[1] / "configs" / f"{name}.cfg")
        specs = [r.spec for r in plan_runs(config.plan, config.motor.R)]
        period = specs[0].period
        cfg = SimConfig(dt=period / config.steps_per_period, t_end=config.measure_periods * period)
        assert config.measure_periods == 25
        want = sequential_currents(config.motor, specs, cfg)
        got = batch_currents(simulate_batch(config.motor, specs, cfg))
        assert np.max(np.abs(got - want)) <= 1e-12
        # the fixtures run parareal, and the shipped coarse step converges
        # in two fine sweeps on both; every flux record is within 1e-13 Wb
        # of one sequential pass
        u_bar, u_tilde = simulator._stacked_drive(specs, cfg.dt)
        (phi, _), sweeps = from_rest(config.motor, specs[0], cfg.dt, want.shape[-1] - 1, u_bar, u_tilde)
        assert sweeps == 2
        assert np.max(np.abs(phi - sequential_flux(config.motor, specs, cfg))) <= 1e-13

    @pytest.mark.parametrize("name", ["ipm", "spm"])
    def test_fixture_plan_coarse_work(self, name, rk4_calls):
        # the fixtures' square wave runs in quarter periods: one coarse pass
        # of 3 steps per quarter predicts the 4P - 1 later quarter starts, n
        # lanes wide, and four calls of a quarter from the finite-difference
        # starts of a quarter of them each give their Jacobians, at most 2n P
        # lanes wide; the correction is linear, with no coarse call, and the
        # second of two fine sweeps of a quarter period finds every record
        # continuous
        config = load_config(Path(__file__).resolve().parents[1] / "configs" / f"{name}.cfg")
        specs = [r.spec for r in plan_runs(config.plan, config.motor.R)]
        period = specs[0].period
        simulate_batch(config.motor, specs, SimConfig(dt=period / config.steps_per_period,
                                                      t_end=config.measure_periods * period))
        K, n = 4 * config.measure_periods, len(specs)
        P = config.measure_periods
        assert rk4_calls == ([(3 * (K - 1), (n,))] + [(3, (2 * n * P,))] * 3 + [(3, (2 * n * (P - 1),))]
                             + [(config.steps_per_period // 4, (n, K))] * 2)

    @pytest.mark.parametrize("name, tol_share", [("ipm", 0.1), ("spm", 0.25)])
    def test_fixture_plan_jumps_margin(self, name, tol_share):
        # the jumps of every record after its last sweep, summed, sit well
        # under `_PARAREAL_TOL`, so a shrinking margin shows before it costs
        # a third sweep. SPM's 1.6-1.8 Wb d fluxes put its rounding floor,
        # 1 to 10 ulp per boundary, near 1.8e-14 Wb
        config = load_config(Path(__file__).resolve().parents[1] / "configs" / f"{name}.cfg")
        specs = [r.spec for r in plan_runs(config.plan, config.motor.R)]
        spp, dt = config.steps_per_period, specs[0].period / config.steps_per_period
        u_bar, u_tilde = simulator._stacked_drive(specs, dt)
        (phi, _), _ = from_rest(config.motor, specs[0], dt, config.measure_periods * spp, u_bar, u_tilde)
        # F(U[p]) is the last step of period p taken again from its sample
        rows, R = simulator._lanes([config.motor] * len(specs))
        last = (f[spp - 1:] for f in simulator._waveform_arrays(specs[0], dt, spp))
        ends = simulator._rk4(rows[..., None], R[..., None], dt, phi[..., spp - 1:-1:spp], u_bar[..., None],
                              u_tilde[..., None], *last)
        jumps = np.sum(np.abs(ends - phi[..., spp::spp]), axis=(0, 2))
        assert np.max(jumps) <= tol_share * simulator._PARAREAL_TOL

    @pytest.mark.parametrize("name, tol_share", [("ipm", 0.1), ("spm", 0.5)])
    def test_fixture_plan_chunk_jumps_margin(self, name, tol_share):
        # the fixtures run in quarter periods: their jumps, summed over all
        # 99 quarter boundaries after the last sweep, read 5.9e-15 Wb (IPM)
        # and 3.65e-14 Wb (SPM), 1.7 and 1.4 times under these shares of
        # `_PARAREAL_TOL`
        config = load_config(Path(__file__).resolve().parents[1] / "configs" / f"{name}.cfg")
        specs = [r.spec for r in plan_runs(config.plan, config.motor.R)]
        spp, dt = config.steps_per_period, specs[0].period / config.steps_per_period
        n_steps = config.measure_periods * spp
        u_bar, u_tilde = simulator._stacked_drive(specs, dt)
        (phi, _), _ = from_rest(config.motor, specs[0], dt, n_steps, u_bar, u_tilde)
        # F(U[k]) is the last step of chunk k taken again from its sample
        rows, R = simulator._lanes([config.motor] * len(specs))
        drive = simulator._waveform_arrays(specs[0], dt, n_steps)
        ends = np.stack([simulator._rk4(rows, R, dt, phi[..., s], u_bar, u_tilde, *(f[s:s + 1] for f in drive))
                         for s in range(spp // 4 - 1, n_steps - 1, spp // 4)], axis=-1)
        jumps = np.sum(np.abs(ends - phi[..., spp // 4:-1:spp // 4]), axis=(0, 2))
        assert np.max(jumps) <= tol_share * simulator._PARAREAL_TOL

    @pytest.mark.parametrize("waveform, spp, chunks", [
        (Waveform.sine(), 200, 1),
        (Waveform.from_samples(np.sin(2 * math.pi * np.arange(64) / 64)
                               + 0.3 * np.cos(6 * math.pi * np.arange(64) / 64)), 200, 1),
        (Waveform.square(), 50, 1),
        (Waveform.square(), 200, 4),
    ], ids=["sine", "sampled", "square-50", "square-200"])
    def test_chunk_rule(self, ipm, rk4_calls, waveform, spp, chunks):
        # a square wave whose quarter period is whole steps runs in quarters;
        # every other drive runs in whole periods: a continuous one, the
        # sampled one here, though it is odd over a half period up to
        # rounding, and a square wave whose quarter period falls between two
        # steps. Either chunk takes its share of the coarse period map's
        # steps
        specs = [InjectionSpec(u_d, u_q, 20.0, 10.0, OMEGA_500, waveform)
                 for u_d, u_q in ((0.0, 0.0), (12.0, -6.0), (-20.0, 15.0))]
        cfg = SimConfig(dt=specs[0].period / spp, t_end=12 * specs[0].period)
        u_bar, u_tilde = simulator._stacked_drive(specs, cfg.dt)
        (_, i), sweeps = from_rest(ipm, specs[0], cfg.dt, 12 * spp, u_bar, u_tilde)
        K, n = 12 * chunks, len(specs)
        coarse_steps, w = simulator._PARAREAL_COARSE_STEPS // chunks, K // 4  # K - 1 starts' Jacobians in 4 calls
        assert rk4_calls == ([(coarse_steps * (K - 1), (n,))] + [(coarse_steps, (2 * n * w,))] * 3
                             + [(coarse_steps, (2 * n * (w - 1),)), *[(spp // chunks, (n, K))] * sweeps])
        assert np.max(np.abs(i - sequential_currents(ipm, specs, cfg))) <= 1e-12

    @pytest.mark.parametrize("waveform", [
        Waveform.sine(),
        Waveform.from_samples(np.sin(2 * math.pi * np.arange(64) / 64) + 0.3 * np.cos(6 * math.pi * np.arange(64) / 64)),
    ], ids=["sine", "sampled"])
    def test_continuous_drives_match_sequential(self, ipm, waveform):
        specs = [InjectionSpec(u_d, u_q, 20.0, 10.0, OMEGA_500, waveform)
                 for u_d, u_q in ((0.0, 0.0), (12.0, -6.0), (-20.0, 15.0))]
        cfg = SimConfig(dt=specs[0].period / 200, t_end=12 * specs[0].period)
        got = batch_currents(simulate_batch(ipm, specs, cfg))
        assert np.max(np.abs(got - sequential_currents(ipm, specs, cfg))) <= 1e-12

    def test_fewest_periods_on_parareal(self, ipm, rk4_calls):
        # 4 whole periods of a sine, one more than the sweep cap: parareal
        # takes the coarse Jacobians at 3 period starts, one call each
        specs = [InjectionSpec(u_d, u_q, 20.0, 10.0, OMEGA_500, Waveform.sine())
                 for u_d, u_q in ((0.0, 0.0), (12.0, -6.0))]
        cfg = SimConfig(dt=specs[0].period / 200, t_end=4 * specs[0].period)
        u_bar, u_tilde = simulator._stacked_drive(specs, cfg.dt)
        (_, i), sweeps = from_rest(ipm, specs[0], cfg.dt, 4 * 200, u_bar, u_tilde)
        coarse_steps = simulator._PARAREAL_COARSE_STEPS
        assert rk4_calls[:4] == [(3 * coarse_steps, (2,))] + [(coarse_steps, (4,))] * 3 and sweeps > 0
        assert np.max(np.abs(i - sequential_currents(ipm, specs, cfg))) <= 1e-12

    @pytest.mark.parametrize("max_sweeps, alone_sweeps", [(3, [2, 3]), (2, [2, 2])])
    def test_run_comes_out_as_alone(self, spm, monkeypatch, max_sweeps, alone_sweeps):
        # at 120 Hz the second run needs 3 fine sweeps, the first 2; with a
        # cap of 2 sweeps the second finishes sequentially instead. Either
        # way the first keeps its starts while the loop runs on, and both
        # come out of the batch bit for bit as they do alone
        monkeypatch.setattr(simulator, "_PARAREAL_MAX_SWEEPS", max_sweeps)
        specs = [square_spec(u_tilde_d=30.0, omega=OMEGA_500 * 0.24),
                 square_spec(u_bar_d=-20.0, u_bar_q=15.0, u_tilde_d=30.0, omega=OMEGA_500 * 0.24)]
        cfg = SimConfig(dt=specs[0].period / 200, t_end=10 * specs[0].period)
        u_bar, u_tilde = simulator._stacked_drive(specs, cfg.dt)
        alone = [from_rest(spm, specs[0], cfg.dt, 2000, u_bar[:, j:j + 1], u_tilde[:, j:j + 1])
                 for j in range(2)]
        assert [sweeps for _, sweeps in alone] == alone_sweeps
        (phi, i), sweeps = from_rest(spm, specs[0], cfg.dt, 2000, u_bar, u_tilde)
        assert sweeps == max(alone_sweeps)
        for j, ((phi_j, _), _) in enumerate(alone):
            assert np.array_equal(phi[:, j], phi_j[:, 0])
        assert np.max(np.abs(i - sequential_currents(spm, specs, cfg))) <= 1e-12

    def test_one_sweep_writes_its_samples(self, spm, monkeypatch):
        # the first sweep writes its samples too. With a cap of one sweep,
        # period 0 is that sweep's and the rest follows sequentially from its
        # end: a square wave repeats its step values, so the record is bit
        # for bit one pass
        monkeypatch.setattr(simulator, "_PARAREAL_MAX_SWEEPS", 1)
        specs = [square_spec(u_bar_d=-8.0, u_tilde_d=30.0), square_spec(u_bar_q=10.0, u_tilde_q=25.0)]
        cfg = SimConfig(dt=specs[0].period / 200, t_end=10 * specs[0].period)
        u_bar, u_tilde = simulator._stacked_drive(specs, cfg.dt)
        (phi, _), sweeps = from_rest(spm, specs[0], cfg.dt, 2000, u_bar, u_tilde)
        assert sweeps == 1
        assert phi.tobytes() == sequential_flux(spm, specs, cfg).tobytes()

    @pytest.mark.parametrize("omega, periods", [(2 * math.pi * 5.0, 25), (2 * math.pi * 240.0, 25),
                                                (OMEGA_500, 2), (OMEGA_500, 3)],
                             ids=["5Hz", "240Hz", "2-periods", "3-periods"])
    def test_sequential_where_parareal_cannot_pay(self, ipm, omega, periods):
        # at 5 Hz a period spans 53 unsaturated time constants of the IPM
        # motor, where the coarse propagator is unstable. At 240 Hz it still
        # spans 1.1 of them and fails `_coarse_fits`. A record of no more
        # whole periods than the sweep cap leaves nothing to gain. All
        # integrate sequentially, exactly as the reference
        specs = [square_spec(u_tilde_d=30.0, omega=omega), square_spec(u_bar_d=20.0, u_tilde_q=30.0, omega=omega)]
        cfg = SimConfig(dt=specs[0].period / 200, t_end=periods * specs[0].period)
        u_bar, u_tilde = simulator._stacked_drive(specs, cfg.dt)
        (_, i), sweeps = from_rest(ipm, specs[0], cfg.dt, periods * 200, u_bar, u_tilde)
        assert sweeps == 0
        assert np.array_equal(i, sequential_currents(ipm, specs, cfg))

    def test_diverging_coarse_propagator_stays_exact(self, ipm, monkeypatch):
        # forced onto parareal at 5 Hz, the coarse propagator overflows: no
        # run converges, and each finishes sequentially from its last start
        # that no coarse value entered
        monkeypatch.setattr(simulator, "_coarse_fits", lambda p, period: True)
        omega = 2 * math.pi * 5.0
        specs = [square_spec(u_tilde_d=30.0, omega=omega), square_spec(u_bar_d=20.0, u_tilde_q=30.0, omega=omega)]
        cfg = SimConfig(dt=specs[0].period / 200, t_end=25 * specs[0].period)
        u_bar, u_tilde = simulator._stacked_drive(specs, cfg.dt)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            (_, i), sweeps = from_rest(ipm, specs[0], cfg.dt, 5000, u_bar, u_tilde)
        assert sweeps == simulator._PARAREAL_MAX_SWEEPS
        assert np.all(np.isfinite(i))
        assert np.max(np.abs(i - sequential_currents(ipm, specs, cfg))) <= 1e-12

    @pytest.mark.parametrize("periods", [0.5, 1.0, 7.5])
    def test_trailing_part_period(self, spm, periods):
        # 7.5 periods: 7 side by side, then half a period from the 7th's end;
        # a period or less runs sequentially
        specs = [square_spec(u_bar_d=-8.0, u_tilde_d=30.0), square_spec(u_bar_q=10.0, u_tilde_q=25.0)]
        cfg = SimConfig(dt=specs[0].period / 200, t_end=periods * specs[0].period)
        traces = simulate_batch(spm, specs, cfg)
        want = sequential_currents(spm, specs, cfg)
        assert [len(tr.t) for tr in traces] == [round(periods * 200) + 1] * 2
        assert np.max(np.abs(batch_currents(traces) - want)) <= 1e-12


class TestAveragingOrder:
    @staticmethod
    def steady_gap(p, u_bar_d, u_bar_q, u_tilde_d, u_tilde_q, omega):
        """Sup over one steady period of |i_d - (i_bar_d + i_tilde_d*F)|."""
        spec = square_spec(u_bar_d, u_bar_q, u_tilde_d, u_tilde_q, omega)
        dt = spec.period / 200
        tau_el = 7.0 * max(p.Ld, p.Lq) / p.R
        n_settle = int(np.ceil(tau_el / spec.period)) + 40
        cfg = SimConfig(dt=dt, t_end=(n_settle + 1) * spec.period)
        tr = simulate(p, spec, cfg)
        i_bar_d = u_bar_d / p.R
        it_d, _ = oracles.ripple_amplitudes_oracle(p, u_bar_d, u_bar_q, u_tilde_d, u_tilde_q, omega)
        sl = slice(-201, None)
        model = i_bar_d + it_d * F_array(spec.waveform, omega * tr.t[sl])
        return float(np.max(np.abs(tr.i[0, sl] - model)))

    def test_current_gap_contracts_quadratically(self, ipm):
        gaps = [self.steady_gap(ipm, 0.0, 0.0, 30.0, 0.0, OMEGA_500 * 2**k) for k in range(3)]
        assert 3.0 <= gaps[0] / gaps[1] <= 5.0
        assert 3.0 <= gaps[1] / gaps[2] <= 5.0

    def test_current_gap_contracts_with_bias(self, ipm):
        gaps = [self.steady_gap(ipm, 0.3 * ipm.R, 0.3 * ipm.R, 30.0, 0.0, OMEGA_500 * 2**k)
                for k in range(3)]
        assert 3.0 <= gaps[0] / gaps[1] <= 5.0
        assert 3.0 <= gaps[1] / gaps[2] <= 5.0

    def test_flux_trajectory_form(self, ipm):
        # |phi_d - phi_bar_d - (u_tilde_d/omega) F| shrinks ~4x per doubling
        def flux_gap(omega):
            spec = square_spec(u_bar_d=0.0, u_tilde_d=30.0, omega=omega)
            dt = spec.period / 200
            tau_el = 7.0 * max(ipm.Ld, ipm.Lq) / ipm.R
            n_settle = int(np.ceil(tau_el / spec.period)) + 40
            cfg = SimConfig(dt=dt, t_end=(n_settle + 1) * spec.period)
            run = simulate_batch(ipm, [spec], cfg)
            sl = slice(-201, None)
            model = (30.0 / omega) * F_array(spec.waveform, omega * run[0].t[sl])
            return float(np.max(np.abs(run.flux[0, 0, sl] - model)))

        gaps = [flux_gap(OMEGA_500 * 2**k) for k in range(3)]
        assert 3.0 <= gaps[0] / gaps[1] <= 5.0
        assert 3.0 <= gaps[1] / gaps[2] <= 5.0


class TestNumericalQuality:
    def test_step_halving_sine(self, ipm):
        spec = InjectionSpec(5.0, 0.0, 20.0, 10.0, OMEGA_500, Waveform.sine())
        dt = spec.period / 200
        a = simulate(ipm, spec, SimConfig(dt=dt, t_end=0.02))
        b = simulate(ipm, spec, SimConfig(dt=dt / 2, t_end=0.02))
        scale = float(np.max(np.abs(a.i[0])))
        assert np.max(np.abs(a.i[0] - b.i[0, ::2])) <= 1e-8 * scale
        assert np.max(np.abs(a.i[1] - b.i[1, ::2])) <= 1e-8 * scale

    def test_dissipation_monotone(self, ipm, spm):
        # under a constant drive u the averaged system dissipates
        # V = H(phi) - phi.u/R at the rate dV/dt = -R |i - u/R|^2, so from
        # rest V falls at every sample still away from the steady current
        for p, i_bar in ((ipm, (1.5, -1.0)), (spm, (4.0, 2.0))):
            u = (p.R * i_bar[0], p.R * i_bar[1])
            t_end = 6.0 * max(p.Ld, p.Lq) / p.R
            run = simulate_averaged([p], [u], SimConfig(dt=t_end / 2000, t_end=t_end))
            (tr,), (phi_d, phi_q) = run, run.flux[:, 0]
            V = energy(p, np.array([phi_d, phi_q]))
            V -= (phi_d * u[0] + phi_q * u[1]) / p.R
            live = np.hypot(tr.i[0] - i_bar[0], tr.i[1] - i_bar[1]) > 1e-5
            assert live[:-1].any()
            assert np.all(np.diff(V)[live[:-1]] < 0)


class TestSampledWaveformPath:
    def test_dense_sampled_sine_matches_builtin(self, ipm):
        # a finely sampled sine driven through the user-waveform path stays
        # close to the analytic sine path
        n = 2048
        samples = np.sin(2 * math.pi * (np.arange(n) + 0.5) / n)
        samples -= samples.mean()
        sampled = Waveform.from_samples(samples)
        dt_ref = (2 * math.pi / OMEGA_500) / 200
        cfg = SimConfig(dt=dt_ref, t_end=0.02)
        spec_s = InjectionSpec(3.0, 0.0, 20.0, 0.0, OMEGA_500, sampled)
        spec_b = InjectionSpec(3.0, 0.0, 20.0, 0.0, OMEGA_500, Waveform.sine())
        tr_s = simulate(ipm, spec_s, cfg)
        tr_b = simulate(ipm, spec_b, cfg)
        # the phase offset of the half-cell sample grid dominates the gap
        scale = float(np.max(np.abs(tr_b.i[0])))
        assert np.max(np.abs(tr_s.i[0] - tr_b.i[0])) < 2e-3 * scale

    def test_ripple_extraction_on_sampled_waveform(self, ipm):
        from satpmsm.ripple import extract_ripple
        n = 512
        samples = np.sin(2 * math.pi * np.arange(n) / n)
        samples -= samples.mean()
        w = Waveform.from_samples(samples)
        spec = InjectionSpec(0.0, 0.0, 20.0, 0.0, OMEGA_500, w)
        discard = oracles.default_discard(ipm, spec)
        cfg = SimConfig(dt=spec.period / 200, t_end=discard + 20 * spec.period)
        meas = extract_ripple(simulate(ipm, spec, cfg), spec, discard)
        # zero bias: ripple coefficient is u_tilde/(omega Ld) up to O(1/omega^2)
        assert meas.i_tilde[0] == pytest.approx(20.0 / (OMEGA_500 * ipm.Ld), rel=5e-3)


class TestAveragedSystem:
    def test_zero_input_stays_at_zero(self, ipm):
        cfg = SimConfig(dt=1e-5, t_end=0.01)
        assert np.all(simulate_averaged([ipm], [(0.0, 0.0)], cfg).flux == 0.0)

    def test_linear_steady_state(self):
        # pure exponential settling: 16 time constants for the 1e-6 margin
        p = MotorParams(R=10.0, Ld=0.1, Lq=0.05)
        cfg = SimConfig(dt=1e-5, t_end=16 * p.Ld / p.R)
        phi = simulate_averaged([p], [(5.0, 0.0)], cfg).flux
        assert phi[0, 0, -1] == pytest.approx(p.Ld * 0.5, abs=1e-6)

    def test_saturated_steady_state_vs_exact_inversion(self, ipm):
        cfg = SimConfig(dt=1e-5, t_end=10 * ipm.Ld / ipm.R)
        phi = simulate_averaged([ipm], [(12.15 * 1.0, 0.0)], cfg).flux
        want_d, want_q = flux_from_currents_exact(ipm, np.array([1.0, 0.0]))
        assert abs(phi[0, 0, -1] - want_d) <= 1e-6
        assert abs(phi[1, 0, -1] - want_q) <= 1e-6


def sequential_averaged(motors, u_bar, cfg):
    """Reference: the currents (2, n, steps + 1) of the averaged system of
    each lane from rest, integrated one step after the other by one plain
    `_rk4` pass."""
    n_steps = round(cfg.t_end / cfg.dt)
    u = np.array(u_bar, dtype=float).T
    rows, R = simulator._lanes(motors)
    phi = np.empty((2, len(motors), n_steps + 1))
    phi[..., -1] = simulator._rk4(rows, R, cfg.dt, np.zeros(u.shape), u, np.zeros(u.shape), np.zeros(n_steps + 1),
                                  np.zeros(n_steps), np.zeros(n_steps), phi[..., :-1])
    return _stacked_currents(rows[..., None], phi)


class TestChunkedAveraged:
    """`simulate_averaged` integrates all lanes in one `_rk4` pass from rest,
    whatever their time constants: bit for bit the sequential reference,
    and every lane as it comes out alone."""

    @pytest.mark.parametrize("name", ["ipm", "spm"])
    def test_step_responses_are_one_sequential_pass(self, name, rk4_calls):
        from satpmsm.validation import _STEP_SAMPLES, step_response
        config = load_config(Path(__file__).resolve().parents[1] / "configs" / f"{name}.cfg")
        p, volts, t_end = config.motor, config.step_volts, config.step_t_end
        results = step_response(p, volts, t_end)
        assert rk4_calls == [(_STEP_SAMPLES, (4,))]
        motors = [p] * len(volts) + [p.without_saturation()] * len(volts)
        cfg = SimConfig(dt=t_end / _STEP_SAMPLES, t_end=t_end)
        want = sequential_averaged(motors, [(u, 0.0) for u in volts] * 2, cfg)
        got = batch_currents([r.saturated for r in results] + [r.linear for r in results])
        assert np.array_equal(got, want)

    def test_lanes_of_different_chunks_come_out_as_alone(self, ipm, spm):
        # four motors of three shortest time constants (ipm and its linear
        # twin share one): every lane of the mixed batch is bit for bit the
        # lane run alone, in input order, and the sequential reference
        lanes = [(spm, (53.5, 0.0)), (ipm, (24.3, 0.0)), (dataclasses.replace(ipm, R=2 * ipm.R), (-8.0, 3.0)),
                 (ipm.without_saturation(), (24.3, 0.0))]
        cfg = SimConfig(dt=4e-5, t_end=0.12)
        batch = simulate_averaged([p for p, _ in lanes], [u for _, u in lanes], cfg)
        for j, (b, (p, u)) in enumerate(zip(batch, lanes)):
            alone = simulate_averaged([p], [u], cfg)
            for name in ("t", "u", "i"):
                assert np.array_equal(getattr(b, name), getattr(alone[0], name)), name
            assert np.array_equal(batch.flux[:, j], alone.flux[:, 0])
        want = sequential_averaged([p for p, _ in lanes], [u for _, u in lanes], cfg)
        assert np.array_equal(batch_currents(batch), want)


class TestOrbitRecord:
    @pytest.mark.parametrize("angle", [0.0, 60.0, 180.0, 270.0])
    def test_both_periods_in_one_pass_are_the_sequential_record(self, spm, angle, rk4_calls):
        # `simulate_periodic` records its first period as the Newton
        # residual that confirmed phi, at the runs' own width, and the second
        # from that period's end: byte for byte the 400 steps from phi in one
        # pass, signs of zero included
        a = math.radians(angle)
        specs = [square_spec(spm.R * m * math.cos(a), spm.R * m * math.sin(a), u_tilde_d=40.0)
                 for m in (0.0, 0.5, 2.0, 5.5)]
        traces = simulate_periodic(spm, specs)
        assert rk4_calls[-2:] == [(200, (len(specs),))] * 2
        u_bar, u_tilde = simulator._stacked_drive(specs, specs[0].period / 200)
        rows, R = simulator._lanes([spm] * len(specs))
        phi = np.empty((2, len(specs), 401))
        phi[..., 0] = traces.flux[..., 0]
        phi[..., -1] = simulator._rk4(rows, R, specs[0].period / 200, phi[..., 0], u_bar, u_tilde,
                                      *simulator._waveform_arrays(specs[0], specs[0].period / 200, 400),
                                      phi[..., :-1])
        i = _stacked_currents(rows[..., None], phi)
        assert traces.flux.tobytes() == phi.tobytes()
        for j, tr in enumerate(traces):
            for got, want in ((tr.i[0], i[0, j]), (tr.i[1], i[1, j])):
                assert got.tobytes() == want.tobytes()


class TestCoarseFirstShooting:
    """`simulate_periodic` runs its Newton shooting on the coarse period map
    first, where the period fits, then on the fine map from there."""

    def test_fine_only_where_a_coarse_step_does_not_fit(self, ipm, rk4_calls):
        # at 25 Hz a period spans about 11 time constants of the IPM motor:
        # no coarse period map, only fine Newton steps
        specs = [square_spec(ipm.R * m, u_tilde_d=30.0, omega=2 * math.pi * 25.0) for m in (0.0, 1.0, 2.0)]
        assert not simulator._coarse_fits(ipm, specs[0].period)
        simulate_periodic(ipm, specs)
        assert rk4_calls and all(steps != simulator._PARAREAL_COARSE_STEPS for steps, _ in rk4_calls)

    def test_run_whose_coarse_newton_fails_leaves_the_others_as_alone(self, ipm, rk4_calls):
        # at 400 Hz the coarse Newton of the 9 A run on the d axis exhausts
        # its steps, so that run starts the fine map from its warm start; the
        # others start it from their coarse orbits. Every run comes out of
        # the batch bit for bit as it does alone
        a = math.radians(60.0)
        specs = [square_spec(ipm.R * m * math.cos(a), ipm.R * m * math.sin(a), u_tilde_d=30.0,
                             omega=2 * math.pi * 400.0) for m in (1.0, 0.0)]
        specs.insert(1, square_spec(ipm.R * 9.0, u_tilde_d=30.0, omega=2 * math.pi * 400.0))
        alone, coarse_steps, fine_steps = [], [], []
        for spec in specs:
            rk4_calls.clear()
            alone.append(simulate_periodic(ipm, [spec]))
            coarse = sum(steps == simulator._PARAREAL_COARSE_STEPS for steps, _ in rk4_calls)
            assert (coarse == simulator._SHOOT_MAX_ITER) == (spec is specs[1])
            coarse_steps.append(coarse)
            fine_steps.append(len(rk4_calls) - coarse - 1)  # the last call is the record's second period
        rk4_calls.clear()
        batch = simulate_periodic(ipm, specs)
        # a Newton step integrates the runs still open and their
        # finite-difference lanes: on the coarse map every run has two, on
        # the fine map only the failing run. So once the two converging runs
        # are done, each call carries the failing run's three lanes alone
        assert rk4_calls == (
            [(simulator._PARAREAL_COARSE_STEPS, (3 * sum(c > k for c in coarse_steps),))
             for k in range(max(coarse_steps))]
            + [(200, (sum(f > k for f in fine_steps) + 2 * (fine_steps[1] > k),)) for k in range(max(fine_steps))]
            + [(200, (len(specs),))])
        done = max(coarse_steps[0], coarse_steps[2])
        assert coarse_steps[1] > done and rk4_calls[done:coarse_steps[1]] == [
            (simulator._PARAREAL_COARSE_STEPS, (3,))] * (coarse_steps[1] - done)
        for j, (a, b) in enumerate(zip(alone, batch)):
            for name in ("t", "u", "i"):
                assert getattr(a[0], name).tobytes() == getattr(b, name).tobytes(), name
            assert a.flux[:, 0].tobytes() == batch.flux[:, j].tobytes()
        # the fine orbit is the periodic steady state all the same
        for a in alone:
            assert np.all(np.abs(a.flux[:, 0, 200] - a.flux[:, 0, 0]) <= 1e-12)

    def test_lane_comes_out_as_alone_whatever_motor_its_neighbours_carry(self, ipm, spm, rk4_calls):
        # `_shoot` reads every run's motor from its own lane: an IPM and an
        # SPM run under the fixtures' 500 Hz square drives, each on the
        # coarse map first, give in one call the record and end each gives
        # alone, bit for bit
        runs = [(ipm, square_spec(ipm.R * 1.0, ipm.R * 1.5, u_tilde_d=30.0)),
                (spm, square_spec(spm.R * 2.0, spm.R * 3.0, u_tilde_d=40.0))]
        period = runs[0][1].period
        assert all(simulator._coarse_fits(p, period) for p, _ in runs)
        maps = [(period / simulator._PARAREAL_COARSE_STEPS, simulator._PARAREAL_COARSE_STEPS), (period / 200, 200)]

        def shoot(lanes):
            u_bar, u_tilde = simulator._stacked_drive([spec for _, spec in lanes], period / 200)
            phi = np.concatenate([flux_from_currents_first_order(p, u_bar[:, j, None] / p.R)
                                  + u_tilde[:, j, None] * F_array(spec.waveform, 0.0) / spec.omega
                                  for j, (p, spec) in enumerate(lanes)], axis=1)
            return simulator._shoot(*simulator._lanes([p for p, _ in lanes]), lanes[0][1], maps, u_bar, u_tilde, phi)

        open_, record, end = shoot(runs)
        assert rk4_calls[0] == (simulator._PARAREAL_COARSE_STEPS, (6,)) and not open_.any()
        for j, run in enumerate(runs):
            alone_open, alone_record, alone_end = shoot([run])
            assert not alone_open.any()
            assert record[:, j].tobytes() == alone_record[:, 0].tobytes()
            assert end[:, j].tobytes() == alone_end[:, 0].tobytes()

    def test_converged_run_keeps_its_start_bit_for_bit(self, ipm):
        # a run with no drive rests where its warm start puts it, at the
        # -0.0 Wb of u_bar_d = -0.0: it converges at its first Newton step,
        # the other run later, and it keeps the start and the record of the
        # step that confirmed it, the sign of zero included, as it does alone
        specs = [square_spec(-0.0), square_spec(ipm.R * 2.0, u_tilde_d=30.0)]
        alone, batch = simulate_periodic(ipm, specs[:1]), simulate_periodic(ipm, specs)
        assert math.copysign(1.0, alone.flux[0, 0, 0]) == -1.0
        assert alone.flux[:, 0].tobytes() == batch.flux[:, 0].tobytes()


class TestTraceCsv:
    def test_fields_are_the_file_columns(self, tmp_path):
        # a trace holds what a trace file holds, and nothing else: t, then
        # the d and q rows of u, then those of i, in the file's column order
        assert [f.name for f in dataclasses.fields(Trace)] == ["t", "u", "i"]
        assert ["t", *(f"{name}_{axis}" for name in ("u", "i") for axis in "dq")] == list(simulator._CSV_HEADER)
        path = tmp_path / "run.csv"
        tr = Trace(np.array([0.0, 1.0]), np.array([[1.0, 1.0], [2.0, 2.0]]), np.array([[3.0, 3.0], [4.0, 4.0]]))
        tr.to_csv(path)
        assert path.read_text().splitlines()[1:] == ["0,1,2,3,4", "1,1,2,3,4"]

    def test_round_trip_bitwise(self, ipm, tmp_path):
        # every channel of a trace comes back bit for bit
        spec = square_spec(u_bar_d=2.0, u_tilde_d=25.0)
        cfg = SimConfig(dt=spec.period / 200, t_end=0.01)
        tr = simulate(ipm, spec, cfg).with_noise(0.01, 7)
        path = tmp_path / "run.csv"
        tr.to_csv(path)
        back = Trace.from_csv(path)
        for field in dataclasses.fields(Trace):
            assert np.array_equal(getattr(tr, field.name), getattr(back, field.name)), field.name

    def test_header(self, ipm, tmp_path):
        spec = square_spec(u_tilde_d=25.0)
        cfg = SimConfig(dt=spec.period / 200, t_end=0.005)
        path = tmp_path / "run.csv"
        simulate(ipm, spec, cfg).to_csv(path)
        assert path.read_text().splitlines()[0] == "t,u_d,u_q,i_d,i_q"

    def test_import_without_flux(self, tmp_path):
        # a header with spaces after its commas names the same columns, as
        # numpy reads the data rows spaced alike
        path = tmp_path / "meas.csv"
        for sep in (",", ", "):
            path.write_text("\n".join(sep.join(row) for row in (
                ("t", "u_d", "u_q", "i_d", "i_q"),
                ("0", "1", "0", "0.5", "0"),
                ("0.001", "1", "0", "0.6", "0"),
                ("0.002", "1", "0", "0.7", "0"))) + "\n")
            tr = Trace.from_csv(path)
            assert len(tr.t) == 3 and np.array_equal(tr.i[0], [0.5, 0.6, 0.7])

    @pytest.mark.parametrize("header", ["t,u_d,u_q,i_d,i_q,phi_d,phi_q", "phi_q,i_q,t,phi_d,u_q,i_d,u_d"])
    def test_seven_column_file_reads_five_channels(self, ipm, tmp_path, header):
        # a file that also holds the flux, in any column order, reads to the
        # same five channels by header name; the extra columns are ignored
        spec = square_spec(u_bar_d=2.0, u_tilde_d=25.0)
        run = simulate_batch(ipm, [spec], SimConfig(dt=spec.period / 200, t_end=0.005))
        tr = run[0].with_noise(0.01, 7)
        columns = dict(zip(simulator._CSV_HEADER, (tr.t, *tr.u, *tr.i)), phi_d=run.flux[0, 0], phi_q=run.flux[1, 0])
        path = tmp_path / "run.csv"
        simulator._write_columns(path, header, *(columns[name] for name in header.split(",")))
        back = Trace.from_csv(path)
        for name in ("t", "u", "i"):
            assert np.array_equal(getattr(tr, name), getattr(back, name)), name

    def test_unread_column_not_checked(self, tmp_path):
        # only the five channels are checked, so a column the estimator never
        # reads may hold anything: numbers that are not finite, which the
        # one parse of the file reads, or text, which it cannot
        path = tmp_path / "meas.csv"
        rows = ["0,1,0,0.5,0,nan", "0.001,1,0,0.6,0,inf", "0.002,1,0,0.7,0,see log"]
        for n in (2, 3):
            path.write_text("t,u_d,u_q,i_d,i_q,note\n" + "\n".join(rows[:n]) + "\n")
            tr = Trace.from_csv(path)
            assert np.array_equal(tr.i[0], [0.5, 0.6, 0.7][:n])

    def test_repeated_channel_refused(self, tmp_path):
        # a channel named twice has no one column to read: refused naming the
        # file and the channel, not read from the last column of that name
        path = tmp_path / "twice.csv"
        path.write_text(
            "t,u_d,u_q,i_d,i_q,i_d\n"
            "0,1,0,0.5,0,9\n"
            "0.001,1,0,0.6,0,9\n")
        with pytest.raises(ValueError, match=re.escape(f"trace CSV {path} repeats column 'i_d'")):
            Trace.from_csv(path)

    @pytest.mark.parametrize("row, values", [("0.001,1,0,0.6", 4), ("0.001,1,0,0.6,0,7", 6), ("   ", 1)],
                             ids=["short", "long", "whitespace"])
    def test_ragged_row_refused(self, tmp_path, row, values):
        # a row short of a value or one value over is refused naming the file
        # and the row, not parsed by position nor cut to the header's width;
        # a line of whitespace only is a row of one value, as numpy reads it
        path = tmp_path / "ragged.csv"
        path.write_text("t,u_d,u_q,i_d,i_q\n" "0,1,0,0.5,0\n" f"{row}\n" "0.002,1,0,0.7,0\n")
        with pytest.raises(ValueError, match=re.escape(
                f"trace CSV {path}: data row 2 has {values} values, the header names 5")):
            Trace.from_csv(path)

    @pytest.mark.parametrize("rows, values", [(("0.001,1,0,0.6,0,1", "0.002,1,0,0.7,0,1,2,3"), 6),
                                              (("0.001,1,0,0.6,0,1,2,3", "0.002,1,0,0.7,0,1"), 8)])
    def test_ragged_rows_that_balance_refused(self, tmp_path, rows, values):
        # a row a value short and one a value over hold as many commas as
        # two whole rows: refused all the same, at the first of the two
        path = tmp_path / "ragged.csv"
        path.write_text("t,u_d,u_q,i_d,i_q,phi_d,phi_q\n" "0,1,0,0.5,0,0,0\n" + "\n".join(rows) + "\n")
        with pytest.raises(ValueError, match=re.escape(
                f"trace CSV {path}: data row 2 has {values} values, the header names 7")):
            Trace.from_csv(path)

    @pytest.mark.parametrize("header, rows, values", [
        ("t,u_d,u_q,i_d,i_q", ("0,1,0,0.5", "0.001,1,0,0.6", "0.002,1,0,0.7"), 4),
        ("t,u_d,u_q,i_d,i_q", ("0,1,0,0.5,0,7", "0.001,1,0,0.6,0,7", "0.002,1,0,0.7,0,7"), 6),
        ("t,u_d,u_q,i_d,i_q", ("0,1,0,0.5,0,", "0.001,1,0,0.6,0,", "0.002,1,0,0.7,0,"), 6),
        ("t,u_d,u_q,i_d,i_q,phi_d,phi_q", ("0,1,0,0.5,0,0", "0.001,1,0,0.6,0,0", "0.002,1,0,0.7,0,0"), 6),
        ("t,u_d,u_q,i_d,i_q,note", ("0,1,0,0.5,0,a,b", "0.001,1,0,0.6,0,a,b", "0.002,1,0,0.7,0,a,b"), 7),
        ("t,u_d,u_q,i_d,i_q", ("0,1,0,0.5", "0.001,1,0,0.6,0", "0.002,1,0,0.7,0"), 4),
    ], ids=["short", "long", "trailing_comma", "short_of_an_unread_column", "long_past_an_unread_column",
            "short_first_row"])
    def test_every_row_off_the_header_refused(self, tmp_path, header, rows, values):
        # rows that agree with each other but not with the header are refused
        # at the first data row, with its count, whatever the extra values
        # hold; so is a lone first row off the header, the rows after it whole
        path = tmp_path / "ragged.csv"
        path.write_text(f"{header}\n" "# bench note\n" + "\n".join(rows) + "\n")
        with pytest.raises(ValueError, match=re.escape(
                f"trace CSV {path}: data row 1 has {values} values, the header names {len(header.split(','))}")):
            Trace.from_csv(path)

    @pytest.mark.parametrize("row, message", [
        ("0.002,1,0,0.7", "data row 3 has 4 values, the header names 5"),
        ("0.002,1,0,0.7,0,7", "data row 3 has 6 values, the header names 5"),
        ("0.002,1,0,abc,0", "data row 3, column i_d: could not convert string 'abc'"),
        ("0.002,1,0,nan,0", "i_d in data row 3 is not finite"),
    ], ids=["short", "long", "not_a_number", "nan"])
    def test_faults_after_notes_name_one_data_row(self, tmp_path, row, message):
        # a comment and a blank line before the faulty row are no data rows
        # to any message: each of the four faults names the third data row
        path = tmp_path / "notes.csv"
        path.write_text("t,u_d,u_q,i_d,i_q\n" "0,1,0,0.5,0\n" "0.001,1,0,0.6,0\n" "# bench note, 20 degC\n" "\n"
                        f"{row}\n" "0.003,1,0,0.8,0\n")
        with pytest.raises(ValueError, match=re.escape(f"trace CSV {path}: {message}")):
            Trace.from_csv(path)

    @pytest.mark.parametrize("body, rows", [("", 0), ("# bench note, 20 degC\n# a, b\n", 0), ("0,1,0,0.5,0\n", 1)],
                             ids=["empty", "comments", "one_row"])
    def test_no_data_rows_refused(self, tmp_path, body, rows):
        # a file of fewer than 2 data rows parses, and `Trace` refuses it
        path = tmp_path / "empty.csv"
        path.write_text("t,u_d,u_q,i_d,i_q\n" + body)
        with pytest.raises(ValueError, match=re.escape(
                f"trace CSV {path}: a trace needs at least 2 samples, got {rows}")):
            Trace.from_csv(path)

    def test_unknown_parse_fault_passed_through(self):
        # a numpy message of no form told here is reported as numpy words it
        message = "could not read the file"
        assert simulator._parse_fault(message, ["t", "u_d", "u_q", "i_d", "i_q"], "0,1,0,0.5,0\n") == message

    def test_comment_and_blank_lines_skipped(self, tmp_path):
        # neither is a ragged row: numpy skips them, and so does the check
        path = tmp_path / "notes.csv"
        path.write_text("t,u_d,u_q,i_d,i_q\n" "0,1,0,0.5,0\n" "# bench note, 20 degC\n" "\n"
                        "0.001,1,0,0.6,0 # a, b\n")
        assert np.array_equal(Trace.from_csv(path).i[0], [0.5, 0.6])

    @pytest.mark.parametrize("preamble, header", [
        ("# logger v2, 20 degC\n", "t,u_d,u_q,i_d,i_q"),
        ("\n# logger v2, 20 degC\n  # a, b\n\n", "t,u_d,u_q,i_d,i_q"),
        ("", "t,u_d,u_q,i_d,i_q # SI units, 20 degC"),
        ("\ufeff", "t,u_d,u_q,i_d,i_q"),
    ], ids=["comment", "comments_and_blanks", "comment_on_the_header", "byte_order_mark"])
    def test_lines_before_the_header_skipped(self, tmp_path, preamble, header):
        # a logger's comment line first, blank lines around it: the header
        # is the first other line, and data rows still count from 1 after it;
        # a `#` ends the header's names as it ends a data row's values; a
        # UTF-8 byte-order mark, which spreadsheet CSV exports start with,
        # is no part of the first name
        path = tmp_path / "logger.csv"
        rows = [f"{k * 0.001:g},1,0,{0.5 + k / 10:g},0" for k in range(6)]
        path.write_text(preamble + header + "\n" + "\n".join(rows) + "\n", encoding="utf-8")
        assert np.array_equal(Trace.from_csv(path).i[0], [0.5, 0.6, 0.7, 0.8, 0.9, 1.0])
        rows[4] = "0.004,1,0,abc,0"
        path.write_text(preamble + header + "\n" + "\n".join(rows) + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(
                f"trace CSV {path}: data row 5, column i_d: could not convert string 'abc'")):
            Trace.from_csv(path)

    def test_written_bytes(self, tmp_path):
        tr = Trace(t=np.array([0.0, 1e-5]), u=np.array([[30.0, -30.0], [0.0, -0.0]]),
                   i=np.array([[0.0, 0.1 + 0.2], [1e-300, 2.5e17]]))
        path = tmp_path / "run.csv"
        tr.to_csv(path)
        assert path.read_bytes() == (
            b"t,u_d,u_q,i_d,i_q\n"
            b"0,30,0,0,1e-300\n"
            b"1.0000000000000001e-05,-30,-0,0.30000000000000004,2.5e+17\n")

    @pytest.mark.parametrize("n_columns", [1, 3, 7])
    def test_columns_are_the_bytes_of_savetxt(self, tmp_path, n_columns):
        # rows formatted in one call, byte for byte what np.savetxt writes
        values = np.array([-0.0, 0.0, 1e-300, -1e308, 3.0, -42.0, 2.0**53, 1 / 3, 0.1 + 0.2, 5e-324, -2.5e17])
        columns = [np.roll(values, k) for k in range(n_columns)]
        header = ",".join(f"c{k}" for k in range(n_columns))
        simulator._write_columns(tmp_path / "one_call.csv", header, *columns)
        np.savetxt(tmp_path / "savetxt.csv", np.column_stack(columns), fmt="%.17g", delimiter=",", header=header,
                   comments="")
        assert (tmp_path / "one_call.csv").read_bytes() == (tmp_path / "savetxt.csv").read_bytes()

    def test_import_missing_core_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,u_d,u_q,i_d\n0,1,0,0.5\n")
        with pytest.raises(ValueError, match="i_q"):
            Trace.from_csv(path)

    @pytest.mark.parametrize("offset", [0.0, 100.0, 1e4])
    def test_time_stamps_far_from_zero(self, offset):
        # the rounding of t, which grows with |t|, is no uneven sampling: a
        # grid 100 s or 1e4 s into a session reads, one stamp 1e-6 of a step
        # off does not
        dt = 1e-5
        t = offset + np.arange(5001) * dt
        z = np.zeros((2, len(t)))
        Trace(t=t, u=z, i=z)
        t[2500] += 1e-6 * dt
        with pytest.raises(ValueError, match="t must be uniformly sampled"):
            Trace(t=t, u=z, i=z)

    def test_trace_validation(self):
        t = np.array([0.0, 1.0, 1.5])
        z = np.zeros((2, 3))
        with pytest.raises(ValueError, match="uniform"):
            Trace(t=t, u=z, i=z)
        with pytest.raises(ValueError, match="^t must be strictly increasing$"):
            Trace(t=np.array([0.0, 1.0, 1.0]), u=z, i=z)
        with pytest.raises(ValueError, match=re.escape("channel u must be shaped (2, 2), got (2, 3)")):
            Trace(t=np.array([0.0, 1.0]), u=z, i=np.zeros((2, 2)))
        with pytest.raises(ValueError, match=re.escape("channel i must be shaped (2, 3), got (3,)")):
            Trace(t=t, u=z, i=np.zeros(3))
        with pytest.raises(ValueError, match=re.escape("channel t must be shaped (n,), got (3, 1)")):
            Trace(t=t[:, None], u=z, i=z)
        for n in (0, 1):  # no sample period: refused when built, not by an IndexError where it is read
            with pytest.raises(ValueError, match=f"^a trace needs at least 2 samples, got {n}$"):
                Trace(t=t[:n], u=z[:, :n], i=z[:, :n])

    @pytest.mark.parametrize("t, row", [([0.0, np.nan, 2.0, 3.0], 2), ([0.0, 1.0, 2.0, np.inf], 4), ([-np.inf, 0.0], 1)],
                             ids=["nan_inside", "inf_last", "-inf_first"])
    def test_non_finite_time_stamps_refused(self, t, row):
        # a step to or from a stamp that is not finite is NaN or inf, and
        # no comparison on it fails, so finiteness is checked first
        z = np.zeros((2, len(t)))
        with pytest.raises(ValueError, match=f"^t in data row {row} is not finite$"):
            Trace(t=np.array(t), u=z, i=z)

    @pytest.mark.parametrize("field, row, sample, value, message", [
        ("i", 0, 299, np.nan, "i_d in data row 300 is not finite"),
        ("u", 1, 41, np.inf, "u_q in data row 42 is not finite"),
        ("t", None, 7, np.nan, "t in data row 8 is not finite"),
    ], ids=["nan_i_d", "inf_u_q", "nan_t"])
    def test_non_finite_channel_refused(self, ipm, field, row, sample, value, message):
        # a value that is not finite in any channel is refused where the
        # record is made, here by `dataclasses.replace`, in the words a trace
        # file's refusal ends with, not later by the regression
        spec = square_spec(u_bar_d=2.0, u_tilde_d=25.0)
        tr = simulate(ipm, spec, SimConfig(dt=spec.period / 200, t_end=0.005))
        channel = getattr(tr, field).copy()
        channel[(sample,) if row is None else (row, sample)] = value
        with pytest.raises(ValueError, match=f"^{message}$"):
            dataclasses.replace(tr, **{field: channel})
        # the first sample holding one decides, and in it the first channel
        channel = tr.i.copy()
        channel[1, 10] = channel[0, 10] = channel[1, 9] = np.nan
        with pytest.raises(ValueError, match="^i_q in data row 10 is not finite$"):
            dataclasses.replace(tr, i=channel)
