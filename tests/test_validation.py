import math
from pathlib import Path

import numpy as np
import pytest

from satpmsm import simulator
from satpmsm.config import load_config
from satpmsm.estimator import ExperimentPlan, PlanRun, simulate_plan
from satpmsm.injection import InjectionSpec, Waveform
from satpmsm.magnetics import (
    MotorParams,
    NonConvergence,
    currents_from_flux,
)
from satpmsm.ripple import extract_ripple, rebuild_flux
from satpmsm.simulator import (MIN_WHOLE_PERIODS, SimConfig, Trace, simulate, simulate_averaged,
                               simulate_batch, simulate_periodic)
from satpmsm.validation import (
    _STEP_SAMPLES,
    AngleSweepResult,
    FluxIntegrationResult,
    MagnetizationCurves,
    StepResponseResult,
    SweepSpec,
    angle_sweep,
    flux_by_integration,
    magnetization_curves,
    step_response,
)

import oracles

OMEGA = 2 * math.pi * 500.0
PLAN = ExperimentPlan(OMEGA, Waveform.square(), 30.0)  # the drive of the angle sweeps


class TestAngleSweep:
    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SweepSpec(60.0, (-1.0,))
        with pytest.raises(ValueError, match="inject_axis must be 'd' or 'q', got 'x'"):
            SweepSpec(60.0, (1.0,), inject_axis="x")
        # refused as the sweep's fields, not later as an InjectionSpec's
        for angle in (math.nan, math.inf):
            with pytest.raises(ValueError, match="^angle_deg must be finite$"):
                SweepSpec(angle, (1.0,))
        for magnitude in (math.nan, math.inf):
            with pytest.raises(ValueError, match="^magnitudes must be finite$"):
                SweepSpec(60.0, (1.0, magnitude))

    def test_zero_magnitude_is_linear_limit(self, ipm):
        s = SweepSpec(60.0, (0.0,))
        r = angle_sweep(ipm, PLAN, s)
        want = 30.0 / (OMEGA * ipm.Ld)
        assert r.predicted[0][0] == pytest.approx(want, rel=1e-12)
        assert r.simulated[0][0] == pytest.approx(want, rel=5e-3)

    def test_axis_aligned_matches_cross_config_forms(self, ipm):
        # angle 90 deg with d injection reproduces the q-bias sweep models
        s = SweepSpec(90.0, (1.0,))
        r = angle_sweep(ipm, PLAN, s)
        ib = 1.0
        want_d = 30.0 / OMEGA * (1 / ipm.Ld + 2 * ipm.a22 * ipm.Lq**2 * ib * ib)
        want_q = 2 * 30.0 / OMEGA * ipm.a12 * ipm.Lq * ib
        assert r.predicted[0][0] == pytest.approx(want_d, rel=1e-9)
        assert r.predicted[1][0] == pytest.approx(want_q, rel=1e-9)

    def test_simulation_tracks_exact_operating_point(self, ipm):
        # the measured ripple equals the potential's second derivative at the
        # exact steady flux of the 60-degree bias point
        s = SweepSpec(60.0, (2.0,))
        r = angle_sweep(ipm, PLAN, s)
        i_d, i_q = 2.0 * math.cos(math.radians(60)), 2.0 * math.sin(math.radians(60))
        fd, fq = oracles.invert_flux_bisection(ipm, i_d, i_q)
        h_dd, h_dq, _ = oracles.hessian_fd_oracle(ipm, fd, fq)
        assert r.simulated[0][0] == pytest.approx(30.0 * h_dd / OMEGA, rel=1e-2)
        assert r.simulated[1][0] == pytest.approx(30.0 * h_dq / OMEGA, rel=2e-2)

    def test_gap_to_exact_reference_contracts(self, ipm):
        # against the exact-flux reference the simulated ripple converges at
        # O(1/omega^2); the first-order closed form differs from that
        # reference by a fixed truncation offset at saturating magnitudes
        def gap(omega):
            s = SweepSpec(60.0, (2.0,))
            r = angle_sweep(ipm, ExperimentPlan(omega, Waveform.square(), 30.0), s)
            i_d, i_q = 2.0 * math.cos(math.radians(60)), 2.0 * math.sin(math.radians(60))
            fd, fq = oracles.invert_flux_bisection(ipm, i_d, i_q)
            h_dd, _, _ = oracles.hessian_fd_oracle(ipm, fd, fq)
            return abs(r.simulated[0][0] - 30.0 * h_dd / omega) * omega

        gaps = [gap(OMEGA * 2**k) for k in range(3)]
        assert gaps[0] > gaps[1] > gaps[2]

    @staticmethod
    def _settled_reference(p, plan, s):
        """d and q ripples of from-rest runs settled over four times the
        default discard, and the sweep's specs."""
        angle = math.radians(s.angle_deg)
        runs = [PlanRun("angle_sweep", m, InjectionSpec(
            p.R * (m * math.cos(angle)), p.R * (m * math.sin(angle)), plan.u_tilde, 0.0, plan.omega, plan.waveform))
            for m in s.magnitudes]
        discard = 4.0 * oracles.default_discard(p, runs[0].spec)
        traces = simulate_plan(p, runs, measure_periods=round(discard / runs[0].spec.period) + 2)
        ripple = [extract_ripple(tr, run.spec, discard) for tr, run in zip(traces, runs)]
        return (np.array([m.i_tilde[0] for m in ripple]), np.array([m.i_tilde[1] for m in ripple]),
                [run.spec for run in runs])

    @pytest.mark.parametrize("fixture, angle, magnitudes, u_tilde, waveform", [
        # i_d < 0 on SPM: the runs settle past the fold of the d-axis curve;
        # at 120 deg a shooting step lands next to the far fold, where only
        # the step limit keeps the next one in the model's range
        ("spm", 180.0, (0.5, 1.0, 2.0, 4.0), 40.0, Waveform.square()),
        ("spm", 120.0, (3.0,), 40.0, Waveform.square()),
        ("ipm", 60.0, (0.6, 1.2, 2.0), 30.0, Waveform.sine()),
    ])
    def test_orbit_matches_long_settled_runs(self, fixture, angle, magnitudes, u_tilde, waveform, request):
        p = request.getfixturevalue(fixture)
        plan, s = ExperimentPlan(OMEGA, waveform, u_tilde), SweepSpec(angle, magnitudes)
        ref_d, ref_q, specs = self._settled_reference(p, plan, s)
        r = angle_sweep(p, plan, s)
        assert np.all(np.abs(r.simulated[0] - ref_d) <= 1e-6 * np.abs(ref_d))
        # the cross ripple too; at 180 deg it is rounding noise of sin(pi),
        # so a 1e-12 A floor
        assert np.all(np.abs(r.simulated[1] - ref_q) <= 1e-6 * np.abs(ref_q) + 1e-12)
        # the measured window starts on a periodic orbit: one period returns
        # the flux to its start
        phi = simulate_periodic(p, specs).flux
        assert phi.shape == (2, len(specs), MIN_WHOLE_PERIODS * 200 + 1)
        assert np.all(np.abs(phi[..., 200] - phi[..., 0]) <= 1e-12)

    @pytest.mark.parametrize("name, coarse", [("ipm", [21, 21, 21, 12]), ("spm", [33, 33, 33, 30, 24, 12])],
                             ids=["ipm", "spm"])
    def test_fixture_sweeps_shoot_on_the_coarse_map_first(self, name, coarse, rk4_calls):
        # Newton converges on the coarse period map, then takes two fine
        # steps on the coarse Jacobian at its fixed point: one that moves
        # the orbit by the coarse map's error and one that confirms it. Each
        # integrates the runs alone, and so does the record's second period:
        # no fine call carries finite-difference lanes. A coarse call
        # carries the runs still open, each with its two finite-difference
        # lanes, so the calls narrow as runs converge
        config = load_config(Path(__file__).resolve().parents[1] / "configs" / f"{name}.cfg")
        angle_sweep(config.motor, config.plan, config.sweep, steps_per_period=config.steps_per_period)
        n = len(config.sweep.magnitudes)
        assert coarse[0] == 3 * n
        assert rk4_calls == ([(simulator._PARAREAL_COARSE_STEPS, (w,)) for w in coarse]
                             + [(config.steps_per_period, (n,))] * 3)

    def test_no_orbit_names_the_magnitude(self):
        # the d-axis current peaks at 0.86 A, so a 2 A bias runs away
        bad = MotorParams(R=1.0, Ld=0.1, Lq=0.1, a40=-50.0)
        s = SweepSpec(0.0, (0.5, 2.0))
        with pytest.raises(NonConvergence, match=r"\|i_bar\| = 2 A"):
            angle_sweep(bad, PLAN, s)

    def test_csv(self, ipm, tmp_path):
        s = SweepSpec(0.0, (0.0, 1.0))
        r = angle_sweep(ipm, PLAN, s)
        path = tmp_path / "sweep.csv"
        r.write_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "x,y_model,y_measured"
        assert len(lines) == 3
        # the bytes of a two-row file: round-trip digits, signed zero
        x, a, b = np.array([0.0, 1.5]), np.array([1 / 3, -0.0]), np.array([0.1 + 0.2, 2.5e17])
        for axis, predicted, simulated in (("d", (a, b), (b, a)), ("q", (b, a), (a, b))):
            AngleSweepResult(x, np.stack(predicted), np.stack(simulated), axis).write_csv(path)
            assert path.read_bytes() == (b"x,y_model,y_measured\n"
                                         b"0,0.33333333333333331,0.30000000000000004\n1.5,-0,2.5e+17\n")
        FluxIntegrationResult(x, a, b).write_csv(path)
        assert path.read_bytes() == (b"x,y_model,y_measured\n"
                                     b"0,0.30000000000000004,0.33333333333333331\n1.5,2.5e+17,-0\n")


class TestStepResponse:
    def test_zero_coefficients_identical(self):
        p = MotorParams(R=10.0, Ld=0.1, Lq=0.05)
        r, = step_response(p, [5.0], 0.02)
        assert np.array_equal(r.saturated.i[0], r.linear.i[0])

    def test_runaway_names_the_step(self, ipm):
        # a 1 MV step leaves the finite range within a few steps: a numerical
        # failure naming the drive, not a refused trace
        with pytest.raises(simulator.StepTooLarge, match=r"^the response to u_bar = \(1e\+06, 0\) V left the finite "
                           r"range at t = \S+ s: dt = \S+ s does not resolve it$"):
            step_response(ipm, [6.0, 1e6], 0.05)

    def test_small_step_stays_linear(self, ipm):
        r, = step_response(ipm, [ipm.R * 0.05], 0.05)
        scale = float(np.max(np.abs(r.linear.i[0])))
        dev = float(np.max(np.abs(r.saturated.i[0] - r.linear.i[0])))
        assert dev <= 0.01 * scale

    def test_large_step_shows_saturation(self, ipm, spm):
        # frozen against a measured ratio of ~39x between the deviations
        def rel_dev(r):
            scale = float(np.max(np.abs(r.linear.i[0])))
            return float(np.max(np.abs(r.saturated.i[0] - r.linear.i[0]))) / scale

        volts = [ipm.R * 2.0, ipm.R * 0.05]
        alone = [step_response(ipm, [u], 0.05)[0] for u in volts]
        assert rel_dev(alone[0]) >= 5.0 * rel_dev(alone[1])
        # both voltages in one batch give bit for bit the single-voltage runs
        for r, a in zip(step_response(ipm, volts, 0.05), alone):
            for field in ("saturated", "linear"):
                for name in ("t", "u", "i"):
                    assert np.array_equal(getattr(getattr(r, field), name),
                                          getattr(getattr(a, field), name)), (field, name)
        # and so does the flux of the batch they are taken from
        cfg, motors = SimConfig(dt=0.05 / _STEP_SAMPLES, t_end=0.05), [ipm] * 2 + [ipm.without_saturation()] * 2
        batch = simulate_averaged(motors, [(u, 0.0) for u in volts * 2], cfg)
        for j, (p, u) in enumerate(zip(motors, volts * 2)):
            assert np.array_equal(batch.flux[:, j], simulate_averaged([p], [(u, 0.0)], cfg).flux[:, 0])
        # the harshest shipped step (SPM, R times the 8 A sweep limit over
        # 12 time constants) is resolved on its sample grid: a 50x finer
        # integration moves no sample by more than 1e-8 of the peak
        u, t_end = spm.R * 8.0, 12.0 * spm.Ld / spm.R
        r, = step_response(spm, [u], t_end)
        dt = t_end / 2000
        fine, = simulate_averaged([spm], [(u, 0.0)], SimConfig(dt=dt / 50, t_end=t_end))
        assert len(fine.t[::50]) == len(r.saturated.t)
        scale = float(np.max(np.abs(fine.i[0])))
        assert np.max(np.abs(r.saturated.i[0] - fine.i[0, ::50])) <= 1e-8 * scale

    def test_csv(self, ipm, tmp_path):
        r, = step_response(ipm, [10.0], 0.01)
        path = tmp_path / "step.csv"
        r.write_csv(path)
        assert path.read_text().splitlines()[0] == "t,i_sat,i_lin"
        t = np.array([0.0, 1e-5])
        sat = Trace(t=t, u=np.stack([t, t]), i=np.stack([[0.1 + 0.2, 2.5e17], t]))
        lin = Trace(t=t, u=np.stack([t, t]), i=np.stack([[1e-300, -7.0], t]))
        StepResponseResult(sat, lin).write_csv(path)
        assert path.read_bytes() == (b"t,i_sat,i_lin\n0,0.30000000000000004,1e-300\n"
                                     b"1.0000000000000001e-05,2.5e+17,-7\n")


class TestFluxIntegration:
    def test_steady_state_constant(self, ipm):
        # u = R*i everywhere: integrand is zero, flux stays put
        t = np.arange(200) * 1e-4
        i = np.full_like(t, 1.3)
        tr = Trace(t=t, u=np.stack([ipm.R * i, np.zeros_like(t)]), i=np.stack([i, np.zeros_like(t)]))
        r = flux_by_integration(tr, ipm)
        assert np.max(np.abs(r.phi_d_integrated - r.phi_d_integrated[0])) < 1e-15

    def test_reproduces_simulated_state(self, ipm):
        # smooth (sine) drive so the sampled integrand has no jumps
        spec = InjectionSpec(6.0, 0.0, 20.0, 0.0, OMEGA, Waveform.sine())
        cfg = SimConfig(dt=spec.period / 400, t_end=0.08)
        run = simulate_batch(ipm, [spec], cfg)
        r = flux_by_integration(run[0], ipm)
        assert float(np.max(np.abs(r.phi_d_integrated - run.flux[0, 0]))) < 1e-6

    def test_model_column_matches_state(self, ipm):
        spec = InjectionSpec(6.0, 0.0, 20.0, 0.0, OMEGA, Waveform.sine())
        cfg = SimConfig(dt=spec.period / 400, t_end=0.02)
        run = simulate_batch(ipm, [spec], cfg)
        r = flux_by_integration(run[0], ipm)
        # exact inversion of noise-free currents recovers the true state flux
        assert float(np.max(np.abs(r.phi_d_model - run.flux[0, 0]))) < 1e-9

    def test_model_column_past_the_fold(self, spm):
        # the harshest shipped SPM step (R times the 8 A sweep limit over 12
        # time constants): at i_d = 4.2 A the first-order seed of
        # `flux_from_currents_exact` lands at -0.67 Wb, past the fold of the
        # d-axis curve at -0.27 Wb, and its line search stalls; seeded at the
        # integrated flux, the model column follows the state
        u, t_end = spm.R * 8.0, 12.0 * spm.Ld / spm.R
        step = simulate_averaged([spm], [(u, 0.0)], SimConfig(dt=t_end / _STEP_SAMPLES, t_end=t_end))
        flux = flux_by_integration(step[0], spm)
        assert float(np.max(np.abs(flux.phi_d_model - step.flux[0, 0]))) <= 1e-9

    @pytest.mark.parametrize("name", ["ipm", "spm"])
    def test_fixture_steps_take_the_identification_rebuild(self, name):
        # the integrated column is identification's flux rebuild, trapezoid
        # rule, bit for bit on every validate step of both fixtures
        config = load_config(Path(__file__).resolve().parents[1] / "configs" / f"{name}.cfg")
        p = config.motor
        for r in step_response(p, config.step_volts, config.step_t_end):
            got = flux_by_integration(r.saturated, p).phi_d_integrated
            assert got.tobytes() == rebuild_flux(r.saturated, p.R, False)[0].tobytes()

    def test_noise_drift_within_worst_case_bound(self, ipm):
        spec = InjectionSpec(6.0, 0.0, 20.0, 0.0, OMEGA, Waveform.sine())
        cfg = SimConfig(dt=spec.period / 400, t_end=0.05)
        clean = simulate(ipm, spec, cfg)
        ref = flux_by_integration(clean, ipm).phi_d_integrated
        for seed in range(10):
            noisy = clean.with_noise(0.010, seed)
            phi = flux_by_integration(noisy, ipm).phi_d_integrated
            drift = np.abs(phi - ref)
            bound = ipm.R * 0.010 * (clean.t - clean.t[0]) + 1e-9
            assert np.all(drift <= bound)


class TestMagnetizationCurves:
    def test_linear_motor_straight_lines(self):
        p = MotorParams(R=1.0, Ld=0.1, Lq=0.05)
        grid = np.linspace(-2, 2, 9)
        r = magnetization_curves(p, grid, levels=(0.0, 1.0))
        for row in r.phi_d:
            assert np.allclose(row, p.Ld * grid, atol=1e-12)
        for row in r.phi_q:
            assert np.allclose(row, p.Lq * grid, atol=1e-12)

    def test_mirror_symmetry_in_level(self, ipm):
        grid = np.linspace(-2, 2, 9)
        r_pos = magnetization_curves(ipm, grid, levels=(1.0,))
        r_neg = magnetization_curves(ipm, grid, levels=(-1.0,))
        # phi_d(i_d; -i_q) == phi_d(i_d; +i_q)
        assert np.allclose(r_pos.phi_d[0], r_neg.phi_d[0], atol=1e-10)
        # phi_q(i_q; i_d) at mirrored grid flips sign: phi_q(-i_q) = -phi_q(i_q)
        r = magnetization_curves(ipm, grid, levels=(0.5,))
        assert np.allclose(r.phi_q[0], -r.phi_q[0][::-1], atol=1e-10)

    def test_saturating_concavity_and_round_trip(self, ipm):
        grid = np.linspace(-2, 2, 14)
        r = magnetization_curves(ipm, grid, levels=(0.0,))
        phi = r.phi_d[0]
        # saturation bends the curve down for positive current
        pos = grid > 0.3
        slopes = np.diff(phi[pos]) / np.diff(grid[pos])
        assert np.all(np.diff(slopes) < 0)
        # and every grid point round-trips through the forward map
        back = currents_from_flux(ipm, np.array([phi, np.zeros_like(phi)]))
        assert np.all(np.abs(back[0] - grid) <= 1e-9)

    def test_values_vs_bisection_oracle(self, ipm):
        grid = np.array([-2.0, -0.7, 0.7, 2.0])
        r = magnetization_curves(ipm, grid, levels=(1.0,))
        for j, x in enumerate(grid):
            fd, _ = oracles.invert_flux_bisection(ipm, float(x), 1.0)
            assert r.phi_d[0][j] == pytest.approx(fd, abs=1e-9)

    def test_nonconvergence_names_the_point(self):
        bad = MotorParams(R=1.0, Ld=0.1, Lq=0.1, a30=-60.0, a40=1.0)
        with pytest.raises(NonConvergence, match="1.8"):
            magnetization_curves(bad, [0.0, 1.8], levels=(0.0,))

    def test_csv(self, ipm, tmp_path):
        r = magnetization_curves(ipm, np.linspace(-1, 1, 5), levels=(0.0, 1.0))
        pd, pq = tmp_path / "phid.csv", tmp_path / "phiq.csv"
        r.write_csv(pd, pq)
        assert pd.read_text().splitlines()[0] == "i_d,phi_d_at_iq_0,phi_d_at_iq_1"
        assert len(pq.read_text().splitlines()) == 6
        grid = np.array([0.0, 1.5])
        MagnetizationCurves(grid, (0.0, -1.5), np.array([[1 / 3, -0.0], [0.1 + 0.2, 2.5e17]]),
                            np.array([[1e-300, -7.0], [2.0, 0.5]])).write_csv(pd, pq)
        assert pd.read_bytes() == (b"i_d,phi_d_at_iq_0,phi_d_at_iq_-1.5\n"
                                   b"0,0.33333333333333331,0.30000000000000004\n1.5,-0,2.5e+17\n")
        assert pq.read_bytes() == b"i_q,phi_q_at_id_0,phi_q_at_id_-1.5\n0,1e-300,2\n1.5,-7,0.5\n"
