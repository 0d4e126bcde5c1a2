import dataclasses
import math

import numpy as np
import pytest

from satpmsm.estimator import (
    ROLE_CROSS_D_INJ,
    ROLE_CROSS_Q_INJ,
    ROLE_D_SWEEP,
    ROLE_LD,
    ROLE_LQ,
    EstimationResult,
    ExperimentPlan,
    NotAtRest,
    PlanRun,
    RunRecord,
    ZeroRipple,
    estimate_cross,
    estimate_d_axis,
    estimate_from_records,
    estimate_L,
    measure_traces,
    plan_runs,
    predict_ripple,
    run_identification,
    simulate_plan,
)
from satpmsm.injection import InjectionSpec, Waveform
from satpmsm.leastsq import RankDeficient
from satpmsm.magnetics import FluxLinkage, MotorParams, _hessian
from satpmsm.ripple import RippleMeasurement
from satpmsm.simulator import SimConfig, simulate

import oracles

OMEGA = 2 * math.pi * 500.0


def meas(i_bar_d=0.0, i_bar_q=0.0, i_tilde_d=0.0, i_tilde_q=0.0, sigma=0.0):
    return RippleMeasurement(
        i_bar_d=i_bar_d, i_bar_q=i_bar_q, i_tilde_d=i_tilde_d, i_tilde_q=i_tilde_q,
        residual_rms_d=0.0, residual_rms_q=0.0, n_periods_used=10, n_samples=2000,
        sigma_i_tilde_d=sigma, sigma_i_tilde_q=sigma)


def scaled(p, eps):
    return dataclasses.replace(p, a30=p.a30 * eps, a12=p.a12 * eps,
                               a40=p.a40 * eps, a22=p.a22 * eps, a04=p.a04 * eps)


def ipm_plan(id_grid=(), iq_grid=(), u_tilde=30.0, omega=OMEGA):
    return ExperimentPlan(omega=omega, waveform=Waveform.square(),
                          u_tilde=u_tilde, id_grid=tuple(id_grid), iq_grid=tuple(iq_grid))


class TestPlanRuns:
    def test_counts_and_roles(self):
        plan = ipm_plan(id_grid=np.linspace(-2, 2, 14), iq_grid=np.linspace(-2, 2, 14))
        runs = plan_runs(plan, R=12.15)
        assert len(runs) == 2 + 14 + 2 * 14
        roles = [r.role for r in runs]
        assert roles.count(ROLE_LD) == 1 and roles.count(ROLE_LQ) == 1
        assert roles.count(ROLE_D_SWEEP) == 14
        assert roles.count(ROLE_CROSS_D_INJ) == roles.count(ROLE_CROSS_Q_INJ) == 14

    def test_bias_voltage_from_target_current(self):
        plan = ipm_plan(id_grid=(1.2, -0.9))
        runs = [r for r in plan_runs(plan, R=12.15) if r.role == ROLE_D_SWEEP]
        for r in runs:
            assert r.spec.u_bar_d == pytest.approx(12.15 * r.i_target, rel=1e-15)
            assert r.spec.u_bar_q == 0.0
            assert r.spec.u_tilde_q == 0.0
            assert r.spec.u_tilde_d == 30.0

    def test_empty_grids(self):
        runs = plan_runs(ipm_plan(), R=5.0)
        assert len(runs) == 2
        zero_d, zero_q = runs
        assert (zero_d.spec.u_bar_d, zero_d.spec.u_bar_q) == (0.0, 0.0)
        assert zero_d.spec.u_tilde_d == 30.0 and zero_d.spec.u_tilde_q == 0.0
        assert zero_q.spec.u_tilde_d == 0.0 and zero_q.spec.u_tilde_q == 30.0

    def test_single_point_cross_grid(self):
        runs = plan_runs(ipm_plan(iq_grid=(1.0,), u_tilde=30.0), R=1.0)
        config_c = [r for r in runs if r.role == ROLE_CROSS_D_INJ]
        assert len(config_c) == 1
        assert config_c[0].spec.u_bar_q == pytest.approx(1.0)
        assert config_c[0].spec.u_bar_d == 0.0
        assert config_c[0].spec.u_tilde_q == 0.0

    def test_invalid_plan(self):
        with pytest.raises(ValueError):
            ExperimentPlan(omega=-1.0, waveform=Waveform.square(), u_tilde=30.0)
        with pytest.raises(ValueError):
            ExperimentPlan(omega=OMEGA, waveform=Waveform.square(), u_tilde=0.0)
        with pytest.raises(ValueError):
            plan_runs(ipm_plan(), R=0.0)


class TestEstimateL:
    def test_inverts_known_inductance(self):
        plan = ipm_plan()
        m_d = meas(i_tilde_d=30.0 / (OMEGA * 0.0919))
        m_q = meas(i_tilde_q=30.0 / (OMEGA * 0.0458))
        est = estimate_L(m_d, m_q, plan)
        assert est.L_d == pytest.approx(0.0919, rel=1e-12)
        assert est.L_q == pytest.approx(0.0458, rel=1e-12)

    def test_zero_ripple_raises(self):
        plan = ipm_plan()
        with pytest.raises(ZeroRipple):
            estimate_L(meas(i_tilde_d=0.0), meas(i_tilde_q=0.1), plan)

    def test_ripple_below_noise_floor_raises(self):
        plan = ipm_plan()
        with pytest.raises(ZeroRipple):
            estimate_L(meas(i_tilde_d=1e-4, sigma=1e-4), meas(i_tilde_q=0.1), plan)

    def test_sigma_propagation(self):
        plan = ipm_plan()
        it = 30.0 / (OMEGA * 0.0919)
        est = estimate_L(meas(i_tilde_d=it, sigma=0.01 * it),
                         meas(i_tilde_q=0.1, sigma=0.0), plan)
        assert est.sigma_L_d == pytest.approx(0.01 * est.L_d, rel=1e-12)
        assert est.sigma_L_q == 0.0


class TestDAxisRegression:
    def test_exact_recovery_from_model_data(self, ipm):
        # ripple generated exactly from the sweep's regression model
        plan = ipm_plan(id_grid=np.linspace(-2, 2, 14))
        ms = []
        for ib in plan.id_grid:
            it = plan.u_tilde / OMEGA * (
                1 / ipm.Ld + 6 * ipm.a30 * ipm.Ld * ib + 12 * ipm.a40 * ipm.Ld**2 * ib * ib)
            ms.append(meas(i_bar_d=ib, i_tilde_d=it))
        est = estimate_d_axis(ms, ipm.Ld, plan)
        assert est.a30 == pytest.approx(7.70, rel=1e-10)
        assert est.a40 == pytest.approx(19.42, rel=1e-10)
        assert est.residual_rms < 1e-10

    def test_rank_deficient_grid(self, ipm):
        plan = ipm_plan(id_grid=(1.0, 1.0, 1.0))
        ms = [meas(i_bar_d=1.0, i_tilde_d=0.1)] * 3
        with pytest.raises(RankDeficient):
            estimate_d_axis(ms, ipm.Ld, plan)

    def test_needs_three_points(self, ipm):
        plan = ipm_plan(id_grid=(1.0, -1.0))
        ms = [meas(i_bar_d=1.0, i_tilde_d=0.1), meas(i_bar_d=-1.0, i_tilde_d=0.1)]
        with pytest.raises(RankDeficient):
            estimate_d_axis(ms, ipm.Ld, plan)


class TestCrossRegression:
    def test_exact_recovery_from_model_data(self, spm):
        # all three cross regressions on data generated from their models
        plan = ipm_plan(iq_grid=np.linspace(-8, 8, 33), u_tilde=40.0)
        ms_c, ms_d = [], []
        for ib in plan.iq_grid:
            it_d_c = plan.u_tilde / OMEGA * (1 / spm.Ld + 2 * spm.a22 * spm.Lq**2 * ib * ib)
            it_q_c = 2 * plan.u_tilde / OMEGA * spm.a12 * spm.Lq * ib
            it_d_d = 2 * plan.u_tilde / OMEGA * spm.a12 * spm.Lq * ib
            it_q_d = plan.u_tilde / OMEGA * (1 / spm.Lq + 12 * spm.a04 * spm.Lq**2 * ib * ib)
            ms_c.append(meas(i_bar_q=ib, i_tilde_d=it_d_c, i_tilde_q=it_q_c))
            ms_d.append(meas(i_bar_q=ib, i_tilde_d=it_d_d, i_tilde_q=it_q_d))
        est = estimate_cross(ms_c, ms_d, spm.Ld, spm.Lq, plan)
        assert est.a22 == pytest.approx(8.76, rel=1e-10)
        assert est.a12 == pytest.approx(4.83, rel=1e-10)
        assert est.a04 == pytest.approx(1.18, rel=1e-10)
        assert max(est.residual_rms_a22, est.residual_rms_a12, est.residual_rms_a04) < 1e-10

    def test_even_data_gives_zero_a12(self, spm):
        # symmetric grid, q-ripple even in the bias: the odd regressor sees 0
        plan = ipm_plan(iq_grid=(-1.5, -0.5, 0.5, 1.5), u_tilde=40.0)
        ms_c = [meas(i_bar_q=ib, i_tilde_d=0.0, i_tilde_q=0.002 * ib * ib)
                for ib in plan.iq_grid]
        ms_d = [meas(i_bar_q=ib, i_tilde_d=0.002 * ib * ib, i_tilde_q=0.0)
                for ib in plan.iq_grid]
        est = estimate_cross(ms_c, ms_d, spm.Ld, spm.Lq, plan)
        assert abs(est.a12) < 1e-12

    def test_needs_three_distinct(self, spm):
        plan = ipm_plan(iq_grid=(1.0, -1.0))
        ms = [meas(i_bar_q=1.0, i_tilde_d=0.1, i_tilde_q=0.1),
              meas(i_bar_q=-1.0, i_tilde_d=0.1, i_tilde_q=0.1)]
        with pytest.raises(RankDeficient):
            estimate_cross(ms, ms, spm.Ld, spm.Lq, plan)


class TestPredictRipple:
    def test_linear_limit(self):
        p = MotorParams(R=10.0, Ld=0.1, Lq=0.05)
        spec = InjectionSpec(2.0, 3.0, 7.0, 5.0, OMEGA, Waveform.square())
        it_d, it_q = predict_ripple(p, spec)
        assert it_d == pytest.approx(7.0 / (OMEGA * 0.1), rel=1e-14)
        assert it_q == pytest.approx(5.0 / (OMEGA * 0.05), rel=1e-14)

    def test_zero_bias_ignores_saturation(self, ipm):
        spec = InjectionSpec(0.0, 0.0, 7.0, 5.0, OMEGA, Waveform.square())
        it_d, it_q = predict_ripple(ipm, spec)
        assert it_d == pytest.approx(7.0 / (OMEGA * ipm.Ld), rel=1e-14)
        assert it_q == pytest.approx(5.0 / (OMEGA * ipm.Lq), rel=1e-14)

    def test_ipm_cross_point_vs_oracle(self, ipm):
        # q bias of 1 A, d injection only
        spec = InjectionSpec(0.0, ipm.R * 1.0, 30.0, 0.0, OMEGA, Waveform.square())
        it_d, it_q = predict_ripple(ipm, spec)
        want_d, want_q = oracles.ripple_amplitudes_oracle(
            ipm, 0.0, ipm.R * 1.0, 30.0, 0.0, OMEGA)
        assert it_d == pytest.approx(want_d, rel=1e-7)
        assert it_q == pytest.approx(want_q, rel=1e-7)


class TestEndToEnd:
    def test_linear_motor_recovery(self):
        # no saturation: inductances recovered within 0.5%, coefficients ~ 0
        p = MotorParams(R=10.0, Ld=0.1, Lq=0.05)
        plan = ExperimentPlan(omega=OMEGA, waveform=Waveform.square(), u_tilde=20.0,
                              id_grid=(-1.0, -0.5, 0.5, 1.0), iq_grid=(-1.0, -0.5, 0.5, 1.0))
        result, records = run_identification(p, plan, measure_periods=20)
        assert result.params.Ld == pytest.approx(0.1, rel=5e-3)
        assert result.params.Lq == pytest.approx(0.05, rel=5e-3)
        # recovered saturation coefficients are numerically tiny: their ripple
        # contribution over the sweep stays below ppm of the linear slope
        assert abs(result.params.a30) * 6 * p.Ld * 1.0 < 1e-4 / p.Ld
        assert abs(result.params.a04) * 12 * p.Lq**2 * 1.0 < 1e-4 / p.Lq

    def test_mildly_saturated_recovery(self, ipm):
        # coefficients at a tenth of the hardware-scale values: the pipeline's
        # second-order bias is small and recovery lands within a few percent
        p = scaled(ipm, 0.1)
        grid = tuple(np.linspace(-2, 2, 8))
        plan = ExperimentPlan(omega=OMEGA, waveform=Waveform.square(), u_tilde=30.0,
                              id_grid=grid, iq_grid=grid)
        result, _ = run_identification(p, plan, measure_periods=20)
        assert result.params.Ld == pytest.approx(p.Ld, rel=1e-2)
        assert result.params.Lq == pytest.approx(p.Lq, rel=1e-2)
        for name in ("a30", "a12", "a40", "a22", "a04"):
            assert getattr(result.params, name) == pytest.approx(
                getattr(p, name), rel=0.10), name

    def test_pipeline_approaches_analytic_limit(self, ipm):
        # the paper's first-order split, fed by the closed loop at
        # hardware-scale coefficients, lands on its analytic fixed point
        # (bisection oracle), not on the generating coefficients; agreement
        # here validates the simulation + extraction + first-order regression
        # chain itself
        grid = tuple(np.linspace(-2, 2, 8))
        plan = ExperimentPlan(omega=OMEGA, waveform=Waveform.square(), u_tilde=30.0,
                              id_grid=grid, iq_grid=grid)
        runs = plan_runs(plan, ipm.R)
        traces, discard = simulate_plan(ipm, runs, measure_periods=20)
        by_role = {}
        for rec in measure_traces(runs, traces, discard):
            by_role.setdefault(rec.run.role, []).append(rec.meas)
        ind = estimate_L(by_role[ROLE_LD][0], by_role[ROLE_LQ][0], plan)
        d_ax = estimate_d_axis(by_role[ROLE_D_SWEEP], ind.L_d, plan)
        cross = estimate_cross(by_role[ROLE_CROSS_D_INJ], by_role[ROLE_CROSS_Q_INJ],
                               ind.L_d, ind.L_q, plan)
        got = {"Ld": ind.L_d, "Lq": ind.L_q, "a30": d_ax.a30, "a40": d_ax.a40,
               "a22": cross.a22, "a12": cross.a12, "a04": cross.a04}
        want = oracles.analytic_pipeline_oracle(ipm, grid, grid)
        # the finite-pulsation averaging remainder is (R/(omega L))^2 ~ 0.7%
        # on the q axis at 500 Hz
        for name in ("Ld", "Lq"):
            assert got[name] == pytest.approx(want[name], rel=1e-2), name
        for name in ("a30", "a12", "a40", "a22", "a04"):
            assert got[name] == pytest.approx(want[name], rel=5e-2), name

    def test_inductance_bias_shrinks_with_omega(self, ipm):
        # the zero-bias inductance estimate carries only the averaging
        # remainder, which contracts ~4x per pulsation doubling

        def lq_error(omega):
            plan = ExperimentPlan(omega=omega, waveform=Waveform.square(), u_tilde=30.0)
            runs = plan_runs(plan, ipm.R)
            traces, discard = simulate_plan(ipm, runs, measure_periods=20)
            records = measure_traces(runs, traces, discard)
            est = estimate_L(records[0].meas, records[1].meas, plan)
            return abs(est.L_q - ipm.Lq)

        errs = [lq_error(OMEGA * 2**k) for k in range(3)]
        assert 3.0 <= errs[0] / errs[1] <= 5.0
        assert 3.0 <= errs[1] / errs[2] <= 5.0

    def test_null_motor_with_noise_within_sigma(self):
        p = MotorParams(R=10.0, Ld=0.1, Lq=0.05)
        plan = ExperimentPlan(omega=OMEGA, waveform=Waveform.square(), u_tilde=20.0,
                              id_grid=(-1.0, -0.5, 0.5, 1.0), iq_grid=(-1.0, -0.5, 0.5, 1.0))
        result, _ = run_identification(p, plan, measure_periods=30,
                                       noise_amp=0.010, seed=5)
        for name in ("a30", "a12", "a40", "a22", "a04"):
            est = getattr(result.params, name)
            sig = result.sigma[name]
            assert abs(est) <= 3.0 * sig, (name, est, sig)

    def test_passthrough_and_sigma_sign(self, ipm):
        plan = ExperimentPlan(omega=OMEGA, waveform=Waveform.square(), u_tilde=30.0,
                              id_grid=(-1.0, 0.5, 1.0), iq_grid=(-1.0, 0.5, 1.0))
        result, records = run_identification(ipm, plan, measure_periods=10)
        assert result.params.R == ipm.R
        assert result.params.phi_m == ipm.phi_m
        assert result.params.n_pp == ipm.n_pp
        assert all(s >= 0 for s in result.sigma.values())
        assert len(records) == 2 + 3 + 6

    def test_refusals(self, ipm):
        # zero-bias ripple below its noise floor, then a plan that leaves
        # the d-axis curvature undetermined
        plan = ipm_plan(id_grid=(-1.0, 1.0), iq_grid=(-1.0, 0.5, 1.0))
        runs = plan_runs(plan, ipm.R)
        records = [RunRecord(r, meas(i_tilde_d=0.1, i_tilde_q=0.1)) for r in runs]
        with pytest.raises(RankDeficient, match="d-axis"):
            estimate_from_records(records, ipm)
        records[0] = RunRecord(runs[0], meas(i_tilde_d=0.0, i_tilde_q=0.1))
        with pytest.raises(ZeroRipple):
            estimate_from_records(records, ipm)

    def test_reads_no_flux_channel(self, ipm):
        # the mean flux is rebuilt from t, u and i alone: dropping the flux
        # channels, as measured data has none, changes no bit of the result
        plan = ipm_plan(id_grid=(-1.0, 0.5, 1.0), iq_grid=(-1.0, 0.5, 1.0))
        runs = plan_runs(plan, ipm.R)
        traces, discard = simulate_plan(ipm, runs, measure_periods=10)
        stripped = [dataclasses.replace(t, phi_d=None, phi_q=None) for t in traces]
        full = estimate_from_records(measure_traces(runs, traces, discard), ipm)
        bare = estimate_from_records(measure_traces(runs, stripped, discard), ipm)
        assert full == bare

    def test_rebuilt_mean_flux_matches_state(self, ipm):
        # the square-wave drive is held between its switching instants, so
        # the window mean of integral(u - R i) dt carries no -u_tilde*dt/2
        # offset on the injected axis (1.5e-4 Wb here by the trapezoid rule)
        plan = ipm_plan(id_grid=(-1.0, 0.5, 1.0), iq_grid=(-1.0, 0.5, 1.0))
        runs = plan_runs(plan, ipm.R)
        traces, discard = simulate_plan(ipm, runs, measure_periods=10)
        for rec, tr in zip(measure_traces(runs, traces, discard), traces):
            m = rec.meas
            i0 = int(np.searchsorted(tr.t, discard * (1.0 - 1e-9)))
            window = slice(i0, i0 + m.n_samples)
            assert abs(m.mean_int_u_d - ipm.R * m.mean_int_i_d - np.mean(tr.phi_d[window])) <= 5e-6
            assert abs(m.mean_int_u_q - ipm.R * m.mean_int_i_q - np.mean(tr.phi_q[window])) <= 5e-6

    def test_trace_not_at_rest_refused(self, ipm):
        # a run started from nonzero flux breaks phi(0) = 0, on which the
        # flux integration rests: refused by name, not silently integrated
        plan = ipm_plan(id_grid=(-1.0, 0.5, 1.0), iq_grid=(-1.0, 0.5, 1.0))
        runs = plan_runs(plan, ipm.R)
        traces, discard = simulate_plan(ipm, runs, measure_periods=10,
                                        noise_amp=0.010, seed=3)
        measure_traces(runs, traces, discard)
        spec = runs[3].spec
        cfg = SimConfig(dt=spec.period / 200, t_end=float(traces[3].t[-1]),
                        initial_flux=FluxLinkage(0.02, 0.0), noise_amp=0.010)
        traces[3] = simulate(ipm, spec, cfg, seed=3)
        with pytest.raises(NotAtRest, match=r"run 3 \(d_sweep, \+0\.500 A\)"):
            measure_traces(runs, traces, discard)
        with pytest.raises(NotAtRest, match="bench_03.csv"):
            measure_traces(runs, traces, discard,
                           names=[f"bench_{k:02d}.csv" for k in range(len(runs))])

    def test_mixed_drives_exact(self, ipm):
        # runs at two pulsations and two amplitudes, each ripple the exact
        # Hess H(phi) u_tilde / omega at a known mean flux: one regression
        # scaled run by run recovers theta to rounding
        rng = np.random.default_rng(4)
        roles = ([ROLE_LD, ROLE_LQ] + [ROLE_D_SWEEP] * 4
                 + [ROLE_CROSS_D_INJ] * 4 + [ROLE_CROSS_Q_INJ] * 4)
        records = []
        for k, role in enumerate(roles):
            omega, ut = (OMEGA, 30.0) if k % 2 else (2 * OMEGA, -20.0)
            q_inj = role in (ROLE_LQ, ROLE_CROSS_Q_INJ)
            spec = InjectionSpec(0.0, 0.0, 0.0 if q_inj else ut, ut if q_inj else 0.0,
                                 omega, Waveform.square())
            fd, fq = (0.0, 0.0) if role in (ROLE_LD, ROLE_LQ) else rng.uniform(-0.15, 0.15, 2)
            h_dd, h_dq, h_qq = _hessian(ipm.theta, fd, fq)
            m = dataclasses.replace(
                meas(i_tilde_d=(h_dd * spec.u_tilde_d + h_dq * spec.u_tilde_q) / omega,
                     i_tilde_q=(h_dq * spec.u_tilde_d + h_qq * spec.u_tilde_q) / omega),
                mean_int_u_d=fd, mean_int_u_q=fq)
            records.append(RunRecord(PlanRun(role, float(k), spec), m))
        result = estimate_from_records(records, ipm)
        for name in ("Ld", "Lq", "a30", "a12", "a40", "a22", "a04"):
            assert getattr(result.params, name) == pytest.approx(getattr(ipm, name), rel=1e-10), name
        # each run is weighted by its own amplitude: on inexact ripples,
        # doubling one run's drive together with its ripple changes no bit
        noisy = [dataclasses.replace(r, meas=dataclasses.replace(
            r.meas, i_tilde_d=r.meas.i_tilde_d * (1 + 1e-3 * e_d),
            i_tilde_q=r.meas.i_tilde_q * (1 + 1e-3 * e_q)))
            for r, (e_d, e_q) in zip(records, rng.standard_normal((len(records), 2)))]
        rec = noisy[7]
        doubled = noisy[:7] + [RunRecord(
            dataclasses.replace(rec.run, spec=dataclasses.replace(
                rec.run.spec, u_tilde_d=2 * rec.run.spec.u_tilde_d)),
            dataclasses.replace(rec.meas, i_tilde_d=2 * rec.meas.i_tilde_d,
                                i_tilde_q=2 * rec.meas.i_tilde_q))] + noisy[8:]
        assert estimate_from_records(doubled, ipm) == estimate_from_records(noisy, ipm) != result

    def test_estimation_result_validation(self, ipm):
        with pytest.raises(ValueError):
            EstimationResult(params=ipm, sigma={"Ld": -1.0}, fit_residuals={})
