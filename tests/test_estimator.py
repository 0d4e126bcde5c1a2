import dataclasses
import itertools
import math
import multiprocessing
import os
import re
import signal
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from satpmsm import estimator
from satpmsm.config import load_config, symmetric_grid
from satpmsm.estimator import (
    ROLE_CROSS_D_INJ,
    ROLE_CROSS_Q_INJ,
    ROLE_D_SWEEP,
    ROLE_LD,
    ROLE_LQ,
    EstimationResult,
    ExperimentPlan,
    NonPhysical,
    NotAtRest,
    PlanRun,
    RankDeficient,
    ZeroRipple,
    _in_slices,
    _run_terms,
    estimate_L,
    estimate_saturation,
    identify,
    plan_runs,
    predict_ripple,
    run_identification,
    simulate_plan,
)
from satpmsm.injection import InjectionSpec, Waveform
from satpmsm.magnetics import MotorParams, _current_coefficients, _stacked_currents
from satpmsm.ripple import RippleMeasurement, TooShort, Unresolved, extract_ripple, rebuild_flux
from satpmsm.simulator import SimConfig, Trace, simulate_batch

import oracles

OMEGA = 2 * math.pi * 500.0


def meas(i_bar_d=0.0, i_bar_q=0.0, i_tilde_d=0.0, i_tilde_q=0.0, sigma=0.0):
    return RippleMeasurement(
        i_bar=np.array([i_bar_d, i_bar_q]), i_tilde=np.array([i_tilde_d, i_tilde_q]),
        residual_rms=np.zeros(2), n_periods_used=10, n_samples=2000,
        sigma_i_tilde=np.array([sigma, sigma]))


def settled_ripples(motor, runs, periods):
    """Ripple of each run over `periods` periods after the transient discard:
    the paper's split needs settled operating points."""
    discard = oracles.default_discard(motor, runs[0].spec)
    traces = simulate_plan(motor, runs, measure_periods=round(discard / runs[0].spec.period) + periods)
    return [extract_ripple(tr, run.spec, discard) for tr, run in zip(traces, runs)]


def plan_record(motor, runs, periods):
    """The noise-free record, flux included, of the traces that
    `simulate_plan(motor, runs, measure_periods=periods)` gives."""
    period = runs[0].spec.period
    return simulate_batch(motor, [r.spec for r in runs], SimConfig(dt=period / 200, t_end=periods * period))


def identify_leaving_no_child(motor, plan):
    """`run_identification` at 10 mA in this process, and whether it left
    no child process behind."""
    result = run_identification(motor, plan, measure_periods=10, noise_amp=0.010, seed=3)
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return result, True
    return result, False


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
        for grid in ({"id_grid": (0.5, math.nan)}, {"iq_grid": (math.inf,)}):
            with pytest.raises(ValueError, match="^grid currents must be finite$"):
                ExperimentPlan(omega=OMEGA, waveform=Waveform.square(), u_tilde=30.0, **grid)
        with pytest.raises(ValueError):
            plan_runs(ipm_plan(), R=0.0)

    @pytest.mark.parametrize("amp", [math.nan, math.inf])
    def test_simulate_plan_refuses_non_finite_noise(self, ipm, amp):
        # refused as a noise amplitude, not by numpy's sampler
        runs = plan_runs(ipm_plan(), ipm.R)
        with pytest.raises(ValueError, match=f"^noise amplitude must be finite, got {amp}$"):
            list(simulate_plan(ipm, runs, measure_periods=2, noise_amp=amp))

    def test_simulate_plan_of_no_runs_yields_nothing(self, ipm):
        assert list(simulate_plan(ipm, [])) == []


class TestEstimateL:
    def test_inverts_known_inductance(self):
        runs = plan_runs(ipm_plan(), R=12.15)
        m_d = meas(i_tilde_d=30.0 / (OMEGA * 0.0919))
        m_q = meas(i_tilde_q=30.0 / (OMEGA * 0.0458))
        est = estimate_L(runs, [m_d, m_q])
        assert est.L_d == pytest.approx(0.0919, rel=1e-12)
        assert est.L_q == pytest.approx(0.0458, rel=1e-12)

    def test_zero_ripple_raises(self):
        runs = plan_runs(ipm_plan(), R=12.15)
        with pytest.raises(ZeroRipple):
            estimate_L(runs, [meas(i_tilde_d=0.0), meas(i_tilde_q=0.1)])

    def test_ripple_below_noise_floor_raises(self):
        runs = plan_runs(ipm_plan(), R=12.15)
        with pytest.raises(ZeroRipple):
            estimate_L(runs, [meas(i_tilde_d=1e-4, sigma=1e-4), meas(i_tilde_q=0.1)])

    def test_sigma_propagation(self):
        plan = ipm_plan()
        it = 30.0 / (OMEGA * 0.0919)
        est = estimate_L(plan_runs(plan, R=12.15), [meas(i_tilde_d=it, sigma=0.01 * it),
                                                     meas(i_tilde_q=0.1, sigma=0.0)])
        assert est.sigma_L_d == pytest.approx(0.01 * est.L_d, rel=1e-12)
        assert est.sigma_L_q == 0.0
        # on plan-built runs, the plan's amplitude and pulsation, bit for bit
        L_d, L_q = plan.u_tilde / (plan.omega * it), plan.u_tilde / (plan.omega * 0.1)
        assert tuple(est) == (L_d, L_q, abs(L_d) * (0.01 * it) / abs(it), 0.0)

    def test_each_run_at_its_own_drive(self):
        # zero-bias runs found by their drive, wherever they stand, each at
        # its own amplitude and pulsation; a later zero-bias run is not read
        w = Waveform.square()
        runs = [PlanRun("sweep", 1.0, InjectionSpec(12.0, 0.0, 30.0, 0.0, OMEGA, w)),
                PlanRun("a", 0.0, InjectionSpec(0.0, 0.0, 0.0, 45.0, 2.0 * OMEGA, w)),
                PlanRun("b", 0.0, InjectionSpec(0.0, 0.0, 20.0, 0.0, 0.5 * OMEGA, w)),
                PlanRun("c", 0.0, InjectionSpec(0.0, 0.0, 0.0, 30.0, OMEGA, w))]
        ms = [meas(i_tilde_d=9.0),
              meas(i_tilde_q=45.0 / (2.0 * OMEGA * 0.0458)),
              meas(i_tilde_d=20.0 / (0.5 * OMEGA * 0.0919)),
              meas(i_tilde_q=1.0)]
        est = estimate_L(runs, ms)
        assert est.L_d == pytest.approx(0.0919, rel=1e-12)
        assert est.L_q == pytest.approx(0.0458, rel=1e-12)

    @pytest.mark.parametrize("axis, ms", [("d", (meas(i_tilde_d=-0.1), meas(i_tilde_q=-0.2))),
                                          ("q", (meas(i_tilde_d=0.1), meas(i_tilde_q=-0.2)))])
    def test_non_positive_inductance_refused(self, axis, ms):
        # ripples of reversed sign, as reversed current sensors record them,
        # give a negative inductance: refused naming the first axis they hit
        L = 30.0 / (OMEGA * -(0.1 if axis == "d" else 0.2))
        with pytest.raises(NonPhysical, match="^" + re.escape(
                f"{axis}-axis zero-bias run: estimated L{axis} = {L:.6g} H, but an inductance must be positive: "
                "check the sign of the current channels") + "$"):
            estimate_L(plan_runs(ipm_plan(), R=12.15), list(ms))

    def test_missing_axis_refused(self):
        runs = plan_runs(ipm_plan(id_grid=(1.0,)), R=12.15)
        ms = [meas(i_tilde_d=1.0), meas(i_tilde_q=1.0), meas(i_tilde_d=1.0)]
        with pytest.raises(ValueError, match="^no zero-bias run injects the q axis$"):
            estimate_L([runs[0], runs[2]], [ms[0], ms[2]])
        with pytest.raises(ValueError, match="^no zero-bias run injects the d axis$"):
            estimate_L(runs[1:], ms[1:])


def split_model_data(p, plan, even=0.0):
    """The plan's biased runs and their ripples from the paper's first-order
    model at the linearized flux, written out per configuration. `even`
    adds even * i_bar**2 to the two ripples that only a12 predicts."""
    k = plan.u_tilde / plan.omega
    runs = plan_runs(plan, p.R)[2:]
    ms = []
    for run in runs:
        ib = run.i_target
        if run.role == ROLE_D_SWEEP:
            ms.append(meas(i_bar_d=ib, i_tilde_d=k * (
                1 / p.Ld + 6 * p.a30 * p.Ld * ib + 12 * p.a40 * p.Ld**2 * ib * ib)))
        elif run.role == ROLE_CROSS_D_INJ:
            ms.append(meas(i_bar_q=ib, i_tilde_d=k * (1 / p.Ld + 2 * p.a22 * p.Lq**2 * ib * ib),
                           i_tilde_q=2 * k * p.a12 * p.Lq * ib + even * ib * ib))
        else:
            ms.append(meas(i_bar_q=ib, i_tilde_d=2 * k * p.a12 * p.Lq * ib + even * ib * ib,
                           i_tilde_q=k * (1 / p.Lq + 12 * p.a04 * p.Lq**2 * ib * ib)))
    return runs, ms


class TestSaturationRegression:
    @pytest.mark.parametrize("fixture, id_grid, iq_grid, u_tilde, even", [
        ("ipm", symmetric_grid(2.0, 0.3), symmetric_grid(2.0, 0.3), 30.0, 0.0),
        ("spm", symmetric_grid(8.0, 0.5), symmetric_grid(8.0, 0.5), 40.0, 0.0),
        ("ipm", (-1.0, 1.0), symmetric_grid(2.0, 0.3), 30.0, 0.0),  # two d biases suffice
        # no a12 and even data on a symmetric grid: the odd a12 column sees 0
        ("spm", symmetric_grid(1.5, 0.5), (-1.5, -0.5, 0.5, 1.5), 40.0, 0.002),
    ], ids=["ipm", "spm", "two_point_d_sweep", "even_a12_data"])
    def test_exact_recovery_from_model_data(self, request, fixture, id_grid, iq_grid, u_tilde, even):
        p = request.getfixturevalue(fixture)
        if even:
            p = dataclasses.replace(p, a12=0.0)
        plan = ipm_plan(id_grid=id_grid, iq_grid=iq_grid, u_tilde=u_tilde)
        est = estimate_saturation(*split_model_data(p, plan, even), p.Ld, p.Lq)
        for name in ("a30", "a12", "a40", "a22", "a04"):
            assert est.coefficients[name] == pytest.approx(getattr(p, name), rel=1e-10, abs=1e-12), name
        assert even or est.residual_rms < 1e-10

    @pytest.mark.parametrize("id_grid, iq_grid, match", [
        (symmetric_grid(2.0, 0.3), (), "zero"),  # no q sweep: a12, a22, a04 see nothing
        ((1.0, 1.0, 1.0), symmetric_grid(2.0, 0.3), "rank-deficient"),  # a30 and a40 columns proportional
    ], ids=["no_q_sweep", "one_d_bias"])
    def test_undetermined_plans_refused(self, ipm, id_grid, iq_grid, match):
        runs, ms = split_model_data(ipm, ipm_plan(id_grid=id_grid, iq_grid=iq_grid))
        with pytest.raises(RankDeficient, match=match):
            estimate_saturation(runs, ms, ipm.Ld, ipm.Lq)

    def test_off_axis_runs(self, ipm):
        # bias currents at 45 and 135 degrees, each run injected on d or on
        # q: every row mixes the coefficient blocks of the paper's plan
        w, ut = Waveform.square(), 30.0
        runs, ms = [], []
        for mag, angle, inj in itertools.product((0.5, 1.0, 1.5, 2.0), (45.0, 135.0), ("d", "q")):
            i_d, i_q = mag * math.cos(math.radians(angle)), mag * math.sin(math.radians(angle))
            spec = InjectionSpec(ipm.R * i_d, ipm.R * i_q, ut * (inj == "d"), ut * (inj == "q"), OMEGA, w)
            runs.append(estimator.PlanRun("off_axis", mag, spec))
            ms.append(meas(spec.u_bar_d / ipm.R, spec.u_bar_q / ipm.R, *predict_ripple(ipm, spec)))
        est = estimate_saturation(runs, ms, ipm.Ld, ipm.Lq)
        for name in ("a30", "a12", "a40", "a22", "a04"):
            assert est.coefficients[name] == pytest.approx(getattr(ipm, name), rel=1e-10), name
        assert est.residual_rms < 1e-12


def split_sigma_data(motor):
    """Plan and measurements for the paper's split: ripple amplitudes with
    1 % noise and unequal per-point sigmas on each axis, at unequal biases."""
    rng = np.random.default_rng(17)
    grid = (-2.0, -1.3, -0.4, 0.5, 1.1, 2.0)
    plan = ipm_plan(id_grid=grid, iq_grid=grid)

    def noisy(ib_d, ib_q):
        it_d, it_q = predict_ripple(motor, InjectionSpec(
            motor.R * ib_d, motor.R * ib_q, plan.u_tilde, plan.u_tilde, OMEGA, plan.waveform))
        s_d, s_q = rng.uniform(1e-4, 2e-3, 2)
        return dataclasses.replace(
            meas(ib_d, ib_q, it_d * (1 + 0.01 * rng.standard_normal()),
                 it_q * (1 + 0.01 * rng.standard_normal())),
            sigma_i_tilde=np.array([s_d, s_q]))

    return (plan, [noisy(ib, 0.0) for ib in grid], [noisy(0.0, ib) for ib in grid],
            [noisy(0.0, ib) for ib in grid])


class TestSplitSigmas:
    def test_sigmas_propagate_point_noise(self, ipm):
        # each coefficient's sigma is the per-point noise (omega/u_tilde)
        # sigma_i pushed through the pseudo-inverse of its regressor columns,
        # written out here from the Hessian at the linearized flux
        plan, ms_d, ms_c, ms_q = split_sigma_data(ipm)
        k = OMEGA / plan.u_tilde

        def propagated(columns, sigma_i):
            A = np.linalg.pinv(np.column_stack(columns))
            return np.sqrt(np.diag(A @ np.diag((k * np.asarray(sigma_i)) ** 2) @ A.T))

        est = estimate_saturation(plan_runs(plan, ipm.R)[2:], ms_d + ms_c + ms_q, ipm.Ld, ipm.Lq)
        x_d = ipm.Ld * np.array([m.i_bar[0] for m in ms_d])
        want = propagated([6 * x_d, 12 * x_d**2], [m.sigma_i_tilde[0] for m in ms_d])
        assert [est.sigma["a30"], est.sigma["a40"]] == pytest.approx(want, rel=1e-10)

        x_c = ipm.Lq * np.array([m.i_bar[1] for m in ms_c])
        x_q = ipm.Lq * np.array([m.i_bar[1] for m in ms_q])
        assert est.sigma["a22"] == pytest.approx(
            propagated([2 * x_c**2], [m.sigma_i_tilde[0] for m in ms_c])[0], rel=1e-10)
        assert est.sigma["a12"] == pytest.approx(propagated(
            [2 * np.concatenate([x_c, x_q])],
            [m.sigma_i_tilde[1] for m in ms_c] + [m.sigma_i_tilde[0] for m in ms_q])[0], rel=1e-10)
        assert est.sigma["a04"] == pytest.approx(
            propagated([12 * x_q**2], [m.sigma_i_tilde[1] for m in ms_q])[0], rel=1e-10)


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
        result = run_identification(p, plan, measure_periods=20)
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
        result = run_identification(p, plan, measure_periods=20)
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
        ms = settled_ripples(ipm, runs, 20)
        ind = estimate_L(runs, ms)
        got = {"Ld": ind.L_d, "Lq": ind.L_q,
               **estimate_saturation(runs, ms, ind.L_d, ind.L_q).coefficients}
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
            est = estimate_L(runs, settled_ripples(ipm, runs, 20))
            return abs(est.L_q - ipm.Lq)

        errs = [lq_error(OMEGA * 2**k) for k in range(3)]
        assert 3.0 <= errs[0] / errs[1] <= 5.0
        assert 3.0 <= errs[1] / errs[2] <= 5.0

    def test_null_motor_with_noise_within_sigma(self):
        p = MotorParams(R=10.0, Ld=0.1, Lq=0.05)
        plan = ExperimentPlan(omega=OMEGA, waveform=Waveform.square(), u_tilde=20.0,
                              id_grid=(-1.0, -0.5, 0.5, 1.0), iq_grid=(-1.0, -0.5, 0.5, 1.0))
        result = run_identification(p, plan, measure_periods=30,
                                       noise_amp=0.010, seed=5)
        for name in ("a30", "a12", "a40", "a22", "a04"):
            est = getattr(result.params, name)
            sig = result.sigma[name]
            assert abs(est) <= 3.0 * sig, (name, est, sig)

    def test_passthrough_and_sigma_sign(self, ipm):
        plan = ExperimentPlan(omega=OMEGA, waveform=Waveform.square(), u_tilde=30.0,
                              id_grid=(-1.0, 0.5, 1.0), iq_grid=(-1.0, 0.5, 1.0))
        result = run_identification(ipm, plan, measure_periods=10)
        assert result.params.R == ipm.R
        assert result.params.phi_m == ipm.phi_m
        assert result.params.n_pp == ipm.n_pp
        assert all(s >= 0 for s in result.sigma.values())
        assert len(plan_runs(plan, ipm.R)) == 2 + 3 + 6

    def test_refusals(self, ipm):
        # records shorter than two periods or sampled too coarsely, or at a
        # stride that leaves a part sample in each injection period (6: 33.3
        # samples) or in each half-period of the square wave (8: 25
        # samples), records with no q excitation, whose zero-bias runs leave
        # the q axis uninjected (they would leave the q columns of the
        # regression zero, which `gram_fit` refuses: tests/test_ripple.py),
        # then a d-axis zero-bias run whose current is noise alone, with no
        # ripple
        plan = ipm_plan(id_grid=(-1.0, 1.0), iq_grid=(-1.0, 0.5, 1.0))
        runs = plan_runs(plan, ipm.R)
        with pytest.raises(TooShort):
            identify(runs[:1], oracles.in_memory(list(simulate_plan(ipm, runs[:1], measure_periods=1))), ipm)
        traces = list(simulate_plan(ipm, runs, measure_periods=2))

        def thinned(stride):
            return [Trace(tr.t[::stride], tr.u[:, ::stride], tr.i[:, ::stride]) for tr in traces]

        with pytest.raises(Unresolved):
            identify(runs[:1], oracles.in_memory(thinned(20)), ipm)
        for stride, per in ((6, r"33\.3333 samples per period is not an even whole number"),
                            (8, r"25 samples per period is not an even whole number")):
            with pytest.raises(Unresolved, match=r"^run 0 \(ld, \+0\.000 A\): " + per):
                identify(runs, oracles.in_memory(thinned(stride)), ipm)
        for stride in (5, 10):
            identify(runs, oracles.in_memory(thinned(stride)), ipm)
        identify(runs, oracles.in_memory(traces), ipm)
        d_only = [k for k, run in enumerate(runs) if run.spec.u_bar_q == run.spec.u_tilde_q == 0.0]
        with pytest.raises(ValueError, match="plan must include both zero-bias runs"):
            identify([runs[k] for k in d_only], oracles.in_memory([traces[k] for k in d_only]), ipm)
        silent = dataclasses.replace(traces[0], i=np.stack([np.zeros_like(traces[0].i[0]), traces[0].i[1]]))
        traces[0] = silent.with_noise(0.010, seed=1)
        with pytest.raises(ZeroRipple, match=r"run 0 \(ld, \+0\.000 A\): d-axis zero-bias"):
            identify(runs, oracles.in_memory(traces), ipm)

    @pytest.mark.parametrize("shift", [0.0005, 100.0005], ids=["quarter_period", "100s"])
    def test_time_column_may_start_anywhere(self, ipm, shift):
        # a record's injection starts at its first sample, whatever its time
        # stamp: traces shifted a quarter period (500 Hz), or 100 s on,
        # identify as from 0, not as zero-bias runs without a ripple
        plan = ipm_plan(id_grid=(-1.0, 0.5, 1.0), iq_grid=(-1.0, 0.5, 1.0))
        runs = plan_runs(plan, ipm.R)
        traces = list(simulate_plan(ipm, runs, measure_periods=10))
        moved = [Trace(tr.t + shift, tr.u, tr.i) for tr in traces]
        want = identify(runs, oracles.in_memory(traces), ipm).params
        got = identify(runs, oracles.in_memory(moved), ipm).params
        for name in ("Ld", "Lq", "a30", "a12", "a40", "a22", "a04"):
            assert getattr(got, name) == pytest.approx(getattr(want, name), rel=1e-9), name

    def test_two_point_d_sweep_identifies(self, ipm):
        # the Gram matrix, not a count of bias currents, decides: each run's
        # transient from rest sweeps its flux from zero to its operating
        # point, so a d sweep of only +-1 A still identifies theta
        plan = ipm_plan(id_grid=(-1.0, 1.0), iq_grid=(-1.0, 0.5, 1.0))
        result = run_identification(ipm, plan, measure_periods=10)
        for name in ("Ld", "Lq", "a30", "a12", "a40", "a22", "a04"):
            assert getattr(result.params, name) == pytest.approx(getattr(ipm, name), rel=1e-4), name

    def test_reads_no_flux_channel(self, ipm, tmp_path):
        # the flux is rebuilt from t, u and i alone, all that a trace and its
        # file hold: the traces read back from their files give the result
        # of the traces in memory bit for bit
        plan = ipm_plan(id_grid=(-1.0, 0.5, 1.0), iq_grid=(-1.0, 0.5, 1.0))
        runs = plan_runs(plan, ipm.R)
        traces = list(simulate_plan(ipm, runs, measure_periods=10))
        paths = [tmp_path / f"{k}.csv" for k in range(len(traces))]
        for tr, path in zip(traces, paths):
            tr.to_csv(path)
        read = [Trace.from_csv(path) for path in paths]
        assert identify(runs, oracles.in_memory(traces), ipm) == identify(runs, oracles.in_memory(read), ipm)

    def test_rebuilt_flux_matches_state(self, ipm):
        # the square-wave drive is held between its switching instants, so
        # integral(u - R i) dt from rest follows the state flux at every
        # sample, with no -u_tilde*dt/2 offset on the injected axis (1.5e-4
        # Wb here by the trapezoid rule)
        plan = ipm_plan(id_grid=(-1.0, 0.5, 1.0), iq_grid=(-1.0, 0.5, 1.0))
        runs = plan_runs(plan, ipm.R)
        record = plan_record(ipm, runs, 10)
        for j, (run, tr) in enumerate(zip(runs, record)):
            phi = rebuild_flux(tr, ipm.R, run.spec.waveform == Waveform.square())
            assert np.max(np.abs(phi - record.flux[:, j])) <= 5e-6

    @pytest.mark.parametrize("fixture, i_max, i_step, u_tilde", [
        ("ipm", 2.0, 0.3, 30.0), ("spm", 8.0, 0.5, 40.0)])
    @pytest.mark.parametrize("noise_amp", [0.0, 0.010])
    def test_theta_is_the_per_sample_regression(self, fixture, i_max, i_step, u_tilde, noise_amp, request):
        # the per-axis moments of the current map's monomials, projected
        # through its coefficient table, give the least squares of every
        # period-centred current sample on the current map at one-hot theta,
        # solved here sample by sample about the nominal theta
        p = request.getfixturevalue(fixture)
        grid = symmetric_grid(i_max, i_step)
        runs = plan_runs(ipm_plan(id_grid=grid, iq_grid=grid, u_tilde=u_tilde), p.R)
        traces = list(simulate_plan(p, runs, measure_periods=10, noise_amp=noise_amp, seed=3))
        basis = np.array(_current_coefficients(np.eye(7))).transpose(0, 2, 1)[..., None]
        theta0 = np.array(p.theta)
        xtx, xtr = np.zeros((7, 7)), np.zeros(7)
        for run, trace in zip(runs, traces):
            per = round(run.spec.period / trace.sample_period)
            blocks = len(trace.t) // per
            phi = rebuild_flux(trace, p.R, held=True)[:, :blocks * per]
            X = _stacked_currents(basis, phi).reshape(7, 2, blocks, per)
            X = (X - X.mean(axis=-1, keepdims=True)).reshape(7, -1)
            i = trace.i[:, :blocks * per].reshape(2, blocks, per)
            y = (i - i.mean(axis=-1, keepdims=True)).reshape(-1)
            xtx += X @ X.T
            xtr += X @ (y - theta0 @ X)
        want = theta0 + np.linalg.solve(xtx, xtr)
        result = identify(runs, oracles.in_memory(traces), p)
        assert np.array(result.params.theta) == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_trace_not_at_rest_refused(self, ipm):
        # a record that starts one period into its run breaks phi(0) = 0, on
        # which the flux integration rests: refused by name, not silently
        # integrated
        plan = ipm_plan(id_grid=(-1.0, 0.5, 1.0), iq_grid=(-1.0, 0.5, 1.0))
        runs = plan_runs(plan, ipm.R)
        traces = list(simulate_plan(ipm, runs, measure_periods=10,
                                    noise_amp=0.010, seed=3))
        identify(runs, oracles.in_memory(traces), ipm)
        traces[3] = Trace(*(getattr(traces[3], f.name)[..., 200:] for f in dataclasses.fields(Trace)))
        with pytest.raises(NotAtRest, match=r"run 3 \(d_sweep, \+0\.500 A\)"):
            identify(runs, oracles.in_memory(traces), ipm)
        with pytest.raises(NotAtRest, match="bench_03.csv"):
            identify(runs, oracles.in_memory(traces), ipm,
                     names=[f"bench_{k:02d}.csv" for k in range(len(runs))])

    def test_reversed_current_channels_refused(self, ipm):
        # both current channels negated, as reversed sensors record them: the
        # fit's inductances come out negative, a numerical failure naming
        # both estimates, not a motor that fails its own validation
        plan = ipm_plan(id_grid=(-1.0, 0.5, 1.0), iq_grid=(-1.0, 0.5, 1.0))
        runs = plan_runs(plan, ipm.R)
        traces = [dataclasses.replace(tr, i=-tr.i)
                  for tr in simulate_plan(ipm, runs, measure_periods=10)]
        with pytest.raises(NonPhysical, match=r"^estimated 1/Ld = -[0-9.]+ 1/H and 1/Lq = -[0-9.]+ 1/H, .*"
                                              r"check the sign of the current channels$"):
            identify(runs, oracles.in_memory(traces), ipm)

    @staticmethod
    def mixed_records(motor, make_trace):
        """The runs and traces of two plans at different pulsations,
        amplitudes and lengths, interleaved run by run; make_trace(run's
        simulated trace, its flux (2, samples)) gives the trace recorded
        for it."""
        grids = dict(id_grid=(-1.0, 0.5, 1.0), iq_grid=(-1.0, 0.5, 1.0))
        mixed = []
        for plan, periods in ((ipm_plan(**grids), 10),
                              (ipm_plan(u_tilde=20.0, omega=2 * OMEGA, **grids), 16)):
            runs = plan_runs(plan, motor.R)
            record = plan_record(motor, runs, periods)
            mixed.append([(run, make_trace(tr, record.flux[:, j])) for j, (run, tr) in enumerate(zip(runs, record))])
        runs, traces = zip(*(pair[k % 2] for k, pair in enumerate(zip(*mixed))))
        assert {len(trace.t) for trace in traces} == {2001, 3201}
        return runs, traces

    def test_mixed_drives_exact(self, ipm):
        # synthetic runs that obey the rebuild to rounding: the currents are
        # the oracle gradient at the simulated fluxes (zero at the first
        # sample) and each held drive level is solved from the flux step,
        # u_k = (phi_k+1 - phi_k) / dt + R (i_k + i_k+1) / 2. Every sample
        # obeys i = grad H(phi) whatever its drive, so the normal equations
        # summed run by run recover theta to rounding; a rebuilt flux off by
        # as little as half a sample would not
        def exact(tr, phi):
            i_d, i_q = np.array([oracles.currents_oracle(ipm, a, b) for a, b in zip(*phi)]).T
            h = np.diff(tr.t)

            def held_drive(phi, i):
                return np.append(np.diff(phi) / h + ipm.R * 0.5 * (i[1:] + i[:-1]), 0.0)

            u = np.stack([held_drive(phi[0], i_d), held_drive(phi[1], i_q)])
            return dataclasses.replace(tr, u=u, i=np.stack([i_d, i_q]))

        runs, traces = self.mixed_records(ipm, exact)
        result = identify(runs, oracles.in_memory(traces), ipm)
        for name in ("Ld", "Lq", "a30", "a12", "a40", "a22", "a04"):
            assert getattr(result.params, name) == pytest.approx(getattr(ipm, name), rel=1e-10), name

    def test_mixed_drives_simulated(self, ipm):
        # the same mixed runs as RK4 integrates them: only the integration
        # and trapezoid errors remain
        runs, traces = self.mixed_records(ipm, lambda tr, phi: tr)
        result = identify(runs, oracles.in_memory(traces), ipm)
        for name in ("Ld", "Lq", "a30", "a12", "a40", "a22", "a04"):
            assert getattr(result.params, name) == pytest.approx(getattr(ipm, name), rel=1e-4), name

    @pytest.mark.parametrize("fixture, i_max, i_step, u_tilde", [
        ("ipm", 2.0, 0.3, 30.0), ("spm", 8.0, 0.5, 40.0)])
    @pytest.mark.parametrize("periods", [10, 25])
    def test_noise_free_recovery_from_rest(self, fixture, i_max, i_step, u_tilde, periods, request):
        # the fixtures' own sweeps, measured from rest with no transient
        # discard: the regression is exact at every sample, so only the RK4
        # and trapezoid errors remain, including on the SPM runs that settle
        # past the fold of the d-axis curve
        p = request.getfixturevalue(fixture)
        grid = symmetric_grid(i_max, i_step)
        plan = ipm_plan(id_grid=grid, iq_grid=grid, u_tilde=u_tilde)
        result = run_identification(p, plan, measure_periods=periods)
        for name in ("Ld", "Lq", "a30", "a12", "a40", "a22", "a04"):
            assert getattr(result.params, name) == pytest.approx(getattr(p, name), rel=1e-4), name

    def test_residual_rms_is_the_summed_residual(self, spm):
        # the SPM fixture's sweep, noise-free: the reported residual RMS is
        # the RMS of the residuals summed one by one, not what is left after
        # the cancellation of two sums of squares of the currents
        grid = symmetric_grid(8.0, 0.5)
        plan = ipm_plan(id_grid=grid, iq_grid=grid, u_tilde=40.0)
        result = run_identification(spm, plan, measure_periods=25)
        runs = plan_runs(plan, spm.R)
        traces = simulate_plan(spm, runs, measure_periods=25)
        theta = np.array(result.params.theta)
        rss, n = 0.0, 0
        for run, trace in zip(runs, traces):
            _, _, rtr, rows, _ = _run_terms(run, trace, run.role, theta, spm.R)
            rss, n = rss + rtr, n + rows
        assert result.residual_rms == pytest.approx(math.sqrt(rss / n), rel=1e-9)

    def test_sigma_calibration_at_hardware_coefficients(self, ipm):
        # the IPM fixture itself at 500 Hz, 25 periods from rest, 10 mA:
        # with no model remainder left, the reported sigmas must cover the
        # noise alone, so each parameter lies within 3 sigma in >= 95 % of
        # 200 seeded repetitions
        grid = symmetric_grid(2.0, 0.3)
        runs = plan_runs(ipm_plan(id_grid=grid, iq_grid=grid), ipm.R)
        clean = list(simulate_plan(ipm, runs, measure_periods=25))
        names = ("Ld", "Lq", "a30", "a12", "a40", "a22", "a04")
        hits = dict.fromkeys(names, 0)
        n_reps = 200
        for rep in range(n_reps):
            noisy = [t.with_noise(0.010, 9000 + rep * 1000 + k) for k, t in enumerate(clean)]
            result = identify(runs, oracles.in_memory(noisy), ipm)
            for name in names:
                hits[name] += abs(getattr(result.params, name) - getattr(ipm, name)) <= 3.0 * result.sigma[name]
        coverage = {name: hits[name] / n_reps for name in names}
        assert all(c >= 0.95 for c in coverage.values()), coverage

    def test_estimation_result_validation(self, ipm):
        with pytest.raises(ValueError):
            EstimationResult(params=ipm, sigma={"Ld": -1.0}, residual_rms=0.0)


class Odd(Exception):
    """An exception that pickles but cannot be rebuilt from its args."""

    def __init__(self, message, *, b):
        super().__init__(message)
        self.b = b


@pytest.fixture
def deadline():
    """Fail the test, rather than hang the suite, once it has run 60 s."""
    def expire(signum, frame):
        raise TimeoutError("test ran past its 60 s deadline")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


@pytest.mark.usefixtures("deadline")
class TestWorkers:
    def test_worker_holds_one_flux_record(self, monkeypatch):
        # one worker identifying the IPM fixture plan at 10 mA holds the
        # slice's flux record and one run at a time: its traced peak stays
        # within twice the record (2 axes x runs x samples x 8 bytes), where
        # every run's currents, voltages and noisy currents held at once take
        # over four times it
        monkeypatch.setattr(estimator, "_worker_count", lambda n: 1)
        config = load_config(Path(__file__).resolve().parents[1] / "configs" / "ipm.cfg")
        runs = plan_runs(config.plan, config.motor.R)
        record = 2 * len(runs) * (config.measure_periods * config.steps_per_period + 1) * 8
        # a short run first, so that modules imported on first use are not counted
        for periods in (2, config.measure_periods):
            tracemalloc.start()
            try:
                run_identification(config.motor, config.plan, steps_per_period=config.steps_per_period,
                                   measure_periods=periods, noise_amp=0.010, seed=3)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak <= 2 * record, (peak, record)

    def test_worker_count_without_affinity(self, monkeypatch):
        # a platform without os.sched_getaffinity counts os.cpu_count, which
        # may not know
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        for cpus, n, want in ((None, 5, 1), (1, 5, 1), (8, 5, estimator._MAX_WORKERS), (8, 1, 1)):
            monkeypatch.setattr(os, "cpu_count", lambda: cpus)
            assert estimator._worker_count(n) == want, (cpus, n)

    def test_result_independent_of_worker_count(self, ipm, monkeypatch, tmp_path):
        # the IPM fixture plan at 10 mA, simulated by the workers, read back
        # from trace files and taken from memory: one, two and three workers
        # give the same result, bit for bit, and so do the three sources
        plan = ipm_plan(id_grid=symmetric_grid(2.0, 0.3), iq_grid=symmetric_grid(2.0, 0.3))
        runs = plan_runs(plan, ipm.R)
        traces = list(simulate_plan(ipm, runs, measure_periods=25, noise_amp=0.010, seed=3))
        paths = [tmp_path / f"{k:03d}.csv" for k in range(len(runs))]
        for path, trace in zip(paths, traces):
            trace.to_csv(path)
        results = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(estimator, "_worker_count", lambda n: workers)
            results.append((run_identification(ipm, plan, measure_periods=25, noise_amp=0.010, seed=3),
                            identify(runs, lambda lo, hi: map(Trace.from_csv, paths[lo:hi]), ipm),
                            identify(runs, oracles.in_memory(traces), ipm)))
        assert results[0] == results[1] == results[2]
        assert results[0][0] == results[0][1] == results[0][2]

    def test_plan_without_both_zero_bias_axes_refused(self, ipm):
        # the plan-wide check, made after the per-run checks of every run
        plan = ipm_plan(id_grid=(-1.0, 1.0), iq_grid=(-1.0, 0.5, 1.0))
        runs = plan_runs(plan, ipm.R)[1:]
        traces = list(simulate_plan(ipm, runs, measure_periods=2))
        with pytest.raises(ValueError, match="plan must include both zero-bias runs"):
            identify(runs, oracles.in_memory(traces), ipm)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_trace_count_must_match_runs(self, ipm, workers, monkeypatch, tmp_path):
        # a load that gives one trace too few or too many for its slice, and
        # names of another length than the runs, are refused as a trace count
        # that does not match the runs; a trace file that cannot be read
        # keeps its own message
        monkeypatch.setattr(estimator, "_worker_count", lambda n: workers)
        plan = ipm_plan(id_grid=(-1.0, 1.0), iq_grid=(-1.0, 0.5, 1.0))
        runs = plan_runs(plan, ipm.R)
        traces = list(simulate_plan(ipm, runs, measure_periods=2))
        for load in (lambda lo, hi: traces[lo:hi - 1], lambda lo, hi: traces[lo:hi] + traces[:1]):
            with pytest.raises(ValueError, match="^one trace per planned run required$"):
                identify(runs, load, ipm)
        for names in ([f"run{k}" for k in range(len(runs) - 1)], [f"run{k}" for k in range(len(runs) + 1)]):
            with pytest.raises(ValueError, match=f"^one trace per planned run required: {len(names)} names "):
                identify(runs, oracles.in_memory(traces), ipm, names=names)
        paths = [tmp_path / f"{k:03d}.csv" for k in range(len(runs))]
        for path, trace in zip(paths, traces):
            trace.to_csv(path)
        paths[-1].write_text("t,u_d,u_q,i_d\n0,0,0,0\n")
        with pytest.raises(ValueError, match="missing column 'i_q'"):
            identify(runs, lambda lo, hi: map(Trace.from_csv, paths[lo:hi]), ipm)

    def test_values_in_slice_order(self, monkeypatch):
        # every slice but the last runs in a child of its own; a value larger
        # than a pipe's buffer comes back whole, and no child is left
        monkeypatch.setattr(estimator, "_worker_count", lambda n: 3)
        out = _in_slices(lambda lo, hi: (os.getpid(), np.full(200_000, float(lo))), 3)
        pids = [pid for pid, _ in out]
        assert pids[-1] == os.getpid() and len(set(pids)) == 3
        for k, (_, values) in enumerate(out):
            assert np.array_equal(values, np.full(200_000, float(k)))
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("error", [NotAtRest, ZeroRipple, TooShort, ValueError])
    def test_first_error_in_slice_order(self, error, monkeypatch):
        # slices 1 (a child) and 2 (this process) both fail: slice 1's error
        # arrives as it was raised, and no child is left
        def fn(lo, hi):
            if lo:
                raise error(f"slice {lo} failed")
            return lo

        monkeypatch.setattr(estimator, "_worker_count", lambda n: 3)
        with pytest.raises(error, match=re.escape("slice 1 failed")) as info:
            _in_slices(fn, 3)
        assert info.type is error
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_error_that_cannot_be_rebuilt(self, monkeypatch, capfd):
        # slice 0's error cannot be rebuilt from its args in this process:
        # it arrives as a RuntimeError made in its child, naming the worker,
        # its type and message. The later child's result, larger than a
        # pipe's buffer, is still received, so no child prints a broken
        # pipe, and no child is left
        def fn(lo, hi):
            if lo == 0:
                raise Odd("slice 0 failed", b=1)
            return np.full(1_000_000, float(lo))

        monkeypatch.setattr(estimator, "_worker_count", lambda n: 3)
        with pytest.raises(RuntimeError, match="^" + re.escape("worker 0 of 3 raised Odd: slice 0 failed")):
            _in_slices(fn, 3)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert capfd.readouterr().err == ""

    def test_daemonic_process_runs_slices_in_process(self, ipm, monkeypatch):
        # a multiprocessing pool worker is daemonic and may start no process
        # of its own: there, all slices run in that worker, with the result
        # of this process bit for bit and no child left
        monkeypatch.setattr(estimator, "_worker_count", lambda n: 2)
        plan = ipm_plan(id_grid=(-1.0, 1.0), iq_grid=(-1.0, 0.5, 1.0))
        here = identify_leaving_no_child(ipm, plan)
        with multiprocessing.get_context("fork").Pool(1) as pool:
            there = pool.apply_async(identify_leaving_no_child, (ipm, plan)).get(timeout=120)
        assert there == here == (here[0], True)

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    def test_no_descriptor_left_open(self, monkeypatch):
        # a success, a child that raises and a child that leaves without a
        # result each leave this process's open descriptors as they were
        def fails(lo, hi):
            if lo == 1:
                raise ValueError("slice 1 failed")
            return lo

        monkeypatch.setattr(estimator, "_worker_count", lambda n: 3)
        before = sorted(os.listdir("/proc/self/fd"))
        assert _in_slices(lambda lo, hi: lo, 3) == [0, 1, 2]
        with pytest.raises(ValueError, match="slice 1 failed"):
            _in_slices(fails, 3)
        with pytest.raises(ChildProcessError, match=re.escape("left no result (exit status 3)")):
            _in_slices(lambda lo, hi: os._exit(3) if lo == 0 else lo, 3)
        assert sorted(os.listdir("/proc/self/fd")) == before

    def test_child_without_result(self, monkeypatch):
        # a child that leaves without writing its result is an error with
        # its exit status, not a hang
        monkeypatch.setattr(estimator, "_worker_count", lambda n: 2)
        with pytest.raises(ChildProcessError, match=re.escape("left no result (exit status 3)")):
            _in_slices(lambda lo, hi: os._exit(3) if lo == 0 else lo, 2)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
