"""Acceptance gate: the seven project-level criteria, each as one test that
prints a PASS/FAIL line (run with -s or check captured output).

Criterion 1 is implemented exactly as stated: closed-loop recovery of the
hardware-table coefficients at the hardware sweep grids, through the
identification, which regresses every run's ripple on the exact Hessian at
its measured mean flux. The paper's first-order split (regressors at the
linearized flux L * i_bar) carries a pulsation-independent second-order bias
above 10% at these coefficient magnitudes; criterion 7 checks that split on
its own model data, and test_estimator.py checks it against its analytic
fixed point. DECISIONS.md records the rationale for criteria 1 and 6.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from satpmsm.config import symmetric_grid
from satpmsm.estimator import (
    ExperimentPlan,
    estimate_saturation,
    identify,
    plan_runs,
    run_identification,
    simulate_plan,
)
from satpmsm.injection import F_array, InjectionSpec, Waveform
from satpmsm.magnetics import (
    currents_from_flux,
    energy,
    flux_from_currents_exact,
    flux_from_currents_first_order,
)
from satpmsm.ripple import RippleMeasurement, extract_ripple
from satpmsm.simulator import SimConfig, simulate

import oracles

OMEGA_500 = 2.0 * math.pi * 500.0

PARAMS = ("Ld", "Lq", "a30", "a12", "a40", "a22", "a04")
L_TOL = 0.01
ALPHA_TOL = 0.10


def report(criterion, ok, detail):
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'} - {detail}")


def scaled(p, eps):
    return dataclasses.replace(p, a30=p.a30 * eps, a12=p.a12 * eps,
                               a40=p.a40 * eps, a22=p.a22 * eps, a04=p.a04 * eps)


def test_criterion_1_parameter_recovery(ipm, spm):
    """Closed-loop recovery at the hardware grids: L within 1%, each
    saturation coefficient within 10%, both fixtures, under 60 s."""
    t0 = time.perf_counter()
    failures = []
    for label, motor, grid, u_tilde in (
        ("IPM", ipm, symmetric_grid(2.0, 0.3), 30.0),
        ("SPM", spm, symmetric_grid(8.0, 0.5), 40.0),
    ):
        plan = ExperimentPlan(omega=OMEGA_500, waveform=Waveform.square(),
                              u_tilde=u_tilde, id_grid=grid, iq_grid=grid)
        result = run_identification(motor, plan, measure_periods=25)
        print(f"  {label} sweep ({len(grid)} bias points, u_tilde={u_tilde:g} V):")
        for name in PARAMS:
            true = getattr(motor, name)
            rec = getattr(result.params, name)
            tol = L_TOL if name in ("Ld", "Lq") else ALPHA_TOL
            err = (rec - true) / true
            ok = abs(err) <= tol
            print(f"    {name:>4}: true {true:9.4f}  recovered {rec:9.4f}  "
                  f"error {100 * err:+7.2f}%  (tol {100 * tol:.0f}%) {'ok' if ok else 'FAIL'}")
            if not ok:
                failures.append(f"{label} {name}: {100 * err:+.1f}%")
    elapsed = time.perf_counter() - t0
    print(f"  runtime {elapsed:.1f}s (budget 60s)")
    assert elapsed < 60.0
    report(1, not failures, f"parameter recovery at stated tolerances; runtime {elapsed:.1f}s")
    if failures:
        pytest.fail(
            "criterion 1: recovery outside the stated tolerances; the exact-"
            "Hessian regression should leave only the O(1/omega^2) averaging "
            "remainder (see DECISIONS.md). Violations: " + "; ".join(failures))


def test_criterion_2_averaging_order(ipm):
    """Sup-norm gap between the simulated current and i_bar + i_tilde*F
    contracts by [3, 5] per pulsation doubling, 3-point ladder from 500 Hz."""

    def gap(omega):
        spec = InjectionSpec(0.0, 0.0, 30.0, 0.0, omega, Waveform.square())
        cfg_settle = int(np.ceil(7.0 * max(ipm.Ld, ipm.Lq) / ipm.R / spec.period)) + 40
        cfg = SimConfig(dt=spec.period / 200, t_end=(cfg_settle + 1) * spec.period)
        tr = simulate(ipm, spec, cfg)
        it_d, _ = oracles.ripple_amplitudes_oracle(ipm, 0.0, 0.0, 30.0, 0.0, omega)
        sl = slice(-201, None)
        model = it_d * F_array(spec.waveform, omega * tr.t[sl])
        return float(np.max(np.abs(tr.i[0, sl] - model)))

    gaps = [gap(OMEGA_500 * 2**k) for k in range(3)]
    r1, r2 = gaps[0] / gaps[1], gaps[1] / gaps[2]
    ok = 3.0 <= r1 <= 5.0 and 3.0 <= r2 <= 5.0
    report(2, ok, f"gap ladder {gaps[0]:.2e} / {gaps[1]:.2e} / {gaps[2]:.2e}, "
                  f"contraction {r1:.2f}, {r2:.2f} in [3, 5]")
    assert ok


def test_criterion_3_first_order_inversion_order(ipm):
    """Exact-vs-first-order flux gap contracts by [3.5, 4.5] per halving of
    the saturation coefficients, eps in {1, 1/2, 1/4}."""
    grid = np.array(np.meshgrid(np.linspace(-0.3, 0.3, 5), np.linspace(-0.3, 0.3, 5), indexing="ij"))

    def max_gap(eps):
        pk = scaled(ipm, eps)
        exact = flux_from_currents_exact(pk, grid, tol=1e-13)
        return float(np.abs(exact - flux_from_currents_first_order(pk, grid)).max())

    gaps = [max_gap(eps) for eps in (1.0, 0.5, 0.25)]
    r1, r2 = gaps[0] / gaps[1], gaps[1] / gaps[2]
    ok = 3.5 <= r1 <= 4.5 and 3.5 <= r2 <= 4.5
    report(3, ok, f"contraction {r1:.2f}, {r2:.2f} in [3.5, 4.5]")
    assert ok


def test_criterion_4_model_structure(ipm, spm):
    """Jacobian symmetry to 1e-8 relative on 1000 random points; exact mirror
    symmetry; gradient matches finite differences of the energy to 1e-6."""
    rng = np.random.default_rng(2024)
    motors = [ipm, spm, scaled(ipm, 0.5), scaled(spm, 2.0)]
    points = rng.uniform(-0.5, 0.5, size=(1000, 2))  # point k on motors[k % 4]
    h = 1e-6
    worst_sym = 0.0
    worst_grad = 0.0
    for j, p in enumerate(motors):
        fd, fq = points[j::len(motors)].T

        def i(a, b):
            return currents_from_flux(p, np.array([a, b]))

        def H(a, b):
            return energy(p, np.array([a, b]))

        didq_dfd = (i(fd + h, fq)[1] - i(fd - h, fq)[1]) / (2 * h)
        did_dfq = (i(fd, fq + h)[0] - i(fd, fq - h)[0]) / (2 * h)
        scale = np.maximum(max(1.0 / p.Ld, 1.0 / p.Lq), np.maximum(abs(didq_dfd), abs(did_dfq)))
        worst_sym = max(worst_sym, float((abs(didq_dfd - did_dfq) / scale).max()))

        assert np.array_equal(H(fd, -fq), H(fd, fq))
        c, m = i(fd, fq), i(fd, -fq)
        assert np.array_equal(m[0], c[0]) and np.array_equal(m[1], -c[1])

        g = np.array([(H(fd + h, fq) - H(fd - h, fq)) / (2 * h), (H(fd, fq + h) - H(fd, fq - h)) / (2 * h)])
        cscale = np.maximum(abs(c).max(axis=0), 1e-3)
        worst_grad = max(worst_grad, float((abs(c - g) / cscale).max()))
    ok = worst_sym <= 1e-8 and worst_grad <= 1e-6
    report(4, ok, f"worst Jacobian asymmetry {worst_sym:.2e} (tol 1e-8), "
                  f"worst gradient mismatch {worst_grad:.2e} (tol 1e-6), mirror exact")
    assert ok


def test_criterion_5_steady_state_identity(spm):
    """Post-transient mean current equals u_bar/R within 0.1% for the
    square-injection configuration (23 V bias, 30 V ripple, 500 Hz)."""
    spec = InjectionSpec(23.0, 0.0, 30.0, 0.0, OMEGA_500, Waveform.square())
    discard = oracles.default_discard(spm, spec)
    cfg = SimConfig(dt=spec.period / 200, t_end=discard + 40 * spec.period)
    meas = extract_ripple(simulate(spm, spec, cfg), spec, discard)
    want = 23.0 / 6.69
    err = abs(meas.i_bar[0] - want) / want
    ok = err <= 1e-3
    report(5, ok, f"mean {meas.i_bar[0]:.5f} A vs u_bar/R {want:.5f} A, "
                  f"relative error {err:.2e} (tol 1e-3)")
    assert ok


def test_criterion_6_uncertainty_calibration(ipm):
    """With 10 mA uniform measurement noise, the true parameters fall within
    3 sigma of the estimates in at least 95% of 200 seeded repetitions.

    Run on a mildly saturated motor at 2 kHz so the deterministic remainders
    of the procedure (second order in 1/omega and in the saturation
    strength) stay well below the noise-driven sigma; where they dominate
    sigma the criterion would measure bias, not calibration (see
    DECISIONS.md).
    """
    t0 = time.perf_counter()
    motor = scaled(ipm, 0.1)
    grid = symmetric_grid(1.0, 0.25)
    plan = ExperimentPlan(omega=2.0 * math.pi * 2000.0, waveform=Waveform.square(),
                          u_tilde=30.0, id_grid=grid, iq_grid=grid)
    runs = plan_runs(plan, motor.R)
    clean = list(simulate_plan(motor, runs, measure_periods=20))

    n_reps = 200
    hits = {name: 0 for name in PARAMS}
    for rep in range(n_reps):
        # uniform noise is applied to the sampled currents only, so noising a
        # clean trace reproduces a noisy simulation with those draws exactly
        noisy = [t.with_noise(0.010, 7000 + rep * 1000 + k) for k, t in enumerate(clean)]
        result = identify(runs, oracles.in_memory(noisy), motor)
        for name in PARAMS:
            est = getattr(result.params, name)
            if abs(est - getattr(motor, name)) <= 3.0 * result.sigma[name]:
                hits[name] += 1
    elapsed = time.perf_counter() - t0
    coverage = {name: hits[name] / n_reps for name in PARAMS}
    ok = all(c >= 0.95 for c in coverage.values()) and elapsed < 600.0
    report(6, ok, "3-sigma coverage " +
           ", ".join(f"{n}={100 * c:.1f}%" for n, c in coverage.items()) +
           f"; runtime {elapsed:.0f}s (budget 600s)")
    assert elapsed < 600.0
    for name, c in coverage.items():
        assert c >= 0.95, (name, c)


def test_criterion_7_noiseless_regression_exactness(ipm, spm):
    """Coefficients recovered to 1e-10 relative from data generated exactly
    by the sweep regression models."""

    def meas(i_bar_d=0.0, i_bar_q=0.0, i_tilde_d=0.0, i_tilde_q=0.0):
        return RippleMeasurement(i_bar=np.array([i_bar_d, i_bar_q]), i_tilde=np.array([i_tilde_d, i_tilde_q]),
                                 residual_rms=np.zeros(2), n_periods_used=10, n_samples=1000,
                                 sigma_i_tilde=np.zeros(2))

    worst = 0.0
    for p, grid, ut in ((ipm, symmetric_grid(2.0, 0.3), 30.0),
                        (spm, symmetric_grid(8.0, 0.5), 40.0)):
        plan = ExperimentPlan(omega=OMEGA_500, waveform=Waveform.square(), u_tilde=ut,
                              id_grid=grid, iq_grid=grid)
        om = plan.omega
        ms_b = [meas(i_bar_d=ib,
                     i_tilde_d=ut / om * (1 / p.Ld + 6 * p.a30 * p.Ld * ib
                                          + 12 * p.a40 * p.Ld**2 * ib * ib))
                for ib in grid]
        ms_c = [meas(i_bar_q=ib,
                     i_tilde_d=ut / om * (1 / p.Ld + 2 * p.a22 * p.Lq**2 * ib * ib),
                     i_tilde_q=2 * ut / om * p.a12 * p.Lq * ib)
                for ib in grid]
        ms_d = [meas(i_bar_q=ib,
                     i_tilde_d=2 * ut / om * p.a12 * p.Lq * ib,
                     i_tilde_q=ut / om * (1 / p.Lq + 12 * p.a04 * p.Lq**2 * ib * ib))
                for ib in grid]
        est = estimate_saturation(plan_runs(plan, p.R)[2:], ms_b + ms_c + ms_d, p.Ld, p.Lq)
        for name in PARAMS[2:]:
            worst = max(worst, abs(est.coefficients[name] - getattr(p, name)) / abs(getattr(p, name)))
    ok = worst <= 1e-10
    report(7, ok, f"worst relative recovery error {worst:.2e} (tol 1e-10)")
    assert ok
