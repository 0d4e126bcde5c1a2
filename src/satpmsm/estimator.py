"""Magnetic-parameter identification from injection runs.

The experiment plan holds the rotor locked and realizes four configurations:

  (a) zero bias, one axis injected each (two runs)
  (b) d-axis bias sweep, d injection
  (c) q-axis bias sweep, d injection
  (d) q-axis bias sweep, q injection

Bias voltages follow from the target mean currents through u_bar = R * i_bar;
R is an input (taken as known), never estimated.

Every run starts at rest, so its flux at each sample is phi(t) =
integral(u - R i) dt from the first sample (`ripple.rebuild_flux`), and its
current is i(t) = grad H(phi(t)). The potential is quartic, so that relation
is linear in theta = (1/Ld, 1/Lq, a30, a12, a40, a22, a04) at every sample,
the transient from rest included: `estimate_from_records` solves one least
squares over every d and q sample of every run, with the regressor columns
taken from the model's current map at one-hot theta. Each whole injection
period's mean is subtracted from the currents and from the regressors first.
That keeps the ripple and the transient's drift within the period, and drops
the slow random walk that current noise puts into the rebuilt flux,
R * integral(n) dt, which would otherwise weigh on the sigmas (see
DECISIONS.md). Only the t, u and i channels are read, never a trace's flux
channels, so estimates from ingested measurement data and from in-memory
simulations agree bit for bit.

Reported uncertainties are 1-sigma ordinary least-squares standard errors
from the residual scatter, propagated through 1/theta for Ld and Lq.

`estimate_L`, `estimate_d_axis` and `estimate_cross` keep the paper's
first-order split: inductances from (a), then regressions of the settled
ripple amplitudes on columns of the Hessian, evaluated at the linearized
flux L * i_bar. That flux misses the true operating point at second order in
the coefficients, a bias that does not shrink with pulsation, so the
identification itself does not use them.
"""

from __future__ import annotations

import dataclasses
import math
from typing import NamedTuple, Sequence

import numpy as np

from .injection import InjectionSpec, Waveform
from .leastsq import RankDeficient, gram_fit
from .magnetics import MotorParams, _current_coefficients, _hessian, _stacked_currents
from .ripple import RippleMeasurement, _centred, extract_ripple, period_blocks, rebuild_flux
from .simulator import SimConfig, Trace, simulate_batch

ROLE_LD = "ld"
ROLE_LQ = "lq"
ROLE_D_SWEEP = "d_sweep"
ROLE_CROSS_D_INJ = "cross_d_inj"
ROLE_CROSS_Q_INJ = "cross_q_inj"

PARAM_NAMES = ("Ld", "Lq", "a30", "a12", "a40", "a22", "a04")

_ZERO_RIPPLE_FLOOR = 1e-12
_THETA_BASIS = np.eye(len(PARAM_NAMES))  # one-hot theta: the model as regressor rows
# the current map's coefficients at one-hot theta as (5, 7, 2, 1) rows, so
# `_stacked_currents` at (2, n) fluxes gives its (7, 2, n) regressor columns
_CURRENT_BASIS = np.array(_current_coefficients(_THETA_BASIS)).transpose(0, 2, 1)[..., None]
_AT_REST_FACTOR = 5.0


class ZeroRipple(RuntimeError):
    """Measured ripple is indistinguishable from zero; cannot divide by it."""


class NotAtRest(RuntimeError):
    """A trace does not start de-energized, so integrating u - R i from its
    first sample would not give its flux."""


@dataclasses.dataclass(frozen=True)
class ExperimentPlan:
    """Sweep definition: pulsation, waveform, ripple amplitude and the target
    mean-current grids for the bias sweeps."""

    omega: float
    waveform: Waveform
    u_tilde: float
    id_grid: tuple[float, ...] = ()
    iq_grid: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if not (self.omega > 0 and math.isfinite(self.omega)):
            raise ValueError("omega must be positive")
        if not (self.u_tilde > 0 and math.isfinite(self.u_tilde)):
            raise ValueError("u_tilde must be positive")
        for grid in (self.id_grid, self.iq_grid):
            if not all(math.isfinite(v) for v in grid):
                raise ValueError("grid currents must be finite")


@dataclasses.dataclass(frozen=True)
class PlanRun:
    """One planned injection run: its role in the estimation, the target mean
    current on the biased axis (0 for the zero-bias runs), and the drive."""

    role: str
    i_target: float
    spec: InjectionSpec


@dataclasses.dataclass(frozen=True)
class RunRecord:
    """A planned run together with its recorded trace."""

    run: PlanRun
    trace: Trace


@dataclasses.dataclass(frozen=True)
class EstimationResult:
    params: MotorParams
    sigma: dict[str, float]
    fit_residuals: dict[str, float]

    def __post_init__(self) -> None:
        if any(s < 0 for s in self.sigma.values()):
            raise ValueError("sigma values must be >= 0")


class InductanceEstimate(NamedTuple):
    L_d: float
    L_q: float
    sigma_L_d: float
    sigma_L_q: float


class DAxisEstimate(NamedTuple):
    a30: float
    a40: float
    sigma_a30: float
    sigma_a40: float
    residual_rms: float


class CrossEstimate(NamedTuple):
    a22: float
    a12: float
    a04: float
    sigma_a22: float
    sigma_a12: float
    sigma_a04: float
    residual_rms_a22: float
    residual_rms_a12: float
    residual_rms_a04: float


def plan_runs(plan: ExperimentPlan, R: float) -> list[PlanRun]:
    """Emit the injection specs for the four configurations (see module
    docstring); empty grids reduce the plan to the two zero-bias runs."""
    if not R > 0:
        raise ValueError("R must be positive")
    w, omega, ut = plan.waveform, plan.omega, plan.u_tilde
    runs = [
        PlanRun(ROLE_LD, 0.0, InjectionSpec(0.0, 0.0, ut, 0.0, omega, w)),
        PlanRun(ROLE_LQ, 0.0, InjectionSpec(0.0, 0.0, 0.0, ut, omega, w)),
    ]
    for i_bar in plan.id_grid:
        runs.append(PlanRun(
            ROLE_D_SWEEP, i_bar, InjectionSpec(R * i_bar, 0.0, ut, 0.0, omega, w)))
    for i_bar in plan.iq_grid:
        runs.append(PlanRun(
            ROLE_CROSS_D_INJ, i_bar, InjectionSpec(0.0, R * i_bar, ut, 0.0, omega, w)))
    for i_bar in plan.iq_grid:
        runs.append(PlanRun(
            ROLE_CROSS_Q_INJ, i_bar, InjectionSpec(0.0, R * i_bar, 0.0, ut, omega, w)))
    return runs


def _checked_ripple(i_tilde: float, sigma: float, context: str) -> float:
    if abs(i_tilde) <= max(10.0 * sigma, _ZERO_RIPPLE_FLOOR):
        raise ZeroRipple(
            f"{context}: ripple {i_tilde:.3g} A is below 10x its noise floor {sigma:.3g} A")
    return i_tilde


def estimate_L(meas_d: RippleMeasurement, meas_q: RippleMeasurement,
               plan: ExperimentPlan) -> InductanceEstimate:
    """Inductances from the two zero-bias runs: L = u_tilde / (omega * i_tilde)
    on the injected axis of each run."""
    it_d = _checked_ripple(meas_d.i_tilde_d, meas_d.sigma_i_tilde_d, "d-axis zero-bias run")
    it_q = _checked_ripple(meas_q.i_tilde_q, meas_q.sigma_i_tilde_q, "q-axis zero-bias run")
    L_d = plan.u_tilde / (plan.omega * it_d)
    L_q = plan.u_tilde / (plan.omega * it_q)
    sigma_L_d = abs(L_d) * meas_d.sigma_i_tilde_d / abs(it_d)
    sigma_L_q = abs(L_q) * meas_q.sigma_i_tilde_q / abs(it_q)
    return InductanceEstimate(L_d, L_q, sigma_L_d, sigma_L_q)


def _fit_with_sigma(X, y, sigma_y):
    """OLS of y on the columns of X by its normal equations.

    Returns the coefficients, their standard errors from the independent
    per-point noise sigma_y, and the residual RMS.
    """
    beta, xtx_inv = gram_fit(X.T @ X, X.T @ y)
    A = xtx_inv @ X.T
    return beta, np.sqrt((A * A) @ (np.asarray(sigma_y) ** 2)), float(np.sqrt(np.mean((y - X @ beta) ** 2)))


def estimate_d_axis(meas: Sequence[RippleMeasurement], L_d: float, plan: ExperimentPlan) -> DAxisEstimate:
    """d-axis saturation from the bias sweep (b): regress the excess ripple
    slope omega*i_tilde_d/u_tilde - 1/L_d on the a30 and a40 columns of
    H_dd at the linearized flux (L_d i_bar, 0)."""
    if len({m.i_bar_d for m in meas}) < 3:
        raise RankDeficient("d-axis sweep needs >= 3 distinct bias currents")
    i_bar = np.array([m.i_bar_d for m in meas])[:, None]
    i_tilde = np.array([m.i_tilde_d for m in meas])
    sigma_y = plan.omega * np.array([m.sigma_i_tilde_d for m in meas]) / plan.u_tilde
    h_dd = _hessian(_THETA_BASIS, L_d * i_bar, 0.0)[0]
    beta, sig, rms = _fit_with_sigma(
        h_dd[:, [2, 4]], plan.omega * i_tilde / plan.u_tilde - 1.0 / L_d, sigma_y)
    return DAxisEstimate(float(beta[0]), float(beta[1]), float(sig[0]), float(sig[1]), rms)


def estimate_cross(meas_c: Sequence[RippleMeasurement], meas_d: Sequence[RippleMeasurement],
                   L_d: float, L_q: float, plan: ExperimentPlan) -> CrossEstimate:
    """Cross and q-axis saturation from the q-bias sweeps, each regressed on
    one column of the Hessian at the linearized flux (0, L_q i_bar_q).

    a22 from the d ripple under d injection (c), on H_dd; a12 from one
    stacked regression over the q ripple of (c) and the d ripple of (d), both
    on H_dq; a04 from the q ripple under q injection (d), on H_qq.
    """
    if len({m.i_bar_q for m in meas_c} | {m.i_bar_q for m in meas_d}) < 3:
        raise RankDeficient("cross sweeps need >= 3 distinct bias currents")
    om, ut = plan.omega, plan.u_tilde
    h_c = _hessian(_THETA_BASIS, 0.0, L_q * np.array([m.i_bar_q for m in meas_c])[:, None])
    h_d = _hessian(_THETA_BASIS, 0.0, L_q * np.array([m.i_bar_q for m in meas_d])[:, None])
    b22, s22, r22 = _fit_with_sigma(
        h_c[0][:, [5]], om * np.array([m.i_tilde_d for m in meas_c]) / ut - 1.0 / L_d,
        om / ut * np.array([m.sigma_i_tilde_d for m in meas_c]))
    b12, s12, r12 = _fit_with_sigma(
        np.concatenate([h_c[1], h_d[1]])[:, [3]],
        om / ut * np.array([m.i_tilde_q for m in meas_c] + [m.i_tilde_d for m in meas_d]),
        om / ut * np.array([m.sigma_i_tilde_q for m in meas_c]
                           + [m.sigma_i_tilde_d for m in meas_d]))
    b04, s04, r04 = _fit_with_sigma(
        h_d[2][:, [6]], om * np.array([m.i_tilde_q for m in meas_d]) / ut - 1.0 / L_q,
        om / ut * np.array([m.sigma_i_tilde_q for m in meas_d]))
    return CrossEstimate(
        a22=float(b22[0]), a12=float(b12[0]), a04=float(b04[0]),
        sigma_a22=float(s22[0]), sigma_a12=float(s12[0]), sigma_a04=float(s04[0]),
        residual_rms_a22=r22, residual_rms_a12=r12, residual_rms_a04=r04,
    )


def predict_ripple(p: MotorParams, spec: InjectionSpec) -> tuple[float, float]:
    """First-order ripple amplitudes for a locked-rotor injection run: the
    Hessian at the linearized flux L * i_bar applied to u_tilde / omega, with
    the bias currents i_bar = u_bar / R."""
    h_dd, h_dq, h_qq = _hessian(p.theta, p.Ld * spec.u_bar_d / p.R, p.Lq * spec.u_bar_q / p.R)
    utd, utq = spec.u_tilde_d, spec.u_tilde_q
    return (h_dd * utd + h_dq * utq) / spec.omega, (h_dq * utd + h_qq * utq) / spec.omega


def _period_centred(rec: RunRecord, R: float) -> tuple[np.ndarray, np.ndarray, int]:
    """One run's regressor columns (7, m) and current samples (m,), d samples
    then q samples, each block of one injection period centred on its own
    mean, and the number of blocks. A block holds the nearest whole number of
    samples per period (`ripple.period_blocks`); a trailing part period is
    left out."""
    trace = rec.trace
    per, blocks = period_blocks(trace, rec.run.spec)
    X = _centred(_stacked_currents(_CURRENT_BASIS, rebuild_flux(trace, rec.run.spec, R)), per, blocks)
    y = _centred(np.stack([trace.i_d, trace.i_q]), per, blocks)
    return X.reshape(len(PARAM_NAMES), -1), y.reshape(-1), 2 * blocks


def estimate_from_records(records: Sequence[RunRecord], nominal: MotorParams) -> EstimationResult:
    """Regress the period-centred currents of all runs on the period-centred
    current map at their rebuilt flux (see module docstring).

    The normal equations are accumulated run by run, so runs may differ in
    pulsation, amplitude and length. They are taken on the residuals r0 =
    y - theta0 X about the nominal theta0 = `nominal.theta` and solved for
    the step delta = theta - theta0, so the residual sum of squares is
    r0.r0 - delta.X r0. theta0 only conditions the arithmetic: that sum does
    not cancel as y.y - theta.X y does. `gram_fit` alone decides whether the
    records determine theta; run roles are not read. R, phi_m and the pole
    count are passed through from `nominal`; R also rebuilds the flux. The
    seven magnetic parameters are replaced by their estimates.
    """
    theta0 = np.array(nominal.theta)
    k = len(PARAM_NAMES)
    xtx, xtr, rtr, n_rows, n_blocks = np.zeros((k, k)), np.zeros(k), 0.0, 0, 0
    for rec in records:
        X, y, blocks = _period_centred(rec, nominal.R)
        r0 = y - theta0 @ X
        xtx += X @ X.T
        xtr += X @ r0
        rtr += float(r0 @ r0)
        n_rows += len(y)
        n_blocks += blocks
    delta, xtx_inv = gram_fit(xtx, xtr)
    theta = theta0 + delta
    rss = max(rtr - float(delta @ xtr), 0.0)
    sig = np.sqrt(rss / (n_rows - n_blocks - k) * np.diag(xtx_inv))

    inv_Ld, inv_Lq, a30, a12, a40, a22, a04 = (float(v) for v in theta)
    params = dataclasses.replace(
        nominal, Ld=1.0 / inv_Ld, Lq=1.0 / inv_Lq,
        a30=a30, a12=a12, a40=a40, a22=a22, a04=a04)
    sigma = {"Ld": float(sig[0]) / inv_Ld**2, "Lq": float(sig[1]) / inv_Lq**2}
    sigma.update((name, float(s)) for name, s in zip(PARAM_NAMES[2:], sig[2:]))
    return EstimationResult(params=params, sigma=sigma,
                            fit_residuals={"current_A": math.sqrt(rss / n_rows)})


def _noise_rms(i: np.ndarray) -> float:
    """Noise RMS of a sampled current from its second differences: for white
    noise their mean square is six times the noise variance, while a smooth
    transient or ripple adds only O(dt^2) per sample."""
    d2 = np.diff(i, 2)
    return math.sqrt(float(d2 @ d2) / (6 * len(d2)))


def measure_traces(runs: Sequence[PlanRun], traces: Sequence[Trace],
                   names: Sequence[str] | None = None) -> list[RunRecord]:
    """Check each trace against its planned injection and record it with it.

    The sampling must resolve the injection period over at least
    `MIN_WHOLE_PERIODS` whole periods (`ripple.period_blocks` raises
    Unresolved or TooShort). Every trace must start at rest (zero current,
    hence zero flux), because the estimator rebuilds the flux by integrating
    from the first sample: a first current sample beyond five times its
    channel's noise RMS (`_noise_rms`, which the transient from rest does not
    inflate) raises NotAtRest. A zero-bias run is one driven with no bias
    voltage; each must show a ripple on every axis it injects, fitted over
    the whole record by `extract_ripple`, or ZeroRipple is raised. Both
    refusals name the trace by `names` or by its run. The zero-bias runs must
    inject both axes between them (ValueError); run roles are labels only.
    """
    if len(runs) != len(traces):
        raise ValueError("one trace per planned run required")
    records, injected = [], set()
    for k, (run, trace) in enumerate(zip(runs, traces)):
        period_blocks(trace, run.spec)
        name = names[k] if names is not None else f"run {k} ({run.role}, {run.i_target:+.3f} A)"
        for axis, i in (("d", trace.i_d), ("q", trace.i_q)):
            floor = _noise_rms(i)
            if abs(i[0]) > max(_AT_REST_FACTOR * floor, _ZERO_RIPPLE_FLOOR):
                raise NotAtRest(
                    f"{name}: first i_{axis} sample {i[0]:.3g} A exceeds "
                    f"{_AT_REST_FACTOR:g}x the noise RMS {floor:.3g} A; "
                    "traces must start de-energized")
        s = run.spec
        if s.u_bar_d == s.u_bar_q == 0.0:
            meas = extract_ripple(trace, s, 0.0)
            for axis, u_tilde, i_tilde, sigma in (("d", s.u_tilde_d, meas.i_tilde_d, meas.sigma_i_tilde_d),
                                                  ("q", s.u_tilde_q, meas.i_tilde_q, meas.sigma_i_tilde_q)):
                if u_tilde != 0.0:
                    _checked_ripple(i_tilde, sigma, f"{name}: {axis}-axis zero-bias run")
                    injected.add(axis)
        records.append(RunRecord(run, trace))
    if injected != {"d", "q"}:
        raise ValueError("plan must include both zero-bias runs")
    return records


def simulate_plan(motor: MotorParams, runs: Sequence[PlanRun], *,
                  steps_per_period: int = 200, measure_periods: int = 40,
                  noise_amp: float = 0.0, seed: int = 0) -> list[Trace]:
    """Simulate all planned runs from rest as one batch (`simulate_batch`) over
    `measure_periods` injection periods, each of `steps_per_period` steps,
    and measure them: run k's currents get uniform noise in [-noise_amp,
    +noise_amp] drawn from seed + k (`Trace.with_noise`)."""
    if not runs:
        return []
    period = runs[0].spec.period
    cfg = SimConfig(dt=period / steps_per_period, t_end=measure_periods * period)
    traces = simulate_batch(motor, [r.spec for r in runs], cfg)
    return [tr.with_noise(noise_amp, seed + k) for k, tr in enumerate(traces)]


def run_identification(motor: MotorParams, plan: ExperimentPlan, *,
                       steps_per_period: int = 200, measure_periods: int = 40,
                       noise_amp: float = 0.0, seed: int = 0) -> tuple[EstimationResult, list[RunRecord]]:
    """Simulate the whole plan against `motor` and estimate its magnetic
    parameters back; the closed-loop path used by tests and the CLI."""
    runs = plan_runs(plan, motor.R)
    traces = simulate_plan(
        motor, runs, steps_per_period=steps_per_period,
        measure_periods=measure_periods, noise_amp=noise_amp, seed=seed)
    records = measure_traces(runs, traces)
    result = estimate_from_records(records, motor)
    return result, records
