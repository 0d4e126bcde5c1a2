"""Magnetic-parameter identification from injection runs.

The experiment plan holds the rotor locked and realizes four configurations:

  (a) zero bias, one axis injected each (two runs)
  (b) d-axis bias sweep, d injection
  (c) q-axis bias sweep, d injection
  (d) q-axis bias sweep, q injection

Bias voltages follow from the target mean currents through u_bar = R * i_bar;
R is an input (taken as known), never estimated.

At high pulsation the ripple of every run is omega * i_tilde = Hess H(phi_bar)
u_tilde, with Hess H the potential's second derivatives at the run's mean flux.
That relation is linear in theta = (1/Ld, 1/Lq, a30, a12, a40, a22, a04), so
`estimate_from_records` solves one least-squares problem over the d and q
ripple rows of all runs. The mean flux comes from each run's own record: the
rotor is locked and every run starts at rest, so phi(t) = integral(u - R i) dt
from the first sample, averaged over the ripple-fit window. Only the t, u and
i channels are read, never a trace's flux channels, so estimates from
ingested measurement data and from in-memory simulations agree bit for bit.

Reported uncertainties are 1-sigma standard errors: the per-run ripple
standard errors (from the extraction fit) propagated through the regression,
and through 1/theta for Ld and Lq.

`estimate_L`, `estimate_d_axis` and `estimate_cross` keep the paper's
first-order split: inductances from (a), then regressions of the saturation
coefficients on columns of the same Hessian, evaluated at the linearized
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
from .leastsq import RankDeficient, ols_fit
from .magnetics import MotorParams, _hessian
from .ripple import RippleMeasurement, default_discard, extract_ripple
from .simulator import SimConfig, Trace, simulate_batch

ROLE_LD = "ld"
ROLE_LQ = "lq"
ROLE_D_SWEEP = "d_sweep"
ROLE_CROSS_D_INJ = "cross_d_inj"
ROLE_CROSS_Q_INJ = "cross_q_inj"

ALL_ROLES = (ROLE_LD, ROLE_LQ, ROLE_D_SWEEP, ROLE_CROSS_D_INJ, ROLE_CROSS_Q_INJ)

PARAM_NAMES = ("Ld", "Lq", "a30", "a12", "a40", "a22", "a04")

_ZERO_RIPPLE_FLOOR = 1e-12
_THETA_BASIS = np.eye(len(PARAM_NAMES))  # one-hot theta: `_hessian` as regressor rows
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
    """A planned run together with its extracted ripple measurement."""

    run: PlanRun
    meas: RippleMeasurement


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


def _fit_with_sigma(fit, L_vals, L_sigmas, sigma_y):
    """OLS of one regression, fit(*L_vals) -> (X, y).

    Returns the coefficients, their standard errors and the residual RMS.
    The errors hold the independent per-point noise sigma_y plus, for each
    inductance estimate in L_vals with a nonzero sigma, its first-order
    contribution through the regressors and intercepts (finite differences
    of the whole fit).
    """
    X, y = fit(*L_vals)
    beta, xtx_inv, resid = ols_fit(X, y)
    A = xtx_inv @ X.T
    var = (A * A) @ (np.asarray(sigma_y) ** 2)
    for j, (val, sig) in enumerate(zip(L_vals, L_sigmas)):
        if sig != 0.0:
            h = 1e-6 * val
            dbeta = (ols_fit(*fit(*L_vals[:j], val + h, *L_vals[j + 1:]))[0] - beta) / h
            var = var + (dbeta * sig) ** 2
    return beta, np.sqrt(var), float(np.sqrt(np.mean(resid ** 2)))


def estimate_d_axis(meas: Sequence[RippleMeasurement], L_d: float,
                    plan: ExperimentPlan, sigma_L_d: float = 0.0) -> DAxisEstimate:
    """d-axis saturation from the bias sweep (b): regress the excess ripple
    slope omega*i_tilde_d/u_tilde - 1/L_d on the a30 and a40 columns of
    H_dd at the linearized flux (L_d i_bar, 0)."""
    if len({m.i_bar_d for m in meas}) < 3:
        raise RankDeficient("d-axis sweep needs >= 3 distinct bias currents")
    i_bar = np.array([m.i_bar_d for m in meas])[:, None]
    i_tilde = np.array([m.i_tilde_d for m in meas])
    sigma_y = plan.omega * np.array([m.sigma_i_tilde_d for m in meas]) / plan.u_tilde

    def fit(L):
        h_dd = _hessian(_THETA_BASIS, L * i_bar, 0.0)[0]
        return h_dd[:, [2, 4]], plan.omega * i_tilde / plan.u_tilde - 1.0 / L

    beta, sig, rms = _fit_with_sigma(fit, [L_d], [sigma_L_d], sigma_y)
    return DAxisEstimate(float(beta[0]), float(beta[1]), float(sig[0]), float(sig[1]), rms)


def estimate_cross(meas_c: Sequence[RippleMeasurement], meas_d: Sequence[RippleMeasurement],
                   L_d: float, L_q: float, plan: ExperimentPlan,
                   sigma_L_d: float = 0.0, sigma_L_q: float = 0.0) -> CrossEstimate:
    """Cross and q-axis saturation from the q-bias sweeps, each regressed on
    one column of the Hessian at the linearized flux (0, L_q i_bar_q).

    a22 from the d ripple under d injection (c), on H_dd; a12 from one
    stacked regression over the q ripple of (c) and the d ripple of (d), both
    on H_dq; a04 from the q ripple under q injection (d), on H_qq.
    """
    if len({m.i_bar_q for m in meas_c} | {m.i_bar_q for m in meas_d}) < 3:
        raise RankDeficient("cross sweeps need >= 3 distinct bias currents")
    ib_c = np.array([m.i_bar_q for m in meas_c])
    ib_d = np.array([m.i_bar_q for m in meas_d])
    om, ut = plan.omega, plan.u_tilde

    def hessian_at(Lq, ib):
        return _hessian(_THETA_BASIS, 0.0, Lq * ib[:, None])

    def fit_a22(Ld, Lq):
        y = om * np.array([m.i_tilde_d for m in meas_c]) / ut - 1.0 / Ld
        return hessian_at(Lq, ib_c)[0][:, [5]], y

    def fit_a12(Lq):
        y = om / ut * np.array([m.i_tilde_q for m in meas_c] + [m.i_tilde_d for m in meas_d])
        return hessian_at(Lq, np.concatenate([ib_c, ib_d]))[1][:, [3]], y

    def fit_a04(Lq):
        y = om * np.array([m.i_tilde_q for m in meas_d]) / ut - 1.0 / Lq
        return hessian_at(Lq, ib_d)[2][:, [6]], y

    b22, s22, r22 = _fit_with_sigma(
        fit_a22, [L_d, L_q], [sigma_L_d, sigma_L_q],
        om / ut * np.array([m.sigma_i_tilde_d for m in meas_c]))
    b12, s12, r12 = _fit_with_sigma(
        fit_a12, [L_q], [sigma_L_q],
        om / ut * np.array([m.sigma_i_tilde_q for m in meas_c]
                           + [m.sigma_i_tilde_d for m in meas_d]))
    b04, s04, r04 = _fit_with_sigma(
        fit_a04, [L_q], [sigma_L_q],
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


def estimate_from_records(records: Sequence[RunRecord], nominal: MotorParams) -> EstimationResult:
    """Regress the ripple of all runs on the exact Hessian at their measured
    mean flux (see module docstring).

    Each run's rows are scaled by its own drive, omega / u_tilde with u_tilde
    = max(|u_tilde_d|, |u_tilde_q|), so runs may differ in pulsation and
    amplitude and the residual stays in 1/H. R, phi_m and the pole count are
    passed through from `nominal`; R also rebuilds the flux. The seven
    magnetic parameters are replaced by their estimates.
    """
    by_role: dict[str, list[RunRecord]] = {role: [] for role in ALL_ROLES}
    for rec in records:
        if rec.run.role not in by_role:
            raise ValueError(f"unknown run role {rec.run.role!r}")
        by_role[rec.run.role].append(rec)
    if not by_role[ROLE_LD] or not by_role[ROLE_LQ]:
        raise ValueError("plan must include both zero-bias runs")
    m_d, m_q = by_role[ROLE_LD][0].meas, by_role[ROLE_LQ][0].meas
    _checked_ripple(m_d.i_tilde_d, m_d.sigma_i_tilde_d, "d-axis zero-bias run")
    _checked_ripple(m_q.i_tilde_q, m_q.sigma_i_tilde_q, "q-axis zero-bias run")
    if len({r.run.i_target for r in by_role[ROLE_D_SWEEP]}) < 3:
        raise RankDeficient("d-axis sweep needs >= 3 distinct bias currents")
    if len({r.run.i_target for r in by_role[ROLE_CROSS_D_INJ] + by_role[ROLE_CROSS_Q_INJ]}) < 3:
        raise RankDeficient("cross sweeps need >= 3 distinct bias currents")

    meas = [r.meas for r in records]
    R = nominal.R
    fd = np.array([m.mean_int_u_d - R * m.mean_int_i_d for m in meas])
    fq = np.array([m.mean_int_u_q - R * m.mean_int_i_q for m in meas])
    h_dd, h_dq, h_qq = _hessian(_THETA_BASIS, fd[:, None], fq[:, None])
    ut = np.array([(r.run.spec.u_tilde_d, r.run.spec.u_tilde_q) for r in records])
    amp = np.abs(ut).max(axis=1)
    ut_d, ut_q = (ut / amp[:, None]).T[:, :, None]
    scale = np.tile(np.array([r.run.spec.omega for r in records]) / amp, 2)
    X = np.concatenate([h_dd * ut_d + h_dq * ut_q, h_dq * ut_d + h_qq * ut_q])
    y = scale * np.array([m.i_tilde_d for m in meas] + [m.i_tilde_q for m in meas])
    sigma_y = scale * np.array([m.sigma_i_tilde_d for m in meas]
                               + [m.sigma_i_tilde_q for m in meas])

    theta, sig, rms = _fit_with_sigma(lambda: (X, y), [], [], sigma_y)
    inv_Ld, inv_Lq, a30, a12, a40, a22, a04 = (float(v) for v in theta)
    params = dataclasses.replace(
        nominal, Ld=1.0 / inv_Ld, Lq=1.0 / inv_Lq,
        a30=a30, a12=a12, a40=a40, a22=a22, a04=a04)
    sigma = {"Ld": float(sig[0]) / inv_Ld**2, "Lq": float(sig[1]) / inv_Lq**2}
    sigma.update((name, float(s)) for name, s in zip(PARAM_NAMES[2:], sig[2:]))
    return EstimationResult(params=params, sigma=sigma, fit_residuals={"ripple_slope": rms})


def measure_traces(runs: Sequence[PlanRun], traces: Sequence[Trace],
                   discard: float, names: Sequence[str] | None = None) -> list[RunRecord]:
    """Extract the ripple of each trace against its planned injection.

    Every trace must start at rest (zero current, hence zero flux), because
    the estimator rebuilds the flux by integrating from the first sample:
    a first current sample beyond five times the run's fit-residual RMS
    raises NotAtRest, naming the trace by `names` or by its run.
    """
    if len(runs) != len(traces):
        raise ValueError("one trace per planned run required")
    records = []
    for k, (run, trace) in enumerate(zip(runs, traces)):
        meas = extract_ripple(trace, run.spec, discard)
        for axis, i0, rms in (("d", trace.i_d[0], meas.residual_rms_d),
                              ("q", trace.i_q[0], meas.residual_rms_q)):
            if abs(i0) > max(_AT_REST_FACTOR * rms, _ZERO_RIPPLE_FLOOR):
                name = names[k] if names is not None else (
                    f"run {k} ({run.role}, {run.i_target:+.3f} A)")
                raise NotAtRest(
                    f"{name}: first i_{axis} sample {i0:.3g} A exceeds "
                    f"{_AT_REST_FACTOR:g}x the fit-residual RMS {rms:.3g} A; "
                    "traces must start de-energized")
        records.append(RunRecord(run, meas))
    return records


def simulate_plan(motor: MotorParams, runs: Sequence[PlanRun], *,
                  steps_per_period: int = 200, measure_periods: int = 40,
                  noise_amp: float = 0.0, seed: int = 0,
                  discard: float | None = None) -> tuple[list[Trace], float]:
    """Simulate all planned runs as one lockstep batch.

    Returns the traces and the transient discard used to size them.
    """
    if not runs:
        return [], 0.0
    period = runs[0].spec.period
    if discard is None:
        discard = default_discard(motor, runs[0].spec)
    cfg = SimConfig(
        dt=period / steps_per_period,
        t_end=discard + measure_periods * period,
        noise_amp=noise_amp,
    )
    seeds = [seed + k for k in range(len(runs))]
    traces = simulate_batch(motor, [r.spec for r in runs], cfg, seeds)
    return traces, discard


def run_identification(motor: MotorParams, plan: ExperimentPlan, *,
                       steps_per_period: int = 200, measure_periods: int = 40,
                       noise_amp: float = 0.0, seed: int = 0,
                       discard: float | None = None) -> tuple[EstimationResult, list[RunRecord]]:
    """Simulate the whole plan against `motor` and estimate its magnetic
    parameters back; the closed-loop path used by tests and the CLI."""
    runs = plan_runs(plan, motor.R)
    traces, used_discard = simulate_plan(
        motor, runs, steps_per_period=steps_per_period,
        measure_periods=measure_periods, noise_amp=noise_amp, seed=seed,
        discard=discard)
    records = measure_traces(runs, traces, used_discard)
    result = estimate_from_records(records, motor)
    return result, records
