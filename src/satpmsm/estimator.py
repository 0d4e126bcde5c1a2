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
the transient from rest included: `identify` solves one least squares over
every d and q sample of every run, with the regressor columns the
derivatives of the energy's seven monomials, which are the model's current
map at one-hot theta (`_regressors`). Each whole injection period's
mean is subtracted from the currents and from the regressors first.
That keeps the ripple and the transient's drift within the period, and drops
the slow random walk that current noise puts into the rebuilt flux,
R * integral(n) dt, which would otherwise weigh on the sigmas (see
DECISIONS.md). A trace holds the t, u and i channels only, whether it is
simulated or read from a file, so estimates from ingested measurement data
and from in-memory simulations agree bit for bit.

Reported uncertainties are 1-sigma ordinary least-squares standard errors
from the residual scatter, propagated through 1/theta for Ld and Lq.

The normal equations are a sum over runs, so `identify` has each run
simulated, read or taken from memory, checked and reduced to its terms in
one worker per usable CPU, at most two, forked by multiprocessing
(`_in_slices`), and sums the terms in run order: the result is bit for bit
that of one process. A worker takes its runs one at a time: a simulated
slice holds its flux record in full (`simulate_plan`), but each run's
currents, voltages, noise and regressors exist only while that run is
reduced.

`estimate_L`, `estimate_d_axis` and `estimate_cross` keep the paper's
first-order split: inductances from (a), then regressions of the settled
ripple amplitudes on columns of the Hessian, evaluated at the linearized
flux L * i_bar. That flux misses the true operating point at second order in
the coefficients, a bias that does not shrink with pulsation, so the
identification itself does not use them.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import os
import threading
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .injection import InjectionSpec, Waveform
from .leastsq import RankDeficient, gram_fit
from .magnetics import MotorParams, _hessian
from .ripple import RippleMeasurement, TooShort, Unresolved, _centred, extract_ripple, period_blocks, rebuild_flux
from .simulator import SimConfig, Trace, simulate_batch

ROLE_LD = "ld"
ROLE_LQ = "lq"
ROLE_D_SWEEP = "d_sweep"
ROLE_CROSS_D_INJ = "cross_d_inj"
ROLE_CROSS_Q_INJ = "cross_q_inj"

PARAM_NAMES = ("Ld", "Lq", "a30", "a12", "a40", "a22", "a04")

_ZERO_RIPPLE_FLOOR = 1e-12
_THETA_BASIS = np.eye(len(PARAM_NAMES))  # one-hot theta: the model as regressor rows
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


def _regressors(phi: np.ndarray) -> np.ndarray:
    """The regressor columns (7, 2, n) of the current map at the fluxes phi
    (2, n): row k on axis a is the derivative along a of parameter k's
    energy monomial, and zero (five rows) where that monomial holds no power
    of a's flux. Each of the nine other rows keeps the operand order of
    `magnetics._row_currents` and ends on + 0.0 where it could give -0.0, so
    all are bit for bit `_stacked_currents` at one-hot theta."""
    fd, fq = phi
    fq2 = fq * fq
    X = np.zeros((len(PARAM_NAMES), *phi.shape))
    X[0, 0] = fd + 0.0                      # 1/Ld: fd^2 / 2
    X[1, 1] = fq + 0.0                      # 1/Lq: fq^2 / 2
    X[2, 0] = fd * (fd * 3.0)               # a30: fd^3
    X[3, 0] = fq2                           # a12: fd fq^2
    X[3, 1] = fq * (fd * 2.0) + 0.0
    X[4, 0] = fd * (fd * (fd * 4.0)) + 0.0  # a40: fd^4
    X[5, 0] = fd * (fq2 * 2.0) + 0.0        # a22: fd^2 fq^2
    X[5, 1] = fq * (fd * (fd * 2.0)) + 0.0
    X[6, 1] = fq * (fq2 * 4.0) + 0.0        # a04: fq^4
    return X


def _period_centred(run: PlanRun, trace: Trace, R: float) -> tuple[np.ndarray, np.ndarray, int]:
    """One run's regressor columns (7, m) and current samples (m,), d samples
    then q samples, each block of one injection period centred on its own
    mean, and the number of blocks. A block holds the nearest whole number of
    samples per period (`ripple.period_blocks`); a trailing part period is
    left out. The regressors are centred in place."""
    per, blocks = period_blocks(trace, run.spec)
    X = _regressors(rebuild_flux(trace, run.spec, R)[:, :blocks * per])
    periods = X.reshape(len(PARAM_NAMES), 2, blocks, per)
    periods -= periods.mean(axis=-1, keepdims=True)
    y = _centred(np.stack([trace.i_d, trace.i_q]), per, blocks)
    return X.reshape(len(PARAM_NAMES), -1), y.reshape(-1), 2 * blocks


def _run_terms(run: PlanRun, trace: Trace, theta0: np.ndarray,
               R: float) -> tuple[np.ndarray, np.ndarray, float, int, int]:
    """One run's share of the normal equations about theta0: X X^T, X r0 and
    r0.r0 for its residuals r0 = y - theta0 X, its rows and its blocks."""
    X, y, blocks = _period_centred(run, trace, R)
    r0 = y - theta0 @ X
    return X @ X.T, X @ r0, float(r0 @ r0), len(y), blocks


def _solve(terms: Iterable[tuple], nominal: MotorParams) -> EstimationResult:
    """Sum the runs' `_run_terms` in run order and solve them (see `identify`)."""
    theta0 = np.array(nominal.theta)
    k = len(PARAM_NAMES)
    xtx, xtr, rtr, n_rows, n_blocks = np.zeros((k, k)), np.zeros(k), 0.0, 0, 0
    for run_xtx, run_xtr, run_rtr, rows, blocks in terms:
        xtx += run_xtx
        xtr += run_xtr
        rtr += run_rtr
        n_rows += rows
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


def _measured(runs: Sequence[PlanRun], traces: Iterable[Trace],
              names: Sequence[str]) -> Iterator[tuple[PlanRun, Trace]]:
    """The per-run checks of `identify`, yielding each checked (run, trace)
    pair in run order. The traces are taken one at a time: where `traces`
    reads each trace as it is taken, the first that cannot be read is
    refused before any later run is read."""
    for run, trace, name in itertools.zip_longest(runs, traces, names):
        if run is None or trace is None:
            raise ValueError("one trace per planned run required")
        try:
            period_blocks(trace, run.spec)
        except (TooShort, Unresolved) as exc:
            raise type(exc)(f"{name}: {exc}") from None
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
        yield run, trace


def simulate_plan(motor: MotorParams, runs: Sequence[PlanRun], *,
                  steps_per_period: int = 200, measure_periods: int = 40,
                  noise_amp: float = 0.0, seed: int = 0) -> Iterator[Trace]:
    """Simulate all planned runs from rest as one batch (`simulate_batch`) over
    `measure_periods` injection periods, each of `steps_per_period` steps,
    and measure them: run k's currents get uniform noise in [-noise_amp,
    +noise_amp] drawn from seed + k (`Trace.with_noise`). Each run's trace
    is the same whatever runs share its batch, so runs[lo:hi] at seed +
    lo gives the traces lo..hi-1 of the whole plan.

    The batch is simulated by the call; the traces come out one at a time,
    each built and measured when it is taken, so only the flux record of
    the batch is held in full."""
    if not runs:
        return iter(())
    period = runs[0].spec.period
    cfg = SimConfig(dt=period / steps_per_period, t_end=measure_periods * period)
    traces = simulate_batch(motor, [r.spec for r in runs], cfg)
    return (tr.with_noise(noise_amp, seed + k) for k, tr in enumerate(traces))


def identify(runs: Sequence[PlanRun], load: Callable[[int, int], Iterable[Trace]], nominal: MotorParams,
             names: Sequence[str] | None = None) -> EstimationResult:
    """Check the runs' traces and regress their period-centred currents on
    the period-centred current map at their rebuilt flux (module docstring).

    load(lo, hi) gives the traces of runs[lo:hi] in run order, one per run
    (else ValueError, as for `names` of another length); traces in memory go
    in as `lambda lo, hi: traces[lo:hi]`. Each trace must resolve at least
    `MIN_WHOLE_PERIODS` whole injection periods (`ripple.period_blocks`:
    Unresolved, TooShort) and start at rest, since its flux is integrated
    from its first sample: a first current sample beyond five times its
    channel's noise RMS (`_noise_rms`, which the transient does not inflate)
    raises NotAtRest. Each zero-bias run, one driven with no bias voltage,
    must show a ripple on every axis it injects (`extract_ripple` over the
    whole record), else ZeroRipple, and together they must inject both axes
    (ValueError). Faults name the run by `names`, or by its index and role,
    and are those of the first failing run in run order.

    The normal equations, a sum of per-run terms (so runs may differ in
    pulsation, amplitude and length), are taken on the residuals r0 = y -
    theta0 X about theta0 = `nominal.theta` and solved for delta = theta -
    theta0. theta0 only conditions the arithmetic: the residual sum of
    squares r0.r0 - delta.X r0 does not cancel as y.y - theta.X y does.
    `gram_fit` alone decides whether the runs determine theta; roles are
    labels only. The seven magnetic parameters are replaced by their
    estimates; R (which also rebuilds the flux), phi_m and n_pp are passed
    through from `nominal`.

    The runs are cut into contiguous slices (`_in_slices`: one worker per
    usable CPU, at most two, all in this process where the platform cannot
    fork, other threads run or this process is daemonic), each worker loads,
    checks and reduces its own, and no trace leaves it. The terms are summed
    in run order, so the result is bit for bit that of one process.
    """
    if names is None:
        names = [f"run {k} ({run.role}, {run.i_target:+.3f} A)" for k, run in enumerate(runs)]
    elif len(names) != len(runs):
        raise ValueError(f"one trace per planned run required: {len(names)} names for {len(runs)} runs")
    theta0 = np.array(nominal.theta)

    def reduce(lo: int, hi: int) -> list[tuple]:
        return [_run_terms(run, trace, theta0, nominal.R)
                for run, trace in _measured(runs[lo:hi], load(lo, hi), names[lo:hi])]

    parts = _in_slices(reduce, len(runs))
    zero_bias = [run.spec for run in runs if run.spec.u_bar_d == run.spec.u_bar_q == 0.0]
    if not (any(s.u_tilde_d for s in zero_bias) and any(s.u_tilde_q for s in zero_bias)):
        raise ValueError("plan must include both zero-bias runs")
    return _solve((terms for part in parts for terms in part), nominal)


def _simulated(motor: MotorParams, runs: Sequence[PlanRun], *, steps_per_period: int, measure_periods: int,
               noise_amp: float, seed: int) -> Callable[[int, int], Iterator[Trace]]:
    """load(lo, hi) for a worker of `_in_slices`: the traces lo..hi-1 of
    `simulate_plan` over all the runs, from runs[lo:hi] simulated alone at
    seed + lo, taken one at a time."""
    def load(lo: int, hi: int) -> Iterator[Trace]:
        return simulate_plan(motor, runs[lo:hi], steps_per_period=steps_per_period,
                             measure_periods=measure_periods, noise_amp=noise_amp, seed=seed + lo)
    return load


def run_identification(motor: MotorParams, plan: ExperimentPlan, *,
                       steps_per_period: int = 200, measure_periods: int = 40,
                       noise_amp: float = 0.0, seed: int = 0) -> EstimationResult:
    """Simulate the whole plan against `motor` and estimate its magnetic
    parameters back; the closed-loop path used by tests and the CLI. Each
    worker of `identify` simulates its own slice of the plan."""
    runs = plan_runs(plan, motor.R)
    return identify(runs, _simulated(motor, runs, steps_per_period=steps_per_period, measure_periods=measure_periods,
                                     noise_amp=noise_amp, seed=seed), motor)


def write_simulated(motor: MotorParams, runs: Sequence[PlanRun], paths: Sequence, *, steps_per_period: int,
                    measure_periods: int, noise_amp: float, seed: int) -> None:
    """Simulate the runs as `simulate_plan` does and write run k's trace to
    paths[k] (`Trace.to_csv`): the worker of each slice (`_in_slices`)
    simulates and writes its own runs, so the files are those of one
    process."""
    load = _simulated(motor, runs, steps_per_period=steps_per_period, measure_periods=measure_periods,
                      noise_amp=noise_amp, seed=seed)

    def write(lo: int, hi: int) -> None:
        for path, trace in zip(paths[lo:hi], load(lo, hi), strict=True):
            trace.to_csv(path)

    _in_slices(write, len(runs))


# BENCH_19.json measured two workers on a two-CPU host: identify 0.49 ->
# 0.34 s. Each worker holds its slice's flux record and one run at a time;
# `estimate` on the SPM fixture at 10 mA peaks at 43 MB in the parent and
# 38 MB in the child (BENCH_24.json); multiprocessing's modules add about
# 0.7 MB to the parent (BENCH_28.json). Every worker repeats its plan's 24
# coarse parareal calls (P - 1 at 25 periods, 3n lanes wide) and holds its
# own memory, so more workers are unmeasured and may cost more than they
# save.
_MAX_WORKERS = 2


def _worker_count(n: int) -> int:
    """Workers for n runs: one per usable CPU (`os.sched_getaffinity`, else
    `os.cpu_count`), at most `_MAX_WORKERS` and n, at least one."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return max(1, min(_MAX_WORKERS, cpus, n))


def _in_slices(fn: Callable[[int, int], object], n: int) -> list:
    """fn(lo, hi) over range(n) cut into `_worker_count(n)` contiguous
    slices of near-equal length, in slice order: every slice but the last
    in a child that `multiprocessing` forks for it, the last in this process.

    The first exception in slice order is raised here as it was raised; a
    child that leaves no result raises RuntimeError with its exit status.
    On every exit path all pipes are closed before every child is joined,
    so no child outlives the call and one blocked on a full pipe cannot
    hang it. Where the platform cannot fork, other threads run (a fork
    copies only the calling thread) or this process is daemonic (it may
    have no children), all slices run here.
    """
    k = _worker_count(n)
    bounds = [n * j // k for j in range(k + 1)]
    parts = list(zip(bounds[:-1], bounds[1:]))
    if k < 2 or not hasattr(os, "fork") or threading.active_count() > 1:
        return [fn(lo, hi) for lo, hi in parts]
    import multiprocessing  # here, so that importing the package does not pay for it
    if multiprocessing.current_process().daemon:
        return [fn(lo, hi) for lo, hi in parts]
    fork = multiprocessing.get_context("fork")
    readers, children = [], []
    try:
        for part in parts[:-1]:
            r, w = fork.Pipe(duplex=False)
            readers.append(r)
            child = fork.Process(target=_child, args=(fn, part, w, readers))
            with w:  # only the child holds the write end, so its exit ends the pipe
                child.start()
            children.append(child)
        try:
            last = (True, fn(*parts[-1]))
        except Exception as exc:
            last = (False, exc)
        outcomes = []
        for j, (r, child) in enumerate(zip(readers, children)):
            try:
                outcomes.append(r.recv())
            except EOFError:
                child.join()
                outcomes.append((False, RuntimeError(
                    f"worker {j} of {k} left no result (exit status {child.exitcode})")))
    finally:
        for r in readers:
            r.close()
        for child in children:
            child.join()
            child.close()
    for ok, value in outcomes + [last]:
        if not ok:
            raise value
    return [value for _, value in outcomes + [last]]


def _child(fn, part: tuple[int, int], w, inherited: list) -> None:
    """The body of an `_in_slices` child: close the read ends it inherited,
    its own included, and send the outcome of fn(*part) down w."""
    for r in inherited:
        r.close()
    try:
        outcome = (True, fn(*part))
    except Exception as exc:
        outcome = (False, exc)
    try:
        w.send(outcome)
    except Exception as exc:  # the outcome cannot be serialized, so nothing was sent
        w.send((False, RuntimeError(f"worker result cannot be sent: {exc!r}")))
