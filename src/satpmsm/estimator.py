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
every d and q sample of every run, with the regressor columns the model's
current map at one-hot theta: per-axis moments of the map's monomials,
projected through its coefficient rows (`magnetics._current_monomials`,
`_current_coefficients`). Each whole injection period's mean is subtracted
from the currents and from the monomials first.
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
currents, voltages, noise and monomials exist only while that run is
reduced.

`estimate_L` and `estimate_saturation` keep the paper's first-order split:
inductances from (a), then one least squares of every run's settled d and
q ripple amplitudes on the first-order ripple model, the Hessian at the
linearized flux L * i_bar applied to u_tilde / omega (`_ripple_model`).
That flux misses the true operating point at second order in the
coefficients, a bias that does not shrink with pulsation, so the
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

from .injection import SQUARE, InjectionSpec, Waveform
from .magnetics import MotorParams, NumericalFailure, _current_coefficients, _current_monomials, _hessian
from .ripple import RippleMeasurement, TooShort, Unresolved, _centred, _ripple_fit, period_blocks, rebuild_flux
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


class ZeroRipple(NumericalFailure):
    """Measured ripple is indistinguishable from zero; cannot divide by it."""


class NonPhysical(NumericalFailure):
    """An estimated inductance is not positive and finite, as data with a
    reversed current channel give."""


class NotAtRest(NumericalFailure):
    """A trace does not start de-energized, so integrating u - R i from its
    first sample would not give its flux."""


class RankDeficient(NumericalFailure):
    """The regressor matrix does not determine the coefficients."""


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
    residual_rms: float  # A, over every d and q row of the regression

    def __post_init__(self) -> None:
        if any(s < 0 for s in self.sigma.values()):
            raise ValueError("sigma values must be >= 0")


class InductanceEstimate(NamedTuple):
    L_d: float
    L_q: float
    sigma_L_d: float
    sigma_L_q: float


class SaturationEstimate(NamedTuple):
    coefficients: dict[str, float]  # keyed a30 ... a04
    sigma: dict[str, float]
    residual_rms: float  # A, over the d and q row of every run


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


def estimate_L(runs: Sequence[PlanRun], meas: Sequence[RippleMeasurement]) -> InductanceEstimate:
    """Inductances from the ripples `meas` of the runs: L = u_tilde / (omega *
    i_tilde) on axis d of the first zero-bias run that injects d, and on
    axis q of the first that injects q, each at its own run's amplitude and
    pulsation. Zero-bias runs are found by their drive, as `identify` finds
    them; a missing axis raises ValueError, a non-positive L NonPhysical."""
    zero_bias = [(run.spec, m) for run, m in zip(runs, meas, strict=True)
                 if run.spec.u_bar_d == run.spec.u_bar_q == 0.0]
    L, sigma_L = [], []
    for a, axis in enumerate("dq"):
        spec, m = next(((s, m) for s, m in zero_bias if getattr(s, f"u_tilde_{axis}")), (None, None))
        if spec is None:
            raise ValueError(f"no zero-bias run injects the {axis} axis")
        sigma = float(m.sigma_i_tilde[a])
        i_tilde = _checked_ripple(float(m.i_tilde[a]), sigma, f"{axis}-axis zero-bias run")
        L.append(getattr(spec, f"u_tilde_{axis}") / (spec.omega * i_tilde))
        if not 0.0 < L[-1] < math.inf:
            raise NonPhysical(f"{axis}-axis zero-bias run: estimated L{axis} = {L[-1]:.6g} H, but an inductance "
                              "must be positive: check the sign of the current channels")
        sigma_L.append(L[-1] * sigma / abs(i_tilde))
    return InductanceEstimate(*L, *sigma_L)


def gram_fit(xtx: np.ndarray, xty: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve the normal equations xtx b = xty of a least squares accumulated
    as its Gram matrix, with the columns scaled to a unit diagonal.

    Returns (b, xtx_inv), where xtx_inv = xtx^-1 is the unscaled coefficient
    covariance. Raises RankDeficient when a column is zero or not finite, or
    the scaled Gram matrix is numerically singular.
    """
    scale = np.sqrt(np.diag(xtx))
    if not np.all(scale > 0.0) or not np.all(np.isfinite(xtx)):
        raise RankDeficient("a regressor column is zero or not finite")
    outer = np.outer(scale, scale)
    scaled = xtx / outer
    if np.linalg.cond(scaled) > 1e12:
        raise RankDeficient("regressor matrix is numerically rank-deficient")
    xtx_inv = np.linalg.inv(scaled) / outer
    return xtx_inv @ xty, xtx_inv


def _fit_with_sigma(X, y, sigma_y):
    """OLS of y on the columns of X by its normal equations.

    Returns the coefficients, their standard errors from the independent
    per-point noise sigma_y, and the residual RMS.
    """
    beta, xtx_inv = gram_fit(X.T @ X, X.T @ y)
    A = xtx_inv @ X.T
    return beta, np.sqrt((A * A) @ (np.asarray(sigma_y) ** 2)), float(np.sqrt(np.mean((y - X @ beta) ** 2)))


def estimate_saturation(runs: Sequence[PlanRun], meas: Sequence[RippleMeasurement],
                        L_d: float, L_q: float) -> SaturationEstimate:
    """The five saturation coefficients from the settled ripples `meas` of
    the runs, by one least squares over each run's d and q ripple, the
    (2,) `i_tilde` of every run concatenated in run order. A row is the
    first-order ripple model at one-hot theta (`_ripple_model`) at the
    flux (L_d, L_q) * i_bar of the run's measured mean currents, under the
    run's own drive; the inductance part, theta = (1/L_d, 1/L_q,
    0, ...), is subtracted from the measured ripple first. The sigmas
    propagate each ripple's standard error. Roles are not read: `gram_fit`
    alone decides whether the runs determine the coefficients."""
    X = np.array([_ripple_model(_THETA_BASIS, L_d * m.i_bar[0], L_q * m.i_bar[1], run.spec)
                  for run, m in zip(runs, meas, strict=True)]).reshape(-1, len(PARAM_NAMES))
    y = np.ravel([m.i_tilde for m in meas]) - X[:, :2] @ (1.0 / L_d, 1.0 / L_q)
    sigma_y = np.ravel([m.sigma_i_tilde for m in meas])
    beta, sig, rms = _fit_with_sigma(X[:, 2:], y, sigma_y)
    names = PARAM_NAMES[2:]
    return SaturationEstimate(dict(zip(names, beta.tolist())), dict(zip(names, sig.tolist())), rms)


def _ripple_model(theta, fd, fq, spec: InjectionSpec) -> tuple:
    """First-order ripple amplitudes (i_tilde_d, i_tilde_q) of a locked-rotor
    injection run whose mean flux is (fd, fq): the Hessian (`_hessian`) at
    that flux applied to (u_tilde_d, u_tilde_q) / omega. Linear in theta, so
    theta = `_THETA_BASIS` gives each as a row of seven regressor columns."""
    h_dd, h_dq, h_qq = _hessian(theta, fd, fq)
    utd, utq = spec.u_tilde_d, spec.u_tilde_q
    return (h_dd * utd + h_dq * utq) / spec.omega, (h_dq * utd + h_qq * utq) / spec.omega


def predict_ripple(p: MotorParams, spec: InjectionSpec) -> tuple[float, float]:
    """First-order ripple amplitudes for a locked-rotor injection run: the
    Hessian at the linearized flux L * i_bar applied to u_tilde / omega, with
    the bias currents i_bar = u_bar / R."""
    return _ripple_model(p.theta, p.Ld * spec.u_bar_d / p.R, p.Lq * spec.u_bar_q / p.R, spec)


def _noise_rms(i: np.ndarray) -> float:
    """Noise RMS of a sampled current from its second differences: for white
    noise their mean square is six times the noise variance, while a smooth
    transient or ripple adds only O(dt^2) per sample."""
    d2 = np.diff(i, 2)
    return math.sqrt(float(d2 @ d2) / (6 * len(d2)))


def _run_terms(run: PlanRun, trace: Trace, name: str, theta0: np.ndarray,
               R: float) -> tuple[np.ndarray, np.ndarray, float, int, int]:
    """One run's checks (see `identify`), faults naming it by `name`, then
    its share of the normal equations about theta0 per axis a, Z_a Z_a^T
    (2, 5, 5) and Z_a r0_a (2, 5), with r0.r0, its rows and its blocks.

    Z_a holds the current map's monomials (`magnetics._current_monomials`)
    and y_a the current samples on axis a, each block of one injection period
    centred on its own mean; r0_a = y_a - rows_a Z_a at theta0's coefficient
    rows. A block holds the whole number of samples per period
    (`ripple.period_blocks`); a trailing part period is left out."""
    try:
        per, blocks = period_blocks(trace, run.spec)
    except (TooShort, Unresolved) as exc:
        raise type(exc)(f"{name}: {exc}") from None
    for axis, i_axis in zip("dq", trace.i):
        floor = _noise_rms(i_axis)
        if abs(i_axis[0]) > max(_AT_REST_FACTOR * floor, _ZERO_RIPPLE_FLOOR):
            raise NotAtRest(
                f"{name}: first i_{axis} sample {i_axis[0]:.3g} A exceeds "
                f"{_AT_REST_FACTOR:g}x the noise RMS {floor:.3g} A; "
                "traces must start de-energized")
    s = run.spec
    y = _centred(trace.i, per, blocks)
    if s.u_bar_d == s.u_bar_q == 0.0:
        _, fits = _ripple_fit(trace, s, 0, per, blocks, y)
        for axis, u_tilde, (i_tilde, _, sigma) in zip("dq", (s.u_tilde_d, s.u_tilde_q), fits):
            if u_tilde != 0.0:
                _checked_ripple(i_tilde, sigma, f"{name}: {axis}-axis zero-bias run")
    Z = _current_monomials(rebuild_flux(trace, R, s.waveform.kind == SQUARE)[:, :blocks * per])
    periods = Z.reshape(*Z.shape[:-1], blocks, per)
    periods -= periods.mean(axis=-1, keepdims=True)  # in place: Z is the largest array a run holds
    Z = Z.swapaxes(0, 1)
    r0 = y - np.einsum("ka,akm->am", np.array(_current_coefficients(theta0)), Z)
    return Z @ Z.swapaxes(1, 2), np.einsum("akm,am->ak", Z, r0), float(np.vdot(r0, r0)), r0.size, 2 * blocks


def _solve(terms: Iterable[tuple], nominal: MotorParams) -> EstimationResult:
    """Sum the runs' `_run_terms` in run order, project the sums onto theta by
    the coefficient rows T_a at one-hot theta, X X^T = sum_a T_a^T Z_a Z_a^T
    T_a and X r0 = sum_a T_a^T Z_a r0_a, and solve them (see `identify`)."""
    theta0 = np.array(nominal.theta)
    k = len(PARAM_NAMES)
    zz, zr, rtr, n_rows, n_blocks = (sum(column) for column in zip(*terms))
    T = np.array(_current_coefficients(_THETA_BASIS)).swapaxes(0, 1)  # (2, 5, 7): axis, row, parameter
    xtx = sum(T_a.T @ zz_a @ T_a for T_a, zz_a in zip(T, zz))
    xtr = sum(T_a.T @ zr_a for T_a, zr_a in zip(T, zr))
    delta, xtx_inv = gram_fit(xtx, xtr)
    theta = theta0 + delta
    rss = max(rtr - float(delta @ xtr), 0.0)
    sig = np.sqrt(rss / (n_rows - n_blocks - k) * np.diag(xtx_inv))

    inv_Ld, inv_Lq, a30, a12, a40, a22, a04 = (float(v) for v in theta)
    if not (0.0 < inv_Ld < math.inf and 0.0 < inv_Lq < math.inf):
        raise NonPhysical(f"estimated 1/Ld = {inv_Ld:.6g} 1/H and 1/Lq = {inv_Lq:.6g} 1/H, but both must be "
                          "positive and finite: check the sign of the current channels")
    params = dataclasses.replace(
        nominal, Ld=1.0 / inv_Ld, Lq=1.0 / inv_Lq,
        a30=a30, a12=a12, a40=a40, a22=a22, a04=a04)
    sigma = {"Ld": float(sig[0]) / inv_Ld**2, "Lq": float(sig[1]) / inv_Lq**2}
    sigma.update((name, float(s)) for name, s in zip(PARAM_NAMES[2:], sig[2:]))
    return EstimationResult(params=params, sigma=sigma, residual_rms=math.sqrt(rss / n_rows))


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
    `MIN_WHOLE_PERIODS` whole injection periods at a whole number of samples
    each (`ripple.period_blocks`: Unresolved, TooShort) and start at rest,
    since its flux is integrated
    from its first sample: a first current sample beyond five times its
    channel's noise RMS (`_noise_rms`, which the transient does not inflate)
    raises NotAtRest. Each zero-bias run, one driven with no bias voltage,
    must show a ripple on every axis it injects (`ripple._ripple_fit` on the
    period-centred currents of its whole periods, which the regression
    takes too), else ZeroRipple, and together they must inject both axes
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
    through from `nominal`. An estimated 1/Ld or 1/Lq that is not positive
    and finite raises NonPhysical.

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
        terms = []  # the traces are taken one at a time: one that cannot be read stops the later ones unread
        for run, trace, name in itertools.zip_longest(runs[lo:hi], load(lo, hi), names[lo:hi]):
            if run is None or trace is None:
                raise ValueError("one trace per planned run required")
            terms.append(_run_terms(run, trace, name, theta0, nominal.R))
        return terms

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
# 0.7 MB to the parent (BENCH_28.json). Every worker repeats its record's
# coarse pass (3(K - 1) steps at n lanes for K quarter periods, plus at most
# four Jacobian calls) and holds its own memory, so more workers are
# unmeasured and may cost more than they save.
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

    The first exception in slice order is raised here as `_child` sent it; a
    child that leaves no result raises ChildProcessError with its exit status.
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
        for j, part in enumerate(parts[:-1]):
            r, w = fork.Pipe(duplex=False)
            readers.append(r)
            child = fork.Process(target=_child, args=(fn, part, w, readers, f"worker {j} of {k}"))
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
                outcomes.append((False, ChildProcessError(
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


def _child(fn, part: tuple[int, int], w, inherited: list, name: str) -> None:
    """The body of an `_in_slices` child: close the read ends it inherited,
    its own included, and send the outcome of fn(*part) down w. An exception
    the parent's `recv` could not rebuild from its pickle goes as a
    RuntimeError naming `name`, the exception's type and its message."""
    from multiprocessing.reduction import ForkingPickler  # the pickler of `w`, imported with it
    for r in inherited:
        r.close()
    try:
        outcome = (True, fn(*part))
    except Exception as exc:
        outcome = (False, exc)
        try:
            ForkingPickler.loads(ForkingPickler.dumps(exc))
        except Exception:
            outcome = (False, RuntimeError(f"{name} raised {type(exc).__name__}: {exc}"))
    try:
        w.send(outcome)
    except Exception as exc:  # the outcome cannot be serialized, so nothing was sent
        w.send((False, RuntimeError(f"worker result cannot be sent: {exc!r}")))
