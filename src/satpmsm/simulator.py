"""Fixed-step integration of the electrical dynamics in flux coordinates.

State is the flux-linkage pair, stacked as one (2, n) array over a batch of
n runs; the drive is a pulsating d-q voltage. The integrator is classic RK4.
For square-wave injection the step grid is required to align with the
switching instants (dt divides the half-period) and each step evaluates the
voltage one-sidedly, so every step integrates a smooth piece and the nominal
RK4 order survives the discontinuities. The rotor is locked: no speed
couples the axes. A batch starts at rest or, in `simulate_periodic`, each run
on its own periodic steady state. Every step is one sample.

The simulator stands in for the motor, not for the sensors: measurement
noise is added afterwards, by `estimator.simulate_plan` through
`Trace.with_noise`, to the sampled currents only.
"""

from __future__ import annotations

import dataclasses
import math
import warnings
from typing import Sequence

import numpy as np

from .injection import F_array, InjectionSpec, f_array
from .magnetics import (Currents, MotorParams, NonConvergence, _current_rows,
                        _stacked_currents, flux_from_currents_first_order)

_CSV_HEADER = ["t", "u_d", "u_q", "i_d", "i_q", "phi_d", "phi_q"]

# Fewest whole injection periods a record must hold (`ripple.period_blocks`);
# the ripple fit and the identification centre each of them on its own mean.
# `simulate_periodic` returns this many periods of each orbit.
MIN_WHOLE_PERIODS = 2

_SHOOT_MAX_ITER = 50     # Newton steps of `simulate_periodic`
_SHOOT_TOL = 1e-12       # one-period flux residual per axis [Wb]
_SHOOT_FD_STEP = 1e-6    # finite-difference step of the shooting Jacobian [Wb]


def _write_columns(path, header: str, *columns) -> None:
    """CSV of the header line, then one row per sample of the equal-length
    columns, every value at round-trip precision."""
    np.savetxt(path, np.column_stack(columns), fmt="%.17g", delimiter=",", header=header, comments="")


class StepTooLarge(RuntimeError):
    """dt does not resolve the injection period (under-resolved ripple)."""


@dataclasses.dataclass(frozen=True)
class SimConfig:
    """Integration settings; a run is sampled at every step. Measurement
    noise is added to the traces afterwards, by `estimator.simulate_plan`
    through `Trace.with_noise`.

    dt     integration step [s]
    t_end  run duration [s]
    """

    dt: float
    t_end: float

    def __post_init__(self) -> None:
        if not (self.dt > 0 and math.isfinite(self.dt)):
            raise ValueError(f"dt must be positive, got {self.dt}")
        if not (self.t_end > 0 and math.isfinite(self.t_end)):
            raise ValueError(f"t_end must be positive, got {self.t_end}")


@dataclasses.dataclass(frozen=True)
class Trace:
    """Uniformly sampled record of one run.

    Voltages are the impressed values, currents may carry measurement noise,
    flux channels are the noise-free internal state (None for imported
    measurement data, which has no flux channel).
    """

    t: np.ndarray
    u_d: np.ndarray
    u_q: np.ndarray
    i_d: np.ndarray
    i_q: np.ndarray
    phi_d: np.ndarray | None = None
    phi_q: np.ndarray | None = None

    def __post_init__(self) -> None:
        n = len(self.t)
        for name in ("u_d", "u_q", "i_d", "i_q"):
            if len(getattr(self, name)) != n:
                raise ValueError(f"channel {name} length mismatch")
        for name in ("phi_d", "phi_q"):
            ch = getattr(self, name)
            if ch is not None and len(ch) != n:
                raise ValueError(f"channel {name} length mismatch")
        if n >= 2:
            steps = np.diff(self.t)
            if np.any(steps <= 0):
                raise ValueError("t must be strictly increasing")
            if np.max(steps) - np.min(steps) > 1e-9 * float(steps[0]):
                raise ValueError("t must be uniformly sampled")

    @property
    def sample_period(self) -> float:
        return float(self.t[1] - self.t[0])

    def with_noise(self, amp: float, seed: int) -> "Trace":
        """Copy with fresh uniform noise in [-amp, +amp] on the currents;
        the flux channels are internal state, not a measurement, and stay
        as they are."""
        if amp < 0:
            raise ValueError(f"noise amplitude must be >= 0, got {amp}")
        if amp == 0.0:
            return self
        rng = np.random.default_rng(seed)
        return dataclasses.replace(
            self,
            i_d=self.i_d + rng.uniform(-amp, amp, size=len(self.t)),
            i_q=self.i_q + rng.uniform(-amp, amp, size=len(self.t)),
        )

    def to_csv(self, path) -> None:
        names = _CSV_HEADER if self.phi_d is not None and self.phi_q is not None else _CSV_HEADER[:5]
        _write_columns(path, ",".join(names), *(getattr(self, name) for name in names))

    @staticmethod
    def from_csv(path) -> "Trace":
        with open(path) as fh:
            header = fh.readline().strip().split(",")
            for name in _CSV_HEADER[:5]:
                if name not in header:
                    raise ValueError(f"trace CSV {path} missing column {name!r}")
            with warnings.catch_warnings():  # an empty file is refused below
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                data = np.loadtxt(fh, delimiter=",", ndmin=2, usecols=range(len(header)))
        if len(data) < 2:
            raise ValueError(f"trace CSV {path} has {len(data)} data rows, needs at least 2")
        bad = np.argwhere(~np.isfinite(data))
        if len(bad):
            row, col = bad[0]
            raise ValueError(f"trace CSV {path}: {header[col]} in data row {row + 1} is not finite")
        cols = dict(zip(header, data.T.copy()))
        try:
            return Trace(**{name: cols.get(name) for name in _CSV_HEADER})
        except ValueError as exc:
            raise ValueError(f"trace CSV {path}: {exc}") from None


def _check_step(spec: InjectionSpec, cfg: SimConfig) -> None:
    period = spec.period
    if cfg.dt > period / 50.0:
        raise StepTooLarge(
            f"dt={cfg.dt:.3g}s exceeds 1/50 of the injection period {period:.3g}s")
    if spec.waveform.kind == "square":
        half = period / 2.0
        steps = half / cfg.dt
        if abs(steps - round(steps)) > 1e-6:
            raise ValueError(
                "square-wave switching instants must fall on step boundaries: "
                f"half-period {half:.6g}s is not an integer multiple of dt={cfg.dt:.6g}s")


def _waveform_arrays(spec: InjectionSpec, dt: float, n_steps: int) -> tuple[np.ndarray, ...]:
    """The waveform values f0, fmid, f1 that `_batch_rk4` takes for n_steps
    steps of dt from t = 0 under `spec`'s drive."""
    w, omega = spec.waveform, spec.omega
    if w.kind == "square":
        # switching instants sit on step boundaries (`_check_step`); derive
        # the sign from the integer step index, because the float phase
        # omega*dt*k eventually rounds to the wrong side of a boundary and a
        # single mis-sided stage kicks the flux by O(dt * u_tilde)
        steps_per_half = round(0.5 * spec.period / dt)
        halves = np.arange(n_steps + 1) // steps_per_half
        f0 = np.where(halves % 2 == 0, 1.0, -1.0)  # right-continuous at t_k
        return f0, f0[:-1], f0[:-1]                # the step's own half-period
    tau = omega * dt * np.arange(n_steps + 1)
    f0 = f_array(w, tau)
    return f0, f_array(w, tau[:-1] + 0.5 * omega * dt), f0[1:]  # continuous: no side to pick


def _stacked_drive(specs: Sequence[InjectionSpec], cfg: SimConfig) -> tuple[np.ndarray, np.ndarray]:
    """u_bar and u_tilde of a batch of runs as (2, n) d and q rows; the runs
    must share waveform and pulsation, resolved by cfg's step."""
    for s in specs:
        if s.waveform != specs[0].waveform or s.omega != specs[0].omega:
            raise ValueError("batched runs must share waveform and omega")
        _check_step(s, cfg)
    return (np.array([[s.u_bar_d for s in specs], [s.u_bar_q for s in specs]]),
            np.array([[s.u_tilde_d for s in specs], [s.u_tilde_q for s in specs]]))


def _batch_rk4(motors: Sequence[MotorParams], dt: float, X0: np.ndarray, u_bar: np.ndarray,
               u_tilde: np.ndarray, f0: np.ndarray, fmid: np.ndarray,
               f1: np.ndarray) -> tuple[np.ndarray, ...]:
    """Integrate the locked-rotor dynamics dphi/dt = u - R*i(phi) for a
    batch of runs.

    Lane j is motor motors[j] started at the flux X0[:, j] and driven by
    u = u_bar[:, j] + u_tilde[:, j] * f, with the (d, q) values stacked as
    rows of X0, u_bar and u_tilde (2, n); each lane carries its motor's
    coefficient rows and R; every step of dt is one sample. The
    waveform value f of step k is taken at t_k (f0[k], right-continuous), at
    the step midpoint (fmid[k]) and at t_{k+1} closing the step (f1[k],
    left-sided); f0 has one more entry than there are steps, for the last
    sample. The state X = (phi_d, phi_q) is one (2, n) array, so each RK4 line
    serves both axes.
    Returns t and the sampled flux, current and voltage, each (2, n, n_steps + 1).
    """
    rows = _current_rows(motors)
    C = tuple(rows)  # the five (2, n) rows, unpacked once
    R = np.array([[p.R for p in motors]] * 2)  # full (2, n): a broadcast operand costs ~2x

    def rhs(X, U):
        return U - R * _stacked_currents(C, X)

    X = np.array(X0, dtype=float)  # a contiguous copy
    n_steps = len(fmid)
    out = np.empty((2, len(motors), n_steps + 1))
    out[:, :, 0] = X
    h2, h6 = 0.5 * dt, dt / 6.0
    for k, (a, m, b) in enumerate(zip(f0[:-1].tolist(), fmid.tolist(), f1.tolist()), start=1):
        # square waves and the averaged system hold f over the step
        ua = u_bar + u_tilde * a
        um = ua if m == a else u_bar + u_tilde * m
        ub = um if b == m else u_bar + u_tilde * b
        k1 = rhs(X, ua)
        k2 = rhs(X + h2 * k1, um)
        k3 = rhs(X + h2 * k2, um)
        k4 = rhs(X + dt * k3, ub)
        X = X + h6 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out[:, :, k] = X

    return (np.arange(n_steps + 1) * dt, out, _stacked_currents(rows[..., None], out),
            u_bar[..., None] + u_tilde[..., None] * f0)


def _traces(t, phi, i, u) -> list[Trace]:
    """One Trace per lane of the kernel's lane-major output: read-only row
    views, all sharing one t; nothing is copied."""
    for a in (t, phi, i, u):
        a.flags.writeable = False
    return [Trace(t=t, u_d=u[0, j], u_q=u[1, j], i_d=i[0, j], i_q=i[1, j], phi_d=phi[0, j], phi_q=phi[1, j])
            for j in range(phi.shape[1])]


def simulate_batch(p: MotorParams, specs: Sequence[InjectionSpec], cfg: SimConfig) -> list[Trace]:
    """Noise-free traces of several runs from rest that share the waveform,
    pulsation and config.

    The runs advance in lockstep as one vectorized state, which is what makes
    full identification sweeps affordable; per-run mean/ripple voltages are
    free to differ.
    """
    if not specs:
        return []
    u_bar, u_tilde = _stacked_drive(specs, cfg)
    return _traces(*_batch_rk4([p] * len(specs), cfg.dt, np.zeros((2, len(specs))), u_bar, u_tilde,
                               *_waveform_arrays(specs[0], cfg.dt, int(round(cfg.t_end / cfg.dt)))))


def simulate(p: MotorParams, spec: InjectionSpec, cfg: SimConfig) -> Trace:
    """Integrate one pulsating-voltage run; see the module docstring. No
    code of the package calls it: it stays as the one-run entry point that
    acceptance criteria 2 and 5 call."""
    return simulate_batch(p, [spec], cfg)[0]


def simulate_averaged(motors: Sequence[MotorParams], u_bar: Sequence[tuple[float, float]],
                      cfg: SimConfig) -> list[Trace]:
    """Integrate the ripple-free averaged system dphi/dt = u_bar - R*i(phi)
    from rest, one lane per (motors[j], u_bar[j] = (u_bar_d, u_bar_q)) pair,
    in one batch.

    Each trajectory tends to the constant flux solving u_bar = R*i(phi).
    """
    if len(u_bar) != len(motors):
        raise ValueError("need one mean voltage pair per motor")
    if not motors:
        return []
    zero = np.zeros(int(round(cfg.t_end / cfg.dt)) + 1)
    u = np.array(u_bar, dtype=float).T
    return _traces(*_batch_rk4(motors, cfg.dt, np.zeros_like(u), u, np.zeros_like(u),
                               zero, zero[:-1], zero[1:]))


def _shooting_step(phi: np.ndarray, r: np.ndarray, col_d: np.ndarray, col_q: np.ndarray) -> np.ndarray:
    """Newton step of each lane on the one-period residual r = P(phi) - phi,
    given the changes col_d, col_q of P over `_SHOOT_FD_STEP` along d and q.

    Where the Jacobian J = dP/dphi - I has an eigenvalue lam > 0, the lane sits
    on the unstable side of a fold of the energy, and Newton would lead back
    to the fold. There J is shifted by 2 lam, which flips that eigenvalue, so
    the step follows the flow P(phi) - phi at Newton's length. No step is
    longer than the larger of |phi| and |r|, which keeps a step next to a
    fold, where J is nearly singular, from leaving the model's range.
    """
    (j_dd, j_qd), (j_dq, j_qq) = col_d / _SHOOT_FD_STEP, col_q / _SHOOT_FD_STEP
    j_dd, j_qq = j_dd - 1.0, j_qq - 1.0
    half_trace = 0.5 * (j_dd + j_qq)
    lam = half_trace + np.sqrt(np.maximum(half_trace**2 - (j_dd * j_qq - j_dq * j_qd), 0.0))
    shift = 2.0 * np.maximum(lam, 0.0)
    a_dd, a_qq = shift - j_dd, shift - j_qq  # step = (shift I - J)^-1 r
    step = np.array([a_qq * r[0] + j_dq * r[1], j_qd * r[0] + a_dd * r[1]]) / (a_dd * a_qq - j_dq * j_qd)
    limit = np.maximum(np.hypot(*phi), np.hypot(*r))
    return step * (limit / np.maximum(np.hypot(*step), limit))


def simulate_periodic(p: MotorParams, specs: Sequence[InjectionSpec], *,
                      steps_per_period: int = 200) -> list[Trace]:
    """Noise-free locked-rotor traces of `MIN_WHOLE_PERIODS` injection periods
    on the periodic steady state of each run; the runs share waveform and
    pulsation. Every period of an orbit is the same up to its residual, so
    the fewest periods a ripple fit takes are all it needs.

    Each run starts at the flux phi0 that solves P(phi0) = phi0 for the
    one-period map P, found by Newton shooting (Aprille & Trick, Proc. IEEE
    1972) with all runs in one batch. The Jacobian comes from forward
    differences: the starts phi0, phi0 + h e_d and phi0 + h e_q of every run
    integrate one period side by side, and `_shooting_step` turns the three
    ends into each run's step. The warm start is
    the first-order inverse at the mean current i_bar = u_bar / R, shifted by
    the ripple flux u_tilde * F(0) / omega at t = 0. A run whose one-period
    residual still exceeds `_SHOOT_TOL` on an axis after `_SHOOT_MAX_ITER`
    steps raises NonConvergence naming its mean current.
    """
    if not specs:
        return []
    period = specs[0].period
    cfg = SimConfig(dt=period / steps_per_period, t_end=MIN_WHOLE_PERIODS * period)
    u_bar, u_tilde = _stacked_drive(specs, cfg)
    n = len(specs)
    i_bar = u_bar / p.R
    phi = np.array([dataclasses.astuple(flux_from_currents_first_order(p, Currents(*i))) for i in i_bar.T]).T
    phi = phi + u_tilde * float(F_array(specs[0].waveform, 0.0)) / specs[0].omega

    drive = (np.tile(u_bar, 3), np.tile(u_tilde, 3), *_waveform_arrays(specs[0], cfg.dt, steps_per_period))
    offsets = np.zeros((2, 3 * n))
    offsets[0, n:2 * n] = offsets[1, 2 * n:] = _SHOOT_FD_STEP
    with np.errstate(over="ignore", invalid="ignore"):  # a run that runs away is reported below
        for _ in range(_SHOOT_MAX_ITER):
            end = _batch_rk4([p] * (3 * n), cfg.dt, np.tile(phi, 3) + offsets, *drive)[1][:, :, -1]
            r = end[:, :n] - phi
            open_ = ~np.all(np.abs(r) <= _SHOOT_TOL, axis=0)  # NaN stays open
            if not open_.any():
                break
            step = _shooting_step(phi, r, end[:, n:2 * n] - end[:, :n], end[:, 2 * n:] - end[:, :n])
            phi = phi + np.where(open_, step, 0.0)
        else:
            d, q = i_bar[:, np.argmax(open_)]
            raise NonConvergence(
                f"no periodic orbit within {_SHOOT_MAX_ITER} shooting steps for the run at "
                f"i_bar = ({d:.6g}, {q:.6g}) A, |i_bar| = {math.hypot(d, q):.6g} A")
    return _traces(*_batch_rk4([p] * n, cfg.dt, phi, u_bar, u_tilde,
                               *_waveform_arrays(specs[0], cfg.dt, MIN_WHOLE_PERIODS * steps_per_period)))
