"""Fixed-step integration of the electrical dynamics in flux coordinates.

State is the flux-linkage pair; the drive is a pulsating d-q voltage. The
integrator is classic RK4. For square-wave injection the step grid is
required to align with the switching instants (dt divides the half-period)
and each step evaluates the voltage one-sidedly, so every step integrates a
smooth piece and the nominal RK4 order survives the discontinuities.

Measurement noise is additive uniform on the sampled currents only; the flux
channels stay noise-free (they are internal state, not a measurement).
"""

from __future__ import annotations

import dataclasses
import math
from typing import Sequence

import numpy as np

from .injection import InjectionSpec, f_array
from .magnetics import FluxLinkage, MotorParams, _currents

_CSV_HEADER = ["t", "u_d", "u_q", "i_d", "i_q", "phi_d", "phi_q"]


class StepTooLarge(RuntimeError):
    """dt does not resolve the injection period (under-resolved ripple)."""


@dataclasses.dataclass(frozen=True)
class SimConfig:
    """Integration settings.

    dt            integration step [s]
    t_end         run duration [s]
    theta_dot     electrical speed [rad/s]; 0 = locked rotor
    initial_flux  state at t = 0
    sample_period output sampling interval [s]; defaults to dt; must be an
                  integer multiple of dt
    noise_amp     half-width of the uniform current measurement noise [A]
    """

    dt: float
    t_end: float
    theta_dot: float = 0.0
    initial_flux: FluxLinkage = FluxLinkage(0.0, 0.0)
    sample_period: float | None = None
    noise_amp: float = 0.0

    def __post_init__(self) -> None:
        if not (self.dt > 0 and math.isfinite(self.dt)):
            raise ValueError(f"dt must be positive, got {self.dt}")
        if not (self.t_end > 0 and math.isfinite(self.t_end)):
            raise ValueError(f"t_end must be positive, got {self.t_end}")
        if self.noise_amp < 0:
            raise ValueError("noise_amp must be >= 0")
        if self.sample_period is not None and self.sample_period < self.dt:
            raise ValueError("sample_period must be >= dt")

    def sample_stride(self) -> int:
        if self.sample_period is None:
            return 1
        stride = round(self.sample_period / self.dt)
        if stride < 1 or abs(stride * self.dt - self.sample_period) > 1e-9 * self.dt:
            raise ValueError("sample_period must be an integer multiple of dt")
        return stride


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
        """Copy with fresh uniform noise in [-amp, +amp] on the currents."""
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
        data = np.column_stack([getattr(self, name) for name in names])
        np.savetxt(path, data, fmt="%.17g", delimiter=",", header=",".join(names), comments="")

    @staticmethod
    def from_csv(path) -> "Trace":
        with open(path) as fh:
            header = fh.readline().strip().split(",")
            for name in _CSV_HEADER[:5]:
                if name not in header:
                    raise ValueError(f"trace CSV {path} missing column {name!r}")
            data = np.loadtxt(fh, delimiter=",", ndmin=2, usecols=range(len(header)))
        cols = dict(zip(header, data.T.copy()))
        return Trace(**{name: cols.get(name) for name in _CSV_HEADER})


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


def _batch_rk4(p: MotorParams, cfg: SimConfig, ubar_d, ubar_q, util_d, util_q,
               f0: np.ndarray, fmid: np.ndarray, f1: np.ndarray) -> tuple[np.ndarray, ...]:
    """Integrate dphi/dt = u - R*i(phi) + speed coupling for a batch of runs.

    The drive of run j is u = u_bar[j] + u_tilde[j] * f, with the waveform
    value f of step k taken at t_k (f0[k], right-continuous), at the step
    midpoint (fmid[k]) and at t_{k+1} closing the step (f1[k], left-sided);
    f0 has one more entry than there are steps, for the last sample.
    Returns sampled (t, phi_d, phi_q, i_d, i_q, u_d, u_q) arrays with the
    sample axis first.
    """
    dt = cfg.dt
    stride = cfg.sample_stride()
    R, w, phi_m = p.R, cfg.theta_dot, p.phi_m

    def rhs(fd, fq, u_d, u_q):
        i_d, i_q = _currents(p, fd, fq)
        return u_d - R * i_d + w * fq, u_q - R * i_q - w * (fd + phi_m)

    fd = np.full(len(ubar_d), cfg.initial_flux.phi_d, dtype=float)
    fq = np.full(len(ubar_d), cfg.initial_flux.phi_q, dtype=float)
    n_steps = len(fmid)
    n_samples = n_steps // stride + 1
    out_fd = np.empty((n_samples, len(fd)))
    out_fq = np.empty((n_samples, len(fd)))
    out_fd[0], out_fq[0] = fd, fq
    for k, (a, m, b) in enumerate(zip(f0[:-1].tolist(), fmid.tolist(), f1.tolist()), start=1):
        umd, umq = ubar_d + util_d * m, ubar_q + util_q * m
        k1d, k1q = rhs(fd, fq, ubar_d + util_d * a, ubar_q + util_q * a)
        k2d, k2q = rhs(fd + 0.5 * dt * k1d, fq + 0.5 * dt * k1q, umd, umq)
        k3d, k3q = rhs(fd + 0.5 * dt * k2d, fq + 0.5 * dt * k2q, umd, umq)
        k4d, k4q = rhs(fd + dt * k3d, fq + dt * k3q, ubar_d + util_d * b, ubar_q + util_q * b)
        fd = fd + (dt / 6.0) * (k1d + 2.0 * k2d + 2.0 * k3d + k4d)
        fq = fq + (dt / 6.0) * (k1q + 2.0 * k2q + 2.0 * k3q + k4q)
        if k % stride == 0:
            out_fd[k // stride], out_fq[k // stride] = fd, fq

    sampled = np.arange(0, n_steps + 1, stride)
    f_out = f0[sampled][:, None]
    i_d, i_q = _currents(p, out_fd, out_fq)
    return (sampled * dt, out_fd, out_fq, i_d, i_q,
            ubar_d + util_d * f_out, ubar_q + util_q * f_out)


def simulate_batch(
    p: MotorParams,
    specs: Sequence[InjectionSpec],
    cfg: SimConfig,
    seeds: Sequence[int] | None = None,
) -> list[Trace]:
    """Integrate several runs that share the waveform, pulsation and config.

    The runs advance in lockstep as one vectorized state, which is what makes
    full identification sweeps affordable; per-run mean/ripple voltages are
    free to differ.
    """
    if not specs:
        return []
    w = specs[0].waveform
    omega = specs[0].omega
    for s in specs:
        if s.waveform != w or s.omega != omega:
            raise ValueError("batched runs must share waveform and omega")
        _check_step(s, cfg)
    if seeds is None:
        seeds = [0] * len(specs)
    if len(seeds) != len(specs):
        raise ValueError("need one seed per run")

    dt = cfg.dt
    n_steps = int(round(cfg.t_end / dt))
    if w.kind == "square":
        # switching instants sit on step boundaries (enforced above); derive
        # the sign from the integer step index, because the float phase
        # omega*dt*k eventually rounds to the wrong side of a boundary and a
        # single mis-sided stage kicks the flux by O(dt * u_tilde)
        steps_per_half = round(0.5 * specs[0].period / dt)
        halves = np.arange(n_steps + 1) // steps_per_half
        f0 = np.where(halves % 2 == 0, 1.0, -1.0)  # right-continuous at t_k
        fmid = f1 = f0[:-1]                        # the step's own half-period
    else:
        tau = omega * dt * np.arange(n_steps + 1)
        f0 = f_array(w, tau)
        fmid = f_array(w, tau[:-1] + 0.5 * omega * dt)
        f1 = f0[1:]                                # continuous: no side to pick

    t, fd, fq, i_d, i_q, u_d, u_q = _batch_rk4(
        p, cfg,
        np.array([s.u_bar_d for s in specs]), np.array([s.u_bar_q for s in specs]),
        np.array([s.u_tilde_d for s in specs]), np.array([s.u_tilde_q for s in specs]),
        f0, fmid, f1)
    traces = []
    for j, seed in enumerate(seeds):
        trace = Trace(
            t=t.copy(),
            u_d=u_d[:, j].copy(),
            u_q=u_q[:, j].copy(),
            i_d=i_d[:, j].copy(),
            i_q=i_q[:, j].copy(),
            phi_d=fd[:, j].copy(),
            phi_q=fq[:, j].copy(),
        )
        if cfg.noise_amp > 0:
            trace = trace.with_noise(cfg.noise_amp, int(seed))
        traces.append(trace)
    return traces


def simulate(p: MotorParams, spec: InjectionSpec, cfg: SimConfig, seed: int = 0) -> Trace:
    """Integrate one pulsating-voltage run; see the module docstring."""
    return simulate_batch(p, [spec], cfg, [seed])[0]


def simulate_averaged(p: MotorParams, u_bar_d: float, u_bar_q: float, cfg: SimConfig) -> Trace:
    """Integrate the ripple-free averaged system dphi/dt = u_bar - R*i(phi).

    Locked rotor only. Its trajectory tends to the constant flux solving
    u_bar = R*i(phi); deterministic, so noise settings are ignored.
    """
    if cfg.theta_dot != 0.0:
        raise ValueError("the averaged system is defined for locked rotor (theta_dot = 0)")
    zero = np.zeros(int(round(cfg.t_end / cfg.dt)) + 1)
    t, fd, fq, i_d, i_q, u_d, u_q = _batch_rk4(
        p, cfg, np.array([float(u_bar_d)]), np.array([float(u_bar_q)]), np.zeros(1), np.zeros(1),
        zero, zero[:-1], zero[1:])
    return Trace(t=t, u_d=u_d[:, 0], u_q=u_q[:, 0], i_d=i_d[:, 0], i_q=i_q[:, 0],
                 phi_d=fd[:, 0], phi_q=fq[:, 0])
