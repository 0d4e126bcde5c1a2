"""Zero-mean periodic injection waveforms and the pulsating-voltage generator.

A waveform f is periodic with period 2*pi in the scaled time tau = omega*t
and has zero mean over one period; F is its primitive, also normalized to
zero mean. Built-ins: unit square (rising half first, +1 on [0, pi)) and
unit sine. User-sampled waveforms are one period of uniformly spaced values,
linearly interpolated.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from typing import Sequence

import numpy as np

TWO_PI = 2.0 * math.pi

SQUARE = "square"
SINE = "sine"
SAMPLED = "sampled"

_ZERO_MEAN_TOL = 1e-12


@dataclasses.dataclass(frozen=True)
class Waveform:
    kind: str
    samples: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.kind in (SQUARE, SINE):
            if self.samples is not None:
                raise ValueError(f"{self.kind} waveform takes no samples")
            return
        if self.kind != SAMPLED:
            raise ValueError(f"unknown waveform kind {self.kind!r}")
        if self.samples is None or len(self.samples) < 2:
            raise ValueError("sampled waveform needs at least 2 samples per period")
        vals = np.asarray(self.samples, dtype=float)
        if not np.all(np.isfinite(vals)):
            raise ValueError("sampled waveform values must be finite")
        peak = float(np.max(np.abs(vals)))
        if peak == 0.0:
            raise ValueError("sampled waveform is identically zero")
        if abs(float(np.mean(vals))) > _ZERO_MEAN_TOL * peak:
            raise ValueError("sampled waveform must have zero mean over one period")

    @staticmethod
    def square() -> "Waveform":
        return Waveform(SQUARE)

    @staticmethod
    def sine() -> "Waveform":
        return Waveform(SINE)

    @staticmethod
    def from_samples(values: Sequence[float]) -> "Waveform":
        return Waveform(SAMPLED, tuple(float(v) for v in values))


@dataclasses.dataclass(frozen=True)
class InjectionSpec:
    """Pulsating d-q voltage: u = u_bar + u_tilde * f(omega * t) per axis.

    omega is the injection pulsation in rad/s (one waveform period spans
    2*pi/omega seconds).
    """

    u_bar_d: float
    u_bar_q: float
    u_tilde_d: float
    u_tilde_q: float
    omega: float
    waveform: Waveform

    def __post_init__(self) -> None:
        if not (self.omega > 0 and math.isfinite(self.omega)):
            raise ValueError(f"omega must be positive, got {self.omega}")
        for name in ("u_bar_d", "u_bar_q", "u_tilde_d", "u_tilde_q"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")

    @property
    def period(self) -> float:
        """Waveform period in seconds."""
        return TWO_PI / self.omega


@functools.lru_cache(maxsize=32)
def _sampled_tables(samples: tuple[float, ...]):
    """Node tables of a sampled waveform: values with the residual mean
    removed (so the primitive is exactly periodic), node positions, nodewise
    cumulative integral of the linear interpolant, and the period mean of
    that primitive."""
    vals = np.asarray(samples, dtype=float)
    vals = vals - vals.mean()
    n = len(vals)
    h = TWO_PI / n
    ext = np.append(vals, vals[0])
    nodes = np.arange(n + 1) * h
    cum = np.concatenate([[0.0], np.cumsum(0.5 * (ext[1:] + ext[:-1]) * h)])
    seg_integral = cum[:-1] * h + ext[:-1] * h * h / 2.0 + (ext[1:] - ext[:-1]) * h * h / 6.0
    f_mean = float(np.sum(seg_integral)) / TWO_PI
    return ext, nodes, cum, f_mean, h


def f_array(w: Waveform, tau) -> np.ndarray:
    """Vectorized waveform evaluation (right-continuous at jumps)."""
    t = np.mod(np.asarray(tau, dtype=float), TWO_PI)  # never negative: the divisor is positive
    if w.kind == SQUARE:
        return np.where(t < math.pi, 1.0, -1.0)
    if w.kind == SINE:
        return np.sin(t)
    ext, nodes, _, _, _ = _sampled_tables(w.samples)
    return np.interp(t, nodes, ext)


def F_array(w: Waveform, tau) -> np.ndarray:
    """Vectorized zero-mean primitive of the waveform.

    Square: triangular, F(0) = -pi/2, peaks +-pi/2. Sine: -cos(tau).
    """
    t = np.mod(np.asarray(tau, dtype=float), TWO_PI)
    if w.kind == SQUARE:
        return np.where(t < math.pi, t - math.pi / 2.0, 1.5 * math.pi - t)
    if w.kind == SINE:
        return -np.cos(t)
    ext, nodes, cum, f_mean, h = _sampled_tables(w.samples)
    n = len(ext) - 1
    k = np.minimum((t / h).astype(int), n - 1)
    dt = t - nodes[k]
    slope = (ext[k + 1] - ext[k]) / h
    return cum[k] + ext[k] * dt + 0.5 * slope * dt * dt - f_mean

