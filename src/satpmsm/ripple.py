"""Mean and ripple-amplitude extraction from a recorded run, and the flux
rebuilt from it.

Each current channel is i_bar + i_tilde * F(omega*t) up to the second-order
remainder of the injection expansion, plus whatever drift the mean still has
(the transient of a run from rest). The ripple coefficient is fit per axis
over whole injection periods (`period_blocks`) with F and the current each
centred on their own mean in every period (`_centred`), so a drifting mean
moves the fit only by its swing within a period; the mean is then averaged
over the window with the fitted ripple taken out. Both axes are fit from
the trace's stacked (2, n) currents, and a `RippleMeasurement` holds each
per-axis result as a (2,) array, d first. The regression in `estimator`
centres the current map's monomials by the same rule.

`rebuild_flux` gives the flux of a locked-rotor run started at rest at every
sample, phi(t) = integral(u - R i) dt from the first sample, both axes in
one pass, for identification and the flux validation alike. Currents and
a drive that is not held are integrated by the trapezoid rule; a held drive
(a square wave's) is read as right-continuous samples held constant over
each sample interval, aligned to its switching instants.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .injection import SQUARE, F_array, InjectionSpec
from .simulator import MIN_WHOLE_PERIODS, Trace

MIN_SAMPLES_PER_PERIOD = 16


class TooShort(RuntimeError):
    """A record holds fewer than `MIN_WHOLE_PERIODS` whole injection periods
    of samples from its first sample at or after the discard."""


class Unresolved(RuntimeError):
    """The trace sampling does not resolve the injection period."""


@dataclasses.dataclass(frozen=True)
class RippleMeasurement:
    """Mean currents, ripple amplitudes (coefficient of F), the fit's
    residual RMS and the ripple's standard errors from the fit, each a (2,)
    array with d first, and fit diagnostics."""

    i_bar: np.ndarray
    i_tilde: np.ndarray
    residual_rms: np.ndarray
    n_periods_used: int
    n_samples: int
    sigma_i_tilde: np.ndarray

    def __post_init__(self) -> None:
        if np.any(np.less(self.residual_rms, 0)):
            raise ValueError("residuals must be >= 0")
        if self.n_periods_used < 1:
            raise ValueError("n_periods_used must be >= 1")


def _running_sum(steps: np.ndarray) -> np.ndarray:
    """0, then the running sums of steps along its last axis."""
    out = np.zeros((*steps.shape[:-1], steps.shape[-1] + 1))
    np.cumsum(steps, axis=-1, out=out[..., 1:])
    return out


def _trapezoid_steps(dt: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The trapezoid areas of y, along its last axis, over the sample steps dt."""
    return 0.5 * (y[..., 1:] + y[..., :-1]) * dt


def rebuild_flux(trace: Trace, R: float, held: bool) -> np.ndarray:
    """Flux phi = integral(u - R i) dt from the first sample, at every sample,
    as stacked (2, n) d and q rows; exact only for a run started at rest.
    The trace's (2, n) u and i are integrated as they are, over one set of
    sample steps; a running sum along a row adds in sample order, so each
    row is what it is integrated alone.

    With held, the drive is integrated as held levels, each sample until the
    next, as a square wave's is (its samples take the new level at its
    switching instants; the trapezoid rule would shift the injected-axis flux
    by -u_tilde * dt / 2); without, by the trapezoid rule.
    """
    dt = np.diff(trace.t)
    u_steps = trace.u[:, :-1] * dt if held else _trapezoid_steps(dt, trace.u)
    return _running_sum(u_steps) - R * _running_sum(_trapezoid_steps(dt, trace.i))


def period_blocks(trace: Trace, spec: InjectionSpec, start: int = 0) -> tuple[int, int]:
    """Samples per injection period, a whole number, and how many such
    blocks the trace holds from sample `start` on.

    Raises Unresolved below `MIN_SAMPLES_PER_PERIOD` samples per period, or
    where their count is not within a relative 1e-6 of a whole number, an
    even one for a square wave (its switching instants fall on samples), and
    TooShort below `MIN_WHOLE_PERIODS` blocks.
    """
    per = spec.period / trace.sample_period
    if per < MIN_SAMPLES_PER_PERIOD:
        raise Unresolved(f"{per:.1f} samples per period < {MIN_SAMPLES_PER_PERIOD}")
    step = 2 if spec.waveform.kind == SQUARE else 1
    whole = step * round(per / step)
    if abs(per - whole) > 1e-6 * per:
        raise Unresolved(f"{per:.6g} samples per period is not {'an even' if step == 2 else 'a'} whole number")
    blocks = (len(trace.t) - start) // whole
    if blocks < MIN_WHOLE_PERIODS:
        raise TooShort(f"only {blocks} whole periods, need {MIN_WHOLE_PERIODS}")
    return whole, blocks


def _centred(a: np.ndarray, per: int, blocks: int) -> np.ndarray:
    """The first blocks * per samples along a's last axis, each block of per
    samples minus its own mean, flattened back along that axis."""
    a = a[..., :blocks * per].reshape(*a.shape[:-1], blocks, per)
    return (a - a.mean(axis=-1, keepdims=True)).reshape(*a.shape[:-2], -1)


def _ripple_fit(trace: Trace, spec: InjectionSpec, start: int, per: int, blocks: int, y: np.ndarray) -> tuple:
    """F(omega*(t - t[0])) over the blocks * per samples from `start`, and
    per row of y, their period-centred currents, i_tilde = f.y / f.f with f
    the period-centred F, the residual sum of squares and i_tilde's
    standard error, which takes one degree of freedom per period mean."""
    n = per * blocks
    F = F_array(spec.waveform, spec.omega * (trace.t[start:start + n] - trace.t[0]))
    f = _centred(F, per, blocks)
    ff = float(f @ f)
    fits = []
    for y_axis in y:
        i_tilde = float(f @ y_axis) / ff
        r = y_axis - i_tilde * f
        rss = float(r @ r)
        fits.append((i_tilde, rss, math.sqrt(rss / (n - blocks - 1) / ff)))
    return F, fits


def extract_ripple(trace: Trace, spec: InjectionSpec, discard: float) -> RippleMeasurement:
    """Fit i(t) ~ i_bar + i_tilde * F(omega*(t - t[0])) per axis after `discard`.

    The window is the whole injection periods from the first sample at or
    after `discard`, fitted by `_ripple_fit`; i_bar is the window mean of
    i - i_tilde * F, both rows at once.
    """
    if not discard >= 0:  # NaN too
        raise ValueError("discard must be >= 0")
    t = trace.t
    i0 = int(np.searchsorted(t, t[0] + discard - 1e-12 * trace.sample_period))
    per, blocks = period_blocks(trace, spec, i0)
    n = per * blocks
    i = trace.i[:, i0:i0 + n]
    F, fits = _ripple_fit(trace, spec, i0, per, blocks, _centred(i, per, blocks))
    i_tilde, rss, sigma = np.array(fits).T
    return RippleMeasurement(i_bar=np.mean(i - i_tilde[:, None] * F, axis=1), i_tilde=i_tilde,
                             residual_rms=np.sqrt(rss / n), n_periods_used=blocks, n_samples=n, sigma_i_tilde=sigma)
