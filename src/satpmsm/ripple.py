"""Mean and ripple-amplitude extraction from a recorded run, and the flux
rebuilt from it.

After the startup transient, each current channel is i_bar + i_tilde *
F(omega*t) up to the second-order remainder of the injection expansion. Both
coefficients are fit per axis by ordinary least squares on the basis
{1, F(omega*t)} over an integer number of whole periods; whole-period
windowing keeps the basis functions orthogonal, so the mean estimate is not
contaminated by the ripple and vice versa.

`rebuild_flux` gives the flux of a locked-rotor run started at rest at every
sample, phi(t) = integral(u - R i) dt from the first sample. Currents and
smooth drives are integrated by the trapezoid rule; a square-wave drive is
read as right-continuous samples aligned to its switching instants and held
constant over each sample interval. `period_blocks` cuts such a record
into whole injection periods from its first sample.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .injection import SQUARE, F_array, InjectionSpec
from .leastsq import ols_fit
from .simulator import MIN_WHOLE_PERIODS, Trace

MIN_SAMPLES_PER_PERIOD = 16


class TooShort(RuntimeError):
    """Fewer than `MIN_WHOLE_PERIODS` whole injection periods remain after
    the discard."""


class Unresolved(RuntimeError):
    """The trace sampling does not resolve the injection period."""


@dataclasses.dataclass(frozen=True)
class RippleMeasurement:
    """Per-axis mean currents, ripple amplitudes (coefficient of F), the
    ripple's standard errors from the fit, and fit diagnostics."""

    i_bar_d: float
    i_bar_q: float
    i_tilde_d: float
    i_tilde_q: float
    residual_rms_d: float
    residual_rms_q: float
    n_periods_used: int
    n_samples: int = 0
    sigma_i_tilde_d: float = 0.0
    sigma_i_tilde_q: float = 0.0

    def __post_init__(self) -> None:
        if self.residual_rms_d < 0 or self.residual_rms_q < 0:
            raise ValueError("residuals must be >= 0")
        if self.n_periods_used < 1:
            raise ValueError("n_periods_used must be >= 1")


def cumulative_trapezoid(t: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Running integral of y over t by the trapezoidal rule, 0 at t[0]."""
    steps = 0.5 * (y[1:] + y[:-1]) * np.diff(t)
    return np.concatenate([[0.0], np.cumsum(steps)])


def _cumulative_steps(t: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Running integral of y over t holding each sample until the next, 0 at
    t[0]: exact for right-continuous samples of a piecewise-constant y that
    switches only at sample instants."""
    return np.concatenate([[0.0], np.cumsum(y[:-1] * np.diff(t))])


def rebuild_flux(trace: Trace, spec: InjectionSpec, R: float) -> np.ndarray:
    """Flux phi = integral(u - R i) dt from the first sample, at every sample,
    as stacked (2, n) d and q rows; exact only for a run started at rest.

    A square-wave drive is constant between its switching instants, where its
    samples take the new level, so it is integrated as held levels; the
    trapezoid rule would shift the injected-axis flux by -u_tilde * dt / 2.
    """
    t = trace.t
    u_rule = _cumulative_steps if spec.waveform.kind == SQUARE else cumulative_trapezoid
    return np.stack([u_rule(t, u) - R * cumulative_trapezoid(t, i)
                     for u, i in ((trace.u_d, trace.i_d), (trace.u_q, trace.i_q))])


def _samples_per_period(trace: Trace, spec: InjectionSpec) -> float:
    per = spec.period / trace.sample_period
    if per < MIN_SAMPLES_PER_PERIOD:
        raise Unresolved(f"{per:.1f} samples per period < {MIN_SAMPLES_PER_PERIOD}")
    return per


def period_blocks(trace: Trace, spec: InjectionSpec) -> tuple[int, int]:
    """Samples per injection period, rounded to a whole number, and how many
    such blocks the trace holds from its first sample.

    Raises Unresolved and TooShort on the same terms as `extract_ripple`.
    """
    per = round(_samples_per_period(trace, spec))
    blocks = len(trace.t) // per
    if blocks < MIN_WHOLE_PERIODS:
        raise TooShort(f"only {blocks} whole periods, need {MIN_WHOLE_PERIODS}")
    return per, blocks


def extract_ripple(trace: Trace, spec: InjectionSpec, discard: float) -> RippleMeasurement:
    """Fit i(t) ~ i_bar + i_tilde * F(omega*t) per axis after `discard`.

    The fit window is the largest whole number of injection periods that
    starts at the first sample at or after `discard`.
    """
    if discard < 0:
        raise ValueError("discard must be >= 0")
    period = spec.period
    sp = trace.sample_period
    _samples_per_period(trace, spec)
    t = trace.t
    i0 = int(np.searchsorted(t, t[0] + discard - 1e-12 * sp))
    if i0 >= len(t):
        raise TooShort("discard exceeds the trace duration")
    span = t[-1] - t[i0]
    n_whole = int(math.floor(span / period + 1e-9))
    if n_whole < MIN_WHOLE_PERIODS:
        raise TooShort(
            f"only {n_whole} whole periods after discard, need {MIN_WHOLE_PERIODS}")
    n_win = int(math.floor(n_whole * period / sp + 1e-9))
    window = slice(i0, i0 + n_win)

    basis = np.column_stack([
        np.ones(n_win),
        F_array(spec.waveform, spec.omega * t[window]),
    ])

    def fit(y):
        beta, xtx_inv, resid = ols_fit(basis, y)
        rss = float(resid @ resid)
        rms = math.sqrt(rss / n_win)
        dof = max(n_win - 2, 1)
        s2 = rss / dof
        return float(beta[0]), float(beta[1]), rms, math.sqrt(s2 * xtx_inv[1, 1])

    bar_d, til_d, rms_d, stil_d = fit(trace.i_d[window])
    bar_q, til_q, rms_q, stil_q = fit(trace.i_q[window])
    return RippleMeasurement(
        i_bar_d=bar_d, i_bar_q=bar_q,
        i_tilde_d=til_d, i_tilde_q=til_q,
        residual_rms_d=rms_d, residual_rms_q=rms_q,
        n_periods_used=n_whole, n_samples=n_win,
        sigma_i_tilde_d=stil_d, sigma_i_tilde_q=stil_q,
    )
