"""Validation experiments: current-angle sweeps, large-step time responses,
flux reconstruction by voltage integration, and magnetization curves.

Each experiment returns plain arrays plus a plot-data CSV writer, so any
external tool can render the figures; nothing here draws.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Sequence

import numpy as np

from .estimator import ExperimentPlan, predict_ripple
from .injection import InjectionSpec
from .magnetics import MotorParams, flux_from_currents_exact
from .ripple import extract_ripple, rebuild_flux
from .simulator import SimConfig, Trace, _write_columns, simulate_averaged, simulate_periodic

_STEP_SAMPLES = 2000  # integration steps of each step response, one sample each


@dataclasses.dataclass(frozen=True)
class SweepSpec:
    """Current-angle sweep: vector angle, magnitude grid and the axis that
    carries the plan's injection at each operating point."""

    angle_deg: float
    magnitudes: tuple[float, ...]
    inject_axis: str = "d"

    def __post_init__(self) -> None:
        if any(m < 0 for m in self.magnitudes):
            raise ValueError("magnitudes must be >= 0")
        if self.inject_axis not in ("d", "q"):
            raise ValueError(f"inject_axis must be 'd' or 'q', got {self.inject_axis!r}")
        if not math.isfinite(self.angle_deg):
            raise ValueError("angle_deg must be finite")
        if not all(math.isfinite(m) for m in self.magnitudes):
            raise ValueError("magnitudes must be finite")


@dataclasses.dataclass(frozen=True)
class AngleSweepResult:
    """Predicted and simulated ripple amplitudes, each (2, magnitudes) with
    the d row first, at the sweep's magnitudes."""

    magnitudes: np.ndarray
    predicted: np.ndarray
    simulated: np.ndarray
    inject_axis: str

    def write_csv(self, path) -> None:
        """x,y_model,y_measured for the injected-axis ripple."""
        a = "dq".index(self.inject_axis)
        _write_columns(path, "x,y_model,y_measured", self.magnitudes, self.predicted[a], self.simulated[a])


def angle_sweep(p: MotorParams, plan: ExperimentPlan, s: SweepSpec, *, steps_per_period: int = 200) -> AngleSweepResult:
    """Ripple amplitudes along a fixed current-vector angle under the plan's
    injection on the sweep's axis: first-order prediction next to a measurement
    per magnitude, each one locked-rotor run biased at u_bar = R * i_bar on
    both axes and measured by `extract_ripple` over `MIN_WHOLE_PERIODS` periods
    of its periodic steady state (`simulate_periodic`, all in one batch)."""
    angle = math.radians(s.angle_deg)
    u_tilde = (plan.u_tilde, 0.0) if s.inject_axis == "d" else (0.0, plan.u_tilde)
    specs = [InjectionSpec(p.R * (m * math.cos(angle)), p.R * (m * math.sin(angle)), *u_tilde,
                           plan.omega, plan.waveform) for m in s.magnitudes]
    traces = simulate_periodic(p, specs, steps_per_period=steps_per_period)
    pred = np.array([predict_ripple(p, spec) for spec in specs]).reshape(-1, 2)
    meas = np.array([extract_ripple(tr, spec, 0.0).i_tilde for tr, spec in zip(traces, specs)]).reshape(-1, 2)
    return AngleSweepResult(magnitudes=np.asarray(s.magnitudes, dtype=float), predicted=pred.T, simulated=meas.T,
                            inject_axis=s.inject_axis)


@dataclasses.dataclass(frozen=True)
class StepResponseResult:
    saturated: Trace
    linear: Trace

    def write_csv(self, path) -> None:
        _write_columns(path, "t,i_sat,i_lin", self.saturated.t, self.saturated.i[0], self.linear.i[0])


def step_response(p: MotorParams, u_steps: Sequence[float], t_end: float) -> list[StepResponseResult]:
    """d-axis voltage steps from zero flux, locked rotor: the full model next
    to the same motor with the saturation coefficients zeroed, one result per
    voltage in u_steps. All voltage x {saturated, linear} lanes integrate
    the ripple-free averaged system over `_STEP_SAMPLES` steps in one RK4
    pass (`simulate_averaged`)."""
    cfg = SimConfig(dt=t_end / _STEP_SAMPLES, t_end=t_end)
    n = len(u_steps)
    traces = simulate_averaged([p] * n + [p.without_saturation()] * n,
                               [(float(u), 0.0) for u in u_steps] * 2, cfg)
    return [StepResponseResult(saturated=sat, linear=lin) for sat, lin in zip(traces[:n], traces[n:])]


@dataclasses.dataclass(frozen=True)
class FluxIntegrationResult:
    i_d: np.ndarray
    phi_d_integrated: np.ndarray
    phi_d_model: np.ndarray

    def write_csv(self, path) -> None:
        _write_columns(path, "x,y_model,y_measured", self.i_d, self.phi_d_model, self.phi_d_integrated)


def flux_by_integration(trace: Trace, p: MotorParams) -> FluxIntegrationResult:
    """Reconstruct phi(t) = integral(u - R i) dt on both axes by identification's
    `ripple.rebuild_flux`, trapezoid rule, and pair phi_d with the concurrent
    current. The trace must start de-energized, as every step response does.

    The model column re-derives the flux from the measured current pair by
    Newton inversion of the model to 1e-10 A, seeded at each sample's
    integrated flux: the record says on which side of a fold of the d-axis
    curve the motor sits, where the first-order seed of
    `flux_from_currents_exact` can land past it. All samples invert in one
    call of that array Newton, each as it would alone.
    """
    phi = rebuild_flux(trace, p.R, False)
    model = flux_from_currents_exact(p, trace.i, tol=1e-10, seed=phi)[0]
    return FluxIntegrationResult(i_d=trace.i[0].copy(), phi_d_integrated=phi[0], phi_d_model=model)


@dataclasses.dataclass(frozen=True)
class MagnetizationCurves:
    """phi_d over the current grid at the levels as fixed i_q, and phi_q
    over the grid (as i_q) at the levels as fixed i_d."""

    grid: np.ndarray
    levels: tuple[float, ...]
    phi_d: np.ndarray  # shape (n_levels, n_grid)
    phi_q: np.ndarray

    def write_csv(self, path_d, path_q) -> None:
        _write_columns(path_d, "i_d," + ",".join(f"phi_d_at_iq_{lv:g}" for lv in self.levels),
                       self.grid, *self.phi_d)
        _write_columns(path_q, "i_q," + ",".join(f"phi_q_at_id_{lv:g}" for lv in self.levels),
                       self.grid, *self.phi_q)


def magnetization_curves(p: MotorParams, grid: Sequence[float],
                         levels: Sequence[float]) -> MagnetizationCurves:
    """Flux-current curves by numerically inverting the magnetization map on
    a grid; one curve per fixed other-axis current level.

    Every point inverts in one call of `flux_from_currents_exact`, on the
    (2, levels, grid, 2) targets of a loop over levels, then grid points,
    d curve before q curve; a failure names the first point of that loop
    that fails."""
    grid = np.asarray(grid, dtype=float)
    level, x = np.meshgrid(np.asarray(levels, dtype=float), grid, indexing="ij")
    phi = flux_from_currents_exact(p, np.stack((np.stack((x, level), axis=-1), np.stack((level, x), axis=-1))))
    return MagnetizationCurves(grid=grid, levels=tuple(levels), phi_d=phi[0, ..., 0], phi_q=phi[1, ..., 1])
