"""Saturated-PMSM toolkit: energy-based magnetic model, pulsating-voltage
injection simulator, ripple extraction and magnetic-parameter identification.
"""

from .injection import InjectionSpec, Waveform
from .magnetics import (
    Currents,
    FluxLinkage,
    MotorParams,
    NonConvergence,
    currents_from_flux,
    energy,
    flux_from_currents_exact,
    flux_from_currents_first_order,
)
from .simulator import SimConfig, StepTooLarge, Trace, simulate, simulate_averaged
from .ripple import RippleMeasurement, TooShort, Unresolved, extract_ripple
from .estimator import (
    EstimationResult,
    ExperimentPlan,
    NotAtRest,
    PlanRun,
    ZeroRipple,
    estimate_cross,
    estimate_d_axis,
    estimate_from_records,
    estimate_L,
    measure_traces,
    plan_runs,
    predict_ripple,
    run_identification,
)
from .leastsq import RankDeficient
from .validation import (
    SweepSpec,
    angle_sweep,
    flux_by_integration,
    magnetization_curves,
    step_response,
)

__version__ = "0.1.0"

__all__ = [
    "Currents",
    "EstimationResult",
    "ExperimentPlan",
    "FluxLinkage",
    "InjectionSpec",
    "MotorParams",
    "NonConvergence",
    "NotAtRest",
    "PlanRun",
    "RankDeficient",
    "RippleMeasurement",
    "SimConfig",
    "StepTooLarge",
    "SweepSpec",
    "TooShort",
    "Trace",
    "Unresolved",
    "Waveform",
    "ZeroRipple",
    "angle_sweep",
    "currents_from_flux",
    "energy",
    "estimate_L",
    "estimate_cross",
    "estimate_d_axis",
    "estimate_from_records",
    "extract_ripple",
    "flux_by_integration",
    "flux_from_currents_exact",
    "flux_from_currents_first_order",
    "magnetization_curves",
    "measure_traces",
    "plan_runs",
    "predict_ripple",
    "run_identification",
    "simulate",
    "simulate_averaged",
    "step_response",
]
