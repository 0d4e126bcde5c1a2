"""Saturated-PMSM toolkit: energy-based magnetic model, pulsating-voltage
injection simulator, ripple extraction and magnetic-parameter identification.
"""

from .injection import InjectionSpec, Waveform
from .magnetics import (
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
    NonPhysical,
    NotAtRest,
    PlanRun,
    ZeroRipple,
    estimate_L,
    estimate_saturation,
    identify,
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
    "EstimationResult",
    "ExperimentPlan",
    "InjectionSpec",
    "MotorParams",
    "NonConvergence",
    "NonPhysical",
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
    "estimate_saturation",
    "extract_ripple",
    "flux_by_integration",
    "flux_from_currents_exact",
    "flux_from_currents_first_order",
    "identify",
    "magnetization_curves",
    "plan_runs",
    "predict_ripple",
    "run_identification",
    "simulate",
    "simulate_averaged",
    "step_response",
]
