"""Project configuration: one key-value text file wiring a motor, an
experiment plan and simulation settings to the CLI commands.

Field names carry their unit (omega_Hz, noise_mA, textio.MOTOR_KEYS); values
convert to SI exactly once, here. Keeping datasheet-style units in the file
makes motor fixtures transcribable without conversion mistakes.
"""

from __future__ import annotations

import dataclasses
import math
from pathlib import Path

from .estimator import ExperimentPlan
from .magnetics import MotorParams
from .simulator import MIN_WHOLE_PERIODS
from .textio import MOTOR_KEYS, ConfigError, checked, get_float, get_floats, get_int, parse_sections, waveform_from_name
from .validation import SweepSpec


def symmetric_grid(limit: float, step: float) -> tuple[float, ...]:
    """Zero-symmetric current grid: +-step, +-2*step, ... up to +-limit (the
    endpoints are always included)."""
    if not (limit > 0 and step > 0):
        raise ValueError("limit and step must be positive")
    k_max = int(math.floor(limit / step + 1e-9))
    values = [k * step for k in range(1, k_max + 1)]
    if not values or limit - values[-1] > 1e-9 * limit:
        values.append(limit)
    return tuple(sorted([-v for v in values] + values))


def step_files(u_step: float) -> tuple[str, str]:
    """The names of the step response and the integrated flux files that
    `validate` writes for a d-axis step of u_step volts."""
    label = f"{u_step:+.2f}V"
    return f"step_response_{label}.csv", f"flux_integration_{label}.csv"


def _parse_grid(body: dict[str, str], axis: str, where: str) -> tuple[float, ...]:
    key_list = f"{axis}_grid_A"
    key_max = f"{axis}_max_A"
    key_step = f"{axis}_step_A"
    if key_list in body:
        return get_floats(body, key_list, where)
    if key_max in body or key_step in body:
        return checked(where, symmetric_grid,
                       get_float(body, key_max, where), get_float(body, key_step, where))
    return ()


# every key each section may set; any other key or section exits 1 at load
# rather than being ignored
_KEYS = {
    "motor": tuple(key for key, *_ in MOTOR_KEYS.values()),
    "plan": ("omega_Hz", "waveform", "u_tilde_V",
             "id_grid_A", "id_max_A", "id_step_A", "iq_grid_A", "iq_max_A", "iq_step_A"),
    "sim": ("steps_per_period", "measure_periods", "noise_mA"),
    "paths": ("out_dir",),
    "validate": ("angle_deg", "inject_axis", "mag_grid_A", "mag_max_A", "mag_step_A",
                 "step_volts_V", "step_t_end_s"),
    "curves": ("curve_grid_A", "curve_max_A", "curve_step_A", "levels_A"),
}


@dataclasses.dataclass(frozen=True)
class ProjectConfig:
    motor: MotorParams
    plan: ExperimentPlan
    steps_per_period: int
    measure_periods: int
    noise_amp: float
    out_dir: Path
    sweep: SweepSpec
    step_volts: tuple[float, ...]
    step_t_end: float
    curve_grid: tuple[float, ...]
    curve_levels: tuple[float, ...]


def load_config(path) -> ProjectConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file {path} does not exist")
    sections = dict()
    for name, body in parse_sections(path):
        if name in sections:
            raise ConfigError(f"{path}: duplicate section [{name}]")
        if name not in _KEYS:
            raise ConfigError(f"{path}: unknown section [{name}] (known: {', '.join(_KEYS)})")
        for key in body:
            if key not in _KEYS[name]:
                raise ConfigError(f"{path} [{name}]: {key} is not a key of [{name}] "
                                  f"(known: {', '.join(_KEYS[name])})")
        sections[name] = body
    for required in ("motor", "plan"):
        if required not in sections:
            raise ConfigError(f"{path}: missing section [{required}]")

    m = sections["motor"]
    where = f"{path} [motor]"
    values = {}
    for field in dataclasses.fields(MotorParams):  # field order decides which of several faults is reported
        key, read, into, _ = MOTOR_KEYS[field.name]
        if key in m or field.default is dataclasses.MISSING:  # R, Ld and Lq have no default
            values[field.name] = read(m, key, where) * into
    motor = checked(where, MotorParams, **values)

    pl = sections["plan"]
    where = f"{path} [plan]"
    waveform = waveform_from_name(pl.get("waveform", "square"), path.parent, where)
    plan = checked(
        where, ExperimentPlan,
        omega=2.0 * math.pi * get_float(pl, "omega_Hz", where),
        waveform=waveform,
        u_tilde=get_float(pl, "u_tilde_V", where),
        id_grid=_parse_grid(pl, "id", where),
        iq_grid=_parse_grid(pl, "iq", where),
    )

    sim = sections.get("sim", {})
    where = f"{path} [sim]"
    steps_per_period = get_int(sim, "steps_per_period", where) if "steps_per_period" in sim else 200
    measure_periods = get_int(sim, "measure_periods", where) if "measure_periods" in sim else 40
    noise_amp = get_float(sim, "noise_mA", where) * 1e-3 if "noise_mA" in sim else 0.0
    if noise_amp < 0:
        raise ConfigError(f"{where}: noise_mA must be >= 0")
    if steps_per_period < 50 or steps_per_period % 2:
        raise ConfigError(f"{where}: steps_per_period must be even and >= 50")
    if measure_periods < MIN_WHOLE_PERIODS:
        raise ConfigError(f"{where}: measure_periods must be >= {MIN_WHOLE_PERIODS}")

    paths = sections.get("paths", {})
    out_dir = Path(paths["out_dir"]) if "out_dir" in paths else Path("out")
    if not out_dir.is_absolute():
        out_dir = path.parent / out_dir

    va = sections.get("validate", {})
    where = f"{path} [validate]"
    max_bias = max((abs(v) for v in plan.id_grid), default=1.0)
    mag_grid = _parse_grid(va, "mag", where)
    negative = [v for v in mag_grid if v < 0]
    if negative and "mag_grid_A" in va:
        raise ConfigError(f"{where}: mag_grid_A must list magnitudes >= 0, got {negative[0]:g}")
    mag_grid = tuple(v for v in mag_grid if v >= 0)  # the non-negative half of a mag_max_A/mag_step_A grid
    if not mag_grid:
        mag_grid = tuple(v for v in checked(where, symmetric_grid, max_bias, max_bias / 4) if v >= 0)
    if "step_volts_V" in va:
        step_volts = get_floats(va, "step_volts_V", where)
    else:
        step_volts = (0.25 * motor.R * max_bias, motor.R * max_bias)
    names = [step_files(u_step)[0] for u_step in step_volts]
    for j, name in enumerate(names):
        if name in names[:j]:
            raise ConfigError(f"{where}: step_volts_V {step_volts[names.index(name)]!r} and "
                              f"{step_volts[j]!r} both write {name}")
    sweep = checked(where, SweepSpec, angle_deg=get_float(va, "angle_deg", where) if "angle_deg" in va else 60.0,
                    magnitudes=mag_grid, omega=plan.omega, waveform=plan.waveform, u_tilde=plan.u_tilde,
                    inject_axis=va.get("inject_axis", "d"))
    step_t_end = get_float(va, "step_t_end_s", where) if "step_t_end_s" in va else 12.0 * motor.Ld / motor.R
    if step_t_end <= 0:
        raise ConfigError(f"{where}: step_t_end_s must be positive")

    cu = sections.get("curves", {})
    where = f"{path} [curves]"
    grid = _parse_grid(cu, "curve", where)
    if not grid:
        grid = checked(where, symmetric_grid, max_bias, max_bias / 8)
    if "levels_A" in cu:
        levels = get_floats(cu, "levels_A", where)
    else:
        iq_max = max((abs(v) for v in plan.iq_grid), default=max_bias)
        levels = (0.0, 0.5 * iq_max, iq_max)

    return ProjectConfig(
        motor=motor, plan=plan,
        steps_per_period=steps_per_period, measure_periods=measure_periods,
        noise_amp=noise_amp,
        out_dir=out_dir,
        sweep=sweep, step_volts=step_volts, step_t_end=step_t_end,
        curve_grid=grid, curve_levels=levels,
    )
