"""Structured key-value text (config files, run manifests, result reports) and waveform files.

The shared format is INI-like sections of `key = value` lines; `#` starts a
comment. Unlike configparser, repeated section names are kept in order, which
is how a manifest lists one [run] block per trace.
"""

from __future__ import annotations

import math
from pathlib import Path

from .injection import SAMPLED, InjectionSpec, Waveform
from .estimator import PARAM_NAMES, EstimationResult, PlanRun


class ConfigError(ValueError):
    """Malformed config/manifest text; the message carries file and line."""


def parse_sections(path) -> list[tuple[str, dict[str, str]]]:
    """All sections in file order as (name, {key: value})."""
    sections: list[tuple[str, dict[str, str]]] = []
    current: dict[str, str] | None = None
    with open(path, encoding="utf-8-sig") as fh:  # a leading byte-order mark is no text
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if line.startswith("[") and line.endswith("]"):
                current = {}
                sections.append((line[1:-1].strip(), current))
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}")
            if current is None:
                raise ConfigError(f"{path}:{lineno}: key outside of any [section]")
            key, value = (part.strip() for part in line.split("=", 1))
            if key in current:
                raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
            current[key] = value
    return sections


def checked(where: str, factory, *args, **kwargs):
    """factory(*args, **kwargs), its ValueError re-raised as a ConfigError
    prefixed with `where` (file and section)."""
    try:
        return factory(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def get_float(section: dict[str, str], key: str, where: str) -> float:
    if key not in section:
        raise ConfigError(f"{where}: missing field {key!r}")
    try:
        value = float(section[key])
    except ValueError:
        raise ConfigError(f"{where}: field {key!r} is not a number: {section[key]!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"{where}: field {key!r} must be finite")
    return value


def get_floats(section: dict[str, str], key: str, where: str) -> tuple[float, ...]:
    """A comma-separated list of finite numbers."""
    try:
        values = tuple(float(v) for v in section[key].split(","))
    except ValueError:
        values = (math.nan,)
    if not all(math.isfinite(v) for v in values):
        raise ConfigError(f"{where}: {key} must be a comma-separated list of finite numbers")
    return values


def get_int(section: dict[str, str], key: str, where: str) -> int:
    value = get_float(section, key, where)
    if not value.is_integer():
        raise ConfigError(f"{where}: field {key!r} must be an integer: {section[key]!r}")
    return int(value)


# each MotorParams field's key in a config's [motor] and a report's [parameters]
# section, in report order, with its reader and SI factors in and out (x * 1e3 may not be x / 1e-3)
MOTOR_KEYS = {
    "Ld": ("Ld_mH", get_float, 1e-3, 1e3),
    "Lq": ("Lq_mH", get_float, 1e-3, 1e3),
    "a30": ("a30_AperWb2", get_float, 1.0, 1.0),
    "a12": ("a12_AperWb2", get_float, 1.0, 1.0),
    "a40": ("a40_AperWb3", get_float, 1.0, 1.0),
    "a22": ("a22_AperWb3", get_float, 1.0, 1.0),
    "a04": ("a04_AperWb3", get_float, 1.0, 1.0),
    "R": ("R_ohm", get_float, 1.0, 1.0),
    "phi_m": ("phi_m_Wb", get_float, 1.0, 1.0),
    "n_pp": ("pole_pairs", get_int, 1, 1),
}

# a manifest [run] block's voltage keys and their InjectionSpec fields
_RUN_VOLTS = {"u_bar_d_V": "u_bar_d", "u_bar_q_V": "u_bar_q", "u_tilde_d_V": "u_tilde_d", "u_tilde_q_V": "u_tilde_q"}


def waveform_from_name(name: str, base_dir: Path, where: str) -> Waveform:
    name = name.strip()
    if name == "square":
        return Waveform.square()
    if name == "sine":
        return Waveform.sine()
    if name.startswith("file:"):
        path = base_dir / name[len("file:"):].strip()
        if not path.exists():
            raise ConfigError(f"{where}: waveform file {path} does not exist")
        with open(path, encoding="utf-8-sig") as fh:  # one value per line: one period, uniformly spaced in tau
            return checked(f"{where}: waveform file {path}", Waveform.from_samples,
                           (float(v) for v in map(str.strip, fh) if v and not v.startswith("#")))
    raise ConfigError(f"{where}: unknown waveform {name!r} (square, sine or file:<path>)")


def write_manifest(path, runs: list[PlanRun], trace_files: list[str]) -> None:
    """One [run] block per trace: role, target current, drive and CSV path.

    Each run records its own pulsation and waveform. Every distinct sampled
    waveform is written once next to the manifest, one value per line
    (waveform.txt, waveform_2.txt, ...), and referenced by file, keeping the
    output directory a self-contained dataset.
    """
    path = Path(path)
    files: dict[Waveform, str] = {}
    for w in (run.spec.waveform for run in runs):
        if w.kind == SAMPLED and w not in files:
            files[w] = f"waveform_{len(files) + 1}.txt" if files else "waveform.txt"
            (path.parent / files[w]).write_text("".join(f"{v:.17g}\n" for v in w.samples))
    with open(path, "w") as fh:
        fh.write("# identification run manifest\n")
        for run, rel in zip(runs, trace_files):
            fh.write("\n[run]\n")
            fh.write(f"role = {run.role}\n")
            fh.write(f"i_target_A = {run.i_target:.17g}\n")
            for key, field in _RUN_VOLTS.items():
                fh.write(f"{key} = {getattr(run.spec, field):.17g}\n")
            fh.write(f"omega_Hz = {run.spec.omega / (2.0 * math.pi):.17g}\n")
            w = run.spec.waveform
            fh.write(f"waveform = {'file:' + files[w] if w in files else w.kind}\n")
            fh.write(f"trace = {rel}\n")


def read_manifest(path) -> list[tuple[PlanRun, Path]]:
    """Planned runs and their trace paths (resolved against the manifest);
    runs may differ in pulsation and amplitude."""
    base = Path(path).parent
    sections = parse_sections(path)
    if not sections:
        raise ConfigError(f"{path}: manifest lists no [run] block")
    out: list[tuple[PlanRun, Path]] = []
    for idx, (name, body) in enumerate(sections):
        where = f"{path} [run #{idx + 1}]"
        if name != "run":
            raise ConfigError(f"{where}: unexpected section [{name}]")
        for key in ("role", "trace", "waveform"):
            if key not in body:
                raise ConfigError(f"{where}: missing field {key!r}")
        spec = checked(
            where, InjectionSpec,
            **{field: get_float(body, key, where) for key, field in _RUN_VOLTS.items()},
            omega=2.0 * math.pi * get_float(body, "omega_Hz", where),
            waveform=waveform_from_name(body["waveform"], base, where),
        )
        run = PlanRun(role=body["role"], i_target=get_float(body, "i_target_A", where), spec=spec)
        trace_path = base / body["trace"]
        if not trace_path.exists():
            raise ConfigError(f"{where}: trace file {trace_path} does not exist")
        out.append((run, trace_path))
    return out


def write_report(path, result: EstimationResult) -> None:
    """Parameter report; uncertainties are 1-sigma standard errors."""
    with open(path, "w") as fh:
        fh.write("# estimated magnetic parameters (uncertainties are 1-sigma)\n")
        fh.write("[parameters]\n")
        for field, (key, _, _, out) in MOTOR_KEYS.items():
            fh.write(f"{key} = {getattr(result.params, field) * out:.17g}\n")
        fh.write("\n[sigma]\n")
        for field in PARAM_NAMES:
            key, _, _, out = MOTOR_KEYS[field]
            fh.write(f"{key} = {result.sigma[field] * out:.17g}\n")
        fh.write(f"\n[fit_residual_rms]\ncurrent_A = {result.residual_rms:.17g}\n")

