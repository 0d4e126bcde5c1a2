"""Seeded input generator: perturbed copies of the shipped fixtures.

Each generated config is a shipped fixture (configs/<fixture>.cfg) with the
five saturation coefficients scaled by a factor drawn from [0.95, 1.05] and
10 mA of current-measurement noise. The draw depends only on the workload,
the workload seed and the index of the config, so one seed always gives the
same bytes. The fixtures are read, never written; the true coefficients are
returned to the caller for scoring and never reach the program.
"""

from __future__ import annotations

import random
from pathlib import Path

FIXTURES = ("ipm", "spm")
COEF_KEYS = ("a30_AperWb2", "a12_AperWb2", "a40_AperWb3", "a22_AperWb3", "a04_AperWb3")
PARAM_KEYS = ("Ld_mH", "Lq_mH") + COEF_KEYS
SCALE_LO, SCALE_HI = 0.95, 1.05
NOISE_MA = 10.0


def parse_cfg(text: str) -> dict[str, dict[str, str]]:
    """Sections of a config text as {section: {key: value}}, comments dropped."""
    sections: dict[str, dict[str, str]] = {}
    current = None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = sections.setdefault(line[1:-1].strip(), {})
        elif "=" in line and current is not None:
            key, value = (part.strip() for part in line.split("=", 1))
            current[key] = value
        else:
            raise ValueError(f"unexpected config line {raw!r}")
    return sections


def format_cfg(sections: dict[str, dict[str, str]]) -> str:
    blocks = []
    for name, body in sections.items():
        blocks.append(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in body.items()))
    return "\n".join(blocks)


def shrink(sections: dict[str, dict[str, str]]) -> None:
    """Tiny variant for smoke runs and the determinism check: bias grids of
    +-2 steps (the d-axis fit needs at least three distinct biases), two
    measured periods, and short step responses."""
    plan, sim, val = sections["plan"], sections["sim"], sections.setdefault("validate", {})
    for axis in ("id", "iq"):
        plan[f"{axis}_max_A"] = f"{2 * float(plan[f'{axis}_step_A']):.17g}"
    sim["measure_periods"] = "2"
    val["mag_max_A"] = f"{2 * float(val['mag_step_A']):.17g}"
    val["step_t_end_s"] = "0.002"


class Generator:
    """Configs for one workload seed; `config(fixture, index)` is a pure
    function of (workload, seed, fixture, index)."""

    def __init__(self, root: Path, workload: str, seed: int, tiny: bool = False):
        self.workload = workload
        self.seed = seed
        self.tiny = tiny
        self.fixtures = {name: (root / "configs" / f"{name}.cfg").read_text() for name in FIXTURES}

    def rng(self, fixture: str, index: int, stream: str) -> random.Random:
        return random.Random(f"{self.workload}/{self.seed}/{fixture}/{index}/{stream}")

    def config(self, fixture: str, index: int) -> tuple[str, dict[str, float]]:
        """Generated config text and the true parameters it encodes."""
        rng = self.rng(fixture, index, "coefficients")
        sections = parse_cfg(self.fixtures[fixture])
        motor = sections["motor"]
        for key in COEF_KEYS:
            motor[key] = f"{float(motor[key]) * rng.uniform(SCALE_LO, SCALE_HI):.17g}"
        sections["sim"]["noise_mA"] = f"{NOISE_MA:g}"
        if self.tiny:
            shrink(sections)
        return format_cfg(sections), {key: float(motor[key]) for key in PARAM_KEYS}

    def op_seed(self, fixture: str, index: int) -> int:
        """Noise seed passed to the program's --seed for this config."""
        return self.rng(fixture, index, "noise").randrange(1_000_000) * 1000

    def write(self, fixture: str, index: int, path: Path) -> dict[str, float]:
        text, truth = self.config(fixture, index)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
        return truth
