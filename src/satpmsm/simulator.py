"""Fixed-step integration of the electrical dynamics in flux coordinates.

State is the flux-linkage pair, stacked as one (2, n) array over a batch of
n runs; the drive is a pulsating d-q voltage. The integrator is classic RK4.
The step grid must divide the injection period, and for square-wave
injection align with the switching instants (dt divides the half-period);
each step evaluates the voltage one-sidedly, so every step integrates a
smooth piece and the nominal RK4 order survives the discontinuities. The
rotor is locked: no speed couples the axes. A batch starts at rest
(`simulate_batch`, `simulate_averaged`) or, in `simulate_periodic`, each
run on its own periodic steady state. A narrow record (a step response,
an orbit) is one `_rk4` pass, one sample per step. An identification
batch from rest (`_record`) integrates its injection periods side by
side by parareal where that pays, else it too is one pass. Parareal cuts
the periods of a square wave whose quarter period is whole steps into
quarters, each +1 or -1 times the first, and every other drive not at
all; a chunk's sign goes into its lanes' u_tilde, so every chunk runs
one waveform. A batch comes back as one record (`_Traces`): its `flux`
is the motor's state, and a run's trace, built and checked when taken,
holds only the channels a sensor records: the time stamps t and the
voltages u and currents i, each stacked (2, n) with the d row first, as
the model's array functions take them.

`_rk4` has two implementations of the same arithmetic, chosen by the batch
width. A numpy step costs the dispatch of its ~60 array calls, about the
same from 1 to ~100 lanes; a step in Python floats costs about 2.5 us per
lane. So a batch of at most `_FLOAT_LANES` lanes, such as the step
responses or an orbit record of the angle sweep, integrates one lane after
another in floats, and a wider one, such as a fine sweep of an
identification plan, as arrays. Both give the same bits.

The simulator stands in for the motor, not for the sensors: measurement
noise is added afterwards, by `estimator.simulate_plan` through
`Trace.with_noise`, to the sampled currents only, as one (2, n) draw.
"""

from __future__ import annotations

import collections.abc
import dataclasses
import io
import math
import re
import warnings
from typing import Sequence

import numpy as np

from .injection import SQUARE, F_array, InjectionSpec, f_array
from .magnetics import (MotorParams, NonConvergence, NumericalFailure, _current_rows, _stacked_currents,
                        flux_from_currents_first_order)

_CSV_HEADER = ("t", "u_d", "u_q", "i_d", "i_q")  # the measured channels: all a trace file holds

# Fewest whole injection periods a record must hold (`ripple.period_blocks`);
# the ripple fit and the identification centre each of them on its own mean.
# `simulate_periodic` returns this many periods of each orbit.
MIN_WHOLE_PERIODS = 2

_SHOOT_MAX_ITER = 50     # Newton steps of `simulate_periodic`
_SHOOT_TOL = 1e-12       # one-period flux residual per axis [Wb]
_SHOOT_FD_STEP = 1e-8    # finite-difference step of every period-map Jacobian [Wb]

_PARAREAL_COARSE_STEPS = 12  # RK4 steps per period of every coarse map; a multiple of 4
_PARAREAL_TOL = 1e-13        # largest summed chunk-boundary jump of a done lane [Wb]
_PARAREAL_MAX_SWEEPS = 3     # fine sweeps before an open run finishes sequentially

# Widest batch `_rk4` integrates lane by lane in Python floats. Per RK4 step
# the floats cost 2.4-2.8 us per lane and numpy 40-85 us at 1-98 lanes, so
# the two cross near 28 lanes (2-core Xeon, Python 3.11, numpy 2.4.6).
_FLOAT_LANES = 24


def _write_columns(path, header: str, *columns) -> None:
    """CSV of the header line, then one row per sample of the equal-length
    columns, every value at round-trip precision: the bytes of
    `np.savetxt(path, np.column_stack(columns), fmt="%.17g", delimiter=",",
    header=header, comments="")`, with the rows formatted in one call."""
    values = np.column_stack(columns)
    row = ",".join(["%.17g"] * values.shape[1]) + "\n"
    with open(path, "w") as fh:
        fh.write(header + "\n")
        fh.write((row * len(values)) % tuple(values.ravel().tolist()))


class StepTooLarge(NumericalFailure):
    """dt does not resolve the injection period (under-resolved ripple), or
    a simulated response leaves the finite range, found when its trace is
    taken (`_Traces`)."""


@dataclasses.dataclass(frozen=True)
class SimConfig:
    """Integration settings; a run is sampled at every step. Measurement
    noise is added to the traces afterwards, by `estimator.simulate_plan`
    through `Trace.with_noise`.

    dt     integration step [s]
    t_end  run duration [s]
    """

    dt: float
    t_end: float

    def __post_init__(self) -> None:
        if not (self.dt > 0 and math.isfinite(self.dt)):
            raise ValueError(f"dt must be positive, got {self.dt}")
        if not (self.t_end > 0 and math.isfinite(self.t_end)):
            raise ValueError(f"t_end must be positive, got {self.t_end}")


@dataclasses.dataclass(frozen=True)
class Trace:
    """Uniformly sampled record of one run: the five channels of a trace
    file (`_CSV_HEADER`), the time stamps t (n,) and the stacked voltages u
    and currents i, each (2, n) with the d row first. Voltages are the
    impressed values, currents may carry measurement noise.

    Whether built in memory, by `dataclasses.replace` or from a file, a
    record is refused, in this order, for: a channel of another shape;
    fewer than 2 samples; a value that is not finite, named by its channel
    and its sample counted from 1, which in a file is its data row; time
    stamps that are not strictly increasing and uniform.
    """

    t: np.ndarray
    u: np.ndarray
    i: np.ndarray

    def __post_init__(self) -> None:
        if np.ndim(self.t) != 1:
            raise ValueError(f"channel t must be shaped (n,), got {np.shape(self.t)}")
        n = len(self.t)
        for name, channel in (("u", self.u), ("i", self.i)):
            if np.shape(channel) != (2, n):
                raise ValueError(f"channel {name} must be shaped (2, {n}), got {np.shape(channel)}")
        if n < 2:
            raise ValueError(f"a trace needs at least 2 samples, got {n}")
        if not all(np.isfinite(channel).all() for channel in (self.t, self.u, self.i)):
            bad = ~np.isfinite(np.vstack((self.t, self.u, self.i)))  # the rows of `_CSV_HEADER`
            sample, column = np.argwhere(bad.T)[0]  # the first sample with one, then its first channel
            raise ValueError(f"{_CSV_HEADER[column]} in data row {sample + 1} is not finite")
        steps = np.diff(self.t)
        if np.any(steps <= 0):
            raise ValueError("t must be strictly increasing")
        # a spread of 1e-9 of a step, plus the rounding of t itself, largest at an end of t
        if np.max(steps) - np.min(steps) > 1e-9 * float(steps[0]) + 4 * np.spacing(max(-self.t[0], self.t[-1])):
            raise ValueError("t must be uniformly sampled")

    @property
    def sample_period(self) -> float:
        return float(self.t[1] - self.t[0])

    def with_noise(self, amp: float, seed: int) -> "Trace":
        """Copy with fresh uniform noise in [-amp, +amp] on the currents."""
        if amp < 0:
            raise ValueError(f"noise amplitude must be >= 0, got {amp}")
        if not math.isfinite(amp):
            raise ValueError(f"noise amplitude must be finite, got {amp}")
        if amp == 0.0:
            return self
        noise = np.random.default_rng(seed).uniform(-amp, amp, size=self.i.shape)  # one draw, i_d's row first
        return dataclasses.replace(self, i=self.i + noise)

    def to_csv(self, path) -> None:
        """Write the five channels, `t,u_d,u_q,i_d,i_q`."""
        _write_columns(path, ",".join(_CSV_HEADER), self.t, *self.u, *self.i)

    @staticmethod
    def from_csv(path) -> "Trace":
        """Read the five channels by header name, ignoring any other column.
        A header name may have spaces around it, a `#` ends the header as it
        ends a data row, and comment and blank lines may come before the
        header. Every data row must hold one value per header name.

        The file is one numpy parse of all its columns, which refuses a row
        whose width differs from the first row's; a column that is no
        channel reads as 0.0 unparsed, so it may hold text. Data rows are
        counted from 1, comment and blank lines skipped, as numpy counts
        them; its parse errors are told in these terms (`_parse_fault`).
        What the channels hold is `Trace`'s to check, and its refusals, as
        every fault here, name the file."""
        with open(path, encoding="utf-8-sig") as fh:  # a leading byte-order mark is no text
            line = fh.readline()
            while line and (not line.strip() or line.lstrip().startswith("#")):
                line = fh.readline()
            header = [name.strip() for name in line.partition("#")[0].split(",")]
            text = fh.read()
        for name in _CSV_HEADER:
            if header.count(name) != 1:
                what = "repeats" if name in header else "missing"
                raise ValueError(f"trace CSV {path} {what} column {name!r}")
        unread = {col: lambda value: 0.0 for col, name in enumerate(header) if name not in _CSV_HEADER}
        with warnings.catch_warnings():  # a file of no data rows is `Trace`'s to refuse
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            try:
                data = np.loadtxt(io.StringIO(text), delimiter=",", ndmin=2, converters=unread)
            except ValueError as exc:
                raise ValueError(f"trace CSV {path}: {_parse_fault(str(exc), header, text)}") from None
        if len(data) and data.shape[1] != len(header):  # every row alike, none as wide as the header
            raise ValueError(f"trace CSV {path}: data row 1 has {data.shape[1]} values, the header names {len(header)}")
        data = data.reshape(-1, len(header))  # no data rows parse as (0, 1)
        channels = data.T[[header.index(name) for name in _CSV_HEADER]]
        try:
            return Trace(channels[0], channels[1:3], channels[3:])
        except ValueError as exc:
            raise ValueError(f"trace CSV {path}: {exc}") from None


def _parse_fault(message: str, header: list[str], text: str) -> str:
    """numpy's loadtxt error `message` on the data rows `text` of a trace
    file with this header, told by data row counted from 1 and by column name."""
    width = len(header)
    if changed := re.match(r"the number of columns changed from (\d+) to (\d+) at row (\d+)", message):
        first, values, row = map(int, changed.groups())
        if first != width:  # the first row is the odd one
            values, row = first, 1
        return f"data row {row} has {values} values, the header names {width}"
    if short := re.match(r"converter specified for column \d+, which is invalid for the number of fields (\d+)",
                         message):  # the first row ends before an unread column
        return f"data row 1 has {short[1]} values, the header names {width}"
    if value := re.fullmatch(r"(.*) at row (\d+), column (\d+)\.", message):
        what, row, col = value[1], int(value[2]) + 1, int(value[3])  # numpy counts rows from 0
        if col <= width:
            return f"data row {row}, column {header[col - 1]}: {what}"
        rows = [values for values in (line.partition("#")[0] for line in text.split("\n")) if values]
        return f"data row {row} has {rows[row - 1].count(',') + 1} values, the header names {width}"
    return message


def _check_step(spec: InjectionSpec, dt: float) -> None:
    period = spec.period
    if not 0 < dt <= period / 50.0:
        raise StepTooLarge(
            f"dt={dt:.3g}s is not positive or exceeds 1/50 of the injection period {period:.3g}s")
    # every period is the same step sequence (`_record` integrates the
    # periods side by side); a square wave also switches on step boundaries
    span, what = (period / 2.0, "half-period") if spec.waveform.kind == SQUARE else (period, "period")
    steps = span / dt
    if abs(steps - round(steps)) > 1e-6:
        raise ValueError(
            f"the injection {what} {span:.6g}s is not an integer multiple of dt={dt:.6g}s"
            + (": square-wave switching instants must fall on step boundaries"
               if spec.waveform.kind == SQUARE else ""))


def _waveform_arrays(spec: InjectionSpec, dt: float, n_steps: int) -> tuple[np.ndarray, ...]:
    """The waveform values f0, fmid, f1 that `_rk4` takes for n_steps
    steps of dt from t = 0 under `spec`'s drive."""
    w, omega = spec.waveform, spec.omega
    if w.kind == SQUARE:
        # switching instants sit on step boundaries (`_check_step`); derive
        # the sign from the integer step index, because the float phase
        # omega*dt*k eventually rounds to the wrong side of a boundary and a
        # single mis-sided stage kicks the flux by O(dt * u_tilde)
        steps_per_half = round(0.5 * spec.period / dt)
        halves = np.arange(n_steps + 1) // steps_per_half
        f0 = np.where(halves % 2 == 0, 1.0, -1.0)  # right-continuous at t_k
        return f0, f0[:-1], f0[:-1]                # the step's own half-period
    tau = omega * dt * np.arange(n_steps + 1)
    f0 = f_array(w, tau)
    return f0, f_array(w, tau[:-1] + 0.5 * omega * dt), f0[1:]  # continuous: no side to pick


def _stacked_drive(specs: Sequence[InjectionSpec], dt: float) -> tuple[np.ndarray, np.ndarray]:
    """u_bar and u_tilde of a batch of runs as (2, n) d and q rows; the runs
    must share waveform and pulsation, resolved by the step dt."""
    _check_step(specs[0], dt)  # it reads only the period and the waveform kind, which every spec shares
    for s in specs[1:]:
        if s.waveform != specs[0].waveform or s.omega != specs[0].omega:
            raise ValueError("batched runs must share waveform and omega")
    return (np.array([[s.u_bar_d for s in specs], [s.u_bar_q for s in specs]]),
            np.array([[s.u_tilde_d for s in specs], [s.u_tilde_q for s in specs]]))


def _lanes(motors: Sequence[MotorParams]) -> tuple[np.ndarray, np.ndarray]:
    """The coefficient rows (5, 2, n) and the full (2, n) R of a batch of
    lanes, lane j holding motors[j]: the motor operands of `_rk4`."""
    return _current_rows(motors), np.array([[p.R for p in motors]] * 2)  # a broadcast R costs ~2x


def _rk4(rows: np.ndarray, R: np.ndarray, dt: float, X0: np.ndarray, u_bar: np.ndarray,
         u_tilde: np.ndarray, f0: np.ndarray, fmid: np.ndarray, f1: np.ndarray,
         out: np.ndarray | None = None) -> np.ndarray:
    """Integrate the locked-rotor dynamics dphi/dt = u - R*i(phi) for a
    batch of lanes over len(fmid) steps of dt and return the end flux.

    The state X = (phi_d, phi_q) is one (2, *lanes) array started at X0, so
    each RK4 line serves both axes; R, u_bar, u_tilde and each of the five
    coefficient rows have X's shape (`_lanes`), and the drive is u = u_bar +
    u_tilde * f. The waveform value f of step k is taken at t_k (f0[k],
    right-continuous), at the step midpoint (fmid[k]) and at t_{k+1}
    closing the step (f1[k], left-sided). Given out (2, *lanes, steps), the
    flux at the start of step k goes to out[..., k]; nothing else is stored.

    Each stage is `_stacked_currents` and u - R * i, each step X + h6 * (k1 +
    2 k2 + 2 k3 + k4), all written into buffers allocated once per call, so
    the result is bit for bit that of the plain expressions. A stage reuses
    the drive of the stage before it, across steps too, when its waveform
    value has the same bits: a square wave or the averaged system computes a
    drive once per half period or once per call, a continuous drive once per
    closing stage and midpoint, as f1[k] is f0[k + 1].

    A batch of at most `_FLOAT_LANES` lanes runs in `_rk4_floats` instead,
    where a step costs a few microseconds per lane rather than the ~60 array
    calls' dispatch; its result has the same bits.
    """
    if math.prod(X0.shape[1:]) <= _FLOAT_LANES:
        return _rk4_floats(rows, R, dt, X0, u_bar, u_tilde, f0, fmid, f1, out)
    rows = tuple(rows)  # unpacked at every stage, which a tuple does without making views
    mul, add = np.multiply, np.add
    X = np.array(X0, dtype=float)  # a contiguous copy, the state buffer
    S, U, k1, k2, k3, k4, tmp = (np.empty_like(X) for _ in range(7))
    fq2 = np.empty_like(X[0])
    h2, h6 = 0.5 * dt, dt / 6.0
    key = None  # the bits of the waveform value whose drive U holds

    def rhs(X, f, k):
        """k = u - R * `_stacked_currents`(rows, X) under waveform value f."""
        nonlocal key
        if key != (f, math.copysign(1.0, f)):  # -0.0 == 0.0, but its drive may differ
            key = f, math.copysign(1.0, f)
            mul(u_tilde, f, U)
            add(u_bar, U, U)
        _stacked_currents(rows, X, k, fq2, tmp)
        mul(R, k, k)
        np.subtract(U, k, k)

    steps = None if out is None else np.moveaxis(out, -1, 0)  # steps[k] is a view of out[..., k]
    for k, (a, m, b) in enumerate(zip(f0.tolist(), fmid.tolist(), f1.tolist())):  # f0 may run one longer
        if steps is not None:
            steps[k] = X
        rhs(X, a, k1)
        mul(h2, k1, S)
        add(X, S, S)
        rhs(S, m, k2)
        mul(h2, k2, S)
        add(X, S, S)
        rhs(S, m, k3)
        mul(dt, k3, S)
        add(X, S, S)
        rhs(S, b, k4)
        mul(2.0, k2, k2)
        add(k1, k2, k1)
        mul(2.0, k3, k3)
        add(k1, k3, k1)
        add(k1, k4, k1)
        mul(h6, k1, k1)
        add(X, k1, X)
    return X


def _rk4_floats(rows, R, dt, X0, u_bar, u_tilde, f0, fmid, f1, out):
    """`_rk4` one lane after another in Python floats: per lane and axis the
    same binary operations on the same operands in the same order as
    `_stacked_currents` and `_rk4`, so the same bits, inf and NaN included."""
    lanes = X0.shape[1:]
    fs = list(zip(f0.tolist(), fmid.tolist(), f1.tolist()))
    h2, h6 = 0.5 * dt, dt / 6.0
    end = np.empty(X0.shape)
    operands = np.concatenate([np.reshape(a, (-1, math.prod(lanes))) for a in (rows, R, u_bar, u_tilde, X0)])
    for lane, (c0d, c0q, c1d, c1q, c2d, c2q, c3d, c3q, ed, eq, Rd, Rq, ubd, ubq, utd, utq, xd, xq) in zip(
            np.ndindex(*lanes), operands.T.tolist()):
        trail_d, trail_q = [], []  # the lane's flux at the start of every step
        for a, m, b in fs:  # the stages of `_rk4`, each at its own state sd, sq
            trail_d.append(xd)
            trail_q.append(xq)
            q2 = xq * xq
            k1d = ubd + utd * a - Rd * (xd * (c0d + xd * (c1d + c2d * xd) + c3d * q2) + ed * q2)
            k1q = ubq + utq * a - Rq * (xq * (c0q + xd * (c1q + c2q * xd) + c3q * q2) + eq * q2)
            sd, sq = xd + h2 * k1d, xq + h2 * k1q
            q2 = sq * sq
            k2d = ubd + utd * m - Rd * (sd * (c0d + sd * (c1d + c2d * sd) + c3d * q2) + ed * q2)
            k2q = ubq + utq * m - Rq * (sq * (c0q + sd * (c1q + c2q * sd) + c3q * q2) + eq * q2)
            sd, sq = xd + h2 * k2d, xq + h2 * k2q
            q2 = sq * sq
            k3d = ubd + utd * m - Rd * (sd * (c0d + sd * (c1d + c2d * sd) + c3d * q2) + ed * q2)
            k3q = ubq + utq * m - Rq * (sq * (c0q + sd * (c1q + c2q * sd) + c3q * q2) + eq * q2)
            sd, sq = xd + dt * k3d, xq + dt * k3q
            q2 = sq * sq
            k4d = ubd + utd * b - Rd * (sd * (c0d + sd * (c1d + c2d * sd) + c3d * q2) + ed * q2)
            k4q = ubq + utq * b - Rq * (sq * (c0q + sd * (c1q + c2q * sd) + c3q * q2) + eq * q2)
            xd = xd + h6 * (k1d + 2.0 * k2d + 2.0 * k3d + k4d)
            xq = xq + h6 * (k1q + 2.0 * k2q + 2.0 * k3q + k4q)
        if out is not None:
            out[(slice(None), *lane)] = trail_d, trail_q
        end[(slice(None), *lane)] = xd, xq
    return end


def _sampled(rows: np.ndarray, R: np.ndarray, dt: float, X0: np.ndarray, u_bar: np.ndarray,
             u_tilde: np.ndarray, drive: tuple[np.ndarray, ...]) -> np.ndarray:
    """The flux record (2, *lanes, steps + 1) of one `_rk4` pass from X0
    over the steps of drive = (f0, fmid, f1), one sample per step and the
    end flux last."""
    phi = np.empty((*X0.shape, len(drive[1]) + 1))
    phi[..., -1] = _rk4(rows, R, dt, X0, u_bar, u_tilde, *drive, phi[..., :-1])
    return phi


class _Traces(collections.abc.Sequence):
    """The result of a batch: the Trace of each lane j of the flux record
    phi (2, n, steps + 1), sampled every dt from t = 0, of lanes with
    coefficient rows `rows` under the drive u_bar + u_tilde * f0, built when
    it is taken: lane j's currents and voltages are computed on each access,
    so no current or voltage array of the whole batch exists. The channels
    are read-only and share one t; the flux stays on the record (`flux`).
    Taking a lane whose flux is not finite, a run that ran away, raises
    StepTooLarge naming its u_bar and its first non-finite sample's time."""

    def __init__(self, rows: np.ndarray, dt: float, phi: np.ndarray, u_bar: np.ndarray, u_tilde: np.ndarray,
                 f0: np.ndarray) -> None:
        self._t = np.arange(phi.shape[-1]) * dt
        for a in (self._t, phi):
            a.flags.writeable = False
        self._rows, self._dt, self._phi, self._u_bar, self._u_tilde, self._f0 = rows, dt, phi, u_bar, u_tilde, f0

    @property
    def flux(self) -> np.ndarray:
        """The noise-free flux (2, n, steps + 1) of every lane, read-only."""
        return self._phi

    def __len__(self) -> int:
        return self._phi.shape[1]

    def __getitem__(self, index):
        j = range(len(self))[index]  # IndexError out of range; a slice gives a range
        if isinstance(j, range):
            return [self[k] for k in j]
        phi = self._phi[:, j]
        if not np.isfinite([phi.min(), phi.max()]).all():  # NaN propagates: no temporary of the lane's size
            finite = np.isfinite(phi).all(axis=0)
            raise StepTooLarge(f"the response to u_bar = ({self._u_bar[0, j]:g}, {self._u_bar[1, j]:g}) V left the "
                               f"finite range at t = {self._t[finite.argmin()]:g} s: dt = {self._dt:g} s does not "
                               "resolve it")
        i = _stacked_currents(self._rows[:, :, j, None], phi)
        u = self._u_bar[:, j, None] + self._u_tilde[:, j, None] * self._f0
        for a in (i, u):
            a.flags.writeable = False
        return Trace(t=self._t, u=u, i=i)


_NO_RUNS = _Traces(  # the record of an empty batch
    np.empty((5, 2, 0)), 1.0, np.empty((2, 0, 0)), np.empty((2, 0)), np.empty((2, 0)), np.empty(0))


def _coarse_fits(p: MotorParams, period: float) -> bool:
    """Whether the coarse maps may run at injection period: where it is at
    most p's shortest unsaturated time constant min(Ld, Lq) / R. Beyond it
    the coarse propagator is inaccurate or unstable."""
    return period * p.R <= min(p.Ld, p.Lq)


def _fd_starts(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The starts (2, 2n) X + h e_d and X + s h e_q of a one-period map's
    forward differences at the (2, n) starts X, h = `_SHOOT_FD_STEP` and s
    the sign of each lane's q flux, and the q steps s h (n,). With the sign
    a mirrored run, q negated, takes the mirror of the run's Jacobian bit
    for bit."""
    hq = np.copysign(_SHOOT_FD_STEP, X[1])
    return np.concatenate((X + [[_SHOOT_FD_STEP], [0.0]], X + [np.zeros_like(hq), hq]), axis=1), hq


def _fd_jacobian(end: np.ndarray, fd_end: np.ndarray, hq: np.ndarray) -> np.ndarray:
    """The Jacobian (2, 2, n) of a one-period map, [axis out, axis in, lane],
    from its ends (2, n) at the starts X and (2, 2n) at `_fd_starts`(X)."""
    n = len(hq)
    return np.stack(((fd_end[:, :n] - end) / _SHOOT_FD_STEP, (fd_end[:, n:] - end) / hq), axis=1)


def _record(p: MotorParams, spec: InjectionSpec, dt: float, n_steps: int, u_bar: np.ndarray,
            u_tilde: np.ndarray) -> tuple[_Traces, int]:
    """The traces of n runs of motor p from rest over n_steps steps of dt,
    one sample per step, run j driven by u_bar[:, j] + u_tilde[:, j] * f
    under spec's waveform f, and the number of fine sweeps they took.

    The P = n_steps // spp whole injection periods of spp steps are cut into
    K = C P chunks of L = spp / C steps. A square wave whose quarter period
    is whole steps runs in quarters, C = 4: its quarters' drive is +1, +1,
    -1, -1 times the first's, index for index (`_waveform_arrays`). Any
    other drive runs in whole periods, C = 1. Chunk k's sign goes into its
    lanes' u_tilde, so every chunk runs the first chunk's waveform values,
    and u_tilde * -f = -u_tilde * f bit for bit. The chunks run side by side
    by parareal (Lions, Maday & Turinici, C. R. Acad. Sci. Paris 2001): each
    fine sweep runs all runs x chunks as one batch, lane (j, k). The fine
    propagator F is one chunk of `_rk4` at dt, the coarse G one chunk of
    `_PARAREAL_COARSE_STEPS` // C steps, each a `_PARAREAL_COARSE_STEPS`th
    of a period. The chunk starts U begin at U[0] = 0, U[k+1] = G(U[k]):
    one `_rk4` pass over the coarse steps of K - 1 chunks, chunk k's sign on
    its waveform values, the same bits as K - 1 calls of one chunk. One
    more call, of one chunk from the `_fd_starts` of every start but the
    last, gives G's Jacobians J_k at U[k]. A fine sweep from U leaves a
    jump F(U[k]) - U[k+1] at every chunk boundary; a run whose jumps,
    summed over both axes and all boundaries, come to at most
    `_PARAREAL_TOL` is done: its record is continuous up to that sum, which
    bounds the record's flux error against one pass. A done run keeps its
    starts, so later sweeps rewrite its samples bit for bit and every run
    comes out as it would alone. Every run gets a correction, linear in the
    move of the start before (parareal as multiple shooting on G's Jacobian,
    Gander & Vandewalle, SIAM J. Sci. Comput. 2007), and only the runs still
    open keep it: after sweep s their first s + 1 starts are exact, U'[k+1]
    = F(U[k]) for k < s, and the others update as U'[k+1] = F(U[k]) + J_k
    (U'[k] - U[k]). After `_PARAREAL_MAX_SWEEPS` sweeps a run not yet done
    continues sequentially from its last exact start, which no coarse value
    entered. A trailing part period continues from the last period's end.

    Every sweep but the first writes its samples straight into the record
    through a view of it, so the last sweep's are the ones kept. The first
    sweep's are always overwritten unless it is the last; then it is
    integrated once more from the same starts to write them, the same bits.

    Parareal pays only where it converges in far fewer sweeps than there
    are chunks. The record is one `_rk4` pass from rest, with no sweep,
    when it holds no more whole periods than the sweep cap, or where the
    injection period fails `_coarse_fits`.
    """
    n, spp = u_bar.shape[1], round(spec.period / dt)
    P = n_steps // spp
    rows, R = _lanes([p] * n)
    drive = _waveform_arrays(spec, dt, n_steps)
    if P <= _PARAREAL_MAX_SWEEPS or not _coarse_fits(p, spec.period):
        return _Traces(rows, dt, _sampled(rows, R, dt, np.zeros((2, n)), u_bar, u_tilde, drive), u_bar, u_tilde,
                       drive[0]), 0
    C = 4 if spec.waveform.kind == SQUARE and spp % 4 == 0 else 1
    coarse_steps = _PARAREAL_COARSE_STEPS // C
    K, L, sign = P * C, spp // C, np.tile([1.0, 1.0, -1.0, -1.0][:C], P)  # sign[k]: chunk k's
    coarse_dt = L * dt / coarse_steps
    rows_p, R_p, u_bar_p = (np.repeat(a[..., None], K, axis=-1) for a in (rows, R, u_bar))
    u_tilde_p = u_tilde[..., None] * sign  # lane (j, k) carries chunk k's sign
    fine, coarse = _waveform_arrays(spec, dt, L), _waveform_arrays(spec, coarse_dt, coarse_steps)

    U, done = np.zeros((2, n, K)), np.zeros(n, dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):  # an unconverged start is never kept
        G = np.empty((2, n, K - 1, coarse_steps))  # G's steps, chunk k's from its start U[k]
        U[..., -1] = _rk4(rows, R, coarse_dt, U[..., 0], u_bar, u_tilde,
                          *(np.outer(sign[:-1], f[:coarse_steps]).ravel() for f in coarse), G.reshape(2, n, -1))
        U[..., 1:-1] = G[..., 1:, 0]
        J = np.empty((2, 2, n, K - 1))
        for ks in np.array_split(np.arange(K - 1), min(4, K - 1)):  # half a fine sweep wide: below its memory
            m = n * len(ks)  # the lanes (j, k) of the starts U[k] the call takes G's Jacobian at
            fd, hq = _fd_starts(U[..., ks].reshape(2, m))
            fd_end = _rk4(*(np.tile(a[..., ks].reshape(*a.shape[:-2], m), 2) for a in (rows_p, R_p)), coarse_dt, fd,
                          *(np.tile(a[..., ks].reshape(2, m), 2) for a in (u_bar_p, u_tilde_p)), *coarse)
            J[..., ks] = _fd_jacobian(U[..., ks + 1].reshape(2, m), fd_end, hq).reshape(2, 2, n, len(ks))
        phi = np.empty((2, n, n_steps + 1))
        samples = phi[:, :, :K * L].reshape(2, n, K, L)  # a view: the sweeps write through it
        for sweeps in range(1, _PARAREAL_MAX_SWEEPS + 1):
            F = _rk4(rows_p, R_p, dt, U, u_bar_p, u_tilde_p, *fine, None if sweeps == 1 else samples)
            jumps = np.sum(np.abs(F[..., :-1] - U[..., 1:]), axis=(0, 2))  # where the record breaks
            done |= jumps <= _PARAREAL_TOL  # NaN stays open
            if done.all() or sweeps == _PARAREAL_MAX_SWEEPS:
                break
            U_new = U.copy()
            U_new[..., 1:sweeps + 1] = F[..., :sweeps]
            for k in range(sweeps, K - 1):
                move = U_new[..., k] - U[..., k]
                U_new[..., k + 1] = F[..., k] + (J[:, 0, :, k] * move[0] + J[:, 1, :, k] * move[1])
            U = np.where(done[:, None], U, U_new)  # a done run keeps its starts
        if sweeps == 1:  # the only sweep, again for its samples
            _rk4(rows_p, R_p, dt, U, u_bar_p, u_tilde_p, *fine, samples)
    starts = np.concatenate((np.zeros((2, n, 1)), F), axis=-1)  # starts[..., k]: chunk k's exact start
    for lanes, k in ((done, K), (~done, sweeps)):
        idx = np.flatnonzero(lanes)
        if len(idx) and k * L == n_steps:  # the record ends where chunk k starts
            phi[:, idx, -1] = starts[:, idx, k]
        elif len(idx):  # the rest of the record, from the start of chunk k
            phi[:, idx, k * L:] = _sampled(rows[..., idx], R[:, idx], dt, starts[:, idx, k], u_bar[:, idx],
                                           u_tilde[:, idx], [f[k * L:] for f in drive])
    return _Traces(rows, dt, phi, u_bar, u_tilde, drive[0]), sweeps


def simulate_batch(p: MotorParams, specs: Sequence[InjectionSpec], cfg: SimConfig) -> _Traces:
    """The noise-free record of several runs from rest that share the
    waveform, pulsation and config, one trace per spec in order.

    The runs advance as one vectorized state, and so do their injection
    periods (`_record`), which is what makes full identification sweeps
    affordable; per-run mean/ripple voltages are free to differ. The result
    holds the batch's flux record (`_Traces.flux`) only and builds a run's
    trace each time it is taken, so it may be iterated more than once.
    """
    if not specs:
        return _NO_RUNS
    return _record(p, specs[0], cfg.dt, round(cfg.t_end / cfg.dt), *_stacked_drive(specs, cfg.dt))[0]


def simulate(p: MotorParams, spec: InjectionSpec, cfg: SimConfig) -> Trace:
    """Integrate one pulsating-voltage run; see the module docstring. No
    code of the package calls it: it stays as the one-run entry point that
    acceptance criteria 2 and 5 call."""
    return simulate_batch(p, [spec], cfg)[0]


def simulate_averaged(motors: Sequence[MotorParams], u_bar: Sequence[tuple[float, float]],
                      cfg: SimConfig) -> _Traces:
    """Integrate the ripple-free averaged system dphi/dt = u_bar - R*i(phi)
    from rest, one lane per (motors[j], u_bar[j] = (u_bar_d, u_bar_q)) pair,
    all lanes in one `_rk4` pass. Each trajectory tends to the constant flux
    solving u_bar = R*i(phi).
    """
    if len(u_bar) != len(motors):
        raise ValueError("need one mean voltage pair per motor")
    if not motors:
        return _NO_RUNS
    n_steps = round(cfg.t_end / cfg.dt)
    u, zero = np.array(u_bar, dtype=float).T, np.zeros((2, len(motors)))
    rows, R = _lanes(motors)
    drive = np.zeros(n_steps + 1), np.zeros(n_steps), np.zeros(n_steps)
    return _Traces(rows, cfg.dt, _sampled(rows, R, cfg.dt, zero, u, zero, drive), u, zero, drive[0])


def _shooting_step(phi: np.ndarray, r: np.ndarray, J: np.ndarray) -> np.ndarray:
    """Newton step of each lane on the one-period residual r = P(phi) - phi,
    given the Jacobian J (2, 2, n) of P (`_fd_jacobian`).

    Where the Jacobian dP/dphi - I has an eigenvalue lam > 0, the lane sits
    on the unstable side of a fold of the energy, and Newton would lead back
    to the fold. There it is shifted by 2 lam, which flips that eigenvalue,
    so the step follows the flow P(phi) - phi at Newton's length. No step is
    longer than the larger of |phi| and |r|, which keeps a step next to a
    fold, where the Jacobian is nearly singular, from leaving the model's
    range.
    """
    (j_dd, j_dq), (j_qd, j_qq) = J
    j_dd, j_qq = j_dd - 1.0, j_qq - 1.0
    half_trace = 0.5 * (j_dd + j_qq)
    lam = half_trace + np.sqrt(np.maximum(half_trace**2 - (j_dd * j_qq - j_dq * j_qd), 0.0))
    shift = 2.0 * np.maximum(lam, 0.0)
    a_dd, a_qq = shift - j_dd, shift - j_qq  # step = (shift I - J)^-1 r
    step = np.array([a_qq * r[0] + j_dq * r[1], j_qd * r[0] + a_dd * r[1]]) / (a_dd * a_qq - j_dq * j_qd)
    limit = np.maximum(np.hypot(*phi), np.hypot(*r))
    return step * (limit / np.maximum(np.hypot(*step), limit))


def _shoot(rows: np.ndarray, R: np.ndarray, spec: InjectionSpec, maps: Sequence[tuple[float, int]],
           u_bar: np.ndarray, u_tilde: np.ndarray, phi: np.ndarray) -> tuple[np.ndarray, ...]:
    """Newton shooting of n runs, run j on the motor operands rows[..., j]
    and R[:, j] (`_lanes`), from the (2, n) starts phi, on each period map
    (dt, steps) of maps in turn, `steps` steps of dt under spec's waveform:
    a run whose one-period residual is at most `_SHOOT_TOL` on both axes
    keeps its start, and a map is done when every run is, or after
    `_SHOOT_MAX_ITER` steps.

    Each step integrates one period of the runs still open, and the
    `_fd_starts` of those that take their Jacobian (`_fd_jacobian`) at each
    start, in one batch of their own lanes. Every run does so on the first
    map; on a later one a run converged on the map before keeps that map's
    Jacobian at its start, and a run left open restarts where it started it.
    A run that converges keeps the record and end of the step that confirmed
    it; `_rk4` gives the same bits at any width, so that is what a later step
    would integrate again. Returns the mask of runs open on the last map, and
    the record (2, n, steps) and end (2, n) of its last period from each start.
    """
    n = phi.shape[1]
    J, fd = np.empty((2, 2, n)), np.ones(n, dtype=bool)
    for dt, steps in maps:
        waveform = _waveform_arrays(spec, dt, steps)
        record, end, r, start = np.empty((2, n, steps)), np.empty((2, n)), np.empty((2, n)), phi
        open_ = np.ones(n, dtype=bool)
        for _ in range(_SHOOT_MAX_ITER):
            runs = np.flatnonzero(open_)
            fd_runs = runs[fd[runs]]
            lanes = np.concatenate((runs, fd_runs, fd_runs))
            starts, hq = _fd_starts(phi[:, fd_runs])
            out = np.empty((2, len(lanes), steps))
            ends = _rk4(rows[..., lanes], R[:, lanes], dt, np.concatenate((phi[:, runs], starts), axis=1),
                        u_bar[:, lanes], u_tilde[:, lanes], *waveform, out)
            record[:, runs], end[:, runs] = out[:, :len(runs)], ends[:, :len(runs)]
            J[..., fd_runs] = _fd_jacobian(end[:, fd_runs], ends[:, len(runs):], hq)
            r[:, runs] = end[:, runs] - phi[:, runs]
            open_[runs] = ~np.all(np.abs(r[:, runs]) <= _SHOOT_TOL, axis=0)  # NaN stays open
            if not open_.any():
                break
            phi = np.where(open_, phi + _shooting_step(phi, r, J), phi)
        fd, phi = open_, np.where(open_, start, phi)  # a run left open restarts the next map where it started
    return open_, record, end


def simulate_periodic(p: MotorParams, specs: Sequence[InjectionSpec], *,
                      steps_per_period: int = 200) -> _Traces:
    """Noise-free locked-rotor traces of `MIN_WHOLE_PERIODS` injection periods
    on the periodic steady state of each run; the runs share waveform and
    pulsation. Every period of an orbit is the same up to its residual, so
    the fewest periods a ripple fit takes are all it needs.

    Each run starts at the flux phi0 that solves P(phi0) = phi0 for the
    one-period map P, found by Newton shooting (Aprille & Trick, Proc. IEEE
    1972) with all runs in one batch, one lane each (`_shoot`). The Jacobian
    comes from forward differences: the starts phi0 and `_fd_starts`(phi0)
    of every run integrate one period side by side, and `_shooting_step`
    turns the three ends into each run's step. The warm start is the
    first-order inverse at the mean current i_bar = u_bar / R, shifted by
    the ripple flux u_tilde * F(0) / omega at t = 0.

    Newton runs first on the coarse period map of `_PARAREAL_COARSE_STEPS`
    steps, from the warm start, where the period `_coarse_fits`; then on
    the fine map of steps_per_period steps, from the coarse fixed point,
    which is off the fine one by the coarse map's truncation error only.
    There it keeps the coarse map's Jacobian at that point, so each fine
    step integrates one period of the runs alone, and one or two steps and
    a confirming period finish it. A run whose coarse Newton does not
    converge, or every run where the period does not fit, takes the fine
    Jacobian at every step from its warm start instead, so a run comes out
    of a batch as it does alone. A run whose fine one-period residual still
    exceeds `_SHOOT_TOL` on an axis after `_SHOOT_MAX_ITER` steps raises
    NonConvergence naming its mean current.

    The record's first period is the one that confirmed phi0; the others
    are one `_sampled` pass from its end on the same lanes, so the record
    is bit for bit one pass of `MIN_WHOLE_PERIODS` periods from phi0.
    """
    if not specs:
        return _NO_RUNS
    dt = specs[0].period / steps_per_period
    u_bar, u_tilde = _stacked_drive(specs, dt)
    rows, R = _lanes([p] * len(specs))
    i_bar = u_bar / p.R
    phi = flux_from_currents_first_order(p, i_bar)
    phi = phi + u_tilde * float(F_array(specs[0].waveform, 0.0)) / specs[0].omega
    maps = [(specs[0].period / _PARAREAL_COARSE_STEPS, _PARAREAL_COARSE_STEPS)] * _coarse_fits(p, specs[0].period)
    with np.errstate(over="ignore", invalid="ignore"):  # a run that runs away is reported below
        open_, first, end = _shoot(rows, R, specs[0], maps + [(dt, steps_per_period)], u_bar, u_tilde, phi)
    if open_.any():
        d, q = i_bar[:, np.argmax(open_)]
        raise NonConvergence(
            f"no periodic orbit within {_SHOOT_MAX_ITER} shooting steps for the run at "
            f"i_bar = ({d:.6g}, {q:.6g}) A, |i_bar| = {math.hypot(d, q):.6g} A")
    drive = _waveform_arrays(specs[0], dt, MIN_WHOLE_PERIODS * steps_per_period)
    record = np.concatenate(
        (first, _sampled(rows, R, dt, end, u_bar, u_tilde, tuple(f[steps_per_period:] for f in drive))), axis=-1)
    return _Traces(rows, dt, record, u_bar, u_tilde, drive[0])
