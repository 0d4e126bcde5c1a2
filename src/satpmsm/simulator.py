"""Fixed-step integration of the electrical dynamics in flux coordinates.

State is the flux-linkage pair, stacked as one (2, n) array over a batch of
n runs; the drive is a pulsating d-q voltage. The integrator is classic RK4.
The step grid must divide the injection period, and for square-wave
injection align with the switching instants (dt divides the half-period);
each step evaluates the voltage one-sidedly, so every step integrates a
smooth piece and the nominal RK4 order survives the discontinuities. The
rotor is locked: no speed couples the axes. A batch starts at rest
(`simulate_batch`, `simulate_averaged`) or, in `simulate_periodic`, each
run on its own periodic steady state. Every sampled record comes from one
function, `_record`: its chunks (injection periods, or time constants of
the averaged system) integrated side by side, by parareal where that pays
or from exact starts where they are known, else one after the other, all
by one chunk map, `_rk4` from per-lane starts. Every step is one sample.

`_rk4` has two implementations of the same arithmetic, chosen by the batch
width. A numpy step costs the dispatch of its ~60 array calls, about the
same from 1 to ~100 lanes; a step in Python floats costs about 2.5 us per
lane. So a batch of at most `_FLOAT_LANES` lanes, such as a coarse chunk of
a step response or an orbit record of the angle sweep, integrates one lane
after another in floats, and a wider one, such as a fine sweep of an
identification plan, as arrays. Both give the same bits.

The simulator stands in for the motor, not for the sensors: measurement
noise is added afterwards, by `estimator.simulate_plan` through
`Trace.with_noise`, to the sampled currents only.
"""

from __future__ import annotations

import dataclasses
import functools
import io
import math
import warnings
from typing import Sequence

import numpy as np

from .injection import F_array, InjectionSpec, f_array
from .magnetics import (Currents, MotorParams, NonConvergence, _current_rows,
                        _stacked_currents, flux_from_currents_first_order)

_CSV_HEADER = ("t", "u_d", "u_q", "i_d", "i_q")  # the measured channels: all a trace file holds

# Fewest whole injection periods a record must hold (`ripple.period_blocks`);
# the ripple fit and the identification centre each of them on its own mean.
# `simulate_periodic` returns this many periods of each orbit.
MIN_WHOLE_PERIODS = 2

_SHOOT_MAX_ITER = 50     # Newton steps of `simulate_periodic`
_SHOOT_TOL = 1e-12       # one-period flux residual per axis [Wb]
_SHOOT_FD_STEP = 1e-6    # finite-difference step of the shooting Jacobian [Wb]

_PARAREAL_COARSE_STEPS = 10  # RK4 steps per period of the coarse propagator; even
_PARAREAL_COARSE_Z = 0.1     # largest coarse step R * dt_G / min(Ld, Lq) parareal runs with
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


class StepTooLarge(RuntimeError):
    """dt does not resolve the injection period (under-resolved ripple)."""


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
    """Uniformly sampled record of one run.

    Voltages are the impressed values, currents may carry measurement noise,
    flux channels are the noise-free internal state (None for a trace read
    from a file, since measurement data has no flux channel).
    """

    t: np.ndarray
    u_d: np.ndarray
    u_q: np.ndarray
    i_d: np.ndarray
    i_q: np.ndarray
    phi_d: np.ndarray | None = None
    phi_q: np.ndarray | None = None

    def __post_init__(self) -> None:
        n = len(self.t)
        for name in ("u_d", "u_q", "i_d", "i_q"):
            if len(getattr(self, name)) != n:
                raise ValueError(f"channel {name} length mismatch")
        for name in ("phi_d", "phi_q"):
            ch = getattr(self, name)
            if ch is not None and len(ch) != n:
                raise ValueError(f"channel {name} length mismatch")
        if n >= 2:
            steps = np.diff(self.t)
            if np.any(steps <= 0):
                raise ValueError("t must be strictly increasing")
            if np.max(steps) - np.min(steps) > 1e-9 * float(steps[0]):
                raise ValueError("t must be uniformly sampled")

    @property
    def sample_period(self) -> float:
        return float(self.t[1] - self.t[0])

    def with_noise(self, amp: float, seed: int) -> "Trace":
        """Copy with fresh uniform noise in [-amp, +amp] on the currents;
        the flux channels are internal state, not a measurement, and stay
        as they are."""
        if amp < 0:
            raise ValueError(f"noise amplitude must be >= 0, got {amp}")
        if amp == 0.0:
            return self
        rng = np.random.default_rng(seed)
        return dataclasses.replace(
            self,
            i_d=self.i_d + rng.uniform(-amp, amp, size=len(self.t)),
            i_q=self.i_q + rng.uniform(-amp, amp, size=len(self.t)),
        )

    def to_csv(self, path) -> None:
        """Write the five measured channels, `t,u_d,u_q,i_d,i_q`; the flux
        is internal state, which no measurement has."""
        _write_columns(path, ",".join(_CSV_HEADER), *(getattr(self, name) for name in _CSV_HEADER))

    @staticmethod
    def from_csv(path) -> "Trace":
        """Read the five measured channels by header name; any other column
        is ignored, so the flux is None. Every data row must hold one value
        per header name.

        The file is read once. Its rows are parsed with the last header
        column added to the five, so a parse without error has at least that
        many values in every row; then, in a file with no comment and no
        blank line, a comma count of exactly one row's worth per row leaves
        no row longer. Only a file that fails that test has its rows checked
        one by one, before a parse of the five columns alone."""
        with open(path) as fh:
            header = fh.readline().strip().split(",")
            text = fh.read()
        for name in _CSV_HEADER:
            if header.count(name) != 1:
                what = "repeats" if name in header else "missing"
                raise ValueError(f"trace CSV {path} {what} column {name!r}")
        cols, width = [header.index(n) for n in _CSV_HEADER], len(header)
        rows = text.count("\n") + (not text.endswith("\n") and bool(text))
        with warnings.catch_warnings():  # an empty file is refused below
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            try:
                data = _load_columns(text, cols + [width - 1] * (width - 1 not in cols))
            except ValueError:
                data = None
            if (data is None or len(data) != rows or "#" in text
                    or text.count(",") != (width - 1) * rows):
                for row, line in enumerate(text.split("\n"), 1):
                    values = line.partition("#")[0]  # loadtxt skips a comment and a blank line
                    if values.strip() and values.count(",") != width - 1:
                        raise ValueError(f"trace CSV {path}: data row {row} has {values.count(',') + 1} values, "
                                         f"the header names {width}")
                data = _load_columns(text, cols)
        data = data[:, :len(_CSV_HEADER)]
        if len(data) < 2:
            raise ValueError(f"trace CSV {path} has {len(data)} data rows, needs at least 2")
        bad = np.argwhere(~np.isfinite(data))
        if len(bad):
            row, col = bad[0]
            raise ValueError(f"trace CSV {path}: {_CSV_HEADER[col]} in data row {row + 1} is not finite")
        try:
            return Trace(*data.T.copy())
        except ValueError as exc:
            raise ValueError(f"trace CSV {path}: {exc}") from None


def _load_columns(text: str, cols: list[int]) -> np.ndarray:
    """The columns cols of the comma-separated rows in text, one row each."""
    return np.loadtxt(io.StringIO(text), delimiter=",", ndmin=2, usecols=cols)


def _check_step(spec: InjectionSpec, dt: float) -> None:
    period = spec.period
    if not 0 < dt <= period / 50.0:
        raise StepTooLarge(
            f"dt={dt:.3g}s is not positive or exceeds 1/50 of the injection period {period:.3g}s")
    # every period is the same step sequence (`_record` integrates the
    # periods side by side); a square wave also switches on step boundaries
    span, what = (period / 2.0, "half-period") if spec.waveform.kind == "square" else (period, "period")
    steps = span / dt
    if abs(steps - round(steps)) > 1e-6:
        raise ValueError(
            f"the injection {what} {span:.6g}s is not an integer multiple of dt={dt:.6g}s"
            + (": square-wave switching instants must fall on step boundaries"
               if spec.waveform.kind == "square" else ""))


def _waveform_arrays(spec: InjectionSpec, dt: float, n_steps: int) -> tuple[np.ndarray, ...]:
    """The waveform values f0, fmid, f1 that `_rk4` takes for n_steps
    steps of dt from t = 0 under `spec`'s drive."""
    w, omega = spec.waveform, spec.omega
    if w.kind == "square":
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
    for s in specs:
        if s.waveform != specs[0].waveform or s.omega != specs[0].omega:
            raise ValueError("batched runs must share waveform and omega")
        _check_step(s, dt)
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

    Each step is the binary float operations of u - R * i(X) per stage and
    X + h6 * (k1 + 2 k2 + 2 k3 + k4), written into buffers allocated once
    per call, with operands swapped at most, so the result is bit for bit
    that of the plain expressions. A stage reuses the drive of the stage
    before it, across steps too, when its waveform value has the same bits:
    a square wave or the averaged system computes a drive once per half
    period or once per call, a continuous drive once per closing stage and
    midpoint, as f1[k] is f0[k + 1].

    A batch of at most `_FLOAT_LANES` lanes runs in `_rk4_floats` instead,
    where a step costs a few microseconds per lane rather than the ~60 array
    calls' dispatch; its result has the same bits.
    """
    if math.prod(X0.shape[1:]) <= _FLOAT_LANES:
        return _rk4_floats(rows, R, dt, X0, u_bar, u_tilde, f0, fmid, f1, out)
    c0, c1, c2, c3, e = rows
    mul, add = np.multiply, np.add
    X = np.array(X0, dtype=float)  # a contiguous copy, the state buffer
    S, U, k1, k2, k3, k4, tmp = (np.empty_like(X) for _ in range(7))
    fq2 = np.empty_like(X[0])
    h2, h6 = 0.5 * dt, dt / 6.0
    key = None  # the bits of the waveform value whose drive U holds

    def rhs(X, Xd, Xq, f, k):
        """k = u - R * `_stacked_currents`(rows, X) under waveform value f."""
        nonlocal key
        if key != (f, math.copysign(1.0, f)):  # -0.0 == 0.0, but its drive may differ
            key = f, math.copysign(1.0, f)
            mul(u_tilde, f, U)
            add(u_bar, U, U)
        mul(Xq, Xq, fq2)
        mul(c2, Xd, k)
        add(c1, k, k)
        mul(Xd, k, k)
        add(c0, k, k)
        mul(c3, fq2, tmp)
        add(k, tmp, k)
        mul(X, k, k)
        mul(e, fq2, tmp)
        add(k, tmp, k)
        mul(R, k, k)
        np.subtract(U, k, k)

    state, stage = (X, X[0], X[1]), (S, S[0], S[1])  # the axis rows as views made once
    steps = None if out is None else np.moveaxis(out, -1, 0)  # steps[k] is a view of out[..., k]
    for k, (a, m, b) in enumerate(zip(f0.tolist(), fmid.tolist(), f1.tolist())):  # f0 may run one longer
        if steps is not None:
            steps[k] = X
        rhs(*state, a, k1)
        mul(h2, k1, S)
        add(X, S, S)
        rhs(*stage, m, k2)
        mul(h2, k2, S)
        add(X, S, S)
        rhs(*stage, m, k3)
        mul(dt, k3, S)
        add(X, S, S)
        rhs(*stage, b, k4)
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
    same binary operations on the same operands in the same order as the
    array kernel, so the same bits, an overflow to inf or NaN included."""
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


def _traces(t, phi, i, u) -> list[Trace]:
    """One Trace per lane of the kernel's lane-major output: read-only row
    views, all sharing one t; nothing is copied."""
    for a in (t, phi, i, u):
        a.flags.writeable = False
    return [Trace(t=t, u_d=u[0, j], u_q=u[1, j], i_d=i[0, j], i_q=i[1, j], phi_d=phi[0, j], phi_q=phi[1, j])
            for j in range(phi.shape[1])]


def _coarse_fits(p: MotorParams, coarse_dt: float) -> bool:
    """Whether a coarse step of coarse_dt is at most `_PARAREAL_COARSE_Z` of
    p's shortest unsaturated time constant min(Ld, Lq) / R."""
    return coarse_dt * p.R / min(p.Ld, p.Lq) <= _PARAREAL_COARSE_Z


def _record(motors: Sequence[MotorParams], dt: float, n_steps: int, spp: int, X0: np.ndarray,
            u_bar: np.ndarray, u_tilde: np.ndarray, waveform) -> tuple[tuple[np.ndarray, ...], int]:
    """The record t, flux, current and voltage (each (2, n, n_steps + 1),
    t shared) of lane j = motors[j] integrated by `_rk4` over n_steps steps
    of dt from X0[:, j], driven by u_bar[:, j] + u_tilde[:, j] * f, one sample
    per step, and the number of fine sweeps it took. waveform(dt, k) gives
    the f0, fmid, f1 of k steps of dt from t = 0, and the drive repeats
    every spp steps.

    The P = n_steps // spp whole chunks of spp steps are integrated side by
    side: each fine sweep runs all lanes x chunks as one batch, lane (j, p),
    and writes its samples straight into the record through a view of it.
    Given every whole chunk's exact start, X0 of shape (2, n, P), one fine
    sweep from those starts is the whole record, with no coarse work.

    From one start per lane, X0 of shape (2, n), the chunks run by parareal
    (Lions, Maday & Turinici, C. R. Acad. Sci. Paris 2001). The fine
    propagator F is one chunk of `_rk4` at dt, the coarse G one chunk at
    `_PARAREAL_COARSE_STEPS` steps. The chunk starts U begin at U[0] = X0,
    U[p+1] = G(U[p]). A fine sweep from U leaves a jump F(U[p]) - U[p+1]
    in the record at every chunk boundary; a lane whose jumps, summed over
    both axes and all boundaries, come to at most `_PARAREAL_TOL` is done:
    its record is continuous up to that sum, which bounds the record's
    flux error against one pass. A done lane keeps its starts, so later
    sweeps rewrite its samples bit for bit and every lane comes out as it
    would alone. Only the lanes still open get a coarse correction: after
    sweep s their first s + 1 starts are exact, U'[p+1] = F(U[p]) for
    p < s, and the others update as U'[p+1] = G(U'[p]) + F(U[p]) - G(U[p]).
    After `_PARAREAL_MAX_SWEEPS` sweeps a lane not yet done continues
    sequentially from its last exact start, which no coarse value entered.
    A trailing part chunk continues from the last chunk's end.

    Parareal pays only where it converges in far fewer sweeps than there
    are chunks. The record runs sequentially from X0 throughout when it
    holds no more whole chunks than the sweep cap, or when a coarse step
    fails `_coarse_fits` for some lane: there the coarse propagator is
    inaccurate or unstable.
    """
    n, P = len(motors), n_steps // spp
    rows, R = _lanes(motors)
    drive = waveform(dt, n_steps)
    phi = np.empty((2, n, n_steps + 1))
    coarse_dt = spp * dt / _PARAREAL_COARSE_STEPS
    known = X0.ndim == 3  # every whole chunk's exact start given
    # starts[..., k]: chunk k's exact start
    sweeps, done, starts = 0, np.full(n, known), X0 if known else X0[..., None]
    if known or P > _PARAREAL_MAX_SWEEPS and all(_coarse_fits(p, coarse_dt) for p in motors):
        rows_p, R_p, u_bar_p, u_tilde_p = (np.repeat(a[..., None], P, axis=-1) for a in (rows, R, u_bar, u_tilde))
        fine = waveform(dt, spp)
        samples = phi[:, :, :P * spp].reshape(2, n, P, spp)  # a view: the sweeps write through it

        def fine_sweep(U):
            return _rk4(rows_p, R_p, dt, U, u_bar_p, u_tilde_p, *fine, samples)

        if known:
            F, sweeps = fine_sweep(X0), 1
        else:
            coarse = waveform(coarse_dt, _PARAREAL_COARSE_STEPS)

            def coarse_sweep(U, G, k0, lanes):
                """Add G(U[..., k]) to U[..., k + 1] in chunk order from k0, keeping
                the G values in G[..., k]; U and G hold the given lanes."""
                rows_l, R_l, u_bar_l, u_tilde_l = rows[..., lanes], R[:, lanes], u_bar[:, lanes], u_tilde[:, lanes]
                for k in range(k0, P - 1):
                    G[..., k] = _rk4(rows_l, R_l, coarse_dt, U[..., k], u_bar_l, u_tilde_l, *coarse)
                    U[..., k + 1] += G[..., k]

            U, G = np.zeros((2, n, P)), np.empty((2, n, P - 1))
            U[..., 0] = X0
            with np.errstate(over="ignore", invalid="ignore"):  # an unconverged start is never kept
                coarse_sweep(U, G, 0, slice(None))
                for sweeps in range(1, _PARAREAL_MAX_SWEEPS + 1):
                    F = fine_sweep(U)
                    jumps = np.sum(np.abs(F[..., :-1] - U[..., 1:]), axis=(0, 2))  # where the record breaks
                    done |= jumps <= _PARAREAL_TOL  # NaN stays open
                    if done.all() or sweeps == _PARAREAL_MAX_SWEEPS:
                        break
                    lanes = np.flatnonzero(~done)  # a done lane keeps its starts
                    U_open, G_open = U[:, lanes], G[:, lanes]
                    U_open[..., 1:sweeps + 1] = F[:, lanes, :sweeps]
                    U_open[..., sweeps + 1:] = F[:, lanes, sweeps:-1] - G_open[..., sweeps:]
                    coarse_sweep(U_open, G_open, sweeps, lanes)
                    U[:, lanes], G[:, lanes] = U_open, G_open
        starts = np.concatenate((starts[..., :1], F), axis=-1)
    for lanes, k in ((done, P), (~done, sweeps)):
        if lanes.any() and k * spp == n_steps:  # the record ends where chunk k starts
            phi[:, lanes, -1] = starts[:, lanes, k]
        elif lanes.any():
            idx = slice(None) if lanes.all() else np.flatnonzero(lanes)  # a slice writes through
            out = phi[:, idx, k * spp:-1]
            phi[:, idx, -1] = _rk4(rows[..., idx], R[:, idx], dt, starts[:, idx, k], u_bar[:, idx],
                                   u_tilde[:, idx], *(f[k * spp:] for f in drive), out)
            if isinstance(idx, np.ndarray):
                phi[:, idx, k * spp:-1] = out
    return (np.arange(n_steps + 1) * dt, phi, _stacked_currents(rows[..., None], phi),
            u_bar[..., None] + u_tilde[..., None] * drive[0]), sweeps


def simulate_batch(p: MotorParams, specs: Sequence[InjectionSpec], cfg: SimConfig) -> list[Trace]:
    """Noise-free traces of several runs from rest that share the waveform,
    pulsation and config.

    The runs advance as one vectorized state, and so do their injection
    periods (`_record`), which is what makes full identification sweeps
    affordable; per-run mean/ripple voltages are free to differ.
    """
    if not specs:
        return []
    u_bar, u_tilde = _stacked_drive(specs, cfg.dt)
    return _traces(*_record([p] * len(specs), cfg.dt, int(round(cfg.t_end / cfg.dt)),
                            round(specs[0].period / cfg.dt), np.zeros(u_bar.shape), u_bar, u_tilde,
                            functools.partial(_waveform_arrays, specs[0]))[0])


def simulate(p: MotorParams, spec: InjectionSpec, cfg: SimConfig) -> Trace:
    """Integrate one pulsating-voltage run; see the module docstring. No
    code of the package calls it: it stays as the one-run entry point that
    acceptance criteria 2 and 5 call."""
    return simulate_batch(p, [spec], cfg)[0]


def _averaged_chunk(p: MotorParams, dt: float, n_steps: int) -> int:
    """Chunk length, in steps of dt, at which `_record` integrates a lane of
    motor p under a constant drive over n_steps.

    The chunk is the shortest unsaturated time constant min(Ld, Lq) / R in
    whole steps, which is the longest chunk whose coarse step
    `_coarse_fits`. It is counted down from one step past the quotient
    until it fits, so that no rounding puts it a step off either way. A
    lane whose time constant is shorter than one step gets a chunk longer
    than the record, which runs it sequentially."""
    spp = int(min(p.Ld, p.Lq) / p.R / dt) + 1
    while spp >= 1 and not _coarse_fits(p, spp * dt / _PARAREAL_COARSE_STEPS):
        spp -= 1
    return spp if spp >= 1 else n_steps + 1


def simulate_averaged(motors: Sequence[MotorParams], u_bar: Sequence[tuple[float, float]],
                      cfg: SimConfig) -> list[Trace]:
    """Integrate the ripple-free averaged system dphi/dt = u_bar - R*i(phi)
    from rest, one lane per (motors[j], u_bar[j] = (u_bar_d, u_bar_q)) pair.

    The record runs in time chunks of `_averaged_chunk` steps (`_record`).
    That chunk depends on the lane's own motor and dt only, so the lanes
    that share one integrate as one batch, and every lane comes out as it
    would alone; the traces return in input order. Each trajectory tends to
    the constant flux solving u_bar = R*i(phi).
    """
    if len(u_bar) != len(motors):
        raise ValueError("need one mean voltage pair per motor")
    n_steps = int(round(cfg.t_end / cfg.dt))
    u = np.array(u_bar, dtype=float).T
    chunks = [_averaged_chunk(p, cfg.dt, n_steps) for p in motors]
    traces: list[Trace] = [None] * len(motors)
    for spp in dict.fromkeys(chunks):
        idx = [j for j, c in enumerate(chunks) if c == spp]
        group = _record([motors[j] for j in idx], cfg.dt, n_steps, spp, np.zeros((2, len(idx))), u[:, idx],
                        np.zeros((2, len(idx))), lambda dt, k: (np.zeros(k + 1), np.zeros(k), np.zeros(k)))[0]
        for j, tr in zip(idx, _traces(*group)):
            traces[j] = tr
    return traces


def _shooting_step(phi: np.ndarray, r: np.ndarray, col_d: np.ndarray, col_q: np.ndarray) -> np.ndarray:
    """Newton step of each lane on the one-period residual r = P(phi) - phi,
    given the changes col_d, col_q of P over `_SHOOT_FD_STEP` along d and q.

    Where the Jacobian J = dP/dphi - I has an eigenvalue lam > 0, the lane sits
    on the unstable side of a fold of the energy, and Newton would lead back
    to the fold. There J is shifted by 2 lam, which flips that eigenvalue, so
    the step follows the flow P(phi) - phi at Newton's length. No step is
    longer than the larger of |phi| and |r|, which keeps a step next to a
    fold, where J is nearly singular, from leaving the model's range.
    """
    (j_dd, j_qd), (j_dq, j_qq) = col_d / _SHOOT_FD_STEP, col_q / _SHOOT_FD_STEP
    j_dd, j_qq = j_dd - 1.0, j_qq - 1.0
    half_trace = 0.5 * (j_dd + j_qq)
    lam = half_trace + np.sqrt(np.maximum(half_trace**2 - (j_dd * j_qq - j_dq * j_qd), 0.0))
    shift = 2.0 * np.maximum(lam, 0.0)
    a_dd, a_qq = shift - j_dd, shift - j_qq  # step = (shift I - J)^-1 r
    step = np.array([a_qq * r[0] + j_dq * r[1], j_qd * r[0] + a_dd * r[1]]) / (a_dd * a_qq - j_dq * j_qd)
    limit = np.maximum(np.hypot(*phi), np.hypot(*r))
    return step * (limit / np.maximum(np.hypot(*step), limit))


def simulate_periodic(p: MotorParams, specs: Sequence[InjectionSpec], *,
                      steps_per_period: int = 200) -> list[Trace]:
    """Noise-free locked-rotor traces of `MIN_WHOLE_PERIODS` injection periods
    on the periodic steady state of each run; the runs share waveform and
    pulsation. Every period of an orbit is the same up to its residual, so
    the fewest periods a ripple fit takes are all it needs.

    Each run starts at the flux phi0 that solves P(phi0) = phi0 for the
    one-period map P, found by Newton shooting (Aprille & Trick, Proc. IEEE
    1972) with all runs in one batch. The Jacobian comes from forward
    differences: the starts phi0, phi0 + h e_d and phi0 + h e_q of every run
    integrate one period side by side, and `_shooting_step` turns the three
    ends into each run's step. The warm start is
    the first-order inverse at the mean current i_bar = u_bar / R, shifted by
    the ripple flux u_tilde * F(0) / omega at t = 0.

    The Newton loop runs twice: first on the coarse period map of
    `_PARAREAL_COARSE_STEPS` steps, from the warm start, where such a step
    `_coarse_fits`; then on the fine map of steps_per_period steps, from
    the coarse fixed point, which is off the fine one by the coarse map's
    truncation error only, so one or two fine steps finish it. A run whose
    coarse Newton does not converge starts the fine one from its warm start,
    so a run comes out of a batch as it does alone. A run whose fine
    one-period residual still exceeds `_SHOOT_TOL` on an axis after
    `_SHOOT_MAX_ITER` steps raises NonConvergence naming its mean current.

    Both recorded periods start exactly where they start in one pass: phi0,
    and P(phi0) from the base lanes of the Newton sweep that confirmed
    convergence. `_record` integrates them side by side, in one fine sweep
    at twice the width, which is byte for byte the sequential record of a
    square wave.
    """
    if not specs:
        return []
    dt = specs[0].period / steps_per_period
    u_bar, u_tilde = _stacked_drive(specs, dt)
    n = len(specs)
    i_bar = u_bar / p.R
    phi = np.array([dataclasses.astuple(flux_from_currents_first_order(p, Currents(*i))) for i in i_bar.T]).T
    phi = phi + u_tilde * float(F_array(specs[0].waveform, 0.0)) / specs[0].omega

    lanes = _lanes([p] * (3 * n))
    waveform = functools.partial(_waveform_arrays, specs[0])
    offsets = np.zeros((2, 3 * n))
    offsets[0, n:2 * n] = offsets[1, 2 * n:] = _SHOOT_FD_STEP
    coarse_dt = specs[0].period / _PARAREAL_COARSE_STEPS
    maps = [(dt, steps_per_period)]
    if _coarse_fits(p, coarse_dt):
        maps.insert(0, (coarse_dt, _PARAREAL_COARSE_STEPS))
    with np.errstate(over="ignore", invalid="ignore"):  # a run that runs away is reported below
        for h, steps in maps:
            drive = (np.tile(u_bar, 3), np.tile(u_tilde, 3), *waveform(h, steps))
            start = phi
            for _ in range(_SHOOT_MAX_ITER):
                end = _rk4(*lanes, h, np.tile(phi, 3) + offsets, *drive)
                r = end[:, :n] - phi
                open_ = ~np.all(np.abs(r) <= _SHOOT_TOL, axis=0)  # NaN stays open
                if not open_.any():
                    break
                step = _shooting_step(phi, r, end[:, n:2 * n] - end[:, :n], end[:, 2 * n:] - end[:, :n])
                phi = phi + np.where(open_, step, 0.0)
            phi = np.where(open_, start, phi)  # an open run starts the next map where it started this one
    if open_.any():
        d, q = i_bar[:, np.argmax(open_)]
        raise NonConvergence(
            f"no periodic orbit within {_SHOOT_MAX_ITER} shooting steps for the run at "
            f"i_bar = ({d:.6g}, {q:.6g}) A, |i_bar| = {math.hypot(d, q):.6g} A")
    # the last Newton sweep's base lanes hold P(phi), the second period's start
    starts = np.stack((phi, end[:, :n]), axis=-1)  # MIN_WHOLE_PERIODS = 2 of them
    return _traces(*_record([p] * n, dt, MIN_WHOLE_PERIODS * steps_per_period, steps_per_period, starts,
                            u_bar, u_tilde, waveform)[0])
