"""Magnetic model of a saturated PMSM in the rotor d-q frame.

The magnetic state is the flux-linkage pair (phi_d, phi_q); currents derive
from a scalar coenergy-style potential whose quadratic part is the usual
unsaturated 1/(2L) form and whose cubic/quartic terms capture saturation and
cross-saturation. Five coefficients (a30, a12, a40, a22, a04, subscripts =
powers of phi_d and phi_q) parameterize the nonlinear part; mirror symmetry
about the d axis removes the odd-in-phi_q monomials.

The public functions take and return stacked (2, ...) arrays, a pair being
a (2,) or a (2, 1) array. Units are SI: Wb, A, H, ohm, V, rad/s.
"""

from __future__ import annotations

import dataclasses
import functools
import math

import numpy as np


class NumericalFailure(RuntimeError):
    """A failure the data cause, not the input's form: the CLI exits 2 on
    it, and on a ValueError or OSError, a refused input, it exits 1."""


class NonConvergence(NumericalFailure):
    """Newton inversion of the flux-current map failed to converge.

    Signals a current target outside the locally invertible region of the
    quartic model (the model is perturbative and not globally monotone).
    """


@dataclasses.dataclass(frozen=True)
class MotorParams:
    """Electrical and magnetic parameters of one motor.

    R       stator resistance [ohm]
    Ld, Lq  unsaturated self-inductances [henry]
    phi_m   permanent-magnet flux linkage [weber]
    n_pp    pole pairs
    a30,a12 cubic saturation coefficients [A/Wb^2]
    a40,a22,a04  quartic saturation coefficients [A/Wb^3]

    phi_m and n_pp are motor data that configs and reports carry; the
    locked-rotor dynamics do not read them.
    """

    R: float
    Ld: float
    Lq: float
    phi_m: float = 0.0
    n_pp: int = 1
    a30: float = 0.0
    a12: float = 0.0
    a40: float = 0.0
    a22: float = 0.0
    a04: float = 0.0

    def __post_init__(self) -> None:
        if not (self.R > 0 and math.isfinite(self.R)):
            raise ValueError(f"R must be positive, got {self.R}")
        if not (self.Ld > 0 and math.isfinite(self.Ld)):
            raise ValueError(f"Ld must be positive, got {self.Ld}")
        if not (self.Lq > 0 and math.isfinite(self.Lq)):
            raise ValueError(f"Lq must be positive, got {self.Lq}")
        if not math.isfinite(self.n_pp) or int(self.n_pp) != self.n_pp or self.n_pp < 1:
            raise ValueError(f"n_pp must be an integer >= 1, got {self.n_pp}")
        for name in ("phi_m", "a30", "a12", "a40", "a22", "a04"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")

    @functools.cached_property
    def _rows(self) -> np.ndarray:
        """`_current_coefficients` as one (5, 2, 1) lane of `_current_rows`;
        cached, because building it costs about one evaluation of the map."""
        return np.array(_current_coefficients(self.theta), dtype=float)[..., None]

    @functools.cached_property
    def theta(self) -> tuple[float, ...]:
        """The identified parameters theta = (1/Ld, 1/Lq, a30, a12, a40, a22,
        a04), in which the current map and its Hessian `_hessian` are linear."""
        return (1.0 / self.Ld, 1.0 / self.Lq, self.a30, self.a12, self.a40, self.a22, self.a04)

    def without_saturation(self) -> "MotorParams":
        """Same motor with all saturation coefficients zeroed."""
        return dataclasses.replace(self, a30=0.0, a12=0.0, a40=0.0, a22=0.0, a04=0.0)


def energy(p: MotorParams, X: np.ndarray) -> np.ndarray:
    """Magnetic potential H(phi_d, phi_q) at stacked fluxes X = (phi_d, phi_q),
    of shape X.shape[1:]; H(0,0) = 0.

    Quadratic part phi_d^2/(2 Ld) + phi_q^2/(2 Lq) plus the five saturation
    monomials. Only its gradient is physical. No code of the package calls
    it: it stays as the definition of the model that acceptance criterion 4
    checks the current map against.
    """
    fd, fq = X[0], X[1]
    fd2, fq2 = fd * fd, fq * fq
    quad = fd2 / (2.0 * p.Ld) + fq2 / (2.0 * p.Lq)
    return (quad + p.a30 * fd2 * fd + p.a12 * fd * fq2
            + p.a40 * fd2 * fd2 + p.a22 * fd2 * fq2 + p.a04 * fq2 * fq2)


def _current_coefficients(theta):
    """Coefficient rows (d, q) of the current map `_stacked_currents`: c0, c1,
    c2, c3 and e, in that order, for the parameters theta = `MotorParams.theta`.

    Linear in theta, so theta = np.eye(7) gives each coefficient as a row of
    7 regressor weights, and the map evaluated with them gives the current's
    regressor columns. e_q = 0 * (1/Ld) is a zero shaped like theta's
    entries, and +0.0 for any motor, whose 1/Ld is positive.
    """
    inv_ld, inv_lq, a30, a12, a40, a22, a04 = theta
    return ((inv_ld, inv_lq),
            (3.0 * a30, 2.0 * a12),
            (4.0 * a40, 2.0 * a22),
            (2.0 * a22, 4.0 * a04),
            (a12, 0.0 * inv_ld))


def _current_monomials(X):
    """The monomials z = (X, X fd, X fd^2, X fq^2, fq^2), (5, *X.shape), at
    stacked fluxes X = (phi_d, phi_q), that the rows c0, c1, c2, c3 and e of
    `_current_coefficients` multiply in `_stacked_currents`: the current on
    axis a is the sum over k of rows[k, a] * z[k, a]."""
    fd, fq2 = X[0], X[1] * X[1]
    return np.stack([X, X * fd, X * fd * fd, X * fq2, np.broadcast_to(fq2, X.shape)])


def _current_rows(motors) -> np.ndarray:
    """`MotorParams._rows` of each motor as a C-contiguous (5, 2, n) array: the
    five coefficient rows of a batch of n lanes, lane j holding motors[j].
    Contiguous because a strided operand costs a numpy call about twice."""
    return np.concatenate([p._rows for p in motors], axis=-1)


def _stacked_currents(rows, X, out=None, fq2=None, tmp=None):
    """The current map: stacked currents (i_d, i_q), the gradient of `energy`,
    at stacked fluxes X = (phi_d, phi_q), for rows `_current_rows` shaped to
    broadcast against X; one pair is a (2, 1) batch. With e_q = 0, i_d is
    even and i_q odd in phi_q, exactly. Its ten ufunc calls keep the order of
    X * (c0 + fd * (c1 + c2 * fd) + c3 * fq2) + e * fq2, each into its buffer
    out (the result), fq2 or tmp where given, so no buffer moves a bit."""
    c0, c1, c2, c3, e = rows
    mul, add = np.multiply, np.add
    fd, fq2 = X[0], mul(X[1], X[1], fq2)
    out = mul(c2, fd, out)
    add(c1, out, out)
    mul(fd, out, out)
    add(c0, out, out)
    tmp = mul(c3, fq2, tmp)
    add(out, tmp, out)
    mul(X, out, out)
    mul(e, fq2, tmp)
    return add(out, tmp, out)


def _to_rank(lane, X):
    """One motor's (..., 2, 1) lane, shaped to broadcast against X of any rank."""
    return lane.reshape(lane.shape[:-1] + (1,) * (np.ndim(X) - 1))


def currents_from_flux(p: MotorParams, X: np.ndarray) -> np.ndarray:
    """The current map `_stacked_currents` of motor p at stacked fluxes
    X = (phi_d, phi_q) of shape (2, ...); a pair is a (2,) or a (2, 1) array."""
    return _stacked_currents(_to_rank(p._rows, X), X)


def _hessian(theta, fd, fq):
    """Second derivatives (H_dd, H_dq, H_qq) of `energy` at (fd, fq), for the
    parameters theta = `MotorParams.theta`; scalars or broadcasting arrays.

    Linear in theta, so theta = np.eye(7) with fd, fq of shape (n, 1) gives
    each entry as (n, 7) regressor rows. H_dq == H_qd exactly; this
    inverse-inductance matrix drives the Newton inversion, the ripple
    prediction and every regression. Its inverse is the differential
    inductance matrix.
    """
    inv_ld, inv_lq, a30, a12, a40, a22, a04 = theta
    h_dd = inv_ld + 6.0 * a30 * fd + 12.0 * a40 * fd * fd + 2.0 * a22 * fq * fq
    h_dq = 2.0 * a12 * fq + 4.0 * a22 * fd * fq
    h_qq = inv_lq + 2.0 * a12 * fd + 2.0 * a22 * fd * fd + 12.0 * a04 * fq * fq
    return h_dd, h_dq, h_qq


def flux_from_currents_first_order(p: MotorParams, I: np.ndarray) -> np.ndarray:
    """Explicit flux-from-current inversion at stacked currents I = (i_d, i_q)
    of shape (2, ...), first order in the saturation coefficients:
    phi = L (i - g(L i)) = L (2 i - i(L i)), with g the saturation part of
    the current map (the O(|a|^2) remainder is dropped)."""
    L = _to_rank(np.array([[p.Ld], [p.Lq]]), I)
    return L * (2.0 * I - currents_from_flux(p, L * I))


_NEWTON_MAX_ITER = 50
_NEWTON_MAX_HALVINGS = 40
_TARGET = "for target (i_d, i_q) = ({2:.6g}, {3:.6g}) A"
# An element's fault code indexes what it raises alone, the text formatted
# with its flux and its target; code 0 is no fault.
_SEED, _SINGULAR, _STALLED, _NO_CONVERGENCE = 1, 2, 3, 4
_FAULTS = (None, "flux linkage must be finite",
           "singular Jacobian at ({0:.6g}, {1:.6g}) " + _TARGET,
           "line search stalled at ({0:.6g}, {1:.6g}) " + _TARGET,
           f"no convergence within {_NEWTON_MAX_ITER} iterations " + _TARGET)


# an element that overflows fails as it does alone; a value an inactive element computes is never kept
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def flux_from_currents_exact(p: MotorParams, I: np.ndarray, tol: float = 1e-12,
                             seed: np.ndarray | None = None) -> np.ndarray:
    """Numerically exact flux-from-current inversion at stacked current
    targets I = (i_d, i_q) of shape (2, ...), seeded at the stacked fluxes
    `seed` of the same shape, or at the first-order inversion.

    Damped Newton on the current map: a Newton step on the
    inverse-inductance matrix `_hessian`, then a line search that halves
    the step while the current residual grows. Convergence means both
    current components match the target within `tol` amperes.

    Every element runs the iteration on its own, with the same float
    operations, so each result is bit for bit what that element gives alone
    as a (2,) pair. The whole (2, n) flux state iterates under one mask of
    the elements still active: each Newton step and each line-search trial
    is taken on every element, and only the active ones that it improves
    keep it. An element that converges is no longer active. One that fails
    gets a fault code and is frozen at the flux where it failed, and so is
    every element past it (in C order), which can no longer be the one
    reported. Once none is active, the lowest fault raises what that
    element raises alone: NonConvergence for a singular Jacobian, a stalled
    line search or no convergence within `_NEWTON_MAX_ITER` steps (in
    practice a target outside the locally invertible region of the quartic
    model), ValueError for a first-order seed that is not finite.
    Non-finite targets raise ValueError before any iteration.
    """
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    if not np.all(np.isfinite(I)):
        raise ValueError("currents must be finite")
    targets = np.reshape(I, (2, -1))
    X = np.array(seed if seed is not None else flux_from_currents_first_order(p, targets), dtype=float).reshape(2, -1)
    fault = np.zeros(targets.shape[1], dtype=np.int8)
    if seed is None:
        fault[~np.all(np.isfinite(X), axis=0)] = _SEED
    R = _stacked_currents(p._rows, X) - targets
    for iteration in range(_NEWTON_MAX_ITER + 1):
        # open elements before the lowest fault, which is the one raised
        active = ~np.all(np.abs(R) <= tol, axis=0) & ~np.logical_or.accumulate(fault != 0)
        if iteration == _NEWTON_MAX_ITER or not active.any():
            fault[active] = _NO_CONVERGENCE  # none is active unless the iterations ran out
            break
        h_dd, h_dq, h_qq = _hessian(p.theta, *X)
        det = h_dd * h_qq - h_dq * h_dq
        singular = active & ((det == 0.0) | ~np.isfinite(det))
        fault[singular] = _SINGULAR
        rd, rq = R
        step = -np.array((h_qq * rd - h_dq * rq, h_dd * rq - h_dq * rd)) / det
        norm0 = rd * rd + rq * rq
        # every element still searching has halved its own step as often as the others
        lam, searching = 1.0, active & ~singular
        for _ in range(_NEWTON_MAX_HALVINGS):
            trial = X + lam * step
            R_trial = _stacked_currents(p._rows, trial) - targets
            better = searching & (R_trial[0] * R_trial[0] + R_trial[1] * R_trial[1] < norm0)
            X, R = np.where(better, trial, X), np.where(better, R_trial, R)
            searching &= ~better
            if not searching.any():
                break
            lam *= 0.5
        fault[searching] = _STALLED
    if fault.any():
        j = np.argmax(fault != 0)  # the lowest fault
        text = _FAULTS[fault[j]]
        raise ValueError(text) if fault[j] == _SEED else NonConvergence(text.format(*X[:, j], *targets[:, j]))
    return X.reshape(np.shape(I))
