"""Independent reference computations used to generate expected test values.

Everything here deliberately avoids the library's own code paths: energies
and currents are summed monomial-by-monomial from explicit term lists, the
flux inversion uses nested bisection instead of Newton, integrals use
aligned midpoint sums, and report files are read line by line without the
library's parser. Keep it that way; these are the oracles the library is
checked against.
"""

from __future__ import annotations

import math
from pathlib import Path


def energy_terms(Ld, Lq, a30, a12, a40, a22, a04):
    """Monomial list (coef, power of phi_d, power of phi_q) of the potential."""
    return [
        (1.0 / (2.0 * Ld), 2, 0),
        (1.0 / (2.0 * Lq), 0, 2),
        (a30, 3, 0),
        (a12, 1, 2),
        (a40, 4, 0),
        (a22, 2, 2),
        (a04, 0, 4),
    ]


def eval_terms(terms, x, y):
    return math.fsum(c * x**m * y**n for c, m, n in terms)


def energy_oracle(p, fd, fq):
    terms = energy_terms(p.Ld, p.Lq, p.a30, p.a12, p.a40, p.a22, p.a04)
    return eval_terms(terms, fd, fq)


def currents_oracle(p, fd, fq):
    """Term-by-term gradient of the potential."""
    id_terms = [
        (1.0 / p.Ld, 1, 0),
        (3.0 * p.a30, 2, 0),
        (p.a12, 0, 2),
        (4.0 * p.a40, 3, 0),
        (2.0 * p.a22, 1, 2),
    ]
    iq_terms = [
        (1.0 / p.Lq, 0, 1),
        (2.0 * p.a12, 1, 1),
        (2.0 * p.a22, 2, 1),
        (4.0 * p.a04, 0, 3),
    ]
    return eval_terms(id_terms, fd, fq), eval_terms(iq_terms, fd, fq)


def first_order_flux_oracle(p, i_d, i_q):
    """Term-by-term first-order inversion in current coordinates."""
    Ld, Lq = p.Ld, p.Lq
    phid_terms = [
        (Ld, 1, 0),
        (-3.0 * p.a30 * Ld**3, 2, 0),
        (-p.a12 * Ld * Lq**2, 0, 2),
        (-4.0 * p.a40 * Ld**4, 3, 0),
        (-2.0 * p.a22 * Ld**2 * Lq**2, 1, 2),
    ]
    phiq_terms = [
        (Lq, 0, 1),
        (-2.0 * p.a12 * Ld * Lq**2, 1, 1),
        (-2.0 * p.a22 * Ld**2 * Lq**2, 2, 1),
        (-4.0 * p.a04 * Lq**4, 0, 3),
    ]
    return eval_terms(phid_terms, i_d, i_q), eval_terms(phiq_terms, i_d, i_q)


def _bisect(fun, lo, hi, tol=1e-15, max_iter=200):
    flo, fhi = fun(lo), fun(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0:
        raise ValueError(f"no sign change on [{lo}, {hi}]: f={flo:.3g},{fhi:.3g}")
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        fmid = fun(mid)
        if fmid == 0.0 or hi - lo < tol:
            return mid
        if flo * fmid < 0:
            hi = mid
        else:
            lo, flo = mid, fmid
    return 0.5 * (lo + hi)


def invert_flux_bisection(p, i_d_target, i_q_target, bracket=1.5):
    """Flux solving the magnetization curves for a current target.

    Nested bisection: for each phi_d, the q equation is solved for phi_q
    (monotone for the motors used in tests), then the d residual is bisected.
    Self-checks the residual before returning.
    """

    def phi_q_of(fd):
        def res_q(fq):
            return currents_oracle(p, fd, fq)[1] - i_q_target

        return _bisect(res_q, -bracket, bracket)

    def res_d(fd):
        return currents_oracle(p, fd, phi_q_of(fd))[0] - i_d_target

    fd = _bisect(res_d, -bracket, bracket)
    fq = phi_q_of(fd)
    rid, riq = currents_oracle(p, fd, fq)
    assert abs(rid - i_d_target) < 1e-9 and abs(riq - i_q_target) < 1e-9
    return fd, fq


def midpoint_integral(fun, lo, hi, n):
    """Midpoint rule; exact for piecewise-linear integrands whose kinks land
    on cell boundaries, which is how the waveform tests use it."""
    h = (hi - lo) / n
    return h * math.fsum(fun(lo + (k + 0.5) * h) for k in range(n))


def rl_step_current(V, R, L, t):
    """Analytic d-axis current of the linear motor under a constant voltage."""
    return (V / R) * (1.0 - math.exp(-R * t / L))


def default_discard(p, spec):
    """Transient discard: seven electrical time constants, rounded up to
    whole injection periods."""
    t_settle = 7.0 * max(p.Ld, p.Lq) / p.R
    return math.ceil(t_settle / spec.period - 1e-9) * spec.period


def analytic_pipeline_oracle(p, id_grid, iq_grid):
    """Infinite-pulsation limit of the whole identification loop.

    The measured ripple slope of a run equals the potential's second
    derivative at the *exact* steady flux of its bias point (bisection
    inversion); the estimation split then runs its first-order regressions on
    those slopes. This is the fixed point the simulation-based pipeline should
    approach as omega grows; it differs from the true coefficients at second
    order in the saturation strength.
    """
    import numpy as np

    Ld_h, Lq_h = p.Ld, p.Lq  # zero-bias slopes are exactly 1/Ld, 1/Lq
    id_grid = np.asarray(id_grid, dtype=float)
    iq_grid = np.asarray(iq_grid, dtype=float)

    y_d = []
    for ib in id_grid:
        fd, fq = invert_flux_bisection(p, float(ib), 0.0)
        y_d.append(hessian_fd_oracle(p, fd, fq)[0])
    X = np.column_stack([6.0 * Ld_h * id_grid, 12.0 * Ld_h**2 * id_grid**2])
    a30_h, a40_h = np.linalg.lstsq(X, np.array(y_d) - 1.0 / Ld_h, rcond=None)[0]

    h_dd, h_dq, h_qq = [], [], []
    for ib in iq_grid:
        fd, fq = invert_flux_bisection(p, 0.0, float(ib))
        h = hessian_fd_oracle(p, fd, fq)
        h_dd.append(h[0])
        h_dq.append(h[1])
        h_qq.append(h[2])
    X22 = (2.0 * Lq_h**2 * iq_grid**2)[:, None]
    a22_h = np.linalg.lstsq(X22, np.array(h_dd) - 1.0 / Ld_h, rcond=None)[0][0]
    X12 = np.concatenate([2.0 * Lq_h * iq_grid, 2.0 * Lq_h * iq_grid])[:, None]
    a12_h = np.linalg.lstsq(X12, np.concatenate([h_dq, h_dq]), rcond=None)[0][0]
    X04 = (12.0 * Lq_h**2 * iq_grid**2)[:, None]
    a04_h = np.linalg.lstsq(X04, np.array(h_qq) - 1.0 / Lq_h, rcond=None)[0][0]
    return {
        "Ld": Ld_h, "Lq": Lq_h,
        "a30": float(a30_h), "a40": float(a40_h),
        "a22": float(a22_h), "a12": float(a12_h), "a04": float(a04_h),
    }


def hessian_fd_oracle(p, fd, fq, h=1e-7):
    """Second derivatives of the potential by central differences of the
    term-list currents."""
    h_dd = (currents_oracle(p, fd + h, fq)[0] - currents_oracle(p, fd - h, fq)[0]) / (2 * h)
    h_dq = (currents_oracle(p, fd, fq + h)[0] - currents_oracle(p, fd, fq - h)[0]) / (2 * h)
    h_qq = (currents_oracle(p, fd, fq + h)[1] - currents_oracle(p, fd, fq - h)[1]) / (2 * h)
    return h_dd, h_dq, h_qq


def ripple_amplitudes_oracle(p, u_bar_d, u_bar_q, u_tilde_d, u_tilde_q, omega):
    """First-order ripple amplitude prediction, built independently: the
    potential's Hessian (by finite differences) at the first-order flux of
    the bias currents, applied to the ripple voltage over omega."""
    i_bar_d, i_bar_q = u_bar_d / p.R, u_bar_q / p.R
    # the first-order closed forms evaluate the Hessian at the linear flux
    # point (Ld*i_bar_d, Lq*i_bar_q); matching that makes this oracle agree
    # with them monomial for monomial
    fd, fq = p.Ld * i_bar_d, p.Lq * i_bar_q
    h_dd, h_dq, h_qq = hessian_fd_oracle(p, fd, fq)
    i_tilde_d = (h_dd * u_tilde_d + h_dq * u_tilde_q) / omega
    i_tilde_q = (h_dq * u_tilde_d + h_qq * u_tilde_q) / omega
    return i_tilde_d, i_tilde_q


def read_report(path) -> dict[str, dict[str, float]]:
    """The values of a report file as {section: {key: value}}."""
    out: dict[str, dict[str, float]] = {}
    section: dict[str, float] = {}
    for line in Path(path).read_text().splitlines():
        line = line.split("#", 1)[0].strip()
        if line.startswith("["):
            section = out.setdefault(line[1:-1], {})
        elif line:
            key, value = line.split("=")
            section[key.strip()] = float(value)
    return out


def in_memory(traces):
    """The `identify` load of traces already in memory, one per run."""
    return lambda lo, hi: traces[lo:hi]
