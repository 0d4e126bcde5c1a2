import math
from pathlib import Path

import numpy as np
import pytest

from satpmsm.config import load_config
from satpmsm.magnetics import (
    MotorParams,
    NonConvergence,
    currents_from_flux,
    energy,
    flux_from_currents_exact,
    flux_from_currents_first_order,
    _NEWTON_MAX_HALVINGS,
    _NEWTON_MAX_ITER,
    _current_coefficients,
    _current_monomials,
    _current_rows,
    _hessian,
    _stacked_currents,
)
from satpmsm.ripple import rebuild_flux
from satpmsm.validation import flux_by_integration, magnetization_curves, step_response

import oracles


def random_motors(n, seed=0):
    """Motors with saturation coefficients spanning the experimentally
    reported range (both fixtures sit inside it)."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        out.append(MotorParams(
            R=float(rng.uniform(1.0, 20.0)),
            Ld=float(rng.uniform(0.02, 0.2)),
            Lq=float(rng.uniform(0.02, 0.2)),
            phi_m=float(rng.uniform(0.0, 0.3)),
            n_pp=int(rng.integers(1, 8)),
            a30=float(rng.uniform(-8.0, 8.0)),
            a12=float(rng.uniform(-6.0, 6.0)),
            a40=float(rng.uniform(0.5, 20.0)),
            a22=float(rng.uniform(0.5, 25.0)),
            a04=float(rng.uniform(0.5, 7.0)),
        ))
    return out


class TestTypes:
    def test_motor_params_validation(self):
        with pytest.raises(ValueError):
            MotorParams(R=-1.0, Ld=0.1, Lq=0.1)
        with pytest.raises(ValueError):
            MotorParams(R=1.0, Ld=0.0, Lq=0.1)
        with pytest.raises(ValueError, match=r"^Lq must be positive, got -0.1$"):
            MotorParams(R=1.0, Ld=0.1, Lq=-0.1)
        with pytest.raises(ValueError):
            MotorParams(R=1.0, Ld=0.1, Lq=0.1, n_pp=0)
        with pytest.raises(ValueError):
            MotorParams(R=1.0, Ld=0.1, Lq=0.1, a30=float("nan"))

    @pytest.mark.parametrize("n_pp", [math.inf, math.nan])
    def test_pole_pairs_must_be_finite(self, n_pp):
        # checked before the integer test, which inf and nan cannot take
        with pytest.raises(ValueError, match=rf"^n_pp must be an integer >= 1, got {n_pp}$"):
            MotorParams(R=1.0, Ld=0.1, Lq=0.1, n_pp=n_pp)

    def test_without_saturation(self, ipm):
        lin = ipm.without_saturation()
        assert (lin.a30, lin.a12, lin.a40, lin.a22, lin.a04) == (0, 0, 0, 0, 0)
        assert lin.Ld == ipm.Ld and lin.R == ipm.R


class TestEnergy:
    def test_zero_flux_zero_energy(self, ipm):
        assert energy(ipm, np.zeros(2)) == 0.0

    def test_pure_quadratic(self):
        p = MotorParams(R=1.0, Ld=0.1, Lq=0.05)
        assert energy(p, np.array([0.2, 0.1])) == pytest.approx(0.3, rel=1e-14)

    def test_ipm_point_vs_term_oracle(self, ipm):
        got = energy(ipm, np.array([0.1, 0.05]))
        want = oracles.energy_oracle(ipm, 0.1, 0.05)
        assert got == pytest.approx(want, rel=1e-14)

    def test_mirror_symmetry_exact(self):
        rng = np.random.default_rng(1)
        for p in random_motors(20, seed=2):
            fd, fq = rng.uniform(-0.5, 0.5, size=2)
            assert energy(p, np.array([fd, -fq])) == energy(p, np.array([fd, fq]))


class TestCurrentsFromFlux:
    def test_zero_flux(self, ipm):
        assert currents_from_flux(ipm, np.zeros(2)).tolist() == [0.0, 0.0]

    def test_linear_motor(self):
        p = MotorParams(R=1.0, Ld=0.1, Lq=0.05)
        i_d, i_q = currents_from_flux(p, np.array([0.1, 0.0]))
        assert i_d == pytest.approx(1.0, rel=1e-14)
        assert i_q == 0.0

    def test_ipm_point_vs_term_oracle(self, ipm):
        i_d, i_q = currents_from_flux(ipm, np.array([0.1, 0.05]))
        want_d, want_q = oracles.currents_oracle(ipm, 0.1, 0.05)
        assert i_d == pytest.approx(want_d, rel=1e-14)
        assert i_q == pytest.approx(want_q, rel=1e-14)
        # the motor's map and the stacked (2, n) form the simulator
        # integrates, one lane per flux, element by element
        rng = np.random.default_rng(9)
        X = rng.uniform(-0.3, 0.3, size=(2, 200))
        stacked = _stacked_currents(_current_rows([ipm] * X.shape[1]), X)
        c = currents_from_flux(ipm, X)
        assert c.tobytes() == stacked.tobytes()
        for k in range(X.shape[1]):
            want_d, want_q = oracles.currents_oracle(ipm, X[0, k], X[1, k])
            assert c[0, k] == pytest.approx(want_d, rel=1e-14)
            assert c[1, k] == pytest.approx(want_q, rel=1e-14)

    @pytest.mark.parametrize("lanes", [(7,), (7, 3)])
    @pytest.mark.parametrize("name", ["ipm", "spm"])
    def test_buffers_are_workspace(self, name, lanes, request):
        # into the buffers out, fq2 and tmp, as the RK4 kernel calls it, the
        # map returns out itself with the bits of the allocating call and of
        # the plain expression, and leaves X as it was: NaN-filled buffers,
        # a -0.0 start and a lane that overflows to inf included
        p = request.getfixturevalue(name)
        rows = _current_rows([p] * math.prod(lanes)).reshape(5, 2, *lanes)
        X = np.random.default_rng(17).uniform(-0.3, 0.3, size=(2, *lanes))
        X[:, 0] = -0.0
        X[0, 1], X[1, 1] = 1e120, -1e120
        given = X.tobytes()
        out, fq2, tmp = np.full_like(X, np.nan), np.full(lanes, np.nan), np.full_like(X, np.nan)
        with np.errstate(over="ignore", invalid="ignore"):
            c0, c1, c2, c3, e = rows
            plain = X * (c0 + X[0] * (c1 + c2 * X[0]) + c3 * (X[1] * X[1])) + e * (X[1] * X[1])
            want = _stacked_currents(rows, X)
            got = _stacked_currents(rows, X, out, fq2, tmp)
        assert got is out
        assert got.tobytes() == want.tobytes() == plain.tobytes()
        assert X.tobytes() == given
        assert np.isposinf(got[0, 1]).all() and np.isneginf(got[1, 1]).all()

    def test_gradient_of_energy(self):
        # central finite differences of the potential, relative 1e-6
        rng = np.random.default_rng(3)
        for p in random_motors(25, seed=4):
            fd, fq = rng.uniform(-0.4, 0.4, size=2)
            i_d, i_q = currents_from_flux(p, np.array([fd, fq]))
            h = 1e-6
            fd_id = (energy(p, np.array([fd + h, fq])) - energy(p, np.array([fd - h, fq]))) / (2 * h)
            fd_iq = (energy(p, np.array([fd, fq + h])) - energy(p, np.array([fd, fq - h]))) / (2 * h)
            scale = max(abs(i_d), abs(i_q), 1e-3)
            assert abs(i_d - fd_id) <= 1e-6 * scale
            assert abs(i_q - fd_iq) <= 1e-6 * scale

    @pytest.mark.parametrize("name", ["ipm", "spm"])
    def test_pair_is_one_lane_of_the_batch(self, name, request):
        # each public function on a (2, 50) batch is its (2,) and (2, 1)
        # calls, lane by lane, bit for bit; the exact inversion at currents
        # inside the SPM fold, the first-order one at ten times them
        p = request.getfixturevalue(name)
        X = np.random.default_rng(13).uniform(-0.3, 0.3, size=(2, 50))
        calls = [(energy, X), (currents_from_flux, X),
                 (flux_from_currents_first_order, X * 10.0), (flux_from_currents_exact, X)]
        for fn, batch in calls:
            out = fn(p, batch)
            assert out.shape == batch.shape[fn is energy:]
            for k in range(batch.shape[1]):
                lane = out[..., k].tobytes()
                assert fn(p, batch[:, k]).tobytes() == lane, (fn.__name__, k)
                assert fn(p, batch[:, k:k + 1]).tobytes() == lane, (fn.__name__, k)

    def test_rows_of_a_mixed_batch(self, ipm):
        # each lane of the step responses' [p, p.without_saturation()] holds
        # its own motor's coefficients
        rows = _current_rows([ipm, ipm.without_saturation()])
        assert rows.shape == (5, 2, 2) and rows.flags.c_contiguous
        for j, p in enumerate([ipm, ipm.without_saturation()]):
            assert rows[..., j].tolist() == [list(row) for row in _current_coefficients(p.theta)]

    def test_monomials_expand_the_current_map(self):
        # the coefficient rows times their monomials are the Horner-form
        # current map to rounding, at one-hot and at random theta: fluxes of
        # both signs, exact zeros of both signs and values whose products
        # underflow, where each coefficient times a subnormal product is off
        # by its own subnormal steps; e_q multiplies nothing, so i_q is odd
        # in phi_q
        values = [0.0, -0.0, 5e-324, -5e-324, 1e-200, -1e-200, 0.37, -0.37, 1.9, -2.3]
        fd, fq = np.meshgrid(values, values)
        rng = np.random.default_rng(4)
        phi = np.concatenate([np.stack([fd.ravel(), fq.ravel()]), rng.normal(scale=0.5, size=(2, 200))], axis=1)
        z = _current_monomials(phi)
        assert z.shape == (5, *phi.shape)
        thetas = [*np.eye(7), *rng.normal(scale=(10.0, 20.0, 8.0, 6.0, 20.0, 25.0, 7.0), size=(20, 7))]
        eps, step = np.finfo(float).eps, np.finfo(float).smallest_subnormal
        for theta in thetas:
            rows = np.array(_current_coefficients(theta))
            terms = rows[..., None] * z
            want = _stacked_currents(rows[..., None], phi)
            tol = eps * np.abs(terms).sum(axis=0) + step * np.abs(rows).sum(axis=0)[:, None] * (1.0 + np.abs(phi[0]))
            assert np.all(np.abs(terms.sum(axis=0) - want) <= 4.0 * tol), theta
            assert rows[4, 1] == 0.0

    def test_mirror_maps_currents(self):
        rng = np.random.default_rng(5)
        for p in random_motors(10, seed=6):
            fd, fq = rng.uniform(-0.4, 0.4, size=2)
            c = currents_from_flux(p, np.array([fd, fq]))
            m = currents_from_flux(p, np.array([fd, -fq]))
            assert m[0] == c[0] and m[1] == -c[1]

    def test_jacobian_symmetric(self):
        # numerical d(i)/d(phi) must be symmetric (currents are a gradient)
        rng = np.random.default_rng(7)
        for p in random_motors(15, seed=8):
            fd, fq = rng.uniform(-0.4, 0.4, size=2)
            h = 1e-7
            didq_dfd = (currents_from_flux(p, np.array([fd + h, fq]))[1]
                        - currents_from_flux(p, np.array([fd - h, fq]))[1]) / (2 * h)
            did_dfq = (currents_from_flux(p, np.array([fd, fq + h]))[0]
                       - currents_from_flux(p, np.array([fd, fq - h]))[0]) / (2 * h)
            scale = max(abs(didq_dfd), abs(did_dfq), 1.0)
            assert abs(didq_dfd - did_dfq) <= 1e-6 * scale


class TestFirstOrderInversion:
    def test_linear_motor_exact(self):
        p = MotorParams(R=1.0, Ld=0.1, Lq=0.05)
        phi_d, phi_q = flux_from_currents_first_order(p, np.array([2.0, -1.0]))
        assert phi_d == pytest.approx(0.2, rel=1e-14)
        assert phi_q == pytest.approx(-0.05, rel=1e-14)

    def test_zero(self, ipm):
        assert flux_from_currents_first_order(ipm, np.zeros(2)).tolist() == [0.0, 0.0]

    def test_ipm_point_vs_term_oracle(self, ipm):
        phi_d, phi_q = flux_from_currents_first_order(ipm, np.ones(2))
        want_d, want_q = oracles.first_order_flux_oracle(ipm, 1.0, 1.0)
        assert phi_d == pytest.approx(want_d, rel=1e-14)
        assert phi_q == pytest.approx(want_q, rel=1e-14)

    def test_second_order_accuracy(self, ipm):
        # scaling all coefficients by eps, the gap to the exact inversion
        # shrinks by ~4x per halving of eps
        grid = np.array(np.meshgrid(np.linspace(-0.3, 0.3, 5), np.linspace(-0.3, 0.3, 5)))

        def max_gap(eps):
            import dataclasses
            pk = dataclasses.replace(
                ipm, a30=ipm.a30 * eps, a12=ipm.a12 * eps,
                a40=ipm.a40 * eps, a22=ipm.a22 * eps, a04=ipm.a04 * eps)
            exact = flux_from_currents_exact(pk, grid, tol=1e-13)
            return np.abs(exact - flux_from_currents_first_order(pk, grid)).max()

        gaps = [max_gap(eps) for eps in (1.0, 0.5, 0.25)]
        assert 3.5 <= gaps[0] / gaps[1] <= 4.5
        assert 3.5 <= gaps[1] / gaps[2] <= 4.5


class TestExactInversion:
    def test_linear_motor(self):
        p = MotorParams(R=1.0, Ld=0.1, Lq=0.05)
        phi_d, phi_q = flux_from_currents_exact(p, np.array([3.0, -2.0]))
        assert phi_d == pytest.approx(0.3, abs=1e-12)
        assert phi_q == pytest.approx(-0.1, abs=1e-12)

    def test_round_trip(self, ipm):
        f0 = np.array([0.08, 0.03])
        phi_d, phi_q = flux_from_currents_exact(ipm, currents_from_flux(ipm, f0))
        assert phi_d == pytest.approx(f0[0], abs=1e-10)
        assert phi_q == pytest.approx(f0[1], abs=1e-10)

    def test_ipm_point_vs_bisection_oracle(self, ipm):
        want_d, want_q = oracles.invert_flux_bisection(ipm, 2.0, 2.0)
        phi_d, phi_q = flux_from_currents_exact(ipm, np.array([2.0, 2.0]), tol=1e-10)
        assert phi_d == pytest.approx(want_d, abs=1e-9)
        assert phi_q == pytest.approx(want_q, abs=1e-9)

    def test_round_trip_on_grid(self, ipm, spm):
        for p, span in ((ipm, 2.0), (spm, 0.5)):
            targets = np.array(np.meshgrid(np.linspace(-span, span, 7), np.linspace(-span, span, 7)))
            back = currents_from_flux(p, flux_from_currents_exact(p, targets, tol=1e-11))
            assert np.all(np.abs(back - targets) <= 1e-11)

    def test_non_invertible_point_raises(self, spm):
        # the surface-mount model loses d-axis monotonicity for strongly
        # negative phi_d; far negative current targets there have no nearby
        # solution branch reachable from the first-order seed region
        with pytest.raises(NonConvergence):
            # make the model non-invertible in a controlled way: strong
            # negative cubic coefficient creates a fold right next to 0
            bad = MotorParams(R=1.0, Ld=0.1, Lq=0.1, a30=-60.0, a40=1.0)
            flux_from_currents_exact(bad, np.array([1.8, 0.0]))

    def test_tol_validation(self, ipm):
        with pytest.raises(ValueError):
            flux_from_currents_exact(ipm, np.array([0.1, 0.1]), tol=0.0)


def float_currents(p, fd, fq):
    """The library's current map at one flux pair of Python floats, as two
    floats that may overflow, as a Newton iterate's residual may."""
    with np.errstate(over="ignore", invalid="ignore"):
        c_d, c_q = currents_from_flux(p, np.array([fd, fq])).tolist()
    return c_d, c_q


def scalar_newton(p, i_d, i_q, fd, fq, tol):
    """Reference: the damped Newton of one target (i_d, i_q) from the seed
    (fd, fq), written as a loop over Python floats on the library's current
    map and Hessian."""
    target = f"for target (i_d, i_q) = ({i_d:.6g}, {i_q:.6g}) A"

    def residual(fd, fq):
        c_d, c_q = float_currents(p, fd, fq)
        return c_d - i_d, c_q - i_q

    rd, rq = residual(fd, fq)
    for _ in range(_NEWTON_MAX_ITER):
        if abs(rd) <= tol and abs(rq) <= tol:
            return fd, fq
        h_dd, h_dq, h_qq = _hessian(p.theta, fd, fq)
        det = h_dd * h_qq - h_dq * h_dq
        if det == 0.0 or not math.isfinite(det):
            raise NonConvergence(f"singular Jacobian at ({fd:.6g}, {fq:.6g}) {target}")
        step_d = -(h_qq * rd - h_dq * rq) / det
        step_q = -(h_dd * rq - h_dq * rd) / det
        norm0 = rd * rd + rq * rq
        lam = 1.0
        for _ in range(_NEWTON_MAX_HALVINGS):
            nd, nq = fd + lam * step_d, fq + lam * step_q
            rd_n, rq_n = residual(nd, nq)
            if rd_n * rd_n + rq_n * rq_n < norm0:
                fd, fq, rd, rq = nd, nq, rd_n, rq_n
                break
            lam *= 0.5
        else:
            raise NonConvergence(f"line search stalled at ({fd:.6g}, {fq:.6g}) {target}")
    if abs(rd) <= tol and abs(rq) <= tol:
        return fd, fq
    raise NonConvergence(f"no convergence within {_NEWTON_MAX_ITER} iterations {target}")


def scalar_exact(p, i_d, i_q, tol=1e-12):
    """Reference `flux_from_currents_exact` at one target: `scalar_newton`
    from the first-order seed, or the exception it raises."""
    with np.errstate(over="ignore", invalid="ignore"):
        seed = flux_from_currents_first_order(p, np.array([i_d, i_q]))
    if not np.all(np.isfinite(seed)):
        return ValueError("flux linkage must be finite")
    try:
        return scalar_newton(p, float(i_d), float(i_q), *seed.tolist(), tol)
    except NonConvergence as exc:
        return exc


def outcome(call):
    """What call() returns, or the ValueError or NonConvergence it raises."""
    try:
        return call()
    except (ValueError, NonConvergence) as exc:
        return exc


def fixture_config(name):
    return load_config(Path(__file__).resolve().parents[1] / "configs" / f"{name}.cfg")


class TestArrayNewton:
    """`flux_from_currents_exact` runs the scalar damped Newton per element
    on arrays: every result is bit for bit the scalar one, and a failure
    raises what the scalar loop over the same targets raises."""

    @pytest.mark.parametrize("name", ["ipm", "spm"])
    def test_step_response_samples_bitwise(self, name):
        # every sample of both fixtures' validate steps, seeded at its
        # integrated flux, as `flux_by_integration` does
        config = fixture_config(name)
        p = config.motor
        for r in step_response(p, config.step_volts, config.step_t_end):
            tr = r.saturated
            model = flux_by_integration(tr, p).phi_d_model
            seeds = rebuild_flux(tr, p.R, False)
            want = [scalar_newton(p, float(a), float(b), float(fd), float(fq), 1e-10)[0]
                    for a, b, fd, fq in zip(tr.i[0], tr.i[1], *seeds)]
            assert model.tobytes() == np.array(want).tobytes()

    def test_curves_grid_bitwise(self):
        config = fixture_config("ipm")
        r = magnetization_curves(config.motor, config.curve_grid, config.curve_levels)
        for row, lv in enumerate(config.curve_levels):
            for col, x in enumerate(config.curve_grid):
                want_d, want_q = scalar_exact(config.motor, x, lv)[0], scalar_exact(config.motor, lv, x)[1]
                assert r.phi_d[row, col].tobytes() == np.float64(want_d).tobytes()
                assert r.phi_q[row, col].tobytes() == np.float64(want_q).tobytes()

    def test_curves_failure_is_the_scalar_loops(self):
        # the SPM grid meets the fold of the d-axis curve at i_d = -1 A: the
        # error is the first one of the scalar loop over levels, then grid
        config = fixture_config("spm")
        first = next(exc for lv in config.curve_levels for x in config.curve_grid
                     for exc in (scalar_exact(config.motor, x, lv), scalar_exact(config.motor, lv, x))
                     if isinstance(exc, Exception))
        assert str(first) == "line search stalled at (-0.265611, 0) for target (i_d, i_q) = (-1, 0) A"
        with pytest.raises(NonConvergence) as info:
            magnetization_curves(config.motor, config.curve_grid, config.curve_levels)
        assert str(info.value) == str(first)

    def test_lowest_index_failure_raises(self):
        # 1e6 A fails last in time (no convergence after every iteration),
        # 1.8 A first (its line search stalls): the lower index is reported,
        # in the scalar text; alone, each raises its own
        bad = MotorParams(R=1.0, Ld=0.1, Lq=0.1, a30=-60.0, a40=1.0)
        targets = [-1.0, 1e6, 1.8, 0.0]
        scalar = [scalar_exact(bad, x, 0.0) for x in targets]
        assert [type(r).__name__ for r in scalar] == ["tuple", "NonConvergence", "NonConvergence", "tuple"]
        assert str(scalar[1]).startswith("no convergence within 50 iterations")
        assert str(scalar[2]).startswith("line search stalled")
        with pytest.raises(NonConvergence) as info:
            flux_from_currents_exact(bad, np.array([targets, np.zeros(4)]))
        assert str(info.value) == str(scalar[1])
        with pytest.raises(NonConvergence) as info:
            flux_from_currents_exact(bad, np.array([targets[2:], np.zeros(2)]))
        assert str(info.value) == str(scalar[2])
        for x, want in zip(targets, scalar):
            if isinstance(want, Exception):
                with pytest.raises(NonConvergence) as info:
                    flux_from_currents_exact(bad, np.array([x, 0.0]))
                assert str(info.value) == str(want)
            else:
                assert tuple(flux_from_currents_exact(bad, np.array([x, 0.0])).tolist()) == want

    def test_seed_fault_ranks_by_index(self):
        # 1e300 A overflows its first-order seed, a fault found before any
        # iteration; 1.8 A stalls in a line search. Either way the lower
        # index is raised, what that element raises alone
        bad = MotorParams(R=1.0, Ld=0.1, Lq=0.1, a30=-60.0, a40=1.0)
        alone = {x: outcome(lambda: flux_from_currents_exact(bad, np.array([x, 0.0]))) for x in (-1.0, 1e300, 1.8)}
        assert tuple(alone[-1.0].tolist()) == scalar_exact(bad, -1.0, 0.0)
        assert type(alone[1e300]) is ValueError and str(alone[1e300]) == "flux linkage must be finite"
        assert type(alone[1.8]) is NonConvergence and str(alone[1.8]) == str(scalar_exact(bad, 1.8, 0.0))
        assert str(alone[1.8]).startswith("line search stalled")
        for order, first in (((-1.0, 1e300, 1.8), 1e300), ((-1.0, 1.8, 1e300), 1.8)):
            with pytest.raises(type(alone[first])) as info:
                flux_from_currents_exact(bad, np.array([order, np.zeros(3)]))
            assert type(info.value) is type(alone[first]) and str(info.value) == str(alone[first])

    @pytest.mark.parametrize("name", ["ipm", "spm"])
    def test_batch_is_its_elements_alone(self, name):
        # about 200 random targets from 0.05 to 8 A at any angle, past the
        # SPM fold (-1 A on the d axis) too, unseeded and seeded: a batch
        # gives each element's own (2,) result, or raises what its lowest
        # element that fails alone raises
        p = fixture_config(name).motor
        rng = np.random.default_rng(38)
        raised = []
        for size in (1, 3, 10, 30, 60, 100):
            mag, angle = np.exp(rng.uniform(np.log(0.05), np.log(8.0), size)), rng.uniform(-np.pi, np.pi, size)
            I = mag * np.array([np.cos(angle), np.sin(angle)])
            for seed in (None, rng.uniform(-0.3, 0.3, (2, size))):
                seeds = [None] * size if seed is None else seed.T
                alone = [outcome(lambda: flux_from_currents_exact(p, I[:, j], seed=seeds[j])) for j in range(size)]
                batch = outcome(lambda: flux_from_currents_exact(p, I, seed=seed))
                failed = [r for r in alone if isinstance(r, Exception)]
                if failed:
                    assert type(batch) is type(failed[0]) and str(batch) == str(failed[0])
                else:
                    assert [batch[:, j].tobytes() for j in range(size)] == [r.tobytes() for r in alone]
                raised.append(bool(failed))
        assert not any(raised) if name == "ipm" else any(raised) and not all(raised)

    def test_seeds_that_fail_alone_fail_the_same(self):
        # a seed that is not finite: singular Jacobian; a first-order seed
        # that overflows: the ValueError of a flux that is not finite
        bad = MotorParams(R=1.0, Ld=0.1, Lq=0.1, a30=-60.0, a40=1.0)
        with pytest.raises(NonConvergence, match=r"^singular Jacobian at \(inf, 0\) for target "
                                                  r"\(i_d, i_q\) = \(1, 0\) A$"):
            flux_from_currents_exact(bad, np.array([[0.0, 1.0], [0.0, 0.0]]),
                                     seed=np.array([[0.0, np.inf], [0.0, 0.0]]))
        assert str(scalar_exact(bad, 1e300, 0.0)) == "flux linkage must be finite"
        with pytest.raises(ValueError, match="^flux linkage must be finite$"):
            flux_from_currents_exact(bad, np.array([[0.0, 1e300], [0.0, 0.0]]))

    def test_nan_current_raises(self, ipm):
        with pytest.raises(ValueError, match="currents must be finite"):
            flux_from_currents_exact(ipm, np.array([[0.5, np.nan], [0.0, 0.0]]))


def test_hessian_symmetry_many_points():
    # numerical Jacobian of the flux->current map on random points is
    # symmetric to 1e-8 relative to the Jacobian scale (its dominant
    # entries are the 1/L diagonals)
    rng = np.random.default_rng(11)
    motors = random_motors(10, seed=12)
    for k in range(1000):
        p = motors[k % len(motors)]
        fd, fq = rng.uniform(-0.5, 0.5, size=2)
        h = 1e-6
        up_d, down_d = currents_from_flux(p, np.array([[fd + h, fd - h], [fq, fq]])).T
        up_q, down_q = currents_from_flux(p, np.array([[fd, fd], [fq + h, fq - h]])).T
        didq_dfd = (up_d[1] - down_d[1]) / (2 * h)
        did_dfq = (up_q[0] - down_q[0]) / (2 * h)
        scale = max(1.0 / p.Ld, 1.0 / p.Lq, abs(didq_dfd), abs(did_dfq))
        assert abs(didq_dfd - did_dfq) <= 1e-8 * scale
        # the closed-form Hessian is that Jacobian, and one-hot theta gives
        # its regressor rows
        did_dfd = (up_d[0] - down_d[0]) / (2 * h)
        didq_dfq = (up_q[1] - down_q[1]) / (2 * h)
        hess = _hessian(p.theta, fd, fq)
        for got, want in zip(hess, (did_dfd, did_dfq, didq_dfq)):
            assert abs(got - want) <= 1e-6 * scale
        rows = _hessian(np.eye(7), np.array([[fd]]), np.array([[fq]]))
        for row, h_val in zip(rows, hess):
            assert abs(row[0] @ p.theta - h_val) <= 1e-14 * scale
