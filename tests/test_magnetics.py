import numpy as np
import pytest

from satpmsm.magnetics import (
    Currents,
    FluxLinkage,
    MotorParams,
    NonConvergence,
    currents_from_flux,
    energy,
    flux_from_currents_exact,
    flux_from_currents_first_order,
    _current_rows,
    _currents,
    _hessian,
    _stacked_currents,
)

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
        with pytest.raises(ValueError):
            MotorParams(R=1.0, Ld=0.1, Lq=0.1, n_pp=0)
        with pytest.raises(ValueError):
            MotorParams(R=1.0, Ld=0.1, Lq=0.1, a30=float("nan"))

    def test_flux_and_currents_must_be_finite(self):
        with pytest.raises(ValueError):
            FluxLinkage(float("inf"), 0.0)
        with pytest.raises(ValueError):
            Currents(0.0, float("nan"))

    def test_without_saturation(self, ipm):
        lin = ipm.without_saturation()
        assert (lin.a30, lin.a12, lin.a40, lin.a22, lin.a04) == (0, 0, 0, 0, 0)
        assert lin.Ld == ipm.Ld and lin.R == ipm.R


class TestEnergy:
    def test_zero_flux_zero_energy(self, ipm):
        assert energy(ipm, FluxLinkage(0.0, 0.0)) == 0.0

    def test_pure_quadratic(self):
        p = MotorParams(R=1.0, Ld=0.1, Lq=0.05)
        assert energy(p, FluxLinkage(0.2, 0.1)) == pytest.approx(0.3, rel=1e-14)

    def test_ipm_point_vs_term_oracle(self, ipm):
        got = energy(ipm, FluxLinkage(0.1, 0.05))
        want = oracles.energy_oracle(ipm, 0.1, 0.05)
        assert got == pytest.approx(want, rel=1e-14)

    def test_mirror_symmetry_exact(self):
        rng = np.random.default_rng(1)
        for p in random_motors(20, seed=2):
            fd, fq = rng.uniform(-0.5, 0.5, size=2)
            assert energy(p, FluxLinkage(fd, -fq)) == energy(p, FluxLinkage(fd, fq))


class TestCurrentsFromFlux:
    def test_zero_flux(self, ipm):
        c = currents_from_flux(ipm, FluxLinkage(0.0, 0.0))
        assert c.i_d == 0.0 and c.i_q == 0.0

    def test_linear_motor(self):
        p = MotorParams(R=1.0, Ld=0.1, Lq=0.05)
        c = currents_from_flux(p, FluxLinkage(0.1, 0.0))
        assert c.i_d == pytest.approx(1.0, rel=1e-14)
        assert c.i_q == 0.0

    def test_ipm_point_vs_term_oracle(self, ipm):
        c = currents_from_flux(ipm, FluxLinkage(0.1, 0.05))
        want_d, want_q = oracles.currents_oracle(ipm, 0.1, 0.05)
        assert c.i_d == pytest.approx(want_d, rel=1e-14)
        assert c.i_q == pytest.approx(want_q, rel=1e-14)
        # the scalar path on floats and the stacked (2, n) form the simulator
        # integrates, one lane per flux, element by element
        rng = np.random.default_rng(9)
        fd, fq = rng.uniform(-0.3, 0.3, size=(2, 200))
        stacked = _stacked_currents(_current_rows([ipm] * len(fd)), np.stack([fd, fq]))
        for k in range(len(fd)):
            want_d, want_q = oracles.currents_oracle(ipm, fd[k], fq[k])
            i_d, i_q = _currents(ipm, float(fd[k]), float(fq[k]))
            assert i_d == pytest.approx(want_d, rel=1e-14)
            assert i_q == pytest.approx(want_q, rel=1e-14)
            assert (stacked[0, k], stacked[1, k]) == (i_d, i_q)

    def test_gradient_of_energy(self):
        # central finite differences of the potential, relative 1e-6
        rng = np.random.default_rng(3)
        for p in random_motors(25, seed=4):
            fd, fq = rng.uniform(-0.4, 0.4, size=2)
            c = currents_from_flux(p, FluxLinkage(fd, fq))
            h = 1e-6
            fd_id = (energy(p, FluxLinkage(fd + h, fq)) - energy(p, FluxLinkage(fd - h, fq))) / (2 * h)
            fd_iq = (energy(p, FluxLinkage(fd, fq + h)) - energy(p, FluxLinkage(fd, fq - h))) / (2 * h)
            scale = max(abs(c.i_d), abs(c.i_q), 1e-3)
            assert abs(c.i_d - fd_id) <= 1e-6 * scale
            assert abs(c.i_q - fd_iq) <= 1e-6 * scale

    def test_mirror_maps_currents(self):
        rng = np.random.default_rng(5)
        for p in random_motors(10, seed=6):
            fd, fq = rng.uniform(-0.4, 0.4, size=2)
            c = currents_from_flux(p, FluxLinkage(fd, fq))
            m = currents_from_flux(p, FluxLinkage(fd, -fq))
            assert m.i_d == c.i_d and m.i_q == -c.i_q

    def test_jacobian_symmetric(self):
        # numerical d(i)/d(phi) must be symmetric (currents are a gradient)
        rng = np.random.default_rng(7)
        for p in random_motors(15, seed=8):
            fd, fq = rng.uniform(-0.4, 0.4, size=2)
            h = 1e-7
            didq_dfd = (currents_from_flux(p, FluxLinkage(fd + h, fq)).i_q
                        - currents_from_flux(p, FluxLinkage(fd - h, fq)).i_q) / (2 * h)
            did_dfq = (currents_from_flux(p, FluxLinkage(fd, fq + h)).i_d
                       - currents_from_flux(p, FluxLinkage(fd, fq - h)).i_d) / (2 * h)
            scale = max(abs(didq_dfd), abs(did_dfq), 1.0)
            assert abs(didq_dfd - did_dfq) <= 1e-6 * scale


class TestFirstOrderInversion:
    def test_linear_motor_exact(self):
        p = MotorParams(R=1.0, Ld=0.1, Lq=0.05)
        f = flux_from_currents_first_order(p, Currents(2.0, -1.0))
        assert f.phi_d == pytest.approx(0.2, rel=1e-14)
        assert f.phi_q == pytest.approx(-0.05, rel=1e-14)

    def test_zero(self, ipm):
        f = flux_from_currents_first_order(ipm, Currents(0.0, 0.0))
        assert f.phi_d == 0.0 and f.phi_q == 0.0

    def test_ipm_point_vs_term_oracle(self, ipm):
        f = flux_from_currents_first_order(ipm, Currents(1.0, 1.0))
        want_d, want_q = oracles.first_order_flux_oracle(ipm, 1.0, 1.0)
        assert f.phi_d == pytest.approx(want_d, rel=1e-14)
        assert f.phi_q == pytest.approx(want_q, rel=1e-14)

    def test_second_order_accuracy(self, ipm):
        # scaling all coefficients by eps, the gap to the exact inversion
        # shrinks by ~4x per halving of eps
        grid = [(i_d, i_q) for i_d in np.linspace(-0.3, 0.3, 5) for i_q in np.linspace(-0.3, 0.3, 5)]

        def max_gap(eps):
            import dataclasses
            pk = dataclasses.replace(
                ipm, a30=ipm.a30 * eps, a12=ipm.a12 * eps,
                a40=ipm.a40 * eps, a22=ipm.a22 * eps, a04=ipm.a04 * eps)
            worst = 0.0
            for i_d, i_q in grid:
                exact = flux_from_currents_exact(pk, Currents(i_d, i_q), tol=1e-13)
                first = flux_from_currents_first_order(pk, Currents(i_d, i_q))
                worst = max(worst, abs(exact.phi_d - first.phi_d), abs(exact.phi_q - first.phi_q))
            return worst

        gaps = [max_gap(eps) for eps in (1.0, 0.5, 0.25)]
        assert 3.5 <= gaps[0] / gaps[1] <= 4.5
        assert 3.5 <= gaps[1] / gaps[2] <= 4.5


class TestExactInversion:
    def test_linear_motor(self):
        p = MotorParams(R=1.0, Ld=0.1, Lq=0.05)
        f = flux_from_currents_exact(p, Currents(3.0, -2.0), tol=1e-12)
        assert f.phi_d == pytest.approx(0.3, abs=1e-12)
        assert f.phi_q == pytest.approx(-0.1, abs=1e-12)

    def test_round_trip(self, ipm):
        f0 = FluxLinkage(0.08, 0.03)
        i = currents_from_flux(ipm, f0)
        f = flux_from_currents_exact(ipm, i, tol=1e-12)
        assert f.phi_d == pytest.approx(f0.phi_d, abs=1e-10)
        assert f.phi_q == pytest.approx(f0.phi_q, abs=1e-10)

    def test_ipm_point_vs_bisection_oracle(self, ipm):
        want_d, want_q = oracles.invert_flux_bisection(ipm, 2.0, 2.0)
        f = flux_from_currents_exact(ipm, Currents(2.0, 2.0), tol=1e-10)
        assert f.phi_d == pytest.approx(want_d, abs=1e-9)
        assert f.phi_q == pytest.approx(want_q, abs=1e-9)

    def test_round_trip_on_grid(self, ipm, spm):
        for p, span in ((ipm, 2.0), (spm, 0.5)):
            for i_d in np.linspace(-span, span, 7):
                for i_q in np.linspace(-span, span, 7):
                    f = flux_from_currents_exact(p, Currents(float(i_d), float(i_q)), tol=1e-11)
                    back = currents_from_flux(p, f)
                    assert abs(back.i_d - i_d) <= 1e-11
                    assert abs(back.i_q - i_q) <= 1e-11

    def test_non_invertible_point_raises(self, spm):
        # the surface-mount model loses d-axis monotonicity for strongly
        # negative phi_d; far negative current targets there have no nearby
        # solution branch reachable from the first-order seed region
        with pytest.raises(NonConvergence):
            # make the model non-invertible in a controlled way: strong
            # negative cubic coefficient creates a fold right next to 0
            bad = MotorParams(R=1.0, Ld=0.1, Lq=0.1, a30=-60.0, a40=1.0)
            flux_from_currents_exact(bad, Currents(1.8, 0.0), tol=1e-12)

    def test_tol_validation(self, ipm):
        with pytest.raises(ValueError):
            flux_from_currents_exact(ipm, Currents(0.1, 0.1), tol=0.0)


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
        didq_dfd = (currents_from_flux(p, FluxLinkage(fd + h, fq)).i_q
                    - currents_from_flux(p, FluxLinkage(fd - h, fq)).i_q) / (2 * h)
        did_dfq = (currents_from_flux(p, FluxLinkage(fd, fq + h)).i_d
                   - currents_from_flux(p, FluxLinkage(fd, fq - h)).i_d) / (2 * h)
        scale = max(1.0 / p.Ld, 1.0 / p.Lq, abs(didq_dfd), abs(did_dfq))
        assert abs(didq_dfd - did_dfq) <= 1e-8 * scale
        # the closed-form Hessian is that Jacobian, and one-hot theta gives
        # its regressor rows
        did_dfd = (currents_from_flux(p, FluxLinkage(fd + h, fq)).i_d
                   - currents_from_flux(p, FluxLinkage(fd - h, fq)).i_d) / (2 * h)
        didq_dfq = (currents_from_flux(p, FluxLinkage(fd, fq + h)).i_q
                    - currents_from_flux(p, FluxLinkage(fd, fq - h)).i_q) / (2 * h)
        hess = _hessian(p.theta, fd, fq)
        for got, want in zip(hess, (did_dfd, did_dfq, didq_dfq)):
            assert abs(got - want) <= 1e-6 * scale
        rows = _hessian(np.eye(7), np.array([[fd]]), np.array([[fq]]))
        for row, h_val in zip(rows, hess):
            assert abs(row[0] @ p.theta - h_val) <= 1e-14 * scale
