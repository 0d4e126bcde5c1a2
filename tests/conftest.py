import pytest

from satpmsm import simulator
from satpmsm.magnetics import MotorParams


@pytest.fixture
def ipm() -> MotorParams:
    """Interior-magnet motor: estimated magnetic parameters + rated resistance."""
    return MotorParams(
        R=12.15, Ld=91.9e-3, Lq=45.8e-3, phi_m=0.0, n_pp=6,
        a30=7.70, a12=5.35, a40=19.42, a22=22.18, a04=6.62,
    )


@pytest.fixture
def spm() -> MotorParams:
    """Surface-mounted motor: estimated magnetic parameters + rated resistance."""
    return MotorParams(
        R=6.69, Ld=155.4e-3, Lq=58.6e-3, phi_m=0.0, n_pp=2,
        a30=5.01, a12=4.83, a40=1.83, a22=8.76, a04=1.18,
    )


@pytest.fixture
def rk4_calls(monkeypatch) -> list:
    """The (steps, lane shape) of every `simulator._rk4` call the test makes
    from here on, in call order."""
    calls, rk4 = [], simulator._rk4

    def spy(rows, R, dt, X0, u_bar, u_tilde, f0, fmid, f1, out=None):
        calls.append((len(fmid), X0.shape[1:]))
        return rk4(rows, R, dt, X0, u_bar, u_tilde, f0, fmid, f1, out)

    monkeypatch.setattr(simulator, "_rk4", spy)
    return calls
