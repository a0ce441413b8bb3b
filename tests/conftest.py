import numpy as np
import pytest

pytest_plugins = ["pytester"]


def _rk4(rhs, y0, t1, n_steps):
    ts = np.linspace(0.0, t1, n_steps + 1)
    h = t1 / n_steps
    ys = [np.asarray(y0, dtype=float)]
    for t in ts[:-1]:
        y = ys[-1]
        k1 = rhs(t, y)
        k2 = rhs(t + 0.5 * h, y + 0.5 * h * k1)
        k3 = rhs(t + 0.5 * h, y + 0.5 * h * k2)
        k4 = rhs(t + h, y + h * k3)
        ys.append(y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4))
    return np.array(ys)


@pytest.fixture
def rk4():
    """Oracle ``rk4(rhs, y0, t1, n_steps)``: classical RK4 in ``n_steps``
    equal steps from ``t = 0`` to ``t1``, the state after each; it shares
    no code with the package's DOP853 loops."""
    return _rk4
