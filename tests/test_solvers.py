import numpy as np
import pytest

from aerotrack.errors import DescentFailed
from aerotrack.solvers import active_set_qp, lbfgs_minimize, qp_kkt_residual


class TestActiveSetQP:
    def test_kkt_with_active_constraint(self):
        # project (1, 2.5) onto {x + y <= 2, x >= 0, y >= 0}: (0.25, 1.75)
        H = 2.0 * np.eye(2)
        f = -2.0 * np.array([1.0, 2.5])
        G = np.array([[1.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
        h = np.array([2.0, 0.0, 0.0])
        x, lam = active_set_qp(H, f, G, h, x0=np.zeros(2))
        assert qp_kkt_residual(H, f, G, h, x, lam) < 1e-8
        assert np.allclose(x, [0.25, 1.75], atol=1e-10)
        assert lam[0] > 0.0
        assert np.array_equal(lam[1:], [0.0, 0.0])


class TestLBFGS:
    def test_rosenbrock_history_non_increasing(self):
        def rosenbrock(x):
            a, b = x
            value = (1.0 - a) ** 2 + 100.0 * (b - a * a) ** 2
            grad = np.array([-2.0 * (1.0 - a) - 400.0 * a * (b - a * a),
                             200.0 * (b - a * a)])
            return value, grad

        x, value, history = lbfgs_minimize(
            rosenbrock, np.array([-1.2, 1.0]), grad_tol=1e-8, max_iter=500)
        assert len(history) > 10
        assert all(h1 <= h0 for h0, h1 in zip(history, history[1:]))
        assert history[0] == rosenbrock(np.array([-1.2, 1.0]))[0]
        assert history[-1] == value
        assert value < 1e-10
        assert np.allclose(x, [1.0, 1.0], atol=1e-4)

    def test_start_outside_the_domain_raises_descent_failed(self):
        def log_barrier(x):  # finite only for x > 0
            if x[0] <= 0.0:
                return np.inf, np.zeros_like(x)
            return -np.log(x[0]) + x[0], np.array([1.0 - 1.0 / x[0]])

        with pytest.raises(DescentFailed, match="outside objective domain"):
            lbfgs_minimize(log_barrier, np.array([-1.0]))
