import numpy as np
import pytest

from aerotrack.errors import InsufficientData, OutOfDomain
from aerotrack.perception import TargetObservation
from aerotrack.prediction import (
    PredictedTrajectory,
    PredictionWeights,
    _fit_matrices,
    fit_predicted_trajectory,
)
from oracles import bernstein, de_casteljau, hodograph


def make_obs(times, positions):
    return [
        TargetObservation(position_world=np.asarray(p, float), timestamp=float(t))
        for t, p in zip(times, positions)
    ]


def unconstrained_fit_oracle(observations, t_c: float, w: PredictionWeights) -> np.ndarray:
    """Dense weighted normal-equation solution, ignoring the box constraints."""
    t0 = t_c - w.window
    scale = w.window + w.horizon
    usable = [o for o in observations if t0 - 1e-9 <= o.timestamp <= t_c + 1e-9]
    times = np.array([o.timestamp for o in usable])
    pts = np.array([o.position_world for o in usable])
    conf = np.exp(-(t_c - times) / w.tau_w)
    s_vals = (times - t0) / scale
    PhiW, H = _fit_matrices(s_vals, conf, w, scale)
    rhs = 2.0 * (PhiW.T @ pts)
    return np.linalg.solve(H, rhs)


def basis(n, s):
    """Rows of the fit's Bernstein basis at the normalized times ``s`` (unit weights)."""
    s = np.asarray(s, dtype=float)
    return _fit_matrices(s, np.ones_like(s), PredictionWeights(degree=n), 1.0)[0]


def curve(cp, scale=1.0):
    """The prediction over [0, scale] with the given control points."""
    cp = np.asarray(cp, dtype=float)
    return PredictedTrajectory(cp, len(cp) - 1, t0=0.0, t_c=0.5 * scale, t_p=scale)


class TestBernstein:
    def test_endpoint(self):
        Phi = basis(5, [0.0, 1.0])
        assert np.array_equal(Phi, [[1, 0, 0, 0, 0, 0], [0, 0, 0, 0, 0, 1]])

    def test_partition_of_unity(self):
        for n in range(1, 11):
            assert np.allclose(basis(n, [0.0, 0.3, 0.7, 1.0]).sum(axis=1), 1.0)

    def test_midpoint_value(self):
        assert basis(2, [0.5])[0, 1] == pytest.approx(0.5)

    def test_matches_scalar_basis(self):
        s = np.linspace(0.0, 1.0, 17)
        for n in range(1, 11):
            ref = [[bernstein(n, i, t) for i in range(n + 1)] for t in s]
            assert np.allclose(basis(n, s), ref, rtol=1e-13, atol=1e-15)


class TestHodograph:
    def test_constant_curve(self):
        traj = curve(np.tile([1.0, 2.0, 3.0], (6, 1)), scale=2.0)
        for t in np.linspace(0.0, 2.0, 9):
            assert np.allclose(traj.evaluate(t)[1], 0.0)

    def test_straight_line_speed(self):
        # equally spaced collinear points: derivative is constant
        direction = np.array([1.0, 0.0, 0.0])
        traj = curve(np.outer(np.linspace(0, 5, 6), direction), scale=5.0)
        for t in np.linspace(0.0, 5.0, 9):
            assert np.allclose(traj.evaluate(t)[1], direction)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        traj = curve(rng.normal(size=(6, 3)))
        eps = 1e-6
        for t in np.linspace(0.01, 0.99, 20):
            fd = (traj.evaluate(t + eps)[0] - traj.evaluate(t - eps)[0]) / (2 * eps)
            assert np.allclose(traj.evaluate(t)[1], fd, atol=1e-6)

    def test_evaluate_matches_de_casteljau(self):
        rng = np.random.default_rng(1)
        for n in (2, 5, 7):
            cp = rng.normal(scale=5.0, size=(n + 1, 3))
            traj = curve(cp, scale=3.0)
            for t in np.linspace(0.0, 3.0, 31):
                pos, vel = traj.evaluate(t)
                assert np.max(np.abs(pos - de_casteljau(cp, t / 3.0))) <= 1e-12 * np.max(np.abs(cp))
                vel_ref = de_casteljau(hodograph(cp, n, 3.0), t / 3.0)
                assert np.max(np.abs(vel - vel_ref)) <= 1e-12 * np.max(np.abs(cp))


class TestFit:
    def test_stationary_target(self):
        times = np.linspace(0.0, 2.0, 14)
        obs = make_obs(times, [[1.0, 2.0, 0.5]] * len(times))
        traj = fit_predicted_trajectory(obs, t_c=2.0, w=PredictionWeights())
        for t in np.linspace(traj.t0, traj.t_p, 50):
            pos, vel = traj.evaluate(t)
            assert np.allclose(pos, [1.0, 2.0, 0.5], atol=1e-6)
            assert np.linalg.norm(vel) < 1e-6

    def test_constant_velocity_extrapolation(self):
        w = PredictionWeights(smooth_weight=1e-12)
        times = np.linspace(0.0, 2.0, 20)
        v = np.array([1.0, 0.0, 0.0])
        obs = make_obs(times, [t * v for t in times])
        traj = fit_predicted_trajectory(obs, t_c=2.0, w=w)
        pos, vel = traj.evaluate(3.0)
        assert np.linalg.norm(pos - 3.0 * v) < 1e-4
        assert np.linalg.norm(vel - v) < 1e-3

    def test_unconstrained_matches_normal_equations(self):
        rng = np.random.default_rng(5)
        w = PredictionWeights(v_max=1e9, a_max=1e9)
        times = np.sort(rng.uniform(0.0, 2.0, 25))
        times += np.linspace(0, 1e-3, 25)  # enforce strict increase
        pts = rng.normal(scale=0.5, size=(25, 3)) + times[:, None] * [0.5, -0.2, 0.1]
        obs = make_obs(times, pts)
        traj = fit_predicted_trajectory(obs, t_c=2.0, w=w)
        oracle = unconstrained_fit_oracle(obs, 2.0, w)
        assert np.max(np.abs(traj.control_points - oracle)) < 1e-6

    def test_kkt_residual_small(self):
        rng = np.random.default_rng(6)
        w = PredictionWeights(v_max=0.8, a_max=1.0)
        times = np.linspace(0.0, 2.0, 22)
        pts = np.cumsum(rng.normal(scale=0.12, size=(22, 3)), axis=0)
        obs = make_obs(times, pts)
        traj = fit_predicted_trajectory(obs, t_c=2.0, w=w)
        assert traj.fit_info["kkt_residual"] < 1e-6

    def test_dynamic_feasibility_sampled(self):
        rng = np.random.default_rng(7)
        w = PredictionWeights(v_max=1.5, a_max=2.0)
        times = np.linspace(0.0, 2.0, 26)
        # aggressive zigzag that would violate the bounds unconstrained
        pts = np.column_stack([
            2.0 * np.sin(4.0 * times),
            1.5 * np.cos(5.0 * times),
            np.zeros_like(times),
        ]) + rng.normal(scale=0.05, size=(26, 3))
        obs = make_obs(times, pts)
        traj = fit_predicted_trajectory(obs, t_c=2.0, w=w)
        eps = 1e-5
        for t in np.linspace(traj.t0, traj.t_p, 200):
            _, vel = traj.evaluate(t)
            assert np.all(np.abs(vel) <= w.v_max + 1e-6)
            tm = np.clip(t - eps, traj.t0, traj.t_p)
            tp = np.clip(t + eps, traj.t0, traj.t_p)
            acc = (traj.evaluate(tp)[1] - traj.evaluate(tm)[1]) / (tp - tm)
            assert np.all(np.abs(acc) <= w.a_max + 1e-3)

    def test_weight_monotonicity(self):
        # perturbing the oldest observation moves the fit less than the newest
        times = np.linspace(0.0, 2.0, 15)
        base_pts = [t * np.array([0.5, 0.0, 0.0]) for t in times]
        obs = make_obs(times, base_pts)
        traj0 = fit_predicted_trajectory(obs, t_c=2.0, w=PredictionWeights())

        def perturbed(index):
            pts = [p.copy() for p in base_pts]
            pts[index] = pts[index] + np.array([0.3, 0.0, 0.0])
            return fit_predicted_trajectory(make_obs(times, pts), t_c=2.0, w=PredictionWeights())

        def l2_change(traj):
            ts = np.linspace(0.0, 2.0, 80)
            d = [traj.evaluate(t)[0] - traj0.evaluate(t)[0] for t in ts]
            return np.sqrt(np.mean(np.sum(np.square(d), axis=1)))

        assert l2_change(perturbed(0)) < l2_change(perturbed(-1))

    def test_insufficient_data(self):
        times = np.linspace(0.0, 2.0, 4)
        obs = make_obs(times, [[0, 0, 0]] * 4)
        with pytest.raises(InsufficientData):
            fit_predicted_trajectory(obs, t_c=2.0, w=PredictionWeights())

    def test_out_of_domain(self):
        times = np.linspace(0.0, 2.0, 10)
        obs = make_obs(times, [[0, 0, 0]] * 10)
        traj = fit_predicted_trajectory(obs, t_c=2.0, w=PredictionWeights())
        with pytest.raises(OutOfDomain):
            traj.evaluate(traj.t_p + 0.5)

    def test_evaluate_matches_basis_sum(self):
        times = np.linspace(0.0, 2.0, 12)
        pts = [[np.sin(t), np.cos(t), t] for t in times]
        traj = fit_predicted_trajectory(make_obs(times, pts), t_c=2.0, w=PredictionWeights())
        for t in np.linspace(traj.t0, traj.t_p, 30):
            s = (t - traj.t0) / traj.scale
            ref = sum(
                traj.control_points[i] * bernstein(traj.degree, i, s)
                for i in range(traj.degree + 1)
            )
            assert np.allclose(traj.evaluate(t)[0], ref, atol=1e-9)

    def test_convex_hull_bounding_box(self):
        rng = np.random.default_rng(9)
        times = np.linspace(0.0, 2.0, 16)
        pts = rng.normal(size=(16, 3))
        traj = fit_predicted_trajectory(make_obs(times, pts), t_c=2.0, w=PredictionWeights())
        lo = traj.control_points.min(axis=0) - 1e-9
        hi = traj.control_points.max(axis=0) + 1e-9
        for t in np.linspace(traj.t0, traj.t_p, 100):
            pos, _ = traj.evaluate(t)
            assert np.all(pos >= lo) and np.all(pos <= hi)
