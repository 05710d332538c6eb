import dataclasses

import numpy as np
import pytest

from aerotrack.corridor import build_corridor, contains_all, overlap
from aerotrack import traj_opt
from aerotrack.errors import (
    DescentFailed, OutOfDomain, SingularSystem, TrajectoryLeftCorridor)
from aerotrack.grid import OccupancyGrid
from aerotrack.kino_search import SearchWeights, search
from aerotrack.perception import TargetObservation
from aerotrack.prediction import PredictionWeights, fit_predicted_trajectory
from aerotrack.tracker import blend_goal
from aerotrack.traj_opt import OptWeights, cost_and_gradient, inner_trajectory, optimize
from oracles import (
    jerk_cost, jerk_quadratic, jerk_quadratic_dT, junction_mismatch, solve_inner_per_slot,
    tail_maps)


def at_rest(p0, p1):
    """Boundary ``[[p0, v0, a0], [p1, v1, a1]]`` at rest at both ends."""
    boundary = np.zeros((2, 3, 3))
    boundary[:, 0] = p0, p1
    return boundary


def chain_corridor(n_cubes=4, span=2.0, overlap=0.8, size=1.6):
    """Axis-aligned cube chain marching along +x."""
    cubes = []
    x = 0.0
    for _ in range(n_cubes):
        cubes.append([(x, 0.0, 0.0), (x + size, size, size)])
        x += size - overlap
    return np.array(cubes)


class TestInnerTrajectory:
    def test_rest_to_rest_classic_quintic(self):
        p0 = np.array([0.0, 0.0, 0.0])
        p1 = np.array([2.0, -1.0, 0.5])
        T = 3.0
        traj = inner_trajectory([p0, p1], [T], at_rest(p0, p1))
        for t in np.linspace(0, T, 40):
            s = t / T
            ref = p0 + (p1 - p0) * (10 * s**3 - 15 * s**4 + 6 * s**5)
            assert np.allclose(traj.sample(t)[0], ref, atol=1e-9)

    def test_collinear_matches_single_piece(self):
        # waypoints on a line with proportional timing: same jerk cost as the
        # single quintic across the whole interval
        p0 = np.zeros(3)
        p1 = np.array([4.0, 0.0, 0.0])
        bc = at_rest(p0, p1)
        single = inner_trajectory([p0, p1], [2.0], bc)
        multi = inner_trajectory(
            [p0, 0.25 * p1, 0.5 * p1, p1], [0.5, 0.5, 1.0], bc)
        # the multi-piece solution can only do as well or worse; with the
        # waypoints taken from the single-piece optimum it matches it
        way = [p0, single.sample(0.7)[0], single.sample(1.3)[0], p1]
        matched = inner_trajectory(way, [0.7, 0.6, 0.7], bc)
        assert jerk_cost(matched) == pytest.approx(jerk_cost(single), abs=1e-9)
        assert jerk_cost(multi) >= jerk_cost(single) - 1e-9

    def test_boundary_hit_exactly(self):
        bc = np.array([[(0, 0, 0), (1, 0, 0), (0, 1, 0)],
                       [(3, 1, 1), (0, -1, 0), (0, 0, 0)]], dtype=float)
        traj = inner_trajectory([(0, 0, 0), (1.5, 0.4, 0.6), (3, 1, 1)], [1.0, 1.2], bc)
        assert np.allclose(traj.sample(0.0), bc[0])
        assert np.allclose(traj.sample(traj.duration), bc[1])

    def test_junction_continuity(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            n = rng.integers(2, 6)
            way = np.cumsum(rng.uniform(-1, 1, (n + 1, 3)), axis=0)
            T = rng.uniform(0.5, 2.0, n)
            bc = np.array([[way[0], *rng.uniform(-1, 1, (2, 3))],
                           [way[-1], *rng.uniform(-1, 1, (2, 3))]])
            traj = inner_trajectory(way, T, bc)
            assert junction_mismatch(traj) < 1e-9

    @staticmethod
    def random_problems(M):
        rng = np.random.default_rng(M)
        for _ in range(20):
            way = np.cumsum(rng.uniform(-2, 2, (M + 1, 3)), axis=0)
            T = rng.uniform(0.2, 3.0, M)
            bc = np.array([[way[0], *rng.uniform(-2, 2, (2, 3))],
                           [way[-1], *rng.uniform(-2, 2, (2, 3))]])
            yield way, T, bc

    @pytest.mark.parametrize("M", range(1, 7))
    def test_solve_matches_per_slot_assembly(self, M):
        for way, T, bc in self.random_problems(M):
            Q = traj_opt._jerk_forms(T)[0]
            d_all, j_cost, _ = traj_opt._solve_inner(way, Q, bc)
            d_ref, j_ref = solve_inner_per_slot(way, T, bc)
            assert np.max(np.abs(d_all - d_ref)) <= 1e-12 * np.max(np.abs(d_ref))
            j_scale = float(np.einsum("ila,ilm,ima->", np.abs(d_ref), np.abs(Q), np.abs(d_ref)))
            assert abs(j_cost - j_ref) <= 1e-12 * j_scale

    @pytest.mark.parametrize("M", range(1, 7))
    def test_tail_coefficients_match_hermite_maps(self, M):
        for way, T, bc in self.random_problems(M):
            traj = inner_trajectory(way, T, bc)
            d_all, _, _ = traj_opt._solve_inner(way, traj_opt._jerk_forms(T)[0], bc)
            for i, t in enumerate(T):
                W, Dmap = tail_maps(float(t))
                H3 = W @ Dmap
                err = np.abs(traj.coeffs[i, :, 3:] - (H3 @ d_all[i]).T)
                assert np.all(err <= 1e-12 * (np.abs(H3) @ np.abs(d_all[i])).T)

    def test_nonpositive_duration_rejected(self):
        bc = at_rest((0, 0, 0), (1, 0, 0))
        with pytest.raises(SingularSystem):
            inner_trajectory([(0, 0, 0), (1, 0, 0)], [-1.0], bc)


class TestJerkForms:
    def test_scaled_unit_form_matches_per_piece_forms(self):
        T = np.linspace(1e-3, 10.0, 200)
        Q, dQ, _, _ = traj_opt._jerk_forms(T)
        for i, t in enumerate(T):
            for got, ref in ((Q[i], jerk_quadratic(float(t))), (dQ[i], jerk_quadratic_dT(float(t)))):
                assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


class TestSample:
    def test_out_of_domain(self):
        bc = at_rest((0, 0, 0), (1, 0, 0))
        traj = inner_trajectory([(0, 0, 0), (1, 0, 0)], [1.0], bc)
        with pytest.raises(OutOfDomain):
            traj.sample(1.5)

    def test_derivatives_match_finite_differences(self):
        bc = np.array([[(0, 0, 0), (0.5, 0, 0), (0, 0.5, 0)],
                       [(2, 1, 0), (0, 0, 0), (0, 0, 0)]])
        traj = inner_trajectory([(0, 0, 0), (1, 0.5, 0.2), (2, 1, 0)], [1.0, 1.5], bc)
        eps = 1e-6
        for t in np.linspace(0.1, traj.duration - 0.1, 25):
            p_m = traj.sample(t - eps)[0]
            p_p = traj.sample(t + eps)[0]
            v_m = traj.sample(t - eps)[1]
            v_p = traj.sample(t + eps)[1]
            _, v, a = traj.sample(t)
            assert np.allclose((p_p - p_m) / (2 * eps), v, atol=1e-6)
            assert np.allclose((v_p - v_m) / (2 * eps), a, atol=1e-6)


class TestCostAndGradient:
    def test_symmetric_barrier_gradient_zero(self):
        huge = np.array([[(-10, -10, -10), (10, 10, 10)],
                         [(-10, -10, -10), (10, 10, 10)]], dtype=float)
        bc = at_rest((-1, 0, 0), (1, 0, 0))
        # deep inside both boxes the corridor penalty is zero, so its weight
        # leaves the waypoint gradient at the exact center unchanged
        q = np.array([[0.0, 0.0, 0.0]])
        T = np.array([1.0, 1.0])
        _, dq1, _ = cost_and_gradient(q, T, huge, bc, OptWeights(kappa=1.0, rho_t=0.0,
                                                                 rho_v=0.0, rho_a=0.0))
        _, dq0, _ = cost_and_gradient(q, T, huge, bc, OptWeights(kappa=1e-12, rho_t=0.0,
                                                                 rho_v=0.0, rho_a=0.0))
        assert np.allclose(dq1 - dq0, 0.0, atol=1e-9)

    def test_slow_trajectory_time_penalty_only(self):
        cor = chain_corridor(3)
        bc = at_rest((0.4, 0.8, 0.8), (3.0, 0.8, 0.8))
        w = OptWeights(kappa=1e-12, rho_t=7.0, v_max=50.0, a_max=50.0)
        q = overlap(cor[:-1], cor[1:]).mean(axis=1)
        T = np.full(3, 4.0)
        J, _, _ = cost_and_gradient(q, T, cor, bc, w)
        J_smooth, _, _ = cost_and_gradient(q, T, cor, bc,
                                           OptWeights(kappa=1e-12, rho_t=0.0,
                                                      v_max=50.0, a_max=50.0))
        assert J - J_smooth == pytest.approx(7.0 * float(np.sum(T)), rel=1e-12)

    @staticmethod
    def gradient_inputs(cor, rng):
        """Ten inputs near the overlap centers at rest-ish ends, then one with every
        penalty active: waypoints outside their boxes and a fast, accelerating start."""
        inters = overlap(cor[:-1], cor[1:])
        bc = np.array([
            [cor[0].mean(axis=0) + rng.uniform(-0.2, 0.2, 3), *rng.uniform(-1, 1, (2, 3))],
            [cor[-1].mean(axis=0) + rng.uniform(-0.2, 0.2, 3), *rng.uniform(-1, 1, (2, 3))]])
        for _ in range(10):
            q = np.array([
                i.mean(axis=0) + rng.uniform(-0.3, 0.3, 3) * ((i[1] - i[0]) / 2)
                for i in inters])
            yield q, rng.uniform(0.6, 2.0, len(cor)), bc
        fast = bc.copy()
        fast[0, 1:] = (2.5, 1.5, 0.0), (3.0, -2.0, 1.0)
        q = np.array([i.mean(axis=0) + 1.5 * (i[1] - i[0]) for i in inters])
        yield q, rng.uniform(0.6, 2.0, len(cor)), fast

    @pytest.mark.parametrize("n_cubes", [2, 4])
    def test_gradients_match_finite_differences(self, n_cubes):
        rng = np.random.default_rng(1)
        cor = chain_corridor(n_cubes)
        # tight limits so the penalties are active
        w = OptWeights(kappa=50.0, rho_t=5.0, rho_v=40.0, rho_a=40.0,
                       v_max=0.8, a_max=0.8)
        inputs = list(self.gradient_inputs(cor, rng))
        q, T, bc = inputs[-1]
        J = cost_and_gradient(q, T, cor, bc, w)[0]
        for name in ("kappa", "rho_v", "rho_a"):
            assert cost_and_gradient(q, T, cor, bc, dataclasses.replace(w, **{name: 0.0}))[0] < J
        for q, T, bc in inputs:
            J, dq, dT = cost_and_gradient(q, T, cor, bc, w)
            eps = 1e-6
            for idx in np.ndindex(q.shape):
                qp = q.copy(); qp[idx] += eps
                qm = q.copy(); qm[idx] -= eps
                fd = (cost_and_gradient(qp, T, cor, bc, w)[0]
                      - cost_and_gradient(qm, T, cor, bc, w)[0]) / (2 * eps)
                assert dq[idx] == pytest.approx(fd, rel=1e-4, abs=1e-6)
            for i in range(len(T)):
                Tp = T.copy(); Tp[i] += eps
                Tm = T.copy(); Tm[i] -= eps
                fd = (cost_and_gradient(q, Tp, cor, bc, w)[0]
                      - cost_and_gradient(q, Tm, cor, bc, w)[0]) / (2 * eps)
                assert dT[i] == pytest.approx(fd, rel=1e-4, abs=1e-6)


class TestOptimize:
    def test_single_cube_matches_analytic_quintic(self):
        cor = np.array([[(0, 0, 0), (4, 2, 2)]], dtype=float)
        p0 = np.array([0.5, 1.0, 1.0])
        p1 = np.array([3.5, 1.0, 1.0])
        traj = optimize(cor, at_rest(p0, p1), OptWeights())
        # shape comparison at matched normalized times
        T = traj.duration
        for s in np.linspace(0, 1, 60):
            ref = p0 + (p1 - p0) * (10 * s**3 - 15 * s**4 + 6 * s**5)
            assert np.linalg.norm(traj.sample(s * T)[0] - ref) < 1e-3
        # duration balances jerk against the time weight:
        # d/dT [720 |dp|^2 / T^5 + rho_t T] = 0
        w = OptWeights()
        T_star = (3600.0 * float((p1 - p0) @ (p1 - p0)) / w.rho_t) ** (1.0 / 6.0)
        assert T == pytest.approx(T_star, rel=1e-2)

    def test_rising_descent_raises(self, monkeypatch):
        def rising(fun, x0, **kwargs):
            return x0, 2.0, [1.0, 2.0]

        monkeypatch.setattr(traj_opt, "lbfgs_minimize", rising)
        bc = at_rest((0.4, 0.8, 0.8), (4.4, 0.8, 0.8))
        with pytest.raises(DescentFailed):
            optimize(chain_corridor(5), bc, OptWeights())

    def test_descent_and_containment(self):
        cor = chain_corridor(5)
        bc = at_rest((0.4, 0.8, 0.8), (4.4, 0.8, 0.8))
        traj = optimize(cor, bc, OptWeights())
        hist = traj.info["history"]
        assert all(h2 <= h1 + 1e-12 for h1, h2 in zip(hist, hist[1:]))
        assert traj.info["contained"]
        assert junction_mismatch(traj) < 1e-9
        ts = np.arange(0.0, traj.duration, 0.01)
        pts = traj.eval(ts)
        assert contains_all(cor, pts, margin=1e-9)

    @staticmethod
    def sideways_start(vy):
        """Chain corridor along +x entered at speed ``vy`` toward its +y wall."""
        bc = at_rest((0.4, 0.8, 0.8), (4.4, 0.8, 0.8))
        bc[0, 1] = 0.0, vy, 0.0
        return chain_corridor(5), bc

    def test_forced_exit_raises(self):
        # 3 m/s toward a wall 0.8 m away: the trajectory leaves its
        # corridor, and no uncontained trajectory is returned
        with pytest.raises(TrajectoryLeftCorridor):
            optimize(*self.sideways_start(3.0), OptWeights())

    @pytest.mark.parametrize("vy", [round(0.1 * k, 1) for k in range(11, 21)])
    def test_sideways_start_within_braking_distance_is_contained(self, vy):
        # braking from 2.0 m/s at a_max = 4 m/s^2 takes 0.5 m, less than the
        # 0.8 m to the wall, so the trajectory fits between its samples too
        cor, bc = self.sideways_start(vy)
        traj = optimize(cor, bc, OptWeights())
        assert contains_all(cor, traj.eval(np.arange(0.0, traj.duration, 0.01)), margin=1e-9)

    def test_kappa_sweep_monotone_toward_unconstrained(self, monkeypatch):
        # with the containment check off, a larger corridor weight leaves the
        # boxes by no more, and the unweighted trajectory leaves them most
        monkeypatch.setattr(traj_opt, "contains_all", lambda *args, **kwargs: True)
        cor, bc = self.sideways_start(2.0)
        excess = []
        for kappa in (0.0, 1e2, 1e4, 1e6):
            traj = optimize(cor, bc, OptWeights(kappa=kappa))
            # how far any sample gets past a wall of its own piece's box
            excess.append(max(
                float(np.max(np.maximum(box[0] - p, p - box[1])))
                for box, p in zip(cor, (traj.eval_local(i, np.linspace(0.0, t, 101))
                                        for i, t in enumerate(traj.durations)))))
        assert excess == sorted(excess, reverse=True)
        assert excess[0] > 0.5 and excess[-1] < 0.0

    def test_speed_and_accel_within_soft_bounds(self):
        grid = OccupancyGrid((0, 0, 0), 0.1, (120, 80, 30))
        grid.set_occupied_box((5.0, 0.0, 0.0), (5.4, 5.0, 3.0))
        times = np.linspace(0, 2, 14)
        obs = [TargetObservation(np.array([10.0, 6.0, 1.5]), float(t)) for t in times]
        traj_pred = fit_predicted_trajectory(obs, t_c=2.0, w=PredictionWeights())
        start = np.array([(2.0, 2.0, 1.5), (0.5, 0.0, 0.0)])
        w_search = SearchWeights()
        goal, occlusion_target = blend_goal(traj_pred, traj_pred.t_c, w_search)
        path = search(start, grid, w_search, goal, occlusion_target)
        cor = build_corridor(path, grid)
        bc = np.zeros((2, 3, 3))
        bc[0, :2] = start
        bc[1, :2] = path.p[-1], path.v[-1]
        w = OptWeights()
        traj = optimize(cor, bc, w)
        speeds, accels = [], []
        for t in np.arange(0, traj.duration, 0.01):
            _, v, a = traj.sample(t)
            speeds.append(np.linalg.norm(v))
            accels.append(np.linalg.norm(a))
        assert max(speeds) <= w.v_max * 1.05
        assert max(accels) <= w.a_max * 1.05

    def test_penalty_ablation_monotone(self):
        cor = chain_corridor(5, size=1.2, overlap=0.5)
        bc = at_rest((0.2, 0.6, 0.6), (3.4, 0.6, 0.6))
        max_speeds = []
        for scale in (1.0, 10.0):
            w = OptWeights(rho_v=100.0 * scale, rho_a=100.0 * scale,
                           v_max=0.8, a_max=1.0)
            traj = optimize(cor, bc, w)
            sp = max(np.linalg.norm(traj.sample(t)[1])
                     for t in np.arange(0, traj.duration, 0.01))
            max_speeds.append(sp)
        assert max_speeds[1] <= max_speeds[0] + 1e-9
