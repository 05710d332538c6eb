import numpy as np
import pytest

from aerotrack.errors import NoPath, StartOccupied
from aerotrack.grid import OccupancyGrid
from aerotrack.kino_search import (
    SearchWeights,
    _obvp_batch,
    _obvp_coeffs,
    search,
)
from aerotrack.perception import TargetObservation
from aerotrack.prediction import PredictionWeights, fit_predicted_trajectory
from aerotrack.tracker import blend_goal
from oracles import rollout_positions, scan_minimum


def static_prediction(point, t_c=2.0):
    times = np.linspace(t_c - 2.0, t_c, 14)
    obs = [TargetObservation(np.asarray(point, float), float(t)) for t in times]
    return fit_predicted_trajectory(obs, t_c=t_c, w=PredictionWeights())


def open_grid(nx=120, ny=120, nz=30, res=0.1):
    return OccupancyGrid((0, 0, 0), res, (nx, ny, nz))


def obvp_cost(a, b, rho):
    """Minimal energy-time cost and its duration between two (2, 3) states
    ``[p, v]``: a one-row ``_obvp_batch``."""
    J, T = _obvp_batch(b[:1] - a[:1], a[1:], b[1:], rho)
    return float(J[0]), float(T[0])


def search_toward(start, traj, grid, w):
    """Search toward the blended goal at the prediction's current time."""
    goal, occlusion_target = blend_goal(traj, traj.t_c, w)
    return search(start, grid, w, goal, occlusion_target)


class TestObvp:
    def test_identical_states(self):
        s = np.array([(1, 1, 1), (0, 0, 0)], dtype=float)
        assert obvp_cost(s, s, 1.0) == (0.0, 0.0)

    def test_rest_to_rest_matches_scan(self):
        a = np.array([(0, 0, 0), (0, 0, 0)], dtype=float)
        b = np.array([(1, 0, 0), (0, 0, 0)], dtype=float)
        D, T = obvp_cost(a, b, 1.0)
        Ts = np.arange(1e-3, 20, 1e-3)
        Js = Ts + 12.0 / Ts**3
        assert D == pytest.approx(Js.min(), rel=1e-4)
        assert T == pytest.approx(Ts[np.argmin(Js)], abs=2e-3)

    def test_random_pairs_match_scan(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            a = np.array([rng.uniform(-5, 5, 3), rng.uniform(-3, 3, 3)], dtype=float)
            b = np.array([rng.uniform(-5, 5, 3), rng.uniform(-3, 3, 3)], dtype=float)
            D, _ = obvp_cost(a, b, 1.0)
            (pa, va), (pb, vb) = a, b
            dp = pb - pa
            alpha = 12 * dp @ dp
            beta = -12 * dp @ (va + vb)
            gamma = 4 * (va @ va + va @ vb + vb @ vb)
            Ts = np.arange(1e-3, 20, 1e-3)
            Js = Ts + alpha / Ts**3 + beta / Ts**2 + gamma / Ts
            assert D == pytest.approx(Js.min(), rel=1e-4, abs=1e-9)

    def test_batch_matches_scalar(self):
        # the batch solver against the dense scan, not against itself
        rng = np.random.default_rng(2)
        p0 = rng.uniform(-3, 3, (40, 3))
        pf = rng.uniform(-3, 3, (40, 3))
        v0 = rng.uniform(-2, 2, (40, 3))
        vf = rng.uniform(-2, 2, (40, 3))
        J, T = _obvp_batch(pf - p0, v0, vf, 1.0)
        alpha, beta, gamma = _obvp_coeffs(pf - p0, v0, vf)
        for i in range(40):
            Js, Ts = scan_minimum(alpha[i], beta[i], gamma[i], 1.0)
            assert J[i] <= Js + 1e-12  # a true minimum is never above the grid's
            assert J[i] == pytest.approx(Js, rel=1e-6)
            assert T[i] == pytest.approx(Ts, abs=1.5e-3)

    def test_batch_degenerate_rows_match_scan(self):
        # beta ~ 0 (both ends at rest, opposite end velocities, or a position
        # step orthogonal to v0 + vf) leaves w ~ 0 as a resolvent root
        rng = np.random.default_rng(4)
        dp = rng.uniform(-3, 3, (30, 3))
        v0 = rng.uniform(-2, 2, (30, 3))
        vf = rng.uniform(-2, 2, (30, 3))
        v0[:10] = vf[:10] = 0.0
        vf[10:20] = -v0[10:20]
        s = v0[20:] + vf[20:]
        dp[20:] -= (np.sum(dp[20:] * s, axis=1) / np.sum(s * s, axis=1))[:, None] * s
        J, T = _obvp_batch(dp, v0, vf, 1.0)
        alpha, beta, gamma = _obvp_coeffs(dp, v0, vf)
        assert np.all(np.abs(beta) < 1e-12)
        for i in range(30):
            Js, Ts = scan_minimum(alpha[i], beta[i], gamma[i], 1.0)
            assert J[i] <= Js + 1e-12
            assert J[i] == pytest.approx(Js, rel=1e-6)
            assert T[i] == pytest.approx(Ts, abs=1.5e-3)

    # (dp, v0, vf) of two heuristic rows captured in the closed loop
    # (occlusion_turn, seed offsets 3 and 5, cycles 161 and 149) that a
    # closed-form quartic solve missed
    CAPTURED_ROWS = [
        ([0.6154975732366754, 0.8874560669974727, 0.05219225040993658],
         [-0.3230986462261639, 2.3481715315976013, -0.013237774008112518],
         [0.0, 0.0, 0.0]),
        ([0.8004387697190722, 0.7997892059119156, 0.004539389868882804],
         [-0.6723779165714021, 1.8170019892396332, -0.0005074287192817548],
         [-1.1822103646467848, -0.03738958988311718, 0.0]),
    ]

    @pytest.mark.parametrize("row", range(len(CAPTURED_ROWS)))
    def test_captured_rows_are_stationary_points(self, row):
        dp, v0, vf = (np.array([x]) for x in self.CAPTURED_ROWS[row])
        J, T = _obvp_batch(dp, v0, vf, 1.0)
        alpha, beta, gamma = (float(c[0]) for c in _obvp_coeffs(dp, v0, vf))
        J_scan, T_scan = scan_minimum(alpha, beta, gamma, 1.0)
        J, T = float(J[0]), float(T[0])
        assert np.isfinite(J) and J <= J_scan
        assert T == pytest.approx(T_scan, abs=1e-3)
        # T is a root of dJ/dT's quartic, not a grid point
        resid = T**4 - gamma * T**2 - 2.0 * beta * T - 3.0 * alpha
        size = T**4 + gamma * T**2 + 2.0 * abs(beta) * T + 3.0 * alpha
        assert abs(resid) < 1e-9 * size

    def test_admissibility_vs_primitives(self):
        # closed-form optimum never exceeds any concrete primitive rollout cost
        rng = np.random.default_rng(3)
        w = SearchWeights()
        for _ in range(20):
            a = np.array([rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3)], dtype=float)
            u = rng.uniform(-2, 2, 3)
            steps = rng.integers(1, 4)
            s = a
            cost = 0.0
            for _ in range(steps):
                p, v = s
                s = np.array([p + v * w.tau + 0.5 * u * w.tau**2, v + u * w.tau])
                cost += (u @ u + w.rho) * w.tau
            D, _ = obvp_cost(a, s, w.rho)
            assert D <= cost + 1e-6


class TestSearchWeights:
    @pytest.mark.parametrize("rho", [0.0, -1.0, float("nan"), float("inf"), True, "1"])
    def test_rho_must_be_finite_and_positive(self, rho):
        with pytest.raises(ValueError, match="rho"):
            SearchWeights(rho=rho)


class TestGoalState:
    def test_blend_extremes(self):
        times = np.linspace(0, 2, 14)
        obs = [TargetObservation(np.array([t, 0.0, 0.0]), float(t)) for t in times]
        traj = fit_predicted_trajectory(obs, t_c=2.0, w=PredictionWeights())
        g0, _ = blend_goal(traj, 2.0, SearchWeights(w_goal=0.0))
        g1, _ = blend_goal(traj, 2.0, SearchWeights(w_goal=1.0))
        p_now, v_now = traj.evaluate(2.0)
        p_ahead, v_ahead = traj.evaluate(3.0)
        assert g0.shape == g1.shape == (2, 3)
        assert np.allclose(g0, [p_now, v_now]) and np.allclose(g1, [p_ahead, v_ahead])

    def test_stationary_target(self):
        traj = static_prediction((2.0, 3.0, 1.0))
        for wg in (0.0, 0.4, 1.0):
            g, _ = blend_goal(traj, 2.0, SearchWeights(w_goal=wg))
            assert np.allclose(g[0], (2.0, 3.0, 1.0), atol=1e-5)
            assert np.linalg.norm(g[1]) < 1e-5

    def test_lookahead_position(self):
        times = np.linspace(0, 2, 14)
        obs = [TargetObservation(np.array([t, 0.5 * t, 0.0]), float(t)) for t in times]
        traj = fit_predicted_trajectory(obs, t_c=2.0, w=PredictionWeights())
        for t, lookahead in ((0.5, 1.0), (2.0, 0.4), (2.0, 1.0), (traj.t_p - 0.1, 1.0)):
            w = SearchWeights(w_goal=0.7, t_lookahead=lookahead)
            goal, p_ahead = blend_goal(traj, t, w)
            t_ahead = min(t + lookahead, traj.t_p)
            assert np.array_equal(p_ahead, traj.evaluate(t_ahead)[0])
            p_now, v_now = traj.evaluate(t)
            assert np.array_equal(goal[0], (1.0 - 0.7) * p_now + 0.7 * p_ahead)
            v_ahead = traj.evaluate(t_ahead)[1]
            assert np.array_equal(goal[1], (1.0 - 0.7) * v_now + 0.7 * v_ahead)


class TestSearch:
    def test_free_map_reaches_goal(self):
        g = open_grid()
        traj = static_prediction((9.0, 6.0, 1.5))
        start = np.array([(6.0, 6.0, 1.5), (0.0, 0.0, 0.0)], dtype=float)
        w = SearchWeights()
        path = search_toward(start, traj, g, w)
        assert path.info["reached_goal"]
        assert np.linalg.norm(path.p[-1] - [9.0, 6.0, 1.5]) <= w.r_goal
        # distance to goal is monotone nonincreasing over the last 3 states
        dists = [np.linalg.norm(p - np.array([9.0, 6.0, 1.5])) for p in path.p[-4:]]
        assert all(d2 <= d1 + 1e-9 for d1, d2 in zip(dists, dists[1:]))

    def test_start_at_goal(self):
        g = open_grid()
        traj = static_prediction((2.0, 2.0, 1.0))
        start = np.array([(2.0, 2.0, 1.0), (0.0, 0.0, 0.0)], dtype=float)
        path = search_toward(start, traj, g, SearchWeights())
        assert len(path.controls) == 0
        assert np.array_equal(np.concatenate([path.p, path.v]), start)
        assert path.total_cost == 0.0

    def test_start_occupied(self):
        g = open_grid()
        g.set_occupied_box((0.9, 0.9, 0.9), (1.3, 1.3, 1.3))
        traj = static_prediction((5.0, 5.0, 1.0))
        with pytest.raises(StartOccupied):
            search_toward(np.array([(1.0, 1.0, 1.0), (0, 0, 0)], dtype=float), traj, g,
                          SearchWeights())

    def test_occluded_start_still_returns_a_path(self):
        # a wall hides the target from the start and the goal: the start is
        # pushed back with its penalty, popped again and expanded
        g = open_grid()
        g.set_occupied_box((4.0, 1.0, 0.0), (4.2, 11.0, 3.0))
        x_tp = np.array([6.0, 6.0, 1.0])
        start = np.array([(2.0, 6.0, 1.0), (0.0, 0.0, 0.0)], dtype=float)
        goal = np.array([(2.0, 3.0, 1.0), (0.0, 0.0, 0.0)], dtype=float)
        w = SearchWeights()
        assert not g.line_of_sight(start[0], x_tp)
        path = search(start, g, w, goal, x_tp)
        assert path.info["reached_goal"] and path.info["expansions"] > 0
        assert np.array_equal(np.stack([path.p[0], path.v[0]]), start)
        assert np.linalg.norm(path.p[-1] - goal[0]) <= w.r_goal
        at_goal = search(goal, g, w, goal, x_tp)
        assert at_goal.info == {"expansions": 0, "reached_goal": True}
        assert len(at_goal.controls) == 0

    def test_start_pocket_without_exit_raises_no_path(self):
        g = open_grid()
        g.set_occupied_box((0.5, 0.5, 0.5), (1.5, 1.5, 1.5))
        g.occupied[10, 10, 10] = False  # the start's voxel
        start = np.array([(1.05, 1.05, 1.05), (0.0, 0.0, 0.0)], dtype=float)
        goal = np.array([(5.0, 5.0, 1.0), (0.0, 0.0, 0.0)], dtype=float)
        # the zero control stays in the start's key at a higher cost, every other collides
        with pytest.raises(NoPath, match="no primitive could be expanded"):
            search(start, g, SearchWeights(), goal, goal[0])

    def test_expansion_with_more_children_than_two_row_blocks(self):
        # 23 x 23 primitives in distinct velocity bins: 529 children of the start
        g = open_grid()
        w = SearchWeights(u_grid=tuple(np.linspace(-3.0, 3.0, 23)), vel_bin=0.05, node_budget=2)
        start = np.array([(5.0, 5.0, 1.0), (0.0, 0.0, 0.0)], dtype=float)
        goal = np.array([(8.0, 5.0, 1.0), (0.0, 0.0, 0.0)], dtype=float)
        path = search(start, g, w, goal, goal[0])
        assert path.info["expansions"] == 2 and len(path.controls) == 1
        assert np.allclose(path.v[1], path.controls[0] * w.tau)

    # ROADMAP item 24's probe on control sets finer than a velocity bin, where
    # siblings share keys: (start xy, goal offset, u, tau, expansions, total_cost)
    # under the last-writer rule. Centre -> (4, 1) at +-0.5 over 0.3 s pops 14
    # stale heap entries and corner -> (4, 1) pops 154; the builtin +-3 control
    # set pops none on these goals.
    SIBLING_PROBE = [
        ((5.05, 5.05), (2.0, 0.5), 0.5, 0.3, 21, 3.5999999999999996),
        ((5.05, 5.05), (4.0, 1.0), 0.5, 0.3, 94, 5.175),
        ((5.05, 5.05), (-4.0, 1.0), 0.5, 0.3, 160, 8.775),
        ((5.05, 5.05), (0.5, -2.0), 0.5, 0.3, 95, 5.25),
        ((1.0, 1.0), (2.0, 0.5), 0.5, 0.3, 65, 3.75),
        ((1.0, 1.0), (4.0, 1.0), 0.5, 0.3, 1103, 6.075),
        ((5.05, 5.05), (2.0, 0.5), 0.5, 0.5, 5, 3.25),
        ((5.05, 5.05), (4.0, 1.0), 0.5, 0.5, 14, 5.0),
        ((5.05, 5.05), (-4.0, 1.0), 0.5, 0.5, 12, 6.125),
        ((5.05, 5.05), (0.5, -2.0), 0.5, 0.5, 8, 4.25),
        ((1.0, 1.0), (2.0, 0.5), 0.5, 0.5, 6, 4.125),
        ((1.0, 1.0), (4.0, 1.0), 0.5, 0.5, 9, 6.125),
        ((5.05, 5.05), (2.0, 0.5), 1.0, 0.3, 8, 4.499999999999999),
        ((5.05, 5.05), (4.0, 1.0), 1.0, 0.3, 13, 6.299999999999998),
        ((5.05, 5.05), (-4.0, 1.0), 1.0, 0.3, 13, 5.999999999999998),
        ((5.05, 5.05), (0.5, -2.0), 1.0, 0.3, 8, 4.199999999999999),
        ((1.0, 1.0), (2.0, 0.5), 1.0, 0.3, 8, 4.199999999999999),
        ((1.0, 1.0), (4.0, 1.0), 1.0, 0.3, 13, 6.599999999999998),
    ]

    @pytest.mark.parametrize("xy, offset, u, tau, expansions, cost", SIBLING_PROBE)
    def test_sibling_probe_on_fine_control_sets(self, xy, offset, u, tau, expansions, cost):
        g = open_grid(100, 100, 20)
        w = SearchWeights(u_grid=(-u, 0.0, u), tau=tau)
        start = np.array([(*xy, 1.0), (0.0, 0.0, 0.0)])
        goal = np.array([(xy[0] + offset[0], xy[1] + offset[1], 1.0), (0.0, 0.0, 0.0)])
        path = search(start, g, w, goal, goal[0])
        assert path.info == {"expansions": expansions, "reached_goal": True}
        assert path.total_cost == cost
        recomputed = sum((c @ c + w.rho) * w.tau for c in path.controls)
        assert path.total_cost == pytest.approx(recomputed, rel=1e-12)

    def test_path_continuity_and_cost_bookkeeping(self):
        g = open_grid()
        g.set_occupied_box((4.0, 2.0, 0.0), (4.2, 9.0, 3.0))
        traj = static_prediction((7.0, 6.0, 1.5))
        start = np.array([(2.0, 6.0, 1.5), (0.0, 0.0, 0.0)], dtype=float)
        w = SearchWeights()
        path = search_toward(start, traj, g, w)
        assert len(path.controls) == len(path.p) - 1 > 0
        for p, v, p_end, v_end, u in zip(path.p, path.v, path.p[1:], path.v[1:], path.controls):
            assert np.allclose(p + v * w.tau + 0.5 * u * w.tau**2, p_end)
            assert np.allclose(v + u * w.tau, v_end)
        recomputed = sum((u @ u + w.rho) * path.tau for u in path.controls)
        assert path.total_cost == pytest.approx(recomputed, abs=1e-9)

    def test_collision_free_samples(self):
        g = open_grid()
        g.set_occupied_box((4.0, 0.0, 0.0), (4.3, 8.0, 3.0))
        traj = static_prediction((8.0, 9.0, 1.5))
        start = np.array([(2.0, 3.0, 1.5), (0.0, 0.0, 0.0)], dtype=float)
        path = search_toward(start, traj, g, SearchWeights())
        pts = path.sample_positions(g.resolution / 4)
        assert not g.occupied_at(pts).any()

    def test_sample_positions_match_primitive_rollout(self):
        g = open_grid()
        g.set_occupied_box((4.0, 2.0, 0.0), (4.2, 9.0, 3.0))
        traj = static_prediction((7.0, 6.0, 1.5))
        start = np.array([(2.0, 6.0, 1.5), (0.3, -0.2, 0.0)], dtype=float)
        path = search_toward(start, traj, g, SearchWeights())
        assert len(path.controls) > 3
        for spacing in (0.025, 0.05, 0.3):
            pts = path.sample_positions(spacing)
            ref = rollout_positions(path, spacing)
            assert pts.shape == ref.shape
            assert np.max(np.abs(pts - ref)) < 1e-12
            assert np.array_equal(pts[0], start[0])
            assert np.max(np.abs(pts[-1] - path.p[-1])) < 1e-12

    def test_determinism(self):
        g = open_grid()
        g.set_occupied_box((4.0, 3.0, 0.0), (4.4, 10.0, 3.0))
        traj = static_prediction((8.0, 7.0, 1.5))
        start = np.array([(2.0, 5.0, 1.5), (0.3, 0.0, 0.0)], dtype=float)
        w = SearchWeights()
        p1 = search_toward(start, traj, g, w)
        p2 = search_toward(start, traj, g, w)
        assert np.array_equal(p1.controls, p2.controls)
        assert np.array_equal(p1.p, p2.p)

    def test_two_topology_routing(self):
        # block between start and goal; the slightly shorter west route hides
        # the predicted target position, the east route keeps sight of it.
        # The start must see the target (tracking regime): the penalty steers
        # the search onto routes that stay visible, not out of blind starts.
        g = open_grid(140, 140, 20)
        g.set_occupied_box((5.0, 4.0, 0.0), (7.0, 8.0, 2.0))
        x_tp = np.array([9.5, 7.0, 1.0])
        start = np.array([(4.8, 1.0, 1.0), (0.0, 0.0, 0.0)], dtype=float)
        goal = np.array([(6.0, 9.0, 1.0), (0.0, 0.0, 0.0)], dtype=float)
        assert g.line_of_sight(start[0], x_tp)

        def side_of_block(path):
            # +1 if the path passes east of the block, -1 if west
            pts = path.sample_positions(0.05)
            mid = pts[(pts[:, 1] > 4.0) & (pts[:, 1] < 8.0)]
            return 1 if np.median(mid[:, 0]) > 6.0 else -1

        w_occ = SearchWeights(p_occ=200.0, node_budget=60000)
        w_plain = SearchWeights(p_occ=0.0, node_budget=60000)
        path_occ = search(start, g, w_occ, goal, x_tp)
        path_plain = search(start, g, w_plain, goal, x_tp)
        assert path_occ.info["reached_goal"] and path_plain.info["reached_goal"]
        assert side_of_block(path_occ) == 1
        assert side_of_block(path_plain) == -1
        # ablation switch: p_occ = 0 must reduce to the plain shortest search
        assert path_plain.total_cost <= path_occ.total_cost + 1e-9

    def test_los_fraction_with_penalty(self):
        g = open_grid(140, 140, 20)
        g.set_occupied_box((6.0, 0.0, 0.0), (6.2, 3.6, 2.0))
        g.set_occupied_box((6.0, 4.4, 0.0), (6.2, 9.6, 2.0))
        g.set_occupied_box((6.0, 10.4, 0.0), (6.2, 14.0, 2.0))
        target = np.array([8.0, 10.0, 1.0])
        traj = static_prediction(target)
        start = np.array([(3.0, 9.5, 1.0), (0.0, 0.0, 0.0)], dtype=float)
        path = search_toward(start, traj, g, SearchWeights(p_occ=200.0))

        def los_frac(path):
            good = sum(g.line_of_sight(p, target) for p in path.p)
            return good / len(path.p)

        assert los_frac(path) >= 0.9
