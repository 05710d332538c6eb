import dataclasses

import numpy as np
import pytest

from aerotrack import perception
from aerotrack.errors import FitDiverged
from aerotrack.grid import OccupancyGrid
from aerotrack.perception import (
    CameraModel,
    GimbalState,
    PerceptionConfig,
    Pose,
    RegressionParams,
    calibration_samples,
    fit_regression,
    fit_samples,
    gimbal_search_step,
    gimbal_track_step,
    localize,
    project_target,
)

BODY_LEN = 0.45
DEFAULT_CAMERA = CameraModel.from_fov(np.deg2rad(87.0))  # the scenario default's camera
CFG = PerceptionConfig()  # the gimbal gains and rates the tracker flies with


@pytest.fixture(autouse=True)
def cold_fit_cache():
    """Every test starts with no memoized fit, so the calibration draw and its fit really run."""
    perception.fit_regression.cache_clear()


@pytest.fixture
def fitted_params():
    return fit_regression(DEFAULT_CAMERA, BODY_LEN, 0.0, 0.0)


def single_range_samples():
    """Ten noiseless samples all at a 3 m range, which no depth map can fit."""
    pose = Pose(np.zeros(3), 0.0)
    truth = np.array([[3.0, 0.1 * i - 0.5, 1.0] for i in range(10)])
    feats = [project_target(p, BODY_LEN, DEFAULT_CAMERA, pose) for p in truth]
    return (np.array([f.body_len_px for f in feats]), np.array([f.u_px for f in feats]), truth)


class TestCameraModel:
    def test_fov_invariant(self):
        cam = CameraModel.from_fov(np.deg2rad(87.0))
        assert cam.horizontal_fov == pytest.approx(np.deg2rad(87.0))

    def test_default_resolution(self):
        assert DEFAULT_CAMERA.image_width_px == 640


class TestProjection:
    def test_centered_target(self):
        pose = Pose(np.zeros(3), 0.0)
        f = project_target((3.0, 0.0, 0.0), BODY_LEN, DEFAULT_CAMERA, pose)
        assert f is not None
        assert f.u_px == pytest.approx(DEFAULT_CAMERA.image_width_px / 2)

    def test_behind_camera(self):
        pose = Pose(np.zeros(3), 0.0)
        assert project_target((-1.0, 0.0, 0.0), BODY_LEN, DEFAULT_CAMERA, pose) is None

    def test_outside_fov(self):
        pose = Pose(np.zeros(3), 0.0)
        assert project_target((1.0, 5.0, 0.0), BODY_LEN, DEFAULT_CAMERA, pose) is None

    def test_pinhole_scaling(self):
        pose = Pose(np.zeros(3), 0.0)
        f1 = project_target((2.0, 0.3, 0.0), BODY_LEN, DEFAULT_CAMERA, pose)
        f2 = project_target((4.0, 0.6, 0.0), BODY_LEN, DEFAULT_CAMERA, pose)
        assert f1.body_len_px == pytest.approx(2 * f2.body_len_px, rel=1e-9)

    def test_occlusion(self):
        g = OccupancyGrid((0, 0, 0), 0.1, (60, 60, 20))
        g.set_occupied_box((2.0, 0.0, 0.0), (2.1, 6.0, 2.0))
        pose = Pose(np.array([1.0, 3.0, 1.0]), 0.0)
        target = (4.0, 3.0, 1.0)
        assert project_target(target, BODY_LEN, DEFAULT_CAMERA, pose) is not None
        assert project_target(target, BODY_LEN, DEFAULT_CAMERA, pose, grid=g) is None

    def test_yawed_camera(self):
        pose = Pose(np.zeros(3), np.pi / 2)  # looking along +y
        f = project_target((0.0, 3.0, 0.0), BODY_LEN, DEFAULT_CAMERA, pose)
        assert f is not None
        assert f.u_px == pytest.approx(DEFAULT_CAMERA.image_width_px / 2)


class TestRegression:
    def test_noiseless_round_trip(self, fitted_params):
        # self-consistency oracle: project then localize over the band
        pose = Pose(np.array([0.0, 0.0, 1.0]), 0.3)
        rng = np.random.default_rng(1)
        errors = []
        draws = np.random.default_rng(2).normal(2.5, 1.0, 4000)
        ranges = draws[(draws > 1.0) & (draws < 5.0)][:400]
        for depth in ranges:
            bearing = rng.uniform(-0.6, 0.6)
            p_cam = np.array([depth, depth * np.tan(bearing), fitted_params.z_const])
            target = pose.camera_to_world(p_cam)
            f = project_target(target, BODY_LEN, DEFAULT_CAMERA, pose)
            if f is None:
                continue
            obs = localize(f, fitted_params, pose, 0.0)
            errors.append(np.linalg.norm(obs.position_world - target))
        rms = float(np.sqrt(np.mean(np.square(errors))))
        assert rms < 0.01

    def test_depth_monotone_in_body_len(self, fitted_params):
        L = np.linspace(35.0, 150.0, 100)
        depth = fitted_params.depth(L)
        assert np.all(np.diff(depth) < 0)

    def test_centered_target_zero_lateral(self, fitted_params):
        u_c = DEFAULT_CAMERA.image_width_px / 2
        assert abs(fitted_params.lateral(u_c, 3.0)) < 0.02

    def test_single_range_dataset_diverges(self):
        with pytest.raises(FitDiverged):
            fit_samples(*single_range_samples())

    def test_noisy_error_near_paper_level(self):
        # sigma 2 px tuned to land near the reported ~0.2 m average error
        params = fit_regression(DEFAULT_CAMERA, BODY_LEN, 2.0, 2.0)
        pose = Pose(np.zeros(3), 0.0)
        rng = np.random.default_rng(4)
        errors = []
        for t in np.linspace(0, 2 * np.pi, 500):
            # figure-eight sweep through the range band
            depth = 3.0 + 1.9 * np.sin(t)
            lateral = 1.2 * np.sin(2 * t)
            target = np.array([depth, lateral, 0.9])
            f = project_target(target, BODY_LEN, DEFAULT_CAMERA, pose,
                               sigma_u=2.0, sigma_len=2.0, rng=rng)
            if f is None:
                continue
            obs = localize(f, params, pose, t)
            assert obs.timestamp == t  # localize stamps the time it is given
            errors.append(np.linalg.norm(obs.position_world - target))
        mean_err = float(np.mean(errors))
        assert 0.10 <= mean_err <= 0.35


class TestRegressionExactness:
    """The lockstep multi-start fit reproduces the one-start-at-a-time solver."""

    def test_default_dataset_values(self):
        # the fit TrackerWorld makes for the default perception config; values
        # recorded when the batched cost became an einsum (the fit stops on a
        # 1e-10 relative cost drop, so the summation order moved them by about 1e-8)
        assert fit_regression(DEFAULT_CAMERA, BODY_LEN, 2.0, 2.0) == RegressionParams(
            lam1=11.734251709904111, lam2=3.3067328452187352,
            k1=-0.05315664179610821, k2=-0.008046828950235061,
            lam3=-3.9177658980012358, lam4=4.469482543048546,
            k3=0.00019842135919924818, k4=-0.00021314314555680175,
            a=1.7094179187473357, b=0.03281011336390456,
            z_const=0.8880153255388319)

    @staticmethod
    def _depth_problem():
        L = np.linspace(35.0, 150.0, 120)
        p_true = np.array([11.7, 3.3, -0.053, -0.008])
        model = perception._depth_resid_jac(L, 0.0)
        x_gt = model(p_true[None])[0][0]
        starts = np.array([
            p_true,                         # exact optimum: cost 0 never drops
            [10.0, 4.0, -0.05, -0.01],
            [1.0, 1.0, -0.2, -0.001],
            [12.5, 2.5, -0.06, -0.007],
            [0.0, 0.0, 0.5, 0.5],           # saturated exponentials
        ])
        return perception._depth_resid_jac(L, x_gt), starts

    @staticmethod
    def _counting(fn):
        calls = [0]

        def counted(P):
            calls[0] += 1
            return fn(P)
        return counted, calls

    def _assert_rows_independent(self, fn, starts):
        P, cost, J = perception._lockstep_gauss_newton(fn, starts)
        for i, p0 in enumerate(starts):
            P1, cost1, J1 = perception._lockstep_gauss_newton(fn, p0[None])
            assert np.array_equal(P[i], P1[0], equal_nan=True)
            assert np.array_equal(cost[i], cost1[0], equal_nan=True)
            assert np.array_equal(J[i], J1[0], equal_nan=True)
        return P, cost

    def test_rows_match_one_row_runs(self):
        fn, starts = self._depth_problem()
        P, cost = self._assert_rows_independent(fn, starts)
        assert cost[0] == 0.0 and np.array_equal(P[0], starts[0])
        # the exact start is rejected until mu exceeds 1e12: 17 tenfold
        # raises from 1e-4, each after one evaluation, plus the first one
        counted, calls = self._counting(fn)
        perception._lockstep_gauss_newton(counted, starts[:1])
        assert calls[0] == 1 + 17

    def test_lateral_rows_match_one_row_runs(self):
        rng = np.random.default_rng(5)
        u = rng.uniform(0.0, 640.0, 80)
        x_hat = rng.uniform(1.0, 5.0, 80)
        y_gt = (u - 320.0) / 400.0 * x_hat
        starts = np.column_stack([
            rng.normal(0.0, 3.0, (4, 2)), rng.uniform(-5e-3, 5e-3, (4, 2)),
            np.ones(4), np.zeros(4)])
        self._assert_rows_independent(
            perception._lateral_resid_jac(u, x_hat, y_gt), starts)

    def test_singular_rows_alone_raise_damping(self, monkeypatch):
        # a row whose damped system does not solve sits out every iteration
        # while the other rows advance as they would alone
        fn, starts = self._depth_problem()
        starts[4] = [1.0, 1.0, 1.0, 1.0]
        real_solve = np.linalg.solve

        def solve(M, b):
            if np.any(M[..., 0, 0] > 1e40):
                raise np.linalg.LinAlgError("singular matrix")
            return real_solve(M, b)

        monkeypatch.setattr(np.linalg, "solve", solve)
        P, _ = self._assert_rows_independent(fn, starts)
        assert np.array_equal(P[4], starts[4])
        counted, calls = self._counting(fn)
        perception._lockstep_gauss_newton(counted, starts[4:])
        assert calls[0] == 1  # max_iter spent without one evaluation

    def test_too_small_dataset_diverges(self):
        samples = calibration_samples(DEFAULT_CAMERA, BODY_LEN, 0.0, 0.0)
        with pytest.raises(FitDiverged, match="too small"):
            fit_samples(*(a[:7] for a in samples))


class TestCalibrationDatasetMemo:
    """``fit_regression`` memoizes one fit per camera, body length and noise sigmas."""

    @staticmethod
    def fit(cam=DEFAULT_CAMERA, body_len=BODY_LEN, sigma_u=2.0):
        return fit_regression(cam, body_len, sigma_u, 2.0)

    @staticmethod
    def hits_misses():
        info = perception.fit_regression.cache_info()
        return info.hits, info.misses

    def test_hit_equals_fresh_build(self):
        self.fit()
        hit = self.fit()
        assert self.hits_misses() == (1, 1)
        perception.fit_regression.cache_clear()
        built = self.fit()
        assert built is not hit and built == hit

    def test_hit_returns_the_same_dataset(self):
        # the memo holds the fit of the drawn dataset, and a hit hands out that object
        first = self.fit()
        assert self.fit() is first
        assert self.hits_misses() == (1, 1)

    @pytest.mark.parametrize("change", [
        dict(body_len=0.5), dict(sigma_u=1.0), dict(cam=CameraModel.from_fov(np.deg2rad(60.0)))])
    def test_changed_argument_misses(self, change):
        first = self.fit()
        assert self.fit(**change) != first
        assert self.hits_misses() == (0, 2)


class TestRegressionMemo:
    """A memoized fit is returned without drawing or fitting a sample again."""

    @staticmethod
    def count(monkeypatch, name):
        calls = []
        real = getattr(perception, name)

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(perception, name, counted)
        return calls

    def test_hit_equals_cold_fit(self, monkeypatch):
        solves = self.count(monkeypatch, "_lockstep_gauss_newton")
        projections = self.count(monkeypatch, "project_target")
        first = fit_regression(DEFAULT_CAMERA, BODY_LEN, 2.0, 2.0)
        assert (len(solves), len(projections)) == (2, 320)  # depth map, then lateral
        hit = fit_regression(DEFAULT_CAMERA, BODY_LEN, 2.0, 2.0)
        assert (len(solves), len(projections)) == (2, 320)  # the hit draws and solves nothing
        assert hit is first
        perception.fit_regression.cache_clear()
        assert hit == fit_regression(DEFAULT_CAMERA, BODY_LEN, 2.0, 2.0)
        assert (len(solves), len(projections)) == (4, 640)

    def test_hit_on_a_made_dataset_reads_no_sample(self, monkeypatch):
        draws = self.count(monkeypatch, "calibration_samples")
        first = fit_regression(DEFAULT_CAMERA, BODY_LEN, 2.0, 2.0)
        assert len(draws) == 1
        assert fit_regression(DEFAULT_CAMERA, BODY_LEN, 2.0, 2.0) is first
        assert len(draws) == 1  # the hit draws no calibration sample

    def test_failures_are_raised_on_every_call(self, monkeypatch):
        monkeypatch.setattr(perception, "calibration_samples",
                            lambda *args: single_range_samples())
        solves = self.count(monkeypatch, "_lockstep_gauss_newton")
        for _ in range(2):
            with pytest.raises(FitDiverged, match="rank deficient"):
                fit_regression(DEFAULT_CAMERA, BODY_LEN, 0.0, 0.0)
        assert len(solves) == 2  # one depth solve per call, then the rank check raises

    def test_params_are_frozen(self, fitted_params):
        with pytest.raises(dataclasses.FrozenInstanceError):
            fitted_params.lam1 = 0.0


class TestGimbal:
    def test_zero_error_holds(self):
        g = GimbalState(yaw=0.5)
        g2 = gimbal_track_step(g, DEFAULT_CAMERA.image_width_px / 2, CFG, 0.1)
        assert g2.yaw == pytest.approx(0.5)

    def test_saturation(self):
        g = GimbalState(yaw=0.0)
        g2 = gimbal_track_step(g, 640.0, dataclasses.replace(CFG, yaw_rate_limit=1.0), 0.1)
        assert abs(g2.yaw - g.yaw) == pytest.approx(1.0 * 0.1)

    def test_closed_loop_step_response(self):
        # fixed target 40 degrees off-bearing; pixel error decays within 2 s
        target = np.array([3.0 * np.cos(0.7), 3.0 * np.sin(0.7), 0.0])
        g = GimbalState(yaw=0.0)
        dt = 1.0 / 13.0
        err0 = None
        for k in range(int(2.0 / dt) + 1):
            pose = Pose(np.zeros(3), g.yaw)
            f = project_target(target, BODY_LEN, DEFAULT_CAMERA, pose)
            assert f is not None
            err = f.u_px - DEFAULT_CAMERA.image_width_px / 2
            if err0 is None:
                err0 = err
            g = gimbal_track_step(g, f.u_px, CFG, dt)
        assert abs(err) < 0.05 * abs(err0)

    def test_rate_continuity(self):
        rng = np.random.default_rng(8)
        cfg = dataclasses.replace(CFG, yaw_rate_limit=2.0)
        g = GimbalState(yaw=0.0)
        dt = 1 / 13
        for _ in range(100):
            u = rng.uniform(0, 640)
            g2 = gimbal_track_step(g, u, cfg, dt)
            assert abs(g2.yaw - g.yaw) <= cfg.yaw_rate_limit * dt + 1e-12
            g = g2

    def test_search_zero_dt(self):
        g = GimbalState(yaw=1.0)
        assert gimbal_search_step(g, CFG, 0.0).yaw == pytest.approx(1.0)

    def test_search_full_revolution(self):
        omega = CFG.omega_search
        g = GimbalState(yaw=0.0)
        total = 2 * np.pi / omega
        steps = 200
        for _ in range(steps):
            g = gimbal_search_step(g, CFG, total / steps)
        assert g.yaw == pytest.approx(2 * np.pi)

    def test_search_covers_all_bearings(self):
        omega = CFG.omega_search
        fov = DEFAULT_CAMERA.horizontal_fov
        g = GimbalState(yaw=0.3)
        dt = 1 / 13
        yaws = [g.yaw]
        for _ in range(int(2 * np.pi / omega / dt) + 2):
            g = gimbal_search_step(g, CFG, dt)
            yaws.append(g.yaw)
        yaws = np.asarray(yaws)
        for bearing in np.linspace(-np.pi, np.pi, 73):
            dist = np.abs((yaws - bearing + np.pi) % (2 * np.pi) - np.pi)
            assert dist.min() < fov / 2
