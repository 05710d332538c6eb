import dataclasses
import json
import operator

import numpy as np
import pytest

from aerotrack import perception
from aerotrack.errors import FitDiverged
from aerotrack.grid import OccupancyGrid
from aerotrack.perception import (
    DEFAULT_CAMERA,
    CameraModel,
    GimbalState,
    Pose,
    RegressionParams,
    fit_regression,
    gimbal_search_step,
    gimbal_track_step,
    localize,
    make_calibration_dataset,
    project_target,
)

BODY_LEN = 0.45


@pytest.fixture(autouse=True)
def cold_fit_cache():
    """Every test starts with no memoized dataset, so the dataset and its fit really run."""
    perception._calibration_samples.cache_clear()


@pytest.fixture
def fitted_params():
    dataset = make_calibration_dataset(DEFAULT_CAMERA, BODY_LEN, n=320, seed=0)
    return fit_regression(dataset)


class TestCameraModel:
    def test_fov_invariant(self):
        cam = CameraModel.from_fov(np.deg2rad(87.0))
        assert cam.horizontal_fov == pytest.approx(np.deg2rad(87.0))

    def test_default_resolution(self):
        assert DEFAULT_CAMERA.image_width_px == 640
        assert DEFAULT_CAMERA.image_height_px == 480


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
            obs = localize(f, fitted_params, pose)
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
        pose = Pose(np.zeros(3), 0.0)
        samples = []
        for i in range(10):
            target = np.array([3.0, 0.1 * i - 0.5, 1.0])
            f = project_target(target, BODY_LEN, DEFAULT_CAMERA, pose, timestamp=i)
            samples.append((f, target))
        with pytest.raises(FitDiverged):
            fit_regression(samples)

    def test_noisy_error_near_paper_level(self):
        # sigma 2 px tuned to land near the reported ~0.2 m average error
        dataset = make_calibration_dataset(
            DEFAULT_CAMERA, BODY_LEN, n=400, seed=3, sigma_u=2.0, sigma_len=2.0)
        params = fit_regression(dataset)
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
            obs = localize(f, params, pose)
            errors.append(np.linalg.norm(obs.position_world - target))
        mean_err = float(np.mean(errors))
        assert 0.10 <= mean_err <= 0.35

    def test_params_json_round_trip(self, fitted_params, tmp_path):
        path = tmp_path / "params.json"
        fitted_params.save(path)
        assert json.loads(path.read_text()) == fitted_params.to_dict()


class TestRegressionExactness:
    """The lockstep multi-start fit reproduces the one-start-at-a-time solver."""

    def test_default_dataset_values(self):
        # the calibration dataset TrackerWorld fits; values recorded when the
        # batched cost became an einsum (the fit stops on a 1e-10 relative
        # cost drop, so the summation order moved them by about 1e-8)
        dataset = make_calibration_dataset(
            DEFAULT_CAMERA, BODY_LEN, n=320, seed=0, sigma_u=2.0, sigma_len=2.0)
        assert fit_regression(dataset) == RegressionParams(
            lam1=11.734251709904111, lam2=3.3067328452187352,
            k1=-0.05315664179610821, k2=-0.008046828950235061,
            lam3=-3.9177658980012358, lam4=4.469482543048546,
            k3=0.00019842135919924818, k4=-0.00021314314555680175,
            a=1.7094179187473357, b=0.03281011336390456,
            z_const=0.8880153255388319, rms_residual=0.12946028778440033)

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
        dataset = make_calibration_dataset(DEFAULT_CAMERA, BODY_LEN, n=320, seed=0)
        with pytest.raises(FitDiverged, match="too small"):
            fit_regression(dataset[:7])


class TestCalibrationDatasetMemo:
    """``make_calibration_dataset`` builds once per argument set and hands out that dataset."""

    @staticmethod
    def dataset(cam=DEFAULT_CAMERA, range_band=(1.0, 5.0), seed=0, sigma_u=2.0):
        return make_calibration_dataset(cam, BODY_LEN, range_band=range_band, seed=seed,
                                        sigma_u=sigma_u, sigma_len=2.0)

    @staticmethod
    def hits_misses():
        info = perception._calibration_samples.cache_info()
        return info.hits, info.misses

    def test_hit_equals_fresh_build(self):
        self.dataset()
        hit = self.dataset()
        assert self.hits_misses() == (1, 1)
        perception._calibration_samples.cache_clear()
        built = self.dataset()
        assert len(hit) == len(built) > 0
        for (f_hit, p_hit), (f_built, p_built) in zip(hit, built):
            assert f_hit == f_built
            assert np.array_equal(p_hit, p_built)

    def test_targets_are_read_only(self):
        _, target = self.dataset()[0]
        with pytest.raises(ValueError):
            target[0] = 0.0

    def test_hit_returns_the_same_dataset(self):
        first = self.dataset()
        assert self.dataset() is first
        assert self.hits_misses() == (1, 1)

    @pytest.mark.parametrize("edit, error", [
        (lambda d: d.append(d[0]), AttributeError),
        (lambda d: operator.setitem(d, 0, d[1]), TypeError),
        (lambda d: operator.delitem(d, slice(0, 10)), TypeError),
        (lambda d: d.reverse(), AttributeError),
        (lambda d: d.sort(key=lambda s: s[0].u_px), AttributeError),
    ], ids=["append", "setitem", "delitem", "reverse", "sort"])
    def test_dataset_cannot_be_edited(self, edit, error):
        dataset = self.dataset()
        with pytest.raises(error):
            edit(dataset)
        assert self.dataset() is dataset

    @pytest.mark.parametrize("change", [
        dict(seed=1), dict(sigma_u=1.0), dict(cam=CameraModel.from_fov(np.deg2rad(60.0)))])
    def test_changed_argument_misses(self, change):
        self.dataset()
        self.dataset(**change)
        assert self.hits_misses() == (0, 2)

    def test_range_band_list_and_tuple_share_an_entry(self):
        self.dataset(range_band=[1.0, 5.0])
        self.dataset(range_band=(1.0, 5.0))
        assert self.hits_misses() == (1, 1)


class TestRegressionMemo:
    """A ``CalibrationDataset`` fits once and keeps its fit."""

    @staticmethod
    def dataset():
        return make_calibration_dataset(
            DEFAULT_CAMERA, BODY_LEN, n=320, seed=0, sigma_u=2.0, sigma_len=2.0)

    @staticmethod
    def count_solves(monkeypatch):
        calls = []
        real = perception._lockstep_gauss_newton

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(perception, "_lockstep_gauss_newton", counted)
        return calls

    def test_hit_equals_cold_fit(self, monkeypatch):
        solves = self.count_solves(monkeypatch)
        first = fit_regression(self.dataset())
        hit = fit_regression(self.dataset())
        assert len(solves) == 2  # depth map, then lateral; the hit solves nothing
        assert hit is first
        perception._calibration_samples.cache_clear()
        assert hit == fit_regression(self.dataset())
        assert len(solves) == 4

    def test_hit_on_a_made_dataset_reads_no_sample(self, monkeypatch):
        made = self.dataset()
        first = fit_regression(made)
        plain = list(made)
        reads = []
        monkeypatch.setattr(perception.CalibrationDataset, "__iter__",
                            lambda d: reads.append(len(d)) or tuple.__iter__(d))
        assert fit_regression(made) is first
        assert reads == []
        refit = fit_regression(plain)  # a plain list is fitted from its samples
        assert refit is not first and refit == first
        assert reads

    def test_failures_are_raised_on_every_call(self, monkeypatch):
        pose = Pose(np.zeros(3), 0.0)
        samples = []
        for i in range(10):
            target = np.array([3.0, 0.1 * i - 0.5, 1.0])
            samples.append((project_target(target, BODY_LEN, DEFAULT_CAMERA, pose), target))
        dataset = perception.CalibrationDataset(samples)
        solves = self.count_solves(monkeypatch)
        for _ in range(2):
            with pytest.raises(FitDiverged, match="rank deficient"):
                fit_regression(dataset)
        assert len(solves) == 2  # one depth solve per call, then the rank check raises

    def test_params_are_frozen(self, fitted_params):
        with pytest.raises(dataclasses.FrozenInstanceError):
            fitted_params.lam1 = 0.0


class TestGimbal:
    def test_zero_error_holds(self):
        g = GimbalState(yaw=0.5)
        g2 = gimbal_track_step(g, DEFAULT_CAMERA.image_width_px / 2, DEFAULT_CAMERA, 0.1)
        assert g2.yaw == pytest.approx(0.5)

    def test_saturation(self):
        g = GimbalState(yaw=0.0, yaw_rate_limit=1.0)
        g2 = gimbal_track_step(g, 640.0, DEFAULT_CAMERA, dt=0.1)
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
            g = gimbal_track_step(g, f.u_px, DEFAULT_CAMERA, dt)
        assert abs(err) < 0.05 * abs(err0)

    def test_rate_continuity(self):
        rng = np.random.default_rng(8)
        g = GimbalState(yaw=0.0, yaw_rate_limit=2.0)
        dt = 1 / 13
        for _ in range(100):
            u = rng.uniform(0, 640)
            g2 = gimbal_track_step(g, u, DEFAULT_CAMERA, dt)
            assert abs(g2.yaw - g.yaw) <= g.yaw_rate_limit * dt + 1e-12
            g = g2

    def test_search_zero_dt(self):
        g = GimbalState(yaw=1.0)
        assert gimbal_search_step(g, 0.0).yaw == pytest.approx(1.0)

    def test_search_full_revolution(self):
        omega = 1.5
        g = GimbalState(yaw=0.0)
        total = 2 * np.pi / omega
        steps = 200
        for _ in range(steps):
            g = gimbal_search_step(g, total / steps, omega_search=omega)
        assert g.yaw == pytest.approx(2 * np.pi)

    def test_search_covers_all_bearings(self):
        omega = 1.5
        fov = DEFAULT_CAMERA.horizontal_fov
        g = GimbalState(yaw=0.3)
        dt = 1 / 13
        yaws = [g.yaw]
        for _ in range(int(2 * np.pi / omega / dt) + 2):
            g = gimbal_search_step(g, dt, omega_search=omega)
            yaws.append(g.yaw)
        yaws = np.asarray(yaws)
        for bearing in np.linspace(-np.pi, np.pi, 73):
            dist = np.abs((yaws - bearing + np.pi) % (2 * np.pi) - np.pi)
            assert dist.min() < fov / 2
