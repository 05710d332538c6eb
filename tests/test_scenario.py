import math
from dataclasses import fields, replace

import numpy as np
import pytest

from aerotrack import benchmarks, kino_search, tracker
from aerotrack.errors import InvalidScenario
from aerotrack.kino_search import SearchWeights
from aerotrack.perception import CameraModel
from aerotrack.prediction import PredictionWeights
from aerotrack.scenario import PerceptionConfig, Scenario, TrackerParams
from aerotrack.traj_opt import OptWeights


SECTIONS = {"perception": PerceptionConfig, "prediction": PredictionWeights,
            "search": SearchWeights, "opt": OptWeights, "tracker": TrackerParams}


def valid():
    return benchmarks.ALL["sharp_turn_low"]()


def with_target(**fields):
    raw = valid()
    raw["target"] = dict(raw["target"], **fields)
    return raw


def with_perception(**fields):
    raw = valid()
    raw["perception"] = dict(raw.get("perception", {}), **fields)
    return raw


def with_search(**fields):
    raw = valid()
    raw["search"] = dict(raw.get("search", {}), **fields)
    return raw


def with_section(key, **fields):
    raw = valid()
    raw[key] = dict(raw.get(key, {}), **fields)
    return raw


def with_flat_box():
    raw = valid()
    box = raw["map"]["obstacles"][0]
    raw["map"]["obstacles"][0] = dict(box, max=box["min"])
    return raw


class TestFromDict:
    def test_builtin_scenarios_are_valid(self):
        for build in benchmarks.ALL.values():
            Scenario.from_dict(build())

    @pytest.mark.parametrize("raw, message", [
        (dict(valid(), perception=[1, 2]), "perception: expected an object"),
        (dict(valid(), search=[1, 2]), "search: expected an object"),
        (dict(valid(), duration="abc"), "duration"),
        (dict(valid(), duration=math.nan), "duration must be a finite number > 0"),
        (dict(valid(), seed="x"), "seed"),
        (dict(valid(), quad_start=[1, "x"]), "quad_start"),
        (dict(valid(), quad_start=[1.0, 2.0]), "quad_start must be 3 finite numbers"),
        (with_perception(horizontal_fov_deg=0), "horizontal_fov_deg"),
        (with_perception(horizontal_fov_deg=200), "horizontal_fov_deg"),
        (with_target(speed=math.nan), "target: speed must be a finite number > 0"),
        (with_target(smoothing=math.nan), "target: smoothing must be a finite number"),
        (with_target(waypoints=[[1.0, 1.0, 1.0], [math.nan, 1.0, 1.0]]),
         "target: waypoints must be at least 2 rows of 3 finite numbers"),
        (dict(valid(), seed=-1), "seed must be a non-negative integer"),
        (dict(valid(), seed=2.7), "seed must be a non-negative integer"),
        (dict(valid(), seed=True), "seed must be a non-negative integer"),
        (dict(valid(), seed="3"), "seed must be a non-negative integer"),
        (with_search(rho=0), "search: rho must be a finite number > 0"),
        (with_search(rho="1"), "search: rho must be a finite number > 0"),
        (with_search(a_max=3.0), "search: .*a_max"),
        (with_section("tracker", replan_hz=0), "tracker: replan_hz must be a finite number > 0"),
        (with_section("tracker", replan_hz=-5), "tracker: replan_hz must be a finite number > 0"),
        (with_section("tracker", replan_hz=True), "tracker: replan_hz must be a finite number > 0"),
        (dict(valid(), duration=0.01), "duration .* shorter than one replanning cycle"),
        (with_section("perception", body_len=0), "perception: body_len must be a finite number > 0"),
        (with_section("prediction", degree=0), "prediction: degree must be an integer >= 1"),
        (with_section("prediction", degree=2.5), "prediction: degree must be an integer >= 1"),
        (with_section("prediction", degree=True), "prediction: degree must be an integer >= 1"),
        (with_section("prediction", window=0), "prediction: window must be a finite number > 0"),
        (with_section("prediction", window=-1), "prediction: window must be a finite number > 0"),
        (with_section("opt", max_iter="20"), "opt: max_iter must be a non-negative integer"),
        (with_section("opt", v_max="fast"), "opt: v_max must be a finite number"),
        (with_search(tau="0.3"), "search: tau must be a finite number"),
        (with_section("tracker", d_track="3"), "tracker: d_track must be a finite number"),
        (with_perception(sigma_u="2"), "perception: sigma_u must be a finite number"),
        (with_section("prediction", v_max="3"), "prediction: v_max must be a finite number"),
        (with_target(speed="1.2"), "target: speed must be a finite number > 0"),
        (with_target(smoothing=True), "target: smoothing must be a finite number >= 0"),
        (with_target(smoothing=-0.5), "target: smoothing must be a finite number >= 0"),
        (with_target(waypoints=[[3.0, 7.2, 0.9]]), "target: waypoints must be at least 2 rows"),
        (with_perception(horizontal_fov_deg=True), "horizontal_fov_deg"),
        (dict(valid(), duration="2"), "duration must be a finite number > 0"),
        (dict(valid(), quad_start=["2.5", "7", "1.3"]), "quad_start must be 3 finite numbers"),
        (with_search(node_budget=10.5), "search: node_budget must be an integer >= 1"),
        (with_search(freeze_z=1), "^search: freeze_z: unknown key$"),
        (with_section("prediction", tau_w=0), "prediction: tau_w must be a finite number > 0"),
        (with_section("prediction", a_max=-1), "prediction: a_max must be a finite number > 0"),
        (with_section("prediction", horizon=-3),
         "prediction: horizon must be a finite number >= 0"),
        (with_search(tau=0), "search: tau must be a finite number > 0"),
        (with_search(vel_bin=0), "search: vel_bin must be a finite number > 0"),
        (dict(valid(), quad_start=[-5, 7, 1.3]),
         r"quad_start \[-5.0, 7.0, 1.3\] outside map bounds"),
        (with_search(v_max=0), "search: v_max must be a finite number > 0"),
        (with_search(u_grid=[]),
         "search: u_grid must be a list of finite numbers with a non-zero value"),
        (with_search(u_grid=[0]),
         "search: u_grid must be a list of finite numbers with a non-zero value"),
        (with_search(node_budget=0), "search: node_budget must be an integer >= 1"),
        (with_section("opt", v_max=0), "opt: v_max must be a finite number > 0"),
        (with_section("opt", a_max=0), "opt: a_max must be a finite number > 0"),
        (with_section("tracker", loss_timeout=0),
         "tracker: loss_timeout must be a finite number > 0"),
        (with_search(t_lookahead=-5), "search: t_lookahead must be a finite number >= 0"),
        (with_section("opt", t_min=-1), "opt: t_min must be a finite number >= 0"),
        (with_perception(yaw_rate_limit=-3),
         "perception: yaw_rate_limit must be a finite number > 0"),
        (with_perception(yaw_rate_limit=0),
         "perception: yaw_rate_limit must be a finite number > 0"),
        (with_section("prediction", degree=30),
         r"prediction degree 30 needs 31 observations, more than the 26 cycles"),
        (with_section("prediction", degree=25, window=1.0), "prediction degree 25 needs 26"),
        (dict(valid(), name=7), "name must be a string"),
        (with_section("tracker", d_fail=-1), "tracker: d_fail must be a finite number > 0"),
        (with_section("tracker", t_fail=-1), "tracker: t_fail must be a finite number >= 0"),
        (with_flat_box(), r"^map: obstacles\[0\]: holds no volume"),
        (dict(with_flat_box(), seed=-1),
         r"^map: obstacles\[0\]: holds no volume, \[7.0, 8.0, 0.0\] is not below "
         r"\[7.0, 8.0, 0.0\]; seed must be a non-negative integer, got -1$"),
        (with_search(r_goal=-1), "search: r_goal must be a finite number > 0"),
        (with_search(r_goal=0), "search: r_goal must be a finite number > 0"),
        (with_search(v_goal_tol=0), "search: v_goal_tol must be a finite number > 0"),
        (with_perception(sigma_u=-2), "perception: sigma_u must be a finite number >= 0"),
        (with_perception(sigma_len=-2), "perception: sigma_len must be a finite number >= 0"),
    ], ids=["perception-list", "search-list", "duration-text", "duration-nan", "seed-text",
            "quad-start-text", "quad-start-2d", "fov-0", "fov-200", "target-speed-nan",
            "target-smoothing-nan", "target-waypoint-nan", "seed-negative", "seed-fraction",
            "seed-bool", "seed-string", "rho-0", "rho-string", "search-a-max", "replan-hz-0",
            "replan-hz-negative", "replan-hz-bool", "duration-below-one-cycle", "body-len-0",
            "degree-0", "degree-fraction", "degree-bool", "window-0", "window-negative",
            "max-iter-text", "opt-v-max-text", "tau-text", "d-track-text", "sigma-u-text",
            "prediction-v-max-text", "target-speed-text", "target-smoothing-bool",
            "target-smoothing-negative", "target-one-waypoint", "fov-bool", "duration-text-number",
            "quad-start-text-numbers", "node-budget-fraction", "freeze-z-int", "tau-w-0",
            "prediction-a-max-negative", "horizon-negative", "tau-0", "vel-bin-0",
            "quad-start-outside-map", "search-v-max-0", "u-grid-empty", "u-grid-zero",
            "node-budget-0", "opt-v-max-0", "opt-a-max-0", "loss-timeout-0",
            "t-lookahead-negative", "t-min-negative", "yaw-rate-limit-negative",
            "yaw-rate-limit-0", "degree-beyond-window", "degree-beyond-short-window",
            "name-number", "tracker-d-fail-negative", "tracker-t-fail-negative",
            "map-box-no-volume", "map-box-flat-and-seed-negative", "r-goal-negative",
            "r-goal-0", "v-goal-tol-0", "sigma-u-negative", "sigma-len-negative"])
    def test_malformed_input_is_invalid_scenario(self, raw, message):
        with pytest.raises(InvalidScenario, match=message):
            Scenario.from_dict(raw)

    @pytest.mark.parametrize("section, name", [
        (section, f.name) for section, cls in SECTIONS.items()
        for f in fields(cls)])
    def test_every_config_field_rejects_text(self, section, name):
        # 41 fields: each is checked by its declared rule, so none takes a string,
        # whether it comes from a file or a direct call
        with pytest.raises(InvalidScenario, match=f"{section}: {name} must be"):
            Scenario.from_dict(with_section(section, **{name: "1"}))
        with pytest.raises(ValueError, match=f"^{name} must be"):
            SECTIONS[section](**{name: "1"})

    @pytest.mark.parametrize("change, message", [
        (lambda raw: raw.update(quad_strat=raw["quad_start"]), "^quad_strat: unknown key$"),
        (lambda raw: raw["map"].update(obstacels=[]), "^map: obstacels: unknown key$"),
        (lambda raw: raw["map"]["obstacles"][0].update(hieght=2.0),
         r"^map: obstacles\[0\]\.hieght: unknown key$"),
        (lambda raw: raw["target"].update(sped=1.0), "^target: sped: unknown key$"),
    ], ids=["top-level", "map", "obstacle", "target"])
    def test_unknown_key_is_refused(self, change, message):
        raw = valid()
        change(raw)
        with pytest.raises(InvalidScenario, match=message):
            Scenario.from_dict(raw)

    def test_one_message_names_every_broken_key(self):
        raw = with_search(rho=0, t_lookahead=-1)
        raw["perception"] = {"body_len": "long"}
        raw["seed"] = -2
        raw["quad_strat"] = raw.pop("quad_start")
        with pytest.raises(InvalidScenario) as err:
            Scenario.from_dict(raw)
        assert str(err.value).split("; ") == [
            "quad_strat: unknown key",
            "quad_start: missing required field",
            "seed must be a non-negative integer, got -2",
            "perception: body_len must be a finite number > 0, got 'long'",
            "search: rho must be a finite number > 0, got 0",
            "search: t_lookahead must be a finite number >= 0, got -1",
        ]

    def test_degree_the_window_fits_is_valid(self):
        assert Scenario.from_dict(with_section("prediction", degree=25)).prediction.degree == 25

    def test_camera_follows_the_field_of_view(self):
        default = Scenario.from_dict(valid()).perception.camera
        assert default == CameraModel.from_fov(np.deg2rad(87))
        wide = Scenario.from_dict(with_perception(horizontal_fov_deg=120)).perception.camera
        assert wide == CameraModel.from_fov(np.deg2rad(120))
        assert wide.horizontal_fov == pytest.approx(np.deg2rad(120))

    def test_zero_prediction_horizon_is_valid(self):
        assert Scenario.from_dict(with_section("prediction", horizon=0)).prediction.horizon == 0

    def test_replaced_seed_is_validated(self):
        scenario = Scenario.from_dict(valid())
        assert replace(scenario, seed=7).seed == 7
        with pytest.raises(InvalidScenario, match="seed"):
            replace(scenario, seed=-1)


def test_every_closed_loop_search_uses_the_nine_planar_controls(monkeypatch):
    raw = dict(valid(), duration=8 / 13)  # three planning cycles after the warm-up
    controls = []
    real = kino_search.search

    def counted(start, grid, w, *args):
        controls.append(kino_search._controls(w))
        return real(start, grid, w, *args)

    monkeypatch.setattr(kino_search, "search", counted)
    tracker.run_scenario(Scenario.from_dict(raw))
    planar = [[ux, uy, 0.0] for ux in (-3.0, 0.0, 3.0) for uy in (-3.0, 0.0, 3.0)]
    assert controls and all(c.tolist() == planar for c in controls)
