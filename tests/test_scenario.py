import math
from dataclasses import replace

import pytest

from aerotrack import benchmarks
from aerotrack.errors import InvalidScenario
from aerotrack.scenario import Scenario


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


class TestFromDict:
    def test_builtin_scenarios_are_valid(self):
        for build in benchmarks.ALL.values():
            Scenario.from_dict(build())

    @pytest.mark.parametrize("raw, message", [
        (dict(valid(), perception=[1, 2]), "perception: expected an object"),
        (dict(valid(), search=[1, 2]), "search: expected an object"),
        (dict(valid(), duration="abc"), "duration"),
        (dict(valid(), duration=math.nan), "duration must be finite and > 0"),
        (dict(valid(), seed="x"), "seed"),
        (dict(valid(), quad_start=[1, "x"]), "quad_start"),
        (dict(valid(), quad_start=[1.0, 2.0]), "quad_start must be 3 finite numbers"),
        (with_perception(horizontal_fov_deg=0), "horizontal_fov_deg"),
        (with_perception(horizontal_fov_deg=200), "horizontal_fov_deg"),
        (with_target(speed=math.nan), "target speed must be finite and > 0"),
        (with_target(smoothing=math.nan), "target smoothing must be finite"),
        (with_target(waypoints=[[1.0, 1.0, 1.0], [math.nan, 1.0, 1.0]]),
         "target waypoints must be finite"),
        (dict(valid(), seed=-1), "seed must be a non-negative integer"),
        (dict(valid(), seed=2.7), "seed must be a non-negative integer"),
        (dict(valid(), seed=True), "seed must be a non-negative integer"),
        (dict(valid(), seed="3"), "seed must be a non-negative integer"),
        (with_search(rho=0), "search: rho must be a finite number > 0"),
        (with_search(rho="1"), "search: rho must be a finite number > 0"),
    ], ids=["perception-list", "search-list", "duration-text", "duration-nan", "seed-text",
            "quad-start-text", "quad-start-2d", "fov-0", "fov-200", "target-speed-nan",
            "target-smoothing-nan", "target-waypoint-nan", "seed-negative", "seed-fraction",
            "seed-bool", "seed-string", "rho-0", "rho-string"])
    def test_malformed_input_is_invalid_scenario(self, raw, message):
        with pytest.raises(InvalidScenario, match=message):
            Scenario.from_dict(raw)

    def test_replaced_seed_is_validated(self):
        scenario = Scenario.from_dict(valid())
        assert replace(scenario, seed=7).seed == 7
        with pytest.raises(InvalidScenario, match="seed"):
            replace(scenario, seed=-1)
