import json
import math
import tracemalloc

import numpy as np
import pytest

from aerotrack import benchmarks, tracker
from aerotrack.corridor import contains_all
from aerotrack.errors import InvalidScenario, SeedOccupied
from aerotrack.grid import MapSpec, OccupancyGrid, build_map
from aerotrack.scenario import Scenario
import oracles
from oracles import cube_is_free


def empty_grid(n=10, res=0.1):
    return OccupancyGrid(origin=(0.0, 0.0, 0.0), resolution=res, dims=(n, n, n))


class TestOccupancy:
    def test_empty_grid_free(self):
        g = empty_grid()
        assert not g.is_occupied((0.5, 0.5, 0.5))

    def test_out_of_bounds_is_occupied(self):
        g = empty_grid()
        assert g.is_occupied((-0.01, 0.5, 0.5))
        assert g.is_occupied((0.5, 0.5, 1.5))

    def test_single_voxel(self):
        g = empty_grid()
        g.occupied[5, 5, 5] = True
        assert g.is_occupied((0.55, 0.55, 0.55))
        assert not g.is_occupied((0.45, 0.55, 0.55))


class TestOccupiedAt:
    @staticmethod
    def oracle(g, p):
        idx = [math.floor((c - o) / g.resolution) for c, o in zip(p, g.origin)]
        if any(i < 0 or i >= n for i, n in zip(idx, g.dims)):
            return True
        return bool(g.occupied[tuple(idx)])

    def test_shapes_match_pointwise_oracle(self):
        g = OccupancyGrid(origin=(-1.0, 0.5, 0.0), resolution=0.25, dims=(8, 6, 4))
        rng = np.random.default_rng(5)
        g.occupied[...] = rng.random(g.occupied.shape) < 0.3
        lo, hi = g.origin - 0.3, g.origin + g.dims * g.resolution + 0.3
        for shape in ((3,), (7, 3), (4, 5, 3)):
            pts = rng.uniform(lo, hi, shape)
            got = g.occupied_at(pts)
            assert got.shape == shape[:-1] and got.dtype == bool
            want = [self.oracle(g, p) for p in pts.reshape(-1, 3)]
            assert np.array_equal(got, np.reshape(want, shape[:-1]))
        assert g.is_occupied(g.origin - 0.1) is True

    def test_just_outside_each_face_is_occupied(self):
        g = OccupancyGrid(origin=(0.0, 0.0, 0.0), resolution=0.25, dims=(8, 6, 4))
        lo, hi = g.origin, g.origin + g.dims * g.resolution
        center = 0.5 * (lo + hi)
        for ax in range(3):
            # the lower face belongs to the lattice, the upper one does not
            for outside, inside in ((np.nextafter(lo[ax], -np.inf), lo[ax]),
                                    (hi[ax], np.nextafter(hi[ax], -np.inf))):
                p_out, p_in = center.copy(), center.copy()
                p_out[ax], p_in[ax] = outside, inside
                assert g.occupied_at(p_out)
                assert not g.occupied_at(p_in)

    def test_voxel_boundaries(self):
        g = OccupancyGrid(origin=(0.0, 0.0, 0.0), resolution=0.25, dims=(8, 6, 4))
        g.occupied[3, 2, 1] = True
        # voxel (3, 2, 1) spans [0.75, 1.0) x [0.5, 0.75) x [0.25, 0.5)
        assert g.occupied_at(np.array([0.75, 0.5, 0.25]))
        below = np.nextafter(np.array([1.0, 0.75, 0.5]), 0.0)
        assert g.occupied_at(below)
        assert not g.occupied_at(np.array([1.0, 0.5, 0.25]))
        assert not g.occupied_at(np.array([0.75, 0.75, 0.25]))
        assert not g.occupied_at(np.array([0.75, 0.5, 0.5]))
        assert not g.occupied_at(np.array([np.nextafter(0.75, 0.0), 0.5, 0.25]))


class TestLineOfSight:
    def test_empty_grid_clear(self):
        g = empty_grid()
        assert g.line_of_sight((0.05, 0.05, 0.05), (0.95, 0.95, 0.95))

    def test_degenerate_segment(self):
        g = empty_grid()
        assert g.line_of_sight((0.5, 0.5, 0.5), (0.5, 0.5, 0.5))

    def test_wall_blocks(self):
        g = empty_grid(20)
        g.set_occupied_box((0.9, 0.0, 0.0), (1.0, 2.0, 2.0))
        a, b = (0.5, 1.0, 1.0), (1.5, 1.0, 1.0)
        assert not g.line_of_sight(a, b)
        # brute-force oracle: some sampled point along the segment is occupied
        ts = np.linspace(0, 1, 1000)
        pts = np.asarray(a) + ts[:, None] * (np.asarray(b) - np.asarray(a))
        assert any(g.is_occupied(p) for p in pts)

    def test_symmetry(self):
        g = empty_grid(16)
        rng = np.random.default_rng(4)
        for _ in range(30):
            g.occupied[tuple(rng.integers(0, 16, 3))] = True
        for _ in range(200):
            a = rng.uniform(0.05, 1.55, 3)
            b = rng.uniform(0.05, 1.55, 3)
            assert g.line_of_sight(a, b) == g.line_of_sight(b, a)

    def test_soundness_vs_sampling(self):
        # LOS true implies no quarter-resolution sample is occupied
        g = empty_grid(16)
        rng = np.random.default_rng(11)
        for _ in range(40):
            g.occupied[tuple(rng.integers(0, 16, 3))] = True
        for _ in range(300):
            a = rng.uniform(0.05, 1.55, 3)
            b = rng.uniform(0.05, 1.55, 3)
            if g.line_of_sight(a, b):
                n = max(int(np.linalg.norm(b - a) / (g.resolution / 4)), 1)
                ts = np.linspace(0, 1, n + 1)
                pts = a + ts[:, None] * (b - a)
                assert not g.occupied_at(pts).any()

    def test_no_diagonal_leak(self):
        # two occupied voxels sharing only an edge: a ray exactly through the
        # shared corner must be blocked
        g = empty_grid(4)
        g.occupied[1, 1, 1] = True
        g.occupied[2, 2, 1] = True
        # ray exactly through the corner the occupied voxels share: blocked
        assert not g.line_of_sight((0.1, 0.1, 0.15), (0.3, 0.3, 0.15))
        # the free diagonal voxels touch only at that corner, so the
        # perpendicular diagonal is blocked as well (no leaking through)
        assert not g.line_of_sight((0.15, 0.25, 0.15), (0.25, 0.15, 0.15))
        # a segment clear of the occupied cells still passes
        assert g.line_of_sight((0.05, 0.05, 0.15), (0.05, 0.35, 0.15))


class TestInflateBox:
    def test_empty_grid_centered(self):
        g = empty_grid(40)  # 4 m cube, seed at the exact center corner
        cube = g.inflate_box((2.0, 2.0, 2.0), max_extent=1.0)
        assert np.allclose(cube[1] - cube[0], 2.0)
        assert np.allclose(cube.mean(axis=0), (2.0, 2.0, 2.0))

    def test_clamps_to_grid(self):
        g = empty_grid(10)
        cube = g.inflate_box((0.5, 0.5, 0.5), max_extent=5.0)
        assert np.allclose(cube[0], 0.0)
        assert np.allclose(cube[1], 1.0)

    def test_flush_against_wall(self):
        g = empty_grid(20)
        g.set_occupied_box((1.2, 0.0, 0.0), (1.3, 2.0, 2.0))
        cube = g.inflate_box((0.95, 1.0, 1.0), max_extent=1.0)
        assert cube[1, 0] == pytest.approx(1.2)
        assert cube_is_free(g, cube)

    def test_one_voxel_corridor(self):
        g = empty_grid(10)
        g.occupied[:] = True
        g.occupied[:, 5, 5] = False  # free line along x
        cube = g.inflate_box((0.55, 0.55, 0.55), max_extent=1.0)
        sides = cube[1] - cube[0]
        assert sides[1] == pytest.approx(g.resolution)
        assert sides[2] == pytest.approx(g.resolution)
        assert sides[0] > 5 * g.resolution
        assert cube_is_free(g, cube)

    def test_occupied_seed_raises(self):
        g = empty_grid()
        g.occupied[5, 5, 5] = True
        with pytest.raises(SeedOccupied):
            g.inflate_box((0.55, 0.55, 0.55), max_extent=1.0)

    def test_diagonal_two_point_seed_over_an_occupied_voxel_raises(self):
        g = empty_grid()
        g.occupied[5, 6, 5] = True
        seed = np.array([(0.55, 0.55, 0.55), (0.65, 0.65, 0.55)])  # voxels (5, 5, 5), (6, 6, 5)
        assert not g.occupied_at(seed).any()
        with pytest.raises(SeedOccupied):
            g.inflate_box(seed, max_extent=1.0)

    def test_one_point_stack_grows_the_point_box(self):
        g = empty_grid(20)
        g.set_occupied_box((1.2, 0.0, 0.0), (1.3, 2.0, 2.0))
        for max_extent in (0.25, 1.0):
            assert np.array_equal(g.inflate_box([(0.95, 1.0, 1.0)], max_extent),
                                  g.inflate_box((0.95, 1.0, 1.0), max_extent))

    def test_extent_is_measured_from_the_seed_points_box(self):
        g = empty_grid(40)
        cube = g.inflate_box([(1.05, 1.05, 1.05), (1.35, 1.15, 1.05)], max_extent=0.3)
        assert np.allclose(cube, [(0.8, 0.8, 0.8), (1.6, 1.4, 1.3)])

    def test_never_contains_occupied(self):
        for n_points in (1, 2):
            rng = np.random.default_rng(3)
            g = empty_grid(20)
            for _ in range(60):
                g.occupied[tuple(rng.integers(0, 20, 3))] = True
            for _ in range(50):
                seed = rng.uniform(0.1, 1.9, 3)
                if g.is_occupied(seed):
                    continue
                if n_points == 2:  # and a second point up to a voxel away
                    seed = np.stack([seed, seed + rng.uniform(-0.1, 0.1, 3)])
                    lo, hi = g.world_to_voxel(seed.min(axis=0)), g.world_to_voxel(seed.max(axis=0))
                    if g.occupied[lo[0]:hi[0] + 1, lo[1]:hi[1] + 1, lo[2]:hi[2] + 1].any():
                        with pytest.raises(SeedOccupied):
                            g.inflate_box(seed, max_extent=0.6)
                        continue
                cube = g.inflate_box(seed, max_extent=0.6)
                assert cube_is_free(g, cube)
                assert contains_all(cube[None], np.reshape(seed, (-1, 3)))


BASE_MAP = {"origin": [0, 0, 0], "resolution": 0.1, "dims": [20, 10, 5], "obstacles": []}

# (change to BASE_MAP, field the diagnostic must name)
MALFORMED_MAPS = {
    "dims-text": ({"dims": ["a", 1, 1]}, "dims"),
    "dims-fraction": ({"dims": [20.7, 10, 5]}, "dims"),
    "dims-bool": ({"dims": [True, 10, 5]}, "dims"),
    "origin-text": ({"origin": [0, 0, "x"]}, "origin"),
    "origin-nan": ({"origin": [0, float("nan"), 0]}, "origin"),
    "resolution-nan": ({"resolution": float("nan")}, "resolution"),
    "resolution-inf": ({"resolution": float("inf")}, "resolution"),
    "resolution-bool": ({"resolution": True}, "resolution"),
    "box-min-text": (
        {"obstacles": [{"type": "box", "min": ["a", 0, 0], "max": [1, 1, 1]}]},
        "obstacles[0].min"),
    "cylinder-radius-text": (
        {"obstacles": [{"type": "cylinder", "center": [1, 1], "radius": "r"}]},
        "obstacles[0].radius"),
    "cylinder-center-text": (
        {"obstacles": [{"type": "cylinder", "center": [1, "y"], "radius": 0.3}]},
        "obstacles[0].center"),
    "cylinder-zmax-text": (
        {"obstacles": [{"type": "cylinder", "center": [1, 1], "radius": 0.3, "zmax": "top"}]},
        "obstacles[0].zmax"),
    "box-empty": (
        {"obstacles": [{"type": "box", "min": [1, 1, 1], "max": [0.5, 0.5, 0.5]}]},
        "obstacles[0]: holds no volume"),
    "box-flat": (
        {"obstacles": [{"type": "box", "min": [1, 1, 1.05], "max": [2, 2, 1.05]}]},
        "obstacles[0]: holds no volume"),
    "cylinder-empty": (
        {"obstacles": [{"type": "cylinder", "center": [1, 1], "radius": 0.3,
                        "zmin": 0.8, "zmax": 0.2}]},
        "obstacles[0]: holds no volume"),
    "cylinder-above-top": (
        {"obstacles": [{"type": "cylinder", "center": [1, 1], "radius": 0.3, "zmin": 0.6}]},
        "obstacles[0]: holds no volume, 0.6 is not below 0.5"),
    "dims-text-cylinder-default-top": (
        {"dims": ["a", 1, 1],
         "obstacles": [{"type": "cylinder", "center": [1, 1], "radius": 0.3, "zmin": 0.6}]},
        "dims must be"),
    "map-key-typo": ({"obstacels": []}, "obstacels: unknown key"),
    "obstacle-key-typo": (
        {"obstacles": [{"type": "box", "min": [0, 0, 0], "max": [1, 1, 1], "heigth": 1}]},
        "obstacles[0].heigth: unknown key"),
    "forest-type": (
        {"obstacles": [{"type": "forest", "density": 0.05, "radius": 0.3}]},
        "obstacles[0].type"),
}


class TestMapSpec:
    @pytest.mark.parametrize("case", sorted(MALFORMED_MAPS))
    def test_malformed_input_is_invalid_spec(self, case):
        change, field = MALFORMED_MAPS[case]
        with pytest.raises(InvalidScenario) as err:
            MapSpec.from_dict(dict(BASE_MAP, **change))
        assert field in str(err.value)


class TestBuildMap:
    def test_zero_obstacles(self):
        spec = MapSpec.from_dict(
            {"origin": [0, 0, 0], "resolution": 0.1, "dims": [10, 10, 10], "obstacles": []}
        )
        g = build_map(spec)
        assert g.occupied.mean() == 0.0

    def test_determinism(self):
        raw = {"origin": [0, 0, 0], "resolution": 0.1, "dims": [100, 100, 20]}
        raw["obstacles"] = oracles.forest(raw, 42, density=0.05, radius=0.3)
        g1 = build_map(MapSpec.from_dict(raw))
        g2 = build_map(MapSpec.from_dict(raw))
        assert np.array_equal(g1.occupied, g2.occupied)

    def test_box_rasterized_conservatively(self):
        raw = {
            "origin": [0, 0, 0],
            "resolution": 0.1,
            "dims": [10, 10, 10],
            "obstacles": [{"type": "box", "min": [0.31, 0.31, 0.31], "max": [0.39, 0.39, 0.39]}],
        }
        g = build_map(MapSpec.from_dict(raw))
        assert g.is_occupied((0.35, 0.35, 0.35))

    def test_build_peak_memory_per_voxel(self):
        # one byte of occupancy per voxel and no full-grid temporaries
        spec = MapSpec.from_dict(benchmarks.ALL["sharp_turn_low"]()["map"])  # not rasterized yet
        tracemalloc.start()
        try:
            g = build_map(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * int(np.prod(spec.dims))
        assert g.occupied.dtype == bool

    def test_invalid_spec_diagnostics(self):
        with pytest.raises(InvalidScenario) as err:
            MapSpec.from_dict(
                {
                    "origin": [0, 0],
                    "resolution": -1,
                    "dims": [10, 10, 10],
                    "obstacles": [{"type": "pyramid"}],
                }
            )
        msg = str(err.value)
        assert "origin" in msg and "resolution" in msg and "obstacles[0]" in msg


MEMO_MAP = {
    "origin": [0, 0, 0],
    "resolution": 0.1,
    "dims": [60, 60, 10],
    "obstacles": [{"type": "box", "min": [0.5, 0.5, 0.0], "max": [1.0, 1.0, 1.0]},
                  {"type": "cylinder", "center": [3.0, 4.0], "radius": 0.4},
                  {"type": "cylinder", "center": [4.5, 1.5], "radius": 0.2, "zmax": 0.6}],
}


class TestMapMemo:
    """A ``MapSpec`` rasterizes once and shares its read-only grid."""

    def test_worlds_of_one_scenario_share_a_read_only_grid(self):
        scenario = Scenario.from_dict(benchmarks.ALL["occlusion_turn"]())
        first, second = tracker.TrackerWorld(scenario), tracker.TrackerWorld(scenario)
        assert first.grid is second.grid
        for shared in (first.grid.occupied, first.grid.origin, first.grid.dims):
            with pytest.raises(ValueError):
                shared[0] = 0

    def test_hit_equals_cold_rasterization(self):
        spec = MapSpec.from_dict(MEMO_MAP)
        shared = build_map(spec)
        assert build_map(spec) is shared
        fresh = build_map(MapSpec.from_dict(MEMO_MAP))
        assert fresh is not shared
        assert np.array_equal(fresh.occupied, shared.occupied)
        assert fresh.occupied.any()

    @pytest.mark.parametrize("change", [
        {"obstacles": [dict(MEMO_MAP["obstacles"][0], max=[1.0, 1.1, 1.0]),
                       *MEMO_MAP["obstacles"][1:]]},
        {"obstacles": [*MEMO_MAP["obstacles"][:2],
                       dict(MEMO_MAP["obstacles"][2], center=[4.5, 2.5])]},
        {"resolution": 0.12},
        {"dims": [60, 60, 11]},
        {"origin": [0, 0, 0.1]},
    ])
    def test_changed_content_gets_its_own_grid(self, change):
        shared = build_map(MapSpec.from_dict(MEMO_MAP))
        other = build_map(MapSpec.from_dict(dict(MEMO_MAP, **change)))
        assert other is not shared
        assert not np.array_equal(other.occupied, shared.occupied)

    def test_spec_does_not_alias_the_callers_obstacles(self):
        raw = json.loads(json.dumps(MEMO_MAP))
        spec = MapSpec.from_dict(raw)
        raw["obstacles"][0]["max"][1] = 2.0
        assert spec.boxes[0].tolist() == [[0.5, 0.5, 0.0], [1.0, 1.0, 1.0]]
        with pytest.raises(ValueError):
            spec.boxes[0, 1, 1] = 2.0
        assert np.array_equal(build_map(spec).occupied,
                              build_map(MapSpec.from_dict(MEMO_MAP)).occupied)
