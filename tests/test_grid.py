import json
import math
import tracemalloc

import numpy as np
import pytest

from aerotrack import benchmarks, tracker
from aerotrack.errors import InvalidSpec, SeedOccupied
from aerotrack.grid import MapSpec, OccupancyGrid, build_map
from aerotrack.scenario import Scenario
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
        assert np.allclose(cube.sides, 2.0)
        assert np.allclose(cube.center, (2.0, 2.0, 2.0))

    def test_clamps_to_grid(self):
        g = empty_grid(10)
        cube = g.inflate_box((0.5, 0.5, 0.5), max_extent=5.0)
        assert np.allclose(cube.min_corner, 0.0)
        assert np.allclose(cube.max_corner, 1.0)

    def test_flush_against_wall(self):
        g = empty_grid(20)
        g.set_occupied_box((1.2, 0.0, 0.0), (1.3, 2.0, 2.0))
        cube = g.inflate_box((0.95, 1.0, 1.0), max_extent=1.0)
        assert cube.max_corner[0] == pytest.approx(1.2)
        assert cube_is_free(g, cube)

    def test_one_voxel_corridor(self):
        g = empty_grid(10)
        g.occupied[:] = True
        g.occupied[:, 5, 5] = False  # free line along x
        cube = g.inflate_box((0.55, 0.55, 0.55), max_extent=1.0)
        assert cube.sides[1] == pytest.approx(g.resolution)
        assert cube.sides[2] == pytest.approx(g.resolution)
        assert cube.sides[0] > 5 * g.resolution
        assert cube_is_free(g, cube)

    def test_occupied_seed_raises(self):
        g = empty_grid()
        g.occupied[5, 5, 5] = True
        with pytest.raises(SeedOccupied):
            g.inflate_box((0.55, 0.55, 0.55), max_extent=1.0)

    def test_never_contains_occupied(self):
        rng = np.random.default_rng(3)
        g = empty_grid(20)
        for _ in range(60):
            g.occupied[tuple(rng.integers(0, 20, 3))] = True
        for _ in range(50):
            seed = rng.uniform(0.1, 1.9, 3)
            if g.is_occupied(seed):
                continue
            cube = g.inflate_box(seed, max_extent=0.6)
            assert cube_is_free(g, cube)
            assert cube.contains(seed)


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
    "seed-bool": ({"seed": True}, "seed"),
    "seed-negative": ({"seed": -1}, "seed"),
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
    "forest-density-text": (
        {"obstacles": [{"type": "forest", "density": "d", "radius": 0.3}]},
        "obstacles[0].density"),
    "forest-keep-clear-short": (
        {"obstacles": [{"type": "forest", "density": 0.05, "radius": 0.3,
                        "keep_clear": [[1, 1]]}]},
        "obstacles[0].keep_clear"),
}


class TestMapSpec:
    @pytest.mark.parametrize("case", sorted(MALFORMED_MAPS))
    def test_malformed_input_is_invalid_spec(self, case):
        change, field = MALFORMED_MAPS[case]
        with pytest.raises(InvalidSpec) as err:
            MapSpec.from_dict(dict(BASE_MAP, **change))
        assert field in str(err.value)


class TestBuildMap:
    def test_zero_obstacles(self):
        spec = MapSpec.from_dict(
            {"origin": [0, 0, 0], "resolution": 0.1, "dims": [10, 10, 10], "obstacles": []}
        )
        g = build_map(spec)
        assert g.occupied_fraction() == 0.0

    def test_determinism(self):
        raw = {
            "origin": [0, 0, 0],
            "resolution": 0.1,
            "dims": [100, 100, 20],
            "obstacles": [{"type": "forest", "density": 0.05, "radius": 0.3}],
            "seed": 42,
        }
        g1 = build_map(MapSpec.from_dict(raw))
        g2 = build_map(MapSpec.from_dict(raw))
        assert np.array_equal(g1.occupied, g2.occupied)

    def test_forest_fraction_near_expectation(self):
        density, radius = 0.02, 1.0
        raw = {
            "origin": [0, 0, 0],
            "resolution": 0.1,
            "dims": [400, 400, 10],
            "obstacles": [{"type": "forest", "density": density, "radius": radius}],
            "seed": 7,
        }
        g = build_map(MapSpec.from_dict(raw))
        expected = density * np.pi * radius**2
        frac = g.occupied_fraction()
        assert expected * 0.8 <= frac <= expected * 1.2

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
        with pytest.raises(InvalidSpec) as err:
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


FOREST_MAP = {
    "origin": [0, 0, 0],
    "resolution": 0.1,
    "dims": [60, 60, 10],
    "obstacles": [{"type": "box", "min": [0.5, 0.5, 0.0], "max": [1.0, 1.0, 1.0]},
                  {"type": "forest", "density": 0.2, "radius": 0.2}],
    "seed": 3,
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
        spec = MapSpec.from_dict(FOREST_MAP)
        shared = build_map(spec)
        assert build_map(spec) is shared
        fresh = build_map(MapSpec.from_dict(FOREST_MAP))
        assert fresh is not shared
        assert np.array_equal(fresh.occupied, shared.occupied)
        assert fresh.occupied.any()

    @pytest.mark.parametrize("change", [
        {"obstacles": [dict(FOREST_MAP["obstacles"][0], max=[1.0, 1.1, 1.0]),
                       FOREST_MAP["obstacles"][1]]},
        {"seed": 4},
        {"resolution": 0.12},
        {"dims": [60, 60, 11]},
        {"origin": [0, 0, 0.1]},
    ])
    def test_changed_content_gets_its_own_grid(self, change):
        shared = build_map(MapSpec.from_dict(FOREST_MAP))
        other = build_map(MapSpec.from_dict(dict(FOREST_MAP, **change)))
        assert other is not shared
        assert not np.array_equal(other.occupied, shared.occupied)

    def test_spec_does_not_alias_the_callers_obstacles(self):
        raw = json.loads(json.dumps(FOREST_MAP))
        spec = MapSpec.from_dict(raw)
        raw["obstacles"][0]["max"][1] = 2.0
        assert spec.obstacles == FOREST_MAP["obstacles"]
        assert np.array_equal(build_map(spec).occupied,
                              build_map(MapSpec.from_dict(FOREST_MAP)).occupied)
