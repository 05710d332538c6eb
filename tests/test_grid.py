import tracemalloc

import numpy as np
import pytest

from aerotrack import benchmarks
from aerotrack.errors import InvalidSpec, SeedOccupied
from aerotrack.grid import Cube, MapSpec, OccupancyGrid, build_map


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

    def test_threshold(self):
        values = np.zeros((4, 4, 4))
        values[1, 1, 1] = 0.49
        g = OccupancyGrid((0, 0, 0), 0.1, (4, 4, 4), values=values, occ_threshold=0.5)
        assert not g.is_occupied((0.15, 0.15, 0.15))
        values[1, 1, 1] = 0.5
        g = OccupancyGrid((0, 0, 0), 0.1, (4, 4, 4), values=values, occ_threshold=0.5)
        assert g.is_occupied((0.15, 0.15, 0.15))
        g.set_occupied_box((0.1, 0.1, 0.1), (0.2, 0.2, 0.2), value=0.49)
        assert not g.is_occupied((0.15, 0.15, 0.15))
        g.set_occupied_box((0.1, 0.1, 0.1), (0.2, 0.2, 0.2), value=0.5)
        assert g.is_occupied((0.15, 0.15, 0.15))

    def test_values_validated(self):
        with pytest.raises(ValueError):
            OccupancyGrid((0, 0, 0), 0.1, (2, 2, 2), values=np.full((2, 2, 2), 1.5))


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
                assert not g.any_occupied(pts)

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
        assert g.cube_is_free(cube)

    def test_one_voxel_corridor(self):
        values = np.ones((10, 10, 10))
        values[:, 5, 5] = 0.0  # free line along x
        g = OccupancyGrid((0.0, 0.0, 0.0), 0.1, (10, 10, 10), values=values)
        cube = g.inflate_box((0.55, 0.55, 0.55), max_extent=1.0)
        assert cube.sides[1] == pytest.approx(g.resolution)
        assert cube.sides[2] == pytest.approx(g.resolution)
        assert cube.sides[0] > 5 * g.resolution
        assert g.cube_is_free(cube)

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
            assert g.cube_is_free(cube)
            assert cube.contains(seed)


class TestCube:
    def test_halfspaces(self):
        c = Cube((0, 0, 0), (1, 2, 3))
        A, b = c.halfspaces()
        inside = np.array([0.5, 1.0, 1.5])
        outside = np.array([1.5, 1.0, 1.5])
        assert np.all(A @ inside <= b)
        assert not np.all(A @ outside <= b)


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
        spec = MapSpec.from_dict(benchmarks.ALL["sharp_turn_low"]()["map"])
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
