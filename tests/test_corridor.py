import numpy as np
import pytest

from aerotrack import benchmarks
from aerotrack.corridor import build_corridor, contains_all, overlap
from aerotrack.errors import SeedOccupied
from aerotrack.grid import MapSpec, OccupancyGrid, build_map
from aerotrack.kino_search import KinoPath, SearchWeights, search
from aerotrack.prediction import PredictionWeights, fit_predicted_trajectory
from aerotrack.perception import TargetObservation
from aerotrack.tracker import blend_goal
import oracles
from oracles import cube_is_free


def static_prediction(point, t_c=2.0):
    times = np.linspace(t_c - 2.0, t_c, 14)
    obs = [TargetObservation(np.asarray(point, float), float(t)) for t in times]
    return fit_predicted_trajectory(obs, t_c=t_c, w=PredictionWeights())


def search_toward(start, traj, grid, w):
    goal, occlusion_target = blend_goal(traj, traj.t_c, w)
    return search(start, grid, w, goal, occlusion_target)


def forest_grid(seed):
    """A 16 m x 16 m random forest whose trees keep clear of (2, 2) and (13, 13)."""
    raw = {"origin": [0, 0, 0], "resolution": 0.1, "dims": [160, 160, 25]}
    raw["obstacles"] = oracles.forest(raw, seed, density=0.05, radius=0.35,
                                      keep_clear=[[2.0, 2.0, 0.8], [13.0, 13.0, 0.8]])
    return build_map(MapSpec.from_dict(raw))


def box(min_corner, max_corner):
    return np.array([min_corner, max_corner], dtype=float)


def is_empty(overlap_box):
    lo, hi = overlap_box
    return bool(np.any(lo >= hi))


def corridor_invariants(cor: np.ndarray, grid: OccupancyGrid, path=None):
    assert cor.ndim == 3 and cor.shape[1:] == (2, 3) and len(cor) >= 1
    for cube in cor:
        assert cube_is_free(grid, cube)
    lo, hi = overlap(cor[:-1], cor[1:]).swapaxes(0, 1)
    assert np.all(hi - lo >= 2 * grid.resolution - 1e-9)
    if path is not None:
        pts = path.sample_positions(grid.resolution / 4)
        inside = np.zeros(len(pts), dtype=bool)
        for c in cor:
            inside |= np.all((pts >= c[0] - 1e-9) & (pts <= c[1] + 1e-9), axis=1)
        assert inside.mean() >= 0.99
        assert contains_all(cor[:1], pts[:1], margin=1e-9)
        assert contains_all(cor[-1:], path.p[-1:], margin=1e-9)


def overlaps_hold_path_samples(cor: np.ndarray, path, grid: OccupancyGrid) -> bool:
    """Whether each consecutive overlap holds a sample the corridor was built from."""
    pts = path.sample_positions(grid.resolution / 4)[:, None, :]
    lo, hi = overlap(cor[:-1], cor[1:]).swapaxes(0, 1)
    return bool(np.all((pts >= lo) & (pts <= hi), axis=2).any(axis=0).all())


class TestCubeIntersection:
    """``overlap`` of two boxes, and of two stacks row by row."""

    def test_identical(self):
        c = box((0, 0, 0), (1, 1, 1))
        assert np.allclose(overlap(c, c), c)

    def test_disjoint(self):
        a = box((0, 0, 0), (1, 1, 1))
        b = box((2, 0, 0), (3, 1, 1))
        assert is_empty(overlap(a, b))

    def test_offset(self):
        a = box((0, 0, 0), (1, 1, 1))
        b = box((0.5, 0, 0), (1.5, 1, 1))
        lo, hi = overlap(a, b)
        assert np.allclose(hi - lo, (0.5, 1.0, 1.0))

    def test_face_touching_is_empty(self):
        a = box((0, 0, 0), (1, 1, 1))
        b = box((1, 0, 0), (2, 1, 1))
        assert is_empty(overlap(a, b))

    def test_stack_rows_are_pair_overlaps(self):
        stack = np.array([box((0, 0, 0), (2, 1, 1)), box((1, 0.5, 0), (3, 2, 1)),
                          box((4, 0, 0), (5, 1, 1)), box((4.5, -1, 0.5), (6, 0.5, 2))])
        rows = overlap(stack[:-1], stack[1:])
        assert rows.shape == (3, 2, 3)
        for i in range(3):
            assert np.array_equal(rows[i], overlap(stack[i], stack[i + 1]))
        assert [is_empty(r) for r in rows] == [False, True, False]


class TestContainsAll:
    STACK = np.array([box((0, 0, 0), (1, 1, 1)), box((2, 0, 0), (3, 1, 1))])

    def test_point_in_only_the_second_box_passes(self):
        assert contains_all(self.STACK, [(0.5, 0.5, 0.5), (2.5, 0.5, 0.5)])
        assert not contains_all(self.STACK[:1], [(2.5, 0.5, 0.5)])

    def test_point_in_the_gap_fails(self):
        assert not contains_all(self.STACK, [(0.5, 0.5, 0.5), (1.5, 0.5, 0.5)])

    def test_margin_admits_a_point_just_outside(self):
        just_outside = [(3.0 + 1e-10, 0.5, 0.5)]
        assert not contains_all(self.STACK, just_outside)
        assert contains_all(self.STACK, just_outside, margin=1e-9)


class TestBuildCorridor:
    def test_straight_path_empty_map(self):
        grid = OccupancyGrid((0, 0, 0), 0.1, (120, 80, 30))
        traj = static_prediction((10.0, 4.0, 1.5))
        start = np.array([(2.0, 4.0, 1.5), (0, 0, 0)], dtype=float)
        path = search_toward(start, traj, grid, SearchWeights())
        cor = build_corridor(path, grid)
        corridor_invariants(cor, grid, path)

    def test_single_point_path(self):
        grid = OccupancyGrid((0, 0, 0), 0.1, (40, 40, 20))
        path = KinoPath(np.array([[2.0, 2.0, 1.0]]), np.zeros((1, 3)), np.zeros((0, 3)), 0.3, 0.0)
        cor = build_corridor(path, grid)
        assert len(cor) == 1
        assert contains_all(cor, [(2.0, 2.0, 1.0)])
        corridor_invariants(cor, grid)

    def test_doorway(self):
        grid = OccupancyGrid((0, 0, 0), 0.1, (120, 100, 25))
        # wall at x in [5.0, 5.3] with a 0.8 m square doorway
        grid.set_occupied_box((5.0, 0.0, 0.0), (5.3, 4.0, 2.5))
        grid.set_occupied_box((5.0, 4.8, 0.0), (5.3, 10.0, 2.5))
        grid.set_occupied_box((5.0, 4.0, 0.0), (5.3, 4.8, 0.8))
        grid.set_occupied_box((5.0, 4.0, 1.6), (5.3, 4.8, 2.5))
        traj = static_prediction((9.0, 4.4, 1.2))
        start = np.array([(2.0, 4.4, 1.2), (0, 0, 0)], dtype=float)
        path = search_toward(start, traj, grid, SearchWeights())
        cor = build_corridor(path, grid)
        corridor_invariants(cor, grid, path)
        assert overlaps_hold_path_samples(cor, path, grid)
        # some cube must be pinched to at most the doorway cross-section
        min_cross = float((cor[:, 1, 1:] - cor[:, 0, 1:]).min())
        assert min_cross <= 0.8 + 1e-9

    def test_random_forest_maps(self):
        ok = 0
        for seed in range(12):
            grid = forest_grid(seed)
            traj = static_prediction((13.0, 13.0, 1.2))
            start = np.array([(2.0, 2.0, 1.2), (0, 0, 0)], dtype=float)
            path = search_toward(start, traj, grid, SearchWeights())
            cor = build_corridor(path, grid)
            corridor_invariants(cor, grid, path)
            assert overlaps_hold_path_samples(cor, path, grid)
            ok += 1
        assert ok == 12

    def test_path_clipping_a_voxel_corner_falls_back_to_a_point_seed(self):
        grid = OccupancyGrid((0, 0, 0), 0.1, (20, 20, 4))
        grid.occupied[10, 10, :] = True  # the column over [1.0, 1.1] x [1.0, 1.1]
        # a straight path through the column's corner (1.0, 1.1), which falls
        # between its samples 29 in voxel (9, 10) and 30 in voxel (10, 11)
        v = np.array([0.5, 0.5, 0.0])
        p = np.array([0.51, 0.61, 0.25]) + np.arange(5)[:, None] * 0.5 * v
        path = KinoPath(p, np.tile(v, (5, 1)), np.zeros((4, 3)), 0.5, 0.0)
        samples = path.sample_positions(grid.resolution / 4)
        assert not grid.occupied_at(samples).any()
        with pytest.raises(SeedOccupied):
            grid.inflate_box(samples[29:31], 2.0)
        cor = build_corridor(path, grid)
        assert np.array_equal(cor, [grid.inflate_box(samples[0], 2.0),
                                    grid.inflate_box(samples[30], 2.0)])
        corridor_invariants(cor, grid, path)
        assert not overlaps_hold_path_samples(cor, path, grid)

    def test_sharp_turn_block_corners(self):
        # the builtin slalom blocks, and paths that wrap the blocks' corners
        grid = build_map(MapSpec.from_dict(benchmarks.ALL["sharp_turn_low"]()["map"]))
        for start, goal in [((5.0, 7.4, 1.2), (10.8, 12.2, 1.2)),
                            ((10.6, 12.0, 1.2), (13.2, 6.8, 1.2)),
                            ((12.0, 7.2, 1.2), (17.6, 11.8, 1.2))]:
            traj = static_prediction(goal)
            path = search_toward(np.array([start, (0, 0, 0)], dtype=float), traj, grid,
                                 SearchWeights())
            cor = build_corridor(path, grid)
            corridor_invariants(cor, grid, path)
            assert overlaps_hold_path_samples(cor, path, grid)


class TestInflateBoxOracle:
    def test_forest_maps_match_the_mirrored_blocks(self):
        # every face both stops at max_extent and stops short of it somewhere
        extent_bound, stopped_short = set(), set()
        rng = np.random.default_rng(23)
        for seed in range(3):
            grid = forest_grid(seed)
            for point in rng.uniform((0.5, 0.5, 0.2), (15.5, 15.5, 2.3), (20, 3)):
                if grid.is_occupied(point):
                    continue
                for max_extent in (0.25, 0.7, 1.5, 3.0):
                    cube = grid.inflate_box(point, max_extent)
                    expected = oracles.inflate_box(grid, point, max_extent)
                    assert cube.tolist() == expected.tolist()
                    for ax in range(3):
                        up = cube[1, ax] + grid.resolution > point[ax] + max_extent + 1e-9
                        down = cube[0, ax] - grid.resolution < point[ax] - max_extent - 1e-9
                        (extent_bound if up else stopped_short).add((ax, "+"))
                        (extent_bound if down else stopped_short).add((ax, "-"))
        faces = {(ax, sign) for ax in range(3) for sign in "+-"}
        assert extent_bound == faces and stopped_short == faces
