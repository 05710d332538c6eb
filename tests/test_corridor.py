import numpy as np
import pytest

from aerotrack.corridor import Corridor, build_corridor, cube_intersection
from aerotrack.grid import Cube, MapSpec, OccupancyGrid, build_map
from aerotrack.kino_search import KinoState, SearchWeights, search
from aerotrack.prediction import fit_predicted_trajectory
from aerotrack.perception import TargetObservation
from aerotrack.tracker import blend_goal
from oracles import cube_is_free


def static_prediction(point, t_c=2.0):
    times = np.linspace(t_c - 2.0, t_c, 14)
    obs = [TargetObservation(np.asarray(point, float), float(t), True) for t in times]
    return fit_predicted_trajectory(obs, t_c=t_c)


def search_toward(start, traj, grid, w):
    goal, occlusion_target = blend_goal(traj, traj.t_c, w)
    return search(start, grid, w, goal, occlusion_target)


def corridor_invariants(cor: Corridor, grid: OccupancyGrid, path=None):
    assert len(cor) >= 1
    for cube in cor.cubes:
        assert cube_is_free(grid, cube)
    for inter in cor.intersections():
        assert inter is not None
        assert inter.sides.min() >= 2 * grid.resolution - 1e-9
    if path is not None:
        pts = path.sample_positions(grid.resolution / 4)
        inside = np.zeros(len(pts), dtype=bool)
        for c in cor.cubes:
            inside |= np.all(
                (pts >= c.min_corner - 1e-9) & (pts <= c.max_corner + 1e-9), axis=1)
        assert inside.mean() >= 0.99
        assert cor.cubes[0].contains(pts[0], margin=1e-9)
        assert cor.cubes[-1].contains(path.end_state.p, margin=1e-9)


class TestCubeIntersection:
    def test_identical(self):
        c = Cube((0, 0, 0), (1, 1, 1))
        inter = cube_intersection(c, c)
        assert np.allclose(inter.min_corner, c.min_corner)
        assert np.allclose(inter.max_corner, c.max_corner)

    def test_disjoint(self):
        a = Cube((0, 0, 0), (1, 1, 1))
        b = Cube((2, 0, 0), (3, 1, 1))
        assert cube_intersection(a, b) is None

    def test_offset(self):
        a = Cube((0, 0, 0), (1, 1, 1))
        b = Cube((0.5, 0, 0), (1.5, 1, 1))
        inter = cube_intersection(a, b)
        assert np.allclose(inter.sides, (0.5, 1.0, 1.0))

    def test_face_touching_is_empty(self):
        a = Cube((0, 0, 0), (1, 1, 1))
        b = Cube((1, 0, 0), (2, 1, 1))
        assert cube_intersection(a, b) is None


class TestBuildCorridor:
    def test_straight_path_empty_map(self):
        grid = OccupancyGrid((0, 0, 0), 0.1, (120, 80, 30))
        traj = static_prediction((10.0, 4.0, 1.5))
        start = KinoState(p=(2.0, 4.0, 1.5), v=(0, 0, 0))
        path = search_toward(start, traj, grid, SearchWeights(freeze_z=True))
        cor = build_corridor(path, grid)
        corridor_invariants(cor, grid, path)

    def test_single_point_path(self):
        grid = OccupancyGrid((0, 0, 0), 0.1, (40, 40, 20))
        from aerotrack.kino_search import KinoPath
        path = KinoPath([KinoState(p=(2.0, 2.0, 1.0), v=(0, 0, 0))], np.zeros((0, 3)), 0.3, 0.0)
        cor = build_corridor(path, grid)
        assert len(cor) == 1
        assert cor.cubes[0].contains((2.0, 2.0, 1.0))
        corridor_invariants(cor, grid)

    def test_doorway(self):
        grid = OccupancyGrid((0, 0, 0), 0.1, (120, 100, 25))
        # wall at x in [5.0, 5.3] with a 0.8 m square doorway
        grid.set_occupied_box((5.0, 0.0, 0.0), (5.3, 4.0, 2.5))
        grid.set_occupied_box((5.0, 4.8, 0.0), (5.3, 10.0, 2.5))
        grid.set_occupied_box((5.0, 4.0, 0.0), (5.3, 4.8, 0.8))
        grid.set_occupied_box((5.0, 4.0, 1.6), (5.3, 4.8, 2.5))
        traj = static_prediction((9.0, 4.4, 1.2))
        start = KinoState(p=(2.0, 4.4, 1.2), v=(0, 0, 0))
        path = search_toward(start, traj, grid, SearchWeights(freeze_z=True))
        cor = build_corridor(path, grid)
        corridor_invariants(cor, grid, path)
        # some cube must be pinched to at most the doorway cross-section
        min_cross = min(float(min(c.sides[1], c.sides[2])) for c in cor.cubes)
        assert min_cross <= 0.8 + 1e-9

    def test_random_forest_maps(self):
        ok = 0
        for seed in range(12):
            spec = MapSpec.from_dict({
                "origin": [0, 0, 0],
                "resolution": 0.1,
                "dims": [160, 160, 25],
                "seed": int(seed),
                "obstacles": [{
                    "type": "forest", "density": 0.05, "radius": 0.35,
                    "keep_clear": [[2.0, 2.0, 0.8], [13.0, 13.0, 0.8]],
                }],
            })
            grid = build_map(spec)
            traj = static_prediction((13.0, 13.0, 1.2))
            start = KinoState(p=(2.0, 2.0, 1.2), v=(0, 0, 0))
            path = search_toward(start, traj, grid, SearchWeights(freeze_z=True))
            cor = build_corridor(path, grid)
            corridor_invariants(cor, grid, path)
            ok += 1
        assert ok == 12
