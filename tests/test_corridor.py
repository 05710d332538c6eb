import numpy as np
import pytest

from aerotrack.corridor import build_corridor, contains_all, overlap
from aerotrack.errors import CorridorFailed
from aerotrack.grid import MapSpec, OccupancyGrid, build_map
from aerotrack.kino_search import KinoPath, SearchWeights, search
from aerotrack.prediction import fit_predicted_trajectory
from aerotrack.perception import TargetObservation
from aerotrack.tracker import blend_goal
import oracles
from oracles import cube_is_free


def static_prediction(point, t_c=2.0):
    times = np.linspace(t_c - 2.0, t_c, 14)
    obs = [TargetObservation(np.asarray(point, float), float(t)) for t in times]
    return fit_predicted_trajectory(obs, t_c=t_c)


def search_toward(start, traj, grid, w):
    goal, occlusion_target = blend_goal(traj, traj.t_c, w)
    return search(start, grid, w, goal, occlusion_target)


def forest_grid(seed):
    """A 16 m x 16 m random forest whose trees keep clear of (2, 2) and (13, 13)."""
    return build_map(MapSpec.from_dict({
        "origin": [0, 0, 0],
        "resolution": 0.1,
        "dims": [160, 160, 25],
        "seed": int(seed),
        "obstacles": [{
            "type": "forest", "density": 0.05, "radius": 0.35,
            "keep_clear": [[2.0, 2.0, 0.8], [13.0, 13.0, 0.8]],
        }],
    }))


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
        path = search_toward(start, traj, grid, SearchWeights(freeze_z=True))
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
        path = search_toward(start, traj, grid, SearchWeights(freeze_z=True))
        cor = build_corridor(path, grid)
        corridor_invariants(cor, grid, path)
        # some cube must be pinched to at most the doorway cross-section
        min_cross = float((cor[:, 1, 1:] - cor[:, 0, 1:]).min())
        assert min_cross <= 0.8 + 1e-9

    def test_random_forest_maps(self):
        ok = 0
        for seed in range(12):
            grid = forest_grid(seed)
            traj = static_prediction((13.0, 13.0, 1.2))
            start = np.array([(2.0, 2.0, 1.2), (0, 0, 0)], dtype=float)
            path = search_toward(start, traj, grid, SearchWeights(freeze_z=True))
            cor = build_corridor(path, grid)
            corridor_invariants(cor, grid, path)
            ok += 1
        assert ok == 12


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


class ScriptedGrid:
    """A grid stand-in whose free cubes are set per seed on the x axis.

    Each cube spans [-1, 1] in y and z. It logs every inflation and
    occupancy query, so two corridor builders can be checked for the same
    seeds in the same order.
    """

    resolution = 0.1

    def __init__(self, spans, occupied=()):
        self.spans = spans          # seed x -> (min x, max x) of its free cube
        self.occupied = set(occupied)
        self.log = []

    @staticmethod
    def _x(p):
        p = np.asarray(p, dtype=float)
        assert p[1] == 0.0 and p[2] == 0.0
        return float(p[0])

    def inflate_box(self, seed, max_extent):
        x = self._x(seed)
        self.log.append(("inflate_box", x, max_extent))
        lo, hi = self.spans[x]
        return box((lo, -1.0, -1.0), (hi, 1.0, 1.0))

    def is_occupied(self, p):
        x = self._x(p)
        self.log.append(("is_occupied", x))
        return x in self.occupied


class TwoSamplePath:
    """A path stand-in sampled at x = 0 and x = 1."""

    @staticmethod
    def sample_positions(spacing):
        return np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])


START, GOAL = (-0.5, 0.5), (0.9, 1.5)  # free cubes of the two samples, without a fat overlap
# bridge seeds 0.5, 0.75, ... toward x = 1: each cube overlaps the one before
# by at least 0.3 m and the cube of x = 1 in CHAIN's cases by less than 0.2 m
CHAIN = {1.0 - 0.5**k: (0.5 - 0.5**k, 1.05 - 0.5**k) for k in range(1, 9)}

# exit of the bridge loop -> (free cube spans, occupied seeds, x spans of the
# corridor, or the CorridorFailed message)
BRIDGE_EXITS = {
    "midpoint-fat": (
        {0.0: START, 1.0: GOAL, 0.5: (0.25, 0.8), 0.75: (0.55, 1.2)}, (),
        [START, (0.25, 0.8), (0.55, 1.2), GOAL]),
    "quarter-point-fat": (
        {0.0: START, 1.0: (0.45, 1.5), 0.5: (0.45, 0.9), 0.25: (0.1, 0.7)}, (),
        [START, (0.1, 0.7), (0.45, 1.5)]),
    "stalled": (
        {0.0: START, 1.0: GOAL, 0.5: (0.45, 0.9), 0.25: (0.2, 0.3)}, (),
        "corridor bridging stalled near [1.0, 0.0, 0.0]"),
    "occupied-midpoint": (
        {0.0: START, 1.0: GOAL}, (0.5,),
        "intermediate corridor seed [0.5, 0.0, 0.0] is occupied"),
    "occupied-quarter-point": (
        {0.0: START, 1.0: GOAL, 0.5: (0.45, 0.9)}, (0.25,),
        "intermediate corridor seed [0.25, 0.0, 0.0] is occupied"),
    "eighth-bridge-reaches": (
        {0.0: START, 1.0: (0.99, 1.5), **CHAIN, 1.0 - 0.5**8: (0.5 - 0.5**8, 1.25)}, (),
        [START, *list(CHAIN.values())[:7], (0.5 - 0.5**8, 1.25), (0.99, 1.5)]),
    "eight-bridges": (
        {0.0: START, 1.0: (0.99, 1.5), **CHAIN}, (),
        "could not bridge corridor cubes near [1.0, 0.0, 0.0]"),
}


def corridor_outcome(builder, spans, occupied):
    """x spans of the built cubes or the raised error, and the grid's query log."""
    grid = ScriptedGrid(spans, occupied)
    try:
        cor = builder(TwoSamplePath(), grid)
    except CorridorFailed as exc:
        return (type(exc), str(exc)), grid.log
    assert all(c[0, 1:].tolist() == [-1.0, -1.0] for c in cor)
    return [(c[0, 0], c[1, 0]) for c in cor], grid.log


class TestBridgeLoop:
    @pytest.mark.parametrize("name", list(BRIDGE_EXITS))
    def test_exit_matches_the_copied_blocks(self, name):
        spans, occupied, expected = BRIDGE_EXITS[name]
        got, log = corridor_outcome(build_corridor, spans, occupied)
        assert (got, log) == corridor_outcome(oracles.build_corridor, spans, occupied)
        if isinstance(expected, str):
            assert got[0] is CorridorFailed and got[1] == expected
        else:
            assert got == expected
