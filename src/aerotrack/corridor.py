"""Flight corridor: an ordered chain of overlapping free cubes around a path.

Walking dense samples of the kinodynamic path, a new cube is inflated
whenever a sample leaves the current one. Consecutive cubes must overlap with
comfortably fat intersections (at least two voxels on every axis) so the
downstream waypoint barrier has interior to work in. A sliver overlap is
bridged by at most eight cubes, each seeded halfway from the last seed to the
uncovered sample, or a quarter of the way when that cube overlaps thinly too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CorridorFailed
from .grid import Cube, OccupancyGrid
from .kino_search import KinoPath


def cube_intersection(a: Cube, b: Cube) -> Cube | None:
    """Axis-aligned intersection, or None when empty on any axis."""
    lo = np.maximum(a.min_corner, b.min_corner)
    hi = np.minimum(a.max_corner, b.max_corner)
    if np.any(lo >= hi):
        return None
    return Cube(lo, hi)


@dataclass
class Corridor:
    cubes: list

    def __len__(self) -> int:
        return len(self.cubes)

    def contains_all(self, points, margin: float = 0.0) -> bool:
        pts = np.asarray(points)
        inside = np.zeros(len(pts), dtype=bool)
        for c in self.cubes:
            inside |= np.all(
                (pts >= c.min_corner - margin) & (pts <= c.max_corner + margin), axis=1
            )
            if inside.all():
                return True
        return bool(inside.all())

    def intersections(self) -> list[Cube]:
        return [cube_intersection(a, b) for a, b in zip(self.cubes, self.cubes[1:])]


def _contains_cube(outer: Cube, inner: Cube) -> bool:
    return bool(
        np.all(outer.min_corner <= inner.min_corner + 1e-12)
        and np.all(outer.max_corner >= inner.max_corner - 1e-12)
    )


def _fat(a: Cube, b: Cube, min_side: float) -> bool:
    inter = cube_intersection(a, b)
    return inter is not None and float(inter.sides.min()) >= min_side - 1e-9


def build_corridor(path: KinoPath, grid: OccupancyGrid, max_extent: float = 2.0) -> Corridor:
    """Cover the path with a chain of free cubes with fat pairwise overlaps."""
    samples = path.sample_positions(grid.resolution / 4.0)
    min_side = 2.0 * grid.resolution
    first = grid.inflate_box(samples[0], max_extent)
    cubes = [first]
    last_inside = samples[0]
    for s in samples[1:]:
        if cubes[-1].contains(s):
            last_inside = s
            continue
        new = grid.inflate_box(s, max_extent)
        bridge = []
        prev = cubes[-1]
        anchor = last_inside
        while not _fat(prev, new, min_side):
            if len(bridge) == 8:
                raise CorridorFailed(f"could not bridge corridor cubes near {s.tolist()}")
            mid = s
            for _ in range(2):  # the midpoint toward s, then the quarter point
                mid = 0.5 * (anchor + mid)
                if grid.is_occupied(mid):
                    raise CorridorFailed(
                        f"intermediate corridor seed {mid.tolist()} is occupied")
                mid_cube = grid.inflate_box(mid, max_extent)
                if _fat(prev, mid_cube, min_side):
                    break
            else:
                raise CorridorFailed(f"corridor bridging stalled near {s.tolist()}")
            bridge.append(mid_cube)
            prev, anchor = mid_cube, mid
        for c in bridge:
            if not _contains_cube(cubes[-1], c):
                cubes.append(c)
        # drop the previous cube when the new one swallows it (chain permitting)
        if _contains_cube(new, cubes[-1]) and (
            len(cubes) == 1 or _fat(cubes[-2], new, min_side)
        ):
            cubes[-1] = new
        elif not _contains_cube(cubes[-1], new):
            cubes.append(new)
        last_inside = s
    return Corridor(cubes)
