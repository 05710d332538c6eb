"""Flight corridor: an ordered chain of overlapping free cubes around a path.

Walking dense samples of the kinodynamic path, a new cube is inflated
whenever a sample leaves the current one. Consecutive cubes must overlap with
comfortably fat intersections (at least two voxels on every axis) so the
optimizer's waypoints, started at their centers, have room. A sliver overlap is
bridged by at most eight cubes, each seeded halfway from the last seed to the
uncovered sample, or a quarter of the way when that cube overlaps thinly too.

A cube is a (2, 3) box ``[min corner, max corner]`` as ``inflate_box`` grows
it, and the corridor is the (M, 2, 3) stack of its M cubes in path order.
``overlap`` intersects two boxes or two stacks row by row, and
``contains_all`` tests points against the union of a stack in one broadcast.
"""

from __future__ import annotations

import numpy as np

from .errors import CorridorFailed
from .grid import OccupancyGrid
from .kino_search import KinoPath


def overlap(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Axis-aligned intersection of two boxes, or of two stacks row by row.

    ``a`` and ``b`` are (2, 3) boxes or (M, 2, 3) stacks; the result has their
    shape. An overlap is empty where its min corner is not below its max
    corner on some axis.
    """
    return np.stack([np.maximum(a[..., 0, :], b[..., 0, :]),
                     np.minimum(a[..., 1, :], b[..., 1, :])], axis=-2)


def contains_all(boxes: np.ndarray, points, margin: float = 0.0) -> bool:
    """Whether each of the (N, 3) points lies in some box of the stack, grown by ``margin``."""
    pts = np.asarray(points)[:, None, :]
    inside = (pts >= boxes[:, 0] - margin) & (pts <= boxes[:, 1] + margin)
    return bool(inside.all(axis=2).any(axis=1).all())


def _contains_box(outer: np.ndarray, inner: np.ndarray) -> bool:
    return bool(np.all(outer[0] <= inner[0] + 1e-12) and np.all(outer[1] >= inner[1] - 1e-12))


def _fat(a: np.ndarray, b: np.ndarray, min_side: float) -> bool:
    """Whether the overlap of two boxes is at least ``min_side`` (> 0) on every axis."""
    lo, hi = overlap(a, b)
    return bool(np.all(hi - lo >= min_side - 1e-9))


def build_corridor(path: KinoPath, grid: OccupancyGrid, max_extent: float = 2.0) -> np.ndarray:
    """Cover the path with a chain of free cubes with fat pairwise overlaps: an (M, 2, 3) stack."""
    samples = path.sample_positions(grid.resolution / 4.0)
    min_side = 2.0 * grid.resolution
    first = grid.inflate_box(samples[0], max_extent)
    cubes = [first]
    last_inside = samples[0]
    for s in samples[1:]:
        if np.all(cubes[-1][0] <= s) and np.all(s <= cubes[-1][1]):
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
            if not _contains_box(cubes[-1], c):
                cubes.append(c)
        # drop the previous cube when the new one swallows it (chain permitting)
        if _contains_box(new, cubes[-1]) and (
            len(cubes) == 1 or _fat(cubes[-2], new, min_side)
        ):
            cubes[-1] = new
        elif not _contains_box(cubes[-1], new):
            cubes.append(new)
        last_inside = s
    return np.array(cubes)
