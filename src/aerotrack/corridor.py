"""Flight corridor: an ordered chain of overlapping free cubes around a path.

Walking dense samples of the kinodynamic path, a new cube is grown whenever a
sample leaves the current one, from the path segment between the last sample
inside and the one that left, as safe flight corridors grow their boxes from
path segments (Liu et al., "Planning Dynamically Feasible Trajectories for
Quadrotors Using Safe Flight Corridors in 3-D Complex Environments", RA-L
2017). The new cube holds the last sample inside the cube before it, so
consecutive cubes overlap around a path sample. Where the segment's voxel box
holds an occupied voxel, because the path clips an obstacle's corner between
the samples, the cube grows from the sample that left alone, and the overlap
is not promised; ``optimize`` refuses an empty one. A new cube that contains
the one before replaces it.

A cube is a (2, 3) box ``[min corner, max corner]`` as ``inflate_box`` grows
it, and the corridor is the (M, 2, 3) stack of its M cubes in path order.
``overlap`` intersects two boxes or two stacks row by row, and
``contains_all`` tests points against the union of a stack in one broadcast.
"""

from __future__ import annotations

import numpy as np

from .errors import SeedOccupied
from .grid import OccupancyGrid
from .kino_search import KinoPath

_MAX_EXTENT = 2.0  # how far a cube's face may grow past its seed [m]


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


def build_corridor(path: KinoPath, grid: OccupancyGrid) -> np.ndarray:
    """Cover the path with a chain of overlapping free cubes: an (M, 2, 3) stack."""
    samples = path.sample_positions(grid.resolution / 4.0)
    cubes = [grid.inflate_box(samples[0], _MAX_EXTENT)]
    for inside, s in zip(samples[:-1], samples[1:]):  # the previous sample lies in cubes[-1]
        if np.all(cubes[-1][0] <= s) and np.all(s <= cubes[-1][1]):
            continue
        try:
            new = grid.inflate_box(np.stack([inside, s]), _MAX_EXTENT)
        except SeedOccupied:  # the path clips an obstacle's corner between the samples
            new = grid.inflate_box(s, _MAX_EXTENT)
        if _contains_box(new, cubes[-1]):
            cubes[-1] = new
        else:
            cubes.append(new)
    return np.array(cubes)
