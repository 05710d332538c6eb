"""Voxel occupancy environment: membership, visibility, and free-box queries.

The grid stores boolean occupancy on a dense voxel lattice, one byte per
voxel; there are no occupancy probabilities. ``OccupancyGrid.occupied_at`` is
the one mapping from world points to occupancy, and anything outside the
lattice reads as occupied so planners stay conservative near map edges.
Visibility uses a supercover segment traversal: every voxel the segment
touches is checked, and a segment grazing a voxel corner checks the voxels on
both sides so rays cannot leak diagonally between occupied cells.

A box is a (2, 3) float array ``[min corner, max corner]`` in metres; a
stack of M boxes, such as a corridor, is one (M, 2, 3) array.
"""

from __future__ import annotations

import copy
import functools
from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import (
    InvalidSpec, SeedOccupied, is_count, is_number, is_numbers, is_positive, key_problems)

# Boundary tolerance for supercover corner handling, in voxel units.
_CORNER_EPS = 1e-7
_CORNER_OFFSETS = np.array(list(product((-_CORNER_EPS, _CORNER_EPS), repeat=3)))


class OccupancyGrid:
    """Dense boolean voxel occupancy map.

    ``occupied`` is the one voxel array, of shape ``dims``: a voxel is either
    occupied or free, and a new grid is all free.

    Parameters
    ----------
    origin:
        World position of the lattice corner with the smallest indices [m].
    resolution:
        Voxel edge length [m], > 0.
    dims:
        Number of voxels along each axis.
    """

    def __init__(self, origin, resolution: float, dims):
        self.origin = np.asarray(origin, dtype=float)
        self.resolution = float(resolution)
        self.dims = np.asarray(dims, dtype=int)
        if self.resolution <= 0:
            raise ValueError("resolution must be > 0")
        if np.any(self.dims <= 0):
            raise ValueError("dims must be positive")
        self.occupied = np.zeros(tuple(self.dims), dtype=bool)

    # ------------------------------------------------------------------
    # Coordinate helpers
    # ------------------------------------------------------------------

    def world_to_voxel(self, p) -> np.ndarray:
        """Integer voxel index containing world point ``p`` (may be out of bounds)."""
        return np.floor((np.asarray(p) - self.origin) / self.resolution).astype(int)

    # ------------------------------------------------------------------
    # Occupancy queries
    # ------------------------------------------------------------------

    def set_occupied_box(self, min_corner, max_corner):
        """Occupy all voxels overlapping the box with positive volume."""
        lo_g = (np.asarray(min_corner, dtype=float) - self.origin) / self.resolution
        hi_g = (np.asarray(max_corner, dtype=float) - self.origin) / self.resolution
        lo = np.maximum(np.floor(lo_g + 1e-9).astype(int), 0)
        hi = np.minimum(np.ceil(hi_g - 1e-9).astype(int), self.dims)
        if np.any(lo >= hi):
            return
        self.occupied[lo[0]:hi[0], lo[1]:hi[1], lo[2]:hi[2]] = True

    def occupied_at(self, points) -> np.ndarray:
        """Occupancy of the voxel holding each world point, shape ``points.shape[:-1]``.

        ``points`` has any leading shape and 3 coordinates last. A point
        outside the lattice reads as occupied.
        """
        idx = self.world_to_voxel(points)
        outside = np.any(idx < 0, axis=-1) | np.any(idx >= self.dims, axis=-1)
        idx = np.clip(idx, 0, self.dims - 1)
        return self.occupied[idx[..., 0], idx[..., 1], idx[..., 2]] | outside

    def is_occupied(self, p) -> bool:
        """Occupancy of the voxel containing the one point ``p``."""
        return bool(self.occupied_at(p))

    # ------------------------------------------------------------------
    # Visibility
    # ------------------------------------------------------------------

    def _segment_voxels(self, a, b) -> np.ndarray:
        """All voxel indices touched by segment a->b (supercover), shape (N, 3).

        Every touched voxel is the floor of some boundary-crossing point
        nudged by +/- epsilon per axis (the segment endpoints count as
        crossings), so flooring all eight nudges of every crossing covers the
        supercover, including both neighbours of exact face, edge, and corner
        touches. Rows may repeat; callers only test occupancy membership.
        """
        g0 = (np.asarray(a, dtype=float) - self.origin) / self.resolution
        g1 = (np.asarray(b, dtype=float) - self.origin) / self.resolution
        d = g1 - g0
        ts = [np.array([0.0, 1.0])]
        for ax in range(3):
            if abs(d[ax]) < 1e-12:
                continue
            lo, hi = sorted((g0[ax], g1[ax]))
            ks = np.arange(np.ceil(lo - _CORNER_EPS), np.floor(hi + _CORNER_EPS) + 1.0)
            if ks.size:
                ts.append(np.clip((ks - g0[ax]) / d[ax], 0.0, 1.0))
        t = np.concatenate(ts)
        crossings = g0[None, :] + t[:, None] * d[None, :]
        return np.floor(
            crossings[:, None, :] + _CORNER_OFFSETS[None, :, :]
        ).astype(int).reshape(-1, 3)

    def line_of_sight(self, a, b) -> bool:
        """True iff no voxel touched by segment a->b is occupied or out of bounds."""
        vox = self._segment_voxels(a, b)
        if (vox < 0).any() or (vox >= self.dims).any():
            return False
        return not bool(self.occupied[vox[:, 0], vox[:, 1], vox[:, 2]].any())

    # ------------------------------------------------------------------
    # Free-box inflation
    # ------------------------------------------------------------------

    def inflate_box(self, seed, max_extent: float) -> np.ndarray:
        """Grow a free axis-aligned box around ``seed``: ``[min corner, max corner]``.

        ``seed`` is one point or an (N, 3) stack of points. Growth starts from
        the voxel box that holds them all, which must be free and inside the
        grid, or ``SeedOccupied`` is raised. It is greedy, one voxel layer at a
        time, cycling through the directions +x, -x, +y, -y, +z, -z. A face
        stops once the next layer contains an occupied voxel, leaves the grid,
        or would move the face farther than ``max_extent`` from the same face
        of the points' bounding box. The result is maximal under that growth
        order; for one point it is the box grown from that point's voxel.
        """
        points = np.asarray(seed, dtype=float).reshape(-1, 3)
        low, high = points.min(axis=0), points.max(axis=0)
        lo, hi = self.world_to_voxel(low), self.world_to_voxel(high)  # inclusive voxel index range
        if (np.any(lo < 0) or np.any(hi >= self.dims)
                or self.occupied[lo[0]:hi[0] + 1, lo[1]:hi[1] + 1, lo[2]:hi[2] + 1].any()):
            raise SeedOccupied(f"inflation seed {np.asarray(seed).tolist()} is occupied")

        def layer_free(ax: int, index: int) -> bool:
            if index < 0 or index >= self.dims[ax]:
                return False
            sl = [slice(lo[0], hi[0] + 1), slice(lo[1], hi[1] + 1), slice(lo[2], hi[2] + 1)]
            sl[ax] = slice(index, index + 1)
            return not bool(self.occupied[tuple(sl)].any())

        growing = [True] * 6
        while any(growing):
            for side in range(6):
                if not growing[side]:
                    continue
                ax, up = side // 2, side % 2 == 0
                nxt = hi[ax] + 1 if up else lo[ax] - 1
                face = self.origin[ax] + (nxt + 1 if up else nxt) * self.resolution
                within = (face <= high[ax] + max_extent + 1e-9 if up
                          else face >= low[ax] - max_extent - 1e-9)
                if within and layer_free(ax, nxt):
                    (hi if up else lo)[ax] = nxt
                else:
                    growing[side] = False
        return self.origin + np.array([lo, hi + 1]) * self.resolution


# ----------------------------------------------------------------------
# Map construction
# ----------------------------------------------------------------------

_vec3 = functools.partial(is_numbers, n=3)
_POINT = (True, _vec3, "3 finite numbers")
_POSITIVE = (True, is_positive, "a finite number > 0")
_Z = (False, is_number, "a finite number")
# what each key of a map spec holds, and each key of each obstacle type:
# key -> (required, predicate, what it expects)
_SPEC_KEYS = {
    "origin": _POINT,
    "resolution": _POSITIVE,
    "dims": (True, lambda x: _vec3(x) and all(is_count(d) and d > 0 for d in x),
             "3 positive integers"),
    "seed": (False, is_count, "a non-negative integer"),
    "obstacles": (False, lambda x: isinstance(x, list), "a list"),
}
_OBSTACLE_KEYS = {
    "box": {"min": _POINT, "max": _POINT},
    "cylinder": {"center": (True, lambda x: is_numbers(x) and len(x) >= 2,
                            "at least [x, y], finite"),
                 "radius": _POSITIVE, "zmin": _Z, "zmax": _Z},
    "forest": {"density": (True, is_positive, "a finite number > 0 (trees per m^2)"),
               "radius": _POSITIVE,
               "keep_clear": (False, lambda x: isinstance(x, list) and all(map(_vec3, x)),
                              "a list of [x, y, r]")},
}


@dataclass(frozen=True, eq=False)
class MapSpec:
    """Declarative map description, parsed from a JSON object by :meth:`from_dict`.

    Required keys: ``origin`` (3-vector, m), ``resolution`` (m per voxel) and
    ``dims`` (3 positive voxel counts). Optional: ``seed`` (int, for forests)
    and ``obstacles``, a list of objects whose ``type`` is
    ``box`` (``min``, ``max``), ``cylinder`` (``center`` [x, y], ``radius``,
    optional ``zmin``/``zmax``) or ``forest`` (``density`` in trees per m^2,
    ``radius``, optional ``keep_clear`` list of [x, y, r] discs).

    ``from_dict`` checks each key against its row of ``_SPEC_KEYS`` or of its
    obstacle type's ``_OBSTACLE_KEYS`` table, with the shared predicates of
    :mod:`aerotrack.errors`, and lists every broken key by its field path in
    one ``InvalidSpec``. It copies the obstacle list, and its content must not
    be edited afterwards: :func:`build_map` rasterizes a spec once and keeps
    the grid on it.
    """

    origin: np.ndarray
    resolution: float
    dims: np.ndarray
    obstacles: list
    seed: int = 0

    @functools.cached_property
    def _grid(self) -> OccupancyGrid:
        """The read-only grid of :func:`build_map`, rasterized once per spec."""
        grid = OccupancyGrid(self.origin, self.resolution, self.dims)
        zmin_map = float(self.origin[2])
        zmax_map = float(self.origin[2] + self.dims[2] * self.resolution)
        rng = np.random.default_rng(self.seed)
        for obs in self.obstacles:
            kind = obs["type"]
            if kind == "box":
                grid.set_occupied_box(np.asarray(obs["min"], float), np.asarray(obs["max"], float))
            elif kind == "cylinder":
                _rasterize_cylinder(
                    grid,
                    obs["center"],
                    float(obs["radius"]),
                    float(obs.get("zmin", zmin_map)),
                    float(obs.get("zmax", zmax_map)),
                )
            elif kind == "forest":
                extent = self.dims[:2] * self.resolution
                area = float(extent[0] * extent[1])
                count = int(round(float(obs["density"]) * area))
                radius = float(obs["radius"])
                keep_clear = [np.asarray(c, dtype=float) for c in obs.get("keep_clear", [])]
                xy = self.origin[:2] + rng.uniform(0.0, 1.0, size=(count, 2)) * extent
                for tx, ty in xy:
                    if any(np.hypot(tx - c[0], ty - c[1]) < c[2] + radius for c in keep_clear):
                        continue
                    _rasterize_cylinder(grid, (tx, ty), radius, zmin_map, zmax_map)
        for shared in (grid.occupied, grid.origin, grid.dims):
            shared.flags.writeable = False
        return grid

    @staticmethod
    def from_dict(raw: dict) -> "MapSpec":
        if not isinstance(raw, dict):
            raise InvalidSpec("map spec must be a JSON object")
        problems = key_problems(raw, _SPEC_KEYS)
        obstacles = raw.get("obstacles", [])
        for i, obs in enumerate(obstacles if isinstance(obstacles, list) else []):
            where = f"obstacles[{i}]"
            if not isinstance(obs, dict):
                problems.append(f"{where}: expected an object")
            elif obs.get("type") not in _OBSTACLE_KEYS:
                problems.append(f"{where}.type: expected one of {tuple(_OBSTACLE_KEYS)}, "
                                f"got {obs.get('type')!r}")
            else:
                problems += key_problems(obs, _OBSTACLE_KEYS[obs["type"]], f"{where}.")
        if problems:
            raise InvalidSpec("invalid map spec: " + "; ".join(problems))
        return MapSpec(
            origin=np.asarray(raw["origin"], dtype=float),
            resolution=float(raw["resolution"]),
            dims=np.asarray([int(d) for d in raw["dims"]]),
            obstacles=copy.deepcopy(obstacles),
            seed=int(raw.get("seed", 0)),
        )


def _rasterize_cylinder(grid: OccupancyGrid, center, radius: float, zmin: float, zmax: float):
    """Occupy every voxel whose footprint square intersects the disc (conservative)."""
    res = grid.resolution
    cx, cy = float(center[0]), float(center[1])
    lo_i = max(int(np.floor((cx - radius - grid.origin[0]) / res)), 0)
    hi_i = min(int(np.ceil((cx + radius - grid.origin[0]) / res)), int(grid.dims[0]))
    lo_j = max(int(np.floor((cy - radius - grid.origin[1]) / res)), 0)
    hi_j = min(int(np.ceil((cy + radius - grid.origin[1]) / res)), int(grid.dims[1]))
    if lo_i >= hi_i or lo_j >= hi_j:
        return
    ii = np.arange(lo_i, hi_i)
    jj = np.arange(lo_j, hi_j)
    xc = grid.origin[0] + (ii + 0.5) * res
    yc = grid.origin[1] + (jj + 0.5) * res
    dx = np.maximum(np.abs(xc - cx) - 0.5 * res, 0.0)
    dy = np.maximum(np.abs(yc - cy) - 0.5 * res, 0.0)
    hit = dx[:, None] ** 2 + dy[None, :] ** 2 <= radius * radius
    lo_k = max(int(np.floor((zmin - grid.origin[2]) / res)), 0)
    hi_k = min(int(np.ceil((zmax - grid.origin[2]) / res)), int(grid.dims[2]))
    if lo_k >= hi_k:
        return
    block = grid.occupied[lo_i:hi_i, lo_j:hi_j, lo_k:hi_k]
    block[hit, :] = True


def build_map(spec: MapSpec) -> OccupancyGrid:
    """Rasterize a map spec into a grid. Pure function of (spec, seed).

    The grid is built on the first call for a spec and kept on that spec, so
    every caller of one spec gets the same grid. Its ``occupied``, ``origin``
    and ``dims`` arrays are therefore read-only: writing to them raises
    ``ValueError``. Copy the occupancy into a new ``OccupancyGrid`` to edit
    a map.
    """
    return spec._grid
