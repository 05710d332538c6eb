"""Voxel occupancy environment: membership, visibility, and free-box queries.

The grid stores boolean occupancy on a dense voxel lattice, one byte per
voxel; there are no occupancy probabilities. ``OccupancyGrid.occupied_at`` is
the one mapping from world points to occupancy, and anything outside the
lattice reads as occupied so planners stay conservative near map edges.
Visibility uses a supercover segment traversal: every voxel the segment
touches is checked, and a segment grazing a voxel corner checks the voxels on
both sides so rays cannot leak diagonally between occupied cells.
"""

from __future__ import annotations

import copy
import functools
import json
import sys
from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import InvalidSpec, SeedOccupied

# Boundary tolerance for supercover corner handling, in voxel units.
_CORNER_EPS = 1e-7
_CORNER_OFFSETS = np.array(list(product((-_CORNER_EPS, _CORNER_EPS), repeat=3)))


@dataclass(frozen=True)
class Cube:
    """Axis-aligned box given by opposite corners [m]."""

    min_corner: np.ndarray
    max_corner: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "min_corner", np.asarray(self.min_corner, dtype=float))
        object.__setattr__(self, "max_corner", np.asarray(self.max_corner, dtype=float))
        if not np.all(self.min_corner <= self.max_corner):
            raise ValueError("cube corners are inverted")

    @property
    def sides(self) -> np.ndarray:
        return self.max_corner - self.min_corner

    @property
    def center(self) -> np.ndarray:
        return 0.5 * (self.min_corner + self.max_corner)

    def contains(self, p, margin: float = 0.0) -> bool:
        p = np.asarray(p)
        return bool(
            np.all(p >= self.min_corner - margin) and np.all(p <= self.max_corner + margin)
        )


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

    def occupied_fraction(self) -> float:
        return float(self.occupied.mean())

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

    def inflate_box(self, seed, max_extent: float) -> Cube:
        """Grow a free axis-aligned cube around ``seed``.

        Growth is greedy, one voxel layer at a time, cycling through the
        directions +x, -x, +y, -y, +z, -z. A face stops once the next layer
        contains an occupied voxel, leaves the grid, or would move the face
        farther than ``max_extent`` from the seed point. The result is maximal
        under that growth order.
        """
        seed = np.asarray(seed, dtype=float)
        if self.is_occupied(seed):
            raise SeedOccupied(f"inflation seed {seed.tolist()} is occupied")
        lo = self.world_to_voxel(seed)
        hi = lo.copy()  # inclusive voxel index range

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
                ax, positive = divmod(side, 2)[0], side % 2 == 0
                if positive:
                    nxt = hi[ax] + 1
                    face = self.origin[ax] + (nxt + 1) * self.resolution
                    ok = face <= seed[ax] + max_extent + 1e-9 and layer_free(ax, nxt)
                    if ok:
                        hi[ax] = nxt
                    else:
                        growing[side] = False
                else:
                    nxt = lo[ax] - 1
                    face = self.origin[ax] + nxt * self.resolution
                    ok = face >= seed[ax] - max_extent - 1e-9 and layer_free(ax, nxt)
                    if ok:
                        lo[ax] = nxt
                    else:
                        growing[side] = False
        return Cube(self.origin + lo * self.resolution, self.origin + (hi + 1) * self.resolution)


# ----------------------------------------------------------------------
# Map construction
# ----------------------------------------------------------------------

_OBSTACLE_TYPES = ("box", "cylinder", "forest")


def _number(x) -> bool:
    """A finite int or float; a bool is not a number here."""
    return (isinstance(x, (int, float)) and not isinstance(x, bool)
            and abs(x) <= sys.float_info.max)


def _positive(x) -> bool:
    return _number(x) and x > 0


def _count(x) -> bool:
    """A non-negative int that is not a bool."""
    return isinstance(x, int) and not isinstance(x, bool) and x >= 0


def _numbers(x, n=None) -> bool:
    """A list of finite numbers, of length ``n`` when given."""
    return (isinstance(x, (list, tuple)) and all(_number(c) for c in x)
            and (n is None or len(x) == n))


@dataclass(frozen=True, eq=False)
class MapSpec:
    """Declarative map description, parsed from a JSON object by :meth:`from_dict`.

    Required keys: ``origin`` (3-vector, m), ``resolution`` (m per voxel) and
    ``dims`` (3 positive voxel counts). Optional: ``seed`` (int, for forests)
    and ``obstacles``, a list of objects whose ``type`` is
    ``box`` (``min``, ``max``), ``cylinder`` (``center`` [x, y], ``radius``,
    optional ``zmin``/``zmax``) or ``forest`` (``density`` in trees per m^2,
    ``radius``, optional ``keep_clear`` list of [x, y, r] discs).

    ``from_dict`` copies the obstacle list, and its content must not be
    edited afterwards: :func:`build_map` rasterizes a spec once and keeps the
    grid on it.
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
        problems = []
        for key in ("origin", "resolution", "dims"):
            if key not in raw:
                problems.append(f"{key}: missing required field")
        origin, resolution, dims = raw.get("origin"), raw.get("resolution"), raw.get("dims")
        obstacles = raw.get("obstacles", [])
        seed = raw.get("seed", 0)
        if "origin" in raw and not _numbers(origin, 3):
            problems.append("origin: expected 3 finite numbers")
        if "resolution" in raw and not _positive(resolution):
            problems.append("resolution: expected a finite number > 0")
        if "dims" in raw and not (isinstance(dims, (list, tuple)) and len(dims) == 3
                                  and all(_count(d) and d > 0 for d in dims)):
            problems.append("dims: expected 3 positive integers")
        if not isinstance(obstacles, list):
            problems.append("obstacles: expected a list")
            obstacles = []
        if not _count(seed):
            problems.append("seed: expected a non-negative integer")
        for i, obs in enumerate(obstacles):
            where = f"obstacles[{i}]"
            if not isinstance(obs, dict):
                problems.append(f"{where}: expected an object")
                continue
            kind = obs.get("type")
            if kind not in _OBSTACLE_TYPES:
                problems.append(f"{where}.type: expected one of {_OBSTACLE_TYPES}, got {kind!r}")
                continue
            if kind == "box":
                for key in ("min", "max"):
                    if not _numbers(obs.get(key), 3):
                        problems.append(f"{where}.{key}: expected 3 finite numbers")
            elif kind == "cylinder":
                center = obs.get("center")
                if not (_numbers(center) and len(center) >= 2):
                    problems.append(f"{where}.center: expected at least [x, y], finite")
                if not _positive(obs.get("radius")):
                    problems.append(f"{where}.radius: must be a finite number > 0")
                for key in ("zmin", "zmax"):
                    if key in obs and not _number(obs[key]):
                        problems.append(f"{where}.{key}: expected a finite number")
            elif kind == "forest":
                if not _positive(obs.get("density")):
                    problems.append(f"{where}.density: must be > 0 (trees per m^2)")
                if not _positive(obs.get("radius")):
                    problems.append(f"{where}.radius: must be a finite number > 0")
                keep_clear = obs.get("keep_clear", [])
                if not (isinstance(keep_clear, list)
                        and all(_numbers(disc, 3) for disc in keep_clear)):
                    problems.append(f"{where}.keep_clear: expected a list of [x, y, r]")
        if problems:
            raise InvalidSpec("invalid map spec:\n  " + "\n  ".join(problems))
        return MapSpec(
            origin=np.asarray(origin, dtype=float),
            resolution=float(resolution),
            dims=np.asarray([int(d) for d in dims]),
            obstacles=copy.deepcopy(obstacles),
            seed=int(seed),
        )

    @staticmethod
    def from_json(path) -> "MapSpec":
        with open(path) as fh:
            try:
                raw = json.load(fh)
            except json.JSONDecodeError as exc:
                raise InvalidSpec(f"{path}: not valid JSON (line {exc.lineno}: {exc.msg})")
        return MapSpec.from_dict(raw)


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
