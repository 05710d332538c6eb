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

A map is the shapes its spec lists: :class:`MapSpec` parses the boxes and
vertical cylinders of a JSON map once into read-only arrays, and
:func:`build_map` rasterizes them conservatively: a voxel is occupied when
it overlaps a box with positive volume, or when its footprint square meets a
cylinder's disc within the cylinder's height.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .errors import Config, Dims, Planar, Point, Positive, SeedOccupied, refuse

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

# The schemas of a map spec's keys and of each obstacle type's keys; they are
# only checked against, never built.
@dataclass
class _Lattice(Config):
    origin: Point
    resolution: Positive
    dims: Dims
    obstacles: list = field(default_factory=list)


@dataclass
class _Box(Config):
    type: str
    min: Point
    max: Point


@dataclass
class _Cylinder(Config):
    type: str
    center: Planar
    radius: Positive
    zmin: float = None  # the map's bottom when omitted
    zmax: float = None  # the map's top when omitted


_SHAPES = {"box": _Box, "cylinder": _Cylinder}


@dataclass(frozen=True, eq=False)
class MapSpec:
    """A voxel lattice and the obstacle shapes it holds, parsed by :meth:`from_dict`.

    Required keys: ``origin`` (3-vector, m), ``resolution`` (m per voxel) and
    ``dims`` (3 positive voxel counts). Optional: ``obstacles``, a list of
    objects whose ``type`` is ``box`` (``min``, ``max``) or ``cylinder``
    (``center`` [x, y], ``radius``, optional ``zmin``/``zmax``, which default
    to the map's bottom and top).

    :meth:`problems` checks the keys against the ``_Lattice`` schema, each
    obstacle's against its type's schema and each shape for a positive
    volume, and ``from_dict`` raises every problem it finds in one
    ``InvalidScenario``. It parses the shapes once into two read-only arrays:
    ``boxes``, a (B, 2, 3) stack of ``[min corner, max corner]``, and
    ``cylinders``, a (C, 5) array of ``[cx, cy, radius, zmin, zmax]`` rows.
    """

    origin: np.ndarray
    resolution: float
    dims: np.ndarray
    boxes: np.ndarray
    cylinders: np.ndarray

    @functools.cached_property
    def _grid(self) -> OccupancyGrid:
        """The read-only grid of :func:`build_map`, rasterized once per spec."""
        grid = OccupancyGrid(self.origin, self.resolution, self.dims)
        for min_corner, max_corner in self.boxes:
            grid.set_occupied_box(min_corner, max_corner)
        for cx, cy, radius, zmin, zmax in self.cylinders:
            _rasterize_cylinder(grid, (cx, cy), radius, zmin, zmax)
        for shared in (grid.occupied, grid.origin, grid.dims):
            shared.flags.writeable = False
        return grid

    @staticmethod
    def problems(raw: dict, where: str = "") -> list:
        """A message, prefixed by ``where``, for each key of the spec ``raw`` or
        of one of its obstacles that breaks its schema, and for each shape that
        holds no volume. A cylinder's omitted height bound is only checked when
        the lattice keys that set it are valid."""
        problems = _Lattice.problems(raw, where)
        bottom, top = -np.inf, np.inf
        if not _Lattice.problems({k: raw[k] for k in ("origin", "resolution", "dims") if k in raw}):
            bottom = float(raw["origin"][2])
            top = float(bottom + raw["dims"][2] * raw["resolution"])
        obstacles = raw.get("obstacles")
        for i, obs in enumerate(obstacles if isinstance(obstacles, list) else []):
            at = f"{where}obstacles[{i}]"
            if not isinstance(obs, dict):
                problems.append(f"{at}: expected an object")
            elif obs.get("type") not in _SHAPES:
                problems.append(f"{at}.type must be one of {tuple(_SHAPES)}, "
                                f"got {obs.get('type')!r}")
            elif shape_problems := _SHAPES[obs["type"]].problems(obs, f"{at}."):
                problems += shape_problems
            else:
                low, high = _extent(obs, bottom, top)
                if not np.less(low, high).all():
                    problems.append(f"{at}: holds no volume, {low} is not below {high}")
        return problems

    @staticmethod
    def from_dict(raw: dict) -> "MapSpec":
        refuse(MapSpec.problems(raw) if isinstance(raw, dict) else ["map: expected an object"])
        origin = np.asarray(raw["origin"], dtype=float)
        resolution = float(raw["resolution"])
        dims = np.asarray([int(d) for d in raw["dims"]])
        bottom, top = float(origin[2]), float(origin[2] + dims[2] * resolution)
        boxes, cylinders = [], []
        for obs in raw.get("obstacles", []):
            low, high = _extent(obs, bottom, top)
            if obs["type"] == "box":
                boxes.append([low, high])
            else:
                cylinders.append([*obs["center"][:2], obs["radius"], low, high])
        boxes = np.asarray(boxes, dtype=float).reshape(-1, 2, 3)
        cylinders = np.asarray(cylinders, dtype=float).reshape(-1, 5)
        for shapes in (boxes, cylinders):
            shapes.flags.writeable = False
        return MapSpec(origin, resolution, dims, boxes, cylinders)


def _extent(obs: dict, bottom: float, top: float) -> tuple:
    """A shape's ``(low, high)``: a box's min and max corners, or a cylinder's
    zmin and zmax, the map's ``bottom`` and ``top`` when omitted."""
    if obs["type"] == "box":
        return obs["min"], obs["max"]
    return obs.get("zmin", bottom), obs.get("zmax", top)


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
    """Rasterize a map spec's boxes and cylinders into a grid.

    The grid is a pure function of the spec's lattice and listed shapes; no
    random numbers are drawn. It is built on the first call for a spec and
    kept on that spec, so every caller of one spec gets the same grid. Its
    ``occupied``, ``origin`` and ``dims`` arrays are therefore read-only:
    writing to them raises ``ValueError``. Copy the occupancy into a new
    ``OccupancyGrid`` to edit a map.
    """
    return spec._grid
