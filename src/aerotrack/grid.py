"""Voxel occupancy environment: membership, visibility, and free-box queries.

The grid stores boolean occupancy on a dense voxel lattice, one byte per
voxel. Occupancy probabilities in [0, 1] are accepted at construction and
thresholded there: a voxel is occupied once its value reaches
``occ_threshold``. Anything outside the lattice is treated as occupied so
planners stay conservative near map edges. Visibility uses a supercover
segment traversal: every voxel the segment touches is checked, and a segment
grazing a voxel corner checks the voxels on both sides so rays cannot leak
diagonally between occupied cells.
"""

from __future__ import annotations

import json
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

    def halfspaces(self) -> tuple[np.ndarray, np.ndarray]:
        """Return (A, b) with A x <= b, rows being the six outward axis normals."""
        A = np.vstack([np.eye(3), -np.eye(3)])
        b = np.concatenate([self.max_corner, -self.min_corner])
        return A, b


class OccupancyGrid:
    """Dense boolean voxel occupancy map.

    ``occupied`` is the one voxel array, of shape ``dims``; probabilities given
    as ``values`` are thresholded once, here, and not kept.

    Parameters
    ----------
    origin:
        World position of the lattice corner with the smallest indices [m].
    resolution:
        Voxel edge length [m], > 0.
    dims:
        Number of voxels along each axis.
    values:
        Occupancy probabilities, shape ``dims``, all in [0, 1]. Defaults to
        an all-free grid.
    occ_threshold:
        A voxel is occupied once its value is >= this threshold, in (0, 1).
    """

    def __init__(self, origin, resolution: float, dims, values=None, occ_threshold: float = 0.5):
        self.origin = np.asarray(origin, dtype=float)
        self.resolution = float(resolution)
        self.dims = np.asarray(dims, dtype=int)
        if self.resolution <= 0:
            raise ValueError("resolution must be > 0")
        if not (0.0 < occ_threshold < 1.0):
            raise ValueError("occ_threshold must lie in (0, 1)")
        if np.any(self.dims <= 0):
            raise ValueError("dims must be positive")
        self.occ_threshold = float(occ_threshold)
        if values is None:
            self.occupied = np.zeros(tuple(self.dims), dtype=bool)
        else:
            values = np.asarray(values, dtype=np.float32).reshape(tuple(self.dims))
            if values.min() < 0.0 or values.max() > 1.0:
                raise ValueError("occupancy values must lie in [0, 1]")
            self.occupied = values >= self.occ_threshold

    # ------------------------------------------------------------------
    # Coordinate helpers
    # ------------------------------------------------------------------

    @property
    def max_corner(self) -> np.ndarray:
        return self.origin + self.dims * self.resolution

    def world_to_voxel(self, p) -> np.ndarray:
        """Integer voxel index containing world point ``p`` (may be out of bounds)."""
        return np.floor((np.asarray(p) - self.origin) / self.resolution).astype(int)

    def voxel_center(self, idx) -> np.ndarray:
        return self.origin + (np.asarray(idx) + 0.5) * self.resolution

    def in_bounds(self, idx) -> bool:
        idx = np.asarray(idx)
        return bool(np.all(idx >= 0) and np.all(idx < self.dims))

    # ------------------------------------------------------------------
    # Occupancy queries
    # ------------------------------------------------------------------

    def set_occupied_box(self, min_corner, max_corner, value: float = 1.0):
        """Set all voxels overlapping the box with positive volume to ``value``.

        ``value`` is an occupancy probability; it is thresholded on write.
        """
        lo_g = (np.asarray(min_corner, dtype=float) - self.origin) / self.resolution
        hi_g = (np.asarray(max_corner, dtype=float) - self.origin) / self.resolution
        lo = np.maximum(np.floor(lo_g + 1e-9).astype(int), 0)
        hi = np.minimum(np.ceil(hi_g - 1e-9).astype(int), self.dims)
        if np.any(lo >= hi):
            return
        self.occupied[lo[0]:hi[0], lo[1]:hi[1], lo[2]:hi[2]] = value >= self.occ_threshold

    def is_occupied_voxel(self, idx) -> bool:
        if not self.in_bounds(idx):
            return True
        i, j, k = (int(v) for v in idx)
        return bool(self.occupied[i, j, k])

    def is_occupied(self, p) -> bool:
        """Occupancy of the voxel containing ``p``; out-of-bounds is occupied."""
        return self.is_occupied_voxel(self.world_to_voxel(p))

    def any_occupied(self, points: np.ndarray) -> bool:
        """True if any of the (N, 3) world points sits in an occupied or outside voxel."""
        idx = np.floor((np.asarray(points) - self.origin) / self.resolution).astype(int)
        oob = np.any(idx < 0, axis=1) | np.any(idx >= self.dims, axis=1)
        if oob.any():
            return True
        return bool(self.occupied[idx[:, 0], idx[:, 1], idx[:, 2]].any())

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
        svox = self.world_to_voxel(seed)
        if self.is_occupied_voxel(svox):
            raise SeedOccupied(f"inflation seed {seed.tolist()} is occupied")
        lo = svox.copy()
        hi = svox.copy()  # inclusive voxel index range

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

    def cube_is_free(self, cube: Cube) -> bool:
        """Exhaustively scan all voxels overlapping ``cube`` (interior overlap)."""
        lo = np.floor((cube.min_corner - self.origin) / self.resolution + 1e-9).astype(int)
        hi = np.ceil((cube.max_corner - self.origin) / self.resolution - 1e-9).astype(int)
        if np.any(lo < 0) or np.any(hi > self.dims):
            return False
        return not bool(self.occupied[lo[0]:hi[0], lo[1]:hi[1], lo[2]:hi[2]].any())


# ----------------------------------------------------------------------
# Map construction
# ----------------------------------------------------------------------

_OBSTACLE_TYPES = ("box", "cylinder", "forest")


@dataclass
class MapSpec:
    """Declarative map description, parsed from a JSON object by :meth:`from_dict`.

    Required keys: ``origin`` (3-vector, m), ``resolution`` (m per voxel) and
    ``dims`` (3 positive voxel counts). Optional: ``seed`` (int, for forests),
    ``occ_threshold`` and ``obstacles``, a list of objects whose ``type`` is
    ``box`` (``min``, ``max``), ``cylinder`` (``center`` [x, y], ``radius``,
    optional ``zmin``/``zmax``) or ``forest`` (``density`` in trees per m^2,
    ``radius``, optional ``keep_clear`` list of [x, y, r] discs).
    """

    origin: np.ndarray
    resolution: float
    dims: np.ndarray
    obstacles: list
    seed: int = 0
    occ_threshold: float = 0.5

    @staticmethod
    def from_dict(raw: dict) -> "MapSpec":
        problems = []
        if not isinstance(raw, dict):
            raise InvalidSpec("map spec must be a JSON object")

        def need(field, types, default=None):
            if field not in raw:
                if default is not None:
                    return default
                problems.append(f"{field}: missing required field")
                return None
            value = raw[field]
            if types and not isinstance(value, types):
                problems.append(f"{field}: expected {types}, got {type(value).__name__}")
                return None
            return value

        origin = need("origin", (list, tuple))
        resolution = need("resolution", (int, float))
        dims = need("dims", (list, tuple))
        obstacles = raw.get("obstacles", [])
        seed = raw.get("seed", 0)
        if origin is not None and len(origin) != 3:
            problems.append("origin: expected 3 components")
        if dims is not None and (len(dims) != 3 or any(int(d) <= 0 for d in dims)):
            problems.append("dims: expected 3 positive integers")
        if resolution is not None and resolution <= 0:
            problems.append("resolution: must be > 0")
        if not isinstance(obstacles, list):
            problems.append("obstacles: expected a list")
            obstacles = []
        if not isinstance(seed, int):
            problems.append("seed: expected an integer")
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
                    if key not in obs or len(obs[key]) != 3:
                        problems.append(f"{where}.{key}: expected a 3-vector")
            elif kind == "cylinder":
                if "center" not in obs or len(obs["center"]) < 2:
                    problems.append(f"{where}.center: expected at least [x, y]")
                if obs.get("radius", 0) <= 0:
                    problems.append(f"{where}.radius: must be > 0")
            elif kind == "forest":
                if obs.get("density", 0) <= 0:
                    problems.append(f"{where}.density: must be > 0 (trees per m^2)")
                if obs.get("radius", 0) <= 0:
                    problems.append(f"{where}.radius: must be > 0")
        if problems:
            raise InvalidSpec("invalid map spec:\n  " + "\n  ".join(problems))
        return MapSpec(
            origin=np.asarray(origin, dtype=float),
            resolution=float(resolution),
            dims=np.asarray([int(d) for d in dims]),
            obstacles=obstacles,
            seed=int(seed),
            occ_threshold=float(raw.get("occ_threshold", 0.5)),
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
    """Rasterize a map spec into a grid. Pure function of (spec, seed)."""
    if not isinstance(spec, MapSpec):
        spec = MapSpec.from_dict(spec)
    grid = OccupancyGrid(spec.origin, spec.resolution, spec.dims, occ_threshold=spec.occ_threshold)
    zmin_map = float(spec.origin[2])
    zmax_map = float(spec.origin[2] + spec.dims[2] * spec.resolution)
    rng = np.random.default_rng(spec.seed)
    for obs in spec.obstacles:
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
            extent = spec.dims[:2] * spec.resolution
            area = float(extent[0] * extent[1])
            count = int(round(float(obs["density"]) * area))
            radius = float(obs["radius"])
            keep_clear = [np.asarray(c, dtype=float) for c in obs.get("keep_clear", [])]
            xy = spec.origin[:2] + rng.uniform(0.0, 1.0, size=(count, 2)) * extent
            for tx, ty in xy:
                if any(np.hypot(tx - c[0], ty - c[1]) < c[2] + radius for c in keep_clear):
                    continue
                _rasterize_cylinder(grid, (tx, ty), radius, zmin_map, zmax_map)
    return grid
