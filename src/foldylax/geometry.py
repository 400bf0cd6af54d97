"""Scatterer geometry: surface meshes, body shapes, and cluster metrics.

A scattering configuration is a list of small bodies, each an analytic sphere
or a closed triangle mesh.  Two numbers control every estimate downstream:
the largest body diameter (``epsilon``) and the smallest gap between any two
body surfaces (``delta``).  This module computes both, validates
configurations, evaluates the applicability condition of the point-interaction
model, and ingests scenario documents / OFF meshes.

Conventions
-----------
* Mesh distances are approximated by minima over vertex pairs; the error is
  at most one panel diameter, which is adequate because ``delta`` only enters
  error budgets and conditioning checks.
* Mesh diameters use the vertex set, which realizes the surface diameter
  exactly (the surface lies in the convex hull of its vertices).
* ``delta`` is found by a screen, not by a loop over all pairs.  A body's
  reach ``R`` is the radius of the ball about its center that holds it (the
  sphere radius, or the farthest mesh vertex), so ``|c_i - c_j| - (R_i + R_j)``
  is a lower bound on the gap of bodies i and j; for two spheres it is the
  gap.  The bounds are computed blockwise in numpy.  The pair with the
  smallest bound is evaluated exactly with `BodyShape.surface_distance_to`,
  and so is every pair whose bound, less a few ulps, does not exceed that
  value (or 0, whichever is larger), in lexicographic ``(i, j)`` order.
  ``delta`` is the smallest of these exact gaps, and the first of them that
  is <= 0 raises `OverlappingBodies`, so both come out as an all-pairs loop
  would give them.  The near-field standoff screens point-body pairs the
  same way, with ``R = 0`` for the points.
* A single-body cluster reports ``delta = +inf``; interaction terms divide by
  ``delta`` and therefore vanish.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

__all__ = [
    "MeshError",
    "EmptyCluster",
    "OverlappingBodies",
    "SurfaceMesh",
    "BodyShape",
    "Cluster",
    "RegimeReport",
    "compute_epsilon_delta",
    "shell_count",
    "interaction_sum",
    "validate_regime",
    "icosphere",
    "load_off",
    "save_off",
    "cluster_from_dict",
]

_CHUNK = 1024  # row block for pairwise-distance sweeps
_TILE = 128  # rows and columns of one screen block: about 0.3 MiB of temporaries
_SLACK = 8 * np.finfo(float).eps  # screen margin, relative to |x_i - y_j| + r_i + r_j


class MeshError(ValueError):
    """Surface is not a closed, consistently oriented manifold triangle mesh."""


class EmptyCluster(ValueError):
    """Cluster must contain at least one body."""


class OverlappingBodies(ValueError):
    """Two bodies touch or overlap (surface distance <= 0)."""


# ---------------------------------------------------------------------------
# Surface meshes


@dataclass
class SurfaceMesh:
    """Closed, outward-oriented triangle surface.

    Panels are flat triangles; per-panel areas, outward unit normals and
    centroids are derived on construction.  Construction validates that the
    mesh is a closed manifold (every edge shared by exactly two triangles
    with consistent winding), that the orientation is outward (positive
    signed volume), and that the closed-surface identity ``sum(area*normal)
    = 0`` holds to 1e-10 of the total area.
    """

    vertices: np.ndarray
    triangles: np.ndarray
    areas: np.ndarray = field(init=False, repr=False)
    normals: np.ndarray = field(init=False, repr=False)
    centroids: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.vertices = np.ascontiguousarray(self.vertices, dtype=float)
        self.triangles = np.ascontiguousarray(self.triangles, dtype=np.int64)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 3:
            raise MeshError("vertices must be an (n, 3) array")
        if self.triangles.ndim != 2 or self.triangles.shape[1] != 3:
            raise MeshError("triangles must be an (n, 3) index array")
        if len(self.triangles) < 4:
            raise MeshError("a closed surface needs at least 4 triangles")
        if self.triangles.min() < 0 or self.triangles.max() >= len(self.vertices):
            raise MeshError("triangle index out of range")

        v0, v1, v2 = (self.vertices[self.triangles[:, i]] for i in range(3))
        cross = np.cross(v1 - v0, v2 - v0)
        doubled = np.linalg.norm(cross, axis=1)
        if np.any(doubled == 0.0):
            raise MeshError("degenerate (zero-area) triangle")
        self.areas = 0.5 * doubled
        self.normals = cross / doubled[:, None]
        self.centroids = (v0 + v1 + v2) / 3.0

        self._check_manifold()
        if self.signed_volume() <= 0.0:
            raise MeshError("orientation is inward (signed volume <= 0)")
        vec_area = np.linalg.norm((self.normals * self.areas[:, None]).sum(axis=0))
        if vec_area > 1e-10 * self.areas.sum():
            raise MeshError("total vector area nonzero: surface is not closed")

    def _check_manifold(self):
        seen: set[tuple[int, int]] = set()
        for a, b, c in self.triangles:
            for e in ((int(a), int(b)), (int(b), int(c)), (int(c), int(a))):
                if e in seen:
                    raise MeshError(f"directed edge {e} used twice: inconsistent winding")
                seen.add(e)
        for a, b in seen:
            if (b, a) not in seen:
                raise MeshError(f"boundary edge {(a, b)}: surface is not closed")

    @property
    def n_panels(self) -> int:
        return len(self.triangles)

    def signed_volume(self) -> float:
        v0, v1, v2 = (self.vertices[self.triangles[:, i]] for i in range(3))
        return float(np.einsum("ij,ij->i", v0, np.cross(v1, v2)).sum() / 6.0)

    def volume_centroid(self) -> np.ndarray:
        """Centroid of the enclosed volume (tetrahedral decomposition)."""
        v0, v1, v2 = (self.vertices[self.triangles[:, i]] for i in range(3))
        tet_vol = np.einsum("ij,ij->i", v0, np.cross(v1, v2)) / 6.0
        tet_cen = (v0 + v1 + v2) / 4.0
        return (tet_vol[:, None] * tet_cen).sum(axis=0) / tet_vol.sum()

    def diameter(self) -> float:
        """Max pairwise vertex distance (equals the surface diameter)."""
        v = self.vertices
        best = 0.0
        for i0 in range(0, len(v), _CHUNK):
            d = v[i0 : i0 + _CHUNK, None, :] - v[None, :, :]
            best = max(best, float(np.sqrt(np.einsum("ijk,ijk->ij", d, d)).max()))
        return best

    def max_panel_diameter(self) -> float:
        v0, v1, v2 = (self.vertices[self.triangles[:, i]] for i in range(3))
        e = np.stack([v1 - v0, v2 - v1, v0 - v2])
        return float(np.sqrt(np.einsum("eij,eij->ei", e, e)).max())

    def contains(self, point) -> bool:
        """Generalized-winding-number containment test."""
        p = np.asarray(point, dtype=float)
        a = self.vertices[self.triangles[:, 0]] - p
        b = self.vertices[self.triangles[:, 1]] - p
        c = self.vertices[self.triangles[:, 2]] - p
        la = np.linalg.norm(a, axis=1)
        lb = np.linalg.norm(b, axis=1)
        lc = np.linalg.norm(c, axis=1)
        num = np.einsum("ij,ij->i", a, np.cross(b, c))
        den = (
            la * lb * lc
            + np.einsum("ij,ij->i", a, b) * lc
            + np.einsum("ij,ij->i", b, c) * la
            + np.einsum("ij,ij->i", c, a) * lb
        )
        winding = np.arctan2(num, den).sum() / (2.0 * np.pi)
        return bool(winding > 0.5)

    def translated(self, offset) -> "SurfaceMesh":
        return SurfaceMesh(self.vertices + np.asarray(offset, dtype=float), self.triangles)

    def scaled(self, s: float) -> "SurfaceMesh":
        return SurfaceMesh(self.vertices * float(s), self.triangles)

    def transformed(self, matrix) -> "SurfaceMesh":
        return SurfaceMesh(self.vertices @ np.asarray(matrix, dtype=float).T, self.triangles)


def load_off(path) -> SurfaceMesh:
    """Read an ASCII OFF triangle mesh (header, counts, vertices, '3 i j k')."""
    lines = []
    for raw in Path(path).read_text().splitlines():
        body = raw.split("#", 1)[0].strip()
        if body:
            lines.append(body)
    if not lines or not lines[0].startswith("OFF"):
        raise MeshError(f"{path}: missing OFF header")
    rest = lines[0][3:].strip()
    cursor = 1
    if rest:
        counts = rest.split()
    else:
        counts = lines[cursor].split()
        cursor += 1
    if len(counts) < 2:
        raise MeshError(f"{path}: malformed counts line")
    nv, nf = int(counts[0]), int(counts[1])
    if len(lines) < cursor + nv + nf:
        raise MeshError(f"{path}: truncated file")
    verts = np.array([[float(t) for t in lines[cursor + i].split()[:3]] for i in range(nv)])
    tris = []
    for i in range(nf):
        toks = lines[cursor + nv + i].split()
        if int(toks[0]) != 3:
            raise MeshError(f"{path}: face {i} is not a triangle")
        tris.append([int(toks[1]), int(toks[2]), int(toks[3])])
    return SurfaceMesh(verts, np.array(tris, dtype=np.int64))


def save_off(mesh: SurfaceMesh, path) -> None:
    with open(path, "w") as fh:
        fh.write("OFF\n")
        fh.write(f"{len(mesh.vertices)} {len(mesh.triangles)} 0\n")
        for v in mesh.vertices:
            fh.write(f"{v[0]:.17g} {v[1]:.17g} {v[2]:.17g}\n")
        for t in mesh.triangles:
            fh.write(f"3 {t[0]} {t[1]} {t[2]}\n")


_ICO_T = (1.0 + math.sqrt(5.0)) / 2.0
_ICO_VERTS = [
    (-1, _ICO_T, 0), (1, _ICO_T, 0), (-1, -_ICO_T, 0), (1, -_ICO_T, 0),
    (0, -1, _ICO_T), (0, 1, _ICO_T), (0, -1, -_ICO_T), (0, 1, -_ICO_T),
    (_ICO_T, 0, -1), (_ICO_T, 0, 1), (-_ICO_T, 0, -1), (-_ICO_T, 0, 1),
]
_ICO_FACES = [
    (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
    (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
    (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
    (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
]


def icosphere(subdivisions: int, radius: float = 1.0, center=(0.0, 0.0, 0.0)) -> SurfaceMesh:
    """Subdivided icosahedron with vertices on the sphere.

    Panel counts are 20 * 4^subdivisions (320 / 1280 / 5120 at levels 2/3/4).
    Deterministic vertex and face ordering.
    """
    if subdivisions < 0:
        raise ValueError("subdivisions must be >= 0")
    if radius <= 0.0:
        raise ValueError("radius must be positive")
    verts = [np.array(v, dtype=float) / np.linalg.norm(v) for v in _ICO_VERTS]
    faces = list(_ICO_FACES)
    for _ in range(subdivisions):
        midpoint: dict[tuple[int, int], int] = {}

        def mid(i, j):
            key = (i, j) if i < j else (j, i)
            if key not in midpoint:
                m = verts[i] + verts[j]
                verts.append(m / np.linalg.norm(m))
                midpoint[key] = len(verts) - 1
            return midpoint[key]

        new_faces = []
        for a, b, c in faces:
            ab, bc, ca = mid(a, b), mid(b, c), mid(c, a)
            new_faces += [(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)]
        faces = new_faces
    vertices = np.array(verts) * radius + np.asarray(center, dtype=float)
    return SurfaceMesh(vertices, np.array(faces, dtype=np.int64))


# ---------------------------------------------------------------------------
# Bodies and clusters


@dataclass
class BodyShape:
    """One small scatterer: an analytic sphere or a closed mesh.

    ``center`` is the interaction point of the body (the location its dipole
    pair is attached to).  For mesh bodies the mesh is stored in world
    coordinates and must contain ``center``.
    """

    center: np.ndarray
    radius: float | None = None
    mesh: SurfaceMesh | None = None

    def __post_init__(self):
        self.center = np.asarray(self.center, dtype=float).reshape(3)
        if (self.radius is None) == (self.mesh is None):
            raise ValueError("exactly one of radius / mesh must be given")
        if not np.all(np.isfinite(self.center)):
            raise ValueError("body center must be finite")
        if self.radius is not None and not 0.0 < self.radius < math.inf:
            raise ValueError("sphere radius must be positive and finite")
        if self.mesh is not None and not self.mesh.contains(self.center):
            raise MeshError("body center lies outside the mesh")

    @classmethod
    def sphere(cls, radius: float, center=(0.0, 0.0, 0.0)) -> "BodyShape":
        return cls(center=np.asarray(center, dtype=float), radius=float(radius))

    @classmethod
    def from_mesh(cls, mesh: SurfaceMesh, center=None) -> "BodyShape":
        """Mesh body; the center defaults to the enclosed-volume centroid."""
        if center is None:
            center = mesh.volume_centroid()
        return cls(center=np.asarray(center, dtype=float), mesh=mesh)

    @property
    def kind(self) -> str:
        return "sphere" if self.radius is not None else "mesh"

    def diameter(self) -> float:
        if self.radius is not None:
            return 2.0 * self.radius
        return self.mesh.diameter()

    def surface_distance_to_point(self, point) -> float:
        p = np.asarray(point, dtype=float)
        if self.radius is not None:
            return float(np.linalg.norm(p - self.center) - self.radius)
        return float(np.linalg.norm(self.mesh.vertices - p, axis=1).min())

    def surface_distance_to(self, other: "BodyShape") -> float:
        if self.radius is not None and other.radius is not None:
            # radii summed first so the gap is exactly order-independent
            return float(np.linalg.norm(self.center - other.center) - (self.radius + other.radius))
        if self.radius is not None:
            return other.surface_distance_to_point(self.center) - self.radius
        if other.radius is not None:
            return self.surface_distance_to_point(other.center) - other.radius
        best = math.inf
        va, vb = self.mesh.vertices, other.mesh.vertices
        for i0 in range(0, len(va), _CHUNK):
            d = va[i0 : i0 + _CHUNK, None, :] - vb[None, :, :]
            best = min(best, float(np.sqrt(np.einsum("ijk,ijk->ij", d, d)).min()))
        return best

    def enclosing_radius_from(self, origin) -> float:
        """Radius of the smallest ball about ``origin`` containing the body."""
        o = np.asarray(origin, dtype=float)
        if self.radius is not None:
            return float(np.linalg.norm(self.center - o) + self.radius)
        return float(np.linalg.norm(self.mesh.vertices - o, axis=1).max())


def _centers_and_reach(bodies) -> tuple[np.ndarray, np.ndarray]:
    """Read-only body centers (m, 3) and reaches (m,) (see Conventions)."""
    centers = np.array([b.center for b in bodies], dtype=float).reshape(-1, 3)
    reach = np.array([b.enclosing_radius_from(b.center) for b in bodies], dtype=float)
    centers.flags.writeable = False
    reach.flags.writeable = False
    return centers, reach


def _screened_bounds(x, rx, y, ry, i0, j0, distinct):
    """Bounds of the tile of pairs starting at (i0, j0), less the screen margin.

    Entry (i, j) is ``|x_i - y_j| (1 - s) - (rx_i + ry_j)(1 + s)`` with
    ``s = _SLACK``; with ``distinct`` the pairs j <= i are +inf.
    """
    xs, ys = x[i0 : i0 + _TILE], y[j0 : j0 + _TILE]
    sq = np.zeros((len(xs), len(ys)))
    for axis in range(3):
        d = np.subtract.outer(xs[:, axis], ys[:, axis])
        d *= d
        sq += d
    bound = np.sqrt(sq, out=sq)
    bound *= 1.0 - _SLACK
    reach = np.add.outer(rx[i0 : i0 + _TILE], ry[j0 : j0 + _TILE])
    reach *= 1.0 + _SLACK
    bound -= reach
    if distinct:
        rows = np.arange(i0, i0 + len(xs))
        bound[rows[:, None] >= np.arange(j0, j0 + len(ys))] = np.inf
    return bound


def _screen(x, rx, y, ry, exact, distinct=False) -> list[tuple[int, int]]:
    """Pairs (i, j) that can hold the smallest ``exact(i, j)``, in (i, j) order.

    ``exact(i, j)`` must be at least ``|x_i - y_j| - (rx_i + ry_j)`` up to
    rounding.  The pair of smallest bound is evaluated; every pair whose
    bound, less a few ulps of ``|x_i - y_j| + rx_i + ry_j``, is at most
    ``max(that value, 0)`` is returned.  This includes every pair at which
    ``exact`` is smallest or <= 0.  ``distinct`` keeps the pairs i < j of one
    set (``x is y``).  Bounds are computed in tiles of ``_TILE`` x ``_TILE``.
    """
    lows = []  # (smallest bound, i, j, tile origin) per tile
    for i0 in range(0, len(x), _TILE):
        for j0 in range(i0 if distinct else 0, len(y), _TILE):
            bound = _screened_bounds(x, rx, y, ry, i0, j0, distinct)
            i, j = np.unravel_index(np.argmin(bound), bound.shape)
            lows.append((bound[i, j], i0 + i, j0 + j, i0, j0))
    if not lows:
        return []
    _, i, j, _, _ = min(lows)
    limit = max(exact(int(i), int(j)), 0.0)
    rows, cols = [], []
    for low, _, _, i0, j0 in lows:
        if low <= limit:
            ii, jj = np.nonzero(_screened_bounds(x, rx, y, ry, i0, j0, distinct) <= limit)
            rows.append(ii + i0)
            cols.append(jj + j0)
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    order = np.lexsort((cols, rows))
    return list(zip(rows[order].tolist(), cols[order].tolist()))


def compute_epsilon_delta(bodies) -> tuple[float, float]:
    """Largest body diameter and smallest inter-body surface gap.

    For a single body the gap is reported as ``+inf``; callers treat every
    interaction term as absent.  Raises `OverlappingBodies` if any pair has
    nonpositive gap and `EmptyCluster` for an empty list.  The gap is found
    by the screen described in the module docstring.
    """
    bodies = list(bodies)
    if not bodies:
        raise EmptyCluster("cluster has no bodies")
    eps = max(b.diameter() for b in bodies)
    if len(bodies) == 1:
        return eps, math.inf
    centers, reach = _centers_and_reach(bodies)

    def gap(i, j):
        return bodies[i].surface_distance_to(bodies[j])

    delta = math.inf
    for i, j in _screen(centers, reach, centers, reach, gap, distinct=True):
        g = gap(i, j)
        if g <= 0.0:
            raise OverlappingBodies(f"bodies {i} and {j} touch or overlap (gap {g:g})")
        delta = min(delta, g)
    return eps, delta


@dataclass
class Cluster:
    """Validated collection of bodies with its separation parameters.

    ``domain_diameter`` is the diameter of a ball containing every body; when
    not supplied it is set to twice the enclosing radius about the mean body
    center (a cheap upper bound on the minimal enclosing ball).  ``centers``
    (m, 3) and ``reach`` (m,) are read-only arrays built on construction;
    ``reach`` is each body's radius about its center (see Conventions).
    """

    bodies: list[BodyShape]
    epsilon: float
    delta: float
    domain_diameter: float
    centers: np.ndarray = field(init=False, repr=False, compare=False)
    reach: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.centers, self.reach = _centers_and_reach(self.bodies)

    @classmethod
    def from_bodies(cls, bodies, domain_diameter: float | None = None) -> "Cluster":
        bodies = list(bodies)
        eps, delta = compute_epsilon_delta(bodies)
        anchor = np.mean([b.center for b in bodies], axis=0)
        needed = 2.0 * max(b.enclosing_radius_from(anchor) for b in bodies)
        if domain_diameter is None:
            domain_diameter = needed
        elif domain_diameter < needed * (1.0 - 1e-12):
            raise ValueError(
                f"domain_diameter {domain_diameter:g} cannot contain the cluster "
                f"(needs >= {needed:g})"
            )
        return cls(bodies=bodies, epsilon=eps, delta=delta, domain_diameter=float(domain_diameter))

    @property
    def m(self) -> int:
        return len(self.bodies)


def shell_count(m: int) -> int:
    """Minimal n with 16 n (n^2 + 3n + 3) >= m (the O(m^{1/3}) shell number).

    Shells of width ``delta`` around a body can hold at most
    ``16 (3 l^2 + 3 l + 1)`` body centers each; n is how many shells are
    needed to account for m bodies.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    n = 1
    while 16 * n * (n * n + 3 * n + 3) < m:
        n += 1
    return n


@dataclass
class RegimeReport:
    """Evaluated left-hand side of the applicability condition."""

    value: float
    threshold: float
    within_threshold: bool
    terms: dict[str, float]

    def as_dict(self) -> dict:
        return {
            "value": self.value,
            "threshold": self.threshold,
            "within_threshold": self.within_threshold,
            "terms": dict(self.terms),
        }


def interaction_sum(k, delta: float, m: int) -> float:
    """Interaction sum of the paper's smallness conditions:

        ln(m^{1/3})/delta^3 + 2|k| m^{1/3}/delta^2 + m^{2/3} |k|^2/(2 delta)

    It enters the regime check, the contraction estimate and ``c_li2``.
    """
    ak = abs(complex(k))
    return (
        math.log(m ** (1.0 / 3.0)) / delta**3
        + 2.0 * ak * m ** (1.0 / 3.0) / delta**2
        + m ** (2.0 / 3.0) * ak**2 / (2.0 * delta)
    )


def validate_regime(cluster: Cluster, k, mu_plus: float, threshold: float = 1.0) -> RegimeReport:
    """Evaluate the smallness condition governing the model's validity.

        |k|^2 eps + (1+|k|^2) mu+ eps^3/delta^3
        + interaction_sum(k, delta, m) eps^3

    ``mu_plus`` must be normalized with the same scale as ``cluster.epsilon``
    (the product mu+ * eps^3 is the largest dimensional tensor eigenvalue).
    The comparison constant is not universal; the report carries the raw value
    and a flag against the configurable ``threshold``.
    """
    ak = abs(complex(k))
    eps, delta, m = cluster.epsilon, cluster.delta, cluster.m
    size_term = ak**2 * eps
    tensor_term = (1.0 + ak**2) * mu_plus * eps**3 / delta**3
    interaction = interaction_sum(k, delta, m) * eps**3
    value = size_term + tensor_term + interaction
    return RegimeReport(
        value=value,
        threshold=threshold,
        within_threshold=bool(value < threshold),
        terms={
            "size": size_term,
            "tensor": tensor_term,
            "interaction": interaction,
        },
    )


# ---------------------------------------------------------------------------
# Scenario ingestion


def _is_number(x) -> bool:
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


def cluster_from_dict(doc: dict, base_dir=None) -> Cluster:
    """Build a cluster from a scenario document.

    Expected fields: ``bodies`` (list of ``{kind, center, radius|mesh_path}``)
    and optional ``domain_diameter``.  Mesh paths resolve against
    ``base_dir``; mesh files are in body-local coordinates (containing the
    origin) and are translated to ``center``.  Error messages name the
    offending field.
    """
    if "bodies" not in doc:
        raise ValueError("bodies: field is required")
    raw = doc["bodies"]
    if not isinstance(raw, list) or not raw:
        raise ValueError("bodies: must be a non-empty list")
    bodies = []
    for i, spec in enumerate(raw):
        where = f"bodies[{i}]"
        if not isinstance(spec, dict):
            raise ValueError(f"{where}: must be an object")
        kind = spec.get("kind")
        center = spec.get("center")
        if not isinstance(center, (list, tuple)) or len(center) != 3 or not all(
            map(_is_number, center)
        ):
            raise ValueError(f"{where}.center: must be a list of 3 numbers")
        if not all(map(math.isfinite, center)):
            raise ValueError(f"{where}.center: components must be finite")
        if kind == "sphere":
            radius = spec.get("radius")
            if not _is_number(radius) or not 0.0 < radius < math.inf:
                raise ValueError(f"{where}.radius: must be a positive finite number")
            bodies.append(BodyShape.sphere(float(radius), center))
        elif kind == "mesh":
            rel = spec.get("mesh_path")
            if not rel:
                raise ValueError(f"{where}.mesh_path: required for mesh bodies")
            path = Path(base_dir) / rel if base_dir is not None else Path(rel)
            # OFF files hold the body in local coordinates (containing the
            # origin); the scenario's center places it in the cluster frame.
            mesh = load_off(path).translated(center)
            bodies.append(BodyShape(center=np.asarray(center, dtype=float), mesh=mesh))
        else:
            raise ValueError(f"{where}.kind: must be 'sphere' or 'mesh', got {kind!r}")
    dd = doc.get("domain_diameter")
    return Cluster.from_bodies(bodies, domain_diameter=None if dd is None else float(dd))
