"""Triangulated closed surfaces and ball quadrature rules.

The canonical boundary is an icosphere: a subdivided icosahedron projected
onto the sphere, with consistently outward-wound triangles.  Volume
integration over the ball uses a radial Gauss-Legendre rule crossed with
the angular directions of an icosphere of the same subdivision level.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, TopologyError

MAX_SUBDIVISION = 7  # 20 * 4**7 = 327680 triangles, the desk-scale budget

_PHI = (1.0 + 5.0**0.5) / 2.0

_ICO_VERTICES = np.array(
    [
        [-1, _PHI, 0], [1, _PHI, 0], [-1, -_PHI, 0], [1, -_PHI, 0],
        [0, -1, _PHI], [0, 1, _PHI], [0, -1, -_PHI], [0, 1, -_PHI],
        [_PHI, 0, -1], [_PHI, 0, 1], [-_PHI, 0, -1], [-_PHI, 0, 1],
    ],
    dtype=float,
)

# Outward-wound faces of the icosahedron above (counter-clockwise seen from
# outside).
_ICO_FACES = np.array(
    [
        [0, 11, 5], [0, 5, 1], [0, 1, 7], [0, 7, 10], [0, 10, 11],
        [1, 5, 9], [5, 11, 4], [11, 10, 2], [10, 7, 6], [7, 1, 8],
        [3, 9, 4], [3, 4, 2], [3, 2, 6], [3, 6, 8], [3, 8, 9],
        [4, 9, 5], [2, 4, 11], [6, 2, 10], [8, 6, 7], [9, 8, 1],
    ],
    dtype=int,
)

# Barycentric nodes of the per-triangle rules.  The 3-point edge-midpoint
# rule is exact for quadratics on the flat triangle.
_TRI_RULES = {
    1: (np.array([[1 / 3, 1 / 3, 1 / 3]]), np.array([1.0])),
    3: (
        np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]]),
        np.array([1 / 3, 1 / 3, 1 / 3]),
    ),
}


@dataclass(frozen=True)
class SurfaceMesh:
    """Closed triangulated surface with outward unit normals and a
    per-triangle quadrature rule."""

    vertices: np.ndarray      # (V, 3)
    triangles: np.ndarray     # (T, 3) vertex indices
    normals: np.ndarray       # (T, 3) outward unit normals
    areas: np.ndarray         # (T,)
    quad_points: np.ndarray   # (T, K, 3)
    quad_weights: np.ndarray  # (T, K), rows sum to areas

    @property
    def n_triangles(self) -> int:
        return len(self.triangles)

    @property
    def nodes_per_triangle(self) -> int:
        return self.quad_points.shape[1]

    @property
    def area(self) -> float:
        return float(self.areas.sum())

    @property
    def centroids(self) -> np.ndarray:
        return self.vertices[self.triangles].mean(axis=1)

    @property
    def spacing(self) -> float:
        """Characteristic mesh length, sqrt of the mean triangle area."""
        return float(np.sqrt(self.areas.mean()))

    @property
    def flat_points(self) -> np.ndarray:
        return self.quad_points.reshape(-1, 3)

    @property
    def flat_weights(self) -> np.ndarray:
        return self.quad_weights.reshape(-1)

    @property
    def flat_normals(self) -> np.ndarray:
        return np.repeat(self.normals, self.nodes_per_triangle, axis=0)


@dataclass(frozen=True)
class VolumeQuadrature:
    """Interior quadrature nodes and weights for a ball-shaped domain."""

    points: np.ndarray   # (N, 3), strictly interior
    weights: np.ndarray  # (N,), positive, summing to the ball volume
    radius: float
    description: str

    @property
    def volume(self) -> float:
        return float(self.weights.sum())


def mesh_from_arrays(vertices, triangles, nodes_per_triangle: int = 1) -> SurfaceMesh:
    """Assemble a SurfaceMesh from vertex/triangle arrays.

    Normals follow the triangle winding; callers are responsible for
    outward orientation (checked_normals diagnoses it).
    """
    vertices = np.asarray(vertices, dtype=float)
    triangles = np.asarray(triangles, dtype=int)
    if nodes_per_triangle not in _TRI_RULES:
        raise ValueError("nodes_per_triangle must be one of %s" % sorted(_TRI_RULES))
    corners = vertices[triangles]  # (T, 3, 3)
    cross = np.cross(corners[:, 1] - corners[:, 0], corners[:, 2] - corners[:, 0])
    doubled = np.linalg.norm(cross, axis=1)
    if np.any(doubled == 0.0):
        raise TopologyError("degenerate (zero-area) triangle in mesh")
    areas = 0.5 * doubled
    normals = cross / doubled[:, None]
    bary, wts = _TRI_RULES[nodes_per_triangle]
    quad_points = np.einsum("kb,tbi->tki", bary, corners)
    quad_weights = areas[:, None] * wts[None, :]
    return SurfaceMesh(vertices, triangles, normals, areas, quad_points, quad_weights)


def _subdivide(vertices: np.ndarray, faces: np.ndarray):
    """One midpoint subdivision step with vertices kept on the unit sphere."""
    verts = list(vertices)
    cache: dict[tuple[int, int], int] = {}

    def midpoint(i: int, j: int) -> int:
        key = (i, j) if i < j else (j, i)
        if key not in cache:
            m = verts[i] + verts[j]
            m /= np.linalg.norm(m)
            cache[key] = len(verts)
            verts.append(m)
        return cache[key]

    new_faces = []
    for a, b, c in faces:
        ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
        new_faces.extend([(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)])
    return np.array(verts), np.array(new_faces, dtype=int)


def build_sphere_mesh(radius: float, level: int, nodes_per_triangle: int = 1) -> SurfaceMesh:
    """Icosphere of the given radius: 20 * 4**level triangles."""
    if radius <= 0:
        raise ValueError("radius must be positive")
    if level < 0:
        raise ValueError("subdivision level must be >= 0")
    if level > MAX_SUBDIVISION:
        raise CapacityError(
            "subdivision level %d exceeds the budget (max %d)" % (level, MAX_SUBDIVISION)
        )
    vertices = _ICO_VERTICES / np.linalg.norm(_ICO_VERTICES[0])
    faces = _ICO_FACES
    for _ in range(level):
        vertices, faces = _subdivide(vertices, faces)
    return mesh_from_arrays(vertices * radius, faces, nodes_per_triangle)


def build_ball_quadrature(radius: float, level: int,
                          radial_order: int | None = None) -> VolumeQuadrature:
    """Product rule on the ball: Gauss-Legendre in radius times the angular
    cells of a level-`level` icosphere (cell weights normalized to 4*pi).

    By default the radial order doubles with each level (8 at level <= 2),
    so that `level` refines the rule isotropically; pass radial_order to
    pin it instead.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    if radial_order is None:
        radial_order = max(8, 2 ** (level + 1))
    if radial_order < 1:
        raise ValueError("radial_order must be >= 1")
    sphere = build_sphere_mesh(1.0, level)
    dirs = sphere.centroids
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    ang_w = sphere.areas * (4.0 * np.pi / sphere.area)
    t, w = np.polynomial.legendre.leggauss(radial_order)
    r = 0.5 * radius * (t + 1.0)
    wr = 0.5 * radius * w
    points = (r[:, None, None] * dirs[None, :, :]).reshape(-1, 3)
    weights = ((wr * r**2)[:, None] * ang_w[None, :]).reshape(-1)
    return VolumeQuadrature(
        points, weights, float(radius),
        "ball r=%g, GL%d x icosphere level %d" % (radius, radial_order, level),
    )


@dataclass(frozen=True)
class NormalCheck:
    """Divergence-theorem diagnostics for a closed surface mesh."""

    flux_residual: float        # | sum_t A_t n_t |, ~0 for a closed consistent mesh
    divergence_residual: float  # relative gap between int x.n dG and 3*Vol
    signed_volume: float        # from the vertex winding; > 0 means outward
    consistent_orientation: bool


def checked_normals(mesh: SurfaceMesh) -> NormalCheck:
    """Closedness/orientation report.  Raises TopologyError on an open mesh."""
    directed: dict[tuple[int, int], int] = {}
    undirected: dict[tuple[int, int], int] = {}
    for a, b, c in mesh.triangles:
        for i, j in ((a, b), (b, c), (c, a)):
            directed[(i, j)] = directed.get((i, j), 0) + 1
            key = (i, j) if i < j else (j, i)
            undirected[key] = undirected.get(key, 0) + 1
    if any(count != 2 for count in undirected.values()):
        raise TopologyError("mesh is not closed: an edge is not shared by exactly 2 triangles")
    consistent = all(count == 1 for count in directed.values())

    corners = mesh.vertices[mesh.triangles]
    signed_volume = float(
        np.einsum("ti,ti->", corners[:, 0], np.cross(corners[:, 1], corners[:, 2])) / 6.0
    )
    flux = float(np.linalg.norm((mesh.areas[:, None] * mesh.normals).sum(axis=0)))
    moment = float(np.sum(mesh.areas * np.einsum("ti,ti->t", mesh.centroids, mesh.normals)))
    scale = max(abs(3.0 * signed_volume), 1e-300)
    return NormalCheck(
        flux_residual=flux,
        divergence_residual=abs(moment - 3.0 * signed_volume) / scale,
        signed_volume=signed_volume,
        consistent_orientation=consistent,
    )


def interior_offset_points(mesh: SurfaceMesh, depth: float):
    """Collocation points displaced inward by `depth` from the triangle
    centroids, shape (T, 3).  Whether they keep a safe distance from the
    surface is checked where they are used (operators.cauchy_boundary).
    """
    if depth <= 0:
        raise ValueError("offset depth must be positive")
    center = mesh.vertices.mean(axis=0)
    inradius = float(np.min(np.linalg.norm(mesh.centroids - center, axis=1)))
    if depth >= inradius:
        raise ValueError(
            "offset depth %g exceeds the inradius estimate %g" % (depth, inradius)
        )
    return mesh.centroids - depth * mesh.normals


def save_off(mesh: SurfaceMesh, path) -> None:
    """Write the mesh in ASCII OFF format."""
    with open(path, "w") as fh:
        fh.write("OFF\n%d %d 0\n" % (len(mesh.vertices), len(mesh.triangles)))
        for v in mesh.vertices:
            fh.write("%.17g %.17g %.17g\n" % tuple(v))
        for t in mesh.triangles:
            fh.write("3 %d %d %d\n" % tuple(t))


def load_off(path, nodes_per_triangle: int = 1) -> SurfaceMesh:
    """Read an ASCII OFF file (triangles only)."""
    with open(path) as fh:
        tokens = []
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if line:
                tokens.extend(line.split())
    if not tokens or tokens[0] != "OFF":
        raise TopologyError("not an ASCII OFF file: %s" % path)
    nv, nf = int(tokens[1]), int(tokens[2])
    pos = 4
    vertices = np.array(tokens[pos:pos + 3 * nv], dtype=float).reshape(nv, 3)
    pos += 3 * nv
    faces = []
    for _ in range(nf):
        n = int(tokens[pos])
        if n != 3:
            raise TopologyError("only triangular faces are supported")
        faces.append([int(tokens[pos + 1]), int(tokens[pos + 2]), int(tokens[pos + 3])])
        pos += n + 1
    return mesh_from_arrays(vertices, np.array(faces, dtype=int), nodes_per_triangle)


def save_quadrature_csv(quadrature: VolumeQuadrature, path) -> None:
    """Dump a volume rule as CSV with columns x,y,z,w."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "y", "z", "w"])
        for p, w in zip(quadrature.points, quadrature.weights):
            writer.writerow(["%.17g" % p[0], "%.17g" % p[1], "%.17g" % p[2], "%.17g" % w])
