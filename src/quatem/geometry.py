"""Triangulated closed surfaces and ball quadrature rules.

The canonical boundary is an icosphere: a subdivided icosahedron projected
onto the sphere, with consistently outward-wound triangles.  Volume
integration over the ball uses a radial Gauss-Legendre rule crossed with
the angular directions of an icosphere of the same subdivision level.
"""

from __future__ import annotations

import re
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

@dataclass(frozen=True)
class SurfaceMesh:
    """Closed triangulated surface with outward unit normals.

    Surface integrals use one node per triangle: its centroid, weighted by
    its area.  The same centroids are where boundary traces are sampled.
    """

    vertices: np.ndarray   # (V, 3)
    triangles: np.ndarray  # (T, 3) vertex indices
    normals: np.ndarray    # (T, 3) outward unit normals
    areas: np.ndarray      # (T,)
    centroids: np.ndarray  # (T, 3)

    @property
    def n_triangles(self) -> int:
        return len(self.triangles)

    @property
    def area(self) -> float:
        return float(self.areas.sum())

    @property
    def spacing(self) -> float:
        """Characteristic mesh length, sqrt of the mean triangle area."""
        return float(np.sqrt(self.areas.mean()))

    @property
    def inradius(self) -> float:
        """Smallest centroid distance from the vertex mean (star-shaped surfaces)."""
        center = self.vertices.mean(axis=0)
        return float(np.min(np.linalg.norm(self.centroids - center, axis=1)))

    @property
    def flat_points(self) -> np.ndarray:
        return self.centroids


@dataclass(frozen=True)
class VolumeQuadrature:
    """Interior quadrature nodes and weights for a ball-shaped domain."""

    points: np.ndarray   # (N, 3), strictly interior
    weights: np.ndarray  # (N,), positive, summing to the ball volume
    radius: float

    @property
    def volume(self) -> float:
        return float(self.weights.sum())


def mesh_from_arrays(vertices, triangles) -> SurfaceMesh:
    """Assemble a SurfaceMesh from vertex/triangle arrays.

    Normals follow the triangle winding; callers are responsible for
    outward orientation (checked_normals diagnoses it).
    """
    vertices = np.asarray(vertices, dtype=float)
    triangles = np.asarray(triangles, dtype=int)
    corners = vertices[triangles]  # (T, 3, 3)
    cross = np.cross(corners[:, 1] - corners[:, 0], corners[:, 2] - corners[:, 0])
    doubled = np.linalg.norm(cross, axis=1)
    if np.any(doubled == 0.0):
        raise TopologyError("degenerate (zero-area) triangle in mesh")
    return SurfaceMesh(vertices, triangles, cross / doubled[:, None], 0.5 * doubled,
                       corners.mean(axis=1))


def _edges(faces: np.ndarray):
    """Directed edges (a, b), (b, c), (c, a) of each face, shape (F, 3, 2),
    and the id of each one's undirected edge, shape (F, 3), numbered in
    order of first appearance."""
    directed = np.stack([faces, faces[:, [1, 2, 0]]], axis=-1)
    keys = directed.min(axis=-1) * (int(faces.max()) + 1) + directed.max(axis=-1)
    _, first, inverse = np.unique(keys.ravel(), return_index=True, return_inverse=True)
    rank = np.empty_like(first)
    rank[np.argsort(first)] = np.arange(len(first))
    return directed, rank[inverse].reshape(faces.shape)


def _subdivide(vertices: np.ndarray, faces: np.ndarray):
    """One midpoint subdivision step with vertices kept on the unit sphere.

    The midpoint of each edge is appended in order of the edge's first
    appearance, so vertex numbering follows the faces.
    """
    directed, ids = _edges(faces)
    ends = np.empty((int(ids.max()) + 1, 2), dtype=faces.dtype)
    ends[ids] = directed
    m = vertices[ends[:, 0]] + vertices[ends[:, 1]]
    # sqrt of the 3-term dot product rounds like np.linalg.norm of one vector
    m /= np.sqrt(m[:, None, :] @ m[:, :, None])[:, 0]
    a, b, c = faces.T
    ab, bc, ca = (len(vertices) + ids).T
    new_faces = np.stack([a, ab, ca, b, bc, ab, c, ca, bc, ab, bc, ca], axis=1)
    return np.concatenate([vertices, m]), new_faces.reshape(-1, 3)


def build_sphere_mesh(radius: float, level: int) -> SurfaceMesh:
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
    return mesh_from_arrays(vertices * radius, faces)


def build_ball_quadrature(radius: float, level: int) -> VolumeQuadrature:
    """Product rule on the ball: Gauss-Legendre in radius times the angular
    cells of a level-`level` icosphere (cell weights normalized to 4*pi).

    The radial order doubles with each level (8 at level <= 2), so that
    `level` refines the rule isotropically.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    sphere = build_sphere_mesh(1.0, level)
    dirs = sphere.centroids / np.linalg.norm(sphere.centroids, axis=1)[:, None]
    ang_w = sphere.areas * (4.0 * np.pi / sphere.area)
    t, w = np.polynomial.legendre.leggauss(max(8, 2 ** (level + 1)))
    r = 0.5 * radius * (t + 1.0)
    wr = 0.5 * radius * w
    points = (r[:, None, None] * dirs[None, :, :]).reshape(-1, 3)
    weights = ((wr * r**2)[:, None] * ang_w[None, :]).reshape(-1)
    return VolumeQuadrature(points, weights, float(radius))


@dataclass(frozen=True)
class NormalCheck:
    """Divergence-theorem diagnostics for a closed surface mesh."""

    flux_residual: float        # | sum_t A_t n_t |, ~0 for a closed consistent mesh
    divergence_residual: float  # relative gap between int x.n dG and 3*Vol
    signed_volume: float        # from the vertex winding; > 0 means outward
    consistent_orientation: bool


def checked_normals(mesh: SurfaceMesh) -> NormalCheck:
    """Closedness/orientation report.  Raises TopologyError on an open mesh."""
    directed, ids = _edges(mesh.triangles)
    if np.any(np.bincount(ids.ravel()) != 2):
        raise TopologyError("mesh is not closed: an edge is not shared by exactly 2 triangles")
    # each shared edge is consistent when its two triangles run it in
    # opposite directions, i.e. exactly one of them from low to high index
    ascending = directed[..., 0] < directed[..., 1]
    consistent = bool(np.all(np.bincount(ids.ravel(), weights=ascending.ravel()) == 1))

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


def save_off(mesh: SurfaceMesh, path) -> None:
    """Write the mesh in ASCII OFF format."""
    with open(path, "w") as fh:
        fh.write("OFF\n%d %d 0\n" % (len(mesh.vertices), len(mesh.triangles)))
        np.savetxt(fh, mesh.vertices, fmt="%.17g")
        np.savetxt(fh, mesh.triangles, fmt="3 %d %d %d")


def load_off(path) -> SurfaceMesh:
    """Read an ASCII OFF file (triangles only).

    Raises TopologyError on a file that is not OFF, is cut short, has a
    non-triangular face or indexes a vertex it does not hold.
    """
    with open(path) as fh:
        tokens = re.sub(r"#.*", "", fh.read()).split()
    if len(tokens) < 4 or tokens[0] != "OFF":
        raise TopologyError("not an ASCII OFF file: %s" % path)
    nv, nf = int(tokens[1]), int(tokens[2])
    start = 4 + 3 * nv
    end = start + 4 * nf
    if min(nv, nf) < 1 or len(tokens) < end:
        raise TopologyError("OFF file %s is empty or truncated (it declares %d vertices "
                            "and %d faces)" % (path, nv, nf))
    vertices = np.array(tokens[4:start], dtype=float).reshape(nv, 3)
    faces = np.array(tokens[start:end], dtype=np.int64).reshape(nf, 4)
    if np.any(faces[:, 0] != 3):
        raise TopologyError("only triangular faces are supported")
    faces = faces[:, 1:]
    if np.any((faces < 0) | (faces >= nv)):
        raise TopologyError("OFF face index out of range 0..%d in %s" % (nv - 1, path))
    return mesh_from_arrays(vertices, faces)


def save_quadrature_csv(quadrature: VolumeQuadrature, path) -> None:
    """Dump a volume rule as CSV with columns x,y,z,w (CRLF line ends)."""
    with open(path, "w", newline="") as fh:
        np.savetxt(fh, np.column_stack([quadrature.points, quadrature.weights]),
                   fmt="%.17g", delimiter=",", newline="\r\n",
                   header="x,y,z,w", comments="")
