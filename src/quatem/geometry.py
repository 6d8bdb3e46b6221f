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
MAX_BALL_NODES = 1_310_720  # the level-5 ball rule, on which verify-bp --levels 5
                            # peaked at 515 MB of RSS; the level-6 rule has 8x
                            # the nodes (10485760), the level-7 one 64x

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
    order of the edges' sort keys."""
    directed = np.stack([faces, faces[:, [1, 2, 0]]], axis=-1)
    keys = directed.min(axis=-1) * (int(faces.max()) + 1) + directed.max(axis=-1)
    return directed, np.unique(keys.ravel(), return_inverse=True)[1].reshape(faces.shape)


def _subdivide(vertices: np.ndarray, faces: np.ndarray):
    """One midpoint subdivision step with vertices kept on the unit sphere.

    The midpoint of each edge is appended in order of the edge's first
    appearance, so vertex numbering follows the faces.
    """
    directed, ids = _edges(faces)
    _, first = np.unique(ids.ravel(), return_index=True)
    rank = np.empty_like(first)
    rank[np.argsort(first)] = np.arange(len(first))
    ids = rank[ids]
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
    if not 0 < radius < np.inf:
        raise ValueError("radius must be finite and positive, got %g" % radius)
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


def _radial_order(level: int) -> int:
    return max(8, 2 ** (level + 1))


def checked_ball_nodes(level: int) -> int:
    """Node count of the level-`level` ball rule, 20 * 4**level directions
    times the radial order.  Raises CapacityError past MAX_BALL_NODES."""
    nodes = 20 * 4 ** level * _radial_order(level)
    if nodes > MAX_BALL_NODES:
        raise CapacityError("the level-%d ball rule has %d nodes, past the budget of %d"
                            % (level, nodes, MAX_BALL_NODES))
    return nodes


def build_ball_quadrature(radius: float, level: int) -> VolumeQuadrature:
    """Product rule on the ball: Gauss-Legendre in radius times the angular
    cells of a level-`level` icosphere (cell weights normalized to 4*pi).

    The radial order doubles with each level (8 at level <= 2), so that
    `level` refines the rule isotropically.  Raises CapacityError, before
    allocating, for a rule of more than MAX_BALL_NODES nodes.
    """
    if not 0 < radius < np.inf:
        raise ValueError("radius must be finite and positive, got %g" % radius)
    checked_ball_nodes(level)
    sphere = build_sphere_mesh(1.0, level)
    dirs = sphere.centroids / np.linalg.norm(sphere.centroids, axis=1)[:, None]
    ang_w = sphere.areas * (4.0 * np.pi / sphere.area)
    t, w = np.polynomial.legendre.leggauss(_radial_order(level))
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

    Raises TopologyError, naming the file, on a file that is not OFF, is
    cut short, holds a token that is not a number or a vertex coordinate
    that is not finite, has a non-triangular face or indexes a vertex it
    does not hold.
    """
    with open(path) as fh:
        tokens = re.sub(r"#.*", "", fh.read()).split()
    if len(tokens) < 4 or tokens[0] != "OFF":
        raise TopologyError("not an ASCII OFF file: %s" % path)

    def numbers(part, dtype):
        try:
            return np.array(part, dtype=dtype)
        except (ValueError, OverflowError) as exc:
            raise TopologyError("OFF file %s holds a token that is not a number: %s"
                                % (path, exc)) from None

    nv, nf = numbers(tokens[1:3], np.int64).tolist()
    start = 4 + 3 * nv
    end = start + 4 * nf
    if min(nv, nf) < 1 or len(tokens) < end:
        raise TopologyError("OFF file %s is empty or truncated (it declares %d vertices "
                            "and %d faces)" % (path, nv, nf))
    vertices = numbers(tokens[4:start], float).reshape(nv, 3)
    if not np.all(np.isfinite(vertices)):
        raise TopologyError("OFF file %s holds a vertex coordinate that is not finite" % path)
    faces = numbers(tokens[start:end], np.int64).reshape(nf, 4)
    if np.any(faces[:, 0] != 3):
        raise TopologyError("OFF file %s holds a face that is not a triangle" % path)
    faces = faces[:, 1:]
    if np.any((faces < 0) | (faces >= nv)):
        raise TopologyError("OFF face index out of range 0..%d in %s" % (nv - 1, path))
    return mesh_from_arrays(vertices, faces)


def save_csv(path, table, fmt, header) -> None:
    """Write a 2-D table as CSV: a row of the `header` names, then one row
    per table row, formatted by `fmt` (one format for all columns, one per
    column, or the whole row), with CRLF line ends as the csv module
    writes them.  ValueError, before the file is opened, if a value is NaN
    or infinite."""
    if not np.all(np.isfinite(table)):
        raise ValueError("%s not written: a value is NaN or infinite" % path)
    with open(path, "w", newline="") as fh:
        np.savetxt(fh, table, fmt=fmt, delimiter=",", newline="\r\n",
                   header=",".join(header), comments="")
