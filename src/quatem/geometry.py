"""Triangulated closed surfaces, their boundary rules and the polar ball rule.

The canonical boundary is an icosphere: a subdivided icosahedron projected
onto the sphere, with consistently outward-wound triangles.  Surface
integrals over a mesh use one node per triangle, its centroid (the mesh's
rule, for any closed surface).  On the sphere itself sphere_rule places
three nodes per icosphere triangle on the exact surface, a fourth-order
rule.  Volume integrals over the ball use a polar rule centred on each
target (BallRule), whose volume element cancels the kernel's growth.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, TopologyError

MAX_SUBDIVISION = 7  # 20 * 4**7 = 327680 triangles, the desk-scale budget
POLAR_ORDERS = (8, 8, 16)  # BallRule: Gauss-Legendre r and cos(theta), trapezoid phi

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
class SurfaceRule:
    """Quadrature nodes of a closed surface: points with outward unit
    normals and weights, and the spacing of the mesh they come from, which
    sets the boundary operator's exclusion zone."""

    points: np.ndarray   # (N, 3)
    normals: np.ndarray  # (N, 3)
    weights: np.ndarray  # (N,)
    spacing: float

    @property
    def flat_points(self) -> np.ndarray:
        """The points; the benchmark's tracer (perfbench/tracing.py) reads them."""
        return self.points


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
    def rule(self) -> SurfaceRule:
        """The centroid rule: one node per triangle, weighted by its area."""
        return SurfaceRule(self.centroids, self.normals, self.areas, self.spacing)


@dataclass(frozen=True)
class BallRule:
    """Polar product rule on the ball |y| < radius about the origin,
    centred on each target x: y = x + rho t s for reference nodes t s in the
    unit ball, where rho = -x.s + sqrt((x.s)**2 + radius**2 - |x|**2) is the
    distance from x to the sphere along the unit direction s."""

    radius: float
    points: np.ndarray   # (N, 3) reference nodes t s, 0 < t < 1
    weights: np.ndarray  # (N,) their weights, w_s w_t t**2, summing to 4*pi/3

    def check(self, xs: np.ndarray) -> np.ndarray:
        """The squared norms of the targets xs (M, 3); ValueError, naming
        the target, for one not inside the ball."""
        sq = np.einsum("mk,mk->m", xs, xs)
        if np.any(sq >= self.radius**2):
            raise ValueError("volume target %s is not inside the ball of radius %g"
                             % (xs[np.argmax(sq >= self.radius**2)].tolist(), self.radius))
        return sq

    def nodes(self, xs: np.ndarray):
        """Nodes y (M, N, 3) and weights (M, N) of the rule centred on each
        target of xs (M, 3) (check): the volume element r**2 dr dOmega,
        r = rho t, whose r**2 cancels a kernel's 1/r**2, gives the weights
        w rho**3."""
        sq = self.check(xs)
        # x.s term by term: a matrix product of one target would group its
        # sums differently from a batch (BLAS takes it as matrix-vector)
        proj = sum(xs[:, k, None] * self.points[:, k] for k in range(3)) / np.sqrt(
            np.einsum("nk,nk->n", self.points, self.points))
        rho = np.sqrt(proj * proj + (self.radius**2 - sq)[:, None]) - proj
        return xs[:, None, :] + rho[..., None] * self.points, self.weights * rho**3


def mesh_from_arrays(vertices, triangles) -> SurfaceMesh:
    """Assemble a SurfaceMesh from vertex/triangle arrays.

    Normals follow the triangle winding; callers are responsible for
    outward orientation (checked_normals diagnoses it).
    """
    vertices = np.asarray(vertices, dtype=float)
    triangles = np.asarray(triangles, dtype=int)
    corners = vertices[triangles]  # (T, 3, 3)
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        cross = np.cross(corners[:, 1] - corners[:, 0], corners[:, 2] - corners[:, 0])
        doubled = np.linalg.norm(cross, axis=1)
    if np.any(doubled == 0.0):
        raise TopologyError("degenerate (zero-area) triangle in mesh")
    if not np.all(np.isfinite(doubled)):
        raise TopologyError("triangle area out of floating-point range in mesh")
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

    The midpoint of each edge is appended under the edge's id from _edges.
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


def sphere_rule(radius: float, level: int) -> SurfaceRule:
    """Three nodes per triangle of the level-`level` icosphere, on the
    sphere itself: each flat triangle's symmetric degree-2 rule
    (barycentric (2/3, 1/6, 1/6) and its permutations, weight a/3 each)
    projected radially.  A node p of a triangle of area a and unit normal n
    moves to radius * p/|p|, with normal p/|p| and weight
    (a/3) radius**2 (n.p)/|p|**3, the Jacobian of the projection.  The
    nodes run triangle by triangle; the spacing is the icosphere's."""
    mesh = build_sphere_mesh(radius, level)
    barycentric = np.array([[4.0, 1.0, 1.0], [1.0, 4.0, 1.0], [1.0, 1.0, 4.0]]) / 6.0
    p = barycentric @ mesh.vertices[mesh.triangles]  # (T, 3 nodes, 3)
    dist = np.linalg.norm(p, axis=-1)
    unit = (p / dist[..., None]).reshape(-1, 3)
    weights = (radius**2 / 3.0) * mesh.areas[:, None] * np.einsum(
        "tnk,tk->tn", p, mesh.normals) / dist**3
    return SurfaceRule(radius * unit, unit, weights.reshape(-1), mesh.spacing)


def polar_ball_rule(radius: float, orders=POLAR_ORDERS) -> BallRule:
    """The BallRule of the given radius and orders (n_r, n_cos, n_phi):
    Gauss-Legendre in r / rho and in cos(theta), the trapezoid rule in phi,
    n_cos * n_phi directions."""
    if not 0 < radius < np.inf:
        raise ValueError("radius must be finite and positive, got %g" % radius)
    n_r, n_cos, n_phi = orders
    t, wt = np.polynomial.legendre.leggauss(n_r)
    t = 0.5 * (t + 1.0)
    cos, wc = np.polynomial.legendre.leggauss(n_cos)
    phi = 2.0 * np.pi * np.arange(n_phi) / n_phi
    sin = np.sqrt(1.0 - cos * cos)[:, None]
    s = np.stack([sin * np.cos(phi), sin * np.sin(phi),
                  np.broadcast_to(cos[:, None], (n_cos, n_phi))], axis=-1).reshape(-1, 1, 3)
    w = np.repeat(wc * (2.0 * np.pi / n_phi), n_phi)[:, None] * (0.5 * wt * t * t)
    return BallRule(float(radius), (s * t[:, None]).reshape(-1, 3), w.reshape(-1))


@dataclass(frozen=True)
class NormalCheck:
    """Closure and orientation diagnostics for a closed surface mesh."""

    flux_residual: float        # | sum_t A_t n_t |, ~0 for a closed consistent mesh
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
    return NormalCheck(
        flux_residual=flux,
        signed_volume=signed_volume,
        consistent_orientation=consistent,
    )


def save_off(mesh: SurfaceMesh, path) -> None:
    """Write the mesh in ASCII OFF format."""
    with open(path, "w") as fh:
        fh.write("OFF\n%d %d 0\n" % (len(mesh.vertices), len(mesh.triangles)))
        np.savetxt(fh, mesh.vertices, fmt="%.17g")
        np.savetxt(fh, mesh.triangles, fmt="3 %d %d %d")


def _rows(tokens, kind, width, part):
    """The tokens as rows of `width` numbers of `kind`, float or np.int64;
    ValueError naming the first token that is not one and its row, part.format(row)."""
    try:
        return np.array(tokens, dtype=kind).reshape(-1, width)
    except ValueError:  # read again one by one, up to the first that fails
        for i, token in enumerate(tokens):
            try:
                np.array(token, dtype=kind)
            except ValueError:
                raise ValueError("%r in %s is not %s" % (token, part.format(i // width),
                                 "a number" if kind is float else "an integer"))


def load_off(path) -> SurfaceMesh:
    """Read an ASCII OFF file (triangles only).

    Raises TopologyError, naming the file, on a file that is not OFF, is cut
    short or runs past the faces it declares, holds a token that is not a
    number (named with its vertex, face or the counts) or a vertex coordinate
    that is not finite, has a non-triangular or zero-area face, indexes a
    vertex it does not hold, or is not closed and wound consistently outward.
    """
    try:
        with open(path) as fh:
            tokens = re.sub(r"#.*", "", fh.read()).split()
        if len(tokens) < 4 or tokens[0] != "OFF":
            raise TopologyError("not an ASCII OFF file")
        nv, nf = _rows(tokens[1:3], np.int64, 2, "the counts")[0].tolist()
        start = 4 + 3 * nv
        end = start + 4 * nf
        if min(nv, nf) < 1 or len(tokens) != end:
            raise TopologyError("empty, truncated or overlong: it declares %d vertices and "
                                "%d faces" % (nv, nf))
        vertices = _rows(tokens[4:start], float, 3, "vertex {}")
        if not np.all(np.isfinite(vertices)):
            raise TopologyError("a vertex coordinate is not finite")
        faces = _rows(tokens[start:end], np.int64, 4, "face {}")
        if np.any(faces[:, 0] != 3):
            raise TopologyError("a face is not a triangle")
        faces = faces[:, 1:]
        if np.any((faces < 0) | (faces >= nv)):
            raise TopologyError("face index out of range 0..%d" % (nv - 1))
        mesh = mesh_from_arrays(vertices, faces)
        check = checked_normals(mesh)  # TopologyError on an open mesh
        if not check.consistent_orientation or check.signed_volume <= 0:
            raise TopologyError("mesh is not wound consistently outward (signed volume %g)"
                                % check.signed_volume)
        return mesh
    except (TopologyError, ValueError, OverflowError) as exc:
        raise TopologyError("OFF file %s: %s" % (path, exc)) from None


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
