"""Discretized volume and boundary integral operators.

The volume operator sums the weakly singular kernel over a ball quadrature,
skipping nodes inside a small exclusion radius around the evaluation point
(the omitted contribution vanishes under refinement).  The boundary
operator is only evaluated at interior points a few mesh spacings away
from the surface; no principal-value quadrature exists here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import quaternions as q
from .errors import NearSingularityError, SingularityError
from .fields import AnalyticField
from .geometry import SurfaceMesh, VolumeQuadrature
from .kernels import upsilon

EXCLUSION_FACTOR = 0.5      # volume nodes closer than this times the local
                            # node spacing are skipped
MIN_DISTANCE_FACTOR = 2.0   # boundary rule: required distance in mesh spacings
BOUNDARY_CHUNK = 16         # targets per block of the boundary potential;
                            # larger blocks were slower per target at 1280
                            # and 5120 triangles (temporaries leave cache)
RESIDUAL_FLOOR = 1e-12


@dataclass(frozen=True)
class BoundaryDensity:
    """Quaternion values attached to the quadrature nodes of a surface."""

    mesh: SurfaceMesh
    values: np.ndarray  # (T, K, 4)

    def __post_init__(self):
        expected = (self.mesh.n_triangles, self.mesh.nodes_per_triangle, 4)
        if self.values.shape != expected:
            raise ValueError("values must have shape %s" % (expected,))
        if not q.is_finite(self.values):
            raise ValueError("boundary density contains non-finite values")

    @classmethod
    def from_function(cls, mesh: SurfaceMesh, f) -> "BoundaryDensity":
        return cls(mesh, np.asarray(f(mesh.quad_points), dtype=complex))

    @classmethod
    def from_triangle_values(cls, mesh: SurfaceMesh, values) -> "BoundaryDensity":
        """Panel-constant density: one quaternion per triangle, replicated
        onto every quadrature node of that triangle."""
        values = np.asarray(values, dtype=complex)
        if values.shape != (mesh.n_triangles, 4):
            raise ValueError("expected one quaternion per triangle")
        return cls(mesh, np.repeat(values[:, None, :], mesh.nodes_per_triangle, axis=1))

    @property
    def flat_values(self) -> np.ndarray:
        return self.values.reshape(-1, 4)


@dataclass(frozen=True)
class VolumeDensity:
    """Quaternion values attached to the nodes of a volume rule.

    An optional batched evaluator enables the near-field treatment of the
    volume potential to sample the density off-node; without it the value
    of the nearest node is used instead.
    """

    quadrature: VolumeQuadrature
    values: np.ndarray  # (N, 4)
    evaluator: object = None

    def __post_init__(self):
        expected = (len(self.quadrature.points), 4)
        if self.values.shape != expected:
            raise ValueError("values must have shape %s" % (expected,))
        if not q.is_finite(self.values):
            raise ValueError("volume density contains non-finite values")

    @classmethod
    def from_function(cls, quadrature: VolumeQuadrature, f) -> "VolumeDensity":
        return cls(quadrature, np.asarray(f(quadrature.points), dtype=complex), f)

    def sample(self, pts: np.ndarray) -> np.ndarray:
        if self.evaluator is not None:
            return np.asarray(self.evaluator(pts), dtype=complex)
        flat = pts.reshape(-1, 3)
        nearest = np.empty(len(flat), dtype=int)
        nodes = self.quadrature.points
        for i, p in enumerate(flat):
            nearest[i] = int(np.argmin(np.sum((nodes - p) ** 2, axis=1)))
        return self.values[nearest].reshape(pts.shape[:-1] + (4,))


def _smoothstep(t: np.ndarray) -> np.ndarray:
    t = np.clip(t, 0.0, 1.0)
    return t * t * t * (t * (6.0 * t - 15.0) + 10.0)


_NEAR_DIRECTIONS: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _near_rule(level: int = 1):
    """Angular directions/weights for the polar near-field rule (cached)."""
    if level not in _NEAR_DIRECTIONS:
        from .geometry import build_sphere_mesh

        s = build_sphere_mesh(1.0, level)
        d = s.centroids
        d /= np.linalg.norm(d, axis=1)[:, None]
        _NEAR_DIRECTIONS[level] = (d, s.areas * (4.0 * np.pi / s.area))
    return _NEAR_DIRECTIONS[level]


def teodorescu(alpha, sign: int, density: VolumeDensity, x,
               near_rule: str = "cutoff",
               cutoff_factor: float = 3.0,
               exclusion_factor: float = EXCLUSION_FACTOR) -> np.ndarray:
    """Volume potential sum_j w_j * Ups(x - y_j) * f(y_j) over the rule.

    Three treatments of the weakly singular region around x:

    - "cutoff" (default): a smooth partition of unity removes the ball of
      radius rho = cutoff_factor * mean node spacing from the global sum;
      the complementary near integral is evaluated in polar coordinates
      centered at x, where the volume element cancels the 1/r**2 kernel
      growth exactly.  Off-node density values come from density.sample.
    - "exclude": nodes closer than exclusion_factor times the local node
      spacing w_j**(1/3) are simply skipped (first-order accurate).
    - "none": plain sum; raises if x coincides with a node.
    """
    x = np.asarray(x, dtype=float)
    quad = density.quadrature
    diff = x - quad.points
    r = np.linalg.norm(diff, axis=1)

    if near_rule == "none":
        if np.any(r == 0.0):
            raise SingularityError("evaluation point coincides with a quadrature node")
        ker = upsilon(alpha, sign, diff)
        return np.einsum("n,nk->k", quad.weights.astype(complex),
                         q.qmul(ker, density.values))
    if near_rule == "exclude":
        keep = r >= exclusion_factor * quad.weights ** (1.0 / 3.0)
        ker = upsilon(alpha, sign, diff[keep])
        return np.einsum("n,nk->k", quad.weights[keep].astype(complex),
                         q.qmul(ker, density.values[keep]))
    if near_rule != "cutoff":
        raise ValueError("near_rule must be 'cutoff', 'exclude' or 'none'")

    rho = cutoff_factor * float(np.mean(quad.weights ** (1.0 / 3.0)))
    chi = _smoothstep(r / rho - 1.0)  # 0 inside rho, 1 beyond 2*rho
    w = quad.weights * chi
    m = w > 0.0
    ker = upsilon(alpha, sign, diff[m])
    out = np.einsum("n,nk->k", w[m].astype(complex), q.qmul(ker, density.values[m]))

    t, gw = np.polynomial.legendre.leggauss(8)
    rr = (t + 1.0) * rho           # radii in (0, 2*rho)
    wr = gw * rho
    dirs, ang_w = _near_rule()
    offsets = rr[:, None, None] * dirs[None, :, :]
    y = x + offsets
    inside = np.linalg.norm(y, axis=-1) <= quad.radius
    near_vals = density.sample(y)
    near_ker = upsilon(alpha, sign, -offsets)
    near_w = ((wr * rr**2)[:, None] * ang_w[None, :]) \
        * (1.0 - _smoothstep(rr[:, None] / rho - 1.0)) * inside
    return out + np.einsum("nd,ndk->k", near_w.astype(complex),
                           q.qmul(near_ker, near_vals))


def boundary_distance(mesh: SurfaceMesh, x) -> float:
    """Distance from x to the discrete boundary (its quadrature nodes)."""
    x = np.asarray(x, dtype=float)
    return float(np.min(np.linalg.norm(x - mesh.flat_points, axis=1)))


def cauchy_boundary(alpha, sign: int, density: BoundaryDensity, x,
                    min_distance_factor: float = MIN_DISTANCE_FACTOR) -> np.ndarray:
    """Boundary potential -sum_j a_j * Ups(x - y_j) * n(y_j) * f(y_j).

    x is one target (3,) or many (M, 3); the result has shape (4,) or
    (M, 4).  Targets are evaluated BOUNDARY_CHUNK at a time.  The
    quaternionic triple product is taken in exactly this order.  Raises
    NearSingularityError when a target comes closer to the surface than
    min_distance_factor mesh spacings.
    """
    mesh = density.mesh
    x = np.asarray(x, dtype=float)
    if x.ndim not in (1, 2) or x.shape[-1] != 3:
        raise ValueError("targets must have shape (3,) or (M, 3)")
    xs = x.reshape(-1, 3)
    g = mesh.flat_weights[:, None] * q.qmul(q.vector(mesh.flat_normals),
                                            density.flat_values)  # (N, 4)
    units = np.array(q.UNITS)
    d_min = min_distance_factor * mesh.spacing
    out = np.empty((len(xs), 4), dtype=complex)
    for start in range(0, len(xs), BOUNDARY_CHUNK):
        diff = xs[start:start + BOUNDARY_CHUNK, None, :] - mesh.flat_points[None, :, :]
        dist = float(np.linalg.norm(diff, axis=2).min())
        if dist < d_min * (1.0 - 1e-9):
            raise NearSingularityError(dist, d_min)
        ker = upsilon(alpha, sign, diff)
        # sum_n Ups_n * g_n = sum_a i_a * (sum_n Ups_{n,a} g_n): one
        # (4, N) @ (N, 4) product per target, then four unit products
        partial = np.swapaxes(ker, 1, 2) @ g
        out[start:start + BOUNDARY_CHUNK] = -q.qmul(units, partial).sum(axis=1)
    return out.reshape(x.shape[:-1] + (4,))


def borel_pompeiu_residual(f: AnalyticField, alpha, sign: int,
                           mesh: SurfaceMesh, quadrature: VolumeQuadrature, x,
                           floor: float = RESIDUAL_FLOOR,
                           near_rule: str = "cutoff",
                           min_distance_factor: float = MIN_DISTANCE_FACTOR) -> float:
    """Relative defect of the reproduction identity (K + T D) f = f at x.

    The boundary trace and the exact derivative come from the field's
    analytic oracles, so the residual measures quadrature error only.
    """
    trace = BoundaryDensity.from_function(mesh, f.value)
    volume = VolumeDensity.from_function(quadrature, f.d_alpha(alpha, sign))
    reproduced = (
        cauchy_boundary(alpha, sign, trace, x, min_distance_factor=min_distance_factor)
        + teodorescu(alpha, sign, volume, x, near_rule=near_rule)
    )
    fx = f.value(np.asarray(x, dtype=float))
    return float(q.norm(reproduced - fx) / max(q.norm(fx), floor))
