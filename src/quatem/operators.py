"""Discretized volume and boundary integral operators.

Both operators sum the kernel Ups(d) = sign*alpha*theta(r) + c(r) d,
d = x - y, over quadrature nodes in one routine (_kernel_sum), as two
complex scalar-matrix products per block of targets; they differ only in
the right-hand side and in the weight each (target, node) pair gets from
its distance r.  The volume operator's smooth cutoff removes a small ball
around each target, whose integral is summed instead with the level-1
ball rule (geometry.build_ball_quadrature) of radius 2*rho centered at the
target: a polar product rule, whose volume element cancels the kernel's
1/r**2 growth.
The boundary operator is only evaluated at interior points a few mesh
spacings away from the surface (no principal-value quadrature exists
here); its guard reads the same r that the kernel factors use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import quaternions as q
from .errors import NearSingularityError
from .fields import AnalyticField
from .geometry import SurfaceMesh, VolumeQuadrature, build_ball_quadrature
from .kernels import radial_factors, upsilon

CUTOFF_FACTOR = 3.0         # volume rule: cutoff radius in mean node spacings
MIN_DISTANCE_FACTOR = 2.0   # boundary rule: required distance in mesh spacings
BLOCK_PAIRS = 16 * 1280     # target-node pairs per block of a kernel sum: 16
                            # targets at 1280 surface nodes (blocks of 4-32
                            # targets cost the same per target within 10 % at
                            # 1280 and 5120 nodes; 64 and 128 cost 1.25x and
                            # 1.5x more at 5120, the B x N temporaries leave
                            # cache), one target per block for the volume rules
RESIDUAL_FLOOR = 1e-12


@dataclass(frozen=True)
class BoundaryDensity:
    """One quaternion per triangle of a surface, the value at its centroid
    node; the values are stored as complex."""

    mesh: SurfaceMesh
    values: np.ndarray  # (T, 4)

    def __post_init__(self):
        values = np.asarray(self.values, dtype=complex)
        if values.shape != (self.mesh.n_triangles, 4):
            raise ValueError("values must have shape %s" % ((self.mesh.n_triangles, 4),))
        if not q.is_finite(values):
            raise ValueError("boundary density contains non-finite values")
        object.__setattr__(self, "values", values)

    @classmethod
    def from_function(cls, mesh: SurfaceMesh, f) -> "BoundaryDensity":
        return cls(mesh, f(mesh.centroids))


@dataclass(frozen=True)
class VolumeDensity:
    """Quaternion values attached to the nodes of a volume rule, with the
    batched evaluator they came from; the near-field treatment of the
    volume potential samples the density off-node through it."""

    quadrature: VolumeQuadrature
    values: np.ndarray  # (N, 4)
    evaluator: Callable[[np.ndarray], np.ndarray]

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
        return np.asarray(self.evaluator(pts), dtype=complex)


def _smoothstep(t: np.ndarray) -> np.ndarray:
    t = np.clip(t, 0.0, 1.0)
    return t * t * t * (t * (6.0 * t - 15.0) + 10.0)


def _targets(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim not in (1, 2) or x.shape[-1] != 3:
        raise ValueError("targets must have shape (3,) or (M, 3)")
    return x


def _kernel_sum(alpha, sign: int, xs: np.ndarray, y: np.ndarray, g: np.ndarray,
                pair_weights) -> np.ndarray:
    """sum_j W[m, j] Ups(x_m - y_j) g_j for targets xs (M, 3), nodes y (N, 3)
    and quaternions g (N, 4); the result has shape (M, 4).

    The kernel is Ups(d) = sign*alpha*theta(r) + c(r) d with d = x - y and
    r = |d| (kernels.radial_factors), so the node sum factors into two
    complex scalar matrices Theta[m, j] and C[m, j]:

        sum_j Ups_j g_j = sign*alpha (Theta g)_m + x_m * (C g)_m - (C (y*g))_m

    with quaternion products and y*g formed once per call.  Targets go in
    blocks of about BLOCK_PAIRS target-node pairs; each block computes
    r = |x - y| once from the explicit differences, and pair_weights(r)
    returns the real weights W of the block (shape (B, N) or (N,)).
    Pairs of zero weight are left out: their radius is replaced by 1 before
    the factors are formed, so a target on a node stays finite.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    g_yg = np.concatenate([g, q.qmul(q.vector(y), g)], axis=1)  # (N, 8)
    y_cols = np.ascontiguousarray(y.T)
    block = max(1, BLOCK_PAIRS // len(y))
    theta_g = np.empty((len(xs), 4), dtype=complex)
    c_g_yg = np.empty((len(xs), 8), dtype=complex)
    for start in range(0, len(xs), block):
        rows = slice(start, start + block)
        diff = xs[rows].T[:, :, None] - y_cols[:, None, :]
        r = np.sqrt(np.einsum("kmj,kmj->mj", diff, diff))
        w = pair_weights(r)
        np.copyto(r, 1.0, where=w == 0.0)
        th, c = radial_factors(alpha, r)
        th *= w
        c *= w
        theta_g[rows] = th @ g
        c_g_yg[rows] = c @ g_yg
    return sign * alpha * theta_g + q.qmul(q.vector(xs), c_g_yg[:, :4]) - c_g_yg[:, 4:]


def teodorescu(alpha, sign: int, density: VolumeDensity, x) -> np.ndarray:
    """Volume potential sum_j w_j * Ups(x - y_j) * f(y_j) over the rule.

    x is one target (3,) or many (M, 3); the result has shape (4,) or
    (M, 4).  A smooth partition of unity removes the ball of radius
    rho = CUTOFF_FACTOR * mean node spacing around each target from the
    node sum (_kernel_sum); the complementary near integral uses the
    level-1 ball rule of radius 2*rho centered at the target (GL8 radii
    times 80 icosphere directions), whose volume element cancels the
    1/r**2 kernel growth exactly.  Its kernel values do not depend on the
    target; its off-node density values come from one density.sample call
    for all targets.
    """
    x = _targets(x)
    xs = x.reshape(-1, 3)
    quad = density.quadrature
    rho = CUTOFF_FACTOR * float(np.mean(quad.weights ** (1.0 / 3.0)))
    out = _kernel_sum(alpha, sign, xs, quad.points, density.values,
                      lambda r: quad.weights * _smoothstep(r / rho - 1.0))

    near = build_ball_quadrature(2.0 * rho, 1)
    offsets = near.points
    y = xs[:, None, :] + offsets
    inside = np.linalg.norm(y, axis=-1) <= quad.radius
    near_ker = upsilon(alpha, sign, -offsets)
    near_cut = 1.0 - _smoothstep(np.linalg.norm(offsets, axis=1) / rho - 1.0)
    near_w = near.weights * near_cut * inside
    out += np.einsum("mn,mnk->mk", near_w.astype(complex),
                     q.qmul(near_ker, density.sample(y)))
    return out.reshape(x.shape[:-1] + (4,))


def cauchy_boundary(alpha, sign: int, density: BoundaryDensity, x) -> np.ndarray:
    """Boundary potential -sum_j Ups(x - y_j) * g_j with g_j = a_j n_j f_j,
    one node y_j per triangle: its centroid, with area a_j and normal n_j.

    x is one target (3,) or many (M, 3); the result has shape (4,) or
    (M, 4).  The node sum is _kernel_sum with the areas as weights; the
    same per-block radii serve the guard, which raises NearSingularityError
    when a target comes closer to a surface node than MIN_DISTANCE_FACTOR
    mesh spacings.
    """
    mesh = density.mesh
    x = _targets(x)
    d_min = MIN_DISTANCE_FACTOR * mesh.spacing

    def guarded_weights(r):
        dist = float(r.min())
        if dist < d_min * (1.0 - 1e-9):
            raise NearSingularityError(dist, d_min)
        return mesh.areas

    nf = q.qmul(q.vector(mesh.normals), density.values)
    out = -_kernel_sum(alpha, sign, x.reshape(-1, 3), mesh.centroids, nf,
                       guarded_weights)
    return out.reshape(x.shape[:-1] + (4,))


def borel_pompeiu_residual(f: AnalyticField, alpha, sign: int,
                           mesh: SurfaceMesh, quadrature: VolumeQuadrature, x):
    """Relative defect of the reproduction identity (K + T D) f = f at x.

    x is one target (3,) or many (M, 3); the result is a float or an (M,)
    array.  The boundary trace and the exact derivative come from the
    field's analytic oracles, so the residual measures quadrature error
    only; both densities are built once for all targets.
    """
    x = np.asarray(x, dtype=float)
    trace = BoundaryDensity.from_function(mesh, f.value)
    volume = VolumeDensity.from_function(quadrature, f.d_alpha(alpha, sign))
    reproduced = cauchy_boundary(alpha, sign, trace, x) + teodorescu(alpha, sign, volume, x)
    fx = f.value(x)
    res = q.norm(reproduced - fx) / np.maximum(q.norm(fx), RESIDUAL_FLOOR)
    return float(res) if x.ndim == 1 else res
