"""Discretized volume and boundary integral operators.

Both operators sum the kernel Ups(d) = sign*alpha*theta(r) + c(r) d,
d = x - y, over quadrature nodes in one routine (_kernel_sum); per block of
targets it forms the radii, the pair weights and the factors' prefactor
once for all (alpha, sign, density) terms, such as the two chiral modes,
and applies the factors as real (re, im) planes in real matrix products.
The operators differ only in the right-hand side and in the weight each
(target, node) pair gets from its distance r.  The volume operator's
smooth cutoff removes a small ball around each target, whose integral is
summed instead with the level-1 ball rule (geometry.build_ball_quadrature)
of radius 2*rho centered at the target: a polar product rule, whose volume
element cancels the kernel's 1/r**2 growth.
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
    node (or K such densities); the values are stored as complex."""

    mesh: SurfaceMesh
    values: np.ndarray  # (T, 4) or (K, T, 4)

    def __post_init__(self):
        values = np.asarray(self.values, dtype=complex)
        if values.ndim not in (2, 3) or values.shape[-2:] != (self.mesh.n_triangles, 4):
            raise ValueError("values must have shape [K,] %s" % ((self.mesh.n_triangles, 4),))
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


def _kernel_sum(alpha, sign, xs: np.ndarray, y: np.ndarray, g: np.ndarray,
                pair_weights) -> np.ndarray:
    """sum_j W[m, j] Ups(x_m - y_j) g_j at targets xs (M, 3) and nodes y (N, 3)
    for quaternions g (N, 4), one alpha and one sign; the result is (M, 4).
    K terms take g (K, N, 4), K alphas and K signs and give (K, M, 4).

    With Ups(d) = sign*alpha*theta(r) + c(r) d, d = x - y and r = |d|
    (kernels.radial_factors), the node sum factors into two scalar
    matrices Theta[m, j] and C[m, j] per alpha:

        sum_j Ups_j g_j = sign*alpha (Theta g)_m + x_m * (C g)_m - (C (y*g))_m

    with quaternion products and y*g formed once per call.  Targets go in
    blocks of about BLOCK_PAIRS target-node pairs.  Once per block for all
    terms, r comes from the explicit differences, pair_weights(r) gives the
    real weights W ((B, N) or (N,)) and radial_factors the weighted (re, im)
    planes of each distinct alpha for real matrix products with the real
    views of g and [g, y*g].  A pair of zero weight gets radius 1 before the
    factors are formed, so a target on a node stays finite.
    """
    alphas, signs = np.asarray(alpha, dtype=complex), np.asarray(sign)
    terms = g.shape[:-2]
    if alphas.shape != terms or signs.shape != terms or not np.all(np.abs(signs) == 1):
        raise ValueError("need one alpha and one sign (+1 or -1) per density")
    alphas, signs, g = alphas.reshape(-1), signs.reshape(-1), g.reshape(-1, len(y), 4)
    distinct, which = np.unique(alphas, return_inverse=True)
    g_yg = np.concatenate([g, q.qmul(q.vector(y), g)], axis=2).view(float)  # (K, N, 16) real
    y_cols = np.ascontiguousarray(y.T)
    block = max(1, BLOCK_PAIRS // len(y))
    theta_g = np.empty((len(g), len(xs), 4), dtype=complex)
    c_g_yg = np.empty((len(g), len(xs), 8), dtype=complex)
    for start in range(0, len(xs), block):
        rows = slice(start, start + block)
        diff = xs[rows].T[:, :, None] - y_cols[:, None, :]
        r = np.sqrt(np.einsum("kmj,kmj->mj", diff, diff))
        w = pair_weights(r)
        np.copyto(r, 1.0, where=w == 0.0)
        th, c = radial_factors(distinct, r, w)
        for k, u in enumerate(which):
            for dest, fac, rhs in ((theta_g, th[u], g_yg[k, :, :8]), (c_g_yg, c[u], g_yg[k])):
                re, im = (fac.reshape(-1, len(y)) @ rhs).reshape(2, -1, rhs.shape[1])
                dest[k, rows] = re.view(complex) + 1j * im.view(complex)
    out = ((signs * alphas)[:, None, None] * theta_g
           + q.qmul(q.vector(xs), c_g_yg[..., :4]) - c_g_yg[..., 4:])
    return out.reshape(terms + out.shape[1:])


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


def cauchy_boundary(alpha, sign, density: BoundaryDensity, x) -> np.ndarray:
    """Boundary potential -sum_j Ups(x - y_j) * g_j with g_j = a_j n_j f_j,
    one node y_j per triangle: its centroid, with area a_j and normal n_j.

    x is one target (3,) or many (M, 3); the result has shape (4,) or
    (M, 4).  Density values (K, T, 4) with K alphas and signs give K terms
    in one _kernel_sum call and a result (K, 4) or (K, M, 4).  The node sum
    takes the areas as weights; the same per-block radii serve the guard,
    which raises NearSingularityError when a target comes closer to a
    surface node than MIN_DISTANCE_FACTOR mesh spacings.
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
    out = -_kernel_sum(alpha, sign, x.reshape(-1, 3), mesh.centroids, nf, guarded_weights)
    return out.reshape(nf.shape[:-2] + x.shape[:-1] + (4,))


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
