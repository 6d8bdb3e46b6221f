"""Field reconstruction from boundary traces and the extendibility check.

E and H are assembled one way: reconstruct the modes Phi = E + iH and
Psi = E - iH from their traces (a current j adds the volume terms of the
representation with sources, integrated over a ball about the origin with
the polar rule centred on each target), then merge.  The source-free two-kernel
displays, which apply K1 = K_{+alpha1} and K2 = K_{-alpha2} to the e and h
traces separately, sum the same quantity in a different grouping; they
serve as an independent cross-check that must agree to roundoff.

Every operator here takes a geometry.SurfaceRule, the traces given at its
nodes: a mesh's centroid rule (SurfaceMesh.rule) or geometry.sphere_rule.

The boundary criterion ("are e, h traces of an interior solution?") is
evaluated as an interior limit: the layer potentials are computed at
points offset inward from each node and extrapolated back to the
surface, which sidesteps singular surface quadrature entirely.  The
problem itself is ill-posed, so only residuals are reported; nothing is
solved or regularized.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import quaternions as q
from .fields import AnalyticField
from .geometry import SurfaceRule, polar_ball_rule
from .maxwell import ChiralMedium, merge_values, phi_psi_rhs, split_values
from .operators import (
    MIN_DISTANCE_FACTOR,
    RESIDUAL_FLOOR,
    BoundaryDensity,
    VolumeDensity,
    cauchy_boundary,
    teodorescu,
)

# Coefficients of the inward-depth extrapolation toward the surface:
# values at depth*m are combined with weight c for each (m, c).
EXTRAPOLATIONS = {
    "linear": ((1, 2.0), (2, -1.0)),
    "quadratic": ((1, 3.0), (2, -3.0), (3, 1.0)),
}


def reconstruct_eh(rule: SurfaceRule, e_trace, h_trace, medium: ChiralMedium, x,
                   current: AnalyticField | None = None, radius: float | None = None):
    """E and H at interior points from traces at the nodes of a SurfaceRule.

    Splits the traces into per-node densities of the modes
    Phi = e + i h and Psi = e - i h, reconstructs both,

    Phi(x) = T_{+a1}(rhs_phi)(x) + K_{+a1} Phi(x)
    Psi(x) = T_{-a2}(rhs_psi)(x) + K_{-a2} Psi(x)

    (the volume terms only with a current j, over the ball of the given
    radius about the origin, which must hold every x; both boundary terms in
    one cauchy_boundary call, both volume terms in one teodorescu call), and
    merges them.  x is one point (3,) or many (M, 3); E and H have shape
    (4,) or (M, 4).  Returns full quaternions (the scalar parts measure
    discretization error; they vanish in the continuum).
    """
    if current is not None and radius is None:
        raise ValueError("a ball radius is required when a current is present")
    a1, a2 = medium.alpha1, medium.alpha2
    modes = BoundaryDensity(rule, q.vector(np.stack(split_values(e_trace, h_trace))))
    phi_psi_x = cauchy_boundary((a1, a2), (1, -1), modes, x)
    if current is not None:
        rhs = VolumeDensity(polar_ball_rule(radius), phi_psi_rhs(current, medium))
        phi_psi_x = phi_psi_x + teodorescu((a1, a2), (1, -1), rhs, x)
    return merge_values(*phi_psi_x)


def two_kernel_eh(rule: SurfaceRule, e_trace, h_trace, medium: ChiralMedium, x):
    """Source-free E and H (traces as in reconstruct_eh) by the two-kernel displays

    E = (K1 + K2) e / 2 + i (K1 - K2) h / 2
    H = (K1 - K2) e / (2i) + (K1 + K2) h / 2

    with K1 = K_{+alpha1}, K2 = K_{-alpha2} applied to the e and h traces
    separately (four terms of one cauchy_boundary call).  Equal to
    reconstruct_eh up to roundoff.
    """
    a1, a2 = medium.alpha1, medium.alpha2
    e_h = BoundaryDensity(rule, q.vector(np.stack([e_trace, h_trace] * 2)))
    k1e, k1h, k2e, k2h = cauchy_boundary((a1, a1, a2, a2), (1, 1, -1, -1), e_h, x)
    return (0.5 * (k1e + k2e) + 0.5j * (k1h - k2h),
            (k1e - k2e) / 2j + 0.5 * (k1h + k2h))


@dataclass(frozen=True)
class ExtendibilityReport:
    """Per-node and aggregate residuals of the criterion."""

    residual_e: np.ndarray   # (N,) relative residual of the e equality at each node of the rule
    residual_h: np.ndarray   # (N,) the same for h
    scale: float             # trace magnitude used for normalization
    depth: float
    extrapolation: str

    @property
    def max_e(self) -> float:
        return float(self.residual_e.max())

    @property
    def max_h(self) -> float:
        return float(self.residual_h.max())

    @property
    def rms_e(self) -> float:
        return float(np.sqrt(np.mean(self.residual_e**2)))

    @property
    def rms_h(self) -> float:
        return float(np.sqrt(np.mean(self.residual_h**2)))

    @property
    def rms(self) -> float:
        return float(np.sqrt(0.5 * (self.rms_e**2 + self.rms_h**2)))


def extendibility_residual(rule: SurfaceRule, e_trace, h_trace, medium: ChiralMedium,
                           extrapolation: str = "quadratic") -> ExtendibilityReport:
    """Residuals of the boundary-trace criterion, per node of the rule.

    The source-free reconstruction is evaluated at the nodes moved inward
    along their normals by multiples of depth = MIN_DISTANCE_FACTOR *
    rule.spacing, the boundary operator's exclusion zone (all depths in one
    batch), extrapolated to the surface and compared with the traces there.
    Residuals are quaternion norms (the scalar part of the prediction must
    vanish too) relative to the overall trace magnitude.  ValueError if the
    deepest offset reaches the inradius estimate, the smallest distance of
    a node from the nodes' mean (for star-shaped surfaces); its message
    names a finer mesh as the remedy.
    """
    if extrapolation not in EXTRAPOLATIONS:
        raise ValueError("extrapolation must be one of %s" % sorted(EXTRAPOLATIONS))
    e_trace = np.asarray(e_trace, dtype=complex)
    h_trace = np.asarray(h_trace, dtype=complex)
    n_nodes = len(rule.points)
    if e_trace.shape != (n_nodes, 3) or h_trace.shape != (n_nodes, 3):
        raise ValueError("traces must hold one C^3 vector per node")

    scale = max(
        float(np.max(np.sqrt(np.sum(np.abs(e_trace)**2 + np.abs(h_trace)**2, axis=1)))),
        RESIDUAL_FLOOR,
    )
    steps = EXTRAPOLATIONS[extrapolation]
    depth = MIN_DISTANCE_FACTOR * rule.spacing
    deepest = max(mult for mult, _ in steps)
    inradius = float(np.min(np.linalg.norm(rule.points - rule.points.mean(axis=0), axis=1)))
    if deepest * depth >= inradius:
        raise ValueError("the %s extrapolation offsets down to %d x depth %g = %g, past the "
                         "inradius estimate %g: a finer mesh would run"
                         % (extrapolation, deepest, depth, deepest * depth, inradius))
    pts = np.concatenate([rule.points - (mult * depth) * rule.normals for mult, _ in steps])
    e_x, h_x = reconstruct_eh(rule, e_trace, h_trace, medium, pts)
    e_pred = sum(c * v for (_, c), v in zip(steps, e_x.reshape(len(steps), n_nodes, 4)))
    h_pred = sum(c * v for (_, c), v in zip(steps, h_x.reshape(len(steps), n_nodes, 4)))

    residual_e = q.norm(e_pred - q.vector(e_trace)) / scale
    residual_h = q.norm(h_pred - q.vector(h_trace)) / scale
    return ExtendibilityReport(
        residual_e=residual_e,
        residual_h=residual_h,
        scale=scale,
        depth=depth,
        extrapolation=extrapolation,
    )


def perturb_traces(rule: SurfaceRule, e_trace, h_trace, amplitude: float,
                   seed: int = 42):
    """Add random tangential noise of the given relative amplitude.

    The noise is real Gaussian, projected onto the tangent plane at each
    node of the rule, normalized per node and scaled by amplitude times the
    rms trace magnitude.  Deterministic for a fixed seed.
    """
    rng = np.random.default_rng(seed)
    e_trace = np.array(e_trace, dtype=complex, copy=True)
    h_trace = np.array(h_trace, dtype=complex, copy=True)
    out = []
    for trace in (e_trace, h_trace):
        rms = float(np.sqrt(np.mean(np.sum(np.abs(trace)**2, axis=1))))
        raw = rng.standard_normal(trace.shape[:1] + (3,))
        raw -= np.einsum("ti,ti->t", raw, rule.normals)[:, None] * rule.normals
        raw /= np.linalg.norm(raw, axis=1)[:, None]
        out.append(trace + amplitude * rms * raw)
    return out[0], out[1]

