"""Field reconstruction from boundary traces and the extendibility check.

E and H are assembled one way: reconstruct the modes Phi = E + iH and
Psi = E - iH from their traces, then merge.  The source-free two-kernel
displays, which apply K1 = K_{+alpha1} and K2 = K_{-alpha2} to the e and h
traces separately, sum the same quantity in a different grouping; they
serve as an independent cross-check that must agree to roundoff.

The boundary criterion ("are e, h traces of an interior solution?") is
evaluated as an interior limit: the layer potentials are computed at
points offset inward from each triangle and extrapolated back to the
surface, which sidesteps singular surface quadrature entirely.  The
problem itself is ill-posed, so only residuals are reported; nothing is
solved or regularized.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import quaternions as q
from .fields import AnalyticField
from .geometry import SurfaceMesh, VolumeQuadrature
from .kernels import fd_curl
from .maxwell import ChiralMedium, SourceData, merge_values, phi_psi_rhs, split_values
from .operators import (
    RESIDUAL_FLOOR,
    BoundaryDensity,
    VolumeDensity,
    cauchy_boundary,
    teodorescu,
)

DEPTH_FACTOR = 2.0  # offset depth of the extendibility check, in mesh spacings

# Coefficients of the inward-depth extrapolation toward the surface:
# values at depth*m are combined with weight c for each (m, c).
EXTRAPOLATIONS = {
    "linear": ((1, 2.0), (2, -1.0)),
    "quadratic": ((1, 3.0), (2, -3.0), (3, 1.0)),
}


def _mode_operator_pair(medium: ChiralMedium):
    """(alpha, sign) pairs of the two mode operators: D + alpha1 for Phi
    and D - alpha2 for Psi."""
    return (medium.alpha1, 1), (medium.alpha2, -1)


def phi_psi_representation(phi_trace: BoundaryDensity, psi_trace: BoundaryDensity,
                           source: Optional[SourceData], medium: ChiralMedium,
                           quadrature: Optional[VolumeQuadrature], x):
    """Interior values of the two modes from their boundary traces.

    Phi(x) = T_{+a1}(rhs_phi)(x) + K_{+a1} Phi(x)
    Psi(x) = T_{-a2}(rhs_psi)(x) + K_{-a2} Psi(x)

    x is one point (3,) or many (M, 3).
    """
    if source is not None and quadrature is None:
        raise ValueError("a volume quadrature is required when a source is present")
    (a1, s1), (a2, s2) = _mode_operator_pair(medium)
    phi_x = cauchy_boundary(a1, s1, phi_trace, x)
    psi_x = cauchy_boundary(a2, s2, psi_trace, x)
    if source is not None:
        rhs_phi, rhs_psi = phi_psi_rhs(source, medium)
        volume_phi = VolumeDensity.from_function(quadrature, rhs_phi)
        volume_psi = VolumeDensity.from_function(quadrature, rhs_psi)
        phi_x = phi_x + teodorescu(a1, s1, volume_phi, x)
        psi_x = psi_x + teodorescu(a2, s2, volume_psi, x)
    return phi_x, psi_x


def reconstruct_eh(mesh: SurfaceMesh, e_trace, h_trace,
                   source: Optional[SourceData], medium: ChiralMedium,
                   quadrature: Optional[VolumeQuadrature], x):
    """E and H at interior points from per-triangle boundary traces.

    Splits the traces into per-triangle Phi/Psi densities, reconstructs
    both modes and merges.  x is one point (3,) or many (M, 3); E and H
    have shape (4,) or (M, 4).  Returns full quaternions (the scalar parts
    measure discretization error; they vanish in the continuum).
    """
    phi_b, psi_b = split_values(e_trace, h_trace)
    phi_trace = BoundaryDensity(mesh, q.vector(phi_b))
    psi_trace = BoundaryDensity(mesh, q.vector(psi_b))
    return merge_values(*phi_psi_representation(
        phi_trace, psi_trace, source, medium, quadrature, x))


def two_kernel_eh(mesh: SurfaceMesh, e_trace, h_trace, medium: ChiralMedium, x):
    """Source-free E and H from the explicit two-kernel displays

    E = (K1 + K2) e / 2 + i (K1 - K2) h / 2
    H = (K1 - K2) e / (2i) + (K1 + K2) h / 2

    with K1 = K_{+alpha1}, K2 = K_{-alpha2} applied to the e and h traces
    separately.  Equal to reconstruct_eh up to roundoff.
    """
    e_b = BoundaryDensity(mesh, q.vector(e_trace))
    h_b = BoundaryDensity(mesh, q.vector(h_trace))
    (a1, s1), (a2, s2) = _mode_operator_pair(medium)
    k1e, k1h = (cauchy_boundary(a1, s1, d, x) for d in (e_b, h_b))
    k2e, k2h = (cauchy_boundary(a2, s2, d, x) for d in (e_b, h_b))
    return (0.5 * (k1e + k2e) + 0.5j * (k1h - k2h),
            (k1e - k2e) / 2j + 0.5 * (k1h + k2h))


@dataclass(frozen=True)
class ExtendibilityReport:
    """Per-collocation-point and aggregate residuals of the criterion."""

    points: np.ndarray       # (T, 3) surface collocation points (centroids)
    residual_e: np.ndarray   # (T,) relative residual of the e equality
    residual_h: np.ndarray   # (T,)
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


def extendibility_residual(mesh: SurfaceMesh, e_trace, h_trace, medium: ChiralMedium,
                           extrapolation: str = "quadratic") -> ExtendibilityReport:
    """Residuals of the boundary-trace criterion, per triangle.

    The source-free reconstruction is evaluated at the centroids moved
    inward along the normals by multiples of depth = DEPTH_FACTOR *
    mesh.spacing (all depths in one batch), extrapolated to the surface
    and compared with the traces there.  Residuals are quaternion norms
    (the scalar part of the prediction must vanish too) relative to the
    overall trace magnitude.  ValueError if the deepest offset reaches
    mesh.inradius; its message names a finer mesh as the remedy.
    """
    if extrapolation not in EXTRAPOLATIONS:
        raise ValueError("extrapolation must be one of %s" % sorted(EXTRAPOLATIONS))
    e_trace = np.asarray(e_trace, dtype=complex)
    h_trace = np.asarray(h_trace, dtype=complex)
    n_tri = mesh.n_triangles
    if e_trace.shape != (n_tri, 3) or h_trace.shape != (n_tri, 3):
        raise ValueError("traces must hold one C^3 vector per triangle")

    scale = max(
        float(np.max(np.sqrt(np.sum(np.abs(e_trace)**2 + np.abs(h_trace)**2, axis=1)))),
        RESIDUAL_FLOOR,
    )
    rule = EXTRAPOLATIONS[extrapolation]
    depth = DEPTH_FACTOR * mesh.spacing
    deepest = max(mult for mult, _ in rule)
    if deepest * depth >= mesh.inradius:
        raise ValueError("the %s extrapolation offsets down to %d x depth %g = %g, past the "
                         "inradius estimate %g: a finer mesh would run"
                         % (extrapolation, deepest, depth, deepest * depth, mesh.inradius))
    pts = np.concatenate([mesh.centroids - (mult * depth) * mesh.normals for mult, _ in rule])
    e_x, h_x = reconstruct_eh(mesh, e_trace, h_trace, None, medium, None, pts)
    e_pred = sum(c * v for (_, c), v in zip(rule, e_x.reshape(len(rule), n_tri, 4)))
    h_pred = sum(c * v for (_, c), v in zip(rule, h_x.reshape(len(rule), n_tri, 4)))

    residual_e = q.norm(e_pred - q.vector(e_trace)) / scale
    residual_h = q.norm(h_pred - q.vector(h_trace)) / scale
    return ExtendibilityReport(
        points=mesh.centroids,
        residual_e=residual_e,
        residual_h=residual_h,
        scale=scale,
        depth=depth,
        extrapolation=extrapolation,
    )


def perturb_traces(mesh: SurfaceMesh, e_trace, h_trace, amplitude: float,
                   seed: int = 42):
    """Add random tangential noise of the given relative amplitude.

    The noise is real Gaussian, projected onto each triangle's tangent
    plane, normalized per point and scaled by amplitude times the rms
    trace magnitude.  Deterministic for a fixed seed.
    """
    rng = np.random.default_rng(seed)
    e_trace = np.array(e_trace, dtype=complex, copy=True)
    h_trace = np.array(h_trace, dtype=complex, copy=True)
    out = []
    for trace in (e_trace, h_trace):
        rms = float(np.sqrt(np.mean(np.sum(np.abs(trace)**2, axis=1))))
        raw = rng.standard_normal(trace.shape[:1] + (3,))
        raw -= np.einsum("ti,ti->t", raw, mesh.normals)[:, None] * mesh.normals
        raw /= np.linalg.norm(raw, axis=1)[:, None]
        out.append(trace + amplitude * rms * raw)
    return out[0], out[1]


def maxwell_residual(e_field: AnalyticField, h_field: AnalyticField,
                     medium: ChiralMedium, x):
    """Finite-difference residuals of the source-free chiral curl equations at x.

    rot E = -ik (H + beta rot H)
    rot H =  ik (E + beta rot E)

    Each residual is normalized by the larger of its two sides.
    """
    x = np.asarray(x, dtype=float)
    k, beta = medium.k, medium.beta
    rot_e = fd_curl(e_field.vector_value, x)
    rot_h = fd_curl(h_field.vector_value, x)
    e_x = e_field.vector_value(x)
    h_x = h_field.vector_value(x)

    rhs1 = -1j * k * (h_x + beta * rot_h)
    rhs2 = 1j * k * (e_x + beta * rot_e)
    norm = np.linalg.norm
    r1 = norm(rot_e - rhs1) / max(norm(rot_e), norm(rhs1), RESIDUAL_FLOOR)
    r2 = norm(rot_h - rhs2) / max(norm(rot_h), norm(rhs2), RESIDUAL_FLOOR)
    return float(r1), float(r2)
