"""Reference implementations and helpers that only the tests use.

quat, scalar, qconj and ZERO build, embed and conjugate quaternions beside
quatem.quaternions; vector_value(f) is the C^3 evaluator of a field's vector
part; divergence_residual(mesh) checks the centroid rule against the
divergence theorem.  Finite-difference versions of the Moisil-Theodoresco
operator D, of D +- alpha and of div/rot check the closed-form derivatives
of the kernels and fields; grad_theta is the closed-form gradient of the
Helmholtz fundamental solution; maxwell_residual checks the chiral curl
equations, with or without a current, by finite differences; rot_coeffs and
manufactured_current_solution build a polynomial chiral solution with a
current; continuity_rho gives the charge rho/eps that the continuity
relation ties to a current, phi_psi_rhs a current's right-hand sides of the
two mode equations, and reconstruct_with_current the representation with
sources that adds their volume terms to reconstruct_eh's boundary terms;
proper_rotation draws a random rotation; ELLIPSOID_AXES scales an
icosphere into the tests' non-spherical closed surface; and torus_mesh
builds a closed surface that is not star-shaped either.

The general polynomial fields of degree <= 2 live here too, as the reference
for the property tests: polynomial_field takes a (4, 10) coefficient table
over the monomials _POWERS, differentiates it exactly through the matrices
_DMAT and evaluates it with poly_eval_powers, as complex power products;
constant_field is its degree-0 member.
"""

from __future__ import annotations

import numpy as np

from quatem import quaternions as q
from quatem.fields import AnalyticField
from quatem.geometry import (
    SurfaceMesh,
    SurfaceRule,
    checked_normals,
    mesh_from_arrays,
    polar_ball_rule,
)
from quatem.kernels import _radii, theta
from quatem.maxwell import ChiralMedium, merge_values, split_values
from quatem.operators import (
    RESIDUAL_FLOOR,
    BoundaryDensity,
    VolumeDensity,
    cauchy_boundary,
    teodorescu,
)

DEFAULT_FD_STEP = 1e-4
ELLIPSOID_AXES = np.array([1.0, 0.7, 0.4])
ZERO = np.zeros(4, dtype=complex)

# Monomial basis for quadratic polynomial fields:
# 1, x1, x2, x3, x1^2, x2^2, x3^2, x1*x2, x1*x3, x2*x3
_POWERS = np.array(
    [
        [0, 0, 0],
        [1, 0, 0], [0, 1, 0], [0, 0, 1],
        [2, 0, 0], [0, 2, 0], [0, 0, 2],
        [1, 1, 0], [1, 0, 1], [0, 1, 1],
    ],
    dtype=int,
)
N_MONOMIALS = len(_POWERS)


def _derivative_matrix(axis: int) -> np.ndarray:
    """D[m, n]: coefficient of monomial n in d(monomial m)/dx_axis."""
    out = np.zeros((N_MONOMIALS, N_MONOMIALS))
    for m, p in enumerate(_POWERS):
        if p[axis] == 0:
            continue
        dp = p.copy()
        dp[axis] -= 1
        n = int(np.flatnonzero((_POWERS == dp).all(axis=1))[0])
        out[m, n] = p[axis]
    return out


_DMAT = [_derivative_matrix(axis) for axis in range(3)]


def quat(q0=0j, q1=0j, q2=0j, q3=0j) -> np.ndarray:
    """Build a single quaternion from its four complex coefficients."""
    return np.array([q0, q1, q2, q3], dtype=complex)


def scalar(s) -> np.ndarray:
    """Embed a complex scalar (array) as a quaternion with zero vector part."""
    s = np.asarray(s, dtype=complex)
    out = np.zeros(s.shape + (4,), dtype=complex)
    out[..., 0] = s
    return out


def qconj(u) -> np.ndarray:
    """Quaternionic conjugate: scalar part kept, vector part negated.

    The complex coefficients are NOT conjugated.
    """
    out = np.array(u, dtype=complex, copy=True)
    out[..., 1:] *= -1
    return out


def vector_value(f: AnalyticField):
    """The vector part of the field f, as a C^3 evaluator."""
    return lambda x: q.vec(f.value(x))


def divergence_residual(mesh: SurfaceMesh) -> float:
    """Relative gap between the centroid rule's int x.n dS and 3 * volume
    (the divergence theorem for the field x), the volume from the vertex
    winding (checked_normals)."""
    volume = checked_normals(mesh).signed_volume
    moment = float(np.sum(mesh.areas * np.einsum("ti,ti->t", mesh.centroids, mesh.normals)))
    return abs(moment - 3.0 * volume) / max(abs(3.0 * volume), 1e-300)


def grad_theta(alpha, x) -> np.ndarray:
    """Closed-form gradient of theta: theta * (i*alpha - 1/r) * x/r."""
    x = np.asarray(x, dtype=float)
    r = _radii(x)
    return (theta(alpha, x) * (1j * alpha - 1.0 / r) / r)[..., None] * x


def fd_partial(f, x, axis: int, h: float = DEFAULT_FD_STEP):
    """Central difference of a batched evaluator along one axis, at one
    point (3,) or many (..., 3)."""
    x = np.asarray(x, dtype=float)
    plus = x.copy()
    minus = x.copy()
    plus[..., axis] += h
    minus[..., axis] -= h
    return (f(plus) - f(minus)) / (2.0 * h)


def fd_moisil_theodoresco(f, x, h: float = DEFAULT_FD_STEP) -> np.ndarray:
    """Central-difference Moisil-Theodoresco operator sum_k i_k * df/dx_k.

    `f` maps points (..., 3) to quaternions (..., 4); x is one point (3,)
    or many (..., 3).  The product i_k * f is the quaternionic one, so the
    result carries -div, grad and rot contributions in its scalar/vector
    parts.
    """
    return sum(q.qmul(q.UNITS[k + 1], fd_partial(f, x, k, h)) for k in range(3))


def fd_d_alpha(f, alpha, sign: int, x, h: float = DEFAULT_FD_STEP) -> np.ndarray:
    """Central-difference (D + sign*alpha) f at one point (3,) or many (..., 3)."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    return fd_moisil_theodoresco(f, x, h) + sign * alpha * f(np.asarray(x, dtype=float))


def fd_jacobian(fvec, x, h: float = DEFAULT_FD_STEP) -> np.ndarray:
    """J[..., i, j] = d f_i / d x_j for a C^3-valued batched evaluator, at
    one point (3,) or many (..., 3)."""
    return np.stack([fd_partial(fvec, x, j, h) for j in range(3)], axis=-1)


def fd_div(fvec, x, h: float = DEFAULT_FD_STEP):
    return np.trace(fd_jacobian(fvec, x, h))


def fd_curl(fvec, x, h: float = DEFAULT_FD_STEP) -> np.ndarray:
    jac = fd_jacobian(fvec, x, h)
    return np.array(
        [
            jac[2, 1] - jac[1, 2],
            jac[0, 2] - jac[2, 0],
            jac[1, 0] - jac[0, 1],
        ]
    )


def maxwell_residual(e_field: AnalyticField, h_field: AnalyticField,
                     medium: ChiralMedium, x, current: AnalyticField | None = None):
    """Finite-difference residuals of the chiral curl equations at x.

    rot E = -ik (H + beta rot H)
    rot H =  ik (E + beta rot E) + j

    with j = 0 unless a current is given.  Each residual is normalized by
    the larger of its two sides.
    """
    x = np.asarray(x, dtype=float)
    k, beta = medium.k, medium.beta
    e_vec, h_vec = vector_value(e_field), vector_value(h_field)
    rot_e = fd_curl(e_vec, x)
    rot_h = fd_curl(h_vec, x)
    e_x = e_vec(x)
    h_x = h_vec(x)

    rhs1 = -1j * k * (h_x + beta * rot_h)
    rhs2 = 1j * k * (e_x + beta * rot_e)
    if current is not None:
        rhs2 = rhs2 + vector_value(current)(x)
    norm = np.linalg.norm
    r1 = norm(rot_e - rhs1) / max(norm(rot_e), norm(rhs1), RESIDUAL_FLOOR)
    r2 = norm(rot_h - rhs2) / max(norm(rot_h), norm(rhs2), RESIDUAL_FLOOR)
    return float(r1), float(r2)


def rot_coeffs(coeffs) -> np.ndarray:
    """rot of the vector part of a (4, 10) coefficient table, as a table
    with a zero scalar row; _DMAT differentiates each row."""
    grad = [coeffs @ _DMAT[axis] for axis in range(3)]  # d(coeffs)/dx_axis
    out = np.zeros_like(coeffs)
    out[1] = grad[1][3] - grad[2][2]
    out[2] = grad[2][1] - grad[0][3]
    out[3] = grad[0][2] - grad[1][1]
    return out


def manufactured_current_solution(medium: ChiralMedium, seed: int):
    """Polynomial fields E, H and current j that solve the chiral curl
    equations with a source exactly.

    E is a random complex quadratic vector polynomial.  H = (i/k)(rot E -
    beta rot^2 E) solves rot E = -ik (H + beta rot H): the Neumann series
    of (1 + beta rot)^-1 ends there because rot lowers the degree, so
    rot^3 E = 0, and div H = 0.  The current j = rot H - ik (E + beta rot E)
    is read off the electric equation; div j = -ik div E is not zero.
    """
    rng = np.random.default_rng(seed)
    e = np.zeros((4, N_MONOMIALS), dtype=complex)
    e[1:] = rng.standard_normal((3, N_MONOMIALS)) + 1j * rng.standard_normal((3, N_MONOMIALS))
    k, beta = medium.k, medium.beta
    rot_e = rot_coeffs(e)
    h = (1j / k) * (rot_e - beta * rot_coeffs(rot_e))
    j = rot_coeffs(h) - 1j * k * (e + beta * rot_e)
    return polynomial_field(e), polynomial_field(h), polynomial_field(j)


def continuity_rho(j: AnalyticField, medium: ChiralMedium):
    """rho/eps = -(1/(i*k)) div j as a scalar evaluator, with -div j read
    from the scalar part of the current's exact derivative D j."""
    k = medium.k
    return lambda x: q.sc(j.d_value(x)) / (1j * k)


def phi_psi_rhs(j: AnalyticField, medium: ChiralMedium):
    """Quaternionic right-hand sides of the decoupled mode equations for the
    current j (its vector part; -div j is the scalar part of D j).

    For normalized fields with rot E = -ik (H + beta rot H) and
    rot H = ik (E + beta rot E) + j (so div H = 0, div E = (i/k) div j):
        (D + alpha1) Phi = (i/k) [alpha1 j - div j]
        (D - alpha2) Psi = -(i/k) [alpha2 j + div j]

    Both read (i/k) [a j - div j] with the signed wave parameter a =
    +alpha1 or -alpha2; div j lands in the scalar part, as -continuity_rho,
    j in the vector part.  Returns one batched evaluator of both: points
    (..., 3) give (2, ..., 4), Phi's right-hand side then Psi's, from one
    j.value and one j.d_value per point.
    """
    k, rho = medium.k, continuity_rho(j, medium)

    def evaluate(x):
        x = np.asarray(x, dtype=float)
        j_vec, div_part = q.vec(j.value(x)), -rho(x)
        out = np.empty((2,) + x.shape[:-1] + (4,), dtype=complex)
        for mode, a in zip(out, (medium.alpha1, -medium.alpha2)):
            mode[..., 1:] = (1j * a / k) * j_vec
            mode[..., 0] = div_part
        return out

    return evaluate


def reconstruct_with_current(rule: SurfaceRule, e, h, medium: ChiralMedium, x,
                             j: AnalyticField, radius: float):
    """E and H at x (M, 3) from traces e, h at the rule's nodes and the
    current j, by the representation with sources:

    Phi(x) = T_{+a1}(rhs_phi)(x) + K_{+a1} Phi(x)
    Psi(x) = T_{-a2}(rhs_psi)(x) + K_{-a2} Psi(x)

    with the right-hand sides of phi_psi_rhs integrated over the ball of the
    given radius about the origin, which must hold every x (both boundary
    terms in one cauchy_boundary call, both volume terms in one teodorescu
    call), then merged.  With j = 0 it is reconstruct_eh.
    """
    a1, a2 = medium.alpha1, medium.alpha2
    modes = BoundaryDensity(rule, q.vector(np.stack(split_values(e, h))))
    rhs = VolumeDensity(polar_ball_rule(radius), phi_psi_rhs(j, medium))
    return merge_values(*(cauchy_boundary((a1, a2), (1, -1), modes, x)
                          + teodorescu((a1, a2), (1, -1), rhs, x)))


def polynomial_field(coeffs) -> AnalyticField:
    """Quaternion-valued polynomial of degree <= 2.

    `coeffs` has shape (4, 10): rows are q0..q3, columns follow the
    monomial order of _POWERS.  The derivative oracle is
    D f = sum_k i_k df/dx_k on the table.
    """
    coeffs = np.asarray(coeffs, dtype=complex)
    if coeffs.shape != (4, N_MONOMIALS):
        raise ValueError("coefficient table must have shape (4, %d)" % N_MONOMIALS)
    if not q.is_finite(coeffs):
        raise ValueError("polynomial coefficients must be finite")

    # each column of the table is one quaternion, so D acts column by column
    d_coeffs = sum(q.qmul(q.UNITS[k + 1], (coeffs @ _DMAT[k]).T) for k in range(3)).T

    return AnalyticField(
        value=lambda x: poly_eval_powers(coeffs, x),
        d_value=lambda x: poly_eval_powers(d_coeffs, x),
    )


def constant_field(value) -> AnalyticField:
    """A constant quaternion field."""
    coeffs = np.zeros((4, N_MONOMIALS), dtype=complex)
    coeffs[:, 0] = np.asarray(value, dtype=complex).reshape(4)
    return polynomial_field(coeffs)


def poly_eval_powers(coeffs: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Evaluate a (4, 10) coefficient table at points (..., 3) -> (..., 4)
    as products of powers, made complex before one complex matrix product."""
    x = np.asarray(x, dtype=float)
    mono = np.stack(
        [
            x[..., 0] ** p[0] * x[..., 1] ** p[1] * x[..., 2] ** p[2]
            for p in _POWERS
        ],
        axis=-1,
    ).astype(complex)
    return mono @ coeffs.T


def proper_rotation(rng) -> np.ndarray:
    """A random rotation matrix (determinant +1) drawn with rng."""
    qmat, r = np.linalg.qr(rng.standard_normal((3, 3)))
    qmat = qmat * np.sign(np.diag(r))
    return qmat if np.linalg.det(qmat) > 0 else -qmat


def torus_mesh(nu: int, nv: int, R: float = 1.0, r: float = 0.4) -> SurfaceMesh:
    """The torus about the x3 axis of centre-circle radius R and tube radius
    r: the vertices of an nu x nv grid in the angles (u, v), (R + r cos v)
    (cos u, sin u) and r sin v, each cell a (u, v), b (u + 1, v),
    c (u + 1, v + 1), d (u, v + 1) split as [a, b, c], [a, c, d], which is
    outward-wound: 2 nu nv triangles."""
    u, v = np.meshgrid(2.0 * np.pi * np.arange(nu) / nu, 2.0 * np.pi * np.arange(nv) / nv,
                       indexing="ij")
    ring = R + r * np.cos(v)
    vertices = np.stack([ring * np.cos(u), ring * np.sin(u), r * np.sin(v)], axis=-1)
    i, j = np.meshgrid(np.arange(nu), np.arange(nv), indexing="ij")
    a, b = i * nv + j, (i + 1) % nu * nv + j
    c, d = (i + 1) % nu * nv + (j + 1) % nv, i * nv + (j + 1) % nv
    triangles = np.stack([a, b, c, a, c, d], axis=-1).reshape(-1, 3)
    return mesh_from_arrays(vertices.reshape(-1, 3), triangles)
