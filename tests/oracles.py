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
current; constant_field is the degree-0 polynomial field; poly_eval_powers
evaluates a polynomial field's coefficient table through complex power
products; proper_rotation draws a random rotation; and ELLIPSOID_AXES scales
an icosphere into the tests' non-spherical closed surface.
"""

from __future__ import annotations

import numpy as np

from quatem import quaternions as q
from quatem.fields import _DMAT, _POWERS, N_MONOMIALS, AnalyticField, polynomial_field
from quatem.geometry import SurfaceMesh, checked_normals
from quatem.kernels import _radii, theta
from quatem.maxwell import ChiralMedium
from quatem.operators import RESIDUAL_FLOOR

DEFAULT_FD_STEP = 1e-4
ELLIPSOID_AXES = np.array([1.0, 0.7, 0.4])
ZERO = np.zeros(4, dtype=complex)


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
    with a zero scalar row; fields._DMAT differentiates each row."""
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
