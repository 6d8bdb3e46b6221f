"""Fundamental solutions and finite-difference differential operators.

theta is the Helmholtz fundamental solution -exp(i*a*r)/(4*pi*r); upsilon
is its quaternionic companion, the fundamental solution of the perturbed
Dirac-type operator D +- a.  The finite-difference versions of D and of
div/rot exist purely as verification oracles for closed-form derivatives.
"""

from __future__ import annotations

import numpy as np

from . import quaternions as q
from .errors import SingularityError

DEFAULT_FD_STEP = 1e-4


def _radii(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    r = np.linalg.norm(x, axis=-1)
    if np.any(r == 0.0):
        raise SingularityError("kernel evaluated at its singular point x = 0")
    return r


def radial_factors(alpha, r, w, out=None):
    """(re, im) planes of the two radial factors of upsilon at distances
    r > 0 times real weights w (broadcast against r): shape (2,) + r.shape
    for one alpha, (K, 2) + r.shape for K.

    theta = -exp(i*alpha*r) / (4*pi*r) and c = theta * (1/r**2 - i*alpha/r)
    = -theta'(r)/r, so that upsilon(d) = (sign*alpha*theta(|d|), c(|d|) * d).
    With a = -w/(4*pi*r), formed once for all alphas, w*theta =
    a exp(-Im(alpha) r) (cos + i sin)(Re(alpha) r) and w*c = w*theta (s - i t),
    s = (1/r + Im(alpha))/r, t = Re(alpha)/r.  The caller owns r > 0.

    Every plane, the work planes 1/r, a, s and t included, is written into
    out, a float buffer of shape (K + 1, 4) + r.shape that is allocated when
    not given: row k holds the theta (re, im) and c (re, im) planes of the
    k-th alpha, and the returned planes are views of it.  w is read before
    anything is written, so it may share memory with out.
    """
    alphas = np.asarray(alpha, dtype=complex)
    n = alphas.size
    if out is None:
        out = np.empty((n + 1, 4) + np.shape(r))
    inv_r, a, s, t = (out[n, i, ...] for i in range(4))
    np.multiply(w, -0.25 / np.pi, out=a)
    a *= np.divide(1.0, r, out=inv_r)
    for k, al in enumerate(alphas.reshape(-1)):
        th, c = out[k, :2], out[k, 2:]
        th_re, th_im, c_re, c_im = (out[k, i, ...] for i in range(4))
        np.cos(np.multiply(al.real, r, out=t), out=th_re)
        np.sin(t, out=th_im)
        if al.imag != 0:
            th *= np.exp(np.multiply(-al.imag, r, out=t), out=t)
        th *= a
        np.multiply(np.add(inv_r, al.imag, out=s), inv_r, out=s)
        np.multiply(th, s, out=c)
        np.multiply(al.real, inv_r, out=t)
        c_re += np.multiply(th_im, t, out=s)
        c_im -= np.multiply(th_re, t, out=s)
    return tuple(p.reshape(alphas.shape + (2,) + np.shape(r)) for p in (out[:n, :2], out[:n, 2:]))


def theta(alpha, x) -> np.ndarray:
    """Helmholtz fundamental solution -exp(i*alpha*|x|) / (4*pi*|x|)."""
    th = radial_factors(alpha, _radii(x), 1.0)[0]
    return th[0] + 1j * th[1]


def grad_theta(alpha, x) -> np.ndarray:
    """Closed-form gradient of theta: theta * (i*alpha - 1/r) * x/r."""
    x = np.asarray(x, dtype=float)
    r = _radii(x)
    return (theta(alpha, x) * (1j * alpha - 1.0 / r) / r)[..., None] * x


def upsilon(alpha, sign: int, x) -> np.ndarray:
    """Fundamental solution of D + sign*alpha as a quaternion field.

    Scalar part sign*alpha*theta, vector part -grad(theta), i.e.
    theta(x) * (1/r**2 - i*alpha/r) * x.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    x = np.asarray(x, dtype=float)
    th, c = (p[0] + 1j * p[1] for p in radial_factors(alpha, _radii(x), 1.0))
    out = np.empty(x.shape[:-1] + (4,), dtype=complex)
    out[..., 0] = sign * alpha * th
    out[..., 1:] = c[..., None] * x
    return out


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
