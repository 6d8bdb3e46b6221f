"""Fundamental solutions: theta, the Helmholtz one -exp(i*a*r)/(4*pi*r),
and its quaternionic companion upsilon, the fundamental solution of the
perturbed Dirac-type operator D +- a."""

from __future__ import annotations

import numpy as np

from .errors import SingularityError


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

    cos and sin come from one tangent of the half angle, u = tan(Re(alpha)
    r/2): cos = (1 - u**2) g and sin = 2 u g with g = 1/(1 + u**2), and a
    exp(-Im(alpha) r) is folded into g, so each alpha costs one trig call
    and the prefactor multiplies one plane.  Halving alpha is exact, so u
    is the tangent of exactly half the argument that cos and sin would see;
    near odd multiples of pi, where u is large, the quotients still give cos
    and sin to a few ulp of a.  NumPy sends float64 tan to a SIMD loop on
    AVX-512 x86-64 but cos and sin to scalar libm: on a 16 x 1280 plane of
    such a VM, tan takes 59 us against 412 us for cos and 326 us for sin.
    Without that loop, tan is libm's, one call in place of two.

    Every plane, the work planes 1/r, a, s and t included, is written into
    out, a float buffer of shape (K + 1, 4) + r.shape that is allocated when
    not given: row k holds the theta (re, im) and c (re, im) planes of the
    k-th alpha, row K the work planes in that order (1/r and a keep their
    values), and the returned planes are views of it.
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
        u = np.tan(np.multiply(0.5 * al.real, r, out=t), out=th_im)
        np.multiply(u, u, out=th_re)
        g = np.divide(a, np.add(th_re, 1.0, out=s), out=s)
        if al.imag != 0:
            g *= np.exp(np.multiply(-al.imag, r, out=t), out=t)
        np.subtract(1.0, th_re, out=th_re)
        th_re *= g
        th_im *= np.add(g, g, out=g)
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

