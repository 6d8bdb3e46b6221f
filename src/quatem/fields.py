"""Manufactured analytic fields used as oracles for the integral identities.

Every field carries a batched evaluator together with the exact value of
the Moisil-Theodoresco derivative, so discretization errors can always be
separated from modeling errors, and the closed form of (D + s) f, which
costs one evaluation per point.  Where that closed form vanishes
identically, as for a Beltrami flow with rot F = -s F, it is None instead
of an evaluator of zeros: the field is then s-monogenic, (D + s) f = 0,
and its Borel-Pompeiu identity is the Cauchy integral formula, with no
volume term to sum.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import quaternions as q

DEFAULT_AMPLITUDES = (1.0, 0.7, 0.3)


@dataclass(frozen=True)
class AnalyticField:
    """Quaternion-valued field given by batched evaluators: its values, the
    exact values of its derivative (the oracle), and the closed form of
    (D + s) f.

    value  : (..., 3) points -> (..., 4) quaternions
    d_value: same signature, returning the exact Moisil-Theodoresco
             derivative D f.
    shifted: (field, s) -> batched evaluator of the exact (D + s) f for a
             complex s, at one closed-form evaluation per point, or None
             when that closed form is identically zero.  It is handed the
             field itself, so that it evaluates through field.value or
             through a field of its own.
    """

    value: Callable[[np.ndarray], np.ndarray]
    d_value: Callable[[np.ndarray], np.ndarray]
    shifted: Callable[["AnalyticField", complex], Callable[[np.ndarray], np.ndarray] | None]

    def d_alpha(self, alpha, sign: int = 1) -> Callable[[np.ndarray], np.ndarray] | None:
        """Exact (D + sign*alpha) f as a batched evaluator, or None when it
        vanishes identically."""
        if sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        return self.shifted(self, sign * alpha)


def abc_beltrami(lam, a=DEFAULT_AMPLITUDES[0], b=DEFAULT_AMPLITUDES[1],
                 c=DEFAULT_AMPLITUDES[2]) -> AnalyticField:
    """Arnold-Beltrami-Childress flow: a purely vectorial field with
    rot F = lam * F and div F = 0, hence D F = lam * F and
    (D + s) F = (lam + s) F, which vanishes (shifted gives None) when
    lam + s == 0.

    Valid for complex lam (the trigonometric form continues analytically).
    A real lam takes real sin and cos, which give the same values as the
    complex ones at a third of the cost.
    """
    lam = complex(lam)
    arg = lam.real if lam.imag == 0 else lam

    def value(x):
        x = np.asarray(x, dtype=float)
        x1, x2, x3 = x[..., 0], x[..., 1], x[..., 2]
        out = np.zeros(x.shape[:-1] + (4,), dtype=complex)
        out[..., 1] = a * np.sin(arg * x3) + c * np.cos(arg * x2)
        out[..., 2] = b * np.sin(arg * x1) + a * np.cos(arg * x3)
        out[..., 3] = c * np.sin(arg * x2) + b * np.cos(arg * x1)
        return out

    return AnalyticField(
        value=value,
        d_value=lambda x: lam * value(x),
        shifted=lambda f, s: None if lam + s == 0 else lambda x: (lam + s) * f.value(x),
    )


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


def _poly_eval(coeffs: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Evaluate a (4, 10) coefficient table at points (..., 3) -> (..., 4):
    the monomials (in _POWERS order) as real products, then one real matrix
    product per (re, im) plane of the coefficients.  A single row of points
    is evaluated twice over, because BLAS takes a one-row product through
    its matrix-vector kernel, which groups the ten terms differently: so a
    point gives the bits it gives in a batch."""
    x = np.asarray(x, dtype=float)
    pts = np.atleast_2d(x)
    rows = pts.shape[-2]
    if rows == 1:
        pts = np.repeat(pts, 2, axis=-2)
    x1, x2, x3 = pts[..., 0], pts[..., 1], pts[..., 2]
    mono = np.stack([np.ones_like(x1), x1, x2, x3, x1 * x1, x2 * x2, x3 * x3,
                     x1 * x2, x1 * x3, x2 * x3], axis=-1)
    out = np.empty(pts.shape[:-1] + (4,), dtype=complex)
    out.real = mono @ coeffs.real.T
    out.imag = mono @ coeffs.imag.T
    return out[..., :rows, :].reshape(x.shape[:-1] + (4,))


def polynomial_field(coeffs) -> AnalyticField:
    """Quaternion-valued polynomial of degree <= 2.

    `coeffs` has shape (4, 10): rows are q0..q3, columns follow the
    monomial order 1, x1, x2, x3, x1^2, x2^2, x3^2, x1*x2, x1*x3, x2*x3.
    The derivative oracle is D f = sum_k i_k df/dx_k on the table;
    (D + s) f is the polynomial with coefficients d_coeffs + s * coeffs,
    None when all of them are zero.
    """
    coeffs = np.asarray(coeffs, dtype=complex)
    if coeffs.shape != (4, N_MONOMIALS):
        raise ValueError("coefficient table must have shape (4, %d)" % N_MONOMIALS)
    if not q.is_finite(coeffs):
        raise ValueError("polynomial coefficients must be finite")

    # each column of the table is one quaternion, so D acts column by column
    d_coeffs = sum(q.qmul(q.UNITS[k + 1], (coeffs @ _DMAT[k]).T) for k in range(3)).T

    def shifted(f, s):
        s_coeffs = d_coeffs + s * coeffs
        return polynomial_field(s_coeffs).value if s_coeffs.any() else None

    return AnalyticField(
        value=lambda x: _poly_eval(coeffs, x),
        d_value=lambda x: _poly_eval(d_coeffs, x),
        shifted=shifted,
    )


def scalar_monomial(component: int = 1) -> AnalyticField:
    """The scalar field f = x_component (component in 1..3)."""
    coeffs = np.zeros((4, N_MONOMIALS), dtype=complex)
    coeffs[0, component] = 1.0
    return polynomial_field(coeffs)


def identity_vector_field() -> AnalyticField:
    """The purely vectorial field f(x) = x, for which D f = -3."""
    coeffs = np.zeros((4, N_MONOMIALS), dtype=complex)
    coeffs[1, 1] = coeffs[2, 2] = coeffs[3, 3] = 1.0
    return polynomial_field(coeffs)


def exact_chiral_solution(medium, phi_amplitudes=DEFAULT_AMPLITUDES,
                          psi_amplitudes=DEFAULT_AMPLITUDES):
    """Source-free exact solution of the chiral curl equations.

    Built by picking the two circularly polarized modes as Beltrami flows,
    rot Phi = -alpha1 * Phi and rot Psi = alpha2 * Psi, and merging them
    into E = (Phi + Psi)/2, H = (Phi - Psi)/(2i).  Both curl equations and
    the divergence-free conditions then hold identically.
    """
    phi = abc_beltrami(-medium.alpha1, *phi_amplitudes)
    psi = abc_beltrami(medium.alpha2, *psi_amplitudes)
    return (_mode_sum(phi, psi, lambda u, v: 0.5 * (u + v)),
            _mode_sum(phi, psi, lambda u, v: (u - v) / 2j))


def _zeros(x) -> np.ndarray:
    """The vanishing (D + s) f of a mode, as quaternions at points x."""
    return np.zeros(np.shape(x)[:-1] + (4,), dtype=complex)


def _mode_sum(phi: AnalyticField, psi: AnalyticField, combine) -> AnalyticField:
    """The field combine(Phi, Psi) of two modes, for a linear combine; its
    derivative and its (D + s) f combine theirs, with zeros in place of a
    mode's (D + s) f that vanishes, and None when both vanish."""

    def shifted(f, s):
        phi_s, psi_s = phi.d_alpha(s), psi.d_alpha(s)
        if phi_s is None and psi_s is None:
            return None
        phi_s, psi_s = (_zeros if d is None else d for d in (phi_s, psi_s))
        return lambda x: combine(phi_s(x), psi_s(x))

    return AnalyticField(
        value=lambda x: combine(phi.value(x), psi.value(x)),
        d_value=lambda x: combine(phi.d_value(x), psi.d_value(x)),
        shifted=shifted,
    )
