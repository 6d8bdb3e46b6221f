"""Manufactured analytic fields used as oracles for the integral identities.

Every field carries a batched evaluator together with the exact value of
the Moisil-Theodoresco derivative, so discretization errors can always be
separated from modeling errors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import quaternions as q

DEFAULT_AMPLITUDES = (1.0, 0.7, 0.3)


@dataclass(frozen=True)
class AnalyticField:
    """Quaternion-valued field given by two batched evaluators: its values
    and the exact values of its derivative (the oracle).

    value  : (..., 3) points -> (..., 4) quaternions
    d_value: same signature, returning the exact Moisil-Theodoresco
             derivative D f.
    """

    value: Callable[[np.ndarray], np.ndarray]
    d_value: Callable[[np.ndarray], np.ndarray]

    def d_alpha(self, alpha, sign: int = 1) -> Callable[[np.ndarray], np.ndarray]:
        """Exact (D + sign*alpha) f as a batched evaluator."""
        if sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        return lambda x: self.d_value(x) + sign * alpha * self.value(x)

    def vector_value(self, x) -> np.ndarray:
        """Vector part of the field, as a C^3 evaluator."""
        return q.vec(self.value(x))


def abc_beltrami(lam, a=None, b=None, c=None) -> AnalyticField:
    """Arnold-Beltrami-Childress flow: a purely vectorial field with
    rot F = lam * F and div F = 0, hence D F = lam * F.

    Valid for complex lam (the trigonometric form continues analytically).
    """
    if a is None:
        a, b, c = DEFAULT_AMPLITUDES
    lam = complex(lam)

    def value(x):
        x = np.asarray(x, dtype=float)
        x1, x2, x3 = x[..., 0], x[..., 1], x[..., 2]
        return q.vector(
            np.stack(
                [
                    a * np.sin(lam * x3) + c * np.cos(lam * x2),
                    b * np.sin(lam * x1) + a * np.cos(lam * x3),
                    c * np.sin(lam * x2) + b * np.cos(lam * x1),
                ],
                axis=-1,
            )
        )

    return AnalyticField(
        value=value,
        d_value=lambda x: lam * value(x),
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
    """Evaluate a (4, 10) coefficient table at points (..., 3) -> (..., 4)."""
    x = np.asarray(x, dtype=float)
    mono = np.stack(
        [
            x[..., 0] ** p[0] * x[..., 1] ** p[1] * x[..., 2] ** p[2]
            for p in _POWERS
        ],
        axis=-1,
    ).astype(complex)
    return mono @ coeffs.T


def polynomial_field(coeffs) -> AnalyticField:
    """Quaternion-valued polynomial of degree <= 2.

    `coeffs` has shape (4, 10): rows are q0..q3, columns follow the
    monomial order 1, x1, x2, x3, x1^2, x2^2, x3^2, x1*x2, x1*x3, x2*x3.
    The derivative oracle assembles D f = -div + grad + rot symbolically.
    """
    coeffs = np.asarray(coeffs, dtype=complex)
    if coeffs.shape != (4, N_MONOMIALS):
        raise ValueError("coefficient table must have shape (4, %d)" % N_MONOMIALS)

    grad = [coeffs @ _DMAT[axis] for axis in range(3)]  # d(coeffs)/dx_axis
    d_coeffs = np.zeros_like(coeffs)
    d_coeffs[0] = -(grad[0][1] + grad[1][2] + grad[2][3])          # -div of vector part
    for axis in range(3):                                          # grad of scalar part
        d_coeffs[1 + axis] += grad[axis][0]
    d_coeffs[1] += grad[1][3] - grad[2][2]                         # rot of vector part
    d_coeffs[2] += grad[2][1] - grad[0][3]
    d_coeffs[3] += grad[0][2] - grad[1][1]

    return AnalyticField(
        value=lambda x: _poly_eval(coeffs, x),
        d_value=lambda x: _poly_eval(d_coeffs, x),
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


def constant_field(value) -> AnalyticField:
    """A constant quaternion field."""
    coeffs = np.zeros((4, N_MONOMIALS), dtype=complex)
    coeffs[:, 0] = np.asarray(value, dtype=complex).reshape(4)
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

    e_field = AnalyticField(
        value=lambda x: 0.5 * (phi.value(x) + psi.value(x)),
        d_value=lambda x: 0.5 * (phi.d_value(x) + psi.d_value(x)),
    )
    h_field = AnalyticField(
        value=lambda x: (phi.value(x) - psi.value(x)) / 2j,
        d_value=lambda x: (phi.d_value(x) - psi.d_value(x)) / 2j,
    )
    return e_field, h_field
