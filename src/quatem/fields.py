"""Manufactured analytic fields used as oracles for the integral identities.

Every field carries a batched evaluator together with the exact value of
the Moisil-Theodoresco derivative, so discretization errors can always be
separated from modeling errors, and the closed form of (D + s) f, which
costs one evaluation per point.  The fields are the linear scalar_monomial
f = x_k and identity_vector_field f = x, whose D f is a constant quaternion
so that (D + s) f = s f + D f; the ABC Beltrami flow, with D F = lam F; and
the exact chiral solution built from two Beltrami modes.  Where (D + s) f
vanishes identically, as for a Beltrami flow with rot F = -s F, it is None
instead of an evaluator of zeros: the field is then s-monogenic,
(D + s) f = 0, and its Borel-Pompeiu identity is the Cauchy integral
formula, with no volume term to sum.
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


def _constant_derivative(value, d) -> AnalyticField:
    """The field with evaluator `value` and the constant derivative D f = d,
    broadcast to the points; (D + s) f = s f + d, which never vanishes
    identically since d does not."""
    d = np.asarray(d, dtype=complex)
    return AnalyticField(
        value=value,
        d_value=lambda x: np.broadcast_to(d, np.shape(x)[:-1] + (4,)).copy(),
        shifted=lambda f, s: lambda x: s * f.value(x) + d,
    )


def scalar_monomial(component: int = 1) -> AnalyticField:
    """The scalar field f = x_component (component in 1..3), whose D f is the
    unit vector i_component."""
    if component not in (1, 2, 3):
        raise ValueError("component must be 1, 2 or 3, got %r" % (component,))

    def value(x):
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape[:-1] + (4,), dtype=complex)
        out[..., 0] = x[..., component - 1]
        return out

    return _constant_derivative(value, q.UNITS[component])


def identity_vector_field() -> AnalyticField:
    """The purely vectorial field f(x) = x, for which D f = -div x = -3."""
    return _constant_derivative(lambda x: q.vector(np.asarray(x, dtype=float)), -3.0 * q.ONE)


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
