"""Manufactured analytic fields used as oracles for the integral identities.

Every field carries a batched evaluator together with the exact value of
the Moisil-Theodoresco derivative, so discretization errors can always be
separated from modeling errors.  Its (D + s) f is formed from those two in
one place, AnalyticField.d_alpha, as s f + D f.  A field with D f = lam f
also carries its eigenvalue lam, and its (D + s) f is (lam + s) f; where
lam + s == 0 that is None instead of an evaluator of zeros: the field is
then s-monogenic, (D + s) f = 0, and its Borel-Pompeiu identity is the
Cauchy integral formula, with no volume term to sum.  The fields are the
linear scalar_monomial f = x_k and identity_vector_field f = x, whose D f
is a constant quaternion; the ABC Beltrami flow, with D F = lam F; and the
exact chiral solution built from two Beltrami modes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import quaternions as q

DEFAULT_AMPLITUDES = (1.0, 0.7, 0.3)


@dataclass(frozen=True)
class AnalyticField:
    """Quaternion-valued field given by batched evaluators: its values and
    the exact values of its derivative (the oracle).

    value     : (..., 3) points -> (..., 4) quaternions
    d_value   : same signature, returning the exact Moisil-Theodoresco
                derivative D f.
    eigenvalue: lam when D f = lam f identically, else None.
    """

    value: Callable[[np.ndarray], np.ndarray]
    d_value: Callable[[np.ndarray], np.ndarray]
    eigenvalue: complex | None = None

    def d_alpha(self, alpha, sign: int = 1) -> Callable[[np.ndarray], np.ndarray] | None:
        """Exact (D + s) f, s = sign*alpha, as a batched evaluator: s f + D f,
        or (lam + s) f for an eigenvalue lam, and None when lam + s == 0."""
        if sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        s = sign * alpha
        if self.eigenvalue is None:
            return lambda x: s * self.value(x) + self.d_value(x)
        shift = self.eigenvalue + s
        return None if shift == 0 else lambda x: shift * self.value(x)


def abc_beltrami(lam, a=DEFAULT_AMPLITUDES[0], b=DEFAULT_AMPLITUDES[1],
                 c=DEFAULT_AMPLITUDES[2]) -> AnalyticField:
    """Arnold-Beltrami-Childress flow: a purely vectorial field with
    rot F = lam * F and div F = 0, hence D F = lam * F, the eigenvalue.

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

    return AnalyticField(value=value, d_value=lambda x: lam * value(x), eigenvalue=lam)


def _constant_derivative(value, d) -> AnalyticField:
    """The field with evaluator `value` and the constant derivative D f = d,
    a read-only view broadcast to the points."""
    d = np.asarray(d, dtype=complex)
    return AnalyticField(value, lambda x: np.broadcast_to(d, np.shape(x)[:-1] + (4,)))


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


def _mode_sum(phi: AnalyticField, psi: AnalyticField, combine) -> AnalyticField:
    """The field combine(Phi, Psi) of two modes, for a linear combine; its
    derivative combines theirs."""
    return AnalyticField(
        value=lambda x: combine(phi.value(x), psi.value(x)),
        d_value=lambda x: combine(phi.d_value(x), psi.d_value(x)),
    )
