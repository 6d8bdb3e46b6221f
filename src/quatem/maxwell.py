"""Chiral-medium parameters and the Phi/Psi splitting.

Material constants enter through the Drude-Born-Fedorov constitutive form,
in which each field couples to its own curl with the chirality measure
beta.  For fields normalized by the material weights (E~/sqrt(mu),
H~/sqrt(eps)) the two circular modes decouple into first-order
quaternionic equations with wave parameters alpha1 and alpha2.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import quaternions as q
from .errors import SingularMediumError
from .fields import AnalyticField

_SINGULAR_TOL = 1e-9


def _root(z) -> complex:
    """Complex square root with Im >= 0 (Re >= 0 on the real axis)."""
    s = complex(np.sqrt(complex(z)))
    if s.imag < 0 or (s.imag == 0 and s.real < 0):
        s = -s
    return s


@dataclass(frozen=True)
class ChiralMedium:
    """Material constants and the derived wave parameters.

    k      = omega * sqrt(mu) * sqrt(epsilon), each root with Im >= 0
             (flipping both roots would leave k unchanged)
    alpha1 = k / (1 + k*beta),  alpha2 = k / (1 - k*beta)
    """

    omega: float
    epsilon: complex
    mu: complex
    beta: float
    k: complex = field(init=False)
    alpha1: complex = field(init=False)
    alpha2: complex = field(init=False)

    def __post_init__(self):
        k = self.omega * _root(self.mu) * _root(self.epsilon)
        kb = k * self.beta  # NaN or infinite also where k is, such as where k overflows
        if not (np.all(np.isfinite([self.omega, self.epsilon, self.mu, self.beta, kb]))
                and self.omega > 0):
            raise ValueError("omega, epsilon, mu, beta and k*beta must be finite, omega "
                             "positive: the wave number k = %s" % k)
        scale = max(1.0, abs(kb))
        for s in (1.0, -1.0):
            if abs(1.0 + s * kb) <= _SINGULAR_TOL * scale:
                raise SingularMediumError(
                    "k*beta = %s sits on a resonance of the mode splitting" % kb
                )
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "alpha1", k / (1.0 + kb))
        object.__setattr__(self, "alpha2", k / (1.0 - kb))


def make_medium(omega, epsilon, mu, beta) -> ChiralMedium:
    """Validate material constants and derive k, alpha1, alpha2."""
    return ChiralMedium(float(omega), complex(epsilon), complex(mu), float(beta))


def split_values(e, h):
    """Circular-mode splitting phi = e + i h, psi = e - i h (any shape)."""
    e = np.asarray(e, dtype=complex)
    h = np.asarray(h, dtype=complex)
    return e + 1j * h, e - 1j * h


def merge_values(phi, psi):
    """Inverse splitting: e = (phi + psi)/2, h = (phi - psi)/(2i)."""
    phi = np.asarray(phi, dtype=complex)
    psi = np.asarray(psi, dtype=complex)
    return 0.5 * (phi + psi), (phi - psi) / 2j


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
    +alpha1 or -alpha2; div j lands in the scalar part, j in the vector
    part.  Returns one batched evaluator of both: points (..., 3) give
    (2, ..., 4), Phi's right-hand side then Psi's, from one j.value and one
    j.d_value per point.
    """
    k = medium.k

    def evaluate(x):
        x = np.asarray(x, dtype=float)
        j_vec, div_part = q.vec(j.value(x)), (1j / k) * q.sc(j.d_value(x))
        out = np.empty((2,) + x.shape[:-1] + (4,), dtype=complex)
        for mode, a in zip(out, (medium.alpha1, -medium.alpha2)):
            mode[..., 1:] = (1j * a / k) * j_vec
            mode[..., 0] = div_part
        return out

    return evaluate
