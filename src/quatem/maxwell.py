"""Chiral-medium parameters and the Phi/Psi splitting.

Material constants enter through the Drude-Born-Fedorov constitutive form,
in which each field couples to its own curl with the chirality measure
beta.  For fields normalized by the material weights (E~/sqrt(mu),
H~/sqrt(eps)) the two circular modes decouple into first-order
quaternionic equations with wave parameters alpha1 and alpha2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import quaternions as q
from .errors import SingularMediumError
from .fields import AnalyticField

_SINGULAR_TOL = 1e-9


def _root(z, branch: int = 1) -> complex:
    """Complex square root with Im >= 0 preferred; branch=-1 flips it."""
    s = complex(np.sqrt(complex(z)))
    if s.imag < 0 or (s.imag == 0 and s.real < 0):
        s = -s
    return s if branch == 1 else -s


@dataclass(frozen=True)
class ChiralMedium:
    """Material constants and the derived wave parameters.

    k      = omega * sqrt(mu) * sqrt(epsilon) (roots on the chosen branch,
             so the normalization and the wave number stay consistent)
    alpha1 = k / (1 + k*beta),  alpha2 = k / (1 - k*beta)
    """

    omega: float
    epsilon: complex
    mu: complex
    beta: float
    branch: int = 1
    sqrt_mu: complex = field(init=False)
    sqrt_epsilon: complex = field(init=False)
    k: complex = field(init=False)
    alpha1: complex = field(init=False)
    alpha2: complex = field(init=False)

    def __post_init__(self):
        if self.branch not in (1, -1):
            raise ValueError("branch must be +1 or -1")
        if self.omega <= 0:
            raise ValueError("omega must be positive")
        sqrt_mu = _root(self.mu, self.branch)
        sqrt_eps = _root(self.epsilon, self.branch)
        k = self.omega * sqrt_mu * sqrt_eps
        kb = k * self.beta
        scale = max(1.0, abs(kb))
        for s in (1.0, -1.0):
            if abs(1.0 + s * kb) <= _SINGULAR_TOL * scale:
                raise SingularMediumError(
                    "k*beta = %s sits on a resonance of the mode splitting" % kb
                )
        object.__setattr__(self, "sqrt_mu", sqrt_mu)
        object.__setattr__(self, "sqrt_epsilon", sqrt_eps)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "alpha1", k / (1.0 + kb))
        object.__setattr__(self, "alpha2", k / (1.0 - kb))


def make_medium(omega, epsilon, mu, beta, branch: int = 1) -> ChiralMedium:
    """Validate material constants and derive k, alpha1, alpha2."""
    return ChiralMedium(float(omega), complex(epsilon), complex(mu), float(beta), branch)


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


@dataclass(frozen=True)
class SourceData:
    """Current density with its analytic divergence.

    The charge term is always derived from the current via the continuity
    relation rho/eps = -(1/(i*k)) div j, never supplied independently.
    """

    j: AnalyticField                      # purely vectorial
    div_j: Callable[[np.ndarray], np.ndarray]


def continuity_rho(source: SourceData, medium: ChiralMedium):
    """rho/eps as a scalar evaluator, -(1/(i*k)) div j."""
    k = medium.k
    return lambda x: -source.div_j(x) / (1j * k)


def phi_psi_rhs(source: SourceData, medium: ChiralMedium):
    """Quaternionic right-hand sides of the decoupled mode equations.

    (D + alpha1) Phi = (i/k) [alpha1 j - div j]
    (D - alpha2) Psi = -(i/k) [alpha2 j + div j]

    Both read (i/k) [a j - div j] with the signed wave parameter a =
    +alpha1 or -alpha2; div j lands in the scalar part, j in the vector
    part.  Returns the pair of batched evaluators (Phi's, then Psi's).
    """
    k = medium.k

    def rhs(a):
        def evaluate(x):
            x = np.asarray(x, dtype=float)
            out = q.vector((1j * a / k) * q.vec(source.j.value(x)))
            out[..., 0] = -(1j / k) * source.div_j(x)
            return out
        return evaluate

    return rhs(medium.alpha1), rhs(-medium.alpha2)
