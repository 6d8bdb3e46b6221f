"""Arithmetic of complex quaternions (biquaternions).

A quaternion is stored as a complex ndarray whose last axis has length 4,
holding (q0, q1, q2, q3) with q0 the scalar part and (q1, q2, q3) the
components along the three imaginary units.  The complex unit commutes with
the imaginary units, so plain complex coefficients work throughout.  Every
function broadcasts over leading axes and leaves its inputs untouched.
"""

from __future__ import annotations

import numpy as np

ONE = np.array([1, 0, 0, 0], dtype=complex)
I1 = np.array([0, 1, 0, 0], dtype=complex)
I2 = np.array([0, 0, 1, 0], dtype=complex)
I3 = np.array([0, 0, 0, 1], dtype=complex)
UNITS = (ONE, I1, I2, I3)


def vector(v) -> np.ndarray:
    """Embed a C^3 vector (array, last axis length 3) as a purely vectorial
    quaternion."""
    v = np.asarray(v, dtype=complex)
    out = np.zeros(v.shape[:-1] + (4,), dtype=complex)
    out[..., 1:] = v
    return out


def sc(q) -> np.ndarray:
    """Scalar part q0."""
    return np.asarray(q)[..., 0]


def vec(q) -> np.ndarray:
    """Vector part (q1, q2, q3), identified with a vector in C^3."""
    return np.asarray(q)[..., 1:]


def qmul(a, b) -> np.ndarray:
    """Quaternion product a*b (non-commutative, bilinear over C)."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    a0, a1, a2, a3 = (a[..., k] for k in range(4))
    b0, b1, b2, b3 = (b[..., k] for k in range(4))
    return np.stack(
        [
            a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
            a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
            a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1,
            a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0,
        ],
        axis=-1,
    )


def norm(q) -> np.ndarray:
    """Euclidean norm of the 4 complex coefficients (not the quaternion
    'modulus', which can vanish on zero divisors)."""
    q = np.asarray(q, dtype=complex)
    return np.sqrt(np.sum(np.abs(q) ** 2, axis=-1))


def is_finite(q) -> bool:
    return bool(np.all(np.isfinite(np.asarray(q, dtype=complex))))

