"""Algebra layer: Cayley table, ring axioms, conjugation."""

import numpy as np
import pytest

from quatem import quaternions as q

from oracles import ZERO, qconj, quat, scalar

# Independent multiplication oracle: structure constants of the basis,
# written down directly from i1*i2 = i3 (cyclic) and ik^2 = -1.
_TABLE = np.zeros((4, 4, 4))
_TABLE[0, 0, 0] = 1
for k in (1, 2, 3):
    _TABLE[0, k, k] = _TABLE[k, 0, k] = 1
    _TABLE[k, k, 0] = -1
for a, b, c in ((1, 2, 3), (2, 3, 1), (3, 1, 2)):
    _TABLE[a, b, c] = 1
    _TABLE[b, a, c] = -1


def table_mul(u, v):
    return np.einsum("...a,...b,abc->...c", u, v, _TABLE.astype(complex))


def rand_quats(rng, n):
    return rng.standard_normal((n, 4)) + 1j * rng.standard_normal((n, 4))


def test_cayley_table_exact():
    units = q.UNITS
    for a in range(4):
        for b in range(4):
            expected = _TABLE[a, b].astype(complex)
            assert np.array_equal(q.qmul(units[a], units[b]), expected), (a, b)


def test_qmul_matches_structure_constants():
    rng = np.random.default_rng(0)
    u, v = rand_quats(rng, 200), rand_quats(rng, 200)
    assert np.max(np.abs(q.qmul(u, v) - table_mul(u, v))) < 1e-13


def test_associativity_bulk():
    rng = np.random.default_rng(1)
    u, v, w = (rand_quats(rng, 1000) for _ in range(3))
    lhs = q.qmul(q.qmul(u, v), w)
    rhs = q.qmul(u, q.qmul(v, w))
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_distributivity_and_units():
    rng = np.random.default_rng(2)
    u, v, w = (rand_quats(rng, 50) for _ in range(3))
    assert np.max(np.abs(q.qmul(u, v + w) - q.qmul(u, v) - q.qmul(u, w))) < 1e-13
    assert np.allclose(q.qmul(q.ONE, u), u)
    assert np.allclose(q.qmul(u, q.ONE), u)


def test_noncommutativity():
    assert np.array_equal(q.qmul(q.I1, q.I2), q.I3)
    assert np.array_equal(q.qmul(q.I2, q.I1), -q.I3)


def test_conjugation_anti_homomorphism():
    rng = np.random.default_rng(3)
    u, v = rand_quats(rng, 1000), rand_quats(rng, 1000)
    lhs = qconj(q.qmul(u, v))
    rhs = q.qmul(qconj(v), qconj(u))
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_conjugate_negates_vector_only():
    u = quat(1 + 2j, 3, 4j, 5)
    c = qconj(u)
    assert c[0] == 1 + 2j  # complex coefficients untouched
    assert np.array_equal(c[1:], -u[1:])


def test_q_qbar_is_complex_scalar():
    rng = np.random.default_rng(4)
    u = rand_quats(rng, 100)
    prod = q.qmul(u, qconj(u))
    assert np.max(np.abs(prod[:, 1:])) < 1e-13
    assert np.allclose(prod[:, 0], np.sum(u * u, axis=1))


def test_zero_divisors_exist():
    u = q.ONE + 1j * q.I1
    v = q.ONE - 1j * q.I1
    assert np.array_equal(q.qmul(u, v), ZERO)
    assert np.any(u != 0) and np.any(v != 0)


def test_vector_product_rule():
    # For purely vectorial u, v: u*v = -<u,v> + u x v.
    rng = np.random.default_rng(5)
    a = rng.standard_normal((100, 3)) + 1j * rng.standard_normal((100, 3))
    b = rng.standard_normal((100, 3)) + 1j * rng.standard_normal((100, 3))
    prod = q.qmul(q.vector(a), q.vector(b))
    assert np.allclose(prod[:, 0], -np.sum(a * b, axis=-1))
    assert np.allclose(prod[:, 1:], np.cross(a, b))


def test_broadcasting():
    rng = np.random.default_rng(6)
    u = rand_quats(rng, 6).reshape(2, 3, 4)
    out = q.qmul(u, q.I2)
    for idx in np.ndindex(2, 3):
        assert np.allclose(out[idx], q.qmul(u[idx], q.I2))


def test_scalar_vector_split_roundtrip():
    u = quat(1j, 2, 3, 4 - 1j)
    assert np.array_equal(scalar(q.sc(u)) + q.vector(q.vec(u)), u)


def test_norm_and_finiteness():
    assert q.norm(quat(3, 4j, 0, 0)) == pytest.approx(5.0)
    bad = quat(np.nan, 0, 0, 0)
    assert not q.is_finite(bad)
    assert q.is_finite(q.ONE)
