"""Medium parameters, mode splitting and continuity."""

import numpy as np
import pytest

from quatem.errors import SingularMediumError
from quatem.fields import abc_beltrami, exact_chiral_solution
from quatem.kernels import fd_div
from quatem.maxwell import (
    SourceData,
    continuity_rho,
    make_medium,
    merge_values,
    phi_psi_rhs,
    split_values,
)
from quatem.reconstruction import maxwell_residual
from quatem import quaternions as q


def test_canonical_medium_parameters():
    m = make_medium(1.0, 1.0, 1.0, 0.25)
    assert m.k == 1.0 + 0.0j
    assert m.alpha1 == pytest.approx(0.8)
    assert m.alpha2 == pytest.approx(4.0 / 3.0)


def test_lossy_medium_roots():
    m = make_medium(2.0, 2.0 + 1.0j, 1.5, 0.1)
    assert m.k == pytest.approx(2.0 * np.sqrt(1.5) * np.sqrt(2.0 + 1.0j))
    assert m.sqrt_mu.imag >= 0 and m.sqrt_epsilon.imag >= 0
    assert m.alpha1 == pytest.approx(m.k / (1.0 + m.k * 0.1))
    assert m.alpha2 == pytest.approx(m.k / (1.0 - m.k * 0.1))
    # the other branch flips both roots, so k is unchanged
    m2 = make_medium(2.0, 2.0 + 1.0j, 1.5, 0.1, branch=-1)
    assert m2.sqrt_mu == -m.sqrt_mu
    assert m2.k == m.k


def test_achiral_reduction_bitwise():
    m = make_medium(1.0, 4.0, 1.0, 0.0)
    assert m.alpha1 == m.alpha2 == m.k  # exact equality, not approx


def test_resonant_medium_rejected():
    with pytest.raises(SingularMediumError):
        make_medium(1.0, 1.0, 1.0, 1.0)   # k*beta = 1
    with pytest.raises(SingularMediumError):
        make_medium(1.0, 1.0, 1.0, -1.0)  # k*beta = -1
    with pytest.raises(ValueError):
        make_medium(-1.0, 1.0, 1.0, 0.1)
    with pytest.raises(ValueError):
        make_medium(1.0, 1.0, 1.0, 0.1, branch=0)


def test_split_merge_roundtrip():
    rng = np.random.default_rng(13)
    e = rng.standard_normal((7, 4)) + 1j * rng.standard_normal((7, 4))
    h = rng.standard_normal((7, 4)) + 1j * rng.standard_normal((7, 4))
    phi, psi = split_values(e, h)
    assert np.allclose(phi, e + 1j * h)
    e2, h2 = merge_values(phi, psi)
    assert np.allclose(e2, e) and np.allclose(h2, h)


def _beltrami_source(lam):
    f = abc_beltrami(lam)
    return SourceData(j=f, div_j=lambda x: np.zeros(np.asarray(x).shape[:-1], dtype=complex))


def test_continuity_relation():
    # j with a known nonzero divergence: j = (x1^2, x2, 0), div j = 2 x1 + 1
    from quatem.fields import polynomial_field

    coeffs = np.zeros((4, 10), dtype=complex)
    coeffs[1, 4] = 1.0  # x1^2 in component 1
    coeffs[2, 2] = 1.0  # x2 in component 2
    j = polynomial_field(coeffs)
    div_j = lambda x: 2.0 * np.asarray(x)[..., 0] + 1.0
    m = make_medium(1.0, 1.0, 1.0, 0.25)
    rho = continuity_rho(SourceData(j=j, div_j=div_j), m)
    pts = np.random.default_rng(14).uniform(-1, 1, (20, 3))
    expected = -div_j(pts) / (1j * m.k)
    assert np.max(np.abs(rho(pts) - expected)) < 1e-12
    # analytic divergence agrees with FD on the current itself
    assert abs(fd_div(j.vector_value, pts[0]) - div_j(pts[0])) < 1e-7


def test_phi_psi_rhs_structure():
    m = make_medium(1.0, 1.0, 1.0, 0.25)
    src = _beltrami_source(0.7)
    rhs_phi, rhs_psi = phi_psi_rhs(src, m)
    x = np.array([0.1, 0.2, -0.3])
    jv = q.vec(src.j.value(x))
    assert np.allclose(q.vec(rhs_phi(x)), (1j * m.alpha1 / m.k) * jv)
    assert np.allclose(q.vec(rhs_psi(x)), -(1j * m.alpha2 / m.k) * jv)
    assert rhs_phi(x)[0] == 0 and rhs_psi(x)[0] == 0  # divergence-free source


def test_exact_solution_satisfies_curl_equations():
    m = make_medium(1.0, 1.0, 1.0, 0.25)
    e_field, h_field = exact_chiral_solution(m)
    rng = np.random.default_rng(15)
    for x in rng.uniform(-0.8, 0.8, (10, 3)):
        r1, r2 = maxwell_residual(e_field, h_field, m, x)
        assert r1 < 1e-6 and r2 < 1e-6
