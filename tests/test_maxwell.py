"""Medium parameters, mode splitting and continuity."""

import numpy as np
import pytest

from quatem.errors import SingularMediumError
from quatem.fields import abc_beltrami, exact_chiral_solution
from quatem.maxwell import make_medium, merge_values, split_values
from quatem import quaternions as q

from oracles import (
    continuity_rho,
    fd_div,
    manufactured_current_solution,
    maxwell_residual,
    phi_psi_rhs,
    polynomial_field,
    vector_value,
)


def test_canonical_medium_parameters():
    m = make_medium(1.0, 1.0, 1.0, 0.25)
    assert m.k == 1.0 + 0.0j
    assert m.alpha1 == pytest.approx(0.8)
    assert m.alpha2 == pytest.approx(4.0 / 3.0)


def test_lossy_medium_roots():
    m = make_medium(2.0, 2.0 + 1.0j, 1.5, 0.1)
    assert m.k == pytest.approx(2.0 * np.sqrt(1.5) * np.sqrt(2.0 + 1.0j))
    assert m.alpha1 == pytest.approx(m.k / (1.0 + m.k * 0.1))
    assert m.alpha2 == pytest.approx(m.k / (1.0 - m.k * 0.1))


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


@pytest.mark.parametrize("constants", [
    (np.nan, 1.0, 1.0, 0.25), (np.inf, 1.0, 1.0, 0.25), (1.0, complex(np.nan, 0.0), 1.0, 0.25),
    (1.0, 1.0, complex(1.0, np.inf), 0.25), (1.0, 1.0, 1.0, np.nan), (1.0, 1.0, 1.0, -np.inf),
])
def test_non_finite_medium_rejected(constants):
    with pytest.raises(ValueError, match="finite"):
        make_medium(*constants)


@pytest.mark.parametrize("beta", [0.0, 0.25])
def test_medium_whose_wave_number_overflows_rejected(beta):
    # k = omega sqrt(mu) sqrt(epsilon) = 1e400 overflows: alpha1 and alpha2 would be NaN
    with pytest.raises(ValueError, match=r"omega positive: the wave number k = \(inf\+0j\)$"):
        make_medium(1e200, 1e200, 1e200, beta)


def test_split_merge_roundtrip():
    rng = np.random.default_rng(13)
    e = rng.standard_normal((7, 4)) + 1j * rng.standard_normal((7, 4))
    h = rng.standard_normal((7, 4)) + 1j * rng.standard_normal((7, 4))
    phi, psi = split_values(e, h)
    assert np.allclose(phi, e + 1j * h)
    e2, h2 = merge_values(phi, psi)
    assert np.allclose(e2, e) and np.allclose(h2, h)


def test_continuity_relation():
    # j with a known nonzero divergence: j = (x1^2, x2, 0), div j = 2 x1 + 1
    coeffs = np.zeros((4, 10), dtype=complex)
    coeffs[1, 4] = 1.0  # x1^2 in component 1
    coeffs[2, 2] = 1.0  # x2 in component 2
    j = polynomial_field(coeffs)
    div_j = lambda x: 2.0 * np.asarray(x)[..., 0] + 1.0
    m = make_medium(1.0, 1.0, 1.0, 0.25)
    rho = continuity_rho(j, m)
    pts = np.random.default_rng(14).uniform(-1, 1, (20, 3))
    expected = -div_j(pts) / (1j * m.k)
    assert np.max(np.abs(rho(pts) - expected)) < 1e-12
    # the hand-written divergence agrees with FD on the current itself
    assert abs(fd_div(vector_value(j), pts[0]) - div_j(pts[0])) < 1e-7


def test_phi_psi_rhs_structure():
    # a divergence-free Beltrami current has no scalar part; the polynomial
    # j = (x1^2, (1+i) x1 x2, -2 x3) with div j = (3+i) x1 - 2 has -(i/k) div j
    m = make_medium(1.0, 1.0, 1.0, 0.25)
    coeffs = np.zeros((4, 10), dtype=complex)
    coeffs[1, 4], coeffs[2, 7], coeffs[3, 3] = 1.0, 1.0 + 1j, -2.0
    currents = [(abc_beltrami(0.7), lambda x: 0.0),
                (polynomial_field(coeffs), lambda x: (3.0 + 1j) * x[0] - 2.0)]
    x = np.array([0.1, 0.2, -0.3])
    for j, div_j in currents:
        rhs_phi, rhs_psi = phi_psi_rhs(j, m)(x)
        jv = q.vec(j.value(x))
        assert np.allclose(q.vec(rhs_phi), (1j * m.alpha1 / m.k) * jv)
        assert np.allclose(q.vec(rhs_psi), -(1j * m.alpha2 / m.k) * jv)
        expected = -(1j / m.k) * div_j(x)  # exactly 0 for the Beltrami current
        assert abs(rhs_phi[0] - expected) <= 1e-14 * abs(expected)
        assert abs(rhs_psi[0] - expected) <= 1e-14 * abs(expected)


def test_exact_solution_satisfies_curl_equations():
    m = make_medium(1.0, 1.0, 1.0, 0.25)
    e_field, h_field = exact_chiral_solution(m)
    rng = np.random.default_rng(15)
    for x in rng.uniform(-0.8, 0.8, (10, 3)):
        r1, r2 = maxwell_residual(e_field, h_field, m, x)
        assert r1 < 1e-6 and r2 < 1e-6


@pytest.mark.parametrize("beta", [0.25, 0.0])
def test_manufactured_current_solution_satisfies_curl_equations(beta):
    # the closed-form current solution checked by finite differences, which
    # do not use oracles._DMAT: both curl equations with j, div H = 0, and a
    # current that is not divergence-free
    m = make_medium(1.0, 1.0, 1.0, beta)
    e_field, h_field, j = manufactured_current_solution(m, seed=3)
    for x in np.random.default_rng(16).uniform(-0.8, 0.8, (10, 3)):
        r1, r2 = maxwell_residual(e_field, h_field, m, x, current=j)
        assert r1 < 1e-6 and r2 < 1e-6
        assert abs(fd_div(vector_value(h_field), x)) < 1e-6
        assert abs(fd_div(vector_value(j), x)) > 1e-3
    assert max(maxwell_residual(e_field, h_field, m, x)) > 0.1  # j is needed
