"""Manufactured analytic fields and their exact derivative oracles."""

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quatem import quaternions as q
from quatem.cli import _BP_FIELDS
from quatem.fields import (
    _mode_sum,
    abc_beltrami,
    exact_chiral_solution,
    identity_vector_field,
    scalar_monomial,
)
from quatem.maxwell import make_medium

from oracles import (
    N_MONOMIALS,
    constant_field,
    fd_curl,
    fd_div,
    fd_moisil_theodoresco,
    polynomial_field,
    quat,
    vector_value,
)

PROBES = np.array([[0.2, -0.5, 0.31], [1.1, 0.4, -0.8], [-0.3, 0.9, 0.05]])


def test_abc_beltrami_eigenfield():
    for lam in (0.8, -1.5, 1.0 + 0.4j):
        f = abc_beltrami(lam)
        for x in PROBES:
            v = q.vec(f.value(x))
            assert abs(fd_div(vector_value(f), x)) < 1e-7 * np.linalg.norm(v)
            assert np.linalg.norm(fd_curl(vector_value(f), x) - lam * v) \
                < 1e-6 * np.linalg.norm(v)
            # purely vectorial with D f = lam * f
            assert q.sc(f.value(x)) == 0
            assert q.norm(f.d_value(x) - lam * f.value(x)) == 0


def test_abc_beltrami_real_lam_takes_real_trig_with_the_same_values():
    x = np.random.default_rng(12).uniform(-2.0, 2.0, (500, 3))
    x1, x2, x3 = x.T
    a, b, c = 0.9, 0.2, 0.5
    for lam in (0.8, -1.0, -1.3, 2.5):
        z = complex(lam)  # the same expression in complex arithmetic
        expected = q.vector(np.stack([a * np.sin(z * x3) + c * np.cos(z * x2),
                                      b * np.sin(z * x1) + a * np.cos(z * x3),
                                      c * np.sin(z * x2) + b * np.cos(z * x1)], axis=-1))
        assert np.array_equal(abc_beltrami(lam, a, b, c).value(x), expected)


def test_abc_beltrami_d_value_matches_fd():
    f = abc_beltrami(1.0 + 0.4j, 0.9, 0.2, 0.5)
    for x in PROBES:
        fd = fd_moisil_theodoresco(f.value, x)
        assert q.norm(fd - f.d_value(x)) < 1e-6 * q.norm(f.d_value(x))


def test_polynomial_derivative_oracle_vs_fd():
    rng = np.random.default_rng(11)
    for _ in range(5):
        coeffs = rng.standard_normal((4, 10)) + 1j * rng.standard_normal((4, 10))
        f = polynomial_field(coeffs)
        for x in PROBES:
            fd = fd_moisil_theodoresco(f.value, x)
            assert q.norm(fd - f.d_value(x)) < 1e-7 * max(q.norm(f.d_value(x)), 1.0)


def test_polynomial_shape_validation():
    with pytest.raises(ValueError):
        polynomial_field(np.zeros((4, 9)))


def test_named_polynomials():
    x = PROBES[0]
    f = scalar_monomial(2)
    assert f.value(x)[0] == x[1]
    # D of a scalar field is its gradient: here the unit vector e2
    assert np.array_equal(f.d_value(x), q.I2)

    g = identity_vector_field()
    assert np.array_equal(q.vec(g.value(x)), x.astype(complex))
    assert np.array_equal(g.d_value(x), -3.0 * q.ONE)  # -div(x) = -3, rot x = 0

    c = constant_field(quat(1, 2j, 3, 4))
    assert np.array_equal(c.value(x), quat(1, 2j, 3, 4))
    assert q.norm(c.d_value(x)) == 0

    for component in (0, 4):
        with pytest.raises(ValueError, match="component must be 1, 2 or 3"):
            scalar_monomial(component)


def test_d_alpha_evaluator():
    f = identity_vector_field()
    x = PROBES[1]
    expected = f.d_value(x) + (2.0 - 1j) * f.value(x)
    assert np.allclose(f.d_alpha(2.0 - 1j, 1)(x), expected)
    assert np.allclose(f.d_alpha(2.0 - 1j, -1)(x), f.d_value(x) - (2.0 - 1j) * f.value(x))
    with pytest.raises(ValueError):
        f.d_alpha(1.0, 0)


def _linear_table(component=None):
    """The coefficient table of f = x_component, or of f = x when None."""
    coeffs = np.zeros((4, N_MONOMIALS))
    if component is None:
        coeffs[1, 1] = coeffs[2, 2] = coeffs[3, 3] = 1.0
    else:
        coeffs[0, component] = 1.0
    return coeffs


@pytest.mark.parametrize("component", [1, 2, 3, None], ids=["x1", "x2", "x3", "x"])
def test_linear_fields_match_the_coefficient_table_bit_for_bit(component):
    closed = identity_vector_field() if component is None else scalar_monomial(component)
    table = polynomial_field(_linear_table(component))
    rng = np.random.default_rng(7)
    for shape in [(3,), (2, 3), (50, 3), (4, 30, 3)]:
        x = rng.uniform(-1.5, 1.5, shape)
        assert np.array_equal(closed.value(x), table.value(x))
        assert np.array_equal(closed.d_value(x), table.d_value(x))
        for s, sign in itertools.product((1.0, 0.8 + 0.3j, -1.0 - 0.5j), (1, -1)):
            assert np.array_equal(closed.d_alpha(s, sign)(x), table.d_alpha(s, sign)(x))


def test_polynomial_at_one_point_is_its_row_of_a_batch_bit_for_bit():
    # verify-bp's fields and their (D + s) f are elementwise, so a single
    # point gives the bits of its row in any batch (teodorescu's rows for
    # one target rely on it); the Beltrami flow's (D + alpha) f is None
    rng = np.random.default_rng(13)
    for alpha, make_field in itertools.product((1.0, 0.8 + 0.3j, -1.0 - 0.5j),
                                               _BP_FIELDS.values()):
        f = make_field(alpha)
        evaluators = (f.value, f.d_value, f.d_alpha(alpha, 1), f.d_alpha(alpha, -1))
        for evaluate in (e for e in evaluators if e is not None):
            for _ in range(20):
                x = rng.uniform(-1.5, 1.5, 3)
                one = evaluate(x)
                assert one.shape == (4,)
                assert np.array_equal(one, evaluate(np.stack([x, x]))[0])
                assert np.array_equal(one, evaluate(np.vstack([rng.uniform(-1.5, 1.5, (40, 3)),
                                                               x]))[-1])
                assert np.array_equal(evaluate(x[None]), one[None])


_COMPLEX = st.builds(complex, st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))


def _fields(kind, seed, lam):
    if kind == "polynomial":
        rng = np.random.default_rng(seed)
        return [polynomial_field(rng.uniform(-1, 1, (4, N_MONOMIALS))
                                 + 1j * rng.uniform(-1, 1, (4, N_MONOMIALS)))]
    if kind == "linear":
        return [scalar_monomial(k) for k in (1, 2, 3)] + [identity_vector_field()]
    if kind == "beltrami":
        return [abc_beltrami(lam, 0.9, 0.2, 0.5)]
    return list(exact_chiral_solution(make_medium(1.0, 1.0, 1.0, 0.25)))


@settings(max_examples=30, deadline=None)
@given(kind=st.sampled_from(["polynomial", "linear", "beltrami", "chiral"]),
       seed=st.integers(0, 2**32 - 1), lam=_COMPLEX, alpha=_COMPLEX,
       sign=st.sampled_from([1, -1]))
@example(kind="beltrami", seed=0, lam=2.2250738585e-313 + 0j, alpha=2.2250738585e-313 + 0j,
         sign=1)  # subnormal lam and alpha: the two sides differ by one subnormal step
def test_d_alpha_closed_form_matches_oracles(kind, seed, lam, alpha, sign):
    x = np.random.default_rng(seed).uniform(-1.0, 1.0, (40, 3))
    for f in _fields(kind, seed, lam):
        d_value, shift = f.d_value(x), sign * alpha * f.value(x)
        # roundoff scale: the larger sum of the two terms' magnitudes
        scale = (np.abs(d_value) + np.abs(shift)).max()
        # plus an absolute floor: a product that lands among the subnormals
        # errs by up to half a subnormal step however small it is, and sums
        # of subnormals are exact; per component, (lam + s) f rounds two
        # products and lam f + s f four, so the sides differ by up to 3 steps
        bound = 1e-15 * scale + 3 * np.finfo(float).smallest_subnormal
        shifted = f.d_alpha(alpha, sign)
        # None: (D + s) f vanishes identically, so d_value + shift is roundoff
        got = 0.0 if shifted is None else shifted(x)
        assert np.abs(got - (d_value + shift)).max() <= bound


@pytest.mark.parametrize("lam", [1.0, -1.5, 0.8 + 0.3j])
def test_vanishing_shift_is_none(lam):
    # (D + s) F = (lam + s) F of a Beltrami flow, with eigenvalue lam,
    # vanishes at s = -lam
    f = abc_beltrami(lam)
    assert f.eigenvalue == lam
    assert f.d_alpha(-lam, 1) is None
    assert f.d_alpha(lam, -1) is None
    assert f.d_alpha(lam, 1) is not None
    # a field without an eigenvalue always gets the evaluator s f + D f,
    # which returns exact zeros where (D + s) f vanishes: the zero
    # polynomial at any s, a constant at s = 0
    x = np.random.default_rng(5).uniform(-1.0, 1.0, (40, 3))
    zero = polynomial_field(np.zeros((4, N_MONOMIALS)))
    coeffs = np.zeros((4, N_MONOMIALS))
    coeffs[:, 0] = [1.0, 0.5, -0.2, 0.3]
    constant = polynomial_field(coeffs)
    for field, s in ((zero, lam), (constant, 0.0)):
        assert field.eigenvalue is None
        assert np.array_equal(field.d_alpha(s)(x), np.zeros((len(x), 4)))
    assert np.array_equal(constant.d_alpha(lam)(x), lam * constant.value(x))


def test_mode_sum_d_alpha_is_s_f_plus_d_f():
    # E = (Phi + Psi)/2 and H = (Phi - Psi)/(2i) carry no eigenvalue, so
    # their (D + s) f is s f + D f bit for bit, also at s = alpha1 and at
    # s = -alpha2, where one mode's (D + s) vanishes
    medium = make_medium(1.0, 1.0, 1.0, 0.25)
    x = np.random.default_rng(13).uniform(-1.0, 1.0, (40, 3))
    for f in exact_chiral_solution(medium):
        assert f.eigenvalue is None
        for alpha, sign in ((medium.alpha1, 1), (medium.alpha2, -1), (0.8 + 0.3j, 1)):
            expected = sign * alpha * f.value(x) + f.d_value(x)
            assert f.d_alpha(alpha, sign)(x).tobytes() == expected.tobytes()
    # two modes of one eigenvalue still sum to a field without one
    both = _mode_sum(abc_beltrami(-0.7), abc_beltrami(-0.7, 0.2, 0.5, 0.9),
                     lambda u, v: u + v)
    assert both.eigenvalue is None
    assert np.abs(both.d_alpha(0.7)(x)).max() < 1e-15


def test_exact_chiral_solution_mode_structure():
    medium = make_medium(1.0, 1.0, 1.0, 0.25)
    e_field, h_field = exact_chiral_solution(medium)
    for x in PROBES:
        phi = e_field.value(x) + 1j * h_field.value(x)
        psi = e_field.value(x) - 1j * h_field.value(x)
        dphi = e_field.d_value(x) + 1j * h_field.d_value(x)
        dpsi = e_field.d_value(x) - 1j * h_field.d_value(x)
        # Phi is annihilated by D + alpha1, Psi by D - alpha2
        assert q.norm(dphi + medium.alpha1 * phi) < 1e-12 * q.norm(phi)
        assert q.norm(dpsi - medium.alpha2 * psi) < 1e-12 * q.norm(psi)


def test_batched_evaluation_shapes():
    f = abc_beltrami(1.0)
    out = f.value(PROBES.reshape(1, 3, 3))
    assert out.shape == (1, 3, 4)
    assert np.allclose(out[0, 1], f.value(PROBES[1]))
