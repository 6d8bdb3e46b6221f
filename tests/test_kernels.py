"""Fundamental solutions and the finite-difference verification oracles."""

import csv

import numpy as np
import pytest

from quatem import quaternions as q
from quatem.cli import main
from quatem.errors import SingularityError
from quatem.fields import abc_beltrami, polynomial_field
from quatem.kernels import radial_factors, theta, upsilon

from oracles import (
    fd_curl,
    fd_d_alpha,
    fd_div,
    fd_moisil_theodoresco,
    fd_partial,
    grad_theta,
    vector_value,
)

PROBES = np.array([[0.8, -0.3, 0.52], [0.1, 1.4, -0.2], [-1.1, 0.4, 0.9]])
ALPHAS = (1.0, 1.0 + 0.3j, 2.0j)


def test_theta_closed_form():
    x = np.array([0.0, 0.0, 2.0])
    assert theta(1.0, x) == pytest.approx(-np.exp(2j) / (8.0 * np.pi))
    # static limit alpha = 0 is the Laplace fundamental solution
    assert theta(0.0, x) == pytest.approx(-1.0 / (8.0 * np.pi))


@pytest.mark.parametrize("alpha", [0.8, 4.0 / 3.0, 0.0, 0.8 + 0.3j, 0.8 - 0.3j, -0.5 + 0.02j])
def test_radial_factors_match_complex_exponential(alpha):
    # the cos/sin planes against -exp(i*alpha*r)/(4*pi*r) built from the
    # complex exponential, over six decades of r, with and without weights
    rng = np.random.default_rng(31)
    r = np.geomspace(1e-3, 1e3, 603).reshape(3, 201)
    w = rng.uniform(0.5, 2.0, 201)
    th_ref = -np.exp(1j * alpha * r) / (4.0 * np.pi * r)
    c_ref = th_ref * (1.0 / r**2 - 1j * alpha / r)
    for weights in (1.0, w):
        th, c = radial_factors(alpha, r, weights)
        assert th.shape == c.shape == (2,) + r.shape
        for planes, ref in ((th, weights * th_ref), (c, weights * c_ref)):
            got = planes[0] + 1j * planes[1]
            assert np.all(np.abs(got - ref) <= 1e-14 * np.abs(ref))


def test_radial_factors_stack_parameters():
    # several parameters in one call give the single-parameter planes, the
    # shared prefactor formed once for all of them
    r = np.geomspace(0.05, 5.0, 40).reshape(4, 10)
    w = np.linspace(0.1, 1.0, 10)
    alphas = (0.8, 4.0 / 3.0, 0.8 + 0.3j, 0.0)
    th, c = radial_factors(alphas, r, w)
    assert th.shape == c.shape == (len(alphas), 2) + r.shape
    for k, alpha in enumerate(alphas):
        th_k, c_k = radial_factors(alpha, r, w)
        assert np.array_equal(th[k], th_k) and np.array_equal(c[k], c_k)


def test_kernel_shapes():
    for x, shape in ((PROBES[0], ()), (PROBES, (3,)), (PROBES.reshape(3, 1, 3), (3, 1))):
        assert theta(0.8 + 0.3j, x).shape == shape
        assert theta(0.8 + 0.3j, x).dtype == complex
        assert upsilon(0.8, -1, x).shape == shape + (4,)


def test_kernel_probe_csv_layout(tmp_path):
    out = str(tmp_path / "kp.csv")
    assert main(["kernel-probe", "--alpha", "0.8+0.3j", "--count", "4",
                 "--rmin", "0.5", "--rmax", "2", "--out", out]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["r", "theta_re", "theta_im", "upsilon0_re", "upsilon0_im", "upsilon1_re",
                       "upsilon1_im", "upsilon2_re", "upsilon2_im", "upsilon3_re", "upsilon3_im"]
    assert len(rows) == 5
    for row in rows[1:]:
        assert len(row) == 11
        r = float(row[0])
        up = np.array([float(v) for v in row[3:]]).view(complex)
        assert np.allclose(up, upsilon(0.8 + 0.3j, 1, [r, 0.0, 0.0]), rtol=1e-15, atol=0.0)


def test_upsilon_along_any_ray_is_the_x_ray_rotated():
    # upsilon(r d) = (sign*alpha*theta(r), c(r) r d) for a unit vector d, with
    # c(r) r the vector part along +x: kernel-probe's ray stands for every ray,
    # and its sign +1 dump for sign -1, which negates q0 only
    rng = np.random.default_rng(41)
    d = rng.standard_normal((20, 3))
    d /= np.linalg.norm(d, axis=1)[:, None]
    r = np.linspace(0.1, 2.0, 7)
    for alpha in ALPHAS:
        plus = upsilon(alpha, 1, r[:, None] * [1.0, 0.0, 0.0])
        minus = upsilon(alpha, -1, r[:, None] * [1.0, 0.0, 0.0])
        assert np.array_equal(minus[:, 0], -plus[:, 0])
        assert np.array_equal(minus[:, 1:], plus[:, 1:])
        for s in (1, -1):
            on_x = upsilon(alpha, s, r[:, None] * [1.0, 0.0, 0.0])
            assert np.all(on_x[:, 2:] == 0)
            along = upsilon(alpha, s, r[:, None, None] * d)  # (radii, rays, 4)
            expected = np.empty_like(along)
            expected[..., 0] = on_x[:, None, 0]
            expected[..., 1:] = on_x[:, None, 1:2] * d
            assert np.all(q.norm(along - expected) <= 1e-14 * q.norm(expected))


def test_theta_singularity():
    with pytest.raises(SingularityError):
        theta(1.0, np.zeros(3))
    with pytest.raises(SingularityError):
        upsilon(1.0, 1, np.zeros((2, 3)))


def test_theta_solves_helmholtz():
    # (Delta + alpha^2) theta = 0 away from the origin
    for alpha in ALPHAS:
        for x in PROBES:
            lap = sum(
                fd_partial(lambda p, ax=ax: fd_partial(lambda pp: theta(alpha, pp), p, ax, 1e-3),
                           x, ax, 1e-3)
                for ax in range(3)
            )
            val = lap + alpha**2 * theta(alpha, x)
            assert abs(val) / abs(alpha**2 * theta(alpha, x)) < 1e-5, (alpha, x)


def test_grad_theta_matches_fd():
    for alpha in ALPHAS:
        for x in PROBES:
            fd = np.array([fd_partial(lambda p: theta(alpha, p), x, ax) for ax in range(3)])
            assert np.linalg.norm(grad_theta(alpha, x) - fd) < 1e-7


def test_upsilon_structure():
    for alpha in ALPHAS:
        for s in (1, -1):
            up = upsilon(alpha, s, PROBES)
            assert np.allclose(q.sc(up), s * alpha * theta(alpha, PROBES))
            assert np.allclose(q.vec(up), -grad_theta(alpha, PROBES))


def test_upsilon_is_fundamental_solution():
    # (D + s*alpha) Ups_{s*alpha} = 0 away from the origin; this is the
    # pointwise part of the delta identity.
    for alpha in ALPHAS:
        for s in (1, -1):
            for x in PROBES:
                res = fd_d_alpha(lambda p: upsilon(alpha, s, p), alpha, s, x)
                rel = q.norm(res) / q.norm(upsilon(alpha, s, x))
                assert rel < 1e-5, (alpha, s, x)


def test_upsilon_sign_validation():
    with pytest.raises(ValueError):
        upsilon(1.0, 2, PROBES)


def test_fd_moisil_theodoresco_on_polynomial():
    rng = np.random.default_rng(7)
    coeffs = rng.standard_normal((4, 10)) + 1j * rng.standard_normal((4, 10))
    f = polynomial_field(coeffs)
    for x in PROBES:
        fd = fd_moisil_theodoresco(f.value, x)
        assert q.norm(fd - f.d_value(x)) < 1e-7 * max(q.norm(f.d_value(x)), 1.0)


def test_fd_moisil_theodoresco_takes_batches():
    # an (M, 3) batch gives what a per-point loop gives, up to the roundoff
    # of the field values that the 1/(2h) of the difference amplifies
    rng = np.random.default_rng(9)
    coeffs = rng.standard_normal((4, 10)) + 1j * rng.standard_normal((4, 10))
    f = polynomial_field(coeffs)
    fields = (f.value, lambda p: upsilon(1.0 + 0.3j, -1, p))
    for field in fields:
        batch = fd_moisil_theodoresco(field, PROBES)
        assert batch.shape == (len(PROBES), 4)
        loop = np.stack([fd_moisil_theodoresco(field, x) for x in PROBES])
        assert np.all(q.norm(batch - loop) <= 1e-10 * q.norm(loop))


def test_d_squared_equals_minus_laplacian():
    # D(Df) = -Delta f for quadratic polynomials, where -Delta is computed
    # symbolically from the coefficient table.
    rng = np.random.default_rng(8)
    coeffs = rng.standard_normal((4, 10)) + 1j * rng.standard_normal((4, 10))
    f = polynomial_field(coeffs)
    # -Delta of the quadratic: constant, assembled from the x^2 coefficients
    minus_lap = -2.0 * (coeffs[:, 4] + coeffs[:, 5] + coeffs[:, 6])
    for x in PROBES:
        dd = fd_moisil_theodoresco(lambda p: f.d_value(p), x)
        assert q.norm(dd - minus_lap) < 1e-6 * max(q.norm(minus_lap), 1.0)


def test_fd_div_curl_on_beltrami():
    f = abc_beltrami(1.3)
    for x in PROBES:
        v = q.vec(f.value(x))
        assert abs(fd_div(vector_value(f), x)) < 1e-8
        assert np.linalg.norm(fd_curl(vector_value(f), x) - 1.3 * v) < 1e-7


def test_fd_d_alpha_sign_validation():
    with pytest.raises(ValueError):
        fd_d_alpha(lambda p: np.zeros(p.shape[:-1] + (4,)), 1.0, 0, PROBES[0])
