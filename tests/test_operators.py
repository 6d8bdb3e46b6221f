"""Discretized volume and boundary operators and the reproduction identity."""

import numpy as np
import pytest

from quatem import quaternions as q
from quatem.errors import NearSingularityError, SingularityError
from quatem.fields import (
    abc_beltrami,
    constant_field,
    identity_vector_field,
    polynomial_field,
    scalar_monomial,
)
from quatem.geometry import build_ball_quadrature, build_sphere_mesh
from quatem.kernels import upsilon
from quatem.operators import (
    BOUNDARY_CHUNK,
    BoundaryDensity,
    VolumeDensity,
    borel_pompeiu_residual,
    boundary_distance,
    cauchy_boundary,
    teodorescu,
)

MESH2 = build_sphere_mesh(1.0, 2)
QUAD2 = build_ball_quadrature(1.0, 2)
PROBE = np.array([0.3, 0.1, -0.2])


def _const_volume(value):
    f = constant_field(value)
    return VolumeDensity.from_function(QUAD2, f.value)


def test_density_validation():
    with pytest.raises(ValueError):
        BoundaryDensity(MESH2, np.zeros((3, 1, 4), dtype=complex))
    bad = np.zeros((len(QUAD2.points), 4), dtype=complex)
    bad[0, 0] = np.nan
    with pytest.raises(ValueError):
        VolumeDensity(QUAD2, bad)


def test_panel_constant_density():
    vals = np.zeros((MESH2.n_triangles, 4), dtype=complex)
    vals[:, 0] = 2.0
    d = BoundaryDensity.from_triangle_values(MESH2, vals)
    assert d.values.shape == (MESH2.n_triangles, MESH2.nodes_per_triangle, 4)
    assert np.all(d.flat_values[:, 0] == 2.0)


def test_volume_density_sampling():
    f = identity_vector_field()
    with_eval = VolumeDensity.from_function(QUAD2, f.value)
    pts = np.array([[0.11, 0.22, 0.33], [-0.4, 0.1, 0.2]])
    assert np.allclose(with_eval.sample(pts), f.value(pts))
    # without an evaluator the nearest node value is used
    nearest_only = VolumeDensity(QUAD2, with_eval.values)
    out = nearest_only.sample(pts)
    for p, v in zip(pts, out):
        i = np.argmin(np.linalg.norm(QUAD2.points - p, axis=1))
        assert np.array_equal(v, with_eval.values[i])


def test_teodorescu_linearity():
    rng = np.random.default_rng(21)
    v1 = rng.standard_normal((len(QUAD2.points), 4)) + 0j
    v2 = rng.standard_normal((len(QUAD2.points), 4)) + 0j
    d1, d2 = VolumeDensity(QUAD2, v1), VolumeDensity(QUAD2, v2)
    d12 = VolumeDensity(QUAD2, 2.0 * v1 + (1 - 1j) * v2)
    for rule in ("cutoff", "exclude", "none"):
        t1 = teodorescu(1.0, 1, d1, PROBE, near_rule=rule)
        t2 = teodorescu(1.0, 1, d2, PROBE, near_rule=rule)
        t12 = teodorescu(1.0, 1, d12, PROBE, near_rule=rule)
        assert np.allclose(t12, 2.0 * t1 + (1 - 1j) * t2, atol=1e-10)


def test_teodorescu_sign_coherence():
    # both sign conventions share the same Helmholtz kernel; only the
    # alpha*theta scalar term flips.  Rebuild each kernel from the raw
    # closed forms and sum it over the rule by hand.
    from quatem.kernels import grad_theta, theta

    d = _const_volume(q.quat(1, 0.5, -0.25, 2j))
    alpha = 1.0 + 0.2j
    diff = PROBE - QUAD2.points
    w = QUAD2.weights.astype(complex)

    def reference(kernel):
        return np.einsum("n,nk->k", w, q.qmul(kernel, d.values))

    for s in (1, -1):
        manual = q.scalar(s * alpha * theta(alpha, diff))
        manual[..., 1:] = -grad_theta(alpha, diff)
        built_in = teodorescu(alpha, s, d, PROBE, near_rule="none")
        assert np.allclose(built_in, reference(manual), atol=1e-13)
    # the two signs differ exactly by twice the scalar-kernel term
    plus = teodorescu(alpha, 1, d, PROBE, near_rule="none")
    minus = teodorescu(alpha, -1, d, PROBE, near_rule="none")
    twice_scalar = reference(q.scalar(2.0 * alpha * theta(alpha, diff)))
    assert np.allclose(plus - minus, twice_scalar, atol=1e-13)


def test_teodorescu_singular_point():
    d = _const_volume(q.ONE)
    node = QUAD2.points[10]
    with pytest.raises(SingularityError):
        teodorescu(1.0, 1, d, node, near_rule="none")
    # cutoff and exclude both handle the node hit
    for rule in ("cutoff", "exclude"):
        assert q.is_finite(teodorescu(1.0, 1, d, node, near_rule=rule))
    with pytest.raises(ValueError):
        teodorescu(1.0, 1, d, PROBE, near_rule="bogus")


def test_teodorescu_right_inverse_converges():
    # T_a applied to (D + a) f should reproduce f up to the boundary term;
    # for f vanishing... instead verify through the full identity below.
    # Here: refinement shrinks the defect of T(Df) + Kf - f.
    f = abc_beltrami(-1.0)
    res = []
    for level in (2, 3):
        mesh = build_sphere_mesh(1.0, level)
        quad = build_ball_quadrature(1.0, level)
        res.append(borel_pompeiu_residual(f, 1.0, 1, mesh, quad, PROBE))
    assert res[1] < res[0]
    assert res[1] < 2e-2


def test_borel_pompeiu_both_signs():
    f = polynomial_field(np.random.default_rng(22).standard_normal((4, 10)))
    mesh = build_sphere_mesh(1.0, 3)
    quad = build_ball_quadrature(1.0, 3)
    for sign in (1, -1):
        assert borel_pompeiu_residual(f, 1.0, sign, mesh, quad, PROBE) < 2e-2


def test_boundary_distance():
    assert boundary_distance(MESH2, np.zeros(3)) == pytest.approx(1.0, rel=2.5e-2)
    surface_node = MESH2.flat_points[0]
    assert boundary_distance(MESH2, surface_node) == 0.0


def test_cauchy_near_singularity_guard():
    d = BoundaryDensity.from_function(MESH2, constant_field(q.ONE).value)
    too_close = 0.999 * MESH2.flat_points[0]
    with pytest.raises(NearSingularityError) as exc:
        cauchy_boundary(1.0, 1, d, too_close)
    assert exc.value.distance < exc.value.min_distance
    # far enough inside is fine
    assert q.is_finite(cauchy_boundary(1.0, 1, d, PROBE))
    # the guard scale can be relaxed explicitly
    assert q.is_finite(
        cauchy_boundary(1.0, 1, d, 0.9 * MESH2.flat_points[0], min_distance_factor=0.05)
    )
    # a too-close target in a later block of a batch is caught as well
    batch = np.vstack([np.tile(PROBE, (BOUNDARY_CHUNK, 1)), too_close])
    with pytest.raises(NearSingularityError):
        cauchy_boundary(1.0, 1, d, batch)


def test_cauchy_many_matches_single():
    # more targets than one block holds, so the batch spans a block boundary
    d = BoundaryDensity.from_function(MESH2, abc_beltrami(-0.8).value)
    rng = np.random.default_rng(23)
    xs = rng.uniform(-0.3, 0.3, (BOUNDARY_CHUNK + 5, 3))
    many = cauchy_boundary(0.8, 1, d, xs)
    assert many.shape == (len(xs), 4)
    single = np.array([cauchy_boundary(0.8, 1, d, x) for x in xs])
    assert single.shape == (len(xs), 4)
    assert np.allclose(many, single, rtol=0.0, atol=1e-14)
    # reference: the triple product -w * Ups * (n * f) summed node by node
    nf = q.qmul(q.vector(MESH2.flat_normals), d.flat_values)
    terms = q.qmul(upsilon(0.8, 1, xs[:, None, :] - MESH2.flat_points), nf)
    reference = -np.einsum("n,mnk->mk", MESH2.flat_weights.astype(complex), terms)
    assert np.allclose(many, reference, rtol=0.0, atol=1e-12 * np.abs(reference).max())
    with pytest.raises(ValueError):
        cauchy_boundary(0.8, 1, d, xs[:, :2])


def test_cauchy_reproduces_monogenic_field():
    # K_a f = f inside, for f monogenic for D + a (Beltrami with lam = -a)
    alpha = 1.0
    f = abc_beltrami(-alpha)
    mesh = build_sphere_mesh(1.0, 3)
    d = BoundaryDensity.from_function(mesh, f.value)
    val = cauchy_boundary(alpha, 1, d, PROBE)
    exact = f.value(PROBE)
    assert q.norm(val - exact) / q.norm(exact) < 2e-2


def test_cauchy_of_zero_density_is_zero():
    d = BoundaryDensity.from_triangle_values(
        MESH2, np.zeros((MESH2.n_triangles, 4), dtype=complex)
    )
    assert q.norm(cauchy_boundary(1.0, 1, d, PROBE)) == 0.0


def test_scalar_field_identity():
    mesh = build_sphere_mesh(1.0, 3)
    quad = build_ball_quadrature(1.0, 3)
    assert borel_pompeiu_residual(scalar_monomial(1), 1.0, 1, mesh, quad, PROBE) < 2e-2
