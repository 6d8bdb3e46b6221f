"""Discretized volume and boundary operators and the reproduction identity."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quatem import quaternions as q
from quatem.errors import NearSingularityError
from quatem.fields import (
    abc_beltrami,
    constant_field,
    identity_vector_field,
    polynomial_field,
    scalar_monomial,
)
from quatem.geometry import (
    _ICO_FACES,
    _ICO_VERTICES,
    VolumeQuadrature,
    build_ball_quadrature,
    build_sphere_mesh,
    mesh_from_arrays,
)
from quatem.kernels import grad_theta, theta, upsilon
from quatem.operators import (
    BLOCK_PAIRS,
    CUTOFF_FACTOR,
    BoundaryDensity,
    VolumeDensity,
    borel_pompeiu_residual,
    cauchy_boundary,
    teodorescu,
)

MESH2 = build_sphere_mesh(1.0, 2)
QUAD2 = build_ball_quadrature(1.0, 2)
PROBE = np.array([0.3, 0.1, -0.2])
ELLIPSOID2 = mesh_from_arrays(MESH2.vertices * [1.0, 0.7, 0.4], MESH2.triangles)
# at least 2 spacings inside both MESH2 and ELLIPSOID2
INNER_PROBES = np.array([[0.0, 0.0, 0.0], [0.2, 0.1, 0.0], [-0.3, 0.05, 0.02],
                         [0.1, -0.15, 0.03]])


def _const_volume(value):
    f = constant_field(value)
    return VolumeDensity.from_function(QUAD2, f.value)


def _block(n_nodes):
    """Targets per block of a kernel sum over n_nodes nodes."""
    return max(1, BLOCK_PAIRS // n_nodes)


def _smoothstep(t):
    t = np.clip(t, 0.0, 1.0)
    return t**3 * (t * (6.0 * t - 15.0) + 10.0)


def _cutoff_reference(density, x, kernel):
    """The cutoff rule for one target, summed node by node with the given
    kernel: the far nodes weighted by the smooth cutoff, plus the polar
    near sum (8 Gauss-Legendre radii times the 80 level-1 icosphere cells)."""
    quad = density.quadrature
    rho = CUTOFF_FACTOR * np.mean(quad.weights ** (1.0 / 3.0))
    diff = x - quad.points
    w = quad.weights * _smoothstep(np.linalg.norm(diff, axis=1) / rho - 1.0)
    far = w > 0.0
    out = np.einsum("n,nk->k", w[far].astype(complex),
                    q.qmul(kernel(diff[far]), density.values[far]))
    t, gw = np.polynomial.legendre.leggauss(8)
    rr = (t + 1.0) * rho
    sphere = build_sphere_mesh(1.0, 1)
    dirs = sphere.centroids / np.linalg.norm(sphere.centroids, axis=1)[:, None]
    ang_w = sphere.areas * (4.0 * np.pi / sphere.area)
    offsets = rr[:, None, None] * dirs
    y = x + offsets
    near_w = (gw * rho * rr**2)[:, None] * ang_w * (1.0 - _smoothstep(rr[:, None] / rho - 1.0))
    near_w = near_w * (np.linalg.norm(y, axis=-1) <= quad.radius)
    return out + np.einsum("nd,ndk->k", near_w.astype(complex),
                           q.qmul(kernel(-offsets), density.evaluator(y)))


def test_density_validation():
    with pytest.raises(ValueError):
        BoundaryDensity(MESH2, np.zeros((3, 1, 4), dtype=complex))
    with pytest.raises(ValueError):
        BoundaryDensity(MESH2, np.full((MESH2.n_triangles, 4), np.nan))

    def nan_at_first_point(pts):
        out = np.ones(pts.shape[:-1] + (4,), dtype=complex)
        out[0, 0] = np.nan
        return out

    with pytest.raises(ValueError):
        VolumeDensity.from_function(QUAD2, nan_at_first_point)


def test_panel_constant_density():
    vals = np.zeros((MESH2.n_triangles, 4))
    vals[:, 0] = 2.0
    d = BoundaryDensity(MESH2, vals)
    assert d.values.shape == (MESH2.n_triangles, 4)
    assert d.values.dtype == complex
    assert np.all(d.values[:, 0] == 2.0)


def test_volume_density_sampling():
    f = identity_vector_field()
    d = VolumeDensity.from_function(QUAD2, f.value)
    assert np.array_equal(d.values, f.value(QUAD2.points))
    pts = np.array([[[0.11, 0.22, 0.33], [-0.4, 0.1, 0.2]]])
    assert d.sample(pts).shape == (1, 2, 4)
    assert np.array_equal(d.sample(pts), f.value(pts))
    with pytest.raises(TypeError):
        VolumeDensity(QUAD2, d.values)  # the evaluator is required


def test_teodorescu_linearity():
    rng = np.random.default_rng(21)
    f1 = polynomial_field(rng.standard_normal((4, 10)) + 1j * rng.standard_normal((4, 10)))
    f2 = polynomial_field(rng.standard_normal((4, 10)))
    d1 = VolumeDensity.from_function(QUAD2, f1.value)
    d2 = VolumeDensity.from_function(QUAD2, f2.value)
    d12 = VolumeDensity.from_function(
        QUAD2, lambda p: 2.0 * f1.value(p) + (1 - 1j) * f2.value(p))
    xs = np.array([PROBE, QUAD2.points[10], [-0.5, 0.4, 0.6]])
    for alpha, sign in ((1.0, 1), (0.7 + 0.2j, -1)):
        t1 = teodorescu(alpha, sign, d1, xs)
        t2 = teodorescu(alpha, sign, d2, xs)
        t12 = teodorescu(alpha, sign, d12, xs)
        assert np.allclose(t12, 2.0 * t1 + (1 - 1j) * t2, atol=1e-10)


def test_teodorescu_sign_coherence():
    # both sign conventions share the same Helmholtz kernel; only the
    # alpha*theta scalar term flips.  Rebuild each kernel from the raw
    # closed forms and sum the cutoff rule with it by hand.
    d = _const_volume(q.quat(1, 0.5, -0.25, 2j))
    alpha = 1.0 + 0.2j

    def manual(s):
        def kernel(diff):
            out = q.scalar(s * alpha * theta(alpha, diff))
            out[..., 1:] = -grad_theta(alpha, diff)
            return out
        return kernel

    for s in (1, -1):
        built_in = teodorescu(alpha, s, d, PROBE)
        assert np.allclose(built_in, _cutoff_reference(d, PROBE, manual(s)), atol=1e-13)
    # the two signs differ exactly by twice the scalar-kernel term
    plus = teodorescu(alpha, 1, d, PROBE)
    minus = teodorescu(alpha, -1, d, PROBE)
    twice_scalar = _cutoff_reference(
        d, PROBE, lambda diff: q.scalar(2.0 * alpha * theta(alpha, diff)))
    assert np.allclose(plus - minus, twice_scalar, atol=1e-13)


def test_teodorescu_singular_point():
    # a target on a node is finite: the cutoff gives that node zero weight
    d = _const_volume(q.ONE)
    assert q.is_finite(teodorescu(1.0, 1, d, QUAD2.points[10]))


def test_teodorescu_many_matches_single():
    # more targets than one block holds, one of them on a node; real and
    # complex alpha, both signs
    rng = np.random.default_rng(24)
    xs = rng.uniform(-0.5, 0.5, (_block(len(QUAD2.points)) + 3, 3))
    xs[2] = QUAD2.points[10]
    f = polynomial_field(rng.standard_normal((4, 10)) + 1j * rng.standard_normal((4, 10)))
    d = VolumeDensity.from_function(QUAD2, f.value)
    for alpha, sign in ((1.0, 1), (0.8 + 0.3j, -1), (0.8 + 0.3j, 1)):
        many = teodorescu(alpha, sign, d, xs)
        assert many.shape == (len(xs), 4)
        single = np.array([teodorescu(alpha, sign, d, x) for x in xs])
        assert single.shape == (len(xs), 4)
        assert np.allclose(many, single, rtol=0.0, atol=1e-14 * np.abs(single).max())
        reference = np.array([_cutoff_reference(d, x, lambda diff: upsilon(alpha, sign, diff))
                              for x in xs])
        assert np.allclose(many, reference, rtol=0.0, atol=1e-12 * np.abs(reference).max())
    with pytest.raises(ValueError):
        teodorescu(0.8, 1, d, xs[:, :2])
    with pytest.raises(ValueError):
        teodorescu(0.8, 0, d, xs)


def _axis_rotation(axis, angle):
    """Rotation by angle about axis (Rodrigues)."""
    k = np.asarray(axis, dtype=float) / np.linalg.norm(axis)
    cross = np.array([[0.0, -k[2], k[1]], [k[2], 0.0, -k[0]], [-k[1], k[0], 0.0]])
    return np.eye(3) + np.sin(angle) * cross + (1.0 - np.cos(angle)) * cross @ cross


# Two generators of the icosahedral rotation group: 2*pi/5 about vertex 0 and
# 2*pi/3 about the centroid of face (0, 11, 5).  They map every icosphere, so
# the ball rules and the fixed directions of teodorescu's near rule, onto
# themselves.  A generic rotation moves the near rule against the density and
# agrees only to quadrature error (1e-9 to 9e-9 on this Beltrami field at
# level 2; a polynomial density of degree <= 2 would not show it, the near
# rule integrates it exactly in every orientation).
_ICO_ROTATIONS = (_axis_rotation(_ICO_VERTICES[0], 2.0 * np.pi / 5.0),
                  _axis_rotation(_ICO_VERTICES[_ICO_FACES[0]].mean(axis=0), 2.0 * np.pi / 3.0))
_ROTATION_FIELD = abc_beltrami(-1.0)


def _rotate_vector_part(rot, values):
    out = np.array(values, dtype=complex)
    out[..., 1:] = values[..., 1:] @ rot.T
    return out


@pytest.mark.parametrize("alpha,sign", [(1.0, 1), (0.7 + 0.3j, -1)])
@settings(max_examples=20, deadline=None)
@given(word=st.lists(st.sampled_from([0, 1]), min_size=1, max_size=8))
def test_teodorescu_equivariant_under_icosahedral_rotations(alpha, sign, word):
    rot = np.eye(3)
    for letter in word:
        rot = _ICO_ROTATIONS[letter] @ rot
    xs = np.array([PROBE, [-0.25, 0.3, 0.1]])
    density = VolumeDensity.from_function(QUAD2, _ROTATION_FIELD.value)
    rotated_quad = VolumeQuadrature(QUAD2.points @ rot.T, QUAD2.weights, QUAD2.radius)
    rotated = VolumeDensity.from_function(
        rotated_quad, lambda y: _rotate_vector_part(rot, _ROTATION_FIELD.value(y @ rot)))
    expected = _rotate_vector_part(rot, teodorescu(alpha, sign, density, xs))
    got = teodorescu(alpha, sign, rotated, xs @ rot.T)
    assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()


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


def test_borel_pompeiu_batch_matches_pointwise():
    f = abc_beltrami(-1.0)
    xs = np.array([PROBE, [-0.25, 0.3, 0.1], [0.2, -0.2, 0.3]])
    batch = borel_pompeiu_residual(f, 1.0, -1, MESH2, QUAD2, xs)
    assert batch.shape == (len(xs),)
    single = [borel_pompeiu_residual(f, 1.0, -1, MESH2, QUAD2, x) for x in xs]
    assert all(isinstance(v, float) for v in single)
    assert np.allclose(batch, single, rtol=1e-12, atol=0.0)


def test_cauchy_near_singularity_guard():
    d = BoundaryDensity.from_function(MESH2, constant_field(q.ONE).value)
    too_close = 0.999 * MESH2.centroids[0]
    with pytest.raises(NearSingularityError) as exc:
        cauchy_boundary(1.0, 1, d, too_close)
    assert exc.value.distance < exc.value.min_distance
    # far enough inside is fine
    assert q.is_finite(cauchy_boundary(1.0, 1, d, PROBE))
    # a too-close target in a later block of a batch is caught as well
    batch = np.vstack([np.tile(PROBE, (_block(MESH2.n_triangles), 1)), too_close])
    with pytest.raises(NearSingularityError):
        cauchy_boundary(1.0, 1, d, batch)


def test_cauchy_many_matches_single():
    # more targets than one block holds, so the batch spans a block boundary;
    # real and complex alpha, both signs, two meshes
    rng = np.random.default_rng(23)
    xs = rng.uniform(-0.3, 0.3, (_block(MESH2.n_triangles) + 5, 3))

    def random_density(mesh):
        shape = (mesh.n_triangles, 4)
        return BoundaryDensity(mesh, rng.standard_normal(shape)
                               + 1j * rng.standard_normal(shape))

    cases = [
        (0.8, 1, BoundaryDensity.from_function(MESH2, abc_beltrami(-0.8).value)),
        (0.8 + 0.3j, -1, random_density(MESH2)),
        (0.8 + 0.3j, 1, random_density(build_sphere_mesh(2.0, 2))),
    ]
    for alpha, sign, d in cases:
        mesh = d.mesh
        many = cauchy_boundary(alpha, sign, d, xs)
        assert many.shape == (len(xs), 4)
        single = np.array([cauchy_boundary(alpha, sign, d, x) for x in xs])
        assert single.shape == (len(xs), 4)
        assert np.allclose(many, single, rtol=0.0, atol=1e-14)
        # reference: the triple product -w * Ups * (n * f) summed node by node
        nf = q.qmul(q.vector(mesh.normals), d.values)
        terms = q.qmul(upsilon(alpha, sign, xs[:, None, :] - mesh.centroids), nf)
        reference = -np.einsum("n,mnk->mk", mesh.areas.astype(complex), terms)
        assert np.allclose(many, reference, rtol=0.0, atol=1e-12 * np.abs(reference).max())
    with pytest.raises(ValueError):
        cauchy_boundary(0.8, 1, d, xs[:, :2])
    with pytest.raises(ValueError):
        cauchy_boundary(0.8, 2, d, xs)


_COEFF = st.builds(complex, st.floats(-10.0, 10.0), st.floats(-10.0, 10.0))


@pytest.mark.parametrize("mesh", [MESH2, ELLIPSOID2], ids=["sphere", "ellipsoid"])
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), a=_COEFF, b=_COEFF,
       alpha=st.sampled_from([0.8, 0.8 + 0.3j]), sign=st.sampled_from([1, -1]))
def test_cauchy_linear_in_density(mesh, seed, a, b, alpha, sign):
    rng = np.random.default_rng(seed)
    shape = (mesh.n_triangles, 4)
    f1, f2 = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape) for _ in "12")
    k1, k2, k12 = (cauchy_boundary(alpha, sign, BoundaryDensity(mesh, f), INNER_PROBES)
                   for f in (f1, f2, a * f1 + b * f2))
    scale = abs(a) * np.abs(k1).max() + abs(b) * np.abs(k2).max()
    # plus 1e-300: coefficients near the subnormal range round absolutely
    assert np.abs(k12 - (a * k1 + b * k2)).max() <= 1e-12 * scale + 1e-300


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
    d = BoundaryDensity(MESH2, np.zeros((MESH2.n_triangles, 4)))
    assert q.norm(cauchy_boundary(1.0, 1, d, PROBE)) == 0.0


def test_scalar_field_identity():
    mesh = build_sphere_mesh(1.0, 3)
    quad = build_ball_quadrature(1.0, 3)
    assert borel_pompeiu_residual(scalar_monomial(1), 1.0, 1, mesh, quad, PROBE) < 2e-2
