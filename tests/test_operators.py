"""Discretized volume and boundary operators and the reproduction identity."""

import dataclasses
import sys
import threading
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quatem import operators
from quatem import quaternions as q
from quatem.cli import _BP_FIELDS, _BP_PROBES
from quatem.errors import NearSingularityError
from quatem.fields import (
    abc_beltrami,
    identity_vector_field,
    scalar_monomial,
)
from quatem.geometry import (
    _ICO_FACES,
    _ICO_VERTICES,
    POLAR_ORDERS,
    SurfaceRule,
    build_sphere_mesh,
    mesh_from_arrays,
    polar_ball_rule,
    sphere_rule,
)
from quatem.kernels import theta, upsilon
from quatem.operators import (
    NODE_CHUNK,
    TILE_ROWS,
    BoundaryDensity,
    VolumeDensity,
    _vector_times,
    borel_pompeiu_residual,
    cauchy_boundary,
    teodorescu,
)

from oracles import (
    ELLIPSOID_AXES,
    constant_field,
    grad_theta,
    polynomial_field,
    proper_rotation,
    quat,
    scalar,
)

MESH2 = build_sphere_mesh(1.0, 2)
MESH3 = build_sphere_mesh(1.0, 3)
RULE2 = sphere_rule(1.0, 2)
BALL = polar_ball_rule(1.0)
PROBE = np.array([0.3, 0.1, -0.2])
ELLIPSOID2 = mesh_from_arrays(MESH2.vertices * ELLIPSOID_AXES, MESH2.triangles)
# at least 2 spacings inside both MESH2 and ELLIPSOID2
INNER_PROBES = np.array([[0.0, 0.0, 0.0], [0.2, 0.1, 0.0], [-0.3, 0.05, 0.02],
                         [0.1, -0.15, 0.03]])


def _volume(*fields, rule=BALL):
    """The volume density of the fields' values, one term per field."""
    return VolumeDensity(rule, lambda y: np.stack([f.value(y) for f in fields]))


def _const_volume(value):
    return _volume(constant_field(value))


def _polar_reference(density, x, kernel):
    """The polar rule for one target, summed node by node with the given
    kernel: sum_j w_j kernel(x - y_j) f(y_j) over the rule's nodes y_j
    centred on x, for the density's first term."""
    y, w = density.quadrature.nodes(x[None])
    return np.einsum("n,nk->k", w[0].astype(complex),
                     q.qmul(kernel(x - y[0]), density.evaluator(y[0])[0]))


def test_density_validation():
    with pytest.raises(ValueError):
        BoundaryDensity(MESH2.rule, np.zeros((3, 1, 4), dtype=complex))
    with pytest.raises(ValueError):
        BoundaryDensity(MESH2.rule, np.full((1, MESH2.n_triangles, 4), np.nan))

    def nan_at_first_point(pts):
        out = np.ones((1,) + pts.shape[:-1] + (4,), dtype=complex)
        out[0, 0, 0] = np.nan
        return out

    with pytest.raises(ValueError, match="volume density contains non-finite values"):
        teodorescu((1.0,), (1,), VolumeDensity(BALL, nan_at_first_point), PROBE[None])


def test_panel_constant_density():
    vals = np.zeros((1, MESH2.n_triangles, 4))
    vals[..., 0] = 2.0
    d = BoundaryDensity(MESH2.rule, vals)
    assert d.values.shape == (1, MESH2.n_triangles, 4)
    assert d.values.dtype == complex
    assert np.all(d.values[..., 0] == 2.0)


def test_volume_density_sampling():
    f = identity_vector_field()
    d = _volume(f)
    pts = np.array([[[0.11, 0.22, 0.33], [-0.4, 0.1, 0.2]]])
    assert d.sample(pts).shape == (1, 1, 2, 4)
    assert np.array_equal(d.sample(pts)[0], f.value(pts))
    stacked = _volume(f, f, f)
    assert stacked.sample(pts).shape == (3, 1, 2, 4)
    with pytest.raises(TypeError):
        VolumeDensity(BALL, f.value, f.value(pts))  # the values come from the evaluator
    for wrong in (lambda y: f.value(y)[..., :3], lambda y: f.value(y)[0],
                  lambda y: np.stack([[f.value(y)]])):
        with pytest.raises(ValueError, match="values must have shape"):
            VolumeDensity(BALL, wrong).sample(pts)


def test_teodorescu_linearity():
    rng = np.random.default_rng(21)
    f1 = polynomial_field(rng.standard_normal((4, 10)) + 1j * rng.standard_normal((4, 10)))
    f2 = polynomial_field(rng.standard_normal((4, 10)))
    d1, d2 = _volume(f1), _volume(f2)
    d12 = VolumeDensity(
        BALL, lambda p: (2.0 * f1.value(p) + (1 - 1j) * f2.value(p))[None])
    xs = np.array([PROBE, [0.0, 0.0, 0.0], [-0.5, 0.4, 0.6]])
    for alpha, sign in ((1.0, 1), (0.7 + 0.2j, -1)):
        t1 = teodorescu((alpha,), (sign,), d1, xs)
        t2 = teodorescu((alpha,), (sign,), d2, xs)
        t12 = teodorescu((alpha,), (sign,), d12, xs)
        assert np.allclose(t12, 2.0 * t1 + (1 - 1j) * t2, atol=1e-10)


def test_teodorescu_sign_coherence():
    # both sign conventions share the same Helmholtz kernel; only the
    # alpha*theta scalar term flips.  Rebuild each kernel from the raw
    # closed forms and sum the polar rule with it by hand.
    d = _const_volume(quat(1, 0.5, -0.25, 2j))
    alpha = 1.0 + 0.2j

    def manual(s):
        def kernel(diff):
            out = scalar(s * alpha * theta(alpha, diff))
            out[..., 1:] = -grad_theta(alpha, diff)
            return out
        return kernel

    for s in (1, -1):
        built_in = teodorescu((alpha,), (s,), d, PROBE[None])[0, 0]
        assert np.allclose(built_in, _polar_reference(d, PROBE, manual(s)), atol=1e-13)
    # the two signs differ exactly by twice the scalar-kernel term
    plus = teodorescu((alpha,), (1,), d, PROBE[None])[0, 0]
    minus = teodorescu((alpha,), (-1,), d, PROBE[None])[0, 0]
    twice_scalar = _polar_reference(
        d, PROBE, lambda diff: scalar(2.0 * alpha * theta(alpha, diff)))
    assert np.allclose(plus - minus, twice_scalar, atol=1e-13)


def test_teodorescu_singular_point():
    # the kernel is singular at the target itself, the centre of the polar
    # rule, whose volume element r**2 dr cancels the 1/r**2: at alpha = 0 the
    # volume potential of the constant 1 is -x/3 (the field of a uniformly
    # charged ball)
    d = _const_volume(q.ONE)
    xs = np.array([[0.0, 0.0, 0.0], PROBE])
    got = teodorescu((0.0,), (1,), d, xs)[0]
    assert np.abs(got - q.vector(-xs / 3.0)).max() <= 1e-13
    assert q.is_finite(teodorescu((1.0,), (1,), d, xs))


def test_teodorescu_many_matches_single():
    # more targets than one block holds, one of them the centre; real and
    # complex alpha, both signs
    rng = np.random.default_rng(24)
    xs = rng.uniform(-0.5, 0.5, (TILE_ROWS + 3, 3))
    xs[2] = 0.0
    f = polynomial_field(rng.standard_normal((4, 10)) + 1j * rng.standard_normal((4, 10)))
    d = _volume(f)
    for alpha, sign in ((1.0, 1), (0.8 + 0.3j, -1), (0.8 + 0.3j, 1)):
        many = teodorescu((alpha,), (sign,), d, xs)[0]
        assert many.shape == (len(xs), 4)
        single = np.array([teodorescu((alpha,), (sign,), d, x[None])[0, 0] for x in xs])
        assert single.shape == (len(xs), 4)
        assert np.allclose(many, single, rtol=0.0, atol=1e-14 * np.abs(single).max())
        reference = np.array([_polar_reference(d, x, lambda diff: upsilon(alpha, sign, diff))
                              for x in xs])
        assert np.allclose(many, reference, rtol=0.0, atol=1e-12 * np.abs(reference).max())
    with pytest.raises(ValueError):
        teodorescu((0.8,), (1,), d, xs[:, :2])
    with pytest.raises(ValueError):
        teodorescu((0.8,), (0,), d, xs)


@pytest.mark.parametrize("alphas, signs", [
    ((0.8, 4.0 / 3.0), (1, -1)),                  # the two chiral modes
    ((0.8 + 0.3j, 0.8 - 0.3j, 1.0), (1, -1, 1)),  # complex and real
    ((1.0, 1.0, 1.0), (1, 1, 1)),                 # verify-bp's three fields
], ids=["modes", "mixed", "one alpha"])
def test_teodorescu_stacked_matches_single(alphas, signs):
    # one call for K (alpha, sign, density) terms, on more targets than one
    # block holds, one of them the centre, against K single calls bit for bit
    rng = np.random.default_rng(28)
    xs = rng.uniform(-0.5, 0.5, (TILE_ROWS + 3, 3))
    xs[2] = 0.0
    fields = [polynomial_field(rng.standard_normal((4, 10)) + 1j * rng.standard_normal((4, 10)))
              for _ in alphas]
    stacked = _volume(*fields)
    got = teodorescu(alphas, signs, stacked, xs)
    assert got.shape == (len(alphas), len(xs), 4)
    assert teodorescu(alphas, signs, stacked, xs[:1]).shape == (len(alphas), 1, 4)
    for k, (alpha, sign, f) in enumerate(zip(alphas, signs, fields)):
        single = teodorescu((alpha,), (sign,), _volume(f), xs)
        assert got[k].tobytes() == single.tobytes()
    with pytest.raises(ValueError):
        teodorescu(alphas[:-1], signs[:-1], stacked, xs)


def test_teodorescu_samples_once_for_all_targets_and_terms():
    calls = []

    def evaluator(y):
        calls.append(y.shape)
        return np.stack([f.value(y) for f in (abc_beltrami(0.5), identity_vector_field())])

    xs = np.array([PROBE, [0.0, 0.0, 0.0], [-0.5, 0.4, 0.6]])
    got = teodorescu((0.8, 1.2), (1, -1), VolumeDensity(BALL, evaluator), xs)
    assert got.shape == (2, 3, 4)
    assert calls == [(3, np.prod(POLAR_ORDERS), 3)]


def test_teodorescu_memory_does_not_grow_with_the_targets():
    # 400 targets and 2 terms go in blocks of TILE_ROWS targets; all of them
    # at once took 0.65 MB per target, 259 MB
    xs = np.random.default_rng(38).uniform(-0.5, 0.5, (400, 3))
    fields = (abc_beltrami(0.5), identity_vector_field())
    density = VolumeDensity(BALL, lambda y: np.stack([f.value(y) for f in fields]))
    tracemalloc.start()
    try:
        got = teodorescu((0.8, 1.2), (1, -1), density, xs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.shape == (2, 400, 4)
    assert peak <= 30e6, "peak %.1f MB" % (peak / 1e6)


def test_teodorescu_rows_do_not_depend_on_the_other_targets():
    # 40 targets are three blocks; each row is its target's sum alone, bit
    # for bit
    xs = np.random.default_rng(39).uniform(-0.5, 0.5, (40, 3))
    fields = (abc_beltrami(0.5), abc_beltrami(-1.0, 0.2, 0.5, 0.9))
    density = VolumeDensity(BALL, lambda y: np.stack([f.value(y) for f in fields]))
    got = teodorescu((0.8, 0.8 + 0.3j), (1, -1), density, xs)
    for m, x in enumerate(xs):
        assert got[:, m].tobytes() == teodorescu((0.8, 0.8 + 0.3j), (1, -1), density,
                                                 x[None]).tobytes()


def test_operators_of_no_targets_are_empty():
    # zero targets give an empty result of K terms, one or three, and no error
    x = np.zeros((0, 3))
    fields = tuple(make_field(1.0) for make_field in _BP_FIELDS.values())
    trace = BoundaryDensity(RULE2, np.stack([f.value(RULE2.points) for f in fields]))
    assert teodorescu((1.0,), (1,), _volume(fields[0]), x).shape == (1, 0, 4)
    assert teodorescu((1.0,) * 3, (1,) * 3, _volume(*fields), x).shape == (3, 0, 4)
    assert cauchy_boundary((1.0,) * 3, (1,) * 3, trace, x).shape == (3, 0, 4)
    assert borel_pompeiu_residual(fields[:1], 1.0, 1, RULE2, 1.0, x).shape == (1, 0)
    assert borel_pompeiu_residual(fields, 1.0, 1, RULE2, 1.0, x).shape == (3, 0)


_FIELD = abc_beltrami(0.5)
_TRACE = BoundaryDensity(RULE2, _FIELD.value(RULE2.points)[None])
_TARGETS = r"targets must have shape \(M, 3\)"
_ONE_TERM = r"alphas and signs \(\+1 or -1\) must have shape \(1,\)"


@pytest.mark.parametrize("call, message", [
    (lambda: teodorescu((1.0,), (1,), _volume(_FIELD), PROBE), _TARGETS),
    (lambda: cauchy_boundary((1.0,), (1,), _TRACE, PROBE), _TARGETS),
    (lambda: borel_pompeiu_residual((_FIELD,), 1.0, 1, RULE2, 1.0, PROBE), _TARGETS),
    (lambda: teodorescu(1.0, 1, _volume(_FIELD), PROBE[None]), _ONE_TERM),
    (lambda: cauchy_boundary(1.0, 1, _TRACE, PROBE[None]), _ONE_TERM),
    (lambda: BoundaryDensity(RULE2, _TRACE.values[0]),
     r"values must have shape \(K, %d, 4\)" % len(RULE2.points)),
    (lambda: teodorescu((1.0,), (1,), VolumeDensity(BALL, _FIELD.value), PROBE[None]),
     r"values must have shape \(K,\) \+ \(1, %d, 4\)" % np.prod(POLAR_ORDERS)),
    (lambda: borel_pompeiu_residual(_FIELD, 1.0, 1, RULE2, 1.0, PROBE[None]),
     r"f must be a tuple of K fields, shape \(K,\)"),
], ids=["teodorescu target (3,)", "cauchy target (3,)", "residual target (3,)",
        "teodorescu scalar alpha", "cauchy scalar alpha", "density (N, 4)",
        "evaluator without K", "residual of one field"])
def test_operators_refuse_every_form_but_k_terms_at_m_targets(call, message):
    # one calling convention: K alphas and signs, densities (K, N, 4) or an
    # evaluator of (K, ..., 4), a tuple of K fields, targets (M, 3); any other
    # form is refused with one ValueError naming the shape expected
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize("target", [[0.0, 1.0, 0.0], [0.6, 0.6, 0.6], [2.0, 0.0, 0.0]])
def test_teodorescu_refuses_a_target_not_inside_the_ball(target):
    # on the sphere rho vanishes in half the directions, outside it is
    # negative: refused with the target and the radius named, before any
    # density value is sampled
    def never(y):
        raise AssertionError("the density was sampled")

    with pytest.raises(ValueError, match=r"volume target \[%s, %s, %s\] is not inside the "
                                         r"ball of radius 1$" % tuple(map(float, target))):
        teodorescu((1.0,), (1,), VolumeDensity(BALL, never), np.array([PROBE, target]))


# alphas of each kind: real, negative and complex
_ALPHA = st.one_of(st.floats(0.2, 2.0), st.floats(-2.0, -0.2),
                   st.builds(complex, st.floats(-2.0, 2.0), st.floats(0.05, 1.0)))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), alpha=_ALPHA, sign=st.sampled_from([1, -1]),
       radius=st.floats(0.0, 0.9), beltrami=st.booleans())
def test_polar_volume_term_agrees_with_the_rule_of_twice_the_order(seed, alpha, sign, radius,
                                                                   beltrami):
    # against the 16 x 16 x 32 rule, relative to the field scale, the largest
    # density value at its nodes: the 8 x 8 x 16 rule measured at most 1.2e-7
    # within radius 0.5 and 5.7e-5 within 0.9 (1500 random quadratic and
    # Beltrami densities, |alpha| <= 2, the extremes included), where rho(s)
    # varies fast across the directions; verify-bp's probes lie within 0.47
    rng = np.random.default_rng(seed)
    if beltrami:
        f = abc_beltrami(rng.uniform(-2.0, 2.0), *rng.uniform(0.2, 1.0, 3))
    else:
        f = polynomial_field(rng.standard_normal((4, 10)) + 1j * rng.standard_normal((4, 10)))
    direction = rng.standard_normal(3)
    x = radius * direction[None] / np.linalg.norm(direction)
    finer = polar_ball_rule(1.0, tuple(2 * n for n in POLAR_ORDERS))
    got = teodorescu((alpha,), (sign,), _volume(f), x)
    reference = teodorescu((alpha,), (sign,), _volume(f, rule=finer), x)
    scale = np.abs(f.value(finer.nodes(x)[0])).max()
    bound = 1e-6 if radius <= 0.5 else 2e-4
    assert np.abs(got - reference).max() <= bound * scale


def _axis_rotation(axis, angle):
    """Rotation by angle about axis (Rodrigues)."""
    k = np.asarray(axis, dtype=float) / np.linalg.norm(axis)
    cross = np.array([[0.0, -k[2], k[1]], [k[2], 0.0, -k[0]], [-k[1], k[0], 0.0]])
    return np.eye(3) + np.sin(angle) * cross + (1.0 - np.cos(angle)) * cross @ cross


# Two generators of the icosahedral rotation group: 2*pi/5 about vertex 0 and
# 2*pi/3 about the centroid of face (0, 11, 5).  The polar rule's directions
# are rotated with the density and the targets, so the rotated sum is the
# same sum to roundoff; a rule left in place would agree only to quadrature
# error.
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
    density = _volume(_ROTATION_FIELD)
    rotated_rule = dataclasses.replace(BALL, points=BALL.points @ rot.T)
    rotated = VolumeDensity(
        rotated_rule, lambda y: _rotate_vector_part(rot, _ROTATION_FIELD.value(y @ rot))[None])
    expected = _rotate_vector_part(rot, teodorescu((alpha,), (sign,), density, xs))
    got = teodorescu((alpha,), (sign,), rotated, xs @ rot.T)
    assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()


def test_teodorescu_right_inverse_converges():
    # T_a applied to (D + a) f should reproduce f up to the boundary term;
    # for f vanishing... instead verify through the full identity below.
    # Here: refinement shrinks the defect of T(Df) + Kf - f.
    f = abc_beltrami(-1.0)
    res = []
    for level in (2, 3):
        res.append(borel_pompeiu_residual((f,), 1.0, 1, sphere_rule(1.0, level), 1.0,
                                          PROBE[None]).item())
    assert res[1] < res[0]
    assert res[1] < 2e-2


def test_borel_pompeiu_both_signs():
    f = polynomial_field(np.random.default_rng(22).standard_normal((4, 10)))
    rule = sphere_rule(1.0, 3)
    for sign in (1, -1):
        assert borel_pompeiu_residual((f,), 1.0, sign, rule, 1.0, PROBE[None]).item() < 2e-2


def test_borel_pompeiu_batch_matches_pointwise():
    f = abc_beltrami(-1.0)
    xs = np.array([PROBE, [-0.25, 0.3, 0.1], [0.2, -0.2, 0.3]])
    batch = borel_pompeiu_residual((f,), 1.0, -1, RULE2, 1.0, xs)
    assert batch.shape == (1, len(xs))
    single = [borel_pompeiu_residual((f,), 1.0, -1, RULE2, 1.0, x[None]).item() for x in xs]
    assert np.allclose(batch[0], single, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("alpha", [1.0, 0.8 + 0.3j])
@pytest.mark.parametrize("radius", [0.5, 2.0])
def test_borel_pompeiu_on_a_scaled_ball_is_the_unit_ball_at_scaled_alpha(radius, alpha):
    # the kernel is radial up to its vector part, so the check of verify-bp's
    # fields on the radius-R ball at alpha (sphere nodes, ball and probes
    # scaled by R) is the unit-ball check at alpha * R
    rule = sphere_rule(radius, 2)
    for name, make_field in _BP_FIELDS.items():
        scaled = borel_pompeiu_residual((make_field(alpha),), alpha, 1, rule, radius,
                                        _BP_PROBES * radius)
        unit = borel_pompeiu_residual((make_field(alpha * radius),), alpha * radius, 1, RULE2,
                                      1.0, _BP_PROBES)
        assert np.all(np.abs(scaled - unit) <= 1e-12 * unit), name


def test_borel_pompeiu_residual_is_second_order(capsys):
    # on the inscribed polyhedron, the icosphere's centroid rule, the boundary
    # term misses the ball of the volume term by O(h**2): the worst residual
    # of verify-bp's fields at one probe of radius 0.5 on levels 2-4 reads
    # 4.7e-2, 1.2e-2, 3.0e-3, a fitted order of 2.0 in the mesh spacing.  The gate leaves a
    # margin of 0.2 below 2, so a first-order regression fails where the
    # decrease that verify-bp checks still holds.
    x = 0.5 * np.ones((1, 3)) / np.sqrt(3.0)
    fields = tuple(make_field(1.0) for make_field in _BP_FIELDS.values())
    spacing, worst = [], []
    for level in (2, 3, 4):
        mesh = build_sphere_mesh(1.0, level)
        spacing.append(mesh.spacing)
        worst.append(float(borel_pompeiu_residual(fields, 1.0, 1, mesh.rule, 1.0, x).max()))
    order = np.polyfit(np.log(spacing), np.log(worst), 1)[0]
    with capsys.disabled():
        print("\nBorel-Pompeiu residual on the polyhedron, levels 2-4: %s, fitted order "
              "%.3f (gate 1.8)" % (", ".join("%.2e" % w for w in worst), order), flush=True)
    assert order >= 1.8, "fitted order %.3f from residuals %s" % (order, worst)


def test_borel_pompeiu_fields_in_one_call_match_one_call_each():
    # verify-bp's three fields in one call are the three one-field calls bit
    # for bit, at a real and a complex alpha and both signs
    rule = sphere_rule(1.0, 3)
    for alpha, sign in ((1.0, 1), (0.8 + 0.3j, -1)):
        fields = tuple(make_field(alpha) for make_field in _BP_FIELDS.values())
        together = borel_pompeiu_residual(fields, alpha, sign, rule, 1.0, _BP_PROBES)
        assert together.shape == (len(fields), len(_BP_PROBES))
        for f, row in zip(fields, together):
            assert row.tobytes() == borel_pompeiu_residual(
                (f,), alpha, sign, rule, 1.0, _BP_PROBES).tobytes()
        at_one = borel_pompeiu_residual(fields, alpha, sign, rule, 1.0, _BP_PROBES[:1])
        assert at_one.shape == (len(fields), 1)
        assert np.allclose(at_one[:, 0], together[:, 0], rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("alpha", [1.0, -1.5, 0.8 + 0.3j])
def test_borel_pompeiu_without_the_vanishing_volume_term_is_bit_identical(alpha):
    # verify-bp's Beltrami field abc_beltrami(-alpha) has (D + alpha) f = 0,
    # so its volume pass is left out; summing its exact zeros instead, as a
    # rebuilt field without an eigenvalue and with D f = -alpha f does
    # (alpha f + D f is then zero), gives the same residuals bit for bit
    rule = sphere_rule(1.0, 3)
    fields = tuple(make_field(alpha) for make_field in _BP_FIELDS.values())
    beltrami = fields[-1]
    assert beltrami.d_alpha(alpha) is None
    zeros = dataclasses.replace(beltrami, eigenvalue=None,
                                d_value=lambda x: -alpha * beltrami.value(x))
    assert not zeros.d_alpha(alpha)(_BP_PROBES).any()
    summed = borel_pompeiu_residual(fields[:-1] + (zeros,), alpha, 1, rule, 1.0, _BP_PROBES)
    assert borel_pompeiu_residual(fields, alpha, 1, rule, 1.0, _BP_PROBES).tobytes() \
        == summed.tobytes()


def test_borel_pompeiu_with_every_volume_term_vanishing_has_no_volume_pass(monkeypatch):
    # the Cauchy integral formula alone: no volume density and no teodorescu call
    def refuse(*args, **kwargs):
        raise AssertionError("volume pass for a field with (D + alpha) f = 0")

    monkeypatch.setattr(operators, "VolumeDensity", refuse)
    monkeypatch.setattr(operators, "teodorescu", refuse)
    fields = (abc_beltrami(-1.0), abc_beltrami(-1.0, 0.2, 0.5, 0.9))
    res = borel_pompeiu_residual(fields, 1.0, 1, RULE2, 1.0, _BP_PROBES)
    assert res.shape == (2, len(_BP_PROBES))
    assert res.max() < 2e-2


def test_cauchy_near_singularity_guard():
    d = BoundaryDensity(MESH2.rule, constant_field(q.ONE).value(MESH2.centroids)[None])
    too_close = 0.999 * MESH2.centroids[:1]
    with pytest.raises(NearSingularityError) as exc:
        cauchy_boundary((1.0,), (1,), d, too_close)
    assert exc.value.distance < exc.value.min_distance
    # the distance reported is the one to the nearest node of the rule
    assert str(exc.value) == (
        "evaluation point is %.6e from the nearest boundary rule node, rule requires >= %.6e"
        % (exc.value.distance, exc.value.min_distance))
    assert exc.value.distance == pytest.approx(0.001 * np.linalg.norm(MESH2.centroids[0]))
    # far enough inside is fine
    assert q.is_finite(cauchy_boundary((1.0,), (1,), d, PROBE[None]))
    # a too-close target in a later block of a batch is caught as well
    batch = np.vstack([np.tile(PROBE, (TILE_ROWS, 1)), too_close])
    with pytest.raises(NearSingularityError):
        cauchy_boundary((1.0,), (1,), d, batch)


def test_cauchy_many_matches_single():
    # more targets than one block holds, so the batch spans a block boundary;
    # real and complex alpha, both signs, two meshes
    rng = np.random.default_rng(23)
    xs = rng.uniform(-0.3, 0.3, (TILE_ROWS + 5, 3))

    def random_density(mesh):
        shape = (1, mesh.n_triangles, 4)
        return BoundaryDensity(mesh.rule, rng.standard_normal(shape)
                               + 1j * rng.standard_normal(shape))

    cases = [
        (0.8, 1, BoundaryDensity(MESH2.rule, abc_beltrami(-0.8).value(MESH2.centroids)[None])),
        (0.8 + 0.3j, -1, random_density(MESH2)),
        (0.8 + 0.3j, 1, random_density(build_sphere_mesh(2.0, 2))),
    ]
    for alpha, sign, d in cases:
        rule = d.mesh
        many = cauchy_boundary((alpha,), (sign,), d, xs)[0]
        assert many.shape == (len(xs), 4)
        single = np.array([cauchy_boundary((alpha,), (sign,), d, x[None])[0, 0] for x in xs])
        assert single.shape == (len(xs), 4)
        assert np.allclose(many, single, rtol=0.0, atol=1e-14)
        # reference: the triple product -w * Ups * (n * f) summed node by node
        nf = q.qmul(q.vector(rule.normals), d.values[0])
        terms = q.qmul(upsilon(alpha, sign, xs[:, None, :] - rule.points), nf)
        reference = -np.einsum("n,mnk->mk", rule.weights.astype(complex), terms)
        assert np.allclose(many, reference, rtol=0.0, atol=1e-12 * np.abs(reference).max())
    with pytest.raises(ValueError):
        cauchy_boundary((0.8,), (1,), d, xs[:, :2])
    with pytest.raises(ValueError):
        cauchy_boundary((0.8,), (2,), d, xs)


def _random_density(mesh, rng, k=1):
    shape = (k, mesh.n_triangles, 4)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _node_by_node(alpha, sign, rule, values, xs):
    """-sum_j w_j Ups(x - y_j) (n_j f_j) over the nodes of a surface rule,
    one node at a time."""
    nf = q.qmul(q.vector(rule.normals), values)
    terms = q.qmul(upsilon(alpha, sign, xs[:, None, :] - rule.points), nf)
    return -np.einsum("n,mnk->mk", rule.weights.astype(complex), terms)


@pytest.mark.parametrize("alphas, signs", [
    ((0.8, 4.0 / 3.0), (1, -1)),                  # the two chiral modes
    ((0.8 + 0.3j, 0.8 - 0.3j), (1, -1)),          # complex, conjugate pair
    ((0.0, 0.8 + 0.3j, 0.0), (1, 1, -1)),         # alpha = 0 twice
    ((0.8, 0.8, 1.1, 0.8), (1, -1, -1, 1)),       # one alpha repeated, both signs
    # reconstruct's three passes as one call: the interior indicator, the
    # two modes, and the two-kernel cross-check's four terms
    ((0.0, 0.8, 4.0 / 3.0, 0.8, 0.8, 4.0 / 3.0, 4.0 / 3.0), (1, 1, -1, 1, 1, -1, -1)),
], ids=["modes", "conjugates", "zero", "repeated", "reconstruct"])
def test_cauchy_stacked_matches_single(alphas, signs):
    # one call for K (alpha, sign, density) terms, on more targets than one
    # block holds: each term is its one-term call bit for bit, so no term
    # depends on the others, and it is the node-by-node sum to roundoff
    rng = np.random.default_rng(25)
    xs = rng.uniform(-0.3, 0.3, (TILE_ROWS + 5, 3))
    values = _random_density(MESH2, rng, len(alphas))
    stacked = cauchy_boundary(alphas, signs, BoundaryDensity(MESH2.rule, values), xs)
    assert stacked.shape == (len(alphas), len(xs), 4)
    assert cauchy_boundary(alphas, signs, BoundaryDensity(MESH2.rule, values), xs[:1]).shape == (
        len(alphas), 1, 4)
    for k, (alpha, sign) in enumerate(zip(alphas, signs)):
        single = cauchy_boundary((alpha,), (sign,), BoundaryDensity(MESH2.rule, values[k:k + 1]),
                                 xs)[0]
        assert stacked[k].tobytes() == single.tobytes()
        reference = _node_by_node(alpha, sign, MESH2.rule, values[k], xs)
        assert np.allclose(stacked[k], reference, rtol=0.0,
                           atol=1e-12 * np.abs(reference).max())


def test_cauchy_stacked_guard_in_later_block():
    # the only too-close target sits in the last block of a stacked call
    d = BoundaryDensity(MESH2.rule, _random_density(MESH2, np.random.default_rng(26), 2))
    batch = np.vstack([np.tile(PROBE, (2 * TILE_ROWS, 1)),
                       0.999 * MESH2.centroids[7]])
    assert q.is_finite(cauchy_boundary((0.8, 4.0 / 3.0), (1, -1), d, batch[:-1]))
    with pytest.raises(NearSingularityError):
        cauchy_boundary((0.8, 4.0 / 3.0), (1, -1), d, batch)


def test_cauchy_stacked_rejects_mismatched_terms():
    rng = np.random.default_rng(27)
    stacked = BoundaryDensity(MESH2.rule, _random_density(MESH2, rng, 2))
    single = BoundaryDensity(MESH2.rule, _random_density(MESH2, rng))
    for alpha, sign, d in [
        ((0.8, 1.1, 1.2), (1, -1, 1), stacked),   # three terms, two densities
        ((0.8, 1.1), (1,), stacked),              # sign too short
        ((0.8,), (1,), stacked),                  # one term, two densities
        ((0.8, 1.1), (1, -1), single),            # two terms, one density
        ((0.8, 1.1), (1, 0), stacked),            # invalid sign
    ]:
        with pytest.raises(ValueError):
            cauchy_boundary(alpha, sign, d, INNER_PROBES)
    with pytest.raises(ValueError):
        BoundaryDensity(MESH2.rule, np.zeros((2, 2, MESH2.n_triangles, 4)))


_COEFF = st.builds(complex, st.floats(-10.0, 10.0), st.floats(-10.0, 10.0))


@pytest.mark.parametrize("mesh", [MESH2, ELLIPSOID2], ids=["sphere", "ellipsoid"])
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), a=_COEFF, b=_COEFF,
       alpha=st.sampled_from([0.8, 0.8 + 0.3j]), sign=st.sampled_from([1, -1]))
def test_cauchy_linear_in_density(mesh, seed, a, b, alpha, sign):
    rng = np.random.default_rng(seed)
    shape = (1, mesh.n_triangles, 4)
    f1, f2 = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape) for _ in "12")
    k1, k2, k12 = (cauchy_boundary((alpha,), (sign,), BoundaryDensity(mesh.rule, f),
                                   INNER_PROBES)
                   for f in (f1, f2, a * f1 + b * f2))
    scale = abs(a) * np.abs(k1).max() + abs(b) * np.abs(k2).max()
    # plus 1e-300: coefficients near the subnormal range round absolutely
    assert np.abs(k12 - (a * k1 + b * k2)).max() <= 1e-12 * scale + 1e-300


ELLIPSOID3 = mesh_from_arrays(MESH3.vertices * ELLIPSOID_AXES, MESH3.triangles)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       shift=st.lists(st.floats(-5.0, 5.0), min_size=3, max_size=3))
def test_cauchy_equivariant_under_rigid_motion_on_the_ellipsoid(seed, shift):
    # x -> R x + b moves the level-3 ellipsoid and 33 targets (three row
    # blocks, so both threads run) at least 0.2 inside it; the density's
    # vector parts rotate with R, so the result's vector part rotates and its
    # scalar part stays
    rng = np.random.default_rng(seed)
    rot = proper_rotation(rng)
    u = rng.standard_normal((33, 3))
    xs = (rng.uniform(0.0, 0.5, 33) / np.linalg.norm(u, axis=1))[:, None] * u * ELLIPSOID_AXES
    values = _random_density(ELLIPSOID3, rng, 2)
    moved = mesh_from_arrays(ELLIPSOID3.vertices @ rot.T + shift, ELLIPSOID3.triangles)
    alphas, signs = (0.8, 0.8 + 0.3j), (1, -1)
    before = cauchy_boundary(alphas, signs, BoundaryDensity(ELLIPSOID3.rule, values), xs)
    moved_density = BoundaryDensity(moved.rule, _rotate_vector_part(rot, values))
    after = cauchy_boundary(alphas, signs, moved_density, xs @ rot.T + shift)
    expected = _rotate_vector_part(rot, before)
    assert np.abs(after - expected).max() <= 1e-12 * np.abs(before).max()


def test_cauchy_reproduces_monogenic_field():
    # K_a f = f inside, for f monogenic for D + a (Beltrami with lam = -a)
    alpha = 1.0
    f = abc_beltrami(-alpha)
    mesh = build_sphere_mesh(1.0, 3)
    d = BoundaryDensity(mesh.rule, f.value(mesh.centroids)[None])
    val = cauchy_boundary((alpha,), (1,), d, PROBE[None])[0]
    exact = f.value(PROBE[None])
    assert (q.norm(val - exact) / q.norm(exact)).item() < 2e-2


def test_cauchy_of_zero_density_is_zero():
    d = BoundaryDensity(MESH2.rule, np.zeros((1, MESH2.n_triangles, 4)))
    assert q.norm(cauchy_boundary((1.0,), (1,), d, PROBE[None])).item() == 0.0


def test_scalar_field_identity():
    assert borel_pompeiu_residual((scalar_monomial(1),), 1.0, 1, sphere_rule(1.0, 3), 1.0,
                                  PROBE[None]).item() < 2e-2


# --- the tiled boundary sum on two threads -----------------------------------


def _one_row_block_at_a_time(alphas, signs, density, xs):
    """The boundary sum as a loop over its row blocks, each one
    cauchy_boundary call of TILE_ROWS targets, which runs on the calling
    thread alone."""
    blocks = [cauchy_boundary(alphas, signs, density, xs[i:i + TILE_ROWS])
              for i in range(0, len(xs), TILE_ROWS)]
    return np.concatenate(blocks, axis=-2)


def _offset_targets(mesh):
    """The extendibility check's targets: each centroid moved inward by 1, 2
    and 3 times two mesh spacings."""
    depth = 2.0 * mesh.spacing
    return np.concatenate([mesh.centroids - m * depth * mesh.normals for m in (1, 2, 3)])


def _mode_terms(mesh, rng):
    """The two chiral modes' alphas and signs and a random density of two
    terms on the mesh's centroid rule."""
    return (0.8, 4.0 / 3.0), (1, -1), BoundaryDensity(mesh.rule, _random_density(mesh, rng, 2))


def _random_rule(rng, n):
    """n random nodes in [-1, 1]**3 with random unit normals and weights in
    [0.5, 1], and a spacing that puts targets 1 away outside the guard."""
    normals = rng.standard_normal((n, 3))
    normals /= np.linalg.norm(normals, axis=1)[:, None]
    return SurfaceRule(rng.uniform(-1.0, 1.0, (n, 3)), normals, rng.uniform(0.5, 1.0, n), 0.1)


def test_two_thread_boundary_sum_is_the_one_tile_loop_bit_for_bit():
    # 3840 targets at 1280 nodes, so a row block is one tile: 240 row blocks,
    # 120 on each thread
    alphas, signs, density = _mode_terms(MESH3, np.random.default_rng(31))
    xs = _offset_targets(MESH3)
    assert len(xs) == 3840 and len(density.mesh.points) == NODE_CHUNK
    got = cauchy_boundary(alphas, signs, density, xs)
    expected = _one_row_block_at_a_time(alphas, signs, density, xs)
    assert got.tobytes() == expected.tobytes()


def test_one_row_block_stays_on_the_calling_thread(monkeypatch):
    # verify-bp's 5 probes and 3 terms at the level-4 sphere rule's 15360
    # nodes, 12 node tiles of one row block: no work goes to an executor
    def no_pool(*args, **kwargs):
        raise AssertionError("a single row block was split over two threads")

    monkeypatch.setattr(ThreadPoolExecutor, "submit", no_pool)
    rule = sphere_rule(1.0, 4)
    rng = np.random.default_rng(32)
    values = rng.standard_normal((3, len(rule.points), 4)) + 1j * rng.standard_normal(
        (3, len(rule.points), 4))
    alphas, signs = (0.8, 1.1, 0.8 + 0.3j), (1, -1, 1)
    got = cauchy_boundary(alphas, signs, BoundaryDensity(rule, values), _BP_PROBES)
    for k, (alpha, sign) in enumerate(zip(alphas, signs)):
        reference = _node_by_node(alpha, sign, rule, values[k], _BP_PROBES)
        assert np.abs(got[k] - reference).max() <= 1e-12 * np.abs(reference).max()


def test_node_tiles_of_any_length():
    # ragged on both axes: TILE_ROWS + 1 targets are a full row block and
    # one more, 2 x NODE_CHUNK + 40 nodes two full node tiles and 40 nodes
    rng = np.random.default_rng(33)
    rule = _random_rule(rng, 2 * NODE_CHUNK + 40)
    values = rng.standard_normal((1, len(rule.points), 4)) + 1j * rng.standard_normal(
        (1, len(rule.points), 4))
    xs = rng.uniform(-1.0, 1.0, (TILE_ROWS + 1, 3)) + [3.0, 0.0, 0.0]
    got = cauchy_boundary((0.7,), (1,), BoundaryDensity(rule, values), xs)[0]
    reference = _node_by_node(0.7, 1, rule, values[0], xs)
    assert np.abs(got - reference).max() <= 1e-12 * np.abs(reference).max()


def test_y_times_g_is_qmul_in_ragged_node_chunks():
    # two terms at NODE_CHUNK + 40 nodes, a seventh of them with y2 = 0 and
    # another seventh with n2 = 0: n*f and y*(n*f) are formed per node chunk
    rng = np.random.default_rng(35)
    n = NODE_CHUNK + 40
    rule = _random_rule(rng, n)
    rule.points[::7, 1] = 0.0
    rule.normals[3::7, 1] = 0.0
    g = rng.standard_normal((2, n, 4)) + 1j * rng.standard_normal((2, n, 4))
    out = np.empty_like(g)
    _vector_times(rule.points, g, out)
    assert np.array_equal(out, q.qmul(q.vector(rule.points), g))
    xs = rng.uniform(-1.0, 1.0, (3, 3)) + [3.0, 0.0, 0.0]
    got = cauchy_boundary([0.7, 0.7], [1, -1], BoundaryDensity(rule, g), xs)
    for k, sign in enumerate((1, -1)):
        reference = _node_by_node(0.7, sign, rule, g[k], xs)
        assert np.abs(got[k] - reference).max() <= 1e-12 * np.abs(reference).max()


def test_three_fields_residual_memory_stays_flat():
    # verify-bp's level-4 residual: the three boundary densities at the sphere
    # rule's 15360 nodes take 2.9 MB, n*f and y*(n*f) are formed per node
    # chunk, and the polar rule samples 2 x 5 x 1024 volume nodes; the whole
    # residual stays within 40 MB
    rule = sphere_rule(1.0, 4)
    fields = tuple(make_field(1.0) for make_field in _BP_FIELDS.values())
    tracemalloc.start()
    try:
        borel_pompeiu_residual(fields, 1.0, 1, rule, 1.0, _BP_PROBES)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 40e6, "peak %.1f MB" % (peak / 1e6)


def test_boundary_sum_forms_n_times_f_per_node_chunk():
    # 3 terms at 5 targets over the level-5 sphere rule's 61440 nodes: the
    # call holds no copy of n*f over all nodes, which alone would take
    # 3 x 61440 x 4 complex values, 11.8 MB
    rule = sphere_rule(1.0, 5)
    rng = np.random.default_rng(37)
    shape = (3, len(rule.points), 4)
    density = BoundaryDensity(rule, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    copy_bytes = np.empty(shape, dtype=complex).nbytes
    tracemalloc.start()
    try:
        got = cauchy_boundary((0.8, 1.1, 0.8 + 0.3j), (1, -1, 1), density, _BP_PROBES)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert q.is_finite(got)
    assert peak < copy_bytes, "peak %.1f MB" % (peak / 1e6)


def test_two_thread_sums_are_repeatable_under_contention():
    # twenty calls, five at a time from four threads of their own (so eight
    # threads on the machine's cores) with a short switch interval: every
    # result is byte for byte the first
    # (a sum of 13 row blocks on two threads, and one of a single row block
    # over 12 node tiles on the calling thread)
    rng = np.random.default_rng(34)
    b_alphas, b_signs, b_density = _mode_terms(MESH3, rng)
    rule = sphere_rule(1.0, 4)
    s_density = BoundaryDensity(rule, _random_density(build_sphere_mesh(1.0, 4), rng, 3)
                                .reshape(1, len(rule.points), 4))
    xs_b = _offset_targets(MESH3)[::19]  # 203 targets, 13 row tiles
    xs_s = np.array([PROBE, [-0.25, 0.3, 0.1], [0.2, -0.2, 0.3]])

    def both():
        return (cauchy_boundary(b_alphas, b_signs, b_density, xs_b).tobytes(),
                cauchy_boundary((0.8 + 0.3j,), (-1,), s_density, xs_s).tobytes())

    first = both()
    results = []

    def caller():
        for _ in range(5):
            results.append(both())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=caller) for _ in range(4)]
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in callers)
    assert len(results) == 20
    assert all(result == first for result in results)


@pytest.mark.parametrize("operator, n_chunks", [("boundary", 4)])
def test_a_rows_sum_does_not_depend_on_the_other_targets(operator, n_chunks):
    # 32 targets are two row blocks, one on each thread; 33, 37 and 48 are
    # three, the first two on the calling thread: rows 0-31 are summed in
    # node order on one thread either way, over the level-4 mesh's 4 node
    # chunks, so their bits are the same
    rng = np.random.default_rng(36)
    mesh = build_sphere_mesh(1.0, 4)
    alpha, sign, density = _mode_terms(mesh, rng)
    assert len(density.mesh.points) == n_chunks * NODE_CHUNK
    xs = rng.uniform(-0.4, 0.4, (48, 3))
    first = cauchy_boundary(alpha, sign, density, xs[:32])
    for m in (33, 37, 48):
        got = cauchy_boundary(alpha, sign, density, xs[:m])
        assert got[..., :32, :].tobytes() == first.tobytes(), m


def _executor_workers():
    """The live worker threads of executors, which CPython names
    ThreadPoolExecutor-<n>_<k>."""
    return [t.name for t in threading.enumerate() if t.name.startswith("ThreadPoolExecutor-")]


def test_second_thread_runs_under_the_callers_error_state():
    d = BoundaryDensity(MESH2.rule, _random_density(MESH2, np.random.default_rng(36), 2))
    # 21 targets are 2 row tiles; the far one, in the second, is summed on the
    # second thread, and its distance overflows
    x = np.vstack([np.tile(PROBE, (TILE_ROWS + 4, 1)), [1e200, 0.0, 0.0]])
    with warnings.catch_warnings(), np.errstate(over="ignore", invalid="ignore"):
        warnings.simplefilter("error")
        out = cauchy_boundary((0.8, 4.0 / 3.0), (1, -1), d, x)
    assert q.is_finite(out[:, :-1])
    assert not np.isfinite(out[:, -1]).any()
    with np.errstate(over="raise", invalid="raise"), pytest.raises(FloatingPointError):
        cauchy_boundary((0.8, 4.0 / 3.0), (1, -1), d, x)
    assert not _executor_workers()


def test_guard_in_the_second_thread_raises_in_the_caller():
    d = BoundaryDensity(MESH2.rule, _random_density(MESH2, np.random.default_rng(35), 2))
    # 64 targets are 4 row tiles and one more a fifth, the last 2 on the
    # second thread
    inner = np.tile(PROBE, (TILE_ROWS * NODE_CHUNK // MESH2.n_triangles, 1))
    near, nearer = 0.999 * MESH2.centroids[7], 0.9995 * MESH2.centroids[3]
    with pytest.raises(NearSingularityError) as exc:
        cauchy_boundary((0.8, 4.0 / 3.0), (1, -1), d, np.vstack([inner, near]))
    assert exc.value.distance == pytest.approx(0.001 * np.linalg.norm(MESH2.centroids[7]))
    assert not _executor_workers()  # no worker outlives a call that raises
    # the next call works, and gives the rows of the first tiles as before
    clean = cauchy_boundary((0.8, 4.0 / 3.0), (1, -1), d, inner)
    assert q.is_finite(clean)
    assert clean.tobytes() == cauchy_boundary((0.8, 4.0 / 3.0), (1, -1), d, inner).tobytes()
    # a target too close on each thread: the first thread's error is raised
    with pytest.raises(NearSingularityError) as exc:
        cauchy_boundary((0.8, 4.0 / 3.0), (1, -1), d, np.vstack([near, inner, nearer]))
    assert exc.value.distance == pytest.approx(0.001 * np.linalg.norm(MESH2.centroids[7]))
    assert not _executor_workers()
    # nor one that returns from two halves
    assert q.is_finite(cauchy_boundary((0.8, 4.0 / 3.0), (1, -1), d, np.vstack([inner, PROBE])))
    assert not _executor_workers()
