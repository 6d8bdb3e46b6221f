"""Field reconstruction from traces and the extendibility criterion."""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quatem import quaternions as q
from quatem.cli import _BP_PROBES, main
from quatem.fields import abc_beltrami, exact_chiral_solution
from quatem.geometry import build_sphere_mesh, mesh_from_arrays, polar_ball_rule, sphere_rule
from quatem.maxwell import make_medium, merge_values
from quatem.operators import BoundaryDensity, VolumeDensity, cauchy_boundary, teodorescu
from quatem.reconstruction import (
    ExtendibilityReport,
    extendibility_residual,
    perturb_traces,
    reconstruct_eh,
    two_kernel_eh,
)

from oracles import (
    ELLIPSOID_AXES,
    manufactured_current_solution,
    phi_psi_rhs,
    proper_rotation,
    reconstruct_with_current,
    torus_mesh,
)

MEDIUM = make_medium(1.0, 1.0, 1.0, 0.25)
# (omega, epsilon, mu, beta) of the default medium, an achiral one and a lossy one
CONSTANTS = {"beta=0.25": (1.0, 1.0, 1.0, 0.25), "beta=0": (1.0, 1.0, 1.0, 0.0),
             "lossy": (1.0, 2.0 + 0.5j, 1.0, 0.25)}
MEDIA = pytest.mark.parametrize("constants", CONSTANTS.values(), ids=CONSTANTS.keys())
PROBES = np.array([[0.3, 0.1, -0.2], [0.1, -0.15, 0.2], [-0.2, 0.4, 0.1]])
SPHERE2 = build_sphere_mesh(1.0, 2)
ELLIPSOID2 = mesh_from_arrays(SPHERE2.vertices * [1.0, 0.7, 0.4], SPHERE2.triangles)
# at least 2 spacings inside both SPHERE2 and ELLIPSOID2
INNER_PROBES = np.array([[0.0, 0.0, 0.0], [0.2, 0.1, 0.0], [-0.3, 0.05, 0.02],
                         [0.1, -0.15, 0.03]])
SPHERE3 = build_sphere_mesh(1.0, 3)
ELLIPSOID3 = mesh_from_arrays(SPHERE3.vertices * ELLIPSOID_AXES, SPHERE3.triangles)


def _traces(mesh, medium=MEDIUM):
    e_field, h_field = exact_chiral_solution(medium)
    pts = mesh.centroids
    return q.vec(e_field.value(pts)), q.vec(h_field.value(pts)), e_field, h_field


def test_reconstruction_accuracy_and_convergence():
    errs = []
    for level in (2, 3):
        mesh = build_sphere_mesh(1.0, level)
        e_tr, h_tr, e_field, h_field = _traces(mesh)
        e_x, h_x = reconstruct_eh(mesh.rule, e_tr, h_tr, MEDIUM, PROBES)
        errs.append(max(float(np.max(q.norm(got - exact) / q.norm(exact)))
                        for got, exact in ((e_x, e_field.value(PROBES)),
                                           (h_x, h_field.value(PROBES)))))
    assert errs[1] < errs[0]
    assert errs[1] < 5e-2


def test_reconstruction_is_second_order(capsys):
    # the worst relative E and H error at verify-bp's five probes (radius at
    # most 0.5) on levels 3-5 reads 2.9e-3, 7.2e-4, 1.8e-4: a fitted order of
    # 2.0 in the mesh spacing.  The gate leaves a margin of 0.2 below it, so a
    # first-order regression fails where criterion 6's decrease still holds.
    spacing, worst = [], []
    for level in (3, 4, 5):
        mesh = build_sphere_mesh(1.0, level)
        e_tr, h_tr, e_field, h_field = _traces(mesh)
        e_x, h_x = reconstruct_eh(mesh.rule, e_tr, h_tr, MEDIUM, _BP_PROBES)
        spacing.append(mesh.spacing)
        worst.append(max(float(np.max(q.norm(got - exact) / q.norm(exact)))
                         for got, exact in ((e_x, e_field.value(_BP_PROBES)),
                                            (h_x, h_field.value(_BP_PROBES)))))
    order = np.polyfit(np.log(spacing), np.log(worst), 1)[0]
    with capsys.disabled():
        print("\nreconstruction error on levels 3-5: fitted order %.3f (gate 1.8)" % order,
              flush=True)
    assert order >= 1.8, "fitted order %.3f from errors %s" % (order, worst)


def test_reconstruction_on_the_torus_is_second_order(capsys):
    # a closed surface that is neither a sphere nor star-shaped: at four
    # points of the tube's centre circle the worst relative E and H error
    # reads 1.12e-2, 2.79e-3, 6.97e-4 at 1280, 5120 and 20480 triangles, a
    # fitted order of 2.0 in the mesh spacing
    points = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [-0.7071, 0.7071, 0.0],
                       [0.0, -1.0, 0.0]])
    spacing, worst = [], []
    for nu, nv in ((40, 16), (80, 32), (160, 64)):
        mesh = torus_mesh(nu, nv)
        e_tr, h_tr, e_field, h_field = _traces(mesh)
        e_x, h_x = reconstruct_eh(mesh.rule, e_tr, h_tr, MEDIUM, points)
        spacing.append(mesh.spacing)
        worst.append(max(float(np.max(q.norm(got - exact) / q.norm(exact)))
                         for got, exact in ((e_x, e_field.value(points)),
                                            (h_x, h_field.value(points)))))
    order = np.polyfit(np.log(spacing), np.log(worst), 1)[0]
    with capsys.disabled():
        print("\nreconstruction on the torus at 1280-20480 triangles: %s, fitted order %.3f "
              "(gate 1.8)" % (", ".join("%.2e" % v for v in worst), order), flush=True)
    assert order >= 1.8, "fitted order %.3f from errors %s" % (order, worst)


@MEDIA
def test_reconstruction_from_node_data_is_fourth_order(constants, capsys):
    # traces at sphere_rule's three nodes per triangle on the exact sphere:
    # the worst relative E and H error at verify-bp's five probes reads
    # 6.95e-5, 4.34e-6, 2.71e-7 at levels 2-4 for beta = 0.25 and for beta = 0
    # (7.01e-5, 4.37e-6, 2.73e-7 in the lossy medium), a fitted order of 4.03.
    # The gate leaves a margin of 0.5, so the second-order floor of one
    # centroid node per triangle fails.
    medium = make_medium(*constants)
    e_field, h_field = exact_chiral_solution(medium)
    exact = (e_field.value(_BP_PROBES), h_field.value(_BP_PROBES))
    spacing, worst = [], []
    for level in (2, 3, 4):
        rule = sphere_rule(1.0, level)
        e_tr, h_tr = (q.vec(f.value(rule.points)) for f in (e_field, h_field))
        got = reconstruct_eh(rule, e_tr, h_tr, medium, _BP_PROBES)
        spacing.append(rule.spacing)
        worst.append(max(float(np.max(q.norm(g - ref) / q.norm(ref)))
                         for g, ref in zip(got, exact)))
    order = np.polyfit(np.log(spacing), np.log(worst), 1)[0]
    with capsys.disabled():
        print("\nreconstruction from node data, k=%s, beta=%g: errors %s, fitted order %.3f"
              % (np.round(medium.k, 3), medium.beta, ", ".join("%.2e" % e for e in worst),
                 order), flush=True)
    assert order >= 3.5, "fitted order %.3f from errors %s" % (order, worst)


@MEDIA
def test_reconstruction_with_current_matches_manufactured_solution(constants, capsys):
    # the representation with sources (oracles.reconstruct_with_current),
    # Phi = T_{+a1}[(i/k)(a1 j - div j)] + K_{+a1} Phi and likewise Psi, reproduces a polynomial solution with a
    # current of nonzero divergence at verify-bp's probes.  With seed 3 the
    # worst relative E and H error reads 6.4e-2, 1.6e-2, 4.1e-3 at levels 2-4
    # for beta = 0.25 (5.2e-2, 1.3e-2, 3.3e-3 for beta = 0; 7.3e-2, 1.9e-2,
    # 4.7e-3 in the lossy medium, k = 1.43+0.18i): second order, the flat
    # mesh's boundary term against the volume terms over the exact ball.  Without
    # the current the same traces err by about 3, so the volume terms carry
    # the result; k != 1 in the lossy medium pins the factor i/k.
    medium = make_medium(*constants)
    e_field, h_field, j = manufactured_current_solution(medium, seed=3)
    exact = (e_field.value(_BP_PROBES), h_field.value(_BP_PROBES))

    def worst(fields):
        return max(float(np.max(q.norm(got - ref) / q.norm(ref)))
                   for got, ref in zip(fields, exact))

    spacing, errors = [], []
    for level in (2, 3, 4):
        mesh = build_sphere_mesh(1.0, level)
        e_tr, h_tr = (q.vec(f.value(mesh.centroids)) for f in (e_field, h_field))
        spacing.append(mesh.spacing)
        errors.append(worst(reconstruct_with_current(mesh.rule, e_tr, h_tr, medium,
                                                     _BP_PROBES, j, 1.0)))
        if level == 3:
            source_free = worst(reconstruct_eh(mesh.rule, e_tr, h_tr, medium, _BP_PROBES))
    order = np.polyfit(np.log(spacing), np.log(errors), 1)[0]
    with capsys.disabled():
        print("\nreconstruction with a current, k=%s, beta=%g: errors %s, fitted order "
              "%.3f, source-free %.2f" % (np.round(medium.k, 3), medium.beta,
                                          ", ".join("%.2e" % e for e in errors), order,
                                          source_free), flush=True)
    assert errors[1] < 5e-2, "level-3 error %.3e (criterion 6's bound 5e-2)" % errors[1]
    assert order >= 1.8, "fitted order %.3f from errors %s" % (order, errors)
    assert source_free > 0.5, "the current moved nothing: source-free error %.3e" % source_free


def test_both_modes_volume_terms_in_one_call_are_the_single_mode_calls():
    # with a current, reconstruct_with_current sums both modes' volume terms
    # in one teodorescu call over one evaluation of the current; bit for bit
    # the two single-mode calls, Phi's at +alpha1 and Psi's at -alpha2
    medium = make_medium(1.0, 1.0 + 0.1j, 1.0, 0.25)
    _, _, j = manufactured_current_solution(medium, seed=3)
    mesh, ball = build_sphere_mesh(1.0, 3), polar_ball_rule(1.0)
    a1, a2 = medium.alpha1, medium.alpha2
    rhs = phi_psi_rhs(j, medium)
    both = teodorescu((a1, a2), (1, -1), VolumeDensity(ball, rhs), _BP_PROBES)
    phi = teodorescu((a1,), (1,), VolumeDensity(ball, lambda y: rhs(y)[:1]), _BP_PROBES)
    psi = teodorescu((a2,), (-1,), VolumeDensity(ball, lambda y: rhs(y)[1:]), _BP_PROBES)
    assert both.tobytes() == np.concatenate([phi, psi]).tobytes()
    e_tr, h_tr, _, _ = _traces(mesh, medium)
    modes = BoundaryDensity(mesh.rule, q.vector(np.stack([e_tr + 1j * h_tr, e_tr - 1j * h_tr])))
    boundary = cauchy_boundary((a1, a2), (1, -1), modes, _BP_PROBES)
    expected = merge_values(boundary[0] + phi[0], boundary[1] + psi[0])
    got = reconstruct_with_current(mesh.rule, e_tr, h_tr, medium, _BP_PROBES, j, 1.0)
    assert all(g.tobytes() == e.tobytes() for g, e in zip(got, expected))


def test_assembly_paths_agree():
    # the mode assembly and the two-kernel displays group the sums
    # differently: equal to roundoff, but not bit for bit, on levels 3 and 4
    # in each medium
    for level in (3, 4):
        mesh = build_sphere_mesh(1.0, level)
        for name, constants in CONSTANTS.items():
            medium = make_medium(*constants)
            e_tr, h_tr, _, _ = _traces(mesh, medium)
            e1, h1 = reconstruct_eh(mesh.rule, e_tr, h_tr, medium, PROBES)
            e2, h2 = two_kernel_eh(mesh.rule, e_tr, h_tr, medium, PROBES)
            scale = np.maximum(q.norm(e1), q.norm(h1))
            gap = np.maximum(q.norm(e1 - e2), q.norm(h1 - h2)) / scale
            assert np.all(gap < 1e-10), (level, name, gap)
            assert np.any(gap > 0.0), (level, name)


@pytest.mark.parametrize("radius, refused", [(0.3, "0.3, 0.1, -0.2"), (0.45, "-0.2, 0.4, 0.1")])
def test_source_refuses_a_probe_not_inside_the_ball(radius, refused):
    # PROBES lie at radii 0.37, 0.27 and 0.46: inside the mesh, but the first
    # one outside the ball of the volume terms is refused, named, before the
    # current is evaluated
    mesh = build_sphere_mesh(1.0, 2)
    e_tr, h_tr, _, _ = _traces(mesh)
    with pytest.raises(ValueError, match=r"volume target \[%s\] is not inside the ball of "
                                         r"radius %g$" % (refused, radius)):
        reconstruct_with_current(mesh.rule, e_tr, h_tr, MEDIUM, PROBES, abc_beltrami(0.5),
                                 radius)


def test_batched_reconstruction_matches_pointwise():
    # one call on all probes equals one call per probe, without and (through
    # the oracle) with a divergence-free current whose volume terms contribute
    mesh = build_sphere_mesh(1.0, 2)
    e_tr, h_tr, _, _ = _traces(mesh)
    free_e, _ = reconstruct_eh(mesh.rule, e_tr, h_tr, MEDIUM, PROBES)
    for reconstruct in (
            lambda x: reconstruct_eh(mesh.rule, e_tr, h_tr, MEDIUM, x),
            lambda x: reconstruct_with_current(mesh.rule, e_tr, h_tr, MEDIUM, x,
                                               abc_beltrami(0.5), 1.0)):
        e_all, h_all = reconstruct(PROBES)
        assert e_all.shape == h_all.shape == (len(PROBES), 4)
        for x, e_row, h_row in zip(PROBES, e_all, h_all):
            (e_x,), (h_x,) = reconstruct(x[None])
            assert np.allclose(e_row, e_x, rtol=0.0, atol=1e-14)
            assert np.allclose(h_row, h_x, rtol=0.0, atol=1e-14)
    assert q.is_finite(e_all) and q.norm(e_all - free_e).max() > 1e-3


@pytest.mark.parametrize("mesh", [SPHERE2, ELLIPSOID2], ids=["sphere", "ellipsoid"])
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       shift=st.lists(st.floats(-5.0, 5.0), min_size=3, max_size=3))
def test_reconstruction_equivariant_under_rigid_motion(mesh, seed, shift):
    # x -> R x + b moves mesh and probes; traces rotate with R, so E and H
    # rotate too and their scalar parts stay (any traces, not only genuine)
    rng = np.random.default_rng(seed)
    rot = proper_rotation(rng)
    shape = (mesh.n_triangles, 3)
    e_tr, h_tr = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
                  for _ in "eh")
    moved = mesh_from_arrays(mesh.vertices @ rot.T + shift, mesh.triangles)
    before = reconstruct_eh(mesh.rule, e_tr, h_tr, MEDIUM, INNER_PROBES)
    after = reconstruct_eh(moved.rule, e_tr @ rot.T, h_tr @ rot.T, MEDIUM,
                           INNER_PROBES @ rot.T + shift)
    for old, new in zip(before, after):
        expected = np.concatenate([old[:, :1], old[:, 1:] @ rot.T], axis=1)
        assert np.abs(new - expected).max() <= 1e-12 * q.norm(old).max()


def test_extendibility_genuine_traces_pass():
    mesh = build_sphere_mesh(1.0, 3)
    e_tr, h_tr, _, _ = _traces(mesh)
    report = extendibility_residual(mesh.rule, e_tr, h_tr, MEDIUM)
    assert isinstance(report, ExtendibilityReport)
    assert report.extrapolation == "quadratic"
    assert report.rms < 5e-2
    assert report.residual_e.shape == (mesh.n_triangles,)
    assert report.rms <= max(report.max_e, report.max_h)


def test_extendibility_discriminates_perturbation():
    mesh = build_sphere_mesh(1.0, 3)
    e_tr, h_tr, _, _ = _traces(mesh)
    r0 = extendibility_residual(mesh.rule, e_tr, h_tr, MEDIUM).rms
    e_p, h_p = perturb_traces(mesh.rule, e_tr, h_tr, 0.10, seed=42)
    r1 = extendibility_residual(mesh.rule, e_p, h_p, MEDIUM).rms
    assert r1 >= 5.0 * r0


# traces of the exact solution in an achiral medium (beta = 0), which are
# not traces of a solution in MEDIUM (beta = 0.25)
MISMATCHED = make_medium(1.0, 1.0, 1.0, 0.0)
# 16 exterior points, |x| = 1.3, outside the sphere and the ellipsoid
_DIRECTIONS = np.random.default_rng(16).standard_normal((16, 3))
EXTERIOR = 1.3 * _DIRECTIONS / np.linalg.norm(_DIRECTIONS, axis=1)[:, None]


def _exterior_value(mesh, data_medium):
    """Max of |E| and |H| at EXTERIOR as reconstruct_eh gives them in MEDIUM
    from data_medium's exact traces, relative to the traces' largest |(e, h)|."""
    e_tr, h_tr, _, _ = _traces(mesh, data_medium)
    scale = np.max(np.sqrt(np.sum(np.abs(e_tr)**2 + np.abs(h_tr)**2, axis=1)))
    e_x, h_x = reconstruct_eh(mesh.rule, e_tr, h_tr, MEDIUM, EXTERIOR)
    return float(np.maximum(q.norm(e_x), q.norm(h_x)).max() / scale)


# floor: the least exterior value that beta = 0 traces may read on the surface
@pytest.mark.parametrize("axes, floor", [(np.ones(3), 0.05), (ELLIPSOID_AXES, 0.0)],
                         ids=["sphere", "ellipsoid"])
def test_exterior_field_of_extendible_traces_vanishes(axes, floor, capsys):
    # the exterior Cauchy formula: K f = 0 outside the surface when f is
    # extendible.  Genuine traces read 3.0e-4, 7.4e-5, 1.8e-5 on the sphere at
    # levels 3-5 and 1.4e-5, 3.5e-6, 8.7e-7 on the ellipsoid, a fitted order
    # of 2.0 on both; beta = 0 traces read 0.093-0.094 on the sphere and
    # 0.0294-0.0296 on the ellipsoid, below the sphere's floor of 0.05, so
    # there they are gated on not falling with level only
    spacing, genuine, mismatched = [], [], []
    for level in (3, 4, 5):
        sphere = build_sphere_mesh(1.0, level)
        mesh = mesh_from_arrays(sphere.vertices * axes, sphere.triangles)
        spacing.append(mesh.spacing)
        genuine.append(_exterior_value(mesh, MEDIUM))
        mismatched.append(_exterior_value(mesh, MISMATCHED))
    order = np.polyfit(np.log(spacing), np.log(genuine), 1)[0]
    with capsys.disabled():
        print("\nexterior field on levels 3-5: genuine %s, fitted order %.3f (gate 1.8); "
              "beta = 0 traces %s" % (", ".join("%.2e" % v for v in genuine), order,
                                      ", ".join("%.4f" % v for v in mismatched)), flush=True)
    assert order >= 1.8, "fitted order %.3f from exterior values %s" % (order, genuine)
    assert all(later >= earlier for earlier, later in zip(mismatched, mismatched[1:])), \
        mismatched
    assert min(mismatched) >= floor, mismatched


def test_extend_check_refuses_traces_of_another_medium(tmp_path, capsys):
    # beta = 0 traces checked at the default beta = 0.25 read rms 0.1114 at
    # level 3 and 0.1107 at level 4, against the 0.05 threshold; the rms does
    # not fall with the mesh, as a discretization error would.  (On the
    # ellipsoid, level 4 reads 0.0549, too near the threshold to gate on.)
    rms = []
    for level in (3, 4):
        mesh, traces, out = (str(tmp_path / name) for name in ("m.off", "t.csv", "e.json"))
        assert main(["gen-mesh", "--level", str(level), "--out", mesh]) == 0
        assert main(["gen-field", "--family", "chiral-exact", "--beta", "0", "--mesh", mesh,
                     "--out", traces]) == 0
        assert main(["extend-check", "--mesh", mesh, "--traces", traces, "--out", out]) == 3
        rms.append(json.loads(Path(out).read_text())["aggregate"]["rms"])
    capsys.readouterr()
    assert abs(rms[1] - rms[0]) <= 0.05 * rms[0], rms


def test_extendibility_validation():
    mesh = build_sphere_mesh(1.0, 2)
    e_tr, h_tr, _, _ = _traces(mesh)
    with pytest.raises(ValueError):
        extendibility_residual(mesh.rule, e_tr, h_tr, MEDIUM, extrapolation="cubic")
    with pytest.raises(ValueError):
        extendibility_residual(mesh.rule, e_tr[:5], h_tr[:5], MEDIUM)
    # level 2 is too coarse for the quadratic rule's offsets at 3 depths
    with pytest.raises(ValueError, match=r"quadratic extrapolation offsets down to 3 x "
                                         r"depth 0\.392585 = 1\.17776, .*: a finer mesh "
                                         r"would run$"):
        extendibility_residual(mesh.rule, e_tr, h_tr, MEDIUM)


def test_perturbation_is_tangential_and_deterministic():
    mesh = build_sphere_mesh(1.0, 2)
    e_tr, h_tr, _, _ = _traces(mesh)
    e1, h1 = perturb_traces(mesh.rule, e_tr, h_tr, 0.1, seed=7)
    e2, h2 = perturb_traces(mesh.rule, e_tr, h_tr, 0.1, seed=7)
    assert np.array_equal(e1, e2) and np.array_equal(h1, h2)
    noise = e1 - e_tr
    normal_comp = np.abs(np.einsum("ti,ti->t", noise, mesh.normals.astype(complex)))
    assert normal_comp.max() < 1e-12
    rms = np.sqrt(np.mean(np.sum(np.abs(e_tr) ** 2, axis=1)))
    amp = np.linalg.norm(noise, axis=1)
    assert np.allclose(amp, 0.1 * rms, rtol=1e-12)


def test_criterion_runs_on_node_data():
    # sphere_rule's three nodes per triangle: the residuals and the noise are
    # per node.  No verdict is gated at level 2, where genuine traces read
    # 6.0e-2 (the centroid rule 6.6e-2), above the default threshold.
    rule = sphere_rule(1.0, 2)
    e_field, h_field = exact_chiral_solution(MEDIUM)
    e_tr, h_tr = (q.vec(f.value(rule.points)) for f in (e_field, h_field))
    report = extendibility_residual(rule, e_tr, h_tr, MEDIUM, "linear")
    assert report.residual_e.shape == report.residual_h.shape == (960,)
    e1, h1 = perturb_traces(rule, e_tr, h_tr, 0.1, seed=7)
    e2, h2 = perturb_traces(rule, e_tr, h_tr, 0.1, seed=7)
    assert np.array_equal(e1, e2) and np.array_equal(h1, h2)
    for noisy, trace in ((e1, e_tr), (h1, h_tr)):
        assert np.abs(np.einsum("ni,ni->n", noisy - trace, rule.normals)).max() < 1e-12


@settings(max_examples=5, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       shift=st.lists(st.floats(-5.0, 5.0), min_size=3, max_size=3))
def test_extendibility_residual_invariant_under_rigid_motion_on_the_ellipsoid(seed, shift):
    # x -> R x + b moves the nodes, and random traces rotate with R: the
    # residual at each node stays (measured at most 1.1e-14 over 6 seeds)
    rng = np.random.default_rng(seed)
    rot = proper_rotation(rng)
    shape = (ELLIPSOID3.n_triangles, 3)
    e_tr, h_tr = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
                  for _ in "eh")
    moved = mesh_from_arrays(ELLIPSOID3.vertices @ rot.T + shift, ELLIPSOID3.triangles)
    before = extendibility_residual(ELLIPSOID3.rule, e_tr, h_tr, MEDIUM, "linear")
    after = extendibility_residual(moved.rule, e_tr @ rot.T, h_tr @ rot.T, MEDIUM, "linear")
    assert np.abs(after.residual_e - before.residual_e).max() <= 1e-12
    assert np.abs(after.residual_h - before.residual_h).max() <= 1e-12


def test_extendibility_guard_on_the_ellipsoid():
    # at level 3 the quadratic rule's deepest offset, 0.411, passes the
    # inradius estimate 0.403 (the short semi-axis); the linear one stops at 0.274
    rule = ELLIPSOID3.rule
    e_tr, h_tr, _, _ = _traces(ELLIPSOID3)
    with pytest.raises(ValueError, match="past the inradius estimate"):
        extendibility_residual(rule, e_tr, h_tr, MEDIUM)
    report = extendibility_residual(rule, e_tr, h_tr, MEDIUM, "linear")
    assert report.residual_e.shape == (ELLIPSOID3.n_triangles,)
