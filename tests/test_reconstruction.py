"""Field reconstruction from traces and the extendibility criterion."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quatem import quaternions as q
from quatem.fields import exact_chiral_solution
from quatem.geometry import build_ball_quadrature, build_sphere_mesh, mesh_from_arrays
from quatem.maxwell import SourceData, make_medium
from quatem.reconstruction import (
    ExtendibilityReport,
    extendibility_residual,
    perturb_traces,
    phi_psi_representation,
    reconstruct_eh,
    two_kernel_eh,
)
from quatem.operators import BoundaryDensity

MEDIUM = make_medium(1.0, 1.0, 1.0, 0.25)
PROBES = np.array([[0.3, 0.1, -0.2], [0.1, -0.15, 0.2], [-0.2, 0.4, 0.1]])
SPHERE2 = build_sphere_mesh(1.0, 2)
ELLIPSOID2 = mesh_from_arrays(SPHERE2.vertices * [1.0, 0.7, 0.4], SPHERE2.triangles)
# at least 2 spacings inside both SPHERE2 and ELLIPSOID2
INNER_PROBES = np.array([[0.0, 0.0, 0.0], [0.2, 0.1, 0.0], [-0.3, 0.05, 0.02],
                         [0.1, -0.15, 0.03]])


def _traces(mesh, medium=MEDIUM):
    e_field, h_field = exact_chiral_solution(medium)
    pts = mesh.centroids
    return q.vec(e_field.value(pts)), q.vec(h_field.value(pts)), e_field, h_field


def test_reconstruction_accuracy_and_convergence():
    errs = []
    for level in (2, 3):
        mesh = build_sphere_mesh(1.0, level)
        e_tr, h_tr, e_field, h_field = _traces(mesh)
        worst = 0.0
        for x in PROBES:
            e_x, h_x = reconstruct_eh(mesh, e_tr, h_tr, None, MEDIUM, None, x)
            exact_e, exact_h = e_field.value(x), h_field.value(x)
            worst = max(
                worst,
                float(q.norm(e_x - exact_e) / q.norm(exact_e)),
                float(q.norm(h_x - exact_h) / q.norm(exact_h)),
            )
        errs.append(worst)
    assert errs[1] < errs[0]
    assert errs[1] < 5e-2


def test_assembly_paths_agree():
    # the mode assembly and the two-kernel displays group the sums
    # differently: equal to roundoff, but not bit for bit
    mesh = build_sphere_mesh(1.0, 2)
    e_tr, h_tr, _, _ = _traces(mesh)
    e1, h1 = reconstruct_eh(mesh, e_tr, h_tr, None, MEDIUM, None, PROBES)
    e2, h2 = two_kernel_eh(mesh, e_tr, h_tr, MEDIUM, PROBES)
    scale = np.maximum(q.norm(e1), q.norm(h1))
    gap = np.maximum(q.norm(e1 - e2), q.norm(h1 - h2)) / scale
    assert np.all(gap < 1e-10)
    assert np.any(gap > 0.0)


def test_source_requires_quadrature():
    mesh = build_sphere_mesh(1.0, 2)
    e_tr, h_tr, _, _ = _traces(mesh)
    from quatem.fields import abc_beltrami

    src = SourceData(
        j=abc_beltrami(0.5),
        div_j=lambda x: np.zeros(np.asarray(x).shape[:-1], dtype=complex),
    )
    with pytest.raises(ValueError):
        reconstruct_eh(mesh, e_tr, h_tr, src, MEDIUM, None, PROBES[0])


def test_batched_reconstruction_matches_pointwise():
    # one call on all probes equals one call per probe, with and without a
    # (divergence-free) source whose volume terms contribute
    from quatem.fields import abc_beltrami

    mesh = build_sphere_mesh(1.0, 2)
    quad = build_ball_quadrature(1.0, 2)
    e_tr, h_tr, _, _ = _traces(mesh)
    src = SourceData(
        j=abc_beltrami(0.5),
        div_j=lambda x: np.zeros(np.asarray(x).shape[:-1], dtype=complex),
    )
    free_e, _ = reconstruct_eh(mesh, e_tr, h_tr, None, MEDIUM, None, PROBES)
    for source, quadrature in ((None, None), (src, quad)):
        e_all, h_all = reconstruct_eh(mesh, e_tr, h_tr, source, MEDIUM, quadrature, PROBES)
        assert e_all.shape == h_all.shape == (len(PROBES), 4)
        for x, e_row, h_row in zip(PROBES, e_all, h_all):
            e_x, h_x = reconstruct_eh(mesh, e_tr, h_tr, source, MEDIUM, quadrature, x)
            assert e_x.shape == (4,)
            assert np.allclose(e_row, e_x, rtol=0.0, atol=1e-14)
            assert np.allclose(h_row, h_x, rtol=0.0, atol=1e-14)
    assert q.is_finite(e_all) and q.norm(e_all - free_e).max() > 1e-3


def test_phi_psi_representation_matches_modes():
    mesh = build_sphere_mesh(1.0, 2)
    e_tr, h_tr, e_field, h_field = _traces(mesh)
    from quatem.maxwell import split_values

    phi_v, psi_v = split_values(q.vector(e_tr), q.vector(h_tr))
    phi_d = BoundaryDensity(mesh, phi_v)
    psi_d = BoundaryDensity(mesh, psi_v)
    phi_x, psi_x = phi_psi_representation(phi_d, psi_d, None, MEDIUM, None, PROBES[0])
    exact_phi = e_field.value(PROBES[0]) + 1j * h_field.value(PROBES[0])
    assert q.norm(phi_x - exact_phi) / q.norm(exact_phi) < 0.1


def _proper_rotation(rng):
    qmat, r = np.linalg.qr(rng.standard_normal((3, 3)))
    qmat = qmat * np.sign(np.diag(r))
    return qmat if np.linalg.det(qmat) > 0 else -qmat


@pytest.mark.parametrize("mesh", [SPHERE2, ELLIPSOID2], ids=["sphere", "ellipsoid"])
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       shift=st.lists(st.floats(-5.0, 5.0), min_size=3, max_size=3))
def test_reconstruction_equivariant_under_rigid_motion(mesh, seed, shift):
    # x -> R x + b moves mesh and probes; traces rotate with R, so E and H
    # rotate too and their scalar parts stay (any traces, not only genuine)
    rng = np.random.default_rng(seed)
    rot = _proper_rotation(rng)
    shape = (mesh.n_triangles, 3)
    e_tr, h_tr = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
                  for _ in "eh")
    moved = mesh_from_arrays(mesh.vertices @ rot.T + shift, mesh.triangles)
    before = reconstruct_eh(mesh, e_tr, h_tr, None, MEDIUM, None, INNER_PROBES)
    after = reconstruct_eh(moved, e_tr @ rot.T, h_tr @ rot.T, None, MEDIUM, None,
                           INNER_PROBES @ rot.T + shift)
    for old, new in zip(before, after):
        expected = np.concatenate([old[:, :1], old[:, 1:] @ rot.T], axis=1)
        assert np.abs(new - expected).max() <= 1e-12 * q.norm(old).max()


def test_extendibility_genuine_traces_pass():
    mesh = build_sphere_mesh(1.0, 3)
    e_tr, h_tr, _, _ = _traces(mesh)
    report = extendibility_residual(mesh, e_tr, h_tr, MEDIUM)
    assert isinstance(report, ExtendibilityReport)
    assert report.extrapolation == "quadratic"
    assert report.rms < 5e-2
    assert report.residual_e.shape == (mesh.n_triangles,)
    assert report.rms <= max(report.max_e, report.max_h)


def test_extendibility_discriminates_perturbation():
    mesh = build_sphere_mesh(1.0, 3)
    e_tr, h_tr, _, _ = _traces(mesh)
    r0 = extendibility_residual(mesh, e_tr, h_tr, MEDIUM).rms
    e_p, h_p = perturb_traces(mesh, e_tr, h_tr, 0.10, seed=42)
    r1 = extendibility_residual(mesh, e_p, h_p, MEDIUM).rms
    assert r1 >= 5.0 * r0


def test_extendibility_validation():
    mesh = build_sphere_mesh(1.0, 2)
    e_tr, h_tr, _, _ = _traces(mesh)
    with pytest.raises(ValueError):
        extendibility_residual(mesh, e_tr, h_tr, MEDIUM, extrapolation="cubic")
    with pytest.raises(ValueError):
        extendibility_residual(mesh, e_tr[:5], h_tr[:5], MEDIUM)
    # level 2 is too coarse for the quadratic rule's offsets at 3 depths
    with pytest.raises(ValueError, match=r"quadratic extrapolation offsets down to 3 x "
                                         r"depth 0\.392585 = 1\.17776, .*: a finer mesh "
                                         r"would run$"):
        extendibility_residual(mesh, e_tr, h_tr, MEDIUM)


def test_perturbation_is_tangential_and_deterministic():
    mesh = build_sphere_mesh(1.0, 2)
    e_tr, h_tr, _, _ = _traces(mesh)
    e1, h1 = perturb_traces(mesh, e_tr, h_tr, 0.1, seed=7)
    e2, h2 = perturb_traces(mesh, e_tr, h_tr, 0.1, seed=7)
    assert np.array_equal(e1, e2) and np.array_equal(h1, h2)
    noise = e1 - e_tr
    normal_comp = np.abs(np.einsum("ti,ti->t", noise, mesh.normals.astype(complex)))
    assert normal_comp.max() < 1e-12
    rms = np.sqrt(np.mean(np.sum(np.abs(e_tr) ** 2, axis=1)))
    amp = np.linalg.norm(noise, axis=1)
    assert np.allclose(amp, 0.1 * rms, rtol=1e-12)
