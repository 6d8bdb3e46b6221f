"""Mesh generation, orientation diagnostics, quadrature rules, OFF I/O."""

import numpy as np
import pytest

from quatem.errors import CapacityError, TopologyError
from quatem.geometry import (
    build_ball_quadrature,
    build_sphere_mesh,
    checked_normals,
    interior_offset_points,
    load_off,
    mesh_from_arrays,
    save_off,
)

TETRA_VERTICES = np.array(
    [[1.0, 1.0, 1.0], [1.0, -1.0, -1.0], [-1.0, 1.0, -1.0], [-1.0, -1.0, 1.0]]
)
TETRA_FACES_OUT = np.array([[0, 1, 2], [0, 3, 1], [0, 2, 3], [1, 3, 2]])


def test_icosphere_counts_and_radius():
    for level in (0, 1, 2):
        mesh = build_sphere_mesh(2.0, level)
        assert mesh.n_triangles == 20 * 4**level
        assert np.allclose(np.linalg.norm(mesh.vertices, axis=1), 2.0)


def test_icosphere_area_converges_to_sphere():
    exact = 4.0 * np.pi
    err = [abs(build_sphere_mesh(1.0, lv).area - exact) for lv in (1, 2, 3)]
    assert err[0] > err[1] > err[2]
    assert err[2] / exact < 5e-3


def test_icosphere_outward_and_closed():
    mesh = build_sphere_mesh(1.0, 2)
    check = checked_normals(mesh)
    assert check.consistent_orientation
    assert check.flux_residual < 1e-12
    assert check.signed_volume > 0
    assert check.divergence_residual < 1e-12
    # normals point along the radius on a sphere
    radial = mesh.centroids / np.linalg.norm(mesh.centroids, axis=1)[:, None]
    assert np.einsum("ti,ti->t", radial, mesh.normals).min() > 0.99


def test_signed_volume_converges():
    vol = checked_normals(build_sphere_mesh(1.0, 4)).signed_volume
    assert vol == pytest.approx(4.0 * np.pi / 3.0, rel=3e-3)


def test_quadrature_weights_sum_to_areas():
    for k in (1, 3):
        mesh = build_sphere_mesh(1.0, 1, nodes_per_triangle=k)
        assert mesh.nodes_per_triangle == k
        assert np.allclose(mesh.quad_weights.sum(axis=1), mesh.areas)
        assert mesh.quad_points.shape == (mesh.n_triangles, k, 3)


def test_three_point_rule_exact_for_quadratics():
    # integrate x*y over one flat triangle and compare with the exact value
    verts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    # closed tetra so mesh_from_arrays is happy about shape; use face 0 only
    mesh = mesh_from_arrays(
        np.vstack([verts, [[0.3, 0.3, 1.0]]]),
        np.array([[0, 1, 2], [0, 3, 1], [1, 3, 2], [0, 2, 3]]),
        nodes_per_triangle=3,
    )
    pts, wts = mesh.quad_points[0], mesh.quad_weights[0]
    integral = np.sum(wts * pts[:, 0] * pts[:, 1])
    assert integral == pytest.approx(1.0 / 24.0, rel=1e-12)


def test_open_mesh_rejected():
    with pytest.raises(TopologyError):
        checked_normals(mesh_from_arrays(TETRA_VERTICES, TETRA_FACES_OUT[:3]))


def test_flipped_triangle_detected():
    faces = TETRA_FACES_OUT.copy()
    faces[0] = faces[0][::-1]
    check = checked_normals(mesh_from_arrays(TETRA_VERTICES, faces))
    assert not check.consistent_orientation
    assert check.flux_residual > 1e-3


def test_inward_winding_detected_by_sign():
    check = checked_normals(mesh_from_arrays(TETRA_VERTICES, TETRA_FACES_OUT[:, ::-1]))
    assert check.consistent_orientation
    assert check.signed_volume < 0


def test_degenerate_triangle_rejected():
    verts = np.array([[0.0, 0, 0], [1, 0, 0], [2, 0, 0], [0, 1, 0]])
    with pytest.raises(TopologyError):
        mesh_from_arrays(verts, np.array([[0, 1, 2], [0, 2, 3], [0, 3, 1], [1, 3, 2]]))


def test_capacity_limit():
    with pytest.raises(CapacityError):
        build_sphere_mesh(1.0, 8)
    with pytest.raises(ValueError):
        build_sphere_mesh(-1.0, 2)
    with pytest.raises(ValueError):
        build_sphere_mesh(1.0, -1)


def test_ball_quadrature_volume_and_interior():
    quad = build_ball_quadrature(1.5, 2)
    assert quad.volume == pytest.approx(4.0 / 3.0 * np.pi * 1.5**3, rel=1e-12)
    r = np.linalg.norm(quad.points, axis=1)
    assert r.max() < 1.5
    assert np.all(quad.weights > 0)


def test_ball_quadrature_polynomial_moment():
    # int_{|x|<1} x1^2 dV = 4*pi/15
    quad = build_ball_quadrature(1.0, 3)
    moment = np.sum(quad.weights * quad.points[:, 0] ** 2)
    assert moment == pytest.approx(4.0 * np.pi / 15.0, rel=1e-3)


def test_ball_quadrature_radial_order_scales():
    n_dirs = 20 * 4**3
    assert len(build_ball_quadrature(1.0, 3, radial_order=8).points) == 8 * n_dirs
    assert len(build_ball_quadrature(1.0, 3).points) == 16 * n_dirs  # default doubles


def test_interior_offset_points():
    mesh = build_sphere_mesh(1.0, 2)
    pts = interior_offset_points(mesh, 0.1)
    assert pts.shape == (mesh.n_triangles, 3)
    assert np.allclose(np.linalg.norm(pts - mesh.centroids, axis=1), 0.1)
    r = np.linalg.norm(pts, axis=1)
    assert np.all(r < 1.0)
    with pytest.raises(ValueError):
        interior_offset_points(mesh, 5.0)  # deeper than the inradius
    with pytest.raises(ValueError):
        interior_offset_points(mesh, -0.1)


def test_off_roundtrip(tmp_path):
    mesh = build_sphere_mesh(1.0, 1)
    path = tmp_path / "m.off"
    save_off(mesh, path)
    loaded = load_off(path)
    assert np.array_equal(loaded.triangles, mesh.triangles)
    assert np.array_equal(loaded.vertices, mesh.vertices)  # %.17g is lossless
    assert np.allclose(loaded.normals, mesh.normals)


def test_off_rejects_garbage(tmp_path):
    path = tmp_path / "bad.off"
    path.write_text("PLY\n1 2 3\n")
    with pytest.raises(TopologyError):
        load_off(path)
