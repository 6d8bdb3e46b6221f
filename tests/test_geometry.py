"""Mesh generation, orientation diagnostics, quadrature rules, OFF I/O."""

import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quatem.cli import main
from quatem.errors import CapacityError, TopologyError
from quatem.geometry import (
    build_ball_quadrature,
    build_sphere_mesh,
    checked_normals,
    load_off,
    mesh_from_arrays,
    save_off,
)

TETRA_VERTICES = np.array(
    [[1.0, 1.0, 1.0], [1.0, -1.0, -1.0], [-1.0, 1.0, -1.0], [-1.0, -1.0, 1.0]]
)
TETRA_FACES_OUT = np.array([[0, 1, 2], [0, 3, 1], [0, 2, 3], [1, 3, 2]])
ELLIPSOID_AXES = np.array([1.0, 0.7, 0.4])
TETRA_OFF = "OFF\n4 4 0\n1 1 1\n1 -1 -1\n-1 1 -1\n-1 -1 1\n" \
    "3 0 1 2\n3 0 3 1\n3 0 2 3\n3 1 3 2\n"


def _subdivide_reference(vertices, faces):
    """Midpoint subdivision edge by edge, with a dict of the midpoints made
    so far: the reference for the array version in build_sphere_mesh."""
    verts = list(vertices)
    cache = {}

    def midpoint(i, j):
        key = (i, j) if i < j else (j, i)
        if key not in cache:
            m = verts[i] + verts[j]
            m /= np.linalg.norm(m)
            cache[key] = len(verts)
            verts.append(m)
        return cache[key]

    new_faces = []
    for a, b, c in faces:
        ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
        new_faces.extend([(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)])
    return np.array(verts), np.array(new_faces, dtype=int)


def test_icosphere_counts_and_radius():
    for level in (0, 1, 2):
        mesh = build_sphere_mesh(2.0, level)
        assert mesh.n_triangles == 20 * 4**level
        assert np.allclose(np.linalg.norm(mesh.vertices, axis=1), 2.0)


def test_subdivision_matches_reference_loop():
    base = build_sphere_mesh(1.0, 0)
    vertices, faces = base.vertices, base.triangles
    for level in range(1, 5):
        vertices, faces = _subdivide_reference(vertices, faces)
        mesh = build_sphere_mesh(1.0, level)
        assert np.array_equal(mesh.triangles, faces)
        assert mesh.vertices.tobytes() == vertices.tobytes()


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


def _ellipsoid(level):
    """An icosphere scaled along the coordinate axes: a closed,
    outward-wound surface that is not a sphere."""
    sphere = build_sphere_mesh(1.0, level)
    return mesh_from_arrays(sphere.vertices * ELLIPSOID_AXES, sphere.triangles)


def test_checked_normals_on_ellipsoid():
    ellipsoid = _ellipsoid(3)
    vertices, faces = ellipsoid.vertices, ellipsoid.triangles
    check = checked_normals(ellipsoid)
    assert check.consistent_orientation
    assert check.flux_residual < 1e-12
    assert check.divergence_residual < 1e-12
    # a linear map scales the enclosed volume by its determinant
    sphere_volume = checked_normals(build_sphere_mesh(1.0, 3)).signed_volume
    assert check.signed_volume == pytest.approx(
        np.prod(ELLIPSOID_AXES) * sphere_volume, rel=1e-12)

    inward = checked_normals(mesh_from_arrays(vertices, faces[:, ::-1]))
    assert inward.consistent_orientation
    assert inward.signed_volume == pytest.approx(-check.signed_volume, rel=1e-12)

    flipped = faces.copy()
    flipped[7] = flipped[7, ::-1]
    assert not checked_normals(mesh_from_arrays(vertices, flipped)).consistent_orientation

    with pytest.raises(TopologyError):
        checked_normals(mesh_from_arrays(vertices, np.delete(faces, 7, axis=0)))


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
    assert len(build_ball_quadrature(1.0, 3).points) == 16 * n_dirs  # order doubles


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


def _unit_quaternion_rotation(w, x, y, z):
    n = np.sqrt(w * w + x * x + y * y + z * z)
    w, x, y, z = w / n, x / n, y / n, z / n
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4).filter(
           lambda v: np.linalg.norm(v) > 0.1),
       st.lists(st.floats(-10.0, 10.0), min_size=3, max_size=3),
       st.floats(0.1, 10.0))
def test_off_roundtrip_under_rigid_motion_and_scaling(rotation, shift, scale):
    ellipsoid = _ellipsoid(1)
    moved = scale * ellipsoid.vertices @ _unit_quaternion_rotation(*rotation).T + shift
    mesh = mesh_from_arrays(moved, ellipsoid.triangles)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.off")
        save_off(mesh, path)
        loaded = load_off(path)
    assert np.array_equal(loaded.triangles, mesh.triangles)
    assert loaded.vertices.tobytes() == mesh.vertices.tobytes()
    assert loaded.normals.tobytes() == mesh.normals.tobytes()
    check = checked_normals(loaded)
    assert check.consistent_orientation
    assert check.signed_volume == pytest.approx(
        scale**3 * checked_normals(ellipsoid).signed_volume, rel=1e-9)


@pytest.mark.parametrize("text", [
    pytest.param("OFF\n", id="header only"),
    pytest.param(TETRA_OFF[:TETRA_OFF.rindex("3 1 3 2")], id="truncated face list"),
    pytest.param(TETRA_OFF.replace("3 1 3 2", "3 1 3 4"), id="face index past the vertices"),
    pytest.param(TETRA_OFF.replace("3 1 3 2", "3 1 -1 2"), id="negative face index"),
])
def test_off_rejects_bad_input(tmp_path, text):
    path = tmp_path / "bad.off"
    path.write_text(text)
    with pytest.raises(TopologyError):
        load_off(path)


def test_cli_rejects_bad_off(tmp_path, capsys):
    path = tmp_path / "bad.off"
    path.write_text(TETRA_OFF.replace("3 1 3 2", "3 1 -1 2"))
    assert main(["gen-field", "--family", "chiral-exact", "--mesh", str(path),
                 "--out", str(tmp_path / "t.csv")]) == 2
    assert "out of range" in capsys.readouterr().err
