"""Mesh generation, orientation diagnostics, quadrature rules, OFF I/O."""

import os
import re
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quatem.cli import main
from quatem.errors import CapacityError, TopologyError
from quatem.geometry import (
    POLAR_ORDERS,
    build_sphere_mesh,
    checked_normals,
    load_off,
    mesh_from_arrays,
    polar_ball_rule,
    save_off,
    sphere_rule,
)

from oracles import ELLIPSOID_AXES, divergence_residual, torus_mesh

TETRA_VERTICES = np.array(
    [[1.0, 1.0, 1.0], [1.0, -1.0, -1.0], [-1.0, 1.0, -1.0], [-1.0, -1.0, 1.0]]
)
TETRA_FACES_OUT = np.array([[0, 1, 2], [0, 3, 1], [0, 2, 3], [1, 3, 2]])
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
    # the two number the midpoints differently, but every triangle's corners
    # are the same points, bit for bit, in the same order
    base = build_sphere_mesh(1.0, 0)
    vertices, faces = base.vertices, base.triangles
    for level in range(1, 5):
        vertices, faces = _subdivide_reference(vertices, faces)
        mesh = build_sphere_mesh(1.0, level)
        assert len(mesh.vertices) == len(vertices)
        assert mesh.vertices[mesh.triangles].tobytes() == vertices[faces].tobytes()


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
    assert divergence_residual(mesh) < 1e-12
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
    assert divergence_residual(ellipsoid) < 1e-12
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
    faces = np.array([[0, 1, 2], [0, 2, 3], [0, 3, 1], [1, 3, 2]])
    with pytest.raises(TopologyError):
        mesh_from_arrays(verts, faces)
    # a tetrahedron scaled so far that its doubled areas overflow, refused
    # without a NumPy warning, as gen-mesh --radius 1e160 is
    tetra = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]])
    with pytest.raises(TopologyError, match="area out of floating-point range"):
        mesh_from_arrays(1e160 * tetra, np.array([[0, 2, 1], [0, 1, 3], [0, 3, 2], [1, 2, 3]]))


def test_capacity_limit():
    with pytest.raises(CapacityError):
        build_sphere_mesh(1.0, 8)
    with pytest.raises(ValueError):
        build_sphere_mesh(-1.0, 2)
    with pytest.raises(ValueError):
        build_sphere_mesh(1.0, -1)


# targets of the polar rule: the centre, verify-bp's largest probe radius
# (0.47) and two nearer the sphere, scaled to the ball of radius 1.5
_BALL_TARGETS = 1.5 * np.array([[0.0, 0.0, 0.0], [0.25, 0.3, 0.15], [-0.4, 0.3, 0.5],
                                [0.1, -0.85, 0.2]])


def test_ball_quadrature_volume_and_interior():
    rule = polar_ball_rule(1.5)
    assert len(rule.points) == np.prod(POLAR_ORDERS)
    assert np.linalg.norm(rule.points, axis=1).max() < 1.0  # reference nodes t s
    y, w = rule.nodes(_BALL_TARGETS)
    assert y.shape == (len(_BALL_TARGETS), len(rule.points), 3)
    assert np.linalg.norm(y, axis=-1).max() < 1.5
    assert np.all(w > 0)
    volume = 4.0 / 3.0 * np.pi * 1.5**3
    # exact about the centre, where rho = radius in every direction; the
    # angular rule sees rho(s) vary faster the nearer the target is to the
    # sphere: relative errors 6e-16, 3e-13, 6e-9 and 4e-7 at |x| / radius =
    # 0, 0.42, 0.71 and 0.88
    errors = np.abs(w.sum(axis=1) - volume) / volume
    assert np.all(errors <= [1e-14, 1e-11, 1e-7, 1e-5])


def test_ball_quadrature_polynomial_moment():
    # int_{|x|<1} x1^2 dV = 4*pi/15 from every target: relative errors 5e-16,
    # 9e-12, 3e-8 and 2e-7
    y, w = polar_ball_rule(1.0).nodes(_BALL_TARGETS / 1.5)
    errors = np.abs(np.sum(w * y[..., 0] ** 2, axis=1) / (4.0 * np.pi / 15.0) - 1.0)
    assert np.all(errors <= [1e-14, 1e-10, 1e-6, 1e-5])


def test_ball_quadrature_radial_order_scales():
    # the orders (n_r, n_cos, n_phi) set the nodes per target: doubling the
    # radial order doubles them, doubling every order (the reference rule of
    # the volume operator's tests) gives 8 times as many; each rule's
    # reference nodes lie on n_r spheres inside the unit ball, and its
    # weights sum to the unit ball's volume
    base = polar_ball_rule(1.0)
    for orders, factor in (((16, 8, 16), 2), ((16, 16, 32), 8)):
        rule = polar_ball_rule(1.0, orders)
        assert len(rule.points) == len(rule.weights) == factor * len(base.points) \
            == np.prod(orders)
        t = np.linalg.norm(rule.points, axis=1)
        assert len(np.unique(t.round(12))) == orders[0] and 0.0 < t.min() and t.max() < 1.0
        assert rule.weights.sum() == pytest.approx(4.0 * np.pi / 3.0, rel=1e-14)


@pytest.mark.parametrize("target", [[0.0, 0.0, 1.5], [1.0, 1.0, 1.0], [3.0, 0.0, 0.0]])
def test_ball_rule_refuses_a_target_not_inside(target):
    # on the sphere rho vanishes in half the directions, outside it is negative
    with pytest.raises(ValueError, match=r"volume target \[.*\] is not inside the ball "
                                         r"of radius 1.5"):
        polar_ball_rule(1.5).nodes(np.vstack([_BALL_TARGETS[:2], target]))


def test_sphere_rule_lies_on_the_sphere_and_is_fourth_order():
    # the area and the second moment int x1^2 dS = 4*pi*R**4/3 at levels 2-4;
    # each error falls 16-fold per level, where the flat centroid rule's
    # area error falls 4-fold
    radius, area_err, moment_err = 1.3, [], []
    for level in (2, 3, 4):
        rule, mesh = sphere_rule(radius, level), build_sphere_mesh(radius, level)
        assert len(rule.points) == 3 * mesh.n_triangles
        assert rule.spacing == mesh.spacing
        assert np.allclose(np.linalg.norm(rule.points, axis=1), radius, rtol=1e-15, atol=0.0)
        assert np.allclose(rule.normals, rule.points / radius, rtol=0.0, atol=1e-15)
        assert np.all(rule.weights > 0)
        # triangle by triangle: the nodes of triangle t project points of t
        corners = mesh.vertices[mesh.triangles]
        node_tri = rule.points.reshape(-1, 3, 3)
        assert np.all(np.einsum("tnk,tk->tn", node_tri - corners[:, :1], mesh.normals)
                      >= 0.0)
        area_err.append(abs(rule.weights.sum() - 4.0 * np.pi * radius**2))
        moment_err.append(abs(np.sum(rule.weights * rule.points[:, 0] ** 2)
                              - 4.0 * np.pi * radius**4 / 3.0))
    for errors in (area_err, moment_err):
        assert all(15.0 < coarse / fine < 17.0 for coarse, fine in zip(errors, errors[1:]))


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


@pytest.mark.parametrize("text, message", [
    pytest.param("OFF\n", "not an ASCII OFF file", id="header only"),
    pytest.param(TETRA_OFF[:TETRA_OFF.rindex("3 1 3 2")], "declares 4 vertices and 4 faces",
                 id="truncated face list"),
    pytest.param(TETRA_OFF.replace("4 4 0", "4 3 0"), "declares 4 vertices and 3 faces",
                 id="face past those declared"),
    pytest.param(TETRA_OFF.replace("3 1 3 2", "3 1 3 4"), "face index out of range 0..3",
                 id="face index past the vertices"),
    pytest.param(TETRA_OFF.replace("3 1 3 2", "3 1 -1 2"), "face index out of range 0..3",
                 id="negative face index"),
    pytest.param(TETRA_OFF.replace("-1 1 -1", "-1 nan -1"), "a vertex coordinate is not finite",
                 id="non-finite vertex"),
    pytest.param(TETRA_OFF.replace("4 4 0", "4 x 0"), "'x' in the counts is not an integer",
                 id="count not a number"),
    pytest.param(TETRA_OFF.replace("-1 1 -1", "-1 x -1"), "'x' in vertex 2 is not a number",
                 id="vertex not a number"),
    pytest.param(TETRA_OFF.replace("3 1 3 2", "3 1 3 x"), "'x' in face 3 is not an integer",
                 id="face index not a number"),
    pytest.param(TETRA_OFF.replace("3 1 3 2", "3 1 3 2.0"), "'2.0' in face 3 is not an integer",
                 id="face index not an integer"),
    pytest.param(TETRA_OFF.replace("3 1 3 2", "3 1 3 99999999999999999999"),
                 "'99999999999999999999' in face 3 is out of the 64-bit integer range",
                 id="face index past int64"),
    pytest.param(TETRA_OFF.replace("4 4 0", "4 -99999999999999999999 0"),
                 "'-99999999999999999999' in the counts is out of the 64-bit integer range",
                 id="count past int64"),
    pytest.param(TETRA_OFF.replace("3 1 3 2", "4 1 3 2"), "a face is not a triangle",
                 id="face not a triangle"),
    pytest.param(TETRA_OFF.replace("4 4 0", "4 3 0")[:TETRA_OFF.rindex("3 1 3 2")],
                 "mesh is not closed", id="open"),
    pytest.param(TETRA_OFF.replace("3 1 3 2", "3 1 2 3"),
                 "mesh is not wound consistently outward (signed volume 1.33333)",
                 id="one face flipped"),
    pytest.param(TETRA_OFF.replace("3 0 1 2\n3 0 3 1\n3 0 2 3\n3 1 3 2",
                                   "3 0 2 1\n3 0 1 3\n3 0 3 2\n3 1 2 3"),
                 "mesh is not wound consistently outward (signed volume -2.66667)",
                 id="wound inward"),
])
def test_off_rejects_bad_input(tmp_path, text, message):
    path = tmp_path / "bad.off"
    path.write_text(text)
    with pytest.raises(TopologyError) as refusal:
        load_off(path)
    assert str(refusal.value).startswith("OFF file %s: " % path) and message in str(refusal.value)


def test_torus_is_closed_outward_and_its_volume_converges():
    # the volume inside the torus is 2 pi**2 R r**2; the polyhedra's
    # relative errors read 2.95e-2, 7.4e-3, 1.9e-3 at 40x16, 80x32, 160x64
    spacing, errors = [], []
    for nu, nv in ((40, 16), (80, 32), (160, 64)):
        mesh = torus_mesh(nu, nv, R=1.0, r=0.4)
        check = checked_normals(mesh)
        assert mesh.n_triangles == 2 * nu * nv and check.consistent_orientation
        assert check.flux_residual < 1e-13
        spacing.append(mesh.spacing)
        errors.append(abs(check.signed_volume / (2.0 * np.pi**2 * 1.0 * 0.4**2) - 1.0))
    order = np.polyfit(np.log(spacing), np.log(errors), 1)[0]
    assert order >= 1.8, "fitted order %.3f from errors %s" % (order, errors)


def test_torus_off_roundtrip_and_a_flipped_triangle(tmp_path):
    mesh = torus_mesh(40, 16)
    path = tmp_path / "torus.off"
    save_off(mesh, path)
    loaded = load_off(path)
    assert np.array_equal(loaded.triangles, mesh.triangles)
    assert loaded.vertices.tobytes() == mesh.vertices.tobytes()
    triangles = mesh.triangles.copy()
    triangles[7] = triangles[7, ::-1]
    save_off(mesh_from_arrays(mesh.vertices, triangles), path)
    with pytest.raises(TopologyError, match=re.escape("OFF file %s: mesh is not wound "
                                                      "consistently outward" % path)):
        load_off(path)


def test_cli_rejects_bad_off(tmp_path, capsys):
    path = tmp_path / "bad.off"
    path.write_text(TETRA_OFF.replace("3 1 3 2", "3 1 -1 2"))
    assert main(["gen-field", "--family", "chiral-exact", "--mesh", str(path),
                 "--out", str(tmp_path / "t.csv")]) == 2
    assert "out of range" in capsys.readouterr().err
