"""The array writers of the OFF, ball-rule, trace and field-sample files,
byte for byte against line-by-line reference writers, and the trace reader
on their output."""

import csv
import json

import numpy as np
import pytest

from quatem import quaternions as q
from quatem.cli import _load_traces, _save_traces, main
from quatem.errors import ConfigError
from quatem.fields import abc_beltrami, polynomial_field
from quatem.geometry import (
    build_ball_quadrature,
    build_sphere_mesh,
    load_off,
    save_off,
    save_quadrature_csv,
)


def test_off_bytes(tmp_path):
    mesh = build_sphere_mesh(1.3, 2)
    lines = ["OFF\n%d %d 0\n" % (len(mesh.vertices), len(mesh.triangles))]
    lines += ["%.17g %.17g %.17g\n" % tuple(v) for v in mesh.vertices]
    lines += ["3 %d %d %d\n" % tuple(t) for t in mesh.triangles]
    save_off(mesh, tmp_path / "m.off")
    assert (tmp_path / "m.off").read_bytes() == "".join(lines).encode()


def test_ball_csv_bytes(tmp_path):
    quad = build_ball_quadrature(1.3, 1)
    reference = tmp_path / "reference.csv"
    with open(reference, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "y", "z", "w"])
        for p, w in zip(quad.points, quad.weights):
            writer.writerow(["%.17g" % v for v in (*p, w)])
    save_quadrature_csv(quad, tmp_path / "b.csv")
    assert (tmp_path / "b.csv").read_bytes() == reference.read_bytes()


def test_trace_csv_bytes_and_roundtrip(tmp_path):
    rng = np.random.default_rng(5)
    n = 37
    scale = 10.0 ** rng.integers(-30, 30, size=(2, n, 3))
    e, h = (rng.normal(size=(2, n, 3)) + 1j * rng.normal(size=(2, n, 3))) * scale
    e[0, 0] = -0.0
    reference = tmp_path / "reference.csv"
    with open(reference, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["triangle"] + ["%s%d_%s" % (f, i, p) for f in "eh"
                                        for i in (1, 2, 3) for p in ("re", "im")])
        for t in range(n):
            writer.writerow([t] + ["%.17g" % part for z in (*e[t], *h[t])
                                   for part in (z.real, z.imag)])
    path = tmp_path / "t.csv"
    _save_traces(path, e, h)
    assert path.read_bytes() == reference.read_bytes()
    e_back, h_back = _load_traces(path, n)
    assert e_back.tobytes() == e.tobytes()
    assert h_back.tobytes() == h.tobytes()


@pytest.mark.parametrize("family", ["abc-beltrami", "polynomial"])
def test_field_sample_csv_bytes(tmp_path, family):
    save_off(build_sphere_mesh(1.3, 2), tmp_path / "m.off")
    mesh = load_off(tmp_path / "m.off")
    if family == "abc-beltrami":
        options = ["--wave-parameter", "0.8+0.3j", "--amplitudes", "0.5,-1.2,0"]
        field = abc_beltrami(0.8 + 0.3j, 0.5, -1.2, 0.0)
    else:
        rng = np.random.default_rng(6)
        coeffs = rng.normal(size=(4, 10)) + 1j * rng.normal(size=(4, 10))
        coeffs[0, 0] = -0.0
        (tmp_path / "c.json").write_text(json.dumps(
            [[[c.real, c.imag] for c in row] for row in coeffs]))
        options = ["--coeffs-file", str(tmp_path / "c.json")]
        field = polynomial_field(coeffs)
    reference = tmp_path / "reference.csv"
    with open(reference, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["triangle", "x", "y", "z", "q"])
        for t, (p, v) in enumerate(zip(mesh.centroids, field.value(mesh.centroids))):
            writer.writerow([t, "%.17g" % p[0], "%.17g" % p[1], "%.17g" % p[2], q.to_text(v)])
    path = tmp_path / "s.csv"
    assert main(["gen-field", "--family", family, "--mesh", str(tmp_path / "m.off"),
                 "--out", str(path)] + options) == 0
    assert path.read_bytes() == reference.read_bytes()


def test_trace_reader_rejects_fractional_triangle(tmp_path):
    path = tmp_path / "t.csv"
    _save_traces(path, np.ones((3, 3), dtype=complex), np.ones((3, 3), dtype=complex))
    text = path.read_text().replace("\n1,", "\n1.5,")
    path.write_text(text)
    with pytest.raises(ConfigError, match="triangle 1.5 out of range"):
        _load_traces(path, 3)
