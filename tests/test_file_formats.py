"""The array writers of the OFF, trace and kernel-probe files against
line-by-line reference writers (byte for byte except the kernel probe's
upsilon columns), and the trace reader on their output."""

import csv
import re

import numpy as np
import pytest

from quatem import quaternions as q
from quatem.cli import _load_traces, _save_traces, main
from quatem.errors import ConfigError
from quatem.kernels import theta, upsilon
from quatem.geometry import build_sphere_mesh, save_off


def test_off_bytes(tmp_path):
    mesh = build_sphere_mesh(1.3, 2)
    lines = ["OFF\n%d %d 0\n" % (len(mesh.vertices), len(mesh.triangles))]
    lines += ["%.17g %.17g %.17g\n" % tuple(v) for v in mesh.vertices]
    lines += ["3 %d %d %d\n" % tuple(t) for t in mesh.triangles]
    save_off(mesh, tmp_path / "m.off")
    assert (tmp_path / "m.off").read_bytes() == "".join(lines).encode()


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


def test_kernel_probe_csv(tmp_path):
    alpha, count = 1.0 + 0.3j, 50
    direction = np.array([1.0, 0.0, 0.0])  # the +x ray
    reference = tmp_path / "reference.csv"
    with open(reference, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["r", "theta_re", "theta_im"]
                        + ["upsilon%d_%s" % (i, p) for i in range(4) for p in ("re", "im")])
        for r in np.linspace(0.1, 2.0, count):
            th, ups = theta(alpha, r * direction), upsilon(alpha, 1, r * direction)
            writer.writerow(["%.17g" % v for v in (r, th.real, th.imag, *ups.view(float))])
    path = tmp_path / "kp.csv"
    assert main(["kernel-probe", "--alpha", "1+0.3j", "--count", str(count),
                 "--out", str(path)]) == 0
    with open(reference, newline="") as fh:
        expected = list(csv.reader(fh))
    with open(path, newline="") as fh:
        got = list(csv.reader(fh))
    assert path.read_bytes().count(b"\r\n") == count + 1
    assert got[0] == expected[0] and len(got) == len(expected) == count + 1
    assert all(len(row) == 11 and row[:3] == ref[:3] for row, ref in zip(got, expected))
    # the batched evaluation may round the last digit of upsilon differently
    for row, ref in zip(got[1:], expected[1:]):
        ups, ups_ref = (np.array(cells[3:], dtype=float).view(complex) for cells in (row, ref))
        assert q.norm(ups - ups_ref) <= 1e-14 * q.norm(ups_ref)


def test_trace_reader_rejects_fractional_triangle(tmp_path):
    path = tmp_path / "t.csv"
    _save_traces(path, np.ones((3, 3), dtype=complex), np.ones((3, 3), dtype=complex))
    text = path.read_text().replace("\n1,", "\n1.5,")
    path.write_text(text)
    message = "trace file %s: row 1 holds triangle 1.5: row i must hold" % path
    with pytest.raises(ConfigError, match=re.escape(message)):
        _load_traces(path, 3)
