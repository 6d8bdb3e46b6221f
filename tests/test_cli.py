"""End-to-end runs of the command-line driver: artifacts and exit codes."""

import argparse
import csv
import json

import numpy as np
import pytest

from quatem import quaternions as q
from quatem.cli import _load_traces, build_parser, main
from quatem.fields import exact_chiral_solution
from quatem.geometry import load_off, mesh_from_arrays, save_off
from quatem.maxwell import make_medium


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Level-2 mesh plus genuine exact-solution traces, generated once."""
    root = tmp_path_factory.mktemp("cli")
    mesh = str(root / "mesh.off")
    traces = str(root / "traces.csv")
    assert main(["gen-mesh", "--level", "2", "--out", mesh]) == 0
    assert main(["gen-field", "--family", "chiral-exact", "--mesh", mesh,
                 "--out", traces]) == 0
    return root, mesh, traces


def test_gen_mesh_artifacts(tmp_path):
    out = str(tmp_path / "m.off")
    ball = str(tmp_path / "b.csv")
    assert main(["gen-mesh", "--level", "1", "--out", out, "--ball-csv", ball]) == 0
    mesh = load_off(out)
    assert mesh.n_triangles == 80
    with open(ball, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x", "y", "z", "w"]
    w = np.array([float(r[3]) for r in rows[1:]])
    assert w.sum() == pytest.approx(4.0 * np.pi / 3.0, rel=1e-12)


def test_gen_mesh_deterministic(tmp_path):
    a, b = str(tmp_path / "a.off"), str(tmp_path / "b.off")
    main(["gen-mesh", "--level", "1", "--out", a])
    main(["gen-mesh", "--level", "1", "--out", b])
    assert open(a, "rb").read() == open(b, "rb").read()


def test_gen_field_trace_values(workspace):
    root, mesh_path, traces = workspace
    mesh = load_off(mesh_path)
    medium = make_medium(1.0, 1.0, 1.0, 0.25)
    e_field, h_field = exact_chiral_solution(medium)
    expected_e = q.vec(e_field.value(mesh.centroids))
    with open(traces, newline="") as fh:
        rows = [r for r in csv.reader(fh)][1:]
    assert len(rows) == mesh.n_triangles
    got = np.array(
        [[complex(float(r[1 + 2 * i]), float(r[2 + 2 * i])) for i in range(3)]
         for r in rows]
    )
    assert np.max(np.abs(got - expected_e)) < 1e-14


def test_gen_field_beltrami_samples(workspace, tmp_path):
    _, mesh_path, _ = workspace
    out = str(tmp_path / "b.csv")
    assert main(["gen-field", "--family", "abc-beltrami", "--wave-parameter", "1.3",
                 "--mesh", mesh_path, "--out", out]) == 0
    with open(out, newline="") as fh:
        rows = [r for r in csv.reader(fh)][1:]
    v = q.from_text(rows[0][4])
    x = np.array([float(rows[0][1]), float(rows[0][2]), float(rows[0][3])])
    from quatem.fields import abc_beltrami

    assert np.allclose(v, abc_beltrami(1.3).value(x))


def test_gen_field_requires_parameters(workspace, tmp_path):
    _, mesh_path, _ = workspace
    out = str(tmp_path / "x.csv")
    assert main(["gen-field", "--family", "abc-beltrami",
                 "--mesh", mesh_path, "--out", out]) == 2
    assert main(["gen-field", "--family", "polynomial",
                 "--mesh", mesh_path, "--out", out]) == 2


def test_kernel_probe(tmp_path):
    out = str(tmp_path / "kp.csv")
    assert main(["kernel-probe", "--alpha", "1", "--count", "3",
                 "--rmin", "0.5", "--rmax", "1.5", "--out", out]) == 0
    with open(out, newline="") as fh:
        rows = [r for r in csv.reader(fh)][1:]
    assert len(rows) == 3
    r0 = float(rows[0][0])
    th = complex(float(rows[0][1]), float(rows[0][2]))
    assert th == pytest.approx(-np.exp(1j * r0) / (4 * np.pi * r0))
    assert main(["kernel-probe", "--alpha", "1", "--rmin", "0",
                 "--out", out]) == 2
    assert main(["kernel-probe", "--alpha", "nope", "--out", out]) == 2


def test_verify_bp_json(tmp_path):
    out = str(tmp_path / "bp.json")
    assert main(["verify-bp", "--levels", "2,3", "--out", out]) == 0
    doc = json.load(open(out))
    assert doc["schema_version"] == 1
    assert doc["decreasing"] is True
    for col in doc["residuals"].values():
        assert len(col) == 2 and col[1] < col[0]


def test_reconstruct_json(workspace, tmp_path):
    _, mesh_path, traces = workspace
    out = str(tmp_path / "rec.json")
    assert main(["reconstruct", "--mesh", mesh_path, "--traces", traces,
                 "--probes", "0.3,0.1,-0.2", "--out", out]) == 0
    doc = json.load(open(out))
    assert doc["max_assembly_gap"] < 1e-10
    medium = make_medium(1.0, 1.0, 1.0, 0.25)
    e_field, _ = exact_chiral_solution(medium)
    got = np.array([complex(a, b) for a, b in doc["results"][0]["E"]])
    exact = q.vec(e_field.value(np.array([0.3, 0.1, -0.2])))
    assert np.linalg.norm(got - exact) / np.linalg.norm(exact) < 5e-2


def test_reconstruct_near_boundary_exit_code(workspace, tmp_path):
    _, mesh_path, traces = workspace
    out = str(tmp_path / "rec.json")
    code = main(["reconstruct", "--mesh", mesh_path, "--traces", traces,
                 "--probes", "0.99,0,0", "--out", out])
    assert code == 4


def _rewound(mesh_path, path, flipped):
    """The mesh with the winding of the `flipped` triangles reversed."""
    mesh = load_off(mesh_path)
    triangles = mesh.triangles.copy()
    triangles[flipped] = triangles[flipped, ::-1]
    save_off(mesh_from_arrays(mesh.vertices, triangles), path)
    return str(path)


@pytest.mark.parametrize("inward, probes, message", [
    pytest.param(False, "0.3,0.1,-0.2;3,0,0", "probe 3,0,0 ", id="exterior probe"),
    pytest.param(True, "0.3,0.1,-0.2", "indicator -1", id="inward-wound mesh"),
])
def test_reconstruct_rejects_probes_outside_the_surface(workspace, tmp_path, capsys,
                                                        inward, probes, message):
    _, mesh_path, traces = workspace
    if inward:
        mesh_path = _rewound(mesh_path, tmp_path / "inward.off", slice(None))
    assert main(["reconstruct", "--mesh", mesh_path, "--traces", traces,
                 "--probes=" + probes, "--out", str(tmp_path / "rec.json")]) == 4
    assert message in capsys.readouterr().err


def test_extend_check_rejects_misoriented_mesh(workspace, tmp_path, capsys):
    _, mesh_path, traces = workspace
    for flipped in (slice(None), [5]):  # wound inward; one triangle flipped
        bad = _rewound(mesh_path, tmp_path / "bad.off", flipped)
        assert main(["extend-check", "--mesh", bad, "--traces", traces,
                     "--extrapolation", "linear", "--out", str(tmp_path / "e.json")]) == 2
        assert "not wound consistently outward" in capsys.readouterr().err


def test_extend_check_exit_codes(workspace, tmp_path):
    _, mesh_path, traces = workspace
    out = str(tmp_path / "ext.json")
    # level-2 traces need the looser linear extrapolation budget
    base = ["extend-check", "--mesh", mesh_path, "--traces", traces,
            "--extrapolation", "linear", "--out", out]
    assert main(base + ["--threshold", "0.10"]) == 0
    doc = json.load(open(out))
    assert doc["extendible"] is True
    assert doc["aggregate"]["rms"] < 0.10
    # strongly perturbed traces must trip the criterion (the coarse level-2
    # mesh leaves no margin for small perturbations; the level-3 acceptance
    # run exercises the 10% case)
    assert main(base + ["--threshold", "0.10", "--perturb", "0.50"]) == 3
    doc = json.load(open(out))
    assert doc["extendible"] is False


def test_extend_check_json_deterministic(workspace, tmp_path):
    _, mesh_path, traces = workspace
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    args = ["extend-check", "--mesh", mesh_path, "--traces", traces,
            "--extrapolation", "linear", "--perturb", "0.05"]
    main(args + ["--out", a])
    main(args + ["--out", b])
    assert open(a, "rb").read() == open(b, "rb").read()


_MEDIUM_FLAGS = {"--omega", "--epsilon", "--mu", "--beta", "--branch"}


def test_cli_option_surface():
    parser = build_parser()
    (subcommands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    surface = {name: {flag for action in sub._actions for flag in action.option_strings}
                     - {"-h", "--help"}
               for name, sub in subcommands.choices.items()}
    assert surface == {
        "gen-mesh": {"--radius", "--level", "--ball-csv", "--out"},
        "gen-field": {"--family", "--mesh", "--amplitudes", "--wave-parameter",
                      "--coeffs-file", "--out"} | _MEDIUM_FLAGS,
        "kernel-probe": {"--alpha", "--sign", "--direction", "--rmin", "--rmax", "--count",
                         "--out"},
        "verify-bp": {"--levels", "--alpha", "--radius", "--out"},
        "reconstruct": {"--mesh", "--traces", "--probes", "--out"} | _MEDIUM_FLAGS,
        "extend-check": {"--mesh", "--traces", "--extrapolation", "--threshold", "--perturb",
                         "--seed", "--out"} | _MEDIUM_FLAGS,
    }


def test_config_errors(tmp_path):
    out = str(tmp_path / "x.json")
    assert main(["reconstruct", "--mesh", "missing.off", "--traces", "missing.csv",
                 "--out", out]) == 2
    # resonant medium (k*beta = 1)
    mesh = str(tmp_path / "m.off")
    main(["gen-mesh", "--level", "0", "--out", mesh])
    assert main(["gen-field", "--family", "chiral-exact", "--mesh", mesh,
                 "--beta", "1.0", "--out", out]) == 2


@pytest.mark.parametrize("fault, message", [("short row", "has 7 columns"),
                                            ("repeated triangle", "repeats triangle 1")])
def test_malformed_trace_file(workspace, tmp_path, capsys, fault, message):
    _, mesh_path, traces = workspace
    with open(traces, newline="") as fh:
        rows = list(csv.reader(fh))
    if fault == "short row":
        rows[3] = rows[3][:7]
    else:  # triangle 1 twice, triangle 6 missing
        rows[7] = rows[2]
    bad = str(tmp_path / "bad.csv")
    with open(bad, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    for command in ("reconstruct", "extend-check"):
        assert main([command, "--mesh", mesh_path, "--traces", bad,
                     "--out", str(tmp_path / "x.json")]) == 2
        assert message in capsys.readouterr().err


def test_trace_file_values_and_bad_rows(workspace, tmp_path, capsys):
    _, mesh_path, traces = workspace
    with open(traces, newline="") as fh:
        rows = list(csv.reader(fh))
    n_triangles = len(rows) - 1

    def write(body):
        path = str(tmp_path / "t.csv")
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows([rows[0]] + body)
        return path

    # rows in reverse order: each lands at its own triangle, bit for bit
    e, h = _load_traces(write(rows[:0:-1]), n_triangles)
    for row in rows[1:]:
        v = [float(s) for s in row[1:]]
        pairs = [complex(v[2 * i], v[2 * i + 1]) for i in range(6)]
        assert e[int(row[0])].tolist() == pairs[:3]
        assert h[int(row[0])].tolist() == pairs[3:]

    out_of_range = [list(r) for r in rows[1:]]
    out_of_range[2][0] = str(n_triangles)
    non_numeric = [list(r) for r in rows[1:]]
    non_numeric[2][5] = "abc"
    missing = rows[1:3] + rows[4:]
    for body, message in ((out_of_range, "out of range"),
                          (non_numeric, "could not convert"),
                          (missing, "holds %d rows" % (n_triangles - 1))):
        assert main(["reconstruct", "--mesh", mesh_path, "--traces", write(body),
                     "--out", str(tmp_path / "x.json")]) == 2
        assert message in capsys.readouterr().err
