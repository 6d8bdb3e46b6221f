"""End-to-end runs of the command-line driver: artifacts and exit codes."""

import argparse
import csv
import json
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from quatem import cli
from quatem import quaternions as q
from quatem.cli import _write_json, build_parser, main
from quatem.fields import DEFAULT_AMPLITUDES, exact_chiral_solution
from quatem.geometry import build_sphere_mesh, load_off, load_traces, mesh_from_arrays, save_off
from quatem.maxwell import make_medium
from quatem.operators import NODE_CHUNK, TILE_ROWS
from quatem.reconstruction import extendibility_residual, perturb_traces

from oracles import torus_mesh


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
    assert main(["gen-mesh", "--level", "1", "--out", out]) == 0
    mesh = load_off(out)
    assert mesh.n_triangles == 80
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m.off"]


def test_gen_mesh_deterministic(tmp_path):
    a, b = str(tmp_path / "a.off"), str(tmp_path / "b.off")
    main(["gen-mesh", "--level", "1", "--out", a])
    main(["gen-mesh", "--level", "1", "--out", b])
    assert Path(a).read_bytes() == Path(b).read_bytes()


@pytest.mark.parametrize("radius", ["nan", "inf", "-1"])
def test_gen_mesh_rejects_radius_that_is_not_finite_and_positive(tmp_path, capsys, radius):
    out = tmp_path / "m.off"
    assert main(["gen-mesh", "--radius", radius, "--level", "1", "--out", str(out)]) == 2
    assert "radius must be finite and positive" in capsys.readouterr().err
    assert not out.exists()


def test_gen_mesh_refuses_radius_whose_areas_overflow(tmp_path, capsys):
    out = tmp_path / "big.off"
    assert main(["gen-mesh", "--radius", "1e160", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.splitlines() == ["error: triangle area out of floating-point range in mesh"]
    assert not out.exists()


def test_verify_bp_refuses_the_working_directory_as_out(tmp_path, capsys, monkeypatch):
    # the current directory, which holds a file, given as --out: exit 2, one
    # error line, and the directory holds what it held
    monkeypatch.chdir(tmp_path)
    (tmp_path / "kept.txt").write_text("kept\n")
    assert main(["verify-bp", "--levels", "2,3", "--out", "."]) == 2
    err = capsys.readouterr().err
    assert err.splitlines() == [err.strip()] and err.startswith("error: ")
    assert [p.name for p in tmp_path.iterdir()] == ["kept.txt"]
    assert (tmp_path / "kept.txt").read_text() == "kept\n"


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


def test_gen_field_default_amplitudes_are_the_fields_default():
    args = build_parser().parse_args(["gen-field", "--family", "chiral-exact", "--mesh", "m.off",
                                      "--out", "t.csv"])
    assert tuple(float(v) for v in args.amplitudes.split(",")) == DEFAULT_AMPLITUDES


def test_kernel_probe(tmp_path, capsys):
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


def test_kernel_probe_rejects_empty_ray(tmp_path, capsys):
    assert main(["kernel-probe", "--alpha", "1", "--count", "0",
                 "--out", str(tmp_path / "kp.csv")]) == 2
    assert "--count must be at least 1" in capsys.readouterr().err


def test_kernel_probe_rejects_reversed_radii(tmp_path, capsys):
    out = str(tmp_path / "kp.csv")
    assert main(["kernel-probe", "--alpha", "1", "--rmin", "0.1", "--rmax", "-1",
                 "--count", "5", "--out", out]) == 2
    err = capsys.readouterr().err
    assert "--rmax" in err and "--rmin" in err
    # radii must be finite: an infinite --rmax would write rows of NaN
    for rmin, rmax in (("0.1", "inf"), ("inf", "inf"), ("nan", "1"), ("0.1", "nan")):
        assert main(["kernel-probe", "--alpha", "1", "--rmin", rmin, "--rmax", rmax,
                     "--out", out]) == 2
        err = capsys.readouterr().err
        assert "--rmax" in err and "--rmin" in err and "finite" in err
    # one radius is a valid ray
    assert main(["kernel-probe", "--alpha", "1", "--rmin", "0.5", "--rmax", "0.5",
                 "--count", "1", "--out", out]) == 0


@pytest.mark.parametrize("argv", [
    ["kernel-probe", "--alpha", "nan"], ["kernel-probe", "--alpha", "1+infj"],
    ["verify-bp", "--alpha", "inf"],
])
def test_non_finite_wave_parameter_rejected(tmp_path, capsys, argv):
    assert main(argv + ["--out", str(tmp_path / "out")]) == 2
    assert "not finite" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flag, value", [("--omega", "nan"), ("--epsilon", "nan"),
                                         ("--mu", "1+nanj"), ("--beta", "inf")])
def test_gen_field_rejects_non_finite_medium(workspace, tmp_path, capsys, flag, value):
    _, mesh, _ = workspace
    out = tmp_path / "traces.csv"
    assert main(["gen-field", "--family", "chiral-exact", "--mesh", mesh,
                 flag, value, "--out", str(out)]) == 2
    assert "finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("family, amplitudes", [
    ("chiral-exact", "1,2"), ("chiral-exact", "1,2,3,4"), ("chiral-exact", "1"),
    ("chiral-exact", "1,x,3"), ("chiral-exact", "1,nan,3"),
])
def test_gen_field_rejects_amplitudes_that_are_not_three_numbers(workspace, tmp_path, capsys,
                                                                  family, amplitudes):
    _, mesh_path, _ = workspace
    out = tmp_path / "f.csv"
    assert main(["gen-field", "--family", family, "--mesh", mesh_path,
                 "--amplitudes", amplitudes, "--out", str(out)]) == 2
    assert "--amplitudes must be three finite numbers" in capsys.readouterr().err
    assert not out.exists()


def test_verify_bp_json(tmp_path):
    out = str(tmp_path / "bp.json")
    assert main(["verify-bp", "--levels", "2,3", "--out", out]) == 0
    doc = json.loads(Path(out).read_text())
    assert doc["schema_version"] == 2
    assert doc["decreasing"] is True
    assert np.array_equal(doc["probes"], cli._BP_PROBES)  # the points evaluated
    for col in doc["residuals"].values():
        assert len(col) == 2 and col[1] < col[0]
    # each residual is |K f + T D f - f| / |f|, so a bound of 1e-14 sits a few
    # tens of ulp above the roundoff of f: it holds whichever libm or SIMD
    # loop computes the kernel's trig, while a change of quadrature rule moves
    # the residuals by orders of magnitude more
    pinned = {
        "beltrami": [6.877739065464914e-05, 4.297385197780892e-06],
        "scalar-poly": [0.00013573031781372125, 8.466545513534542e-06],
        "vector-poly": [0.00018054507714683837, 1.1281907389138849e-05],
    }
    for name, expected in pinned.items():
        assert np.allclose(doc["residuals"][name], expected, rtol=0, atol=1e-14)


@pytest.mark.parametrize("levels", ["3,2", "2,x", "2,,3", "1,1", "-1,2", "2,8", "0,2", "1,2"])
def test_verify_bp_rejects_levels_that_are_not_increasing(tmp_path, capsys, levels):
    out = tmp_path / "bp.json"
    assert main(["verify-bp", "--levels=" + levels, "--out", str(out)]) == 2
    assert "--levels must be strictly increasing integers in 2..7" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("alpha, worst_l4", [("1", 2e-6), ("0.8+0.3j", None)])
def test_verify_bp_is_fourth_order(tmp_path, capsys, alpha, worst_l4):
    # three sphere nodes per triangle and the polar volume rule: at levels
    # 2-4 every field's residual falls 16-fold per level (alpha = 1: worst
    # 1.8e-4, 1.1e-5, 7.1e-7; alpha = 0.8+0.3j: 1.2e-4, 7.2e-6, 4.5e-7), a
    # fitted order of 4.03 in the mesh spacing.  The gate leaves a margin of
    # 0.5, so the second-order floor of one node per triangle fails.
    out = tmp_path / "bp.json"
    assert main(["verify-bp", "--levels", "2,3,4", "--alpha", alpha, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    spacing = [build_sphere_mesh(1.0, level).spacing for level in doc["levels"]]
    orders = {name: np.polyfit(np.log(spacing), np.log(col), 1)[0]
              for name, col in doc["residuals"].items()}
    worst = max(col[-1] for col in doc["residuals"].values())
    with capsys.disabled():
        print("\nverify-bp at alpha %s, levels 2-4: worst level-4 residual %.2e, fitted orders %s"
              % (alpha, worst, ", ".join("%s %.2f" % kv for kv in sorted(orders.items()))),
              flush=True)
    assert all(order >= 3.5 for order in orders.values()), orders
    if worst_l4 is not None:
        assert worst <= worst_l4, worst


def test_reconstruct_json(workspace, tmp_path):
    _, mesh_path, traces = workspace
    out = str(tmp_path / "rec.json")
    assert main(["reconstruct", "--mesh", mesh_path, "--traces", traces,
                 "--probes", "0.3,0.1,-0.2", "--out", out]) == 0
    doc = json.loads(Path(out).read_text())
    assert doc["max_assembly_gap"] < 1e-10
    medium = make_medium(1.0, 1.0, 1.0, 0.25)
    e_field, _ = exact_chiral_solution(medium)
    got = np.array([complex(a, b) for a, b in doc["results"][0]["E"]])
    exact = q.vec(e_field.value(np.array([0.3, 0.1, -0.2])))
    assert np.linalg.norm(got - exact) / np.linalg.norm(exact) < 5e-2


@pytest.mark.parametrize("probe", ["nan,0,0", "inf,0,0", "0.1,-inf,0", "0.1,x,0", "0.1,0",
                                   "0.1,0,0,0"])
def test_reconstruct_rejects_non_finite_probes(workspace, tmp_path, capsys, probe):
    # or probes of another length: one message for both
    _, mesh_path, traces = workspace
    out = tmp_path / "rec.json"
    assert main(["reconstruct", "--mesh", mesh_path, "--traces", traces,
                 "--probes=0.3,0.1,-0.2;" + probe, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "error: --probes: probe %r is not three finite numbers\n" % probe
    assert not out.exists()


def test_reconstruct_near_boundary_exit_code(workspace, tmp_path):
    _, mesh_path, traces = workspace
    out = str(tmp_path / "rec.json")
    code = main(["reconstruct", "--mesh", mesh_path, "--traces", traces,
                 "--probes", "0.99,0,0", "--out", out])
    assert code == 4


def test_reconstruct_near_boundary_on_the_second_thread(workspace, tmp_path, capsys):
    # 64 inner probes fill 4 row tiles; the near one is alone in a fifth, so
    # the sum takes two threads and the last 2 row tiles run on the second
    _, mesh_path, traces = workspace
    out = tmp_path / "rec.json"
    probes = ";".join(["0.3,0.1,-0.2"] * (TILE_ROWS * NODE_CHUNK // 320) + ["0.99,0,0"])
    assert main(["reconstruct", "--mesh", mesh_path, "--traces", traces,
                 "--probes=" + probes, "--out", str(out)]) == 4
    assert "rule requires" in capsys.readouterr().err
    assert not out.exists()
    assert main(["reconstruct", "--mesh", mesh_path, "--traces", traces,
                 "--probes=" + probes.rsplit(";", 1)[0], "--out", str(out)]) == 0


def _rewound(mesh_path, path, flipped):
    """The mesh with the winding of the `flipped` triangles reversed."""
    mesh = load_off(mesh_path)
    triangles = mesh.triangles.copy()
    triangles[flipped] = triangles[flipped, ::-1]
    save_off(mesh_from_arrays(mesh.vertices, triangles), path)
    return str(path)


@pytest.mark.parametrize("inward, probes, code, message", [
    pytest.param(False, "0.3,0.1,-0.2;3,0,0", 4, "probe 3,0,0 ", id="exterior probe"),
    # its distance overflows, and the NaN indicator is refused as well
    pytest.param(False, "0.3,0.1,-0.2;1e200,0,0", 4, "(interior indicator nan, expected 1)",
                 id="far exterior probe"),
    # the far probe is summed on the second thread, under main's error state too
    pytest.param(False, ";".join(["0.3,0.1,-0.2"] * (TILE_ROWS + 4) + ["1e200,0,0"]), 4,
                 "(interior indicator nan, expected 1)", id="far probe on the second thread"),
    pytest.param(True, "0.3,0.1,-0.2", 2, "not wound consistently outward",
                 id="inward-wound mesh"),
])
def test_reconstruct_rejects_probes_outside_the_surface(workspace, tmp_path, capsys,
                                                        inward, probes, code, message):
    _, mesh_path, traces = workspace
    if inward:
        mesh_path = _rewound(mesh_path, tmp_path / "inward.off", slice(None))
    out = tmp_path / "rec.json"
    assert main(["reconstruct", "--mesh", mesh_path, "--traces", traces,
                 "--probes=" + probes, "--out", str(out)]) == code
    err = capsys.readouterr().err
    assert message in err and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("command", ["reconstruct", "extend-check"])
def test_commands_reject_open_mesh(workspace, tmp_path, capsys, command):
    # 10 of the 320 triangles removed: the mesh is refused before the traces
    # are read, and gen-field refuses it too
    _, mesh_path, traces = workspace
    mesh = load_off(mesh_path)
    bad, out = tmp_path / "open.off", tmp_path / "out"
    save_off(mesh_from_arrays(mesh.vertices, mesh.triangles[10:]), bad)
    extra = ["--extrapolation", "linear"] if command == "extend-check" else []
    for argv in ([command, "--traces", traces] + extra, ["gen-field", "--family", "chiral-exact"]):
        assert main(argv + ["--mesh", str(bad), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: OFF file %s: mesh is not closed" % bad)
        assert err.count("\n") == 1
        assert not out.exists()


@pytest.mark.parametrize("flipped", [slice(None), [5]], ids=["wound inward", "one flipped"])
def test_gen_field_rejects_mesh_not_wound_outward(workspace, tmp_path, capsys, flipped):
    _, mesh_path, _ = workspace
    bad = _rewound(mesh_path, tmp_path / "bad.off", flipped)
    out = tmp_path / "t.csv"
    assert main(["gen-field", "--family", "chiral-exact", "--mesh", bad, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: OFF file %s: mesh is not wound consistently outward" % bad)
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("beta", ["0", "0.25"])
def test_gen_field_rejects_medium_whose_wave_number_overflows(workspace, tmp_path, capsys,
                                                              beta):
    _, mesh_path, _ = workspace
    out = tmp_path / "t.csv"
    assert main(["gen-field", "--family", "chiral-exact", "--mesh", mesh_path, "--omega", "1e200",
                 "--epsilon", "1e200", "--mu", "1e200", "--beta", beta, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.endswith(" must be finite, omega positive: the wave number k = (inf+0j)\n")
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.fixture(scope="module")
def torus(tmp_path_factory):
    """The 40 x 16 torus (1280 triangles) and its genuine traces."""
    root = tmp_path_factory.mktemp("torus")
    mesh, traces = str(root / "torus.off"), str(root / "torus.csv")
    save_off(torus_mesh(40, 16), mesh)
    assert main(["gen-field", "--family", "chiral-exact", "--mesh", mesh, "--out", traces]) == 0
    return mesh, traces


def test_reconstruct_on_the_torus_refuses_the_hole_centre(torus, tmp_path, capsys):
    # the centre circle is inside the torus, the hole's centre is not: its
    # interior indicator reads 3e-4
    mesh, traces = torus
    out = tmp_path / "rec.json"
    base = ["reconstruct", "--mesh", mesh, "--traces", traces, "--out", str(out)]
    assert main(base + ["--probes=1,0,0;0,-1,0"]) == 0
    assert json.loads(out.read_text())["max_assembly_gap"] < 1e-10
    out.unlink()
    capsys.readouterr()
    assert main(base + ["--probes=0,0,0"]) == 4
    err = capsys.readouterr().err
    assert "probe 0,0,0 is not inside the surface (interior indicator 0.0003" in err
    assert err.count("\n") == 1 and not out.exists()


@pytest.mark.parametrize("command", ["gen-field", "reconstruct"])
def test_torus_with_a_flipped_triangle_is_refused(torus, tmp_path, capsys, command):
    mesh, traces = torus
    bad = _rewound(mesh, tmp_path / "flipped.off", [7])
    out = tmp_path / "out"
    inputs = ["--family", "chiral-exact"] if command == "gen-field" else ["--traces", traces]
    assert main([command, "--mesh", bad, "--out", str(out)] + inputs) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: OFF file %s: mesh is not wound consistently outward" % bad)
    assert err.count("\n") == 1 and not out.exists()


@pytest.mark.parametrize("command, zero_area", [
    pytest.param(command, zero_area, id=command + (" (zero-area face)" if zero_area else ""))
    for zero_area in (False, True) for command in ("gen-field", "reconstruct", "extend-check")
])
def test_commands_reject_mesh_with_non_finite_vertex(workspace, tmp_path, capsys, command,
                                                     zero_area):
    # or with a zero-area face; either refusal names the file
    _, mesh_path, traces = workspace
    lines = Path(mesh_path).read_text().split("\n")
    if zero_area:  # the first face, its third corner moved onto its first
        first = 2 + int(lines[1].split()[0])
        face = lines[first].split()
        lines[first] = " ".join(face[:3] + face[1:2])
        message = "OFF file %s: degenerate (zero-area) triangle in mesh"
    else:
        lines[5] = "nan 0 1"  # the fourth vertex
        message = "OFF file %s: a vertex coordinate is not finite"
    bad = tmp_path / "bad.off"
    bad.write_text("\n".join(lines))
    out = tmp_path / "out"
    inputs = ["--family", "chiral-exact"] if command == "gen-field" else ["--traces", traces]
    assert main([command, "--mesh", str(bad), "--out", str(out)] + inputs) == 2
    err = capsys.readouterr().err
    assert message % bad in err and err.count("\n") == 1
    assert not out.exists()


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
    doc = json.loads(Path(out).read_text())
    assert doc["extendible"] is True
    assert doc["aggregate"]["rms"] < 0.10
    # strongly perturbed traces must trip the criterion (the coarse level-2
    # mesh leaves no margin for small perturbations; the level-3 acceptance
    # run exercises the 10% case)
    assert main(base + ["--threshold", "0.10", "--perturb", "0.50"]) == 3
    perturbed = json.loads(Path(out).read_text())
    assert perturbed["extendible"] is False
    # the residuals are two arrays in triangle order, the report's own values
    mesh = load_off(mesh_path)
    rule = mesh.rule
    medium = make_medium(1.0, 1.0, 1.0, 0.25)
    e_tr, h_tr = load_traces(traces, rule)
    for written, (e, h) in [(doc, (e_tr, h_tr)),
                            (perturbed, perturb_traces(rule, e_tr, h_tr, 0.50, 42))]:
        report = extendibility_residual(rule, e, h, medium, "linear")
        assert "per_point" not in written
        assert len(written["residual_e"]) == len(written["residual_h"]) == mesh.n_triangles
        assert written["residual_e"] == report.residual_e.tolist()
        assert written["residual_h"] == report.residual_h.tolist()
        rms_e, rms_h = (np.sqrt(np.mean(np.square(written[k])))
                        for k in ("residual_e", "residual_h"))
        assert written["aggregate"]["rms"] == np.sqrt(0.5 * (rms_e**2 + rms_h**2))


def test_extend_check_json_deterministic(workspace, tmp_path):
    _, mesh_path, traces = workspace
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    args = ["extend-check", "--mesh", mesh_path, "--traces", traces,
            "--extrapolation", "linear", "--perturb", "0.05"]
    main(args + ["--out", a])
    main(args + ["--out", b])
    assert Path(a).read_bytes() == Path(b).read_bytes()


@pytest.mark.parametrize("flag, value, message", [
    ("--threshold", "nan", "--threshold must be finite and positive"),
    ("--threshold", "inf", "--threshold must be finite and positive"),
    ("--threshold", "0", "--threshold must be finite and positive"),
    ("--perturb", "nan", "--perturb must be finite and not negative"),
    ("--perturb", "-0.1", "--perturb must be finite and not negative"),
    ("--perturb", "inf", "--perturb must be finite and not negative"),
    ("--seed", "-1", "--seed must be a non-negative integer"),
])
def test_extend_check_rejects_meaningless_flags(workspace, tmp_path, capsys, flag, value,
                                                message):
    _, mesh_path, traces = workspace
    out = tmp_path / "ext.json"
    assert main(["extend-check", "--mesh", mesh_path, "--traces", traces,
                 "--extrapolation", "linear", flag, value, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_json_artifacts_hold_no_nan_or_infinity(tmp_path, value):
    out = tmp_path / "x.json"
    message = re.escape("%s not written: a value is NaN or infinite" % out)
    with pytest.raises(ValueError, match=message):
        _write_json(out, {"command": "test", "value": [1.0, value]})
    assert not out.exists()
    # a file already at the path is left as it was
    out.write_text("earlier run\n")
    with pytest.raises(ValueError, match=message):
        _write_json(out, {"command": "test", "value": [1.0, value]})
    assert out.read_text() == "earlier run\n"


@pytest.mark.parametrize("argv", [
    ["kernel-probe", "--alpha", "0-400j"],
    ["gen-field", "--family", "chiral-exact", "--amplitudes", "1e308,1e308,1e308"],
], ids=["kernel-probe", "gen-field"])
def test_csv_artifacts_hold_no_nan_or_infinity(workspace, tmp_path, capsys, argv):
    # the values overflow; like a JSON artifact the CSV is refused with exit 2
    # and no file is left, and the error line is all that reaches stderr
    _, mesh, _ = workspace
    out = tmp_path / "x.csv"
    mesh_args = ["--mesh", mesh] if argv[0] == "gen-field" else []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv + mesh_args + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.splitlines() == [err.strip()]
    assert err.startswith("error: ") and "NaN or infinite" in err
    assert not out.exists()


def test_extend_check_of_overflowing_perturbation_is_one_error_line(workspace, tmp_path,
                                                                    capsys):
    # a 1e200 perturbation overflows the residuals: the JSON is refused with
    # exit 2, no file is written and no NumPy warning is printed
    _, mesh_path, traces = workspace
    out = tmp_path / "ext.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["extend-check", "--mesh", mesh_path, "--traces", traces,
                     "--extrapolation", "linear", "--perturb", "1e200",
                     "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.splitlines() == ["error: %s not written: a value is NaN or infinite" % out]
    assert not out.exists()


def test_verify_bp_of_overflowing_fields_is_one_error_line(tmp_path, capsys):
    # at alpha = 800i the test fields overflow: the boundary density refuses
    # them with exit 2, no JSON is written and no NumPy warning is printed
    out = tmp_path / "bp.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["verify-bp", "--levels", "2,3", "--alpha", "0+800j",
                     "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.splitlines() == [err.strip()]
    assert err.startswith("error: ") and "non-finite" in err
    assert not out.exists()


def test_request_that_cannot_be_allocated_is_one_error_line(tmp_path, capsys):
    # 1e15 radii take 7.11 PiB per array, past any address space, so the
    # first allocation fails and nothing is allocated
    out = tmp_path / "k.csv"
    assert main(["kernel-probe", "--alpha", "1", "--count", "1000000000000000",
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.splitlines() == [err.strip()]
    assert err.startswith("error: ") and "Unable to allocate" in err
    assert not out.exists()


_MEDIUM_FLAGS = {"--omega", "--epsilon", "--mu", "--beta"}


def test_cli_option_surface():
    parser = build_parser()
    (subcommands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    surface = {name: {flag for action in sub._actions for flag in action.option_strings}
                     - {"-h", "--help"}
               for name, sub in subcommands.choices.items()}
    assert surface == {
        "gen-mesh": {"--radius", "--level", "--out"},
        "gen-field": {"--family", "--mesh", "--amplitudes", "--out"} | _MEDIUM_FLAGS,
        "kernel-probe": {"--alpha", "--rmin", "--rmax", "--count", "--out"},
        "verify-bp": {"--levels", "--alpha", "--out"},
        "reconstruct": {"--mesh", "--traces", "--probes", "--out"} | _MEDIUM_FLAGS,
        "extend-check": {"--mesh", "--traces", "--extrapolation", "--threshold", "--perturb",
                         "--seed", "--out"} | _MEDIUM_FLAGS,
    }
    (family,) = [a for a in subcommands.choices["gen-field"]._actions if a.dest == "family"]
    assert family.choices == ("chiral-exact",)


@pytest.mark.parametrize("argv", [
    "gen-mesh --level 1 --out {folder}",
    "gen-field --family chiral-exact --mesh {folder} --out {out}",
    "kernel-probe --alpha 1 --out {folder}",
    "verify-bp --levels 2,3 --out {folder}",
    "reconstruct --mesh {folder} --traces {traces} --out {out}",
    "extend-check --mesh {mesh} --traces {folder} --out {out}",
], ids=lambda argv: argv.split()[0])
def test_path_that_cannot_be_opened_is_one_error_line(workspace, tmp_path, capsys, argv):
    # a directory where a file is read or written: exit 2, no artifact
    _, mesh, traces = workspace
    folder = tmp_path / "folder"
    folder.mkdir()
    paths = {"folder": folder, "mesh": mesh, "traces": traces, "out": tmp_path / "out"}
    assert main([token.format(**paths) for token in argv.split()]) == 2
    err = capsys.readouterr().err
    assert err.splitlines() == [err.strip()]
    assert err.startswith("error: ") and str(folder) in err
    assert [p.name for p in tmp_path.iterdir()] == ["folder"]
    assert not any(folder.iterdir())


@pytest.mark.parametrize("argv", [
    "reconstruct --mesh {mesh} --traces {traces} --probes -0.3,0.1,0.2",
    "verify-bp --alpha -1-0.5j",
    "gen-field --family chiral-exact --mesh {mesh} --amplitudes -1,0.7,0.3",
    "gen-field --family chiral-exact --mesh {mesh} --epsilon -2+0.1j",
    "kernel-probe --alpha -1e-3",
], ids=lambda argv: "%s %s" % (argv.split()[0], argv.split()[-2]))
def test_option_value_that_begins_with_a_dash(workspace, tmp_path, argv):
    # argparse alone takes '-1e-3' for an option and exits 2; such a value is
    # joined to its flag, so both forms write the same artifact
    _, mesh, traces = workspace
    tokens = argv.format(mesh=mesh, traces=traces).split()
    joined = tokens[:-2] + ["=".join(tokens[-2:])]
    spaced, equals = tmp_path / "spaced", tmp_path / "equals"
    assert main(tokens + ["--out", str(spaced)]) == 0
    assert main(joined + ["--out", str(equals)]) == 0
    assert spaced.read_bytes() == equals.read_bytes()


def test_option_followed_by_an_option_still_lacks_its_value(tmp_path, capsys):
    out = tmp_path / "kp.csv"
    assert main(["kernel-probe", "--alpha", "--out", str(out)]) == 2
    assert "--alpha: expected one argument" in capsys.readouterr().err
    assert not out.exists()


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
                                            ("repeated triangle", "row 6 holds triangle 1:")])
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

    # row i holds triangle i, read bit for bit
    e, h = load_traces(write(rows[1:]), load_off(mesh_path).rule)
    for t, row in enumerate(rows[1:]):
        v = [float(s) for s in row[1:]]
        pairs = [complex(v[2 * i], v[2 * i + 1]) for i in range(6)]
        assert e[t].tolist() == pairs[:3]
        assert h[t].tolist() == pairs[3:]

    out_of_range = [list(r) for r in rows[1:]]
    out_of_range[2][0] = str(n_triangles)
    non_numeric = [list(r) for r in rows[1:]]
    non_numeric[2][5] = "abc"
    missing = rows[1:3] + rows[4:]

    def with_cell(cell):  # in rows 3 and 5: the first is named
        body = [list(r) for r in rows[1:]]
        body[3][7] = body[5][2] = cell
        return body

    not_finite = "row 3 holds a value that is not finite"
    for body, message in ((rows[:0:-1], "row 0 holds triangle %d:" % (n_triangles - 1)),
                          (out_of_range, "row 2 holds triangle %d:" % n_triangles),
                          (non_numeric, "could not convert"),
                          (missing, "%d rows, the rule has" % (n_triangles - 1)),
                          (with_cell("nan"), not_finite),
                          (with_cell("inf"), not_finite)):
        assert main(["reconstruct", "--mesh", mesh_path, "--traces", write(body),
                     "--out", str(tmp_path / "x.json")]) == 2
        assert "trace file %s: %s" % (tmp_path / "t.csv", message) in capsys.readouterr().err


def _faces(rows):  # the face lines of an OFF file split into tokens
    return rows[2 + int(rows[1][0]):]


def _one_face_fewer_declared(rows):
    return rows[:1] + [[rows[1][0], str(len(_faces(rows)) - 1), "0"]] + rows[2:]


# each edit of the level-2 workspace's OFF file (split into tokens line by
# line) or trace file (split into cells) that reconstruct refuses, and a
# fragment of the refusal; the file is written in Latin-1, so that "\xff" is
# a byte that UTF-8 does not decode
_BAD_INPUTS = {
    "off: not OFF": (lambda r: [["NOFF"]] + r[1:], "not an ASCII OFF file"),
    "off: not UTF-8": (lambda r: [["OFF\xff"]] + r[1:], "can't decode"),
    "off: truncated": (lambda r: r[:-1], "declares 162 vertices and 320 faces"),
    "off: face past those declared": (_one_face_fewer_declared, "and 319 faces"),
    "off: count not a number": (lambda r: [r[0], ["x"] + r[1][1:]] + r[2:], "'x'"),
    "off: vertex not a number": (lambda r: r[:2] + [["x"] + r[2][1:]] + r[3:], "'x'"),
    "off: non-finite vertex": (lambda r: r[:2] + [["nan"] + r[2][1:]] + r[3:], "not finite"),
    "off: face not a triangle": (lambda r: r[:-1] + [["4"] + r[-1][1:]], "not a triangle"),
    "off: face index out of range": (lambda r: r[:-1] + [r[-1][:3] + [r[1][0]]],
                                     "out of range 0..161"),
    "off: face index past int64": (lambda r: r[:-1] + [r[-1][:3] + ["99999999999999999999"]],
                                   "'99999999999999999999' in face 319 is out of the 64-bit"),
    "off: zero-area face": (lambda r: r[:-1] + [r[-1][:3] + r[-1][1:2]], "zero-area"),
    "off: open": (lambda r: _one_face_fewer_declared(r)[:-1], "not closed"),
    "off: wound inward": (lambda r: r[:-len(_faces(r))] + [f[:1] + f[:0:-1] for f in _faces(r)],
                          "not wound consistently outward"),
    "traces: column count": (lambda r: r[:3] + [r[3][:7]] + r[4:], "row 2 has 7 columns"),
    "traces: not a number": (lambda r: r[:3] + [r[3][:5] + ["abc"] + r[3][6:]] + r[4:],
                             "could not convert"),
    "traces: row count": (lambda r: r[:-1], "319 rows"),
    "traces: misplaced row": (lambda r: r[:1] + r[:0:-1], "row 0 holds triangle 319"),
    "traces: non-finite": (lambda r: r[:3] + [r[3][:5] + ["nan"] + r[3][6:]] + r[4:],
                           "row 2 holds a value that is not finite"),
    "traces: header": (lambda r: [["index"] + ["c%d" % i for i in range(12)]] + r[1:],
                       "not the header"),
    "traces: not UTF-8": (lambda r: r[:3] + [r[3][:5] + ["\xff"] + r[3][6:]] + r[4:],
                          "can't decode"),
}


@pytest.mark.parametrize("fault", _BAD_INPUTS)
def test_input_refusal_names_its_file_once(workspace, tmp_path, capsys, fault):
    _, mesh_path, traces = workspace
    kind = fault.split(":")[0]
    good, sep = (mesh_path, " ") if kind == "off" else (traces, ",")
    rows = [line.split(sep) for line in Path(good).read_text().splitlines()]
    edit, message = _BAD_INPUTS[fault]
    bad = tmp_path / ("bad.off" if kind == "off" else "bad.csv")
    bad.write_text("".join(sep.join(row) + "\n" for row in edit(rows)), encoding="latin-1")
    inputs = {"off": mesh_path, "traces": traces, kind: str(bad)}
    out = tmp_path / "out.json"
    assert main(["reconstruct", "--mesh", inputs["off"], "--traces", inputs["traces"],
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.count(str(bad)) == 1 and message in err
    assert not out.exists()


@pytest.mark.parametrize("header", [True, False], ids=["header only", "empty"])
def test_trace_file_of_no_rows_is_one_error_line(workspace, tmp_path, capsys, header):
    # numpy warns of a file that holds no data; a header-only trace file is
    # refused by its row count, an empty one by its header, and the error
    # line is all that reaches stderr
    _, mesh_path, traces = workspace
    with open(traces) as fh:
        first = fh.readline()
    path = tmp_path / "t.csv"
    path.write_text(first if header else "")
    for command in ("reconstruct", "extend-check"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([command, "--mesh", mesh_path, "--traces", str(path),
                         "--out", str(tmp_path / "x.json")]) == 2
        err = capsys.readouterr().err
        fault = ("0 rows, the rule has 320 nodes" if header else
                 "the first row is not the header " + first.strip())
        assert err.splitlines() == ["error: trace file %s: %s" % (path, fault)]
