"""Workloads of the quatem benchmark: inputs made from a seed, the CLI
invocations of one operation, and the checks of their outputs.

Each workload is a closed loop with one client: ``ops()`` yields the next
operation only after the previous one has been run and checked.  The first
operation it yields is the warm-up call of the set-up phase.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import json
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from quatem import cli
from quatem import quaternions as q
from quatem.fields import exact_chiral_solution
from quatem.geometry import build_sphere_mesh, load_off
from quatem.maxwell import make_medium

# The CLI's default medium (omega = epsilon = mu = 1, beta = 0.25); the
# benchmark never overrides it, so the analytic oracle uses it too.
MEDIUM = make_medium(1.0, 1.0, 1.0, 0.25)

# Reconstruction accuracy bound of acceptance criterion 6 (level-3 error
# < 5e-2) and its assembly-gap bound (gap / field scale < 1e-10).
RECONSTRUCT_TOL = 5e-2
ASSEMBLY_GAP_TOL = 1e-10
TRACE_TOL = 1e-12         # CSV traces are written with 17 digits
FLUX_TOL = 1e-12          # closure flux of a closed icosphere, at roundoff

SIZES = {
    "full": {
        "extend-check": {"level": 3, "extrapolation": "quadratic"},
        "reconstruct-probes": {"level": 4, "probes_per_op": 4, "probe_sets": 16},
        "verify-bp": {"levels": "3,4"},
        "mesh-gen": {"level": 6},
    },
    # Small sizes for the benchmark's own tests.  Level 3 is the coarsest
    # mesh on which extend-check runs at its default depth.
    "fast": {
        "extend-check": {"level": 3, "extrapolation": "linear"},
        "reconstruct-probes": {"level": 3, "probes_per_op": 2, "probe_sets": 4},
        "verify-bp": {"levels": "2,3"},
        "mesh-gen": {"level": 3},
    },
}


def invoke(argv) -> tuple[int, str]:
    """Run one ``quatem`` CLI command in-process; returns (exit code, output).

    ``cli.main`` is looked up at call time so that the traced run sees the
    wrapper installed in its place.
    """
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        code = cli.main([str(a) for a in argv])
    return code, buf.getvalue()


def _generate(argv) -> None:
    code, text = invoke(argv)
    if code != 0:
        raise RuntimeError("input generation failed (exit %d): %s" % (code, text.strip()))


def _mesh_and_traces(level, mesh, traces) -> None:
    """An icosphere OFF file and its chiral-exact trace CSV."""
    _generate(["gen-mesh", "--level", level, "--out", mesh])
    _generate(["gen-field", "--family", "chiral-exact", "--mesh", mesh, "--out", traces])


@dataclass
class Op:
    """One operation: CLI invocations run in order and checked together.

    ``key`` names the inputs; operations with the same key must write
    byte-identical ``artifacts``.  ``check(codes, outputs, first)`` returns
    a list of problems; ``first`` is set the first time a key is run.
    """

    key: str
    argvs: list
    artifacts: list
    check: Callable[[list, list, bool], list]


def _read_json(path: Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _quat(scalar_part, vector_part) -> np.ndarray:
    return np.array([complex(*scalar_part)] + [complex(*z) for z in vector_part])


class Workload:
    name = ""
    seed_dependent = True

    def __init__(self, workdir: Path, seed: int, size: str):
        self.size = SIZES[size][self.name]
        self.rng = np.random.default_rng(seed)
        self.result_errors: list[float] = []

    def prepare(self) -> None:
        """Write the input files; run once per set-up repetition."""

    def ops(self):
        raise NotImplementedError


class ExtendCheck(Workload):
    """extend-check on genuine traces (exit 0) alternating with perturbed
    ones (exit 3)."""

    name = "extend-check"
    perturb = 0.10

    def __init__(self, workdir, seed, size):
        super().__init__(workdir, seed, size)
        self.perturb_seed = int(self.rng.integers(1, 2**31 - 1))
        self.mesh = workdir / "mesh.off"
        self.traces = workdir / "traces.csv"
        self.out = workdir / "extend.json"

    def sizes(self):
        return dict(self.size, triangles=20 * 4 ** self.size["level"],
                    perturb=self.perturb, perturb_seed=self.perturb_seed)

    def prepare(self):
        _mesh_and_traces(self.size["level"], self.mesh, self.traces)

    def _argv(self):
        return ["extend-check", "--mesh", self.mesh, "--traces", self.traces,
                "--extrapolation", self.size["extrapolation"], "--out", self.out]

    def check_genuine(self, codes, outputs, first):
        report = _read_json(self.out)
        rms = report["aggregate"]["rms"]
        problems = []
        if codes != [0] or report["extendible"] is not True:
            problems.append("genuine traces: exit %s, extendible=%s"
                            % (codes, report["extendible"]))
        if not rms < report["threshold"]:
            problems.append("genuine rms %.3e not below %g" % (rms, report["threshold"]))
        self.result_errors.append(rms)
        return problems

    def check_perturbed(self, codes, outputs, first):
        report = _read_json(self.out)
        problems = []
        if codes != [3] or report["extendible"] is not False:
            problems.append("perturbed traces: exit %s, extendible=%s"
                            % (codes, report["extendible"]))
        if report["perturbation"] != self.perturb or report["seed"] != self.perturb_seed:
            problems.append("perturbation settings not echoed in the report")
        return problems

    def ops(self):
        genuine = Op("genuine", [self._argv()], [self.out], self.check_genuine)
        perturbed = Op("perturbed",
                       [self._argv() + ["--perturb", self.perturb,
                                        "--seed", self.perturb_seed]],
                       [self.out], self.check_perturbed)
        yield genuine
        yield from itertools.cycle([perturbed, genuine])


class ReconstructProbes(Workload):
    """reconstruct at a small seeded probe set per operation."""

    name = "reconstruct-probes"
    max_radius = 0.6

    def __init__(self, workdir, seed, size):
        super().__init__(workdir, seed, size)
        self.mesh = workdir / "mesh.off"
        self.traces = workdir / "traces.csv"
        self.out = workdir / "reconstruct.json"
        self.e_field, self.h_field = exact_chiral_solution(MEDIUM)
        n = self.size["probe_sets"] * self.size["probes_per_op"]
        directions = self.rng.standard_normal((n, 3))
        directions /= np.linalg.norm(directions, axis=1)[:, None]
        radii = self.max_radius * self.rng.random(n) ** (1.0 / 3.0)
        # The probes are the values of their text form, as the CLI parses it.
        self.probe_texts = ["%.6f,%.6f,%.6f" % tuple(p) for p in directions * radii[:, None]]
        self.probes = np.array([[float(v) for v in t.split(",")] for t in self.probe_texts])

    def sizes(self):
        return dict(self.size, triangles=20 * 4 ** self.size["level"],
                    max_radius=self.max_radius)

    def prepare(self):
        _mesh_and_traces(self.size["level"], self.mesh, self.traces)

    def _check(self, probes):
        def check(codes, outputs, first):
            if codes != [0]:
                return ["reconstruct exit %s" % codes]
            report = _read_json(self.out)
            problems = []
            if len(report["results"]) != len(probes):
                problems.append("%d results for %d probes"
                                % (len(report["results"]), len(probes)))
            for x, res in zip(probes, report["results"]):
                if not np.array_equal(np.array(res["point"]), x):
                    problems.append("probe %s reported as %s" % (x, res["point"]))
                e = _quat(res["scalar_part_E"], res["E"])
                h = _quat(res["scalar_part_H"], res["H"])
                exact_e, exact_h = self.e_field.value(x), self.h_field.value(x)
                err = max(float(q.norm(e - exact_e) / q.norm(exact_e)),
                          float(q.norm(h - exact_h) / q.norm(exact_h)))
                self.result_errors.append(err)
                if not err < RECONSTRUCT_TOL:
                    problems.append("probe %s: relative error %.3e" % (x, err))
                scale = max(float(q.norm(e)), float(q.norm(h)))
                if not res["assembly_gap"] <= ASSEMBLY_GAP_TOL * scale:
                    problems.append("probe %s: assembly gap %.3e"
                                    % (x, res["assembly_gap"]))
            return problems
        return check

    def ops(self):
        ops = []
        per_op = self.size["probes_per_op"]
        for i in range(self.size["probe_sets"]):
            part = slice(i * per_op, (i + 1) * per_op)
            # "--probes=..." because argparse reads a leading "-0.3" as an option
            argv = ["reconstruct", "--mesh", self.mesh, "--traces", self.traces,
                    "--probes=" + ";".join(self.probe_texts[part]), "--out", self.out]
            ops.append(Op("set%d" % i, [argv], [self.out], self._check(self.probes[part])))
        yield from itertools.cycle(ops)


class VerifyBP(Workload):
    """verify-bp over the built-in fields at the fixed probes."""

    name = "verify-bp"
    seed_dependent = False  # the command takes no seeded input

    def __init__(self, workdir, seed, size):
        super().__init__(workdir, seed, size)
        self.out = workdir / "verify.json"

    def sizes(self):
        levels = [int(v) for v in self.size["levels"].split(",")]
        return dict(self.size, triangles=[20 * 4 ** lv for lv in levels],
                    fields=3, probes=5)

    def check(self, codes, outputs, first):
        report = _read_json(self.out)
        problems = []
        if codes != [0] or report["decreasing"] is not True:
            problems.append("verify-bp exit %s, decreasing=%s"
                            % (codes, report["decreasing"]))
        finals = [col[-1] for col in report["residuals"].values()]
        if not all(math.isfinite(r) for col in report["residuals"].values() for r in col):
            problems.append("non-finite residual")
        self.result_errors.append(max(finals))
        return problems

    def ops(self):
        op = Op("fixed", [["verify-bp", "--levels", self.size["levels"],
                           "--out", self.out]], [self.out], self.check)
        yield from itertools.repeat(op)


class MeshGen(Workload):
    """gen-mesh, then gen-field with seeded amplitudes; one operation is the
    pair of invocations."""

    name = "mesh-gen"
    _flux = re.compile(r"flux residual (\S+)")

    def __init__(self, workdir, seed, size):
        super().__init__(workdir, seed, size)
        self.mesh = workdir / "mesh.off"
        self.traces = workdir / "traces.csv"
        self.amplitudes = [",".join("%.4f" % a for a in amps)
                           for amps in self.rng.uniform(0.2, 1.0, (2, 3))]
        self.area_error = None

    def sizes(self):
        return dict(self.size, triangles=20 * 4 ** self.size["level"],
                    amplitude_sets=len(self.amplitudes))

    def _check_mesh(self):
        mesh = load_off(self.mesh)
        ref = build_sphere_mesh(1.0, self.size["level"])
        problems = []
        if not (np.array_equal(mesh.vertices, ref.vertices)
                and np.array_equal(mesh.triangles, ref.triangles)):
            problems.append("OFF round-trip does not reproduce the mesh")
        self.area_error = abs(mesh.area - 4.0 * np.pi) / (4.0 * np.pi)
        return problems, mesh

    def _check_traces(self, mesh, amps):
        e_field, h_field = exact_chiral_solution(MEDIUM, amps, amps)
        pts = mesh.centroids
        exact = np.concatenate([q.vec(e_field.value(pts)), q.vec(h_field.value(pts))], axis=1)
        with open(self.traces, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        vals = np.array([[float(v) for v in row[1:]] for row in rows])
        got = vals[:, 0::2] + 1j * vals[:, 1::2]
        if got.shape != exact.shape:
            return ["trace CSV has shape %s, expected %s" % (got.shape, exact.shape)]
        err = float(np.max(np.abs(got - exact)) / np.max(np.abs(exact)))
        return [] if err < TRACE_TOL else ["trace CSV deviates by %.3e" % err]

    def _check(self, amps):
        def check(codes, outputs, first):
            if codes != [0, 0]:
                return ["gen-mesh/gen-field exit %s" % codes]
            problems = []
            match = self._flux.search(outputs[0])
            if not match or not float(match.group(1)) < FLUX_TOL:
                problems.append("closure flux not at roundoff: %r" % outputs[0].strip())
            if first:  # later runs of the same key are checked byte for byte
                mesh_problems, mesh = self._check_mesh()
                problems += mesh_problems + self._check_traces(mesh, amps)
            self.result_errors.append(self.area_error)
            return problems
        return check

    def ops(self):
        ops = []
        for i, text in enumerate(self.amplitudes):
            argvs = [
                ["gen-mesh", "--level", self.size["level"], "--out", self.mesh],
                ["gen-field", "--family", "chiral-exact", "--mesh", self.mesh,
                 "--amplitudes", text, "--out", self.traces],
            ]
            amps = tuple(float(v) for v in text.split(","))
            ops.append(Op("amp%d" % i, argvs, [self.mesh, self.traces], self._check(amps)))
        yield from itertools.cycle(ops)


WORKLOADS = {w.name: w for w in (ExtendCheck, ReconstructProbes, VerifyBP, MeshGen)}
