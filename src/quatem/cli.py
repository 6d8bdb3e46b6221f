"""Command-line driver: mesh/field generation, kernel probes, identity
verification, reconstruction and the extendibility check.

Exit codes: 0 success, 2 configuration error, 3 criterion exceeded,
4 numeric precondition violated.  All artifacts are written
deterministically (stable key order, explicit seeds).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

import numpy as np

from . import quaternions as q
from .errors import (
    CapacityError,
    ConfigError,
    NearSingularityError,
    SingularityError,
    SingularMediumError,
    TopologyError,
)
from .fields import (
    abc_beltrami,
    exact_chiral_solution,
    identity_vector_field,
    polynomial_field,
    scalar_monomial,
)
from .geometry import (
    build_ball_quadrature,
    build_sphere_mesh,
    checked_normals,
    load_off,
    save_off,
    save_quadrature_csv,
)
from .kernels import theta, upsilon
from .maxwell import make_medium
from .operators import BoundaryDensity, borel_pompeiu_residual, cauchy_boundary
from .reconstruction import (
    EXTRAPOLATIONS,
    extendibility_residual,
    perturb_traces,
    reconstruct_eh,
    two_kernel_eh,
)

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CRITERION = 3
EXIT_NUMERIC = 4

# verify-bp's test fields, built for its alpha, and the relative increase of a
# residual between levels that still counts as decreasing
_BP_FIELDS = {
    "scalar-poly": lambda alpha: scalar_monomial(1),
    "vector-poly": lambda alpha: identity_vector_field(),
    "beltrami": lambda alpha: abc_beltrami(-alpha),
}
_BP_SLACK = 0.10

_BP_PROBES = np.array(
    [
        [0.30, 0.10, -0.20],
        [-0.25, 0.30, 0.10],
        [0.20, -0.20, 0.30],
        [0.25, 0.30, 0.15],
        [-0.30, -0.15, -0.25],
    ]
)


def _complex_arg(text: str) -> complex:
    try:
        return complex(text.replace(" ", ""))
    except ValueError as exc:
        raise ConfigError("cannot parse complex number %r" % text) from exc


def _add_medium_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--omega", type=float, default=1.0, help="angular frequency")
    parser.add_argument("--epsilon", type=_complex_arg, default=1.0 + 0j,
                        help="permittivity (complex, e.g. '1+0.1j')")
    parser.add_argument("--mu", type=_complex_arg, default=1.0 + 0j,
                        help="permeability (complex)")
    parser.add_argument("--beta", type=float, default=0.25, help="chirality measure")
    parser.add_argument("--branch", type=int, choices=(1, -1), default=1,
                        help="square-root branch for k (1: Im k >= 0 preferred)")


def _medium_from_args(args) -> "object":
    return make_medium(args.omega, args.epsilon, args.mu, args.beta, args.branch)


def _medium_json(medium) -> dict:
    return {"omega": medium.omega, "epsilon": _c(medium.epsilon), "mu": _c(medium.mu),
            "beta": medium.beta, "k": _c(medium.k), "alpha1": _c(medium.alpha1),
            "alpha2": _c(medium.alpha2)}


def _write_json(path, payload: dict) -> None:
    payload = dict(payload)
    payload["schema_version"] = SCHEMA_VERSION
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _c(z) -> list:
    return [float(np.real(z)), float(np.imag(z))]


_TRACE_HEADER = ["triangle"] + ["%s%d_%s" % (f, i, p)
                               for f in "eh" for i in (1, 2, 3) for p in ("re", "im")]


def _check_trace_columns(path) -> None:
    """Name the first row below the header that does not hold 13 columns."""
    with open(path, newline="") as fh:
        for row in list(csv.reader(fh))[1:]:
            if row and len(row) != len(_TRACE_HEADER):
                raise ConfigError("trace row %r has %d columns, expected %d"
                                  % (row[0], len(row), len(_TRACE_HEADER)))


def _load_traces(path, n_triangles: int):
    try:
        table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except ValueError as exc:
        _check_trace_columns(path)
        raise ConfigError("trace file %s: %s" % (path, exc)) from None
    if table.shape[1] != len(_TRACE_HEADER):
        _check_trace_columns(path)
    index = table[:, 0]
    out_of_range = (index != np.floor(index)) | (index < 0) | (index >= n_triangles)
    if out_of_range.any():
        raise ConfigError("trace row for triangle %g out of range"
                          % index[np.argmax(out_of_range)])
    tri = index.astype(np.int64)
    counts = np.bincount(tri, minlength=n_triangles)
    if (counts > 1).any():
        raise ConfigError("trace file repeats triangle %d" % np.argmax(counts > 1))
    if len(tri) != n_triangles:
        raise ConfigError(
            "trace file holds %d rows, mesh has %d triangles" % (len(tri), n_triangles)
        )
    # re/im pairs of e1..e3, h1..h3, read as six complex columns
    values = table[:, 1:].view(complex)
    e = np.empty((n_triangles, 3), dtype=complex)
    h = np.empty((n_triangles, 3), dtype=complex)
    e[tri] = values[:, :3]
    h[tri] = values[:, 3:]
    return e, h


def _save_traces(path, e, h) -> None:
    """One row per triangle: its index, then re/im of e1..e3 and h1..h3,
    with CRLF line ends as the csv module writes them."""
    pairs = np.concatenate([e, h], axis=1).view(float)
    with open(path, "w", newline="") as fh:
        np.savetxt(fh, np.column_stack([np.arange(len(pairs)), pairs]),
                   fmt=["%d"] + ["%.17g"] * 12, delimiter=",",
                   newline="\r\n", header=",".join(_TRACE_HEADER), comments="")


def cmd_gen_mesh(args) -> int:
    mesh = build_sphere_mesh(args.radius, args.level)
    save_off(mesh, args.out)
    if args.ball_csv:
        save_quadrature_csv(build_ball_quadrature(args.radius, args.level), args.ball_csv)
    check = checked_normals(mesh)
    print(
        "gen-mesh: %d triangles, area %.6g, flux residual %.2e -> %s"
        % (mesh.n_triangles, mesh.area, check.flux_residual, args.out)
    )
    return EXIT_OK


def _field_from_args(args, medium):
    if args.family == "chiral-exact":
        amps = tuple(float(v) for v in args.amplitudes.split(","))
        return exact_chiral_solution(medium, amps, amps)
    if args.family == "abc-beltrami":
        amps = tuple(float(v) for v in args.amplitudes.split(","))
        lam = args.wave_parameter
        if lam is None:
            raise ConfigError("abc-beltrami requires --wave-parameter")
        return (abc_beltrami(lam, *amps), None)
    if args.family == "polynomial":
        if not args.coeffs_file:
            raise ConfigError("polynomial requires --coeffs-file")
        with open(args.coeffs_file) as fh:
            raw = json.load(fh)
        table = np.array(
            [[complex(c[0], c[1]) if isinstance(c, list) else complex(c) for c in row]
             for row in raw]
        )
        return (polynomial_field(table), None)
    raise ConfigError("unknown field family %r" % args.family)


def cmd_gen_field(args) -> int:
    mesh = load_off(args.mesh)
    medium = _medium_from_args(args)
    first, second = _field_from_args(args, medium)
    pts = mesh.centroids
    if second is not None:  # an (E, H) pair: trace CSV
        e = q.vec(first.value(pts))
        h = q.vec(second.value(pts))
        _save_traces(args.out, e, h)
        print("gen-field: %s traces on %d triangles -> %s"
              % (args.family, len(pts), args.out))
    else:  # single quaternion field: sample CSV, the q column as in q.to_text
        vals = np.ascontiguousarray(first.value(pts), dtype=complex).view(float)
        with open(args.out, "w", newline="") as fh:
            np.savetxt(fh, np.column_stack([np.arange(len(pts)), pts, vals]),
                       fmt="%d" + ",%.17g" * 4 + " %.17g" * 7, newline="\r\n",
                       header="triangle,x,y,z,q", comments="")
        print("gen-field: %s sampled at %d points -> %s"
              % (args.family, len(pts), args.out))
    return EXIT_OK


def cmd_kernel_probe(args) -> int:
    direction = np.array([float(v) for v in args.direction.split(",")])
    if direction.shape != (3,) or not np.linalg.norm(direction) > 0:
        raise ConfigError("--direction must be a nonzero 3-vector 'x,y,z'")
    direction = direction / np.linalg.norm(direction)
    radii = np.linspace(args.rmin, args.rmax, args.count)
    if radii[0] <= 0:
        raise ConfigError("--rmin must be positive")
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["r", "theta_re", "theta_im", "upsilon"])
        for r in radii:
            x = r * direction
            th = theta(args.alpha, x)
            up = upsilon(args.alpha, args.sign, x)
            writer.writerow(
                ["%.17g" % r, "%.17g" % th.real, "%.17g" % th.imag, q.to_text(up)]
            )
    print("kernel-probe: alpha=%s sign=%+d, %d radii -> %s"
          % (args.alpha, args.sign, args.count, args.out))
    return EXIT_OK


def cmd_verify_bp(args) -> int:
    levels = [int(v) for v in args.levels.split(",")]
    alpha = args.alpha
    table = {name: [] for name in _BP_FIELDS}
    for level in levels:
        mesh = build_sphere_mesh(args.radius, level)
        quad = build_ball_quadrature(args.radius, level)
        for name, make_field in _BP_FIELDS.items():
            res = borel_pompeiu_residual(make_field(alpha), alpha, 1, mesh, quad,
                                         _BP_PROBES * args.radius)
            table[name].append(float(res.max()))
    decreasing = all(
        col[i + 1] <= (1.0 + _BP_SLACK) * col[i]
        for col in table.values() for i in range(len(col) - 1)
    )
    _write_json(args.out, {
        "command": "verify-bp",
        "alpha": _c(alpha),
        "levels": levels,
        "residuals": {name: [float(r) for r in col] for name, col in table.items()},
        "decreasing": decreasing,
        "probes": [[float(v) for v in x] for x in _BP_PROBES],
    })
    worst = max(col[-1] for col in table.values())
    print("verify-bp: levels %s, worst final residual %.3e, decreasing=%s -> %s"
          % (levels, worst, decreasing, args.out))
    return EXIT_OK if decreasing else EXIT_CRITERION


def _parse_probes(text: str) -> np.ndarray:
    pts = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        vals = [float(v) for v in chunk.split(",")]
        if len(vals) != 3:
            raise ConfigError("probe %r is not a 3-vector" % chunk)
        pts.append(vals)
    if not pts:
        raise ConfigError("no probe points given")
    return np.array(pts)


def cmd_reconstruct(args) -> int:
    mesh = load_off(args.mesh)
    medium = _medium_from_args(args)
    e_tr, h_tr = _load_traces(args.traces, mesh.n_triangles)
    probes = _parse_probes(args.probes)
    # K_0 of the constant 1: 1 inside the surface, 0 outside, -1 inside an inward-wound mesh
    ones = BoundaryDensity(mesh, np.broadcast_to(q.ONE, (mesh.n_triangles, 4)))
    indicator = cauchy_boundary(0.0, 1, ones, probes)[:, 0].real
    for x, value in zip(probes, indicator):
        if abs(value - 1.0) > 0.5:
            print("numeric precondition violated: probe %g,%g,%g is not inside the outward-"
                  "wound surface (interior indicator %.4g, expected 1)" % (*x, value),
                  file=sys.stderr)
            return EXIT_NUMERIC
    e_x, h_x = reconstruct_eh(mesh, e_tr, h_tr, None, medium, None, probes)
    e_k, h_k = two_kernel_eh(mesh, e_tr, h_tr, medium, probes)
    gaps = np.maximum(q.norm(e_x - e_k), q.norm(h_x - h_k))
    worst_gap = float(gaps.max())
    results = [
        {
            "point": [float(v) for v in x],
            "E": [_c(z) for z in q.vec(e)],
            "H": [_c(z) for z in q.vec(h)],
            "scalar_part_E": _c(e[0]),
            "scalar_part_H": _c(h[0]),
            "assembly_gap": float(gap),
        }
        for x, e, h, gap in zip(probes, e_x, h_x, gaps)
    ]
    _write_json(args.out, {
        "command": "reconstruct",
        "medium": _medium_json(medium),
        "results": results,
        "max_assembly_gap": worst_gap,
    })
    print("reconstruct: %d probes, max assembly gap %.2e -> %s"
          % (len(probes), worst_gap, args.out))
    return EXIT_OK


def cmd_extend_check(args) -> int:
    mesh = load_off(args.mesh)
    medium = _medium_from_args(args)
    e_tr, h_tr = _load_traces(args.traces, mesh.n_triangles)
    if args.perturb:
        e_tr, h_tr = perturb_traces(mesh, e_tr, h_tr, args.perturb, args.seed)
    check = checked_normals(mesh)
    if not check.consistent_orientation or check.signed_volume <= 0:
        raise TopologyError("mesh %s is not wound consistently outward (signed volume %g)"
                            % (args.mesh, check.signed_volume))
    report = extendibility_residual(mesh, e_tr, h_tr, medium, args.extrapolation)
    verdict_ok = report.rms <= args.threshold
    _write_json(args.out, {
        "command": "extend-check",
        "medium": _medium_json(medium),
        "depth": report.depth,
        "extrapolation": report.extrapolation,
        "threshold": args.threshold,
        "perturbation": args.perturb,
        "seed": args.seed,
        "scale": report.scale,
        "aggregate": {
            "rms": report.rms, "rms_e": report.rms_e, "rms_h": report.rms_h,
            "max_e": report.max_e, "max_h": report.max_h,
        },
        "per_point": [
            {"point": [float(v) for v in p],
             "residual_e": float(re), "residual_h": float(rh)}
            for p, re, rh in zip(report.points, report.residual_e, report.residual_h)
        ],
        "extendible": verdict_ok,
    })
    print("extend-check: rms residual %.3e (threshold %g) -> %s [%s]"
          % (report.rms, args.threshold, args.out,
             "extendible" if verdict_ok else "criterion violated"))
    return EXIT_OK if verdict_ok else EXIT_CRITERION


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quatem",
        description="Quaternionic integral operators for electromagnetic "
                    "fields in chiral media.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-mesh", help="generate an icosphere mesh (OFF)")
    p.add_argument("--radius", type=float, default=1.0)
    p.add_argument("--level", type=int, default=3)
    p.add_argument("--ball-csv", default=None,
                   help="also dump the matching ball quadrature as CSV (x,y,z,w)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_mesh)

    p = sub.add_parser("gen-field", help="sample an analytic family on a mesh")
    p.add_argument("--family", required=True,
                   choices=("chiral-exact", "abc-beltrami", "polynomial"))
    p.add_argument("--mesh", required=True, help="OFF mesh file")
    p.add_argument("--amplitudes", default="1,0.7,0.3")
    p.add_argument("--wave-parameter", type=_complex_arg, default=None,
                   help="Beltrami eigenvalue (abc-beltrami only)")
    p.add_argument("--coeffs-file", default=None,
                   help="JSON 4x10 table of [re, im] pairs (polynomial only)")
    p.add_argument("--out", required=True)
    _add_medium_args(p)
    p.set_defaults(func=cmd_gen_field)

    p = sub.add_parser("kernel-probe", help="dump theta/upsilon along a ray (CSV)")
    p.add_argument("--alpha", type=_complex_arg, required=True)
    p.add_argument("--sign", type=int, choices=(1, -1), default=1)
    p.add_argument("--direction", default="1,0,0")
    p.add_argument("--rmin", type=float, default=0.1)
    p.add_argument("--rmax", type=float, default=2.0)
    p.add_argument("--count", type=int, default=50)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_kernel_probe)

    p = sub.add_parser("verify-bp",
                       help="reproduction-identity residual across refinements (JSON)")
    p.add_argument("--levels", default="2,3")
    p.add_argument("--alpha", type=_complex_arg, default=1.0 + 0j)
    p.add_argument("--radius", type=float, default=1.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_verify_bp)

    p = sub.add_parser("reconstruct",
                       help="E, H at probe points from boundary traces (JSON)")
    p.add_argument("--mesh", required=True)
    p.add_argument("--traces", required=True)
    p.add_argument("--probes", default="0.3,0.1,-0.2;0,0,0",
                   help="semicolon-separated probe points 'x,y,z;...'")
    p.add_argument("--out", required=True)
    _add_medium_args(p)
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("extend-check",
                       help="boundary-trace extendibility criterion (JSON)")
    p.add_argument("--mesh", required=True)
    p.add_argument("--traces", required=True)
    p.add_argument("--extrapolation", choices=sorted(EXTRAPOLATIONS), default="quadratic")
    p.add_argument("--threshold", type=float, default=0.05,
                   help="aggregate rms residual below which traces count as extendible")
    p.add_argument("--perturb", type=float, default=0.0,
                   help="relative tangential noise added before checking")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--out", required=True)
    _add_medium_args(p)
    p.set_defaults(func=cmd_extend_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:  # argparse reports usage errors this way
            return EXIT_OK if not exc.code else EXIT_CONFIG
        return args.func(args)
    except (ConfigError, SingularMediumError, CapacityError, TopologyError,
            FileNotFoundError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_CONFIG
    except (NearSingularityError, SingularityError) as exc:
        print("numeric precondition violated: %s" % exc, file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
