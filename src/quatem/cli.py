"""Command-line driver: mesh/field generation, kernel probes, identity
verification, reconstruction and the extendibility check.

Exit codes: 0 success, 2 configuration error, 3 criterion exceeded,
4 numeric precondition violated.  All artifacts are written
deterministically (stable key order, explicit seeds).
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import quaternions as q
from .errors import (
    ConfigError,
    NearSingularityError,
    QuatemError,
    SingularityError,
)
from .fields import (
    DEFAULT_AMPLITUDES,
    abc_beltrami,
    exact_chiral_solution,
    identity_vector_field,
    scalar_monomial,
)
from .geometry import (
    MAX_SUBDIVISION,
    build_sphere_mesh,
    checked_normals,
    load_off,
    load_traces,
    save_csv,
    save_off,
    save_traces,
    sphere_rule,
)
from .kernels import theta, upsilon
from .maxwell import ChiralMedium, make_medium
from .operators import BoundaryDensity, borel_pompeiu_residual, cauchy_boundary
from .reconstruction import (
    EXTRAPOLATIONS,
    extendibility_residual,
    perturb_traces,
    reconstruct_eh,
    two_kernel_eh,
)

SCHEMA_VERSION = 2

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
# verify-bp's coarsest level: below it one of _BP_PROBES comes closer to a sphere
# node (0.59 at levels 0 and 1) than the boundary operator's exclusion zone of 2
# mesh spacings (1.38 and 0.76), so those levels could only exit 4
MIN_BP_LEVEL = 2

# verify-bp's probes in the unit ball; the kernel is radial up to its vector
# part, so the check on a ball of radius R at alpha is this one at alpha * R
_BP_PROBES = np.array(
    [
        [0.30, 0.10, -0.20],
        [-0.25, 0.30, 0.10],
        [0.20, -0.20, 0.30],
        [0.25, 0.30, 0.15],
        [-0.30, -0.15, -0.25],
    ]
)


def _numbers(text: str, kind=float):
    """The comma-separated values of text as `kind`, or None if one is not a
    finite number of that kind."""
    try:
        values = [kind(v) for v in text.split(",")]
    except ValueError:
        return None
    return values if all(abs(v) < np.inf for v in values) else None


def _complex_arg(text: str) -> complex:
    value = _numbers(text.replace(" ", ""), complex)
    if value is None or len(value) != 1:
        raise ConfigError("complex number %r does not parse or is not finite" % text)
    return value[0]


def _add_medium_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--omega", type=float, default=1.0, help="angular frequency")
    parser.add_argument("--epsilon", type=_complex_arg, default=1.0 + 0j,
                        help="permittivity (complex, e.g. '1+0.1j')")
    parser.add_argument("--mu", type=_complex_arg, default=1.0 + 0j,
                        help="permeability (complex)")
    parser.add_argument("--beta", type=float, default=0.25, help="chirality measure")


def _medium_from_args(args) -> ChiralMedium:
    return make_medium(args.omega, args.epsilon, args.mu, args.beta)


def _medium_json(medium) -> dict:
    return {"omega": medium.omega, "epsilon": _c(medium.epsilon), "mu": _c(medium.mu),
            "beta": medium.beta, "k": _c(medium.k), "alpha1": _c(medium.alpha1),
            "alpha2": _c(medium.alpha2)}


def _write_json(path, payload: dict) -> None:
    payload = dict(payload, schema_version=SCHEMA_VERSION)
    # dumped before the file is opened: a NaN or infinity leaves --out untouched
    try:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    except ValueError:
        raise ValueError("%s not written: a value is NaN or infinite" % path) from None
    with open(path, "w") as fh:
        fh.write(text + "\n")


def _c(z) -> list:
    return [float(np.real(z)), float(np.imag(z))]


def _read_surface(args):
    """The rule of the OFF mesh args.mesh, the medium, and the traces args.traces."""
    rule = load_off(args.mesh).rule
    return (rule, _medium_from_args(args), *load_traces(args.traces, rule))


def cmd_gen_mesh(args) -> int:
    mesh = build_sphere_mesh(args.radius, args.level)
    save_off(mesh, args.out)
    check = checked_normals(mesh)
    print("gen-mesh: %d triangles, area %.6g, flux residual %.2e -> %s"
          % (mesh.n_triangles, mesh.area, check.flux_residual, args.out))
    return EXIT_OK


def cmd_gen_field(args) -> int:
    mesh = load_off(args.mesh)
    medium = _medium_from_args(args)
    amps = _numbers(args.amplitudes)
    if amps is None or len(amps) != 3:
        raise ConfigError("--amplitudes must be three finite numbers 'a,b,c', got %r"
                          % args.amplitudes)
    e_field, h_field = exact_chiral_solution(medium, amps, amps)
    pts = mesh.rule.points
    e, h = e_field.value(pts), h_field.value(pts)
    save_traces(args.out, q.vec(e), q.vec(h))
    print("gen-field: %s traces on %d triangles -> %s" % (args.family, len(pts), args.out))
    return EXIT_OK


def cmd_kernel_probe(args) -> int:
    if args.count < 1:
        raise ConfigError("--count must be at least 1")
    if not 0 < args.rmin <= args.rmax < np.inf:
        raise ConfigError("--rmin must be positive and --rmax finite and at least --rmin, "
                          "got %g and %g" % (args.rmin, args.rmax))
    radii = np.linspace(args.rmin, args.rmax, args.count)
    # upsilon is radial up to the factor x in its vector part, so the dump
    # along any other ray is this one with the vector part rotated, and the
    # kernel of D - alpha is this one with q0 negated
    xs = radii[:, None] * np.array([1.0, 0.0, 0.0])
    th = theta(args.alpha, xs)
    up = upsilon(args.alpha, 1, xs)
    save_csv(args.out, np.column_stack([radii, th.real, th.imag, up.view(float)]), "%.17g",
             ["r", "theta_re", "theta_im"]
             + ["upsilon%d_%s" % (i, p) for i in range(4) for p in ("re", "im")])
    print("kernel-probe: alpha=%s, %d radii -> %s" % (args.alpha, args.count, args.out))
    return EXIT_OK


def cmd_verify_bp(args) -> int:
    levels = _numbers(args.levels, int)
    if not levels or sorted(set(levels)) != levels or not (
            MIN_BP_LEVEL <= levels[0] and levels[-1] <= MAX_SUBDIVISION):
        raise ConfigError("--levels must be strictly increasing integers in %d..%d, got %r"
                          % (MIN_BP_LEVEL, MAX_SUBDIVISION, args.levels))
    alpha = args.alpha
    table = {name: [] for name in _BP_FIELDS}
    fields = tuple(make_field(alpha) for make_field in _BP_FIELDS.values())
    for level in levels:
        rule = sphere_rule(1.0, level)
        res = borel_pompeiu_residual(fields, alpha, 1, rule, 1.0, _BP_PROBES)
        for col, field_res in zip(table.values(), res):
            col.append(float(field_res.max()))
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
    for chunk in filter(None, map(str.strip, text.split(";"))):
        pts.append(_numbers(chunk))
        if len(pts[-1] or ()) != 3:
            raise ConfigError("--probes: probe %r is not three finite numbers" % chunk)
    if not pts:
        raise ConfigError("--probes: no probe points given")
    return np.array(pts)


def cmd_reconstruct(args) -> int:
    rule, medium, e_tr, h_tr = _read_surface(args)
    probes = _parse_probes(args.probes)
    # K_0 of the constant 1: 1 inside the surface, 0 outside; a far probe's
    # distance overflows to a NaN indicator, refused as well
    ones = BoundaryDensity(rule, np.broadcast_to(q.ONE, (1, len(rule.points), 4)))
    indicator = cauchy_boundary((0.0,), (1,), ones, probes)[0, :, 0].real
    for x, value in zip(probes, indicator):
        if not abs(value - 1.0) <= 0.5:
            print("numeric precondition violated: probe %g,%g,%g is not inside the surface "
                  "(interior indicator %.4g, expected 1)" % (*x, value), file=sys.stderr)
            return EXIT_NUMERIC
    e_x, h_x = reconstruct_eh(rule, e_tr, h_tr, medium, probes)
    e_k, h_k = two_kernel_eh(rule, e_tr, h_tr, medium, probes)
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
    if not 0 < args.threshold < np.inf:
        raise ConfigError("--threshold must be finite and positive, got %g" % args.threshold)
    if not 0 <= args.perturb < np.inf:
        raise ConfigError("--perturb must be finite and not negative, got %g" % args.perturb)
    if args.seed < 0:
        raise ConfigError("--seed must be a non-negative integer, got %d" % args.seed)
    rule, medium, e_tr, h_tr = _read_surface(args)
    if args.perturb:
        e_tr, h_tr = perturb_traces(rule, e_tr, h_tr, args.perturb, args.seed)
    report = extendibility_residual(rule, e_tr, h_tr, medium, args.extrapolation)
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
        # one value per rule node, so per triangle in mesh order
        "residual_e": report.residual_e.tolist(),
        "residual_h": report.residual_h.tolist(),
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
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_mesh)

    p = sub.add_parser("gen-field",
                       help="E/H traces of the exact chiral solution on a mesh (CSV)")
    p.add_argument("--family", required=True, choices=("chiral-exact",))
    p.add_argument("--mesh", required=True, help="OFF mesh file")
    p.add_argument("--amplitudes", default=",".join(map(str, DEFAULT_AMPLITUDES)))
    p.add_argument("--out", required=True)
    _add_medium_args(p)
    p.set_defaults(func=cmd_gen_field)

    p = sub.add_parser("kernel-probe", help="dump theta/upsilon along the +x ray (CSV)")
    p.add_argument("--alpha", type=_complex_arg, required=True)
    p.add_argument("--rmin", type=float, default=0.1)
    p.add_argument("--rmax", type=float, default=2.0)
    p.add_argument("--count", type=int, default=50)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_kernel_probe)

    p = sub.add_parser("verify-bp",
                       help="reproduction-identity residual across refinements (JSON)")
    p.add_argument("--levels", default="2,3")
    p.add_argument("--alpha", type=_complex_arg, default=1.0 + 0j)
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
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse reads a value that begins with '-' as an option unless it is a
    # plain negative number: join each one to the long option before it
    for i in reversed(range(1, len(argv))):
        opt, value = argv[i - 1:i + 1]
        if opt[:2] == "--" and "=" not in opt and value[:1] == "-" != value[1:2]:
            argv[i - 1:i + 1] = [opt + "=" + value]
    try:
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:  # argparse reports usage errors this way
            return EXIT_OK if not exc.code else EXIT_CONFIG
        # NumPy overflow stays quiet: the densities, _write_json, save_csv and
        # reconstruct's interior indicator refuse what is not finite
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(args)
    except (NearSingularityError, SingularityError) as exc:
        print("numeric precondition violated: %s" % exc, file=sys.stderr)
        return EXIT_NUMERIC
    except (QuatemError, OSError, ValueError, MemoryError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
