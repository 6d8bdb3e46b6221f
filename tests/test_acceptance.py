"""Acceptance gate: the nine release criteria, one pass/fail line each.

Each test prints its verdict directly to the terminal (bypassing capture)
so the gate reads as a checklist in the pytest log.  Tolerances are pinned
here and nowhere else.
"""

import time

import numpy as np
import pytest

from quatem import quaternions as q
from quatem.cli import main
from quatem.fields import (
    abc_beltrami,
    exact_chiral_solution,
    identity_vector_field,
    polynomial_field,
    scalar_monomial,
)
from quatem.geometry import build_sphere_mesh, sphere_rule
from quatem.kernels import upsilon
from quatem.maxwell import continuity_rho, make_medium
from quatem.operators import borel_pompeiu_residual
from quatem.reconstruction import (
    extendibility_residual,
    perturb_traces,
    reconstruct_eh,
    two_kernel_eh,
)

from oracles import fd_d_alpha, fd_moisil_theodoresco, maxwell_residual, qconj

MEDIUM = make_medium(1.0, 1.0, 1.0, 0.25)

BP_PROBES = np.array(
    [
        [0.30, 0.10, -0.20],
        [-0.25, 0.30, 0.10],
        [0.20, -0.20, 0.30],
        [0.25, 0.30, 0.15],
        [-0.30, -0.15, -0.25],
    ]
)


def _report(capsys, number, ok, detail):
    with capsys.disabled():
        print("\n[%s] criterion %d: %s" % ("PASS" if ok else "FAIL", number, detail),
              flush=True)
    assert ok, detail


def test_criterion_1_algebra_suite(capsys):
    start = time.perf_counter()
    rng = np.random.default_rng(100)
    # full Cayley table, exact
    table_ok = True
    expected = {
        (0, 0): q.ONE, (1, 1): -q.ONE, (2, 2): -q.ONE, (3, 3): -q.ONE,
        (1, 2): q.I3, (2, 1): -q.I3, (2, 3): q.I1, (3, 2): -q.I1,
        (3, 1): q.I2, (1, 3): -q.I2,
        (0, 1): q.I1, (1, 0): q.I1, (0, 2): q.I2, (2, 0): q.I2,
        (0, 3): q.I3, (3, 0): q.I3,
    }
    for (a, b), want in expected.items():
        table_ok &= bool(np.array_equal(q.qmul(q.UNITS[a], q.UNITS[b]), want))
    # associativity and anti-homomorphism on 1000 random triples/pairs
    u, v, w = (rng.standard_normal((1000, 4)) + 1j * rng.standard_normal((1000, 4))
               for _ in range(3))
    assoc = float(np.max(np.abs(q.qmul(q.qmul(u, v), w) - q.qmul(u, q.qmul(v, w)))))
    anti = float(np.max(np.abs(qconj(q.qmul(u, v)) - q.qmul(qconj(v), qconj(u)))))
    elapsed = time.perf_counter() - start
    ok = table_ok and assoc < 1e-12 and anti < 1e-12 and elapsed < 1.0
    _report(capsys, 1, ok,
            "Cayley table exact, associativity %.1e, anti-homomorphism %.1e, %.2fs"
            % (assoc, anti, elapsed))


def test_criterion_2_d_squared_is_minus_laplacian(capsys):
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(3):
        coeffs = rng.standard_normal((4, 10)) + 1j * rng.standard_normal((4, 10))
        f = polynomial_field(coeffs)
        minus_lap = -2.0 * (coeffs[:, 4] + coeffs[:, 5] + coeffs[:, 6])
        for x in rng.uniform(-1, 1, (4, 3)):
            dd = fd_moisil_theodoresco(
                lambda p: np.stack([fd_moisil_theodoresco(f.value, pp)
                                    for pp in p.reshape(-1, 3)]).reshape(p.shape[:-1] + (4,)),
                x,
            )
            worst = max(worst, float(q.norm(dd - minus_lap) / max(q.norm(minus_lap), 1.0)))
    ok = worst < 1e-6
    _report(capsys, 2, ok,
            "FD composition D(Df) vs -Laplacian, worst relative gap %.2e" % worst)


def test_criterion_3_fundamental_solution(capsys):
    start = time.perf_counter()
    worst = 0.0
    x = np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0)  # |x| = 1
    for alpha in (1.0, 1.0 + 0.3j, 2.0j):
        for sign in (1, -1):
            res = fd_d_alpha(lambda p: upsilon(alpha, sign, p), alpha, sign, x)
            worst = max(worst, float(q.norm(res) / q.norm(upsilon(alpha, sign, x))))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-5 and elapsed < 1.0
    _report(capsys, 3, ok,
            "(D+-a) applied to its fundamental solution at |x|=1: "
            "worst residual %.2e, %.2fs" % (worst, elapsed))


def _bp_worst(level, alpha=1.0):
    rule = sphere_rule(1.0, level)
    fields = (scalar_monomial(1), identity_vector_field(), abc_beltrami(-alpha))
    return max(
        borel_pompeiu_residual(f, alpha, 1, rule, 1.0, x)
        for f in fields
        for x in BP_PROBES
    )


def test_criterion_4_reproduction_identity(capsys):
    t3 = time.perf_counter()
    r3 = _bp_worst(3)
    t3 = time.perf_counter() - t3
    t4 = time.perf_counter()
    r4 = _bp_worst(4)
    t4 = time.perf_counter() - t4
    ok = r3 < 2e-2 and r3 / r4 >= 1.5 and max(t3, t4) < 60.0
    _report(capsys, 4, ok,
            "(K + T D) f = f: level-3 residual %.2e, level-4 %.2e "
            "(factor %.1f), %.1fs/%.1fs" % (r3, r4, r3 / r4, t3, t4))


def test_criterion_5_manufactured_chiral_solution(capsys):
    e_field, h_field = exact_chiral_solution(MEDIUM)
    rng = np.random.default_rng(102)
    pts = rng.uniform(-0.9, 0.9, (100, 3))
    worst = max(max(maxwell_residual(e_field, h_field, MEDIUM, x)) for x in pts)
    ok = worst < 1e-5
    _report(capsys, 5, ok,
            "chiral curl equations at 100 random points, worst residual %.2e" % worst)


def _reconstruction_worst(level):
    rule = build_sphere_mesh(1.0, level).rule
    e_field, h_field = exact_chiral_solution(MEDIUM)
    pts = rule.points
    e_tr, h_tr = q.vec(e_field.value(pts)), q.vec(h_field.value(pts))
    probes = BP_PROBES  # all with |x| <= 0.5
    worst = gap = 0.0
    e_all, h_all = reconstruct_eh(rule, e_tr, h_tr, MEDIUM, probes)
    e_two, h_two = two_kernel_eh(rule, e_tr, h_tr, MEDIUM, probes)
    for x, e1, h1, e2, h2 in zip(probes, e_all, h_all, e_two, h_two):
        exact_e, exact_h = e_field.value(x), h_field.value(x)
        worst = max(worst,
                    float(q.norm(e1 - exact_e) / q.norm(exact_e)),
                    float(q.norm(h1 - exact_h) / q.norm(exact_h)))
        scale = max(float(q.norm(e1)), float(q.norm(h1)))
        gap = max(gap, float(q.norm(e1 - e2) / scale), float(q.norm(h1 - h2) / scale))
    return worst, gap


def test_criterion_6_reconstruction(capsys):
    err3, gap3 = _reconstruction_worst(3)
    err4, gap4 = _reconstruction_worst(4)
    ok = err3 < 5e-2 and err4 < err3 and max(gap3, gap4) < 1e-10
    _report(capsys, 6, ok,
            "trace reconstruction: level-3 error %.2e, level-4 %.2e, "
            "assembly-path gap %.1e" % (err3, err4, max(gap3, gap4)))


def test_criterion_7_extendibility(capsys, tmp_path):
    rule = build_sphere_mesh(1.0, 3).rule
    e_field, h_field = exact_chiral_solution(MEDIUM)
    pts = rule.points
    e_tr, h_tr = q.vec(e_field.value(pts)), q.vec(h_field.value(pts))
    r0 = extendibility_residual(rule, e_tr, h_tr, MEDIUM).rms
    e_p, h_p = perturb_traces(rule, e_tr, h_tr, 0.10, seed=42)
    r1 = extendibility_residual(rule, e_p, h_p, MEDIUM).rms

    mesh_path = str(tmp_path / "m.off")
    traces = str(tmp_path / "t.csv")
    out = str(tmp_path / "e.json")
    assert main(["gen-mesh", "--level", "3", "--out", mesh_path]) == 0
    assert main(["gen-field", "--family", "chiral-exact", "--mesh", mesh_path,
                 "--out", traces]) == 0
    code_genuine = main(["extend-check", "--mesh", mesh_path, "--traces", traces,
                         "--out", out])
    code_perturbed = main(["extend-check", "--mesh", mesh_path, "--traces", traces,
                           "--perturb", "0.10", "--seed", "42", "--out", out])
    ok = r0 < 5e-2 and r1 >= 5.0 * r0 and code_genuine == 0 and code_perturbed == 3
    _report(capsys, 7, ok,
            "extendibility: genuine rms %.2e, perturbed %.2e (x%.1f), "
            "CLI exits %d/%d" % (r0, r1, r1 / r0, code_genuine, code_perturbed))


def test_criterion_8_achiral_reduction(capsys):
    m = make_medium(1.0, 2.5, 1.2, 0.0)
    bitwise = (m.alpha1 == m.alpha2 == m.k)
    x = np.random.default_rng(103).uniform(-1, 1, (50, 3))
    k1 = upsilon(m.alpha1, 1, x)
    k2 = upsilon(m.alpha2, -1, x)
    kernels_ok = (np.array_equal(q.vec(k1), q.vec(k2))
                  and np.array_equal(q.sc(k1), -q.sc(k2)))
    ok = bitwise and kernels_ok
    _report(capsys, 8, ok,
            "beta=0: alpha1 == alpha2 == k bitwise (%s), kernels coincide up to "
            "the sign of alpha (%s)" % (bitwise, kernels_ok))


def test_criterion_9_continuity(capsys):
    coeffs = np.zeros((4, 10), dtype=complex)
    coeffs[1, 4] = 0.5       # j1 = 0.5 x1^2
    coeffs[2, 7] = 1.0 + 1j  # j2 = (1+i) x1 x2
    coeffs[3, 3] = -2.0      # j3 = -2 x3
    j = polynomial_field(coeffs)
    div_j = lambda x: (np.asarray(x)[..., 0] * (1.0 + (1.0 + 1j)) - 2.0)
    rho = continuity_rho(j, MEDIUM)
    pts = np.random.default_rng(104).uniform(-1, 1, (100, 3))
    expected = -div_j(pts) / (1j * MEDIUM.k)
    worst = float(np.max(np.abs(rho(pts) - expected)))
    ok = worst < 1e-12
    _report(capsys, 9, ok,
            "continuity rho/eps from div j, worst pointwise gap %.2e" % worst)
