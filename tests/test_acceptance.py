"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Every expected number comes from an oracle independent of the code under
test: bisection on the beam frequency equations, closed-form fundamental
solutions, or direct quadrature of closed-form mode shapes.
"""

import cmath
import json
import sys
import time

import numpy as np
import pytest
from scipy.integrate import quad

from quartspec import (
    CoefficientField,
    ProblemSpec,
    all_deltas,
    beam_problem,
    classify_eigenvalue,
    classify_on_problem,
    deltas_at,
    eigenfunction,
    find_complex_zeros,
    find_first_zeros,
    fundamental_C,
    fundamental_S,
    mclaughlin_to_barcilon_values,
    reconstruct_delta_hadamard,
    reconstruct_m32,
    save_problem,
    twin_comparison,
    validate_problem,
    weight_matrix,
    weyl_matrix,
)
from quartspec.cli import main as cli_main
from quartspec.mclaughlin import SpectralPoint
from quartspec.propagator import propagate
from quartspec.problem import lagrange_bracket
from quartspec.weyl import PoleError

from conftest import (
    beam_eigenvalue,
    clamped_free_s,
    delta_index,
    make_random_problem,
    make_random_real_problem,
    oracle_m43,
    oracle_mode_shape,
)


def report(name, worst, tol, ok=None):
    ok = bool(worst < tol) if ok is None else bool(ok)
    line = f"ACCEPTANCE {'PASS' if ok else 'FAIL'}  {name}: worst {worst:.3e} vs {tol:.1e}"
    print(line)
    print(line, file=sys.stderr)
    assert ok, line


def test_01_beam_eigenvalues(beam_zeros):
    worst = max(abs(z.lam - beam_eigenvalue(n)) / beam_eigenvalue(n)
                for n, z in enumerate(beam_zeros, 1))
    report("beam_eigenvalues_first5_rel", worst, 1e-8)


def test_02_weyl_closed_form(beam):
    worst = 0.0
    for lam in np.linspace(0.5, 50.0, 20):
        m43 = weyl_matrix(beam, lam).m[3, 2]
        expect = oracle_m43(lam)
        worst = max(worst, abs(m43 - expect) / abs(expect))
    report("m43_closed_form_rel", worst, 1e-8)


def _structural_residuals(pb):
    sym, rel = 0.0, 0.0
    for lam in np.linspace(0.6, 49.7, 50):
        try:
            m = weyl_matrix(pb, lam).m
        except PoleError:
            continue
        sym = max(sym, abs(m[1, 0] - m[3, 2]))
        rel = max(rel, abs(m[2, 0] - m[1, 0] * m[2, 1] + m[3, 1]))
    return sym, rel


def test_03_structural_identities(beam, random_problem):
    worst = max(max(_structural_residuals(beam)),
                max(_structural_residuals(random_problem)))
    report("weyl_structure_m21m43_relm31", worst, 1e-8)


def test_04_shortcut_identities(beam, random_problem):
    # Delta_11 and Delta_21 as 3 x 3 determinants of C(1), formed here,
    # against the entries -C_4(1) and -C_3(1) that M reads, deltas_at's
    # entries Delta_31 and Delta_41 against the backward solution S_4(0),
    # each over one batch
    lams, worst = np.linspace(0.6, 49.7, 50), 0.0
    for pb in (beam, random_problem):
        m = weyl_matrix(pb, lams).deltas
        d = deltas_at(pb, lams, ((3, 1), (4, 1)))
        C = fundamental_C(pb, lams, x_grid=[0.0, 1.0]).end
        S = fundamental_S(pb, lams, x_grid=[0.0, 1.0]).start
        det = {jk: np.linalg.det(C[:, rows][:, :, cols])
               for jk in ((1, 1), (2, 1)) for rows, cols in [delta_index(*jk)]}
        pairs = [
            (det[(1, 1)], m[(1, 1)].value),
            (det[(2, 1)], m[(2, 1)].value),
            (d[(3, 1)].value, -S[:, 0, 3]),
            (d[(4, 1)].value, -S[:, 1, 3]),
        ]
        for got, expect in pairs:
            worst = max(worst, np.max(np.abs(got - expect) / (1 + np.abs(expect))))
    report("delta_shortcuts_via_C4_C3_S4", worst, 1e-8)


def test_05_propagator_invariants(beam, random_problem):
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        pb = beam if rng.random() < 0.5 else random_problem
        lam = complex(rng.uniform(-30, 80), rng.uniform(-5, 5))
        mu = complex(rng.uniform(-30, 80), rng.uniform(-5, 5))
        dets = np.linalg.det(fundamental_C(pb, lam).values)   # det C(x) is constant in x
        worst = max(worst, np.max(np.abs(dets - dets[0])))
        y0 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        z0 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        res = propagate(pb, [lam, mu], "forward", np.column_stack([y0, z0]),
                        quad_pairs=[(0, 1)])
        yt, zt, integ = res.values[:, :, 0], res.values[:, :, 1], res.quadratures[(0, 1)]
        jump = lagrange_bracket(yt[-1], zt[-1]) - lagrange_bracket(yt[0], zt[0])
        worst = max(worst, abs(jump - (lam - mu) * integ))
    report("det_conservation_and_lagrange", worst, 1e-8)


def test_06_mclaughlin_data(beam, beam_points):
    worst = 0.0
    for n, pt in enumerate(beam_points, 1):
        y, dy, _ = oracle_mode_shape(n)
        norm = np.sqrt(quad(lambda x: y(x) ** 2, 0, 1, limit=200)[0])
        worst = max(worst, abs(abs(pt.gamma) - abs(y(0)) / norm))
        worst = max(worst, abs(pt.beta + pt.gamma ** 2))
        d = all_deltas(beam, pt.lam)
        m43_at = -d[(4, 3)].value / d[(3, 3)].value
        worst = max(worst, abs(m43_at - pt.xi / pt.gamma))
    report("mclaughlin_gamma_beta_m43", worst, 1e-6)


def test_07_weight_matrices(beam, beam_zeros, beam_points):
    # case I at lambda_1
    w = weight_matrix(beam, beam_zeros[0].lam,
                      nearby_zeros=[z.lam for z in beam_zeros])
    n = w.n
    scale = abs(n[2, 1])
    mask = np.ones((4, 4), bool)
    mask[2, 1] = False
    case1_off = float(np.max(np.abs(n[mask]))) / scale
    beta_err = abs(n[2, 1] - beam_points[0].beta) / abs(beam_points[0].beta)
    # case V at the smallest zero of Delta_33
    lam0 = -4 * clamped_free_s(1) ** 4
    w5 = weight_matrix(beam, lam0)
    n5 = w5.n
    scale5 = abs(n5[1, 0])
    eq_err = abs(n5[1, 0] - n5[3, 2]) / scale5
    mask5 = np.ones((4, 4), bool)
    mask5[1, 0] = mask5[3, 2] = False
    case5_off = float(np.max(np.abs(n5[mask5]))) / scale5
    ok = case1_off < 1e-7 and beta_err < 1e-6 and eq_err < 1e-8 and case5_off < 1e-8
    report("weight_matrix_case1_case5", max(case1_off, beta_err, eq_err, case5_off),
           1e-6, ok=ok)


def test_08_classification(beam, beam_points):
    tags = [classify_on_problem(beam, pt) for pt in beam_points]
    # (point, Delta_43, Delta_33, tag); m43 = -Delta_43 / Delta_33
    stubs = [
        (SpectralPoint(lam=1.0, gamma=1.0, xi=0.5), -99.0, 1.0, "II"),
        (SpectralPoint(lam=1.0, gamma=0.0, xi=1.0), 1.0, 0.0, "III"),
        (SpectralPoint(lam=1.0, gamma=0.0, xi=1.0), 0.0, 1.0, "IV"),
        (SpectralPoint(lam=1.0, gamma=5e-7, xi=1.0), 0.0, 1.0, "indeterminate"),
    ]
    stub_tags = [classify_eigenvalue(pt, d43, d33, 1.0)
                 for pt, d43, d33, _ in stubs]
    ok = tags == ["I"] * 5 and stub_tags == [s[-1] for s in stubs]
    report("algorithm1_cases", 0.0 if ok else 1.0, 0.5, ok=ok)


def test_09_barcilon_bridge(beam, beam_zeros, beam_points):
    worst = 0.0
    for z, pt in zip(beam_zeros[:4], beam_points[:4]):
        d32_pred, d42_pred = mclaughlin_to_barcilon_values(pt, z.ddelta)
        d = all_deltas(beam, z.lam)
        worst = max(worst, abs(d32_pred - d[(3, 2)].value) / abs(d[(3, 2)].value))
        worst = max(worst, abs(d42_pred - d[(4, 2)].value) / abs(d[(4, 2)].value))
    report("bridge_delta32_delta42_rel", worst, 1e-5)


def test_10_reconstructions(beam):
    data = [(beam_eigenvalue(n), -4.0) for n in range(1, 51)]
    worst = 0.0  # error as a fraction of the reported estimate
    for lam in (0.0, 5.0, -7.0, 30.0, 100.0, -300.0, 2.5, 55.5, -1.0, 8.8):
        value, tail = reconstruct_m32(data, lam)
        d = all_deltas(beam, lam)
        direct = -d[(3, 2)].value / d[(2, 2)].value
        worst = max(worst, abs(value - direct) / tail)
    zeros = [-4 * clamped_free_s(k) ** 4 for k in range(1, 31)]
    for lam in (1.0, -10.0, 25.0, 50.0, -50.0):
        value, bound = reconstruct_delta_hadamard(zeros, 1.0, lam)
        rho = complex(lam) ** 0.25
        direct = (cmath.sinh(rho) + cmath.sin(rho)) / (2 * rho)
        worst = max(worst, (abs(value - direct) / abs(direct)) / bound)
    report("reconstructions_within_estimates", worst, 1.0)


def test_11_twin_uniqueness(beam):
    r = twin_comparison(beam, beam_problem(), "mclaughlin", count=4)
    same_ok = r["max_distance"] < 1e-8 and r["p_matrix_deviation"] < 1e-7
    bump = CoefficientField([(0.0, 0.2, [0.0]), (0.2, 0.4, [0.5]),
                             (0.4, 1.0, [0.0])])
    bumped = validate_problem(ProblemSpec(p=CoefficientField.zero(), q=bump))
    z1 = find_first_zeros(beam, (2, 2), 1)[0]
    z2 = find_first_zeros(bumped, (2, 2), 1)[0]
    _, g1, x1 = eigenfunction(beam, z1.lam)
    _, g2, x2 = eigenfunction(bumped, z2.lam)
    shift_ok = (abs(z1.lam - z2.lam) > 1e-4
                and (abs(g1 - g2) > 1e-5 or abs(x1 - x2) > 1e-5))
    report("twin_identical_and_perturbed",
           max(r["max_distance"], r["p_matrix_deviation"]), 1e-7,
           ok=same_ok and shift_ok)


def test_12_full_verify(tmp_path):
    t0 = time.time()
    rcs = []
    problems = [beam_problem()] + [make_random_real_problem(s) for s in (11, 12, 13)]
    for i, pb in enumerate(problems):
        path = tmp_path / f"pb{i}.json"
        save_problem(pb, path)
        rcs.append(cli_main(["verify", "--problem", str(path),
                             "--output", str(tmp_path / f"out{i}.json")]))
    elapsed = time.time() - t0
    ok = all(rc == 0 for rc in rcs) and elapsed < 300.0
    report("verify_four_problems_under_5min", elapsed, 300.0, ok=ok)
