import dataclasses

import numpy as np
import pytest

from quartspec import (
    beam_problem,
    classify_eigenvalue,
    classify_on_problem,
    deltas_at,
    entry_residue,
    find_complex_zeros,
    find_first_zeros,
    find_zero_near,
    laurent_coefficients,
    verify_weight_structure,
    weight_matrix,
    weight_matrix_near,
    weight_numbers,
)
from quartspec.mclaughlin import SpectralPoint
from quartspec.weights import (
    CONTOUR_NODES, LaurentError, WeightMatrix, _contour, _trapezoid, case_search,
    default_contour_radius,
)
from quartspec.weyl import _entry, weyl_matrix

from conftest import beam_eigenvalue, clamped_free_s, make_random_problem, make_random_real_problem


@pytest.fixture(scope="module")
def w_lambda1(beam, beam_zeros):
    nearby = [z.lam for z in beam_zeros]
    return weight_matrix(beam, beam_zeros[0].lam, nearby_zeros=nearby)


@pytest.fixture(scope="module")
def w_case5(beam):
    lam0 = -4 * clamped_free_s(1) ** 4
    return weight_matrix(beam, lam0)


class TestLaurent:
    def test_residue_of_simple_pole(self, beam, beam_zeros):
        # M has a simple pole at lambda_1 through the k = 2 column; the
        # (3,2) residue equals -gamma_1^2 = -4
        coeffs = laurent_coefficients(beam, beam_zeros[0].lam, (-1,))
        assert coeffs[-1][2, 1] == pytest.approx(-4.0, abs=1e-6)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_entry_residue_of_m32_is_minus_four(self, beam, beam_zeros, n):
        # the (3,2) residue alone, node doubling judged on m32's own samples
        res = entry_residue(beam, beam_zeros[n - 1].lam, (3, 2))
        assert abs(res + 4.0) < 1e-9

    def test_regular_point_zero_residue(self, beam):
        coeffs = laurent_coefficients(beam, 100.0, (-1,), radius=1.0)
        assert np.max(np.abs(coeffs[-1])) < 1e-7

    def test_contour_through_pole_rejected(self, beam, beam_zeros):
        lam1 = beam_zeros[0].lam
        with pytest.raises(LaurentError):
            laurent_coefficients(beam, lam1 + 0.5, (-1,), radius=0.5)

    def test_default_radius_quarter_gap(self):
        r = default_contour_radius(10.0, nearby_zeros=[10.0, 14.0, 2.0])
        assert r == pytest.approx(1.0)  # quarter of |14 - 10|

    def test_node_doubling_deterministic(self, beam, beam_zeros):
        a = laurent_coefficients(beam, beam_zeros[0].lam, (-1,))
        b = laurent_coefficients(beam, beam_zeros[0].lam, (-1,))
        assert np.array_equal(a[-1], b[-1])


class TestConjugateContour:
    @pytest.mark.parametrize("lam0", [12.0, 12.0 + 0.5j])
    def test_nodes_are_conjugate_pairs(self, beam, lam0):
        nodes = CONTOUR_NODES
        zs, _ = _contour(beam, complex(lam0), 0.75)
        assert len(zs) == 2 * nodes
        # node 2N - j is conj(node j), and nodes 0 and N sit on the axis
        assert np.array_equal(zs[:0:-1], zs[1:].conj())
        assert zs[0] == 0.75 and zs[nodes] == -0.75
        # still 2N equispaced points on the circle
        ref = 0.75 * np.exp(2j * np.pi * np.arange(2 * nodes) / (2 * nodes))
        assert np.max(np.abs(zs - ref)) < 1e-15

    @pytest.mark.parametrize("which", ["beam", "random"])
    def test_folded_contour_matches_weyl_matrix_on_every_node(self, beam, which):
        # M at the N + 1 upper nodes and their conjugates, against M solved at
        # all 2N nodes; and the weight matrix N from either set of samples
        pb = beam if which == "beam" else make_random_real_problem()
        lam0 = complex(beam_eigenvalue(1) if which == "beam"
                       else find_zero_near(pb, (2, 2), 12.0, 6.0).lam)
        radius = default_contour_radius(lam0)
        zs, ms = _contour(pb, lam0, radius)
        direct = weyl_matrix(pb, lam0 + zs).m
        scale = np.max(np.abs(direct), axis=(-2, -1))
        assert np.all(np.max(np.abs(ms - direct), axis=(-2, -1)) <= 1e-12 * scale)
        n_direct = np.linalg.solve(_trapezoid(direct, zs, 0, lam0),
                                   _trapezoid(direct, zs, -1, lam0))
        n = weight_matrix(pb, lam0).n
        assert np.max(np.abs(n - n_direct)) <= 1e-12 * np.max(np.abs(n_direct))


class TestWeightMatrix:
    def test_case_one_structure_at_lambda1(self, w_lambda1, beam_points):
        n = w_lambda1.n
        # strictly lower triangular, single nonzero entry n32 = beta_1
        assert np.max(np.abs(n[np.triu_indices(4)])) < 1e-7
        assert n[2, 1] == pytest.approx(-4.0, abs=1e-6)
        mask = np.ones((4, 4), bool)
        mask[2, 1] = False
        assert np.max(np.abs(n[mask])) < 1e-7

    def test_case_five_structure(self, w_case5):
        # at a zero of Delta_33 that is not an eigenvalue only the k = 3
        # column blows up: n21 = n43 = residue of m43, everything else zero
        n = w_case5.n
        assert n[1, 0] == pytest.approx(n[3, 2], rel=1e-8)
        assert abs(n[1, 0]) > 100.0
        mask = np.ones((4, 4), bool)
        mask[1, 0] = mask[3, 2] = False
        assert np.max(np.abs(n[mask])) < 1e-8 * abs(n[1, 0])

    def test_verify_report_case_one(self, w_lambda1, beam_points):
        report = verify_weight_structure(w_lambda1, beam_points[0])
        checks = report["checks"]
        assert checks["strictly_lower_triangular"] < 1e-7
        assert checks["n21_equals_n43"] < 1e-7
        assert checks["n31_equals_minus_n42"] < 1e-7
        assert checks["off_pattern_entries"] < 1e-7
        assert checks["n32_equals_minus_gamma_sq"] < 1e-6

    def test_case_one_check_reads_xi(self, beam, beam_zeros):
        # n32 and gamma^2 come from the same wedge value over the same
        # Delta_22', so the check reads n32 against xi, through m43 = xi /
        # gamma: xi off by 1e-6 relative shows as |gamma xi| 1e-6 / ((1 +
        # |gamma|^2)(1 + |m43|)), 4.6e-7 at beam lambda_1
        point, w = weight_matrix_near(beam, beam_zeros[0].lam)

        def check(pt):
            return verify_weight_structure(w, pt)["checks"]["n32_equals_minus_gamma_sq"]

        assert check(point) < 1e-13
        off = check(dataclasses.replace(point, xi=point.xi * (1 + 1e-6)))
        assert off == pytest.approx(4.6e-7, rel=0.02)

    def test_verify_report_never_raises_on_mismatch(self, w_case5):
        # feed the case-V matrix a case-I point: large residual, no exception
        fake = SpectralPoint(lam=w_case5.lam0, gamma=2.0, xi=-2.75,
                             beta=-4.0, case_tag="I")
        report = verify_weight_structure(w_case5, fake)
        assert report["checks"]["off_pattern_entries"] > 0.1


def _structure(entries, tag, xi=None):
    """verify_weight_structure on a hand-built N, entries {(j, k): n_jk}."""
    n = np.zeros((4, 4), complex)
    for (j, k), v in entries.items():
        n[j - 1, k - 1] = v
    w = WeightMatrix(lam0=1.0, m_minus1=None, m_zero=None, n=n)
    return verify_weight_structure(w, SpectralPoint(lam=1.0, xi=xi, case_tag=tag))


def _case_one_zeros(which):
    """A problem and its first case-I zeros of Delta_22: four on the beam and
    on a seeded real problem, the four in a box of a seeded complex one."""
    if which == "complex7":
        pb = make_random_problem(7)
        return pb, find_complex_zeros(pb, (2, 2), (-500.0, 2e4, -300.0, 300.0))
    pb = beam_problem() if which == "beam" else make_random_real_problem(11)
    return pb, find_first_zeros(pb, (2, 2), 4)


class TestJetWeights:
    """Case I from the jets of the Delta_22 polish, against the contour."""

    @pytest.mark.parametrize("which", ["beam", "real11", "complex7"])
    def test_jets_match_the_contour(self, which):
        pb, zeros = _case_one_zeros(which)
        assert len(zeros) == 4
        for z in zeros:
            point, w = weight_matrix_near(pb, z.lam)
            assert point.case_tag == "I" and w.lam0 == point.lam
            ref = weight_matrix(pb, w.lam0)
            for got, want in ((w.m_minus1, ref.m_minus1), (w.m_zero, ref.m_zero), (w.n, ref.n)):
                assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want)), z.lam

    @pytest.mark.parametrize("which", ["beam", "real11", "complex7"])
    def test_second_jet_matches_a_central_difference(self, which):
        # Delta_22'' of the polish's second jet against the central
        # difference of Delta_22' at lambda +- h, h = 1e-3 (1 + |lambda|)^(1/2)
        pb, zeros = _case_one_zeros(which)
        for z in zeros:
            h = 1e-3 * np.sqrt(1 + abs(z.lam))
            jet = deltas_at(pb, [z.lam - h, z.lam + h], ((2, 2),), want_dlambda=True)[2, 2]
            fd = (jet.dvalue[1] - jet.dvalue[0]) / (2 * h)
            d2delta = 2 * _entry(z.C.ends, (2, 2))[1][1]
            assert abs(d2delta - fd) <= 1e-8 * abs(fd), z.lam


class TestStructureReport:
    def test_case_two_block_determinant(self):
        # n31 = -n42 and n31 n42 = n41 n32: a rank-one block
        block = {(3, 1): 1.0, (4, 2): -1.0, (4, 1): 2.0, (3, 2): -0.5}
        checks = _structure(block, "II")["checks"]
        assert checks["block_determinant_zero"] == 0.0
        assert checks["off_pattern_entries"] == 0.0
        assert checks["n31_equals_minus_n42"] == 0.0
        block[(3, 2)] = 0.5   # det = -1 - 1 = -2, over max|n|^2 = 4
        assert _structure(block, "II")["checks"]["block_determinant_zero"] == 0.5

    @pytest.mark.parametrize("tag, entries", [
        ("III", {(2, 1): 3.0, (4, 3): 3.0, (4, 1): 0.25}),
        ("IV", {(4, 1): 0.25}),
    ])
    def test_cases_three_and_four_n41_is_xi_squared(self, tag, entries):
        checks = _structure(entries, tag, xi=0.5)["checks"]
        assert checks["n41_equals_xi_sq"] == 0.0
        assert checks["off_pattern_entries"] == 0.0
        assert checks["n21_equals_n43"] == 0.0
        assert _structure(entries, tag, xi=-1.0)["checks"]["n41_equals_xi_sq"] > 0.3
        assert "n41_equals_xi_sq" not in _structure(entries, tag)["checks"]

    def test_unknown_case_has_no_pattern(self):
        report = _structure({(3, 2): -4.0}, "unknown")
        assert report["note"] == "no structural pattern for case 'unknown'"
        assert set(report["checks"]) == {"strictly_lower_triangular", "n21_equals_n43",
                                         "n31_equals_minus_n42"}


class TestClassification:
    def test_beam_eigenvalues_case_one(self, beam, beam_points):
        for pt in beam_points:
            assert classify_on_problem(beam, pt) == "I"

    def test_stub_case_two(self):
        pt = SpectralPoint(lam=10.0, gamma=1.0, xi=0.5)
        # m43 = -Delta_43 / Delta_33 = 99, far from xi / gamma
        tag = classify_eigenvalue(pt, -99.0, 1.0, 1.0)
        assert tag == "II"

    def test_stub_case_three(self):
        pt = SpectralPoint(lam=10.0, gamma=0.0, xi=1.0)
        # gamma = 0 makes Delta_33 vanish with it; Delta_43 != 0 is case III
        tag = classify_eigenvalue(pt, 1.0, 0.0, 1.0)
        assert tag == "III"

    def test_stub_case_four(self):
        pt = SpectralPoint(lam=10.0, gamma=0.0, xi=1.0)
        tag = classify_eigenvalue(pt, 0.0, 1.0, 1.0)
        assert tag == "IV"

    def test_stub_indeterminate_band(self):
        # |gamma| within an order of magnitude of the floor: no safe call
        pt = SpectralPoint(lam=10.0, gamma=5e-7, xi=1.0)
        tag = classify_eigenvalue(pt, 0.0, 1.0, 1.0)
        assert tag == "indeterminate"

    @pytest.fixture(scope="class")
    def a_star(self):
        # a root of Delta_33(lambda_1(a)) on the beam family: gamma_1 = 0,
        # and Delta_43(lambda_1) = C3(1) = 5.3, so lambda_1 = 97.409 is case III
        return beam_problem(a=2.88131904)

    @pytest.mark.parametrize("count", [1, 2, 3])
    def test_case_three_at_every_batch_size(self, a_star, count):
        pt = weight_numbers(a_star, find_first_zeros(a_star, (2, 2), count))[0]
        assert pt.lam.real == pytest.approx(97.40909103, rel=1e-9)
        assert abs(pt.gamma) < 1e-9
        assert pt.case_tag == "III"

    def test_case_three_weight_matrix(self, a_star):
        # the contour N has the case-III pattern: n21 = n43, n41 = xi^2
        z = find_zero_near(a_star, (2, 2), 97.409, default_contour_radius(97.409))
        pt, = weight_numbers(a_star, [z])
        assert pt.case_tag == "III"
        checks = verify_weight_structure(weight_matrix(a_star, z.lam), pt)["checks"]
        for name in ("n21_equals_n43", "off_pattern_entries", "n41_equals_xi_sq"):
            assert checks[name] < 1e-8

    def test_case_search_harness_runs(self):
        # scans a small parameter grid for eigenvalues outside case I; the
        # beam family is uniformly case I, so no hits are reported (the
        # harness promises a protocol, not success)
        def factory(c):
            return beam_problem(c=c)

        hits = case_search(factory, [0.0, 1.0], count=2)
        assert hits == []


def test_tolerance_below_the_floor_warns_nothing():
    # a tolerance near the rounding floor integrates without a warning
    import warnings
    from dataclasses import replace
    from quartspec import Tolerances, find_first_zeros
    pb = make_random_real_problem()
    lam1 = find_first_zeros(pb, (2, 2), 1)[0].lam
    tight = replace(pb, tolerances=Tolerances(ode_rel=1e-13))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        w = weight_matrix(tight, lam1)
    assert np.all(np.isfinite(w.m_minus1))
