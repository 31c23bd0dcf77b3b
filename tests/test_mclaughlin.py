from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad, trapezoid

from quartspec import beam_problem, eigenfunction, find_first_zeros, weight_numbers
from quartspec.mclaughlin import NonSimpleError
from quartspec.spectra import Zero

from conftest import beam_eigenvalue, make_random_real_problem, oracle_mode_shape


class TestEigenfunction:
    def test_gamma_xi_against_quadrature_oracle(self, beam):
        # closed-form mode shape, normalized by independent quadrature
        for n in (1, 2, 3):
            lam = beam_eigenvalue(n)
            _, gamma, xi = eigenfunction(beam, lam)
            y, dy, _ = oracle_mode_shape(n)
            norm = np.sqrt(quad(lambda x: y(x) ** 2, 0, 1, limit=200)[0])
            g0, x0 = y(0) / norm, dy(0) / norm
            if g0.real < 0:
                g0, x0 = -g0, -x0
            assert gamma == pytest.approx(g0, abs=1e-7)
            assert xi == pytest.approx(x0, abs=1e-6)

    def test_gamma_magnitude_is_two(self, beam):
        # free end at 0, clamped at 1: |y_n(0)| = 2 for every mode
        for n in (1, 2, 3, 4, 5):
            _, gamma, _ = eigenfunction(beam, beam_eigenvalue(n))
            assert abs(gamma) == pytest.approx(2.0, abs=1e-7)

    def test_trajectory_normalized_and_clamped(self, beam):
        (xs, traj), gamma, xi = eigenfunction(beam, beam_eigenvalue(1),
                                              x_grid=np.linspace(0, 1, 101))
        # right end: y(1) = y'(1) = 0
        assert abs(traj[-1][0]) < 1e-8
        assert abs(traj[-1][1]) < 1e-8
        # left end matches the reported data
        assert traj[0][0] == pytest.approx(gamma)
        assert traj[0][1] == pytest.approx(xi)
        # composite-trapezoid check of the normalization; the rule's own
        # O(h^2) error sets the margin.  By Euler-Maclaurin, with h = 0.01
        # and y(1) = 0, trapezoid - 1 ~ -h^2 * gamma * xi / 6 ~ 9.2e-5 for
        # mode 1 (gamma = 2, xi ~ -2.75): deterministic, not noise.  A near
        # miss here is a normalization fault, not a reason to widen abs or
        # refine the grid.
        y = traj[:, 0]
        assert trapezoid(y * y, xs) == pytest.approx(1.0, abs=1e-4)

    def test_sign_convention_deterministic(self, beam):
        lam = beam_eigenvalue(2)
        _, g1, x1 = eigenfunction(beam, lam)
        _, g2, x2 = eigenfunction(beam, lam)
        assert g1 == g2 and x1 == x2
        assert g1.real > 0

    def test_rejects_non_eigenvalue(self, beam):
        with pytest.raises(NonSimpleError):
            eigenfunction(beam, 100.0)


class TestWeightNumbers:
    def test_beta_is_minus_gamma_squared(self, beam_points):
        for pt in beam_points:
            assert pt.case_tag == "I"
            assert pt.beta == pytest.approx(-pt.gamma ** 2)
            assert abs(pt.beta + 4.0) < 1e-6

    def test_residue_cross_check_recorded(self, beam_points):
        # beta is independently extracted as the (3,2) residue of M
        for pt in beam_points:
            assert pt.beta_residual is not None
            assert pt.beta_residual < 1e-6
            assert "residue_beta" in pt.extras

    def test_xi_over_gamma_equals_m43(self, beam, beam_points):
        from quartspec import weyl_matrix
        for pt in beam_points[:3]:
            # m43 is regular at lambda_n in case I; compare at the point by
            # a symmetric offset average to dodge the Delta_22 pole
            h = 1e-4 * (1 + abs(pt.lam))
            mp = weyl_matrix(beam, pt.lam + h).m[3, 2]
            mm = weyl_matrix(beam, pt.lam - h).m[3, 2]
            assert (mp + mm) / 2 == pytest.approx(pt.xi / pt.gamma, rel=1e-5)

    def test_non_simple_zero_rejected(self, beam):
        fake = Zero(lam=complex(beam_eigenvalue(1)), selector=(2, 2), ddelta=0.0)
        with pytest.raises(NonSimpleError):
            weight_numbers(beam, [fake])

    def test_residue_check_optional(self, beam, beam_zeros):
        pts = weight_numbers(beam, beam_zeros[:1], residue_check=False)
        assert pts[0].beta_residual is None
        assert pts[0].beta == pytest.approx(-pts[0].gamma ** 2)

    def test_unnormalizable_zero_flagged_alone(self, beam, beam_zeros, monkeypatch):
        # before normalization, int y^2 dx of the five beam modes falls from
        # 0.086 to 0.0012 (0.0021 for the fourth); a floor of 1.6e-3 flags
        # the fifth alone, and its neighbours in the batch are unaffected
        from quartspec import mclaughlin
        monkeypatch.setattr(mclaughlin, "NORMALIZATION_FLOOR", 1.6e-3)
        pts = weight_numbers(beam, beam_zeros, residue_check=False)
        assert [pt.norm_ok for pt in pts] == [True] * 4 + [False]
        for pt in pts[:4]:
            assert abs(pt.gamma) == pytest.approx(2.0, abs=1e-7)
            assert pt.case_tag == "I"
        assert pts[4].gamma is None and pts[4].lam == beam_zeros[4].lam


class TestHandoff:
    @pytest.mark.parametrize("seed", [None, 11])
    def test_carried_evaluation_matches_own_solve(self, seed):
        # weight_numbers reads A, Delta_33 and Delta_43 from the C(1, lambda)
        # a searched zero carries; without it, it solves them itself
        pb = beam_problem() if seed is None else make_random_real_problem(seed)
        zeros = find_first_zeros(pb, (2, 2), 4)
        assert all(z.end_values is not None for z in zeros)
        carried = weight_numbers(pb, zeros, residue_check=False)
        own = weight_numbers(pb, [replace(z, end_values=None) for z in zeros],
                             residue_check=False)
        for a, b in zip(carried, own):
            assert a.case_tag == b.case_tag
            assert a.gamma == pytest.approx(b.gamma, rel=1e-10, abs=1e-10)
            assert a.xi == pytest.approx(b.xi, rel=1e-10, abs=1e-10)

    def test_searches_carry_C_at_the_accepted_lambda(self, beam):
        from quartspec import SpectrumRequest, find_complex_zeros, fundamental_C
        zeros = find_first_zeros(beam, (2, 2), 2) + find_complex_zeros(
            beam, SpectrumRequest((2, 2), (0.0, 600.0, -3.0, 3.0)))
        assert len(zeros) == 4
        for z in zeros:
            end = fundamental_C(beam, z.lam, x_grid=[0.0, 1.0]).end
            assert np.allclose(z.end_values, end, rtol=1e-8, atol=1e-8 * np.max(np.abs(end)))
