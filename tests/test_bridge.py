import numpy as np
import pytest

from quartspec import (
    barcilon_equiv_data,
    beam_problem,
    case2_alpha,
    mclaughlin_to_barcilon_values,
    reconstruct_delta_hadamard,
    reconstruct_m32,
    twin_comparison,
)
from quartspec.bridge import BridgeError, spectral_mappings_deviation
from quartspec.mclaughlin import SpectralPoint
from quartspec.spectra import three_spectra
from quartspec.weyl import all_deltas, phi_matrix

from conftest import beam_eigenvalue, clamped_free_s, make_random_real_problem, oracle_delta22


class TestMcLaughlinToBarcilon:
    def test_predicted_deltas_match_direct(self, beam, beam_zeros, beam_points):
        for z, pt in zip(beam_zeros[:4], beam_points[:4]):
            d32_pred, d42_pred = mclaughlin_to_barcilon_values(pt, z.ddelta)
            d = all_deltas(beam, z.lam)
            assert d32_pred == pytest.approx(d[(3, 2)].value, rel=1e-5)
            assert d42_pred == pytest.approx(d[(4, 2)].value, rel=1e-5)

    def test_unnormalized_point_rejected(self):
        with pytest.raises(BridgeError):
            mclaughlin_to_barcilon_values(SpectralPoint(lam=1.0), 1.0)


class TestMittagLeffler:
    def test_beam_value_at_zero(self, beam):
        # m_32(0) = Delta_32(0) = 1/3 for the beam; 50 oracle terms
        data = [(beam_eigenvalue(n), -4.0) for n in range(1, 51)]
        value, tail = reconstruct_m32(data, 0.0)
        assert tail < 1e-5
        assert abs(value - 1 / 3) <= tail

    def test_tail_shrinks_with_more_terms(self):
        data = [(beam_eigenvalue(n), -4.0) for n in range(1, 51)]
        _, tail20 = reconstruct_m32(data[:20], 1.0)
        _, tail50 = reconstruct_m32(data[:50], 1.0)
        assert tail50 < tail20

    def test_evaluation_at_pole_rejected(self):
        data = [(beam_eigenvalue(n), -4.0) for n in range(1, 6)]
        with pytest.raises(BridgeError):
            reconstruct_m32(data, data[2][0])

    def test_empty_data_rejected(self):
        with pytest.raises(BridgeError):
            reconstruct_m32([], 0.0)


class TestHadamard:
    def test_delta33_from_thirty_zeros(self):
        import cmath
        zeros = [-4 * clamped_free_s(k) ** 4 for k in range(1, 31)]
        for lam in (1.0, -10.0, 25.0):
            value, bound = reconstruct_delta_hadamard(zeros, 1.0, lam)
            rho = complex(lam) ** 0.25
            direct = (cmath.sinh(rho) + cmath.sin(rho)) / (2 * rho)
            assert abs(value - direct) <= bound * abs(direct)

    def test_no_zeros_refused(self):
        with pytest.raises(BridgeError, match="insufficient data"):
            reconstruct_delta_hadamard([], 0.7, 1.0)

    def test_anchor_point_returns_anchor(self):
        zeros = [-4 * clamped_free_s(k) ** 4 for k in range(1, 11)]
        value, _ = reconstruct_delta_hadamard(zeros, 0.7, 0.0)
        assert value == pytest.approx(0.7)

    def test_barcilon_equiv_round_trip(self, beam):
        # rebuild Delta_32 and Delta_42 from the three spectra and compare
        # with the bridge predictions at each lambda_n
        b = three_spectra(beam, 4)
        anchors = (all_deltas(beam, 0.0)[(3, 2)].value,
                   all_deltas(beam, 0.0)[(4, 2)].value)
        rows = barcilon_equiv_data(b, anchors)
        for row in rows:
            d = all_deltas(beam, row["lambda"])
            assert abs(row["delta32"] - d[(3, 2)].value) <= \
                row["bound32"] * abs(d[(3, 2)].value) + 1e-9
            assert abs(row["delta42"] - d[(4, 2)].value) <= \
                row["bound42"] * abs(d[(4, 2)].value) + 1e-9


class TestCase2Alpha:
    def test_value_and_floor(self):
        pt = SpectralPoint(lam=3.0, gamma=0.5, xi=0.25)
        alpha = case2_alpha(pt, ddelta43=2.0, ddelta33=4.0)
        assert alpha == pytest.approx(-(0.5 * 2.0 + 0.25 * 4.0))
        degenerate = SpectralPoint(lam=3.0, gamma=1.0, xi=-0.5)
        with pytest.raises(BridgeError):
            case2_alpha(degenerate, ddelta43=1.0, ddelta33=2.0)


class TestTwins:
    def test_identical_problems_indistinguishable(self, beam):
        r = twin_comparison(beam, beam_problem(), "weyl", count=4)
        assert r["max_distance"] < 1e-8
        assert r["p_matrix_deviation"] < 1e-7

    def test_spectral_mappings_identity(self, beam):
        dev = spectral_mappings_deviation(beam, beam_problem(),
                                          x_count=4, lam_count=4)
        assert dev < 1e-7

    def test_spectral_mappings_compared_at_the_same_x(self, beam):
        # the random real problem's trajectory also holds its own breakpoints,
        # so its x grid is longer than the beam's; in either order P is taken
        # at the requested x, as a per-lambda evaluation there gives it
        real = make_random_real_problem()
        xs = np.linspace(0.0, 1.0, 4)
        assert len(np.setdiff1d(real.breakpoints, xs)) > 0

        def phi_at(pb, lam):
            got, phi = phi_matrix(pb, lam, x_grid=xs)
            return phi[[np.flatnonzero(got == x)[0] for x in xs]]

        for a, b in ((real, beam), (beam, real)):
            direct = max(float(np.max(np.abs(phi_at(a, lam) @ np.linalg.inv(phi_at(b, lam))
                                              - np.eye(4))))
                         for lam in np.linspace(0.6, 9.9, 3))
            assert direct > 1e-3
            got = spectral_mappings_deviation(a, b, x_count=4, lam_count=3)
            assert got == pytest.approx(direct, rel=1e-6)

    def test_unknown_kind_rejected(self, beam):
        with pytest.raises(BridgeError):
            twin_comparison(beam, beam, "fourier")
