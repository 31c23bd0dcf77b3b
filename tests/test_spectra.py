import cmath
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.optimize import brentq

from quartspec import (
    CoefficientField,
    ProblemSpec,
    beam_problem,
    find_complex_zeros,
    find_first_zeros,
    find_real_zeros,
    find_zero_near,
    simplicity_check,
    three_spectra,
)
from quartspec import spectra
from quartspec.propagator import PropagationError
from quartspec.spectra import SearchError
from quartspec.weights import default_contour_radius

from conftest import (
    beam_eigenvalue, beam_rho, clamped_free_s, make_random_problem, oracle_delta22,
)


class TestRealSearch:
    def test_first_eigenvalues_against_bisection(self, beam, beam_zeros):
        for n, z in enumerate(beam_zeros, 1):
            expect = beam_eigenvalue(n)
            assert abs(z.lam - expect) < 1e-8 * expect

    def test_zeros_sorted_and_simple(self, beam, beam_zeros):
        lams = [z.lam.real for z in beam_zeros]
        assert lams == sorted(lams)
        for z in beam_zeros:
            assert simplicity_check(z)

    def test_window_respected(self, beam):
        zeros = find_real_zeros(beam, (2, 2), (0.0, 500.0))
        assert len(zeros) == 2  # 12.36 and 485.52 only
        assert all(0 <= z.lam.real <= 500 for z in zeros)

    def test_negative_window_delta33(self, beam):
        # zeros of Delta_33 lie on the negative axis at -4 s^4
        expect = -4 * clamped_free_s(1) ** 4
        zeros = find_real_zeros(beam, (3, 3), (-200.0, -1.0))
        assert len(zeros) == 1
        assert zeros[0].lam.real == pytest.approx(expect, rel=1e-9)

    def test_complex_problem_rejected(self):
        pb = make_random_problem()
        with pytest.raises(SearchError):
            find_real_zeros(pb, (2, 2), (0.0, 100.0))

    def test_tiny_imaginary_coefficient_rejected(self):
        # q = 5e-9 i moves the beam zeros off the real axis by 5e-9; a scan of
        # Re Delta would report real eigenvalues that are not there
        pb = ProblemSpec(p=CoefficientField.zero(), q=CoefficientField.constant(5e-9j))
        assert not pb.is_real
        with pytest.raises(SearchError):
            find_real_zeros(pb, (2, 2), (0.0, 500.0))

    def test_ddelta_reported(self, beam_zeros):
        # the beam's dDelta_22 at lambda_1 is nonzero and real
        z = beam_zeros[0]
        assert abs(z.ddelta) > 1e-4
        assert abs(z.ddelta.imag) < 1e-9

    def test_first_six_against_bisection(self, beam):
        zeros = find_first_zeros(beam, (2, 2), 6)
        for n, z in enumerate(zeros, 1):
            assert z.lam.real == pytest.approx(beam_eigenvalue(n), rel=1e-10)

    def test_first_ten_against_bisection(self, beam):
        # the polish reads Delta_22 from the 2-wedge C3 ^ C4, free of the
        # cancellation that limits the scan's determinant near rho ~ 33
        zeros = find_first_zeros(beam, (2, 2), 10)
        for n, z in enumerate(zeros, 1):
            assert z.lam.real == pytest.approx(beam_eigenvalue(n), rel=1e-11)

    def test_root_does_not_move_with_its_batch(self, beam):
        # lambda_6 polished alone, and in the lockstep batch of seven
        lam6 = beam_eigenvalue(6)
        alone, = find_real_zeros(beam, (2, 2), (0.99 * lam6, 1.01 * lam6))
        batch = find_first_zeros(beam, (2, 2), 7)[5]
        assert alone.lam.real == pytest.approx(batch.lam.real, rel=1e-12)

    @pytest.mark.parametrize("chunk", [None, 10 ** 4], ids=["chunked", "one_chunk"])
    @pytest.mark.parametrize("count", [1, 2, 3])
    def test_count_keeps_zeros_nearest_zero_on_negative_axis(self, beam, count, chunk,
                                                             monkeypatch):
        # for xmax <= 0 the scan runs out from 0: max_count keeps the zeros
        # met first, not the ascending first, also when one chunk closes
        # more brackets than are needed
        if chunk is not None:
            monkeypatch.setattr(spectra, "_SCAN_CHUNK", chunk)
        region = (-1e5, -1e-6)
        every = find_real_zeros(beam, (3, 3), region, max_count=10)
        assert len(every) == 4
        got = find_real_zeros(beam, (3, 3), region, max_count=count)
        assert [z.lam.real for z in got] == pytest.approx(
            [z.lam.real for z in every[-count:]], rel=1e-10)

    def test_count_cap_honest_failure(self, beam):
        # double precision cannot resolve Delta_22 past rho ~ 33; asking for
        # more zeros than that must fail loudly, not fabricate data
        with pytest.raises(SearchError):
            find_first_zeros(beam, (2, 2), 12)


def _beam_ddelta(lam):
    """d/dlambda of oracle_delta22, through rho = lambda^(1/4)."""
    r = complex(lam) ** 0.25
    return (cmath.sin(r) * cmath.cosh(r) - cmath.cos(r) * cmath.sinh(r)) / (8 * r ** 3)


def _beam_jet(lam):
    return oracle_delta22(lam), _beam_ddelta(lam), None


def _drive(newton, jet=_beam_jet):
    """Run a _newton coroutine on jet (the closed form by default); (result,
    yielded lambdas)."""
    lams = [next(newton)]
    while True:
        try:
            lams.append(newton.send(jet(lams[-1])))
        except StopIteration as stop:
            return stop.value, lams


def _scan_bracket(n):
    """The RHO_SCAN_STEP grid bracket (a, b, Delta(a)) around the n-th root,
    and its secant point."""
    ra = spectra.RHO_SCAN_STEP * np.floor(beam_rho(n) / spectra.RHO_SCAN_STEP)
    a, b = ra ** 4, (ra + spectra.RHO_SCAN_STEP) ** 4
    fa, fb = oracle_delta22(a).real, oracle_delta22(b).real
    assert fa * fb < 0
    return (a, b, fa), a - fa * (b - a) / (fb - fa)


def _brentq_root(a, b):
    return brentq(lambda lam: oracle_delta22(lam).real, a, b, xtol=1e-300, rtol=1e-15)


class TestNewton:
    """_newton on the beam's closed-form Delta_22, with no propagation."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_secant_start_accepts_on_computed_step(self, n):
        bracket, start = _scan_bracket(n)
        (lam, val, dval, _), lams = _drive(spectra._newton(start, bracket=bracket))
        # at most three evaluations from the secant point of a scan bracket
        assert len(lams) <= 3
        # every evaluated point came from a step at or above the tolerance,
        # and the search stopped on a below-tolerance step it did not take
        steps = [abs(oracle_delta22(x) / _beam_ddelta(x)) for x in lams]
        bounds = [spectra.REFINE_TOL * (1 + abs(x)) for x in lams]
        assert all(s >= tol for s, tol in zip(steps[:-1], bounds))
        assert steps[-1] < bounds[-1]
        # the returned lambda is an evaluated one, with its own evaluation
        assert lam in lams
        assert (val, dval) == (oracle_delta22(lam), _beam_ddelta(lam))
        assert lam.real == pytest.approx(_brentq_root(*bracket[:2]), rel=1e-12)

    @pytest.mark.parametrize("rho, edge", [((0.5, 3.5), 1), ((4.0, 6.0), 0)],
                             ids=["upper", "lower"])
    def test_iterates_stay_inside_bracket(self, rho, edge):
        a, b = rho[0] ** 4, rho[1] ** 4
        start = [a * (1 + 1e-9), b * (1 - 1e-9)][edge]
        # the raw Newton step from the start leaves the bracket
        assert not a < start - (oracle_delta22(start) / _beam_ddelta(start)).real < b
        (lam, _, _, _), lams = _drive(
            spectra._newton(start, bracket=(a, b, oracle_delta22(a).real)))
        assert all(a < x.real < b for x in lams)
        assert lam.real == pytest.approx(_brentq_root(a, b), rel=1e-12)


    def test_flat_jet_ends_the_iteration(self):
        def flat(lam):
            return 0.5, 0.0, None

        # no step without a slope: the one evaluated iterate is returned
        result, lams = _drive(spectra._newton(2.0, bracket=(1.0, 3.0, -1.0)), flat)
        assert lams == [2.0]
        assert result == (2.0, 0.5, 0.0, None)
        # without a bracket it is judged against |Delta| at its start, and
        # refused
        with pytest.raises(SearchError):
            _drive(spectra._newton(2.0), flat)


class TestSampleAtRoot:
    """find_real_zeros on Delta(lambda) = lambda - r, with no propagation."""

    @staticmethod
    def _linear(monkeypatch, r, seen):
        def deltas_at(problem, lams, selectors):
            seen.extend(lams)
            lams = np.asarray(lams)
            return {selectors[0]: SimpleNamespace(value=lams - r, fp_floor=0 * lams)}

        def jets(problem, selector, lams):
            # a C(1) for the simplicity test of the zero
            return [(lam - r, 1.0, np.eye(4)) for lam in lams]

        monkeypatch.setattr(spectra, "deltas_at", deltas_at)
        monkeypatch.setattr(spectra, "_jets", jets)

    @pytest.mark.parametrize("region", [(0.0, 50.0), (-50.0, 0.0)], ids=["up", "down"])
    def test_sample_exactly_at_root_reported_once(self, beam, monkeypatch, region):
        samples = []
        self._linear(monkeypatch, 1e3, samples)   # no root: records the scan grid
        assert find_real_zeros(beam, (2, 2), region) == []
        r = samples[30]
        assert samples[29] < r < samples[31] or samples[29] > r > samples[31]
        self._linear(monkeypatch, r, [])
        assert [z.lam for z in find_real_zeros(beam, (2, 2), region)] == [r]


class TestZeroNear:
    def test_first_step_off_the_disc_is_one_solve(self, beam, monkeypatch):
        # -4 s_1^4 is a zero of Delta_33, not of Delta_22: the jet at lam0 is
        # the only solve, and its Newton step leaves the disc
        lam0 = -4 * clamped_free_s(1) ** 4
        solved = []
        jets = spectra._jets

        def recording(pb, sel, lams):
            solved.append(lams)
            return jets(pb, sel, lams)

        monkeypatch.setattr(spectra, "_jets", recording)
        with pytest.raises(spectra.LeftDiscError) as left:
            find_zero_near(beam, (2, 2), lam0, default_contour_radius(lam0))
        assert solved == [[lam0]]
        # what the error carries is that step's end, outside the disc
        got = left.value.lam
        (val, dval, _), = jets(beam, (2, 2), [lam0])
        assert got == lam0 - val / dval
        assert abs(got - lam0) >= default_contour_radius(lam0)

    def test_reaches_lambda1_from_nearby(self, beam):
        z = find_zero_near(beam, (2, 2), 12.362, default_contour_radius(12.362))
        assert z.selector == (2, 2) and z.multiplicity_estimate == 1
        assert z.end_values.shape == (4, 4)
        assert z.lam == pytest.approx(beam_eigenvalue(1), rel=1e-10)

    @pytest.mark.parametrize("error", [PropagationError, SearchError])
    def test_error_inside_the_disc_raised(self, beam, monkeypatch, error):
        def failing(pb, sel, lams):
            if error is SearchError:   # a stalled polish: Delta stays at 1
                return [(1.0 + 0j, 1e6 + 0j, None)]
            return [error("no solve")]

        monkeypatch.setattr(spectra, "_jets", failing)
        with pytest.raises(error):
            find_zero_near(beam, (2, 2), 12.362, 1.0)


class TestComplexSearch:
    def test_rectangle_around_case_v_point(self, beam):
        # one real zero of Delta_33 near -125.14
        expect = -4 * clamped_free_s(1) ** 4
        zeros = find_complex_zeros(beam, (3, 3), (-150.0, -100.0, -5.0, 5.0))
        assert len(zeros) == 1
        assert zeros[0].lam == pytest.approx(expect, rel=1e-8)

    def test_empty_rectangle(self, beam):
        assert find_complex_zeros(beam, (2, 2), (100.0, 400.0, -3.0, 3.0)) == []

    def test_max_count_below_zeros_in_box(self, beam):
        # three beam zeros in the box: max_count trims the search's result
        # once, and no sub-box count is trimmed before its winding check
        zeros = find_complex_zeros(beam, (2, 2), (0.0, 4000.0, -1.0, 1.0), max_count=1)
        assert len(zeros) == 1
        assert zeros[0].lam == pytest.approx(beam_eigenvalue(1), rel=1e-8)

    def test_complex_coefficients_eigenvalue(self):
        # perturbing q off the real axis moves lambda_1 into the plane but
        # the rectangle search still pins it down; cross-check: the found
        # point drives |Delta_22| to the noise floor
        from quartspec import CoefficientField, ProblemSpec, validate_problem
        from quartspec.weyl import all_deltas
        pb = validate_problem(ProblemSpec(
            p=CoefficientField.zero(), q=CoefficientField.constant(0.4j)))
        zeros = find_complex_zeros(pb, (2, 2), (5.0, 20.0, -2.0, 2.0))
        assert len(zeros) == 1
        z = zeros[0]
        assert abs(z.lam.imag) > 1e-4
        assert abs(all_deltas(pb, z.lam)[(2, 2)].value) < 1e-8


class TestThreeSpectra:
    def test_interlacing_style_ordering(self, beam):
        b = three_spectra(beam, 3)
        assert len(b.s12) == len(b.s13) == len(b.s23) == 3
        for s in (b.s12, b.s13, b.s23):
            assert [z.real for z in s] == sorted(z.real for z in s)

    def test_s12_matches_main_spectrum(self, beam, beam_zeros):
        b = three_spectra(beam, 2)
        for got, z in zip(b.s12, beam_zeros[:2]):
            assert got == pytest.approx(z.lam, rel=1e-10)
