import cmath

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
from quartspec.propagator import FundamentalMatrix, PropagationError, fundamental_C
from quartspec.spectra import SearchError
from quartspec.weyl import _entry, _minor_norm
from quartspec.weights import default_contour_radius
from conftest import (
    beam_eigenvalue, beam_rho, clamped_free_s, delta_index, determinant_floor, make_random_problem,
    make_random_real_problem, oracle_C4, oracle_delta22,
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

    @pytest.mark.parametrize("selector, bound", [((3, 2), 1.2e-10), ((4, 2), 4e-12)],
                             ids=["delta32", "delta42"])
    def test_other_barcilon_spectra_against_closed_form(self, beam, selector, bound):
        # the beam's Delta_32 zeros are s^4 with tan s = tanh s, s in
        # (n pi, (n + 1/2) pi), and its Delta_42 zeros (n pi)^4.  The worst of
        # the first ten is the tenth, 7.9e-11 (Delta_32) and 2.7e-12
        # (Delta_42) relative; the bounds are 1.5 times those
        if selector == (3, 2):
            s = [brentq(lambda t: np.tan(t) - np.tanh(t), n * np.pi + 1e-9,
                        (n + 0.5) * np.pi - 1e-9, xtol=1e-14) for n in range(1, 11)]
        else:
            s = [n * np.pi for n in range(1, 11)]
        zeros = find_first_zeros(beam, selector, 10)
        assert [z.lam.real for z in zeros] == pytest.approx(np.power(s, 4), rel=bound, abs=0)

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

    def test_count_wall_honest_failure(self, beam, beam_zeros_30):
        # the scan reads Delta_22 from the wedge C3 ^ C4, free of the
        # determinant's cancellation that stopped it at count 11 (rho ~ 33):
        # counts 12 and 30 give the closed-form roots, each simple
        for zeros in (find_first_zeros(beam, (2, 2), 12), beam_zeros_30):
            assert [z.lam.real for z in zeros] == pytest.approx(
                [beam_eigenvalue(n) for n in range(1, len(zeros) + 1)], rel=1e-12)
            assert all(simplicity_check(z) and z.multiplicity_estimate == 1 for z in zeros)
        # where the propagated wedge overflows (rho ~ 600) a search must fail
        # loudly, not fabricate data
        with pytest.raises((PropagationError, SearchError)):
            find_real_zeros(beam, (2, 2), (599.0 ** 4, 601.0 ** 4))

    def test_window_past_the_old_wall(self, beam):
        # lambda_115 (rho = 114.5 pi ~ 359.71) is the one root in the window
        zeros = find_real_zeros(beam, (2, 2), (359.2 ** 4, 360.0 ** 4))
        assert [z.lam.real for z in zeros] == pytest.approx([beam_eigenvalue(115)], rel=1e-12)
        assert zeros[0].multiplicity_estimate == 1

    def test_polish_near_the_overflow_wall(self, beam):
        # at rho ~ 587 the product of two Delta values overflows; the polish's
        # bracket update compares signs, as the scan does, and raises no
        # overflow warning (the suite turns RuntimeWarning into an error)
        zeros = find_real_zeros(beam, (2, 2), (580.0 ** 4, 700.0 ** 4), max_count=3)
        assert [z.lam.real ** 0.25 / np.pi for z in zeros] == pytest.approx(
            [185.5, 186.5, 187.5], rel=1e-12)

    @pytest.mark.parametrize("region", [(5000.0, 100.0), (100.0, 100.0), (-1.0, -2.0)])
    def test_empty_window_raises(self, beam, region):
        with pytest.raises(ValueError, match="not below"):
            find_real_zeros(beam, (2, 2), region)

    @pytest.mark.parametrize("which, selector", [("beam", (3, 2)), ("random", (4, 2))])
    def test_simple_past_rho_55(self, beam, which, selector):
        # each zero's simplicity is judged from its own end wedge, whose rows
        # are the exact minors; C(1)'s minors are noise there from n ~ 18
        pb = beam if which == "beam" else make_random_real_problem(11)
        zeros = find_first_zeros(pb, selector, 25)
        assert abs(zeros[-1].lam) ** 0.25 > 70
        assert all(z.multiplicity_estimate == 1 for z in zeros)


_SEEDED = pytest.mark.parametrize("which, seed", [("real", 11), ("real", 3), ("complex", 7),
                                                  ("complex", 2)])


def _seeded_lams(which, seed):
    """A seeded random problem and 24 lambda on it with rho below 12: both
    signs for a real problem, any argument for a complex one."""
    rng = np.random.default_rng(seed)
    rho = rng.uniform(0.5, 12.0, 24)
    if which == "real":
        return make_random_real_problem(seed), rho ** 4 * rng.choice([-1.0, 1.0], 24)
    return make_random_problem(seed), rho ** 4 * np.exp(1j * rng.uniform(-np.pi, np.pi, 24))


def _within_determinant(pb, lams, selector, got):
    """got is the determinant of Delta_selector's minor of the end values of
    one C-only fundamental_C to 1e-10 relative, plus that determinant's
    floating-point floor."""
    end = fundamental_C(pb, lams, x_grid=[0.0, 1.0]).end
    rows, cols = delta_index(*selector)
    det = np.linalg.det(end[..., rows, :][..., cols])
    return np.all(np.abs(got - det) <= 1e-10 * np.abs(det) + determinant_floor(end, selector))


class TestWedgeSamples:
    """The scan's Delta_j2 samples, minus row 0 of a wedge propagated alone,
    against the 2 x 2 determinant of C(1) as the oracle, for rho below 12,
    where that determinant is good to its floor."""

    @pytest.mark.parametrize("selector", [(2, 2), (3, 2), (4, 2)])
    @_SEEDED
    def test_wedge_equals_determinant(self, which, seed, selector):
        pb, lams = _seeded_lams(which, seed)
        got = spectra._samples(pb, selector, lams)
        assert _within_determinant(pb, lams, selector, got)


class TestColumnSamples:
    """The scan's other samples, +-row 0 of one C column propagated alone,
    against the 3 x 3 or 1 x 1 determinant of C(1), for rho below 12:
    Delta_11 = -C_4(1) and Delta_21 = -C_3(1) hold for every problem."""

    @pytest.mark.parametrize("selector", [(1, 1), (2, 1), (3, 1), (4, 1), (3, 3), (4, 3)])
    @_SEEDED
    def test_column_equals_determinant(self, which, seed, selector):
        pb, lams = _seeded_lams(which, seed)
        got = spectra._samples(pb, selector, lams)
        assert _within_determinant(pb, lams, selector, got)


class TestEntrySearches:
    """The Delta_j1 searches read one C column, as those of Delta_33 and
    Delta_43 do, where their 3 x 3 determinants lost or invented zeros and
    judged simple zeros double past rho ~ 30 on the beam."""

    @pytest.mark.parametrize("selector, twin, rho", [
        ((1, 1), (3, 3), (30.0, 40.0)), ((1, 1), (3, 3), (90.0, 100.0)),
        ((2, 1), (4, 3), (90.0, 100.0))])
    def test_zeros_of_the_twin_column(self, beam, selector, twin, rho):
        # Delta_11 = -Delta_33 and Delta_21 = -Delta_43
        region = (-rho[1] ** 4, -rho[0] ** 4)
        got = find_real_zeros(beam, selector, region)
        expect = find_real_zeros(beam, twin, region)
        assert len(got) == len(expect) >= 2
        assert [z.lam.real for z in got] == pytest.approx([z.lam.real for z in expect],
                                                          rel=1e-12)

    @pytest.mark.parametrize("selector", [(3, 1), (4, 1)])
    def test_zeros_past_rho_90_are_simple(self, beam, selector):
        zeros = find_real_zeros(beam, selector, (-100.0 ** 4, -90.0 ** 4))
        assert len(zeros) == 2
        assert all(simplicity_check(z) and z.multiplicity_estimate == 1 for z in zeros)

    @pytest.mark.parametrize("n", [3, 12])
    def test_complex_delta11_zero_is_the_delta33_zero(self, beam, n):
        # the winding ring and the polish read the same column as Delta_33's,
        # whose zeros sit at -4 s_n^4 (the Delta_33 search finds them within
        # 7e-14)
        c = -4 * clamped_free_s(n) ** 4
        got, = find_complex_zeros(beam, (1, 1), (1.01 * c, 0.99 * c, -5.0, 5.0))
        assert got.lam == pytest.approx(c, rel=1e-12)

    @pytest.mark.parametrize("search, selector, region, count", [
        (find_real_zeros, (3, 3), (-3e4, -1.0), 3),
        (find_complex_zeros, (3, 2), (100.0, 600.0, -3.0, 3.0), 1)], ids=["real-33", "complex-32"])
    def test_every_zero_carries_its_state(self, beam, search, selector, region, count):
        # the C of a zero of any Delta holds the state of its accepted Newton
        # evaluation: its jet there is the zero's ddelta
        zeros = search(beam, selector, region)
        assert len(zeros) == count
        for z in zeros:
            value, jets, state = _entry(z.C.ends, selector)
            assert complex(jets[0]) == z.ddelta
            assert abs(value) <= 1e-10 * _minor_norm(state, z.lam)


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


def _brentq_root(a, b, f=oracle_delta22):
    return brentq(lambda lam: f(lam).real, a, b, xtol=1e-300, rtol=1e-15)


def _beam_delta33(lam):
    """Delta_33(lambda) = C_4(1, lambda) of the beam."""
    return oracle_C4(1.0, lam)


def _beam_jet33(lam):
    r = complex(lam) ** 0.25
    d = ((cmath.cosh(r) + cmath.cos(r)) / (2 * r)
         - (cmath.sinh(r) + cmath.sin(r)) / (2 * r ** 2)) / (4 * r ** 3)
    return _beam_delta33(lam).real, d.real, None


def _grid_samples(f, rho, sign=1.0):
    """The four scan-grid samples (lambda, f(lambda)) around the pair that
    brackets |lambda|^(1/4) = rho, lambda = sign rho^4: the one before the
    pair, the pair in scan order, the one after."""
    step = spectra.RHO_SCAN_STEP
    ra = step * np.floor(rho / step)
    return [(sign * (ra + k * step) ** 4, f(sign * (ra + k * step) ** 4).real)
            for k in (-1, 0, 1, 2)]


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

    @pytest.mark.parametrize("selector, n", [((2, 2), 1), ((2, 2), 2), ((2, 2), 3),
                                             ((3, 3), 1), ((3, 3), 2)])
    def test_interpolated_start_takes_two_solves(self, selector, n):
        # the cubic in s = sign(lambda) |lambda|^(1/4) through the four grid
        # samples puts Newton close enough that its first step lands within
        # tolerance: Delta_22 on the positive axis, and Delta_33, whose
        # zeros sit at -4 s_n^4, on the negative axis, scanned outward
        if selector == (2, 2):
            f, jet, rho, sign = oracle_delta22, _beam_jet, beam_rho(n), 1.0
        else:
            f, jet, rho, sign = _beam_delta33, _beam_jet33, 2 ** 0.5 * clamped_free_s(n), -1.0
        before, a, b, after = _grid_samples(f, rho, sign)
        assert a[1] * b[1] < 0
        start = spectra._scan_start(a, b, [before, after])
        lo, hi = sorted((a, b))
        (lam, _, _, _), lams = _drive(spectra._newton(start, bracket=(lo[0], hi[0], lo[1])), jet)
        assert len(lams) <= 2
        root = _brentq_root(lo[0], hi[0], f)
        assert lam.real == pytest.approx(root, rel=1e-12)
        if selector == (3, 3):
            assert root == pytest.approx(-4 * clamped_free_s(n) ** 4, rel=1e-12)

    def test_start_from_the_samples_it_has(self):
        # a neighbour that is missing or not finite leaves the polynomial
        # through the others: the quadratic through a, b and the one
        # neighbour, then the secant of a and b in s; a when Delta(a) = 0
        before, a, b, after = _grid_samples(oracle_delta22, beam_rho(2))
        start = spectra._scan_start(a, b, [after])
        assert spectra._scan_start(a, b, [(before[0], np.nan), after]) == start
        s = [lam ** 0.25 for lam, _ in (a, b, after)]
        quad = np.polynomial.Polynomial.fit(s, [a[1], b[1], after[1]], 2)
        assert start == pytest.approx(brentq(quad, s[0], s[1], xtol=1e-15) ** 4, rel=1e-13)
        secant = s[0] - a[1] * (s[1] - s[0]) / (b[1] - a[1])
        assert spectra._scan_start(a, b, []) == pytest.approx(secant ** 4, rel=1e-13)
        assert spectra._scan_start((a[0], 0.0), b, [before, after]) == a[0]

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
        def samples(problem, selector, lams):
            seen.extend(lams)
            return np.asarray(lams) - r

        def jets(problem, selector, lams):
            # a C that holds the end wedge C3 ^ C4 of the identity alone, for
            # the simplicity test of the Delta_22 zero
            C = FundamentalMatrix(xs=np.array([0.0, 1.0]), values=None,
                                  ends={(3, 4): np.eye(6)[5:]})
            return [(lam - r, 1.0, C) for lam in lams]

        monkeypatch.setattr(spectra, "_samples", samples)
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

    @pytest.mark.parametrize("pos, offsets", [
        (0, [2, 3, 4, 5]), (82, [-4, -3, -2, -1]), (83, [-4, -3, -2, -1, 2, 3, 4, 5]),
        (84, [-4, -3, -2, -1, 2, 3, 4, 5])],
        ids=["scan_start", "chunk_end", "across", "after"])
    def test_neighbours_come_from_solved_chunks(self, beam, monkeypatch, pos, offsets):
        # a bracket between grid samples pos and pos + 1 starts from up to
        # four finite neighbours on each side, among those already solved:
        # none before the scan's first sample, none after the last of a
        # chunk (84 samples, 1 + 1/4 zero spacings and 5 for max_count = 1) until
        # the next chunk is solved, and across a chunk boundary both, the
        # earlier ones from the last chunk's tail
        grid = []
        self._linear(monkeypatch, 1e9, grid)   # no root: records the scan grid
        assert find_real_zeros(beam, (2, 2), (0.0, 1e4)) == []
        first = int(np.ceil((1 + spectra._SCAN_LEAD) * spectra._SCAN_CHUNK)) + 5
        assert first == 84 and len(grid) > 2 * first
        near = []
        scan_start = spectra._scan_start
        monkeypatch.setattr(spectra, "_scan_start",
                            lambda a, b, nb: near.append(nb) or scan_start(a, b, nb))
        r = 0.5 * (grid[pos] + grid[pos + 1])
        self._linear(monkeypatch, r, [])
        zeros = find_real_zeros(beam, (2, 2), (0.0, 1e4), max_count=1)
        assert [z.lam.real for z in zeros] == pytest.approx([r], rel=1e-14)
        assert [lam for lam, _ in near[0]] == [grid[pos + k] for k in offsets]


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
        (val, dval, *_), = jets(beam, (2, 2), [lam0])
        assert got == lam0 - val / dval
        assert abs(got - lam0) >= default_contour_radius(lam0)

    def test_reaches_lambda1_from_nearby(self, beam):
        z = find_zero_near(beam, (2, 2), 12.362, default_contour_radius(12.362))
        assert z.selector == (2, 2) and z.multiplicity_estimate == 1
        assert z.C.end.shape == (4, 4)
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

    def test_newton_boxes_within_aspect_past_depth_cap(self, beam, monkeypatch):
        # a 2000:1 region needs more than 8 splits before each one-zero box
        # is at most NEWTON_BOX_ASPECT:1; Newton starts at the centre of
        # each such box
        boxes, starts = [], []
        split, newton = spectra._complex_zeros, spectra._newton

        def recording_split(problem, selector, region, ring, depth):
            boxes.append(region)
            return split(problem, selector, region, ring, depth)

        def recording_newton(lam0, *args, **kwargs):
            starts.append(lam0)
            return newton(lam0, *args, **kwargs)

        monkeypatch.setattr(spectra, "_complex_zeros", recording_split)
        monkeypatch.setattr(spectra, "_newton", recording_newton)
        zeros = find_complex_zeros(beam, (2, 2), (0.0, 4000.0, -1.0, 1.0))
        assert [z.lam for z in zeros] == pytest.approx(
            [beam_eigenvalue(n) for n in (1, 2, 3)], rel=1e-8)
        assert len(starts) == 3
        for lam0 in starts:
            box, = [b for b in boxes if complex(0.5 * (b[0] + b[1]), 0.5 * (b[2] + b[3])) == lam0]
            wide, tall = box[1] - box[0], box[3] - box[2]
            assert max(wide, tall) <= spectra.NEWTON_BOX_ASPECT * min(wide, tall), box

    @pytest.mark.parametrize("box", [(-200.0, 3000.0, -40.0, 40.0),
                                     (-200.0, 1000.0, -40.0, 40.0)], ids=["long", "short"])
    def test_elongated_box_returns_both_zeros(self, box):
        # a one-zero rectangle is split to an aspect ratio of at most
        # NEWTON_BOX_ASPECT before Newton starts at its centre: from the
        # centre of the long box's 1600 x 80 one-zero half, Newton stalls
        # at 201.6
        rng = np.random.default_rng(5)
        pb = ProblemSpec(p=CoefficientField.from_samples(rng.uniform(-30, 30, 6)),
                         q=CoefficientField.from_samples(10 * rng.uniform(-30, 30, 6)))
        zeros = find_complex_zeros(pb, (2, 2), box)
        real = find_real_zeros(pb, (2, 2), box[:2])
        assert [z.lam for z in zeros] == pytest.approx([z.lam for z in real], rel=1e-10)
        assert [z.lam.real for z in zeros] == pytest.approx([-171.401, 765.559], abs=1e-3)

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


def _scan_start_polyval(a, b, near):
    """spectra._scan_start as it was, with the interpolant's Newton on
    np.polyval and np.polyder."""
    (la, fa), (lb, fb) = a, b
    if fa == 0.0:
        return la
    pts = [a, b] + [p for p in near if np.isfinite(p[1])]
    s = [np.sign(lam) * abs(lam) ** 0.25 for lam, _ in pts]
    u = (np.array(s) - 0.5 * (s[0] + s[1])) / (s[1] - s[0])
    coef = np.linalg.solve(np.vander(u), [f for _, f in pts])
    dcoef = np.polyder(coef)
    newton = spectra._newton(fa / (fa - fb) - 0.5, bracket=(-0.5, 0.5, fa))
    x = next(newton)
    try:
        while True:
            x = newton.send((np.polyval(coef, x.real), np.polyval(dcoef, x.real)))
    except StopIteration as stop:
        u0 = stop.value[0].real
    s0 = 0.5 * (s[0] + s[1]) + u0 * (s[1] - s[0])
    return float(np.clip(np.sign(s0) * s0 ** 4, min(la, lb), max(la, lb)))


def _scalar_brackets(chunks):
    """The brackets of the scan's chunks, one pair of samples at a time:
    (a, b, near) per pair that opens one, with the same five-sample tail
    across chunk boundaries."""
    out, tail = [], []
    for chunk, value in chunks:
        samples = tail + list(zip(chunk, value.real))
        for i in range(max(len(tail) - 1, 0), len(samples) - 1):
            (a, fa), (b, fb) = samples[i:i + 2]
            if not (np.isfinite(fa) and np.isfinite(fb)):
                continue
            if fa == 0.0 or fa < 0 < fb or fb < 0 < fa:
                out.append(((a, fa), (b, fb), samples[max(i - 4, 0):i] + samples[i + 2:i + 6]))
        tail = samples[-5:]
    return out


class TestScanBrackets:
    """The scan tests a chunk's samples as arrays, with the numbers of the
    sample-by-sample loop."""

    def test_brackets_match_scalar_loop(self, beam, monkeypatch):
        # chunks of 84, 168, 336 and 13 samples (count 1 up to rho = 30),
        # with NaN and +-inf samples, exact zeros at either end of a pair,
        # and sign changes across each chunk boundary
        n = 601
        values = np.cos(0.9 * np.arange(n)) + 0.05
        values[[10, 20, 21, 250]] = np.nan, np.inf, -np.inf, np.nan
        values[[30, 40, 588, 596]] = 0.0, -0.0, 0.0, 0.0
        values[[83, 84, 251, 252, 587]] = -0.7, 0.6, 0.3, -0.4, 0.8
        chunks, opened = [], []

        def samples(problem, selector, lams):
            start = sum(len(c) for c, _ in chunks)
            chunks.append((np.array(lams), values[start:start + len(lams)] + 0j))
            return chunks[-1][1]

        orig_newton, orig_start = spectra._newton, spectra._scan_start
        starts = []

        def scan_start(a, b, near):
            starts.append((a, b, near))
            return orig_start(a, b, near)

        def newton(lam0, bracket=None, radius=None):
            if bracket is not None and bracket[:2] != (-0.5, 0.5):
                opened.append((lam0, bracket))
            return orig_newton(lam0, bracket, radius)

        monkeypatch.setattr(spectra, "_samples", samples)
        monkeypatch.setattr(spectra, "_scan_start", scan_start)
        monkeypatch.setattr(spectra, "_newton", newton)
        monkeypatch.setattr(spectra, "_polish", lambda problem, selector, newtons:
                            [SearchError("not polished")] * len(newtons))
        assert find_real_zeros(beam, (2, 2), (spectra.FIRST_ZEROS_START, 30.0 ** 4), 1) == []
        assert [len(c) for c, _ in chunks] == [84, 168, 336, 13]
        ref = _scalar_brackets(chunks)
        assert len(ref) > 150 and len(starts) == len(opened) == len(ref)
        for (a, b, near), (ra, rb, rnear), (lam0, bracket) in zip(starts, ref, opened):
            assert a == ra and b == rb
            assert np.array_equal(np.array(near), np.array(rnear), equal_nan=True)
            assert lam0 == orig_start(ra, rb, rnear)
            (la, fa), (lb, fb) = ra, rb
            assert bracket == ((la, lb, fa) if la < lb else (lb, la, fb))
        # each special pair as the rule has it
        first = {float(a[0]) for a, _, _ in ref}
        lams = np.concatenate([c for c, _ in chunks])
        assert {lams[30], lams[40], lams[83], lams[251], lams[588], lams[596]} <= first
        assert not {lams[9], lams[10], lams[19], lams[20], lams[21], lams[29]} & first

    def test_scan_start_matches_polyval(self):
        # bit for bit the start of the np.polyval Newton, on either side of
        # lambda = 0, with every neighbour, few, and non-finite ones
        rng = np.random.default_rng(8)
        for trial in range(200):
            s = (rng.uniform(-20, 20) + 0.05 * np.arange(-4, 6)) * (1 if trial % 3 else -1)
            lams = np.sign(s) * s ** 4
            f = rng.uniform(-1, 1, 10)
            f[4], f[5] = -0.5 * np.sign(f[5] or 1.0), 0.5 * np.sign(f[5] or 1.0)
            if trial % 5 == 0:
                f[rng.integers(0, 4)] = np.nan
            samples = list(zip(lams, f))
            keep = rng.integers(0, 5)
            near = samples[4 - keep:4] + samples[6:6 + keep]
            a, b = samples[4], samples[5]
            assert spectra._scan_start(a, b, near) == _scan_start_polyval(a, b, near)
