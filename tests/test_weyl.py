from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from quartspec import (
    BoundaryParams,
    CoefficientField,
    PoleError,
    ProblemSpec,
    all_deltas,
    beam_problem,
    boundary_form_matrix,
    characteristic_delta,
    find_real_zeros,
    fundamental_C,
    propagate,
    validate_problem,
    weyl_inverse,
    weyl_matrix,
)
from quartspec import weyl
from quartspec.weyl import ALL_INDEX_PAIRS, delta_scale, deltas_at, phi_matrix

from conftest import (
    delta_index, determinant_floor, make_random_problem, oracle_C3, oracle_C4, oracle_m43,
    term_mass,
)


# frozen closed-form values at lambda = 0 for the zero-coefficient problem
BEAM_DELTAS_AT_ZERO = {
    (1, 1): -1.0, (2, 1): -1.0, (3, 1): 1 / 6, (4, 1): -1 / 2,
    (2, 2): -1.0, (3, 2): 1 / 3, (4, 2): -1 / 2,
    (3, 3): 1.0, (4, 3): 1.0,
}


def _reference_end(pb, lam, y0, nodes):
    """solve_ivp (DOP853, rtol 1e-13) across the mesh segments listed by
    `nodes`, looking p and q up in the segment lists."""
    def coef(field, x0, x1):
        start, _, c = next(s for s in field.segments if s[0] <= 0.5 * (x0 + x1) <= s[1])
        return lambda x: np.polyval(np.asarray(c)[::-1], x - start)

    u = np.asarray(y0, dtype=complex)
    for x0, x1 in zip(nodes[:-1], nodes[1:]):
        p, q = coef(pb.p, x0, x1), coef(pb.q, x0, x1)

        def rhs(x, v):
            A = np.array([[0, 1, 0, 0], [0, 0, 1, 0], [0, p(x), 0, 1],
                          [lam - q(x), 0, 0, 0]])
            return (A @ v.reshape(4, -1)).ravel()

        u = solve_ivp(rhs, (x0, x1), u.ravel(), method="DOP853",
                      rtol=1e-13, atol=1e-15).y[:, -1].reshape(4, -1)
    return u


class TestBatchedDeltas:
    def test_batch_of_one_is_the_scalar_path(self):
        # a batch of one holds, in fields of shape (1,), the numpy scalars of
        # one lambda, with no alt_value; each value and jet is the signed
        # row 0 of its column of C(1) or of its 2-wedge from one fundamental_C
        # solve with the three wedges, within the floor of the determinant
        # formed from those end values, and Delta_31 and Delta_41, the entries
        # C_2(1) and -C_1(1), equal -S_4(0) and -S_4'(0) of the backward
        # solution
        pb = make_random_problem()
        wedge = [(3, 4), (2, 4), (3, 2)]
        for lam in (2.7, 41.0 - 3.0j):
            for jet in (False, True):
                batch = deltas_at(pb, [lam], want_dlambda=jet)
                got = all_deltas(pb, lam, want_dlambda=jet)
                assert list(batch) == list(got) == list(ALL_INDEX_PAIRS)
                for jk in ALL_INDEX_PAIRS:
                    assert got[jk].alt_value is None and batch[jk].alt_value is None
                    for field in ("value", "dvalue"):
                        one, of_batch = getattr(got[jk], field), getattr(batch[jk], field)
                        if one is None:
                            assert of_batch is None and not jet, (jk, field)
                        else:
                            assert np.ndim(one) == 0 and np.shape(of_batch) == (1,)
                            assert of_batch[0] == one, (jk, field)
                C = fundamental_C(pb, lam, want_dlambda=jet, x_grid=[0.0, 1.0], wedge=wedge)
                S4 = propagate(pb, lam, "backward", [0, 0, 0, 1], want_dlambda=jet,
                               x_grid=[0.0, 1.0])
                entries = {(1, 1): -C.end[0, 3], (2, 1): -C.end[0, 2], (3, 1): C.end[0, 1],
                           (4, 1): -C.end[0, 0], (3, 3): C.end[0, 3], (4, 3): C.end[0, 2],
                           (2, 2): -C.wedges[0, 0, 0], (3, 2): -C.wedges[0, 0, 1],
                           (4, 2): -C.wedges[0, 0, 2]}
                for jk in ALL_INDEX_PAIRS:
                    rows, cols = delta_index(*jk)
                    det = np.linalg.det(C.end[np.ix_(rows, cols)])
                    assert got[jk].value == entries[jk], jk
                    assert abs(got[jk].value - det) <= (1e-10 * abs(det)
                                                        + determinant_floor(C.end, jk)), jk
                for row, jk in enumerate(((3, 1), (4, 1))):
                    assert got[jk].value == pytest.approx(-S4.start[row, 0], rel=1e-8)
                if jet:
                    assert got[(3, 1)].dvalue == C.dlambda[-1][0, 1]
                    assert got[(4, 1)].dvalue == -C.dlambda[-1][0, 0]
                    assert got[(2, 2)].dvalue == -C.wedges[1, 0, 0]
                    assert got[(3, 1)].dvalue == pytest.approx(-S4.dlambda[0][0, 0], rel=1e-8)

    @pytest.mark.parametrize("lams", [
        480.0 + 5.8 * np.exp(2j * np.pi * np.arange(32) / 32),   # contour nodes
        np.linspace(-3000.0, 12.0 ** 4, 40),                     # Weyl grid
    ], ids=["contour", "grid"])
    def test_batch_matches_per_lambda_reference(self, lams):
        # The reference end values are good to about 1e-13 of the terms of a
        # determinant, so a value is judged against max(|Delta|, 1e-4 * term mass)
        pb = make_random_problem()
        nodes = np.union1d(pb.p.breakpoints, pb.q.breakpoints)
        Uinv = np.linalg.inv(boundary_form_matrix(pb))
        worst = 0.0
        got = deltas_at(pb, lams)
        for i, lam in enumerate(lams):
            C = _reference_end(pb, lam, Uinv, nodes)
            S4 = _reference_end(pb, lam, np.array([[0.0], [0.0], [0.0], [1.0]]), nodes[::-1])
            for (j, k) in ALL_INDEX_PAIRS:
                if (j, k) in ((3, 1), (4, 1)):
                    ref = -S4[j - 3, 0]
                    scale = abs(ref)
                else:
                    sub = C[np.ix_(*delta_index(j, k))]
                    ref = np.linalg.det(sub)
                    scale = max(abs(ref), 1e-4 * term_mass(sub))
                worst = max(worst, abs(got[(j, k)].value[i] - ref) / scale)
        assert worst < 1e-9


def _tan_tanh_s(k):
    """k-th positive root of tan s = tanh s (zeros of the beam's Delta_31 sit
    at -4 s^4), written as sin s - cos s tanh s = 0 to stay finite."""
    return brentq(lambda s: np.sin(s) - np.cos(s) * np.tanh(s), k * np.pi, (k + 0.5) * np.pi,
                  xtol=1e-14, rtol=8.9e-16)


_SAMPLE = st.floats(-3.0, 3.0)
_COMPLEX = st.builds(complex, _SAMPLE, _SAMPLE)


@st.composite
def _problems(draw):
    """Real or complex piecewise-cubic p and q (q ten times larger) from 4 to
    7 samples, and complex boundary constants a, b, c."""
    n = draw(st.integers(4, 7))
    sample = _SAMPLE if draw(st.booleans()) else _COMPLEX
    p, q = (draw(st.lists(sample, min_size=n, max_size=n)) for _ in range(2))
    return validate_problem(ProblemSpec(
        p=CoefficientField.from_samples(p, interp=3),
        q=CoefficientField.from_samples([10 * v for v in q], interp=3),
        boundary=BoundaryParams(*(draw(_COMPLEX) for _ in range(3)))))


class TestEntryRoute:
    """Delta_31 and Delta_41 are the entries C_2(1) and -C_1(1)."""

    @pytest.mark.parametrize("jk, s", [((4, 1), lambda k: k * np.pi), ((3, 1), _tan_tanh_s)],
                             ids=["delta41", "delta31"])
    def test_beam_zeros_closed_form(self, jk, s):
        # the beam's Delta_41 vanishes at -4 (k pi)^4, its Delta_31 at -4 s_k^4
        # with tan s_k = tanh s_k: the five nearest 0 of each
        zeros = find_real_zeros(beam_problem(), jk, (-4e5, -1e-6), max_count=5)
        got = sorted((z.lam.real for z in zeros), reverse=True)
        assert got == pytest.approx([-4 * s(k) ** 4 for k in range(1, 6)], rel=2e-11)

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(_problems(), st.floats(0.0, 12.0), st.floats(-np.pi, np.pi))
    def test_entries_are_the_backward_solution(self, pb, rho, theta):
        # deltas_at's entries against -S_4(0) and -S_4'(0) from solve_ivp run
        # backward from e_4 at x = 1; M's entries against its 3 x 3
        # determinants (alt_value) within their propagation error, ode_rel
        # times the mass of their terms
        lam = rho ** 4 * np.exp(1j * theta)
        d = all_deltas(pb, lam)
        m = weyl_matrix(pb, lam).deltas
        nodes = np.union1d(pb.p.breakpoints, pb.q.breakpoints)
        S4 = _reference_end(pb, lam, np.array([[0.0], [0.0], [0.0], [1.0]]), nodes[::-1])[:, 0]
        end = fundamental_C(pb, lam, x_grid=[0.0, 1.0]).end
        for row, jk in enumerate(((3, 1), (4, 1))):
            assert d[jk].value == pytest.approx(-S4[row], rel=1e-8)
            mass = term_mass(end[np.ix_(*delta_index(*jk))])
            assert abs(m[jk].value - m[jk].alt_value) <= pb.tolerances.ode_rel * mass


class TestCharacteristicValues:
    def test_all_nine_pairs_present(self):
        d = all_deltas(beam_problem(), 1.0)
        assert set(d) == set(ALL_INDEX_PAIRS)

    def test_beam_values_at_lambda_zero(self):
        d = all_deltas(beam_problem(), 0.0)
        for jk, expect in BEAM_DELTAS_AT_ZERO.items():
            assert d[jk].value == pytest.approx(expect, abs=1e-10), jk

    def test_beam_delta22_at_lambda_one(self):
        # -(1 + cos 1 cosh 1)/2
        val = characteristic_delta(beam_problem(), 1.0, (2, 2)).value
        assert val == pytest.approx(-(1 + np.cos(1) * np.cosh(1)) / 2, abs=1e-10)

    @pytest.mark.parametrize("lam", [1.0, 7.3, -4.0])
    def test_shortcut_identities_beam(self, lam):
        # Delta_11 = -C_4(1), Delta_21 = -C_3(1); the k=1 column-3/4 deltas
        # equal the end values of the backward family at 0
        d = all_deltas(beam_problem(), lam)
        assert d[(1, 1)].value == pytest.approx(-oracle_C4(1.0, lam), abs=1e-9)
        assert d[(2, 1)].value == pytest.approx(-oracle_C3(1.0, lam), abs=1e-9)
        assert d[(1, 1)].value == pytest.approx(-d[(3, 3)].value, abs=1e-9)
        assert d[(2, 1)].value == pytest.approx(-d[(4, 3)].value, abs=1e-9)

    def test_dual_route_cross_check(self):
        # M's (3,1) and (4,1) carry the determinant-route value alongside the
        # backward-family shortcut, which deltas_at's entries equal; deltas_at
        # sets no alt_value
        for pb in (beam_problem(), make_random_problem()):
            d = all_deltas(pb, 2.7)
            m = weyl_matrix(pb, 2.7).deltas
            for jk in ((3, 1), (4, 1)):
                cv = m[jk]
                assert d[jk].alt_value is None and cv.alt_value is not None
                assert abs(cv.value - cv.alt_value) < 1e-8 * (1 + abs(cv.value))
                assert abs(d[jk].value - cv.value) < 1e-8 * (1 + abs(cv.value))

    @pytest.mark.parametrize("n", [10, 20, 30])
    def test_delta22_at_searched_beam_zeros(self, beam, beam_zeros_30, n):
        # Delta_22 at the search's lambda_n is row 0 of its wedge, free of
        # the 2 x 2 determinant's cancellation, whose rounding there is far
        # above 1e-11 of the norm, and its jet is the search's ddelta
        z = beam_zeros_30[n - 1]
        cv = characteristic_delta(beam, z.lam, (2, 2), want_dlambda=True)
        assert abs(cv.value) <= 1e-11 * weyl._minor_norm(z.end_state, z.lam, 2)
        assert abs(cv.dvalue - z.ddelta) <= 1e-10 * abs(z.ddelta)

    def test_dvalue_matches_finite_difference(self):
        pb = make_random_problem()
        lam, h = 1.9, 1e-6
        d = all_deltas(pb, lam, want_dlambda=True)
        dp = all_deltas(pb, lam + h)
        dm = all_deltas(pb, lam - h)
        for jk in ((2, 2), (3, 2), (3, 3)):
            fd = (dp[jk].value - dm[jk].value) / (2 * h)
            assert d[jk].dvalue == pytest.approx(fd, rel=1e-4)


class TestBatchShape:
    def test_batch_of_one_is_bitwise_the_one_lambda_call(self):
        # fundamental_C and phi_matrix of a batch of one are bitwise their
        # one-lambda results; m is within one ulp of Python's scalar
        # -Delta_jk / Delta_kk of the one-lambda M (numpy rounds complex
        # division differently)
        pb = make_random_problem()
        xs = np.linspace(0.0, 1.0, 5)
        for lam in (2.7, 41.0 - 3.0j):
            one = fundamental_C(pb, lam, want_dlambda=True, x_grid=xs)
            batch = fundamental_C(pb, [lam], want_dlambda=True, x_grid=xs)
            assert one.values.shape == (len(one.xs), 4, 4)
            assert batch.values.shape == (len(one.xs), 1, 4, 4)
            assert np.array_equal(batch.xs, one.xs)
            assert np.array_equal(batch.values[:, 0], one.values)
            assert np.array_equal(batch.dlambda[:, 0], one.dlambda)
            assert batch.det_drift == one.det_drift
            _, phi_one = phi_matrix(pb, lam, x_grid=xs)
            _, phi_batch = phi_matrix(pb, [lam], x_grid=xs)
            assert np.array_equal(phi_batch[:, 0], phi_one)
            m = weyl_matrix(pb, [lam]).m
            assert m.shape == (1, 4, 4)
            d = weyl_matrix(pb, lam).deltas
            for (j, k) in ALL_INDEX_PAIRS:
                if j != k:
                    ref = -complex(d[(j, k)].value) / complex(d[(k, k)].value)
                    got = m[0, j - 1, k - 1]
                    assert abs(got.real - ref.real) <= np.spacing(abs(ref.real)), (j, k)
                    assert abs(got.imag - ref.imag) <= np.spacing(abs(ref.imag)), (j, k)

    def test_batch_fields_have_the_shape_of_lambda(self):
        # a 2 x 2 array of lambda: each entry agrees with its one-lambda call
        # to the propagation tolerance (the batch shares one step sequence)
        pb = make_random_problem()
        lams = np.array([[0.9, 3.7 + 1.2j], [20.0, -15.0]])
        xs = np.linspace(0.0, 1.0, 3)
        C = fundamental_C(pb, lams, x_grid=xs)
        sample = weyl_matrix(pb, lams)
        _, phi = phi_matrix(pb, lams, x_grid=xs)
        assert C.values.shape == phi.shape == (len(C.xs), 2, 2, 4, 4)
        assert sample.m.shape == (2, 2, 4, 4)
        assert all(np.shape(cv.value) == (2, 2) for cv in sample.deltas.values())
        for idx in np.ndindex(lams.shape):
            at = (slice(None),) + idx
            assert np.allclose(C.values[at], fundamental_C(pb, lams[idx], x_grid=xs).values,
                               rtol=1e-8, atol=1e-10)
            assert np.allclose(sample.m[idx], weyl_matrix(pb, lams[idx]).m, rtol=1e-8, atol=1e-10)
            assert np.allclose(phi[at], phi_matrix(pb, lams[idx], x_grid=xs)[1],
                               rtol=1e-8, atol=1e-10)

    def test_pole_in_batch_names_its_lambda(self):
        # lambda_1 of the beam is a zero of Delta_22, a pole of the k=2
        # column; -4 s_1^4 a zero of Delta_11 = -Delta_33, a pole of k=1
        from conftest import beam_eigenvalue, clamped_free_s
        lam1, mu1 = beam_eigenvalue(1), -4 * clamped_free_s(1) ** 4
        with pytest.raises(PoleError) as err:
            weyl_matrix(beam_problem(), [2.0, lam1, 20.0])
        assert (err.value.k, err.value.lam) == (2, lam1)
        assert err.value.value < 1e-10 * delta_scale(beam_problem(), 2)
        # the first pole of the batch is named, whatever its k
        for batch, k, lam in (([2.0, lam1, mu1], 2, lam1), ([2.0, mu1, lam1], 1, mu1)):
            with pytest.raises(PoleError) as err:
                weyl_matrix(beam_problem(), batch)
            assert (err.value.k, err.value.lam) == (k, lam)


class TestWeylMatrix:
    def test_unit_lower_triangular(self):
        for pb in (beam_problem(), make_random_problem()):
            m = weyl_matrix(pb, 1.3).m
            assert np.allclose(np.triu(m), np.eye(4))

    def test_m43_closed_form(self):
        pb = beam_problem()
        for lam in (0.5, 2.0, 17.5, 42.0):
            m = weyl_matrix(pb, lam).m
            assert m[3, 2] == pytest.approx(oracle_m43(lam), rel=1e-9)

    def test_symmetry_and_linear_relation(self):
        # m21 = m43 and m31 - m21 m32 + m42 = 0 for every problem
        for pb in (beam_problem(), make_random_problem()):
            for lam in (0.9, 3.7 + 1.2j):
                m = weyl_matrix(pb, lam).m
                assert abs(m[1, 0] - m[3, 2]) < 1e-9
                assert abs(m[2, 0] - m[1, 0] * m[2, 1] + m[3, 1]) < 1e-9

    def test_inverse_closed_form(self):
        pb = make_random_problem()
        sample = weyl_matrix(pb, 2.4)
        inv = weyl_inverse(sample)
        assert np.max(np.abs(sample.m @ inv - np.eye(4))) < 1e-9

    def test_pole_raises(self):
        # lambda_1 of the beam is a zero of Delta_22, a pole of the k=2 column
        from conftest import beam_eigenvalue
        with pytest.raises(PoleError) as err:
            weyl_matrix(beam_problem(), beam_eigenvalue(1))
        assert err.value.k == 2

    def test_pole_at_beam_eigenvalues(self):
        # the pole floor is relative to each Delta_kk's magnitude at its own
        # lambda, not to one maximum over lambda <= 30: lambda_3 (rho = 7.9)
        # is a pole too.  Past lambda_4 the determinant Delta_22 carries more
        # cancellation noise than the floor, so no n > 4 is asserted.
        from conftest import beam_eigenvalue
        beam = beam_problem()
        for n in range(1, 5):
            with pytest.raises(PoleError) as err:
                weyl_matrix(beam, beam_eigenvalue(n))
            assert err.value.k == 2
        for n in range(1, 9):
            weyl_matrix(beam, beam_eigenvalue(n) * (1 + 1e-6))

    @pytest.mark.parametrize("seed", [1, 7, 23])
    def test_no_pole_on_grid(self, seed):
        # the benchmark's weyl grid: every Delta_kk well clear of the floor
        pb = make_random_problem(seed)
        lams = np.linspace(-3000.0, 12.0 ** 4, 40)
        sample = weyl_matrix(pb, lams)
        end = fundamental_C(pb, lams, x_grid=[0.0, 1.0]).end
        for k in (1, 2, 3):
            size = np.abs(sample.deltas[(k, k)].value)
            assert np.min(size / _ref_magnitude(end, lams, (k, k))) >= 1e-3

    def test_delta_scale_positive(self):
        assert delta_scale(beam_problem(), 2) > 0

    def test_replaced_problem_has_its_own_scale(self):
        # the beam's scale (1.32) must not stand for a problem with q = 500
        # (100.8), however it is built
        from dataclasses import replace
        beam = beam_problem()
        delta_scale(beam, 2)
        q500 = CoefficientField.constant(500.0)
        fresh = ProblemSpec(p=beam.p, q=q500, boundary=beam.boundary)
        assert delta_scale(replace(beam, q=q500), 2) == delta_scale(fresh, 2)
        assert delta_scale(fresh, 2) > 10 * delta_scale(beam, 2)


# M's minors, magnitudes and poles as _weyl_sample once formed them, one
# determinant call per pair and per magnitude, from the determinant tables
# they read
_REF_COLS = {
    (1, 1): [2, 3, 4], (2, 1): [1, 3, 4], (3, 1): [2, 1, 4], (4, 1): [2, 3, 1],
    (2, 2): [3, 4], (3, 2): [2, 4], (4, 2): [3, 2],
    (3, 3): [4], (4, 3): [3],
}
_REF_ROWS = {1: [2, 1, 0], 2: [1, 0], 3: [0]}
_REF_ENTRIES = {(3, 1): (1, 2), (4, 1): (-1, 1)}


def _ref_det(sub):
    return sub[..., 0, 0] if sub.shape[-1] == 1 else np.linalg.det(sub)


def _ref_magnitude(end, lam, jk):
    cols = [c - 1 for c in _REF_COLS[jk]]
    rows = np.array(list(combinations(range(4), len(cols))))
    minors = _ref_det(end[..., cols][..., rows, :])
    rho = np.maximum(1.0, np.abs(np.asarray(lam)) ** 0.25)[..., None]
    return np.max(np.abs(minors) * rho ** (rows[0].sum() - rows.sum(axis=1)), axis=-1)


def _ref_assemble(end):
    out = {}
    for jk in ALL_INDEX_PAIRS:
        rows, cols = _REF_ROWS[jk[1]], [c - 1 for c in _REF_COLS[jk]]
        alt, sign = None, 1
        if jk in _REF_ENTRIES:
            alt = _ref_det(end[..., rows, :][..., cols])
            sign, col = _REF_ENTRIES[jk]
            rows, cols = [0], [col - 1]
        out[jk] = (_ref_det(sign * end[..., rows, :][..., cols]), alt)
    return out


def _ref_sample(lam, end):
    """(deltas as (value, alt) by pair, m), or PoleError as _weyl_sample
    raised it."""
    lam, deltas = np.asarray(lam, dtype=complex), _ref_assemble(end)
    diag = np.stack([np.ravel(deltas[kk][0]) for kk in ((1, 1), (2, 2), (3, 3))])
    size = np.hypot(diag.real, diag.imag)
    poles = size < weyl.POLE_FLOOR * np.stack([np.ravel(_ref_magnitude(end, lam, (k, k)))
                                               for k in (1, 2, 3)])
    if poles.any():
        i = np.argmax(poles.any(axis=0))
        k = np.argmax(poles[:, i])
        raise PoleError(k + 1, complex(lam.ravel()[i]), float(size[k, i]))
    m = np.broadcast_to(np.eye(4, dtype=complex), lam.shape + (4, 4)).copy()
    for (j, k), (value, _) in deltas.items():
        if j != k:
            m[..., j - 1, k - 1] = -value / deltas[(k, k)][0]
    return deltas, m


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestStackedMinors:
    """M's minors, in two determinant calls over every lambda, are bitwise
    the per-pair determinants, and its poles those of the per-pair
    magnitudes."""

    @staticmethod
    def _draw(rng, shape):
        # entries spread over six decades per row, as C(1)'s grow with rho
        scale = 10.0 ** rng.uniform(-3, 3, shape + (4, 1))
        return scale * (rng.standard_normal(shape + (4, 4))
                        + 1j * rng.standard_normal(shape + (4, 4)))

    @pytest.mark.parametrize("shape", [(), (7,), (2, 3)])
    def test_sample_matches_per_pair_reference(self, shape):
        rng = np.random.default_rng(8)
        for _ in range(5):
            end = self._draw(rng, shape)
            lam = rng.uniform(-1e4, 1e4, shape) + 1j * rng.uniform(-1e3, 1e3, shape)
            deltas, m = _ref_sample(lam, end)
            got = weyl._weyl_sample(lam, end)
            assert _same_bits(got.m, m)
            for jk, (value, alt) in deltas.items():
                cv = got.deltas[jk]
                assert cv.jk == jk and cv.dvalue is None and _same_bits(cv.value, value)
                assert cv.alt_value is None if alt is None else _same_bits(cv.alt_value, alt)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_pole_names_the_same_k_and_lambda(self, k):
        # Delta_kk made to vanish at two lambda of the batch, Delta_33 = C_4(1)
        # row 0 at a third: the first such lambda is named, with the smallest k
        rng = np.random.default_rng(9)
        end = self._draw(rng, (6,))
        lam = rng.uniform(-1e4, 1e4, 6) + 0j
        for i in (2, 4):
            # C_k+1 on rows 0 .. 3 - k a multiple of C_k+2 (k = 1, 2) or zero
            end[i, :4 - k, k] = 0 if k == 3 else 1.5 * end[i, :4 - k, k + 1]
        end[5, 0, 3] = 0
        with pytest.raises(PoleError) as want:
            _ref_sample(lam, end)
        with pytest.raises(PoleError) as got:
            weyl._weyl_sample(lam, end)
        assert (got.value.k, got.value.lam, got.value.value) == (
            want.value.k, want.value.lam, want.value.value)
        assert (got.value.k, got.value.lam) == (k, lam[2])


class TestPhiMatrix:
    def test_phi_interpolates_weyl_solutions(self):
        # Phi = C M has columns phi_k with U_s(phi_k) = delta_sk below the
        # diagonal structure; at x = 0 it equals U^{-1} M
        from quartspec.problem import boundary_form_matrix
        pb = make_random_problem()
        lam = 1.1
        xs, phis = phi_matrix(pb, lam, x_grid=[0.0, 1.0])
        U = boundary_form_matrix(pb)
        m = weyl_matrix(pb, lam).m
        assert np.max(np.abs(U @ phis[0] - m)) < 1e-9

    def test_phi_identical_problems_match(self):
        pb = beam_problem()
        xs, a = phi_matrix(pb, 2.2, x_grid=np.linspace(0, 1, 4))
        _, b = phi_matrix(beam_problem(), 2.2, x_grid=np.linspace(0, 1, 4))
        assert np.max(np.abs(np.asarray(a) - np.asarray(b))) < 1e-12
