import math
import threading
from itertools import combinations

import numpy as np
import pytest

from scipy.integrate import solve_ivp

from quartspec import (
    CoefficientField, ProblemSpec, beam_problem, fundamental_C, fundamental_S, propagate,
    validate_problem,
)
from quartspec import propagator
from quartspec.weyl import _ENTRIES, ALL_INDEX_PAIRS
from quartspec.problem import BoundaryParams, boundary_form_matrix, lagrange_bracket

from conftest import (
    make_random_problem, make_random_real_problem, oracle_C3, oracle_C4, oracle_delta22,
)


def _reference_end(pb, lam, Y0):
    """Y(1) from one solve_ivp over [0, 1] that looks p and q up in the
    segment list at every x, for Y(0) = Y0."""
    def coef(field, x):
        x0, _, c = next(s for s in field.segments if s[0] <= x <= s[1])
        return np.polyval(c[::-1], x - x0)

    def rhs(x, u):
        A = np.array([[0, 1, 0, 0], [0, 0, 1, 0], [0, coef(pb.p, x), 0, 1],
                      [lam - coef(pb.q, x), 0, 0, 0]])
        return (A @ u.reshape(4, -1)).ravel()

    Y0 = np.asarray(Y0, complex)
    return solve_ivp(rhs, (0.0, 1.0), Y0.ravel(), method="DOP853",
                     rtol=1e-12, atol=1e-14).y[:, -1].reshape(Y0.shape)


def _wedge_init(Y, pairs, copies=1):
    """The 6-row initial 2-wedges of the column pairs (j, k) of Y (1-based
    labels), each repeated `copies` times side by side: the (a, b) minor
    Y_aj Y_bk - Y_bj Y_ak in row order (0, 1), (0, 2), ..., (2, 3)."""
    return np.array([[Y[a, j - 1] * Y[b, k - 1] - Y[b, j - 1] * Y[a, k - 1]
                      for j, k in pairs for _ in range(copies)]
                     for a, b in combinations(range(4), 2)])


def _column_jets(C):
    """d/dlambda of C(1), rows then columns, from a fundamental_C's ends."""
    return np.stack([C.ends[k,][1] for k in range(1, 5)], -1)


def _kernel_steps(monkeypatch):
    """(dtype kind, step length) of every step a propagation's one block takes."""
    steps = []
    orig = propagator._Block.advance

    def advance(self, T, powers):
        steps.append((self.state.dtype.kind, powers[-1, 1]))
        return orig(self, T, powers)

    monkeypatch.setattr(propagator._Block, "advance", advance)
    return steps


def _real_problem(which):
    """The beam, or a random real piecewise-cubic problem with nonzero
    boundary constants."""
    if which == "beam":
        return beam_problem()
    pb = make_random_real_problem()
    return validate_problem(ProblemSpec(p=pb.p, q=pb.q, boundary=BoundaryParams(0.3, -0.2, 0.1)))


class TestClosedForm:
    @pytest.mark.parametrize("lam", [1.0, 10.0, 100.0, -5.0, 2 + 3j])
    def test_C3_C4_match_closed_form(self, lam):
        pb = beam_problem()
        res = fundamental_C(pb, lam, x_grid=np.linspace(0, 1, 5))
        for i, x in enumerate(res.xs):
            assert res.values[i][0, 2] == pytest.approx(oracle_C3(x, lam), abs=1e-9)
            assert res.values[i][0, 3] == pytest.approx(oracle_C4(x, lam), abs=1e-9)

    def test_lambda_zero_polynomial_solutions(self):
        # at lambda = 0 the solutions are 1, x, x^2/2, x^3/6 up to the U-forms
        pb = beam_problem()
        res = fundamental_C(pb, 0.0, x_grid=[0.0, 0.5, 1.0])
        assert list(res.xs) == [0.0, 0.5, 1.0]
        x, at_x = res.xs[1], res.values[1]
        assert at_x[0, 2] == pytest.approx(1.0, abs=1e-10)
        assert at_x[0, 3] == pytest.approx(x, abs=1e-10)

    def test_S4_backward_closed_form(self):
        # S_4(x, 0) = (x - 1)^3 / 6 solves y'''' = 0 with identity data at 1
        pb = beam_problem()
        res = fundamental_S(pb, 0.0, x_grid=np.linspace(0, 1, 5))
        for i, x in enumerate(res.xs):
            assert res.values[i][0, 3] == pytest.approx((x - 1) ** 3 / 6, abs=1e-10)

    @pytest.mark.parametrize("rho", [10, 20, 35, 40, 60])
    def test_wedge_delta22_matches_closed_form(self, rho):
        # Delta_22 = -(C3 ^ C4)_(y, y') at x = 1, integrated under the
        # additive compound: no cancellation, where the 2 x 2 determinant of
        # C(1) loses eps e^rho of its value
        pb = beam_problem()
        lam = float(rho) ** 4
        res = propagate(pb, lam, "forward", np.linalg.inv(boundary_form_matrix(pb)),
                        want_dlambda=True, wedge_pairs=[(2, 3)], x_grid=[0.0, 1.0])
        # ends: the 4 columns, then the wedge, whose rows follow the columns'
        assert res.ends.shape == (2, 5, 10)
        assert -res.ends[0, 4, 4] == pytest.approx(oracle_delta22(lam), rel=1e-11)
        r = lam ** 0.25
        ddelta = (np.sin(r) * np.cosh(r) - np.cos(r) * np.sinh(r)) / (8 * r ** 3)
        assert -res.ends[1, 4, 4] == pytest.approx(ddelta, rel=1e-10)

    @pytest.mark.parametrize("rho", [10, 35, 60, 120])
    def test_wedge_only_delta22_matches_closed_form(self, rho):
        # the scan's solve: a 6-row init, the wedge C3 ^ C4 stepped alone,
        # with no columns and no jet, at one lambda or at two
        pb = beam_problem()
        lams = float(rho) ** 4 * np.array([1.0, 1.01])
        init = _wedge_init(np.linalg.inv(boundary_form_matrix(pb)), [(3, 4)], copies=2)
        res = propagate(pb, lams, "forward", init, x_grid=[0.0, 1.0])
        assert res.values.shape == (2, 6, 2) and res.ends.shape == (1, 2, 6)
        got = -res.end[0]
        assert got.tolist() == pytest.approx([oracle_delta22(lam) for lam in lams], rel=1e-11)

    def test_dlambda_jet_matches_finite_difference(self):
        pb = beam_problem()
        lam, h = 3.0, 1e-6
        res = fundamental_C(pb, lam, want_dlambda=True)
        plus = fundamental_C(pb, lam + h)
        minus = fundamental_C(pb, lam - h)
        fd = (plus.end - minus.end) / (2 * h)
        assert np.max(np.abs(_column_jets(res) - fd)) < 1e-5


class TestInitialData:
    def test_C_family_satisfies_left_forms(self):
        pb = make_random_problem()
        res = fundamental_C(pb, 2.5)
        U = boundary_form_matrix(pb)
        assert np.max(np.abs(U @ res.start - np.eye(4))) < 1e-12

    def test_S_family_is_identity_at_right_end(self):
        pb = make_random_problem()
        res = fundamental_S(pb, 2.5)
        assert np.max(np.abs(res.end - np.eye(4))) < 1e-12
        # trajectories are reported in ascending x regardless of direction
        assert np.all(np.diff(res.xs) > 0)


class TestInvariants:
    def test_determinant_conserved(self):
        # trace of the system matrix is zero, so det is constant in x
        pb = make_random_problem()
        for lam in (1.0, -20.0, 5 + 2j):
            dets = np.linalg.det(fundamental_C(pb, lam, x_grid=np.linspace(0, 1, 11)).values)
            assert np.max(np.abs(dets - dets[0])) < 1e-8

    def test_lagrange_identity_random_pair(self):
        pb = make_random_problem()
        rng = np.random.default_rng(0)
        lam, mu = 1.7 + 0.3j, -2.2 + 1.1j
        y0 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        z0 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        res = propagate(pb, [lam, mu], "forward", np.column_stack([y0, z0]),
                        quad_pairs=[(0, 1)])
        yt, zt, integ = res.values[:, :, 0], res.values[:, :, 1], res.quadratures[(0, 1)]
        jump = lagrange_bracket(yt[-1], zt[-1]) - lagrange_bracket(yt[0], zt[0])
        assert abs(jump - (lam - mu) * integ) < 1e-8

    def test_quadrature_against_closed_form(self):
        # int_0^1 C_4(x, 0)^2 dx = int x^2 dx = 1/3 for the beam
        pb = beam_problem()
        res = propagate(pb, 0.0, "forward",
                        np.array([[0.0], [1.0], [0.0], [0.0]], complex),
                        quad_pairs=[(0, 0)])
        assert res.quadratures[(0, 0)] == pytest.approx(1 / 3, abs=1e-10)

    def test_backward_quadrature_sign(self):
        # int_0^1 S_4(x, 0)^2 dx = int (x-1)^6/36 dx = 1/252
        pb = beam_problem()
        res = propagate(pb, 0.0, "backward",
                        np.array([[0.0], [0.0], [0.0], [1.0]], complex),
                        quad_pairs=[(0, 0)])
        assert res.quadratures[(0, 0)] == pytest.approx(1 / 252, abs=1e-12)


class TestCoefficientCoupling:
    def test_quasi_derivative_uses_p(self):
        # with p = const, y^[3] = y''' - p y'; check against y = sin(kx)
        # via the first-order system: row 3 carries p y'' ... exercised by
        # comparing against a dense-output reference from an independent
        # integration of the scalar equation
        p = CoefficientField.constant(0.8)
        q = CoefficientField.constant(-0.3)
        pb = validate_problem(ProblemSpec(p=p, q=q))
        lam = 4.0

        def rhs(x, u):
            y, dy, d2y, d3y = u  # plain derivatives
            return [dy, d2y, d3y, 0.8 * d2y + (lam + 0.3) * y]

        u0 = [1.0, 0.5, -0.2, 0.3]
        ref = solve_ivp(rhs, (0, 1), u0, rtol=1e-12, atol=1e-12)
        # quasi-vector at 0: y^[3] = y''' - p y'
        init = np.array([[1.0], [0.5], [-0.2], [0.3 - 0.8 * 0.5]], complex)
        res = propagate(pb, lam, "forward", init)
        y_end = res.end[:, 0]
        assert y_end[0] == pytest.approx(ref.y[0, -1], abs=1e-8)
        assert y_end[1] == pytest.approx(ref.y[1, -1], abs=1e-8)
        assert y_end[2] == pytest.approx(ref.y[2, -1], abs=1e-8)
        # y^[3](1) = y'''(1) - p y'(1)
        assert y_end[3] == pytest.approx(ref.y[3, -1] - 0.8 * ref.y[1, -1], abs=1e-8)

    def test_breakpoints_are_mesh_nodes(self):
        q = CoefficientField([(0.0, 0.3, [0.0]), (0.3, 1.0, [12.0])])
        pb = validate_problem(ProblemSpec(p=CoefficientField.zero(), q=q))
        res = fundamental_C(pb, 1.0, x_grid=[0.0, 1.0])
        assert np.any(np.isclose(res.xs, 0.3))

    def test_piecewise_cubic_matches_pointwise_integration(self):
        # reference: one solve_ivp over [0, 1] that looks p and q up in the
        # segment list at every x, against the propagator's per-segment
        # pieces, re-expanded at every step and restarted at each breakpoint;
        # on 5 and on 9 segments of complex p and q
        rng = np.random.default_rng(9)
        nine = validate_problem(ProblemSpec(
            p=CoefficientField.from_samples(rng.uniform(-2, 2, 10) + 1j * rng.uniform(-2, 2, 10)),
            q=CoefficientField.from_samples(rng.uniform(-9, 9, 10) + 1j * rng.uniform(-9, 9, 10)),
            boundary=BoundaryParams(0.5 - 0.2j, 0.1j, -0.4)))
        assert len(nine.breakpoints) == 10
        lam = 3.7 + 0.4j
        for pb in (make_random_problem(), nine):
            ref = _reference_end(pb, lam, np.linalg.inv(boundary_form_matrix(pb)))
            got = fundamental_C(pb, lam, x_grid=[0.0, 1.0]).end
            assert np.max(np.abs(got - ref)) < 1e-8 * np.max(np.abs(ref))


REAL_BATCH = np.array([-40.0, 0.5, 12.0, 300.0, 2000.0])


class TestRealKernel:
    """A real problem at real lambda with real initial data runs in real
    arithmetic; the caller still sees complex arrays."""

    @pytest.mark.parametrize("which", ["beam", "random"])
    def test_real_batch_returns_exactly_real_values(self, which, monkeypatch):
        pb = _real_problem(which)
        steps = _kernel_steps(monkeypatch)
        res = fundamental_C(pb, REAL_BATCH, want_dlambda=True,
                            states=propagator._ALL_COLUMNS + [(3, 4)],
                            x_grid=np.linspace(0, 1, 5))
        assert {kind for kind, _ in steps} == {"f"}
        for a in (res.values, *res.ends.values()):
            assert a.dtype == complex and not np.any(a.imag)
        res = propagate(pb, 12.0, "forward", np.linalg.inv(boundary_form_matrix(pb)),
                        quad_pairs=[(0, 0), (2, 3)])
        assert res.values.dtype == complex and not np.any(res.values.imag)
        for v in res.quadratures.values():
            assert isinstance(v, complex) and v.imag == 0.0

    @pytest.mark.parametrize("which", ["beam", "random"])
    def test_complex_lambda_joins_the_same_steps(self, which, monkeypatch):
        # 1 + 1j is too small to bound the step: the batch with it runs the
        # complex kernel over the real batch's steps, and its real-lambda
        # columns agree with the real solve to rounding
        pb = _real_problem(which)
        steps = _kernel_steps(monkeypatch)
        real = fundamental_C(pb, REAL_BATCH, want_dlambda=True, x_grid=[0.0, 1.0])
        real_steps = list(steps)
        steps.clear()
        mixed = fundamental_C(pb, np.append(REAL_BATCH, 1 + 1j), want_dlambda=True,
                              x_grid=[0.0, 1.0])
        assert {kind for kind, _ in real_steps} == {"f"}
        assert {kind for kind, _ in steps} == {"c"}
        assert len(steps) == len(real_steps)
        np.testing.assert_allclose([h for _, h in steps], [h for _, h in real_steps],
                                   rtol=1e-12)
        for got, ref in ((mixed.end[:-1], real.end),
                         (_column_jets(mixed)[:-1], _column_jets(real))):
            scale = np.max(np.abs(ref), axis=(-2, -1))
            assert np.all(np.max(np.abs(got - ref), axis=(-2, -1)) <= 1e-13 * scale)

    @pytest.mark.parametrize("case", ["none", "boundary", "p", "q", "init"])
    def test_complex_data_keeps_the_complex_kernel(self, case, monkeypatch):
        # one complex ingredient at a real lambda: a boundary constant, p,
        # q or the initial data; with none, the real kernel, against the
        # same independent integration
        pb = make_random_real_problem()
        p, q, bc = pb.p, pb.q, BoundaryParams(0.3, -0.2, 0.1)

        def shifted(field):
            return CoefficientField([(x0, x1, np.concatenate([[c[0] + 0.4j], c[1:]]))
                                     for x0, x1, c in field.segments])

        if case == "boundary":
            bc = BoundaryParams(0.3, -0.2 + 0.25j, 0.1)
        elif case == "p":
            p = shifted(p)
        elif case == "q":
            q = shifted(q)
        pb = validate_problem(ProblemSpec(p=p, q=q, boundary=bc))
        Y0 = np.linalg.inv(boundary_form_matrix(pb))
        if case == "init":
            Y0 = Y0 @ np.diag([1.0, 1j, 1.0, 0.6 - 0.8j])
        steps = _kernel_steps(monkeypatch)
        lam = 37.0
        got = propagate(pb, lam, "forward", Y0, x_grid=[0.0, 1.0]).end
        assert {kind for kind, _ in steps} == {"f" if case == "none" else "c"}
        ref = _reference_end(pb, lam, Y0)
        assert np.max(np.abs(got - ref)) < 1e-8 * np.max(np.abs(ref))


def _reference_series(block, pq, order=propagator.TAYLOR_ORDER):
    """_Block.series as a plain loop over a fresh buffer, with self as
    `block`, to Taylor order `order`: each order's slab is Y_k on the
    system's rows, then L_k = lams * Y_k[qcols] plus, in a jet column, its
    source's Y_k[qcols]; Y_{k+1} is the product of A * (1 / (k + 1)), whose
    -Q maps the newest L rows into `rows`, with the window Y_{k-d} .. Y_k."""
    K, P, Q, _ = block.system
    n, m = block.state.shape
    rows, qcols, c = block.rows, block.qcols, block.cols
    r, d = qcols.stop - qcols.start, len(pq) - 1
    lam_map = np.zeros((n, r))
    lam_map[rows] = -Q[rows, qcols]
    A = np.concatenate([np.concatenate([p * P + q * Q + (K if i == d else 0),
                                        lam_map if i == d else np.zeros((n, r))], axis=1)
                        for i, (p, q) in enumerate(pq[::-1])], axis=1)
    T = np.zeros((order + 1 + d, n + r, m), block.state.dtype)
    T[d, :n] = block.state
    for k in range(order + 1):
        if k:
            T[k + d, :n] = np.dot(A * (1.0 / k), T[k - 1:k + d].reshape(-1, m))
        T[k + d, n:] = block.lams * T[k + d, qcols]
        T[k + d, n:, c:] += T[k + d, qcols, block.jet_cols]
    return T[d:]


def _signed_series(block, pq, signs, order=propagator.TAYLOR_ORDER):
    """_Block.series as it was before the lambda and jet terms joined the
    product, to Taylor order `order`: (k + 1) Y_{k+1} = A Y_{k-d} .. Y_k plus
    the row updates signs * lams * Y_k[qcols] and, in a jet column, signs *
    its source's Y_k[qcols], signs[s] -Q at (target, source) in state s's
    own rows; the state rows of each order."""
    K, P, Q, _ = block.system
    n, m = block.state.shape
    d = len(pq) - 1
    A = np.concatenate([p * P + q * Q + (K if i == d else 0)
                        for i, (p, q) in enumerate(pq[::-1])], axis=1)
    T = np.zeros((order + 1 + d, n, m), block.state.dtype)
    T[d] = block.state
    rows, qcols, c = block.rows, block.qcols, block.cols
    for k in range(order):
        Tk, nxt = T[k + d], T[k + d + 1]
        np.matmul(A, T[k:k + d + 1].reshape(-1, m), out=nxt)
        nxt[rows] += signs * block.lams * Tk[qcols]
        if m > c:
            nxt[rows, c:] += signs[c:] * Tk[qcols, block.jet_cols]
        nxt /= k + 1
    return T[d:]


def _reference_step_bound(block, T, rel, absolute):
    """_Block.step_bound as it was, one weighted norm per coefficient, from
    the last two orders of T."""
    def norm(a):
        return np.max(np.abs(a[:len(block.state)]) * block.weights, axis=0)

    tol = rel * norm(T[0]) + absolute
    with np.errstate(divide="ignore"):
        return min(np.min((tol / norm(T[k])) ** (1.0 / k)) for k in (len(T) - 2, len(T) - 1))


class TestKernelBitwise:
    """The Taylor kernel gives bitwise the numbers of the plain loop."""

    @pytest.mark.parametrize("degree", [0, 3])
    @pytest.mark.parametrize("pairs, jets, states", [
        ([], False, 5), ([], True, 10), ([(0, 1), (2, 4)], False, 7),
        ([(0, 1), (2, 4)], True, 14),
        # a jet run past the values: the jets of both wedges (states 5 and
        # 6), then the jet of the first jet (state 7), the first wedge's
        # second lambda-Taylor coefficient
        ([(0, 1), (2, 4)], slice(5, 8), 10)],
        ids=["columns", "columns_jet", "wedge", "wedge_columns_jet", "wedge_second_jet"])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_series_and_step_bound_match_reference(self, pairs, jets, states, dtype, degree):
        rng = np.random.default_rng(4)

        def draw(*shape):
            x = rng.uniform(-1, 1, shape)
            return x + 1j * rng.uniform(-1, 1, shape) if dtype is complex else x

        wi, wj = np.array(pairs, dtype=int).reshape(-1, 2).T
        block, _ = propagator._block(draw(4, 5), draw(5) * 400, wi, wj, jets)
        assert block.state.shape == (10 if pairs else 4, states)
        # two steps of one degree: the second reuses the first's buffer, and
        # its state is nonzero in every row of every column
        for _ in range(2):
            pq = [tuple(draw(2)) for _ in range(degree + 1)]
            ref = _reference_series(block, pq)
            got = block.series(pq)
            assert got.dtype == ref.dtype and np.array_equal(got, ref)
            assert block.step_bound(got, 1e-10, 1e-12) == _reference_step_bound(
                block, ref, 1e-10, 1e-12)
            block.state = draw(*block.state.shape)

    @pytest.mark.parametrize("degree", [0, 3])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_wedge_only_block_matches_reference(self, dtype, degree):
        # the block of a 6-row init: the wedge rows alone, one state per
        # wedge, without their jet (a scan's) and with it (a polish's)
        rng = np.random.default_rng(5)

        def draw(*shape):
            x = rng.uniform(-1, 1, shape)
            return x + 1j * rng.uniform(-1, 1, shape) if dtype is complex else x

        none = np.array([], dtype=int)
        for jets in (False, True):
            block, rows = propagator._block(draw(6, 2), draw(2) * 400, none, none, jets)
            assert block.state.shape == (6, 4 if jets else 2) and block.cols == 2
            assert block.system is propagator._WEDGE and rows == slice(None)
            for _ in range(2):
                pq = [tuple(draw(2)) for _ in range(degree + 1)]
                ref = _reference_series(block, pq)
                got = block.series(pq)
                assert got.dtype == ref.dtype and np.array_equal(got, ref)
                assert block.step_bound(got, 1e-10, 1e-12) == _reference_step_bound(
                    block, ref, 1e-10, 1e-12)
                block.state = draw(*block.state.shape)


class TestKernelArithmetic:
    """The kernel's sums move each term of the series by a few ulps of its
    magnitude from the loop that added the lambda and jet terms as signed
    row updates and divided by k + 1 (_signed_series)."""

    @pytest.mark.parametrize("degree", [0, 3])
    @pytest.mark.parametrize("rows, pairs, jets", [
        (4, [], False), (4, [], True), (4, [(0, 1), (2, 4)], False),
        (4, [(0, 1), (2, 4)], True), (4, [(0, 1), (2, 4)], slice(5, 8)),
        (6, [], False), (6, [], True)],
        ids=["columns", "columns_jet", "wedge", "wedge_columns_jet", "wedge_second_jet",
             "wedge_only", "wedge_only_jet"])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_series_within_ulps_of_signed_loop(self, rows, pairs, jets, dtype, degree):
        rng = np.random.default_rng(4)

        def draw(*shape):
            x = rng.uniform(-1, 1, shape)
            return x + 1j * rng.uniform(-1, 1, shape) if dtype is complex else x

        cols = 5 if rows == 4 else 2
        wi, wj = np.array(pairs, dtype=int).reshape(-1, 2).T
        block, _ = propagator._block(draw(rows, cols), draw(cols) * 400, wi, wj, jets)
        # -Q at (target, source) in each state's own rows: +1 for a column of
        # C, -1 for a wedge
        columns = cols if rows == 4 else 0
        signs = np.where(block.src < columns, 1.0, -1.0)
        n, eps = len(block.state), np.finfo(float).eps
        for _ in range(2):
            pq = [tuple(draw(2)) for _ in range(degree + 1)]
            old = _signed_series(block, pq, signs)
            got = block.series(pq)[:, :n]
            assert np.all(np.max(np.abs(got - old), axis=(1, 2))
                          <= 10 * eps * np.max(np.abs(old), axis=(1, 2)))
            # a second state, zero where propagation keeps it zero: a column
            # in the wedge rows of the stacked block, a wedge in the column
            # rows (the old loop scaled every row by the state's own sign)
            block.state = draw(*block.state.shape)
            if block.system is propagator._STACKED:
                block.state[np.ix_(propagator._W_ROWS, block.src < columns)] = 0
                block.state[np.ix_(propagator._C_ROWS, block.src >= columns)] = 0


class TestPlanCache:
    """Each thread keeps its last few plans by block shape, and a plan holds
    no number of the block that built it."""

    @staticmethod
    def _problems():
        """(problem, lam, states, want_dlambda) of propagations of 7 shapes:
        C's columns, a lone wedge, a stacked block with jets, at real and
        complex lambda, on a real and a complex problem, and the columns of
        the first on the beam, whose coefficients are of degree 0."""
        real, other = make_random_real_problem(11), make_random_problem(7)
        return [(real, [150.0, 2e4], None, False), (beam_problem(), [150.0, 2e4], None, False),
                (real, [-300.0, 9000.0, 40.0], [(3, 4)], False),
                (real, [2.5], propagator._ALL_COLUMNS + [(3, 4), (2, 4)], True),
                (real, [150.0 + 4j], None, True),
                (other, [150.0, 2e4], None, False),
                (other, [40.0 - 2j, 9000.0], [(3, 4)], True)]

    @staticmethod
    def _run(case):
        pb, lam, states, jets = case
        res = fundamental_C(pb, lam, jets, x_grid=[0.0, 0.5, 1.0], states=states)
        return res.values, res.ends

    @staticmethod
    def _same(a, b):
        (va, ea), (vb, eb) = a, b
        return (va.tobytes() == vb.tobytes() and ea.keys() == eb.keys()
                and all(ea[k].tobytes() == eb[k].tobytes() for k in ea))

    def test_blocks_of_one_shape_share_a_plan(self, monkeypatch):
        # the second block of a shape builds nothing and steps in the first's
        # plan, with its own lambda and state; past _PLAN_CACHE shapes the
        # oldest plan goes
        monkeypatch.setattr(propagator, "_PLANS", threading.local())
        built = []
        plan = propagator._Block._plan

        def recording_plan(self, d, key, plans):
            built.append(key)
            return plan(self, d, key, plans)

        monkeypatch.setattr(propagator._Block, "_plan", recording_plan)
        rng = np.random.default_rng(8)
        pq = [(0.3, -0.2), (0.1, 0.05)]
        first, _ = propagator._block(rng.uniform(-1, 1, (4, 3)), np.full(3, 100.0), [], [], True)
        first.series(pq)
        second, _ = propagator._block(rng.uniform(-1, 1, (4, 3)), rng.uniform(0, 900, 3),
                                      [], [], True)
        got = second.series(pq)
        assert len(built) == 1 and np.array_equal(got, _reference_series(second, pq))
        plans = vars(propagator._PLANS)["plans"]
        assert list(plans) == built
        for m in range(4, 4 + propagator._PLAN_CACHE):
            propagator._block(np.eye(4)[:, :1].repeat(m, 1), np.ones(m), [], [], True)[0].series(pq)
        assert len(plans) == propagator._PLAN_CACHE and built[0] not in plans

    def test_interleaved_shapes_match_fresh_runs(self, monkeypatch):
        # propagations of more shapes than the cache holds, each run twice
        # in turn, give bitwise the values and ends of each run alone
        cases = self._problems()
        assert len(cases) > propagator._PLAN_CACHE
        fresh = []
        for case in cases:
            monkeypatch.setattr(propagator, "_PLANS", threading.local())
            fresh.append(self._run(case))
        monkeypatch.setattr(propagator, "_PLANS", threading.local())
        for i in [0, 1, 2, 0, 3, 4, 5, 6, 1, 2, 3, 4, 5, 6, 0]:
            assert self._same(self._run(cases[i]), fresh[i])

    def test_two_threads_match_sequential_runs(self):
        # two threads propagating at once, each its own cases and then one
        # that both run, match the same propagations run one after another,
        # each in buffers of its own
        cases = self._problems()
        work = [cases[:3] + cases[2:3], cases[3:] + cases[2:3]]
        want = [[self._run(case) for case in cases_] for cases_ in work]
        got, buffers = [[], []], [[], []]
        start = threading.Barrier(2)

        def run(i):
            start.wait()
            got[i].extend(self._run(case) for case in work[i])
            buffers[i].extend(plan[0] for plan in vars(propagator._PLANS)["plans"].values())

        threads = [threading.Thread(target=run, args=(i,)) for i in (0, 1)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert [len(g) for g in got] == [len(w) for w in work]
        assert all(self._same(a, b) for g, w in zip(got, want) for a, b in zip(g, w))
        assert all(buffers) and not any(np.shares_memory(a, b)
                                        for a in buffers[0] for b in buffers[1])


class TestKernelOrders:
    """A step's series stops at the order chosen for it, or goes on in place
    past TAYLOR_ORDER, with the numbers of the plain loop at that order."""

    @pytest.mark.parametrize("degree", [0, 3])
    @pytest.mark.parametrize("pairs, jets", [([], True), ([(0, 1), (2, 4)], slice(5, 8))],
                             ids=["columns_jet", "wedge_second_jet"])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_stopped_and_extended_series_match_reference(self, pairs, jets, dtype, degree):
        rng = np.random.default_rng(6)

        def draw(*shape):
            x = rng.uniform(-1, 1, shape)
            return x + 1j * rng.uniform(-1, 1, shape) if dtype is complex else x

        wi, wj = np.array(pairs, dtype=int).reshape(-1, 2).T
        block, _ = propagator._block(draw(4, 5), draw(5) * 400, wi, wj, jets)
        cap, order = propagator.ORDER_CAP, propagator.TAYLOR_ORDER
        # each order's slab: the state's rows, then one lambda row per -Q source
        n, m = block.state.shape
        n += block.qcols.stop - block.qcols.start
        for _ in range(2):
            pq = [tuple(draw(2)) for _ in range(degree + 1)]
            fill = block._start(pq)
            # stopped at order 12; then, in the same buffer, TAYLOR_ORDER
            # terms continued to ORDER_CAP
            for got, k in ((fill(0, 12), 12), (fill(0, order), order), (fill(order, cap), cap)):
                ref = _reference_series(block, pq, k)
                assert got.shape == ref.shape == (k + 1, n, m)
                assert got.dtype == ref.dtype and np.array_equal(got, ref)
                assert block.step_bound(got, 1e-10, 1e-12) == _reference_step_bound(
                    block, ref, 1e-10, 1e-12)
                assert block.margins[0] == k
            block.state = draw(*block.state.shape)

    def test_order_from_margins(self):
        # margins of an exact geometric decay |Y_k| = r^k give the lowest
        # order whose bound reaches, one of factorial decay (rho^k / k!, the
        # growth of a state at rho) an order whose true bound reaches; none
        # without margins or past ORDER_CAP
        block, _ = propagator._block(np.eye(4), np.full(4, 100.0), [], [], False)
        assert block._order(0.1) is None
        tol = 1e-10

        def bound(margin, k):
            return min(margin(k - 1) ** (1.0 / (k - 1)), margin(k) ** (1.0 / k))

        decays = [lambda k: tol / 0.3 ** k, lambda k: tol / 0.05 ** k,
                  lambda k: tol * math.factorial(k) / 10.0 ** k,
                  lambda k: tol * math.factorial(k) / 3.0 ** k]
        for margin in decays:
            for K in (9, 14, 20, 25):
                block.margins = (K, math.log(margin(K - 1)), math.log(margin(K)))
                for reach in (0.01, 0.05, 0.2, 0.5, 1.0):
                    got = block._order(reach)
                    reaching = [k for k in range(8, propagator.ORDER_CAP + 1)
                                if bound(margin, k) >= reach * (1 + 1e-12)]
                    if margin in decays[:2]:   # geometric: exact
                        assert got == (reaching[0] if reaching else None)
                    elif got is not None:      # factorial: it reaches
                        assert bound(margin, got) >= reach
        for lo, hi in ((-math.inf, 0.0), (0.0, math.inf), (math.nan, 0.0), (math.inf, math.inf)):
            block.margins = (20, lo, hi)
            assert block._order(0.1) is None

    def test_order_past_taylor_order_that_overflows_falls_back(self, monkeypatch):
        # a step whose series overflows past TAYLOR_ORDER takes the
        # TAYLOR_ORDER series of the same buffer, and its step bound
        rng = np.random.default_rng(7)
        block, _ = propagator._block(rng.uniform(-1, 1, (4, 3)) * 1e280, np.full(3, 1e8),
                                     [], [], False)
        pq = [(0.3, -0.2)]
        with np.errstate(over="ignore", invalid="ignore"):
            ref = _reference_series(block, pq, propagator.ORDER_CAP)
        # the state rows (the lambda row of order TAYLOR_ORDER, which no
        # later order reads, overflows here)
        assert np.all(np.isfinite(ref[:propagator.TAYLOR_ORDER + 1, :4]))
        assert not np.all(np.isfinite(ref[:, :4]))
        monkeypatch.setattr(propagator._Block, "_order",
                            lambda self, reach: propagator.ORDER_CAP)
        with np.errstate(over="ignore", invalid="ignore"):
            T, h = block.step(pq, 1.0, 1e-10, 1e-12)
        assert np.array_equal(T, ref[:propagator.TAYLOR_ORDER + 1])
        assert h == propagator.STEP_SAFETY * _reference_step_bound(block, T, 1e-10, 1e-12)


class TestWedgeInit:
    """A 6-row init is a set of 2-wedges, stepped under the compound on
    their own rows, with their jet under want_dlambda."""

    @pytest.mark.parametrize("which", ["real", "complex"])
    def test_jet_matches_stacked_wedge_jet(self, which):
        # against the wedges and wedge jets that fundamental_C stacks with
        # the columns under the jet run of the wedges (states 4 to 6), for
        # rho below 12, on a seeded real problem at real lambda and a seeded
        # complex problem at complex lambda
        if which == "real":
            pb = make_random_real_problem(11)
            lams = np.array([-2e4, -300.0, 2.5, 150.0, 9000.0, 2e4])
        else:
            pb = make_random_problem(7)
            lams = np.array([-2e4 + 50j, -300.0, 2.5 + 1j, 150.0 - 40j, 9000.0, 2e4j])
        assert np.all(np.abs(lams) ** 0.25 < 12)
        pairs = [(3, 4), (2, 4), (3, 2)]
        ref = fundamental_C(pb, lams, slice(4, 7), x_grid=[0.0, 1.0],
                            states=propagator._ALL_COLUMNS + pairs).ends
        init = _wedge_init(np.linalg.inv(boundary_form_matrix(pb)), pairs, copies=len(lams))
        res = propagate(pb, np.tile(lams, len(pairs)), "forward", init, want_dlambda=True,
                        x_grid=[0.0, 1.0])
        assert res.values.shape[1:] == (6, len(pairs) * len(lams))
        assert res.ends.shape == (2, len(pairs) * len(lams), 6)
        for k in (0, 1):   # the values, then the jets
            got = res.ends[k].reshape(len(pairs), len(lams), 6)
            want = np.array([ref[p][k] for p in pairs])
            assert np.all(np.max(np.abs(got - want), axis=-1)
                          <= 1e-12 * np.max(np.abs(want), axis=-1))

    @pytest.mark.parametrize("extra", [{"quad_pairs": [(0, 0)]}, {"wedge_pairs": [(0, 1)]}],
                             ids=["quad_pairs", "wedge_pairs"])
    def test_wedge_init_takes_no_column_pairs(self, extra):
        # quadratures and wedges are of columns: a wedge init has none
        pb = beam_problem()
        init = _wedge_init(np.linalg.inv(boundary_form_matrix(pb)), [(3, 4), (2, 4)])
        with pytest.raises(ValueError, match="6-row init"):
            propagate(pb, 10.0, "forward", init, **extra)


class TestLoneStates:
    """fundamental_C with no column listed steps each listed state alone, one
    per lambda: the search's solve of the state its Delta is an entry of."""

    @staticmethod
    def _batch(which):
        if which == "real":
            return make_random_real_problem(11), np.array([-2e4, -300.0, 2.5, 150.0, 9000.0])
        return make_random_problem(7), np.array([-2e4 + 50j, -300.0, 2.5 + 1j, 150.0 - 40j])

    @pytest.mark.parametrize("jet", [False, True])
    @pytest.mark.parametrize("which", ["real", "complex"])
    def test_one_state_is_the_plain_propagation(self, which, jet):
        # the state written out: U^{-1}'s column, or the 2-wedge of two of
        # its columns, tiled once per lambda and propagated on its own rows
        pb, lams = self._batch(which)
        Uinv = np.linalg.inv(boundary_form_matrix(pb))
        for jk in ALL_INDEX_PAIRS:
            label = _ENTRIES[jk][1]
            i = np.subtract(label, 1)
            init = Uinv[:, i] if len(i) == 1 else propagator._wedges(*Uinv[:, i].T)[:, None]
            ref = propagate(pb, lams, "forward", np.tile(init, lams.size), want_dlambda=jet,
                            x_grid=[0.0, 1.0])
            got = fundamental_C(pb, lams, jet, x_grid=[0.0, 1.0], states=[label])
            assert list(got.ends) == [label]
            assert np.array_equal(got.ends[label], ref.ends, equal_nan=True), jk
            assert got.values.shape == (len(ref.xs), lams.size, {1: 4, 2: 6}[len(label)], 1)

    def test_wedges_alone_are_laid_out_pair_by_pair(self):
        pb, lams = self._batch("complex")
        pairs = [(3, 4), (2, 4), (3, 2)]
        init = _wedge_init(np.linalg.inv(boundary_form_matrix(pb)), pairs, copies=len(lams))
        ref = propagate(pb, np.tile(lams, len(pairs)), "forward", init, want_dlambda=True,
                        x_grid=[0.0, 1.0])
        got = fundamental_C(pb, lams, True, x_grid=[0.0, 1.0], states=pairs)
        for p, jk in enumerate(pairs):
            assert np.array_equal(got.ends[jk], ref.ends[:, p * len(lams):(p + 1) * len(lams)])
            assert np.array_equal(got.values[:, :, :, p], np.moveaxis(
                ref.values[:, :, p * len(lams):(p + 1) * len(lams)], 1, 2))

    @pytest.mark.parametrize("states", [[(3,), (2, 4)], [(1,), (2,), (3,), (3, 4)]])
    def test_wedge_of_an_unlisted_column_raises(self, states):
        with pytest.raises(ValueError, match="not among the listed"):
            fundamental_C(beam_problem(), [3.0, 7.0], states=states)
