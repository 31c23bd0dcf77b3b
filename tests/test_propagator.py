import numpy as np
import pytest

from quartspec import beam_problem, fundamental_C, fundamental_S, propagate
from quartspec.propagator import propagate_pair
from quartspec.problem import BoundaryParams, boundary_form_matrix, lagrange_bracket

from conftest import make_random_problem, oracle_C3, oracle_C4


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

    def test_dlambda_jet_matches_finite_difference(self):
        pb = beam_problem()
        lam, h = 3.0, 1e-6
        res = fundamental_C(pb, lam, want_dlambda=True)
        plus = fundamental_C(pb, lam + h)
        minus = fundamental_C(pb, lam - h)
        fd = (plus.end - minus.end) / (2 * h)
        assert np.max(np.abs(res.dlambda[-1] - fd)) < 1e-5


class TestInitialData:
    def test_C_family_satisfies_left_forms(self):
        pb = make_random_problem()
        res = fundamental_C(pb, 2.5)
        U = boundary_form_matrix(pb, "left")
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
            res = fundamental_C(pb, lam, x_grid=np.linspace(0, 1, 11))
            assert res.det_drift < 1e-8

    def test_lagrange_identity_random_pair(self):
        pb = make_random_problem()
        rng = np.random.default_rng(0)
        lam, mu = 1.7 + 0.3j, -2.2 + 1.1j
        y0 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        z0 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        yt, zt, integ = propagate_pair(pb, lam, mu, y0, z0)
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
        from scipy.integrate import solve_ivp
        from quartspec import CoefficientField, ProblemSpec, validate_problem
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
        from quartspec import CoefficientField, ProblemSpec, validate_problem
        q = CoefficientField([(0.0, 0.3, [0.0]), (0.3, 1.0, [12.0])])
        pb = validate_problem(ProblemSpec(p=CoefficientField.zero(), q=q))
        res = fundamental_C(pb, 1.0, x_grid=[0.0, 1.0])
        assert np.any(np.isclose(res.xs, 0.3))

    def test_piecewise_cubic_matches_pointwise_integration(self):
        # reference: one solve_ivp over [0, 1] that looks p and q up in the
        # segment list at every x, against the propagator's per-segment
        # pieces and the step it carries across each breakpoint; on 5 and on
        # 9 segments of complex p and q
        from scipy.integrate import solve_ivp
        from quartspec import CoefficientField, ProblemSpec, validate_problem
        rng = np.random.default_rng(9)
        nine = validate_problem(ProblemSpec(
            p=CoefficientField.from_samples(rng.uniform(-2, 2, 10) + 1j * rng.uniform(-2, 2, 10)),
            q=CoefficientField.from_samples(rng.uniform(-9, 9, 10) + 1j * rng.uniform(-9, 9, 10)),
            boundary=BoundaryParams(0.5 - 0.2j, 0.1j, -0.4)))
        assert len(nine.breakpoints) == 10
        lam = 3.7 + 0.4j

        def coef(field, x):
            x0, _, c = next(s for s in field.segments if s[0] <= x <= s[1])
            return np.polyval(c[::-1], x - x0)

        for pb in (make_random_problem(), nine):
            def rhs(x, u):
                A = np.array([[0, 1, 0, 0], [0, 0, 1, 0], [0, coef(pb.p, x), 0, 1],
                              [lam - coef(pb.q, x), 0, 0, 0]])
                return (A @ u.reshape(4, 4)).ravel()

            Y0 = np.linalg.inv(boundary_form_matrix(pb, "left"))
            ref = solve_ivp(rhs, (0.0, 1.0), Y0.ravel(), method="DOP853",
                            rtol=1e-12, atol=1e-14).y[:, -1].reshape(4, 4)
            got = fundamental_C(pb, lam, x_grid=[0.0, 1.0]).end
            assert np.max(np.abs(got - ref)) < 1e-8 * np.max(np.abs(ref))

    def test_one_initial_step_probe_per_propagation(self, monkeypatch):
        # the first segment probes for its initial step; each later one
        # starts with the step the controller last proposed
        import scipy.integrate._ivp.rk as rk
        pb = make_random_problem()
        assert len(pb.breakpoints) == 6
        probes = []
        orig = rk.select_initial_step

        def probe(*args, **kwargs):
            probes.append(args[1])
            return orig(*args, **kwargs)

        monkeypatch.setattr(rk, "select_initial_step", probe)
        for direction, jet, quad in (("forward", False, None), ("forward", True, None),
                                     ("backward", False, [(0, 1)])):
            probes.clear()
            propagate(pb, [2.0, 30.0 + 1j, -7.0, 400.0], direction, want_dlambda=jet,
                      quad_pairs=quad)
            assert probes == [0.0 if direction == "forward" else 1.0]


def test_spent_solvers_freed_without_cyclic_gc(monkeypatch):
    # a batch's stage arrays must not wait for the cycle collector: every
    # segment's solver is gone once propagate returns, with gc switched off
    import gc
    import weakref
    from quartspec import propagator

    refs = []
    orig = propagator._DOP853.__init__

    def init(self, *args, **kwargs):
        orig(self, *args, **kwargs)
        refs.append(weakref.ref(self))

    monkeypatch.setattr(propagator._DOP853, "__init__", init)
    gc.disable()
    try:
        propagate(make_random_problem(), np.arange(4.0), want_dlambda=True)
    finally:
        gc.enable()
    assert len(refs) > 1
    assert all(ref() is None for ref in refs)
