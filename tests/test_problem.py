import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest
from scipy.interpolate import CubicSpline

import quartspec
from quartspec import (
    BoundaryParams,
    CoefficientField,
    ProblemError,
    ProblemSpec,
    Tolerances,
    beam_problem,
    boundary_form_matrix,
    lagrange_bracket,
    load_problem,
    problem_from_dict,
    problem_to_dict,
    save_problem,
    validate_problem,
)


class TestCoefficientField:
    def test_constant_evaluation(self):
        f = CoefficientField.constant(2.5)
        assert f(0.0) == 2.5
        assert f(0.7) == 2.5
        assert f.is_real and not f.is_zero

    def test_piecewise_local_coordinates(self):
        # coefficients act in the local variable x - x0, ascending powers
        f = CoefficientField([(0.0, 0.5, [1.0, 2.0]), (0.5, 1.0, [3.0])])
        assert f(0.25) == pytest.approx(1.0 + 2.0 * 0.25)
        assert f(0.75) == pytest.approx(3.0)
        # breakpoint belongs to the right segment
        assert f(0.5) == pytest.approx(3.0)
        # a mesh segment resolves to the piece containing it, both ends included
        assert f.piece(0.25, 0.5) == (0.0, (1.0, 2.0))
        assert f.piece(0.5, 1.0) == (0.5, (3.0,))

    def test_segments_must_cover_unit_interval(self):
        with pytest.raises(ProblemError):
            CoefficientField([(0.0, 0.9, [1.0])])
        with pytest.raises(ProblemError):
            CoefficientField([(0.1, 1.0, [1.0])])
        with pytest.raises(ProblemError):
            CoefficientField([(0.0, 0.6, [1.0]), (0.5, 1.0, [2.0])])

    @pytest.mark.parametrize("segments, message", [
        ([(0.0, 0.4, [1.0]), (0.5, 1.0, [1.0])], r"gap between segments on \(0\.4, 0\.5\)"),
        ([(0.0, 0.6, [1.0]), (0.5, 1.0, [2.0])], r"overlapping segments on \(0\.5, 0\.6\)"),
        ([(0.0, 0.5, [1.0]), (0.5, 0.5, [2.0]), (0.5, 1.0, [3.0])],
         r"empty segment \[0\.5, 0\.5\]"),
        ([(0.0, 0.5, [1.0]), (0.3, 0.2, [2.0]), (0.5, 1.0, [3.0])],
         r"empty segment \[0\.3, 0\.2\]"),
    ], ids=["gap", "overlap", "empty", "reversed"])
    def test_segment_faults_have_their_own_messages(self, segments, message):
        with pytest.raises(ProblemError, match=message):
            CoefficientField(segments)

    def test_from_samples_linear(self):
        f = CoefficientField.from_samples([0.0, 1.0, 0.0], interp=1)
        assert f(0.25) == pytest.approx(0.5)
        assert f(0.5) == pytest.approx(1.0)
        assert f(0.75) == pytest.approx(0.5)

    def test_from_samples_cubic_interpolates(self):
        xs = np.linspace(0, 1, 9)
        vals = np.sin(2 * np.pi * xs)
        f = CoefficientField.from_samples(vals, interp=3)
        for x, v in zip(xs, vals):
            assert abs(f(x) - v) < 1e-12

    def test_from_samples_few_points_falls_back(self):
        # fewer than 4 samples cannot support a cubic spline
        f = CoefficientField.from_samples([0.0, 1.0], interp=3)
        assert f(0.5) == pytest.approx(0.5)

    def test_from_samples_piecewise_constant(self):
        f = CoefficientField.from_samples([1.0, 2.0], interp=0)
        assert f(0.2) == 1.0
        assert f(0.8) == 2.0

    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_cubic_matches_scipy_not_a_knot(self, kind):
        # scipy's CubicSpline (not-a-knot by default) as an independent
        # oracle: each power's coefficients agree to 1e-13 of that power's
        # largest, on every segment
        rng = np.random.default_rng(22)
        for n in range(4, 41):
            v = rng.uniform(-5, 5, n)
            if kind == "complex":
                v = v + 1j * rng.uniform(-5, 5, n)
            got = np.array([c for _, _, c in CoefficientField.from_samples(v, interp=3).segments])
            ref = CubicSpline(np.linspace(0.0, 1.0, n), v).c[::-1].T
            assert got.shape == ref.shape == (n - 1, 4)
            assert np.all(np.abs(got - ref) <= 1e-13 * np.max(np.abs(ref), axis=0)), n

    def test_cubic_of_many_samples_loads_fast(self):
        v = np.random.default_rng(1).uniform(-1, 1, 10_000)
        t0 = time.perf_counter()
        f = CoefficientField.from_samples(v, interp=3)
        assert time.perf_counter() - t0 < 1.0
        assert len(f.segments) == 9_999
        assert f(5_000 / 9_999) == pytest.approx(v[5_000], abs=1e-12)

    def test_complex_round_trip(self):
        f = CoefficientField([(0.0, 1.0, [1 + 2j, -0.5j])])
        g = CoefficientField.from_dict(f.to_dict())
        for x in (0.0, 0.3, 0.9):
            assert g(x) == pytest.approx(f(x))
        assert not g.is_real

    def test_is_real_is_exact(self):
        assert not CoefficientField.constant(5e-9j).is_real
        assert not CoefficientField([(0.0, 1.0, [1.0, 1e-300j])]).is_real


class TestProblemSpec:
    def test_beam_is_real_and_validated(self):
        pb = beam_problem()
        # validate_problem returns the spec it checked
        assert validate_problem(pb) is pb and pb.is_real
        assert pb.p.is_zero and pb.q.is_zero

    def test_complex_boundary_not_real(self):
        pb = beam_problem(a=1j)
        assert not pb.is_real

    def test_validation_rejects_bad_tolerances(self):
        with pytest.raises(ProblemError):
            beam_problem(tolerances=Tolerances(ode_rel=-1.0))

    def test_breakpoints_merge_p_and_q(self):
        p = CoefficientField([(0.0, 0.3, [0.0]), (0.3, 1.0, [1.0])])
        q = CoefficientField([(0.0, 0.6, [0.0]), (0.6, 1.0, [1.0])])
        pb = validate_problem(ProblemSpec(p=p, q=q))
        assert np.allclose(pb.breakpoints, [0.0, 0.3, 0.6, 1.0])


class TestBoundaryForms:
    def test_left_matrix_layout(self):
        pb = beam_problem(a=2.0, b=3.0, c=5.0)
        U = boundary_form_matrix(pb)
        expect = np.array([
            [-3.0, 2.0, 1.0, 0.0],
            [5.0, 3.0, 0.0, 1.0],
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 1.0, 0.0, 0.0],
        ])
        assert np.allclose(U, expect)
        # unimodular for every (a, b, c)
        assert np.linalg.det(U) == pytest.approx(1.0)

    def test_bracket_antisymmetric_bilinear(self):
        rng = np.random.default_rng(3)
        y = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        z = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        assert lagrange_bracket(y, z) == pytest.approx(-lagrange_bracket(z, y))
        assert lagrange_bracket(2.0 * y, z) == pytest.approx(2.0 * lagrange_bracket(y, z))
        assert lagrange_bracket(y, y) == pytest.approx(0.0)

    def test_bracket_accepts_quasistate(self):
        # quasi-state vectors (y, y', y'', y^[3]) as plain 4-sequences
        y = [1.0, 2.0, 3.0, 4.0]
        z = np.array([0.0, 1.0, 0.0, 0.0])
        # <y, z> = y3*z0 - y2*z1 + y1*z2 - y0*z3 = -3
        assert lagrange_bracket(y, z) == pytest.approx(-3.0)


class TestJsonInterface:
    def test_round_trip(self, tmp_path):
        pb = beam_problem(a=0.3, b=-0.2, c=0.1)
        path = tmp_path / "pb.json"
        save_problem(pb, path)
        back = load_problem(path)
        assert back.boundary == pb.boundary
        assert back.tolerances == pb.tolerances
        assert back.p.is_zero and back.q.is_zero

    def test_complex_entries_as_pairs(self):
        pb = beam_problem(a=1 + 2j)
        d = problem_to_dict(pb)
        assert d["a"] == [1.0, 2.0]
        back = problem_from_dict(d)
        assert back.boundary.a == 1 + 2j

    def test_samples_kind_supported(self):
        obj = problem_to_dict(beam_problem())
        obj["q"] = {"kind": "samples",
                    "values": [[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]],
                    "interp": 1}
        pb = problem_from_dict(obj)
        assert pb.q(0.5) == pytest.approx(1.0)

    def test_unknown_kind_rejected(self):
        obj = problem_to_dict(beam_problem())
        obj["q"] = {"kind": "fourier", "values": []}
        with pytest.raises(ProblemError):
            problem_from_dict(obj)

    def test_retired_keys_ignored_and_not_written(self):
        obj = problem_to_dict(beam_problem())
        assert "self_adjoint_hint" not in obj
        assert "root_tol" not in obj["tolerances"]
        assert "contour_nodes" not in obj["tolerances"]
        obj["self_adjoint_hint"] = True
        obj["tolerances"]["root_tol"] = 1e-10
        obj["tolerances"]["contour_nodes"] = 48
        assert problem_from_dict(obj).tolerances == beam_problem().tolerances

    def test_missing_tolerances_take_the_defaults(self):
        obj = problem_to_dict(beam_problem())
        del obj["tolerances"]
        assert problem_from_dict(obj).tolerances == Tolerances()
        obj["tolerances"] = {"ode_rel": 1e-9}
        assert problem_from_dict(obj).tolerances == Tolerances(ode_rel=1e-9)

    def test_load_reports_schema_violation(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"p": {"kind": "piecewise_poly"}}))
        with pytest.raises((ProblemError, KeyError)):
            load_problem(path)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_load_rejects_non_finite_segment(self, tmp_path, bad):
        # the bad segment lies between the points of a uniform sampling of
        # [0, 1]; loading must fail, not stall a later solve
        obj = problem_to_dict(beam_problem())
        obj["q"] = {"kind": "piecewise_poly", "segments": [
            {"x0": 0.0, "x1": 0.02, "coeffs": [[1.0, 0.0]]},
            {"x0": 0.02, "x1": 0.05, "coeffs": [[1.0, 0.0], [bad, 0.0]]},
            {"x0": 0.05, "x1": 1.0, "coeffs": [[1.0, 0.0]]},
        ]}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(obj))
        with pytest.raises(ProblemError, match="not finite on"):
            load_problem(path)


def test_package_imports_no_scipy(tmp_path):
    # a fresh interpreter imports the package and its CLI and loads a
    # "samples" problem (a cubic spline) without pulling in scipy
    path = tmp_path / "samples.json"
    path.write_text(json.dumps({"p": {"kind": "samples", "values": [[v, 0.0] for v in range(6)]},
                                "q": {"kind": "samples", "values": [[0.0, v] for v in range(5)]}}))
    code = ("import sys, quartspec, quartspec.cli\n"
            f"quartspec.load_problem({str(path)!r})\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    src = os.path.dirname(os.path.dirname(quartspec.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout.strip() == "[]"
