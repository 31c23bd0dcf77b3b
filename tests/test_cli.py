import json
import os
import subprocess
import sys

import numpy as np
import pytest

import quartspec
from quartspec import (
    BoundaryParams,
    CoefficientField,
    PoleError,
    ProblemSpec,
    beam_problem,
    find_complex_zeros,
    problem_to_dict,
    save_problem,
    validate_problem,
    weyl_matrix,
)
from quartspec import spectra
from quartspec.cli import build_parser, main

from conftest import beam_eigenvalue, clamped_free_s, make_random_problem


@pytest.fixture()
def complex_json(tmp_path):
    path = tmp_path / "cx.json"
    save_problem(make_random_problem(), path)
    return str(path)


class TestSpectrum:
    def test_beam_first_two(self, beam_json, capsys):
        code = main(["spectrum", "--problem", beam_json, "--selector", "22",
                     "--xmax", "500"])
        assert code == 0
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 2
        assert rows[0]["lambda"][0] == pytest.approx(12.3624, abs=1e-3)
        assert rows[1]["lambda"][0] == pytest.approx(485.52, abs=1e-2)
        assert rows[0]["simple"] is True

    def test_deterministic_output(self, beam_json, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        for out in (out1, out2):
            assert main(["spectrum", "--problem", beam_json, "--xmax", "500",
                         "--output", str(out)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize("selector", ["55", "12", "00", "2", "222", "2x"])
    def test_selector_outside_index_pairs_usage_error(self, beam_json, selector, capsys):
        with pytest.raises(SystemExit) as err:
            main(["spectrum", "--problem", beam_json, "--selector", selector])
        assert err.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["spectrum", "--count", "-1"],
        ["classify", "--count", "-2"],
        ["barcilon", "--count", "-1"],
        ["mclaughlin", "--count", "0"],
        ["reconstruct", "--count", "0"],
        ["weyl", "--lambda-count", "-3"],
        ["weyl", "--lambda-count", "0"],
        ["twin", "--kind", "weyl", "--count", "0"],
    ], ids=lambda argv: f"{argv[0]}{argv[-2]}={argv[-1]}")
    def test_count_below_one_usage_error(self, beam_json, argv, capsys):
        files = ["--a", beam_json, "--b", beam_json] if argv[0] == "twin" else \
            ["--problem", beam_json]
        with pytest.raises(SystemExit) as err:
            main(argv + files)
        assert err.value.code == 2
        assert "at least 1" in capsys.readouterr().err

    def test_missing_file_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as err:
            main(["spectrum", "--problem", str(tmp_path / "nope.json")])
        assert err.value.code == 2

    def test_twin_missing_file_usage_error(self, beam_json, tmp_path, capsys):
        missing = str(tmp_path / "missing.json")
        with pytest.raises(SystemExit) as err:
            main(["twin", "--a", beam_json, "--b", missing])
        assert err.value.code == 2
        assert f"problem file not found: {missing}" in capsys.readouterr().err

    def test_domain_error_structured(self, complex_json, capsys):
        # real-axis scan refuses complex-coefficient problems
        code = main(["spectrum", "--problem", complex_json])
        assert code == 1
        err = capsys.readouterr().err
        payload = json.loads(err.strip().splitlines()[-1])
        assert payload["error"] == "SearchError"

    def test_malformed_json_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["spectrum", "--problem", str(bad)]) == 2

    @pytest.mark.parametrize("key, value", [("ode_abs", "1e-12"), ("ode_rel", "1e-10")])
    def test_tolerance_of_wrong_type_usage_error(self, tmp_path, key, value, capsys):
        obj = problem_to_dict(beam_problem())
        obj["tolerances"][key] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(obj))
        assert main(["spectrum", "--problem", str(path)]) == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("edit", [
        lambda obj: {**obj, "a": "abc"},
        lambda obj: {**obj, "a": [1.0]},
        lambda obj: {**obj, "a": [0.1, 0.0, 9.0]},
        lambda obj: {**obj, "p": {"kind": "piecewise_poly"}},
        lambda obj: {**obj, "q": {"segments": [{"x0": 0.0, "x1": 1.0, "coeffs": [["x", 0]]}]}},
        lambda obj: [obj],
    ], ids=["a_string", "a_one_entry", "a_three_entries", "no_segments", "string_coeff",
            "top_level_list"])
    def test_malformed_problem_usage_error(self, tmp_path, edit, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(edit(problem_to_dict(beam_problem()))))
        assert main(["spectrum", "--problem", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("argv", [
        ["weights", "--lambda0", "1,2,3"],
        ["weights", "--lambda0", "nan"],
        ["weights", "--lambda0", "1,inf"],
        ["weyl", "--lambda-max", "nan"],
        ["spectrum", "--xmax", "inf"],
        ["spectrum", "--xmax", "100", "--xmin", "5000"],
        ["spectrum", "--xmin", "100", "--xmax", "100"],
        ["reconstruct", "--kind", "delta33", "--zero-window", "nan"],
        ["reconstruct", "--kind", "delta33", "--zero-window", "1e-7"],
    ], ids=lambda argv: f"{argv[-2]}={argv[-1]}")
    def test_bad_numeric_value_usage_error(self, beam_json, argv, capsys):
        # one finite-float type for every float option: a non-finite value,
        # a third part of a complex value, a spectrum window whose xmin is
        # not below its xmax, or a Delta_33 zero window (-W, -1e-6) with W
        # not above 1e-6, is refused before any solve
        with pytest.raises(SystemExit) as err:
            main(argv + ["--problem", beam_json])
        assert err.value.code == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("command, option, value, rest", [
        # 0.5 above the beam's pole of m43 at -125.14098: a case-V point
        ("weights", "--lambda0", "-125.141,0.5", []),
        ("weyl", "--lambda-min", "-1e3", ["--lambda-count", "5"]),
        ("spectrum", "--xmin", "-1e4", ["--selector", "33", "--xmax", "0"]),
    ], ids=["weights", "weyl", "spectrum"])
    def test_negative_number_values(self, beam_json, command, option, value, rest, capsys):
        # a negative value with an exponent, or a re,im pair with a negative
        # real part, parses after a space as it does after '='
        outs = []
        for form in ([option, value], [f"{option}={value}"]):
            assert main([command, "--problem", beam_json, *form, *rest]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]

    def test_simple_flag_is_the_search_multiplicity(self, beam_json, capsys, monkeypatch):
        # "simple" reports the multiplicity the search decided, with no test
        # of its own: a zero marked double by the search is reported not simple
        found = []
        orig = spectra.find_real_zeros

        def marking(problem, selector, region, max_count=100):
            zeros = orig(problem, selector, region, max_count=max_count)
            zeros[1].multiplicity_estimate = 2
            found.extend(zeros)
            return zeros

        monkeypatch.setattr(spectra, "find_real_zeros", marking)
        assert main(["spectrum", "--problem", beam_json, "--xmax", "5000"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert [row["simple"] for row in rows] == [z.multiplicity_estimate == 1 for z in found]
        assert [row["simple"] for row in rows] == [True, False, True]


class TestParserReuse:
    """main reuses one parser: a call leaves nothing behind for the next."""

    def test_usage_error_then_valid_call(self, beam_json, capsys):
        assert build_parser() is build_parser()
        with pytest.raises(SystemExit) as err:
            main(["spectrum", "--problem", beam_json, "--count", "0"])
        assert err.value.code == 2
        assert "at least 1" in capsys.readouterr().err
        assert main(["spectrum", "--problem", beam_json, "--xmax", "500"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert [row["lambda"][0] for row in rows] == pytest.approx(
            [beam_eigenvalue(1), beam_eigenvalue(2)], rel=1e-12)
        assert [row["simple"] for row in rows] == [True, True]

    def test_two_subcommands_in_a_row(self, beam_json, capsys):
        assert main(["weyl", "--problem", beam_json, "--lambda-count", "3"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 4 and "," in lines[0]
        # the second subcommand takes none of the first one's options or defaults
        assert main(["mclaughlin", "--problem", beam_json, "--count", "2"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert [row["case"] for row in rows] == ["I", "I"]
        assert [row["lambda"][0] for row in rows] == pytest.approx(
            [beam_eigenvalue(1), beam_eigenvalue(2)], rel=1e-12)


class TestGridCommands:
    def test_weyl_csv(self, beam_json, capsys):
        code = main(["weyl", "--problem", beam_json, "--lambda-count", "3",
                     "--format", "csv"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("lambda")
        assert len(lines) == 4

    def test_weyl_json_complex_pairs(self, beam_json, capsys):
        code = main(["weyl", "--problem", beam_json, "--lambda-count", "2",
                     "--format", "json"])
        assert code == 0
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 2
        # row layout: lambda_re, lambda_im, m21, m31, m32, m41, m42, m43, ...
        m43 = rows[0][7]
        assert isinstance(m43, list) and len(m43) == 2
        from conftest import oracle_m43
        assert m43[0] == pytest.approx(oracle_m43(rows[0][0]).real, rel=1e-8)

    def test_weyl_csv_cells_parse_as_complex(self, complex_json, capsys):
        # entries with a negative imaginary part are written a-bj, not a+-bj
        code = main(["weyl", "--problem", complex_json, "--lambda-count", "3",
                     "--format", "csv"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        cells = [c for line in lines[1:] for c in line.split(",")]
        assert len(cells) == 3 * 17
        values = [complex(c) for c in cells]
        assert any(v.imag < 0 for v in values)


class TestDataCommands:
    def test_mclaughlin(self, beam_json, capsys):
        code = main(["mclaughlin", "--problem", beam_json, "--count", "2"])
        assert code == 0
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 2
        assert abs(rows[0]["gamma"][0]) == pytest.approx(2.0, abs=1e-6)

    @pytest.mark.parametrize("count", [6, 10])
    def test_mclaughlin_six_beam_modes(self, beam_json, capsys, count):
        # every mode the search reaches: no contour limits the McLaughlin
        # data; beta from the polish's wedges is within 1e-14 of -4 at
        # lambda_2, and the bound grows tenfold every second mode (1e-10 at
        # lambda_10); beta_residual checks the wedges against C(1)
        assert main(["mclaughlin", "--problem", beam_json, "--count", str(count)]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert [row["case"] for row in rows] == ["I"] * count
        for n, row in enumerate(rows, 1):
            assert row["lambda"][0] == pytest.approx(beam_eigenvalue(n), rel=1e-12)
            beta = complex(*row["beta"])
            assert abs(beta + 4.0) <= 1e-14 * 10 ** ((n - 2) / 2)
            assert row["beta_residual"] <= 1e-12
            if n <= 6:
                assert beta == pytest.approx(-4.0, rel=1e-9)

    def test_classify(self, beam_json, capsys):
        code = main(["classify", "--problem", beam_json, "--count", "2"])
        assert code == 0
        rows = json.loads(capsys.readouterr().out)
        assert all(r["case"] == "I" for r in rows)

    def test_weights_at_lambda1(self, beam_json, capsys):
        lam1 = beam_eigenvalue(1)
        code = main(["weights", "--problem", beam_json, "--lambda0", str(lam1)])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        n32 = payload["n"][2][1]
        assert n32[0] == pytest.approx(-4.0, abs=1e-5)

    def test_weights_at_lambda5_is_case_one(self, beam_json, capsys):
        # |Delta_22(lambda_5)| is 3e-5 of the reference scale, on its own
        # cancellation floor: an eigenvalue, not a case-V point
        code = main(["weights", "--problem", beam_json, "--lambda0", repr(beam_eigenvalue(5))])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["case"] == "I"
        assert abs(complex(*payload["n"][2][1]) + 4.0) < 1e-6
        assert payload["residuals"]["off_pattern_entries"] < 1e-7

    @pytest.mark.parametrize("n", [7, 10, 20, 30])
    def test_weights_at_far_beam_modes(self, beam_json, capsys, n):
        # past the reach of a contour of M from determinants of C(1), which
        # raised LaurentError from n = 7: N of case I from the jets of the
        # Delta_22 polish, n32 = -gamma_n^2 = -4
        code = main(["weights", "--problem", beam_json, "--lambda0", repr(beam_eigenvalue(n))])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["case"] == "I"
        n_mat = np.array(payload["n"]) @ [1.0, 1j]
        assert abs(n_mat[2, 1] + 4.0) <= 1e-10
        n_mat[2, 1] = 0.0
        assert np.max(np.abs(n_mat)) <= 1e-9

    def test_weights_at_pole_of_m43_is_case_five(self, beam_json, capsys):
        # -4 s_1^4 is a zero of Delta_33, not of Delta_22: the first Newton
        # step on Delta_22 leaves the contour
        lam = -4 * clamped_free_s(1) ** 4
        code = main(["weights", "--problem", beam_json, "--lambda0", repr(lam)])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["case"] == "V"
        assert payload["residuals"]["n21_equals_n43"] < 1e-8

    def test_weights_at_third_pole_of_m43_is_case_five(self, beam_json, capsys):
        # -4 s_3^4 = -22283.85: the contour of M reads Delta_11 = -C_4(1) and
        # Delta_21 = -C_3(1) as entries, where their 3 x 3 determinants lost
        # the digits that node doubling asks for
        lam = -4 * clamped_free_s(3) ** 4
        code = main(["weights", "--problem", beam_json, "--lambda0", repr(lam)])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["case"] == "V"
        assert payload["residuals"]["off_pattern_entries"] <= 1e-12
        assert payload["residuals"]["n21_equals_n43"] < 1e-8

    def test_weights_case_five_contour_clear_of_the_nearby_zero(self, tmp_path, capsys):
        # on the beam with b = 0.1, lambda_1 = 11.2384 lies 2.4e-5 outside
        # the disc of radius 1.12362 around 12.362: Newton's first step
        # leaves it, and the contour at lambda0 is sized by the zero that
        # step points at, not by the disc that nearly touches it.  12.362 is
        # no pole of M here: M_<-1> vanishes on that contour, so no case V
        # is reported; the command exits 1 with the structured error
        path = str(tmp_path / "b01.json")
        save_problem(beam_problem(b=0.1), path)
        assert main(["weights", "--problem", path, "--lambda0", "12.362"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        error = json.loads(err)
        assert error["error"] == "LaurentError"
        assert "no pole of M" in error["message"] and "11.235" in error["message"]

    def test_weights_near_eigenvalue_takes_its_case(self, beam_json, capsys):
        # the README's example: |Delta_22(12.362)| is above the zero floor,
        # but Newton from it reaches lambda_1 well inside the contour, and N
        # is taken at lambda_1, where the structural relations hold
        code = main(["weights", "--problem", beam_json, "--lambda0", "12.362"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["case"] == "I"
        assert abs(complex(*payload["n"][2][1]) + 4.0) < 1e-6
        assert payload["lambda0"] == [12.362, 0.0]
        assert complex(*payload["pole"]) == pytest.approx(beam_eigenvalue(1), rel=1e-10)
        assert payload["residuals"]["off_pattern_entries"] < 1e-9
        assert payload["residuals"]["n31_equals_minus_n42"] < 1e-9

    def test_weights_at_complex_eigenvalue(self, tmp_path, capsys):
        # Delta_22 of a complex problem is not real on the real axis; Newton
        # from lambda0 polishes its zero in complex arithmetic
        pb = make_random_problem(1)
        path = tmp_path / "cx1.json"
        save_problem(pb, path)
        zero = find_complex_zeros(pb, (2, 2), (300.0, 700.0, -5.0, 5.0))
        assert len(zero) == 1 and abs(zero[0].lam.imag) > 0.1
        lam = zero[0].lam
        code = main(["weights", "--problem", str(path), "--lambda0", f"{lam.real!r},{lam.imag!r}"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["case"] == "I"
        assert payload["residuals"]["n32_equals_minus_gamma_sq"] < 1e-9
        assert payload["residuals"]["off_pattern_entries"] < 1e-9

    def test_reconstruct_m32_default_count(self, beam_json, capsys):
        code = main(["reconstruct", "--problem", beam_json, "--kind", "m32"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["terms"] == 10
        assert all(p["error"] <= p["tail"] for p in payload["points"])

    def test_reconstruct_delta33_reads_no_delta22(self, beam_json, capsys, monkeypatch):
        from quartspec import mclaughlin, spectra

        def unused(*args, **kwargs):
            raise AssertionError("Delta_33 reconstruction needs no Delta_22 data")

        monkeypatch.setattr(spectra, "find_first_zeros", unused)
        monkeypatch.setattr(mclaughlin, "weight_numbers", unused)
        code = main(["reconstruct", "--problem", beam_json, "--kind", "delta33"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        # zeros -4 s_k^4 of Delta_33 in (-1e5, 0): s_1..s_4 (s_5 ~ 4.75 pi)
        assert payload["terms"] == 4
        assert all(p["error"] <= p["bound"] for p in payload["points"])

    def test_reconstruct_m32_unbounded_tail_is_strict_json_null(self, beam_json, capsys):
        def refuse(constant):
            raise ValueError(f"{constant} is not JSON")

        code = main(["reconstruct", "--problem", beam_json, "--kind", "m32", "--count", "1"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out, parse_constant=refuse)
        # at lambda = -10 and -7.75, lambda_1 is not beyond 2 |lambda|: no bound
        tails = [p["tail"] for p in payload["points"]]
        assert tails[:2] == [None, None]
        assert all(p["error"] <= p["tail"] for p in payload["points"][2:])

    def test_reconstruct_delta33_without_zeros_is_domain_error(self, beam_json, capsys):
        # no zero of Delta_33 in (-10, 0): an empty product bounds nothing
        code = main(["reconstruct", "--problem", beam_json, "--kind", "delta33",
                     "--count", "1", "--zero-window", "10"])
        assert code == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert json.loads(err) == {"error": "BridgeError", "message": "insufficient data"}

    def test_reconstruct_delta33_keeps_zeros_nearest_zero(self, beam_json, capsys, monkeypatch):
        from quartspec import bridge

        used = []
        orig = bridge.reconstruct_delta_hadamard

        def recording(zeros, anchor_value, lam):
            used.append(list(zeros))
            return orig(zeros, anchor_value, lam)

        monkeypatch.setattr(bridge, "reconstruct_delta_hadamard", recording)
        code = main(["reconstruct", "--problem", beam_json, "--kind", "delta33", "--count", "2"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["terms"] == 2
        # the two zeros -4 s_k^4 nearest 0, not the two farthest in the window
        expect = [-4 * clamped_free_s(1) ** 4, -4 * clamped_free_s(2) ** 4]
        assert expect[0] == pytest.approx(-125.1, abs=0.05)
        assert expect[1] == pytest.approx(-3654, abs=0.5)
        for zeros in used:
            assert np.real(zeros) == pytest.approx(expect, rel=1e-8)
        assert all(p["error"] <= p["bound"] for p in payload["points"])

    def test_barcilon(self, beam_json, capsys):
        code = main(["barcilon", "--problem", beam_json, "--count", "2"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["s12"]) == 2

    def test_twin_identical(self, beam_json, capsys):
        code = main(["twin", "--a", beam_json, "--b", beam_json,
                     "--kind", "weyl", "--count", "3"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["max_distance"] < 1e-8

    def test_twin_barcilon(self, beam_json, tmp_path, capsys):
        other = tmp_path / "other.json"
        save_problem(beam_problem(b=0.1), other)
        runs = {}
        for b in (beam_json, str(other)):
            code = main(["twin", "--a", beam_json, "--b", b, "--kind", "barcilon",
                         "--count", "2"])
            assert code == 0
            runs[b] = json.loads(capsys.readouterr().out)
        same = runs[beam_json]
        assert len(same["distances"]) == 6   # two zeros of each of three spectra
        assert same["max_distance"] == 0.0
        assert same["p_matrix_deviation"] < 1e-10
        assert runs[str(other)]["max_distance"] > 0.0


class TestVerify:
    def test_beam_identity_suite(self, beam_json, capsys):
        code = main(["verify", "--problem", beam_json])
        out = capsys.readouterr().out
        assert code == 0
        # one printed line per identity, threshold alongside residual
        lines = [l for l in out.splitlines() if l.startswith(("pass", "FAIL"))]
        assert len(lines) >= 5
        assert all("threshold" in l for l in lines)
        payload = json.loads(out[out.index("{"):])
        assert payload["all_pass"] is True
        # the forward entries Delta_31, Delta_41 are checked against S_4, and
        # all of C(1) against the C(1) the bracket identity predicts from S(0)
        names = [c["check"] for c in payload["checks"]]
        assert {"delta31_delta41_eq_minus_S4_at_0", "delta_shortcut_identities"} <= set(names)

    def test_pole_on_grid_skipped(self, tmp_path, capsys):
        # with constant q, Delta_22(lambda) is the beam's Delta_22(lambda - q):
        # q moves the beam's lambda_1 onto the fourth point of the Weyl grid
        grid = np.linspace(0.7, 47.3, 12)
        pb = validate_problem(ProblemSpec(
            p=CoefficientField.zero(), q=CoefficientField.constant(grid[3] - beam_eigenvalue(1)),
            boundary=BoundaryParams(0.0, 0.0, 0.0)))
        with pytest.raises(PoleError) as err:
            weyl_matrix(pb, grid)
        assert (err.value.k, err.value.lam) == (2, grid[3])
        weyl_matrix(pb, np.delete(grid, 3))   # the only pole on the grid
        path = tmp_path / "shifted.json"
        save_problem(pb, path)
        code = main(["verify", "--problem", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert json.loads(out[out.index("{"):])["all_pass"] is True


def test_cli_imports_no_numpy_ma(tmp_path):
    # numpy's unique and union1d import numpy.ma (about 20 ms) at their first
    # call: a fresh interpreter runs a search, a classification, a contour
    # (at the beam's pole of m43, case V) and a grid without it
    path = tmp_path / "beam.json"
    save_problem(beam_problem(), path)
    code = ("import contextlib, io, sys\n"
            "from quartspec.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    for argv in ({['spectrum', '--count', '2']!r}, {['classify', '--count', '2']!r},\n"
            f"                 {['weights', '--lambda0', '-125.141']!r},\n"
            f"                 {['weyl']!r}):\n"
            f"        assert main(argv + ['--problem', {str(path)!r}]) == 0, argv\n"
            "print('numpy.ma' in sys.modules)\n")
    src = os.path.dirname(os.path.dirname(quartspec.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout.strip() == "False"
