"""Command-line front end.

Subcommands: spectrum, weyl, mclaughlin, weights, classify, barcilon,
reconstruct, twin, verify.  Results are strict JSON (or CSV for grid
outputs); complex numbers are [re, im] pairs, a non-finite float is null.
Exit codes: 0 success, 1 domain error (structured JSON on stderr), 2 usage
error.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from functools import cache

import numpy as np

from . import bridge, mclaughlin, spectra, weights, weyl
from .problem import ProblemError, lagrange_bracket, load_problem
from .propagator import fundamental_C, fundamental_S, propagate


def _jsonify(obj):
    """Complex -> [re, im]; arrays -> nested lists; a non-finite float (or
    part) -> null, which a bound reads as "no bound"; passthrough otherwise."""
    if isinstance(obj, (complex, np.complexfloating)):
        return [_jsonify(float(obj.real)), _jsonify(float(obj.imag))]
    if isinstance(obj, (np.floating, np.integer)):
        obj = obj.item()
    if isinstance(obj, float) and not np.isfinite(obj):
        return None
    if isinstance(obj, np.ndarray):
        # a finite float or complex array in one pass; others entry by entry
        if obj.dtype.kind not in "fc" or not np.isfinite(obj).all():
            return _jsonify(obj.tolist())
        return (np.stack((obj.real, obj.imag), -1) if obj.dtype.kind == "c" else obj).tolist()
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    return obj


def _emit(args, payload):
    _write(args, json.dumps(_jsonify(payload), indent=2, allow_nan=False))


def _write(args, text):
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _csv_cell(v):
    """a, a+bj or a-bj: forms that complex() parses."""
    sign = "-" if v.imag < 0 else "+"
    return repr(v.real) if v.imag == 0 else f"{v.real!r}{sign}{abs(v.imag)!r}j"


def _load(path):
    if not os.path.exists(path):
        print(f"error: problem file not found: {path}", file=sys.stderr)
        raise SystemExit(2)
    return load_problem(path)


def _selector(text):
    pair = tuple(int(c) for c in text) if text.isdigit() else None
    if pair not in weyl.ALL_INDEX_PAIRS:
        raise argparse.ArgumentTypeError("selector must be one of " + ", ".join(
            f"{j}{k}" for j, k in weyl.ALL_INDEX_PAIRS))
    return pair


def _count(text):
    if int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {text}")
    return int(text)


def _float(text):
    if not np.isfinite(value := float(text)):
        raise argparse.ArgumentTypeError(f"must be finite, got {text}")
    return value


def _complex_arg(text):
    parts = text.split(",")
    if len(parts) > 2:
        raise argparse.ArgumentTypeError(f"must be re or re,im, got {text}")
    return complex(*map(_float, parts))


# ---------------------------------------------------------------------------
# subcommands

def cmd_spectrum(args):
    if not args.xmin < args.xmax:
        print(f"error: --xmin {args.xmin!r} is not below --xmax {args.xmax!r}", file=sys.stderr)
        raise SystemExit(2)
    problem = _load(args.problem)
    zeros = spectra.find_real_zeros(problem, args.selector, (args.xmin, args.xmax),
                                    max_count=args.count)
    _emit(args, [
        {"lambda": z.lam, "ddelta": z.ddelta, "simple": z.multiplicity_estimate == 1}
        for z in zeros
    ])
    return 0


def cmd_weyl(args):
    problem = _load(args.problem)
    lams = np.linspace(args.lambda_min, args.lambda_max, args.lambda_count)
    sample = weyl.weyl_matrix(problem, lams)
    cols = [sample.m[:, j, k] for j, k in zip(*np.tril_indices(4, -1))]
    cols += [sample.deltas[jk].value for jk in weyl.ALL_INDEX_PAIRS]
    rows = [[lam, 0.0, *row] for lam, row in zip(lams.tolist(), zip(*(c.tolist() for c in cols)))]

    if args.format == "csv":
        header = ["lambda_re", "lambda_im",
                  "m21", "m31", "m32", "m41", "m42", "m43"]
        header += [f"delta{j}{k}" for j, k in weyl.ALL_INDEX_PAIRS]
        lines = [",".join(header)]
        for row in rows:
            lines.append(",".join(map(_csv_cell, row)))
        _write(args, "\n".join(lines))
    else:
        _emit(args, rows)
    return 0


def cmd_mclaughlin(args):
    problem = _load(args.problem)
    zeros = spectra.find_first_zeros(problem, (2, 2), args.count)
    points = mclaughlin.weight_numbers(problem, zeros)
    _emit(args, [
        {"lambda": pt.lam, "gamma": pt.gamma, "xi": pt.xi, "beta": pt.beta,
         "beta_residual": pt.beta_residual, "case": pt.case_tag, "norm_ok": pt.norm_ok}
        for pt in points
    ])
    return 0


def cmd_weights(args):
    """N and the case at the zero of Delta_22 that Newton from lambda0 reaches
    inside the contour disc around lambda0; if none, at lambda0 in case V
    (weights.weight_matrix_near)."""
    problem = _load(args.problem)
    point, w = weights.weight_matrix_near(problem, args.lambda0)
    report = weights.verify_weight_structure(w, point)
    _emit(args, {"lambda0": args.lambda0, "pole": w.lam0, "m_minus1": w.m_minus1,
                 "m_zero": w.m_zero, "n": w.n, "case": point.case_tag,
                 "residuals": report["checks"]})
    return 0


def cmd_classify(args):
    problem = _load(args.problem)
    zeros = spectra.find_first_zeros(problem, (2, 2), args.count)
    points = mclaughlin.weight_numbers(problem, zeros)
    _emit(args, [
        {"lambda": pt.lam, "gamma": pt.gamma, "xi": pt.xi, "case": pt.case_tag}
        for pt in points
    ])
    return 0


def cmd_barcilon(args):
    problem = _load(args.problem)
    b = spectra.three_spectra(problem, args.count)
    _emit(args, {"s12": b.s12, "s13": b.s13, "s23": b.s23})
    return 0


def cmd_reconstruct(args):
    # the Delta_33 zeros are searched in (-zero_window, -1e-6)
    if args.kind == "delta33" and not args.zero_window > 1e-6:
        print(f"error: --zero-window {args.zero_window!r} is not above 1e-06", file=sys.stderr)
        raise SystemExit(2)
    problem = _load(args.problem)
    points = []
    if args.kind == "m32":
        zeros = spectra.find_first_zeros(problem, (2, 2), args.count)
        data = [(pt.lam, pt.beta) for pt in
                mclaughlin.weight_numbers(problem, zeros)
                if pt.beta is not None]
        lams = np.linspace(-10.0, -1.0, 5)
        for lam, direct in zip(lams, weyl.weyl_matrix(problem, lams).m[:, 2, 1]):
            value, tail = bridge.reconstruct_m32(data, lam)
            points.append({"lambda": complex(lam), "value": value,
                           "direct": direct, "tail": tail,
                           "error": abs(value - direct)})
    else:  # delta33
        # the count zeros nearest 0, nearest first as the tail bound expects
        data = [z.lam for z in spectra.find_real_zeros(
            problem, (3, 3), (-args.zero_window, -1e-6), max_count=args.count)[::-1]]
        lams = np.linspace(-20.0, 20.0, 5)
        anchor, *directs = weyl.characteristic_delta(problem, np.append(0.0, lams), (3, 3)).value
        for lam, direct in zip(lams, directs):
            value, bound = bridge.reconstruct_delta_hadamard(data, anchor, lam)
            points.append({"lambda": complex(lam), "value": value,
                           "direct": direct, "bound": bound,
                           "error": abs(value - direct)})
    _emit(args, {"kind": args.kind, "terms": len(data), "points": points})
    return 0


def cmd_twin(args):
    pa, pb = _load(args.a), _load(args.b)
    report = bridge.twin_comparison(pa, pb, data_kind=args.kind, count=args.count)
    _emit(args, report)
    return 0


def cmd_verify(args):
    problem = _load(args.problem)
    rng = np.random.default_rng(args.seed)
    checks = []

    def record(name, residuals, threshold):
        residual = float(np.max(np.abs(residuals), initial=0.0))
        ok = residual < threshold
        checks.append({"check": name, "residual": residual,
                       "threshold": threshold, "pass": bool(ok)})
        status = "pass" if ok else "FAIL"
        print(f"{status}  {name}: residual {residual:.3e} (threshold {threshold:.1e})")

    grid = np.linspace(0.7, 47.3, 12)
    while True:   # the poles of M are skipped, one PoleError at a time
        try:
            sample = weyl.weyl_matrix(problem, grid)
            break
        except weyl.PoleError as exc:
            grid = grid[grid != exc.lam]
    m = sample.m
    m21, m31, m32, m42 = m[:, 1, 0], m[:, 2, 0], m[:, 2, 1], m[:, 3, 1]
    record("weyl_relation_m31_m21m32_m42", m31 - m21 * m32 + m42, 1e-8)
    # the C(1) whose entries M reads as its Delta_j1 and Delta_j3, against
    # the one the bracket identity S(0) = J^-1 U^T C(1)^T J predicts from the
    # backward solve (J the bracket's matrix, J^-1 = J^T, U^-1 = C(0))
    C = fundamental_C(problem, grid, x_grid=[0.0, 1.0])
    S = fundamental_S(problem, grid, x_grid=[0.0, 1.0]).start
    J = np.array([[lagrange_bracket(e, f) for f in np.eye(4)] for e in np.eye(4)])
    predicted = J.T @ np.swapaxes(S, -1, -2) @ J @ C.start
    record("delta_shortcut_identities", (predicted - C.end) / (1 + abs(C.end)), 1e-8)
    d = sample.deltas
    record("delta31_delta41_eq_minus_S4_at_0",
           [(d[jk].value + S[:, row, 3]) / (1 + abs(S[:, row, 3]))
            for row, jk in enumerate(((3, 1), (4, 1)))], 1e-8)

    # trace(F + Lambda) = 0, so det C(x) keeps its value at x = 0
    dets = np.linalg.det(fundamental_C(problem, rng.uniform(-50, 500, 6)).values)
    record("determinant_conservation", dets - dets[0], 1e-8)

    # six (lambda, mu) pairs with data y0 at lambda and z0 at mu, as columns
    # 2k and 2k + 1 of one propagation
    lams, cols = [], []
    for _ in range(6):
        lams += [complex(*rng.uniform(-5, 5, 2)), complex(*rng.uniform(-5, 5, 2))]
        for _ in range(2):   # y0, then z0
            cols.append(rng.standard_normal(4) + 1j * rng.standard_normal(4))
    pairs = [(i, i + 1) for i in range(0, 12, 2)]
    res = propagate(problem, lams, "forward", np.column_stack(cols), quad_pairs=pairs,
                    x_grid=[0.0, 1.0])
    Y0, Y1 = res.start, res.end
    record("lagrange_identity",
           [lagrange_bracket(Y1[:, i], Y1[:, j]) - lagrange_bracket(Y0[:, i], Y0[:, j])
            - (lams[i] - lams[j]) * res.quadratures[(i, j)] for i, j in pairs], 1e-7)

    if problem.is_real:
        zeros = spectra.find_first_zeros(problem, (2, 2), 2)
        # beta = -gamma^2 against the residue of m32, on a contour of its own
        record("residue_identity_beta_eq_minus_gamma_sq",
               [(weights.entry_residue(problem, pt.lam, (3, 2)) - pt.beta)
                / (1 + abs(pt.gamma) ** 2) for pt in mclaughlin.weight_numbers(problem, zeros)
                if pt.beta is not None], 1e-6)

    payload = {"problem": args.problem, "checks": checks,
               "all_pass": all(c["pass"] for c in checks)}
    _emit(args, payload)
    return 0 if payload["all_pass"] else 1


# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Reads -1e3 and -12,3 as values, where argparse's own pattern takes only
    -12 and -1.5; add_subparsers makes its subparsers of this class."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\.?\d")


@cache
def build_parser():
    """The one parser of the process: parse_args leaves it as it was, so
    every main call reuses it."""
    parser = _Parser(prog="quartspec")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kw):
        p = sub.add_parser(name, **kw)
        p.set_defaults(fn=fn)
        p.add_argument("--output", default=None)
        return p

    p = add("spectrum", cmd_spectrum, help="real-axis zeros of a characteristic function")
    p.add_argument("--problem", required=True)
    p.add_argument("--selector", type=_selector, default=(2, 2))
    p.add_argument("--xmin", type=_float, default=0.0)
    p.add_argument("--xmax", type=_float, default=1000.0)
    p.add_argument("--count", type=_count, default=10)

    p = add("weyl", cmd_weyl, help="Weyl matrix entries on a lambda grid")
    p.add_argument("--problem", required=True)
    p.add_argument("--lambda-min", type=_float, default=0.5)
    p.add_argument("--lambda-max", type=_float, default=50.0)
    p.add_argument("--lambda-count", type=_count, default=20)
    p.add_argument("--format", choices=("json", "csv"), default="csv")

    p = add("mclaughlin", cmd_mclaughlin, help="spectral data (lambda, gamma, xi, beta)")
    p.add_argument("--problem", required=True)
    p.add_argument("--count", type=_count, default=5)

    p = add("weights", cmd_weights, help="weight matrix at a pole")
    p.add_argument("--problem", required=True)
    p.add_argument("--lambda0", type=_complex_arg, required=True)

    p = add("classify", cmd_classify, help="case tags of the first eigenvalues")
    p.add_argument("--problem", required=True)
    p.add_argument("--count", type=_count, default=5)

    p = add("barcilon", cmd_barcilon, help="the three spectra")
    p.add_argument("--problem", required=True)
    p.add_argument("--count", type=_count, default=5)

    p = add("reconstruct", cmd_reconstruct, help="series/product reconstructions")
    p.add_argument("--problem", required=True)
    p.add_argument("--kind", choices=("m32", "delta33"), default="m32")
    p.add_argument("--count", type=_count, default=10)
    p.add_argument("--zero-window", type=_float, default=1e5)

    p = add("twin", cmd_twin, help="compare spectral data of two problems")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--kind", choices=("mclaughlin", "barcilon", "weyl"),
                   default="mclaughlin")
    p.add_argument("--count", type=_count, default=3)

    p = add("verify", cmd_verify, help="run the identity suite on a problem")
    p.add_argument("--problem", required=True)
    p.add_argument("--seed", type=int, default=0)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except SystemExit:
        raise
    except (ProblemError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # domain errors -> structured JSON on stderr
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
