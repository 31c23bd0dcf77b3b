"""Reference values for the benchmark's output checks.

Nothing here imports quartspec.  The oracles are
  * the beam (p = q = 0, a = b = c = 0): bisection on cos r + sech r = 0,
    gamma_n = 2, xi_n = -2 rho sigma_n, n32 = -4, case I;
  * real piecewise-cubic problems: scipy's solve_ivp at a tighter rtol
    than the package's default (1e-10) plus brentq on Delta_22, with the
    normalized eigenfunction from the same integration;
  * complex problems: the structural identities m21 = m43 and
    m31 - m21 m32 + m42 = 0 of the Weyl matrix, with the thresholds of
    `quartspec verify`.
Every check returns an error figure; the run reports the worst one.
"""

from __future__ import annotations

import json
import math

import numpy as np
from scipy.integrate import solve_ivp
from scipy.interpolate import CubicSpline
from scipy.optimize import brentq

# acceptance thresholds, one place
LAMBDA_RTOL = 1e-8     # eigenvalue, relative to |lambda_ref|
DATA_RTOL = 1e-6       # gamma, xi, n32; `quartspec verify` uses 1e-6 for beta
IDENTITY_TOL = 1e-8    # Weyl identities; `quartspec verify` thresholds
REF_RTOL = 1e-13       # reference integration
REF_ATOL = 1e-15


class CheckError(AssertionError):
    """A job's output disagrees with its oracle."""


# ---------------------------------------------------------------------------
# beam closed forms

def beam_rho(n):
    """n-th positive root of cos r + sech r = 0 by bisection."""
    if n % 2 == 1:
        lo, hi = (n - 0.5) * math.pi, n * math.pi
    else:
        lo, hi = (n - 1) * math.pi, (n - 0.5) * math.pi

    def g(r):
        return math.cos(r) + 1.0 / math.cosh(r)

    glo = g(lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        gm = g(mid)
        if (gm < 0) == (glo < 0):
            lo, glo = mid, gm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def beam_reference(count):
    """[(lambda_n, gamma_n, xi_n)] of the free-clamped beam."""
    out = []
    for n in range(1, count + 1):
        r = beam_rho(n)
        sigma = (math.cosh(r) + math.cos(r)) / (math.sinh(r) + math.sin(r))
        out.append((r ** 4, 2.0, -2.0 * r * sigma))
    return out


# ---------------------------------------------------------------------------
# real problems: solve_ivp + brentq

class RealReference:
    """Independent integration of C_3, C_4 for a real samples-kind problem.

    The coefficients are scipy CubicSplines through the uniform samples,
    which is what the problem file's "samples" kind with interp 3 denotes.
    With a = b = c = 0, C_3 and C_4 start from y(0) = 1 and y'(0) = 1.
    """

    def __init__(self, p_samples, q_samples):
        xs = np.linspace(0.0, 1.0, len(p_samples))
        self.p = CubicSpline(xs, np.asarray(p_samples, float))
        xs = np.linspace(0.0, 1.0, len(q_samples))
        self.q = CubicSpline(xs, np.asarray(q_samples, float))

    def _end(self, lam):
        p, q = self.p, self.q

        def rhs(x, s):
            y = s[:8].reshape(4, 2)
            px, qx = float(p(x)), float(q(x))
            return np.concatenate([
                y[1], y[2], px * y[1] + y[3], (lam - qx) * y[0],
                [y[0, 0] ** 2, y[0, 0] * y[0, 1], y[0, 1] ** 2]])

        s0 = np.zeros(11)
        s0[0] = s0[3] = 1.0         # rows (y, y', y'', y^[3]) x columns (C_3, C_4)
        sol = solve_ivp(rhs, (0.0, 1.0), s0, method="DOP853",
                        rtol=REF_RTOL, atol=REF_ATOL)
        if not sol.success:
            raise RuntimeError(f"reference integration failed at lambda={lam}")
        return sol.y[:, -1]

    def delta22(self, lam):
        e = self._end(lam)
        y = e[:8].reshape(4, 2)
        return y[0, 0] * y[1, 1] - y[0, 1] * y[1, 0]

    def eigen(self, count):
        """[(lambda_n, gamma_n, xi_n)] for n = 1..count.

        Brackets are grown around the beam roots in rho = lambda^(1/4):
        bounded p and q shift rho_n by much less than the root spacing pi.
        """
        out = []
        for n in range(1, count + 1):
            r0 = beam_rho(n)
            for h in (0.25, 0.5, 1.0):
                lo, hi = max(r0 - h, 1e-3) ** 4, (r0 + h) ** 4
                flo, fhi = self.delta22(lo), self.delta22(hi)
                if flo * fhi < 0:
                    break
            else:
                raise RuntimeError(f"no reference bracket for eigenvalue {n}")
            lam = brentq(self.delta22, lo, hi, xtol=1e-14 * hi)
            out.append((lam,) + self._gamma_xi(lam))
        return out

    def _gamma_xi(self, lam):
        e = self._end(lam)
        y = e[:8].reshape(4, 2)
        i33, i34, i44 = e[8:]
        # null vector of the end-value rows (y(1), y'(1)); take the better row
        row = y[0] if abs(y[0, 0]) + abs(y[0, 1]) >= abs(y[1, 0]) + abs(y[1, 1]) else y[1]
        c3, c4 = row[1], -row[0]
        norm = math.sqrt(c3 * c3 * i33 + 2 * c3 * c4 * i34 + c4 * c4 * i44)
        gamma, xi = c3 / norm, c4 / norm
        sign = 1.0 if (gamma > 0 or (gamma == 0 and xi > 0)) else -1.0
        return sign * gamma, sign * xi


# ---------------------------------------------------------------------------
# output checks; each returns the worst error it saw or raises CheckError

def _rel(got, want):
    return abs(got - want) / abs(want)


def _limit(err, tol, what):
    if not err <= tol:
        raise CheckError(f"{what}: error {err:.3e} above {tol:.0e}")
    return err


def check_classify(text, reference):
    """`classify` JSON against [(lambda, gamma, xi)]."""
    rows = json.loads(text)
    if len(rows) != len(reference):
        raise CheckError(f"expected {len(reference)} rows, got {len(rows)}")
    worst = 0.0
    for row, (lam, gamma, xi) in zip(rows, reference):
        if row["case"] != "I":
            raise CheckError(f"case {row['case']!r} at lambda={lam}, expected 'I'")
        worst = max(worst,
                    _limit(_rel(complex(*row["lambda"]), lam), LAMBDA_RTOL, "lambda"),
                    _limit(_rel(complex(*row["gamma"]), gamma), DATA_RTOL, "gamma"),
                    _limit(_rel(complex(*row["xi"]), xi), DATA_RTOL, "xi"))
    return worst


def check_weights(text, gamma):
    """`weights` JSON at an eigenvalue: case I and n32 = -gamma^2."""
    out = json.loads(text)
    if out["case"] != "I":
        raise CheckError(f"case {out['case']!r}, expected 'I'")
    n32 = complex(*out["n"][2][1])
    return _limit(_rel(n32, -gamma * gamma), DATA_RTOL, "n32")


def parse_cell(cell):
    """A `weyl` CSV cell; negative imaginary parts are written as a+-bj."""
    return complex(cell.replace("+-", "-"))


def check_grid(text, lams):
    """`weyl` CSV: the lambda column and two Weyl identities on every row."""
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    rows = [[parse_cell(c) for c in line.split(",")] for line in lines[1:]]
    if len(rows) != len(lams):
        raise CheckError(f"expected {len(lams)} rows, got {len(rows)}")
    col = {name: i for i, name in enumerate(header)}
    worst = 0.0
    for row, lam in zip(rows, lams):
        if row[col["lambda_re"]] != lam:
            raise CheckError(f"lambda column {row[col['lambda_re']]} != {lam}")
        m21, m31, m32 = row[col["m21"]], row[col["m31"]], row[col["m32"]]
        m42, m43 = row[col["m42"]], row[col["m43"]]
        sym = abs(m21 - m43) / (1 + abs(m43))
        rel = abs(m31 - m21 * m32 + m42)
        worst = max(worst, _limit(sym, IDENTITY_TOL, "m21 = m43"),
                    _limit(rel, IDENTITY_TOL, "m31 - m21 m32 + m42 = 0"))
    return worst
