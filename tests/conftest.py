"""Shared fixtures and closed-form oracles for the zero-coefficient problem.

With p = q = 0 and a = b = c = 0 everything is elementary: the fundamental
solutions are combinations of cos, sin, cosh, sinh of rho x with
rho = lambda^(1/4), so every quantity under test has an independent closed
form.  Eigenvalue oracles come from bisection on the frequency equations,
never from the package's own search.
"""

import cmath
from itertools import permutations

import numpy as np
import pytest
from scipy.optimize import brentq

from quartspec import (
    BoundaryParams,
    CoefficientField,
    ProblemSpec,
    beam_problem,
    find_first_zeros,
    save_problem,
    validate_problem,
    weight_numbers,
)


# ---------------------------------------------------------------------------
# closed forms (p = q = 0, a = b = c = 0)

def oracle_C3(x, lam):
    """C_3(x, lambda) = (cosh rho x + cos rho x) / 2."""
    if lam == 0:
        return complex(1.0)
    rho = complex(lam) ** 0.25
    return (cmath.cosh(rho * x) + cmath.cos(rho * x)) / 2


def oracle_C4(x, lam):
    """C_4(x, lambda) = (sinh rho x + sin rho x) / (2 rho)."""
    if lam == 0:
        return complex(x)
    rho = complex(lam) ** 0.25
    return (cmath.sinh(rho * x) + cmath.sin(rho * x)) / (2 * rho)


def oracle_delta22(lam):
    """Delta_22(lambda) = -(1 + cos rho cosh rho) / 2."""
    if lam == 0:
        return complex(-1.0)
    rho = complex(lam) ** 0.25
    return -(1 + cmath.cos(rho) * cmath.cosh(rho)) / 2


def oracle_m43(lam):
    """m_43(lambda) = -rho (cosh rho + cos rho) / (sinh rho + sin rho)."""
    rho = complex(lam) ** 0.25
    return -rho * (cmath.cosh(rho) + cmath.cos(rho)) / (cmath.sinh(rho) + cmath.sin(rho))


def beam_rho(n):
    """n-th positive root of 1 + cos r cosh r = 0, by bisection.

    Written as cos r + sech r = 0 to stay finite; beyond n = 10 the sech
    correction is below the floating-point resolution of r itself and the
    root equals (n - 1/2) pi to machine precision.
    """
    if n > 10:
        return (n - 0.5) * np.pi

    def g(r):
        return np.cos(r) + 1.0 / np.cosh(r)

    if n % 2 == 1:
        a, b = (n - 0.5) * np.pi, n * np.pi
    else:
        a, b = (n - 1) * np.pi, (n - 0.5) * np.pi
    return brentq(g, a, b, xtol=1e-14, rtol=8.9e-16)


def beam_eigenvalue(n):
    return beam_rho(n) ** 4


def clamped_free_s(k):
    """k-th positive root of tan s = -tanh s (zeros of Delta_33 sit at -4 s^4)."""
    return brentq(lambda s: np.tan(s) + np.tanh(s),
                  (k - 0.5) * np.pi + 1e-9, k * np.pi - 1e-9, xtol=1e-14)


def oracle_mode_shape(n):
    """Closed-form eigenfunction of the n-th mode, un-normalized.

    y(x) = (cosh rho x + cos rho x) - sigma (sinh rho x + sin rho x), with
    sigma chosen so y(1) = 0; the free-end conditions at x = 0 hold for
    both basis functions identically.
    """
    rho = beam_rho(n)
    sigma = (np.cosh(rho) + np.cos(rho)) / (np.sinh(rho) + np.sin(rho))

    def y(x):
        return ((np.cosh(rho * x) + np.cos(rho * x))
                - sigma * (np.sinh(rho * x) + np.sin(rho * x)))

    def dy(x):
        return rho * ((np.sinh(rho * x) - np.sin(rho * x))
                      - sigma * (np.cosh(rho * x) + np.cos(rho * x)))

    return y, dy, rho


# ---------------------------------------------------------------------------
# shared problems and precomputed data (session-scoped: zero searches and
# contour quadratures dominate the suite's runtime)

@pytest.fixture(scope="session")
def beam():
    return beam_problem()


@pytest.fixture(scope="session")
def beam_zeros(beam):
    return find_first_zeros(beam, (2, 2), 5)


@pytest.fixture(scope="session")
def beam_zeros_30(beam):
    # past rho ~ 33, where a scan of determinants of C(1) stopped at count 10
    return find_first_zeros(beam, (2, 2), 30)


# ---------------------------------------------------------------------------
# Delta_jk as a determinant of the end values of C, which no search of the
# package forms: an oracle below rho ~ 12, judged to its floor

def delta_index(j, k):
    """(rows, 0-based columns) of Delta_jk in the end-value matrix of C: rows
    y^(3-k)(1) .. y(1), columns C_{k+1}..C_4 with C_j replaced by C_k."""
    cols = list(range(k + 1, 5))
    if j != k:
        cols[cols.index(j)] = k
    return list(range(3 - k, -1, -1)), [c - 1 for c in cols]


def term_mass(sub):
    """Sum of |terms| of the determinant of sub, the permanent of |sub|: the
    scale of its cancellation."""
    n = len(sub)
    return sum(np.prod([abs(sub[i, p[i]]) for i in range(n)]) for p in permutations(range(n)))


def determinant_floor(end, jk):
    """eps k term_mass of Delta_jk's k x k minor of each end-value matrix in
    the stack `end` (..., 4, 4): the floating-point floor of that
    determinant."""
    rows, cols = delta_index(*jk)
    subs = end[..., rows, :][..., cols]
    mass = [term_mass(sub) for sub in subs.reshape(-1, len(rows), len(rows))]
    return np.finfo(float).eps * len(rows) * np.reshape(mass, subs.shape[:-2])


@pytest.fixture(scope="session")
def beam_points(beam, beam_zeros):
    return weight_numbers(beam, beam_zeros)


def make_random_problem(seed=7):
    """Random complex piecewise-cubic (p, q) with a=0.3, b=-0.2, c=0.1."""
    rng = np.random.default_rng(seed)
    vals_p = (rng.uniform(-0.5, 0.5, 6) + 1j * rng.uniform(-0.5, 0.5, 6))
    vals_q = (rng.uniform(-0.5, 0.5, 6) + 1j * rng.uniform(-0.5, 0.5, 6))
    return validate_problem(ProblemSpec(
        p=CoefficientField.from_samples(vals_p, interp=3),
        q=CoefficientField.from_samples(vals_q, interp=3),
        boundary=BoundaryParams(0.3, -0.2, 0.1),
    ))


def make_random_real_problem(seed=11):
    rng = np.random.default_rng(seed)
    return validate_problem(ProblemSpec(
        p=CoefficientField.from_samples(rng.uniform(-0.5, 0.5, 6), interp=3),
        q=CoefficientField.from_samples(rng.uniform(-0.5, 0.5, 6), interp=3),
        boundary=BoundaryParams(0.0, 0.0, 0.0),
    ))


@pytest.fixture()
def beam_json(tmp_path):
    path = tmp_path / "beam.json"
    save_problem(beam_problem(), path)
    return str(path)


@pytest.fixture(scope="session")
def random_problem():
    return make_random_problem()
