"""Laurent coefficients of M(lambda), weight matrices, and case classification.

At a simple pole lambda_0 of M, the weight matrix is

    N(lambda_0) = M_<0>(lambda_0)^{-1} M_<-1>(lambda_0),

where M_<k> are the Laurent coefficients of M at lambda_0.  At a case-I
zero of Delta_22 they are closed forms in the lambda-jets of the C that
its Newton polish carries (spectra.Zero.C, read by _jet_weight_matrix),
and weight_matrix_near takes them from there, with no further solve.  In
cases II-V (where two columns of M can have a pole, and M_<0> needs second
jets of both) they are extracted by trapezoid quadrature on a circle
around lambda_0 (laurent_coefficients, weight_matrix), which also serves
the tests as the oracle of case I.  The two differ where another pole
lies inside the circle: the quadrature sums the residues of every pole
inside it, while the jets give the Laurent coefficients at lambda_0
alone, which is what N(lambda_0) is.  N is
strictly lower-triangular and its nonzero pattern depends on the
classification of lambda_0:

    I   : only n32 != 0, n32 = beta_n = -gamma_n^2
    II  : 2x2 block n31, n32, n41, n42 with zero determinant, n31 = -n42
    III : n21 = n43 (residue of m43), n41 = xi_n^2
    IV  : only n41 = xi_n^2
    V   : only n21 = n43 != 0   (lambda_0 not an eigenvalue)

Regardless of the case, n21 = n43 and n31 = -n42 at every simple pole.

The case of an eigenvalue is decided only by mclaughlin.classify_eigenvalue,
which mclaughlin.weight_numbers applies to every normalized point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mclaughlin import SpectralPoint, classify_eigenvalue, weight_numbers
from .problem import ProblemSpec
from .propagator import fundamental_C
from .spectra import LeftDiscError, find_first_zeros, find_zero_near
from .weyl import ALL_INDEX_PAIRS, PoleError, _entry, _minor_norm, weyl_matrix

CONVERGENCE_TOL = 1e-8


class LaurentError(ArithmeticError):
    pass


@dataclass
class WeightMatrix:
    lam0: complex
    m_minus1: np.ndarray
    m_zero: np.ndarray
    n: np.ndarray


def default_contour_radius(lam0, nearby_zeros=()):
    """Quarter-distance to the nearest other zero, capped at 1 + |lam0|/100."""
    cap = 1.0 + abs(lam0) / 100.0
    dists = [abs(z - lam0) for z in nearby_zeros if abs(z - lam0) > 1e-9]
    if dists:
        return min(0.25 * min(dists), cap)
    return cap


def _pairwise_mean(terms):
    """Mean over the first axis, summed pairwise for a deterministic order."""
    n = terms.shape[0]
    while terms.shape[0] > 1:
        half = terms.shape[0] // 2
        terms = terms[:half] + terms[half:]
    return terms[0] / n


# N, the nodes of the coarse rule on the contour of M (the fine rule takes 2N)
CONTOUR_NODES = 64


def _contour(problem, lam0, radius):
    """(nodes z, M(lam0 + z)): 2N = 2 * CONTOUR_NODES equispaced points on
    the circle of `radius`, M sampled in one batched weyl_matrix call.

    The nodes are exact conjugate pairs: node 2N - j is conj(node j), and
    nodes 0 and N sit on the axis.  For a real problem M(conj lam) =
    conj M(lam), so around a real lam0 M is solved only at the N + 1 nodes
    with Im z >= 0, and each other node takes the conjugate of its mirror's.
    """
    upper = radius * np.exp(1j * np.pi * np.arange(CONTOUR_NODES + 1) / CONTOUR_NODES)
    upper[CONTOUR_NODES] = -radius
    zs = np.concatenate([upper, upper[CONTOUR_NODES - 1:0:-1].conj()])
    folded = problem.is_real and lam0.imag == 0
    try:
        ms = weyl_matrix(problem, lam0 + (upper if folded else zs)).m
    except PoleError as exc:
        raise LaurentError(f"contour node at {exc.lam} hits a pole") from exc
    return zs, np.concatenate([ms, ms[CONTOUR_NODES - 1:0:-1].conj()]) if folded else ms


def _trapezoid(samples, zs, order, lam0):
    """The order-k Laurent coefficient from contour samples (first axis),
    checked under node doubling: the rule on the even-indexed nodes against
    the rule on all of them."""
    terms = samples * (zs ** (-order)).reshape((-1,) + (1,) * (samples.ndim - 1))
    coarse = _pairwise_mean(terms[::2])
    fine = _pairwise_mean(terms)
    if np.max(np.abs(fine - coarse)) > CONVERGENCE_TOL * (1 + np.max(np.abs(fine))):
        raise LaurentError(f"trapezoid quadrature for order {order} at {lam0} did not "
                           f"converge under node doubling")
    return fine


def laurent_coefficients(problem: ProblemSpec, lam0, orders, radius=None) -> dict:
    """Laurent coefficients of M at lam0, with a node-doubling Cauchy check.

    The coefficient of order k is (2 pi i)^-1 times the contour integral of
    M(lam) (lam - lam0)^(-k-1) dlam; on the circle lam = lam0 + r e^(i t) it
    is the mean of M(lam) (r e^(i t))^(-k) over equispaced t.  M is sampled
    once at 2 * CONTOUR_NODES points (see _contour); the CONTOUR_NODES-point
    rule uses the even-indexed ones.
    """
    lam0 = complex(lam0)
    if radius is None:
        radius = default_contour_radius(lam0)
    zs, ms = _contour(problem, lam0, radius)
    return {order: _trapezoid(ms, zs, order, lam0) for order in orders}


def entry_residue(problem: ProblemSpec, lam0, jk) -> complex:
    """The residue of the entry m_jk of M at lam0, on the default contour:
    the (j, k) entry of the order -1 coefficient, whose own samples alone
    decide node doubling.  The other entries do not enter: at large |lam0|
    the m_j2 carry the rounding of the 2 x 2 minors that M forms from C(1)
    (see weyl); judged with them, the doubling check of an entry whose
    residue is small would read that rounding as non-convergence."""
    lam0 = complex(lam0)
    zs, ms = _contour(problem, lam0, default_contour_radius(lam0))
    return complex(_trapezoid(ms[:, jk[0] - 1, jk[1] - 1], zs, -1, lam0))


def weight_matrix(problem: ProblemSpec, lam0, nearby_zeros=()) -> WeightMatrix:
    """N(lambda_0) = M_<0>^{-1} M_<-1> at a simple pole."""
    lam0 = complex(lam0)
    coeffs = laurent_coefficients(problem, lam0, (-1, 0),
                                  radius=default_contour_radius(lam0, nearby_zeros))
    m_minus1, m_zero = coeffs[-1], coeffs[0]
    n = np.linalg.solve(m_zero, m_minus1)
    return WeightMatrix(lam0=lam0, m_minus1=m_minus1, m_zero=m_zero, n=n)


def _jet_weight_matrix(zero) -> WeightMatrix:
    """M_<-1>, M_<0> and N at a case-I zero of Delta_22 from the state of
    its polish, with no propagation.  Only column 2 of M has a pole there:
    with Delta_22 = Delta_22' z + Delta_22'' z^2 / 2 + ... (z = lambda -
    lambda_0), m_j2 = -Delta_j2 / Delta_22 has the residue -Delta_j2 /
    Delta_22' and the constant term -(Delta_j2' - Delta_j2 Delta_22'' /
    (2 Delta_22')) / Delta_22', all from the wedges' jets.  Columns 1 and 3
    are M's values, from the entries of C(1); weyl._entry reads each."""
    d = {jk: _entry(zero.C.ends, jk)[:2] for jk in ALL_INDEX_PAIRS}
    m_zero = np.eye(4, dtype=complex)
    for j, k in ((2, 1), (3, 1), (4, 1), (4, 3)):
        m_zero[j - 1, k - 1] = -d[j, k][0] / d[k, k][0]
    d22p, d22pp = d[2, 2][1]   # Delta_22' and Delta_22'' / 2
    m_minus1 = np.zeros((4, 4), dtype=complex)
    for j in (3, 4):
        delta, (dlam, _) = d[j, 2]
        m_minus1[j - 1, 1] = -delta / d22p
        m_zero[j - 1, 1] = -(dlam - delta * d22pp / d22p) / d22p
    return WeightMatrix(lam0=complex(zero.lam), m_minus1=m_minus1, m_zero=m_zero,
                        n=np.linalg.solve(m_zero, m_minus1))


def weight_matrix_near(problem: ProblemSpec, lam0) -> tuple:
    """(point, N) at the zero of Delta_22 that Newton from lam0 reaches
    inside the disc of default_contour_radius(lam0), or at lam0 in case V.

    At that zero the point is weight_numbers', and N comes from its
    polish's jets in case I (_jet_weight_matrix: no further propagation),
    from a contour around it otherwise (cases II-IV, indeterminate, or not
    normalizable).  Where an iterate would leave the disc, lam0 is taken
    as a pole of m43 (case V), on a contour sized by the zero that iterate
    points at; where M_<-1> vanishes there to CONVERGENCE_TOL, lam0 is no
    pole of M, and LaurentError is raised."""
    lam0 = complex(lam0)
    try:
        zero = find_zero_near(problem, (2, 2), lam0, default_contour_radius(lam0))
    except LeftDiscError as left:
        point = SpectralPoint(lam=lam0, case_tag="V")
        w = weight_matrix(problem, lam0, (left.lam,))
        if np.max(np.abs(w.m_minus1)) <= CONVERGENCE_TOL * (1 + np.max(np.abs(w.m_zero))):
            raise LaurentError(f"{lam0} is no pole of M: M_<-1> vanishes on its contour, and "
                               f"Newton on Delta_22 leaves the disc at {left.lam}")
        return point, w
    point = weight_numbers(problem, [zero])[0]
    if point.case_tag == "I":
        return point, _jet_weight_matrix(zero)
    return point, weight_matrix(problem, point.lam)


def classify_on_problem(problem: ProblemSpec, point: SpectralPoint) -> str:
    """classify_eigenvalue on one C-only evaluation at point.lam, each
    Delta read by weyl._entry."""
    ends = fundamental_C(problem, point.lam, x_grid=[0.0, 1.0]).ends
    (delta43, _, c3), (delta33, _, _) = (_entry(ends, jk) for jk in ((4, 3), (3, 3)))
    return classify_eigenvalue(point, delta43, delta33, _minor_norm(c3, point.lam))


# per case: entries allowed nonzero, and equality constraints checked
_CASE_PATTERNS = {
    "I": {(3, 2)},
    "II": {(3, 1), (3, 2), (4, 1), (4, 2)},
    "III": {(2, 1), (4, 1), (4, 3)},
    "IV": {(4, 1)},
    "V": {(2, 1), (4, 3)},
}


def verify_weight_structure(w: WeightMatrix, point: SpectralPoint) -> dict:
    """Residuals of every structural relation for the point's case; never raises.

    Residuals are relative to max |n_jk|, or to CONVERGENCE_TOL where N is
    smaller: N below the contour's resolution is zero, and residuals
    relative to its rounding would read as order 1.  At a lambda0 that is
    no pole of M (a case-V point off the zeros of Delta_33), N vanishes and
    n21_nonzero reads near 0.
    """
    n = w.n
    tag = point.case_tag
    report = {"case": tag, "checks": {}}
    checks = report["checks"]
    scale = max(np.max(np.abs(n)), CONVERGENCE_TOL)

    tri = np.abs(np.triu(n))  # strict lower-triangularity incl. the diagonal
    checks["strictly_lower_triangular"] = float(np.max(tri) / scale)
    checks["n21_equals_n43"] = float(abs(n[1, 0] - n[3, 2]) / scale)
    checks["n31_equals_minus_n42"] = float(abs(n[2, 0] + n[3, 1]) / scale)

    allowed = _CASE_PATTERNS.get(tag)
    if allowed is None:
        report["note"] = f"no structural pattern for case {tag!r}"
        return report
    off = 0.0
    for j in range(2, 5):
        for k in range(1, j):
            if (j, k) not in allowed:
                off = max(off, abs(n[j - 1, k - 1]))
    checks["off_pattern_entries"] = float(off / scale)

    if tag == "I" and point.gamma is not None:
        # n32 and gamma^2 share one wedge value over Delta_22': read n32 against xi
        # by McLaughlin's m43(lambda_n) = xi / gamma, m43 from C(1): n32 m43 = -gamma xi
        gamma, m43 = point.gamma, w.m_zero[3, 2]
        checks["n32_equals_minus_gamma_sq"] = float(
            abs(n[2, 1] * m43 + gamma * point.xi) / ((1 + abs(gamma) ** 2) * (1 + abs(m43))))
    if tag == "II":
        det = n[2, 0] * n[3, 1] - n[3, 0] * n[2, 1]
        checks["block_determinant_zero"] = float(abs(det) / scale ** 2)
    if tag in ("III", "IV") and point.xi is not None:
        checks["n41_equals_xi_sq"] = float(
            abs(n[3, 0] - point.xi ** 2) / (1 + abs(point.xi) ** 2))
    if tag == "V":
        checks["n21_nonzero"] = float(abs(n[1, 0]) / scale)
    return report


def case_search(problem_factory, parameter_grid, count=3):
    """Scan a family of problems for eigenvalues outside case I.

    problem_factory maps a parameter to a validated problem; every
    eigenvalue among the first `count` is classified and non-(I) hits are
    returned as (parameter, point, tag).  No claim is made that any family
    actually realizes cases II-IV.
    """
    hits = []
    for par in parameter_grid:
        problem = problem_factory(par)
        zeros = find_first_zeros(problem, (2, 2), count)
        for pt in weight_numbers(problem, zeros):
            if pt.norm_ok and pt.case_tag != "I":
                hits.append((par, pt, pt.case_tag))
    return hits
