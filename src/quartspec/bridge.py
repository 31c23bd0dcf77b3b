"""Data-level transforms between McLaughlin and Barcilon spectral data.

Implements the bridge identities

    Delta_32(lambda_n) = dDelta_22/dlambda (lambda_n) * gamma_n^2,
    Delta_42(lambda_n) = dDelta_22/dlambda (lambda_n) * xi_n gamma_n,

the partial-fraction reconstruction of m_32 from (lambda_n, beta_n), the
Hadamard-product reconstruction of entire characteristic functions from
their zeros, the case-II proportionality constant, and twin-problem
comparison experiments (empirical uniqueness checks).
"""

from __future__ import annotations

import numpy as np

from .mclaughlin import SpectralPoint, weight_numbers
from .problem import ProblemSpec
from .spectra import BarcilonData, find_first_zeros, three_spectra
from .weyl import phi_matrix, weyl_matrix

# |alpha_n| below this means the case-II premise fails
ALPHA_FLOOR = 1e-10


class BridgeError(ValueError):
    pass


def mclaughlin_to_barcilon_values(point: SpectralPoint, ddelta22):
    """(Delta_32, Delta_42) at the point's eigenvalue, from (gamma, xi)."""
    if point.gamma is None or point.xi is None:
        raise BridgeError("point has no normalized (gamma, xi)")
    d33 = point.extras.get("delta33")
    if d33 is not None and abs(d33) < 1e-12:
        raise BridgeError(f"Delta_33 vanishes at lambda={point.lam}; "
                          "the bridge formulas do not apply")
    ddelta22 = complex(ddelta22)
    return ddelta22 * point.gamma ** 2, ddelta22 * point.xi * point.gamma


def _tail_sum(zeros, lam_abs):
    """Estimate of sum_{n>N} |lam| / |lambda_n| past the known zeros.

    Models |lambda_n| ~ c (n + alpha)^4; the index shift alpha (fitted from
    the last two zeros) matters at small N, where lambda_N / N^4 alone can
    overstate the asymptotic growth and undershoot the tail.  Returns inf
    when |lam| is not yet dominated by the extrapolated growth.
    """
    N = len(zeros)
    if N == 0:
        raise BridgeError("insufficient data")
    lam_N = abs(zeros[-1])
    alpha = 1.0
    if N >= 2 and abs(zeros[-2]) > 0:
        r = (lam_N / abs(zeros[-2])) ** 0.25
        if r > 1 + 1e-9:
            # lam_N / lam_{N-1} = ((N+alpha)/(N-1+alpha))^4
            alpha = float(np.clip(r / (r - 1) - N, -0.9, 3.0))
    # sum_{n>N} ((N+alpha)/(n+alpha))^4 <= (N+alpha)/3
    if lam_N <= 2 * lam_abs:
        return np.inf
    return lam_abs * (N + alpha) / (3 * lam_N)


def reconstruct_m32(data, lam):
    """Partial sum of sum_n beta_n / (lam - lambda_n); (value, tail_estimate).

    data is a sequence of (lambda_n, beta_n).  The tail estimate uses the
    observed magnitude of the last weight numbers and the observed quartic
    eigenvalue growth, bounding sum_{n>N} |beta_n| / |lam - lambda_n| by
    2 B (N + alpha) / (3 |lambda_N|) once |lambda_n| dominates |lam|.
    """
    data = list(data)
    if not data:
        raise BridgeError("insufficient data")
    lam = complex(lam)
    lams = np.array([d[0] for d in data], dtype=complex)
    betas = np.array([d[1] for d in data], dtype=complex)
    gaps = np.abs(lam - lams)
    root_tol = 1e-8
    if np.min(gaps) < root_tol * (1 + abs(lam)):
        raise BridgeError(f"evaluation at pole lambda={lam}")
    value = complex(np.sum(betas / (lam - lams)))

    N = len(data)
    B = float(np.max(np.abs(betas[-min(5, N):])))
    # sum_{n>N} 1/|lambda_n| <= (N + alpha) / (3 |lambda_N|); the factor 2
    # absorbs |lam - lambda_n| >= |lambda_n| / 2 in the dominated regime
    t = _tail_sum(lams, 1.0)
    tail = 2 * B * t if (np.isfinite(t) and abs(lams[-1]) > 2 * abs(lam)) else np.inf
    return value, float(tail)


def reconstruct_delta_hadamard(zeros, anchor_value, lam):
    """Truncated Hadamard product c * prod(1 - lam/lam_n); (value, bound).

    The constant is fixed by the anchor value at lam = 0.  The bound is the
    relative truncation error: the discarded factors multiply the value by
    prod_{n>N} (1 - lam/lambda_n), which differs from 1 by at most
    exp(T) - 1 with T the estimated tail of sum |lam| / |lambda_n|.
    """
    lam = complex(lam)
    zeros = list(zeros)
    anchor_value = complex(anchor_value)
    if not zeros:
        raise BridgeError("insufficient data")
    if any(abs(z) < 1e-12 for z in zeros):
        raise BridgeError("a zero coincides with the anchor point lambda=0")
    value = anchor_value
    for z in zeros:
        value *= (1 - lam / z)
    t = _tail_sum(zeros, abs(lam))
    if not np.isfinite(t):
        return complex(value), float(np.inf)
    bound = np.exp(t) - 1
    return complex(value), float(bound)


def barcilon_equiv_data(b: BarcilonData, anchors):
    """Data {lambda_n, Delta_32(lambda_n), Delta_42(lambda_n)} from three spectra.

    Delta_32 and Delta_42 are rebuilt as truncated Hadamard products over
    s13 and s23 anchored at lambda = 0 (anchors = (Delta_32(0), Delta_42(0)),
    which must be regular values), then evaluated at every lambda_n in s12.
    """
    if not (b.s12 and b.s13 and b.s23):
        raise BridgeError("insufficient data")
    a32, a42 = anchors
    if any(abs(z) < 1e-12 for z in list(b.s13) + list(b.s23)):
        raise BridgeError("lambda=0 lies in a spectrum; choose another anchor")
    out = []
    for lam_n in b.s12:
        d32, b32 = reconstruct_delta_hadamard(b.s13, a32, lam_n)
        d42, b42 = reconstruct_delta_hadamard(b.s23, a42, lam_n)
        out.append({"lambda": lam_n, "delta32": d32, "delta42": d42,
                    "bound32": b32, "bound42": b42})
    return out


def case2_alpha(point: SpectralPoint, ddelta43, ddelta33):
    """alpha_n = -(gamma_n dDelta_43 + xi_n dDelta_33); S_4(x, lambda_n) = alpha_n y_n."""
    if point.gamma is None or point.xi is None:
        raise BridgeError("point has no normalized (gamma, xi)")
    alpha = -(point.gamma * complex(ddelta43) + point.xi * complex(ddelta33))
    if abs(alpha) < ALPHA_FLOOR:
        raise BridgeError(f"alpha = {alpha:.3e} below floor; case-II classification "
                          f"of lambda={point.lam} is likely wrong")
    return alpha


def _mclaughlin_vector(problem, count):
    zeros = find_first_zeros(problem, (2, 2), count)
    pts = weight_numbers(problem, zeros, residue_check=False)
    vec = []
    for pt in pts:
        vec.extend([pt.lam, pt.gamma if pt.gamma is not None else np.nan,
                    pt.xi if pt.xi is not None else np.nan])
    return np.array(vec, dtype=complex)


def _barcilon_vector(problem, count):
    b = three_spectra(problem, count)
    return np.array(b.s12 + b.s13 + b.s23, dtype=complex)


def _weyl_vector(problem, count):
    """m21, m31, m32, m41, m42, m43 at each of `count` lambda, lambda by lambda."""
    rows, cols = np.tril_indices(4, -1)
    return weyl_matrix(problem, np.linspace(0.6, 9.9, count)).m[:, rows, cols].ravel()


def _phi_at(problem, lams, xs):
    """Phi at the points xs only: the trajectory also holds the problem's
    own breakpoints, which differ between problems."""
    got, phi = phi_matrix(problem, lams, x_grid=xs)
    return phi[np.isin(got, xs)]


def spectral_mappings_deviation(problem_a, problem_b, x_count=10, lam_count=10):
    """max over an (x, lambda) grid of |P(x, lambda) - I| with P = Phi Phi~^{-1}."""
    xs = np.linspace(0.0, 1.0, x_count)
    lams = np.linspace(0.6, 9.9, lam_count)  # clear of the low beam poles
    P = _phi_at(problem_a, lams, xs) @ np.linalg.inv(_phi_at(problem_b, lams, xs))
    return float(np.max(np.abs(P - np.eye(4))))


def twin_comparison(problem_a: ProblemSpec, problem_b: ProblemSpec,
                    data_kind="mclaughlin", count=4):
    """Per-index distances of the requested data for two problems.

    For the 'weyl' kind the entries of M are compared on a fixed small
    lambda grid.  The spectral-mappings matrix P(x, lambda) is evaluated on
    a grid as well; for identical problems it must be the identity.
    """
    vector = {"mclaughlin": _mclaughlin_vector, "barcilon": _barcilon_vector,
              "weyl": _weyl_vector}.get(data_kind)
    if vector is None:
        raise BridgeError(f"unknown data kind {data_kind!r}")
    distances = np.abs(vector(problem_a, count) - vector(problem_b, count))
    return {
        "kind": data_kind,
        "distances": distances,
        "max_distance": float(np.max(distances)),
        "p_matrix_deviation": spectral_mappings_deviation(problem_a, problem_b),
    }
