"""Eigenfunctions and the spectral data (lambda_n, gamma_n, xi_n, beta_n).

An eigenfunction of the main problem is y = c3 C_3 + c4 C_4 where (c3, c4)
spans the null space of the 2x2 end-value matrix [[C3(1), C4(1)],
[C3'(1), C4'(1)]] at an eigenvalue.  It is normalized by int_0^1 y^2 dx = 1,
which fixes (gamma, xi) = (y(0), y'(0)) up to sign; a deterministic sign
convention (Re gamma > 0, ties broken by Im, falling back to xi) is used.

weight_numbers solves no eigenfunction in case I.  There the McLaughlin-
Barcilon identities Delta_32(lambda_n) = Delta_22'(lambda_n) gamma_n^2 and
Delta_42(lambda_n) = Delta_22'(lambda_n) xi_n gamma_n (see bridge) give
(gamma, xi) from the C that each searched zero carries from its accepted
Newton step (spectra.Zero.C), every Delta and jet read by weyl._entry.
The identities do not hold in cases II-IV, so a zero that the wedge data
do not tag I is normalized by shooting from that C's C(0) = U^{-1}: the
eigenfunctions of those zeros are one batch, one solve of all normalized
trajectories, and eigenfunction, at a lambda from its caller, is the same
shot.  It checks first that Delta_22 vanishes there, read from the wedge
C_3 ^ C_4 solved with C(1, lambda) and judged against that wedge's
magnitude, both free of the determinant's cancellation.

The case of each eigenvalue (I-IV, or indeterminate) is decided in one
place, classify_eigenvalue, which weight_numbers calls for every point,
reading Delta_33 = C4(1), Delta_43 = C3(1) and its magnitude (see weyl)
from the zero's C.  Only in case I is the weight number
beta_n = -gamma_n^2; beta_residual checks the wedges against the m43 of
C(1), contour-free.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .problem import ProblemSpec
from .propagator import _ALL_COLUMNS, fundamental_C, propagate
from .weyl import _ENTRIES, POLE_FLOOR, ZERO_FLOOR, _entry, _minor_norm

NORMALIZATION_FLOOR = 1e-8
# |gamma| below this: y_n(0) = 0 (cases III, IV); within 10x of it: indeterminate
GAMMA_FLOOR = 1e-6
# relative tolerance of the case-I identity m43(lambda_n) = xi_n / gamma_n
MATCH_TOL = 1e-6


class NormalizationError(ArithmeticError):
    """int y^2 dx is numerically zero; the data are undefined for this point."""


class NonSimpleError(ValueError):
    pass


@dataclass
class SpectralPoint:
    lam: complex
    gamma: complex | None = None
    xi: complex | None = None
    beta: complex | None = None
    norm_ok: bool = True
    case_tag: str = "unknown"
    # |beta + gamma xi / m43| at the root in case I (see _tagged), else None
    beta_residual: float | None = None


def _sign_convention(gamma, xi):
    """Scale factor +-1 making Re gamma > 0 (then Im gamma > 0, then xi)."""
    for v in (gamma, xi):
        if abs(v) == 0:
            continue
        if v.real != 0:
            return 1.0 if v.real > 0 else -1.0
        return 1.0 if v.imag > 0 else -1.0
    return 1.0


def _null_start(C):
    """y~(0) for y~ = c3 C_3 + c4 C_4, (c3, c4) the unit null vector of the
    end-value matrix [[C3(1), C4(1)], [C3'(1), C4'(1)]] of a fundamental_C
    C, whose C(0) is U^{-1}."""
    # smallest singular direction is robust when both entries nearly vanish
    c3, c4 = np.linalg.svd(C.end[0:2, 2:4])[2][-1].conj()
    return c3 * C.start[:, 2] + c4 * C.start[:, 3]


def _eigenfunctions(problem: ProblemSpec, lams, Cs, x_grid=None) -> list:
    """eigenfunction at each of `lams`, given the fundamental_C there at
    x = 0 and 1, as one solve of all normalized trajectories.  Per lambda
    ((xs, traj), gamma, xi), or NormalizationError for that lambda alone."""
    lams = np.asarray(lams, dtype=complex).ravel()
    if len(lams) == 0:
        return []
    res = propagate(problem, lams, "forward", np.column_stack([_null_start(C) for C in Cs]),
                    x_grid=x_grid, quad_pairs=[(k, k) for k in range(len(lams))])
    out = []
    for k, lam in enumerate(lams):
        norm2 = res.quadratures[(k, k)]
        if abs(norm2) < NORMALIZATION_FLOOR:
            out.append(NormalizationError(f"|int y^2 dx| = {abs(norm2):.2e} below "
                                          f"the floor at lambda={lam}"))
            continue
        scale_y = 1.0 / np.sqrt(norm2)
        gamma = complex(scale_y * res.values[0, 0, k])
        xi = complex(scale_y * res.values[0, 1, k])
        sgn = _sign_convention(gamma, xi)
        traj = res.values[:, :, k] * (sgn * scale_y)
        out.append(((res.xs, traj), sgn * gamma, sgn * xi))
    return out


def eigenfunction(problem: ProblemSpec, lam_n, x_grid=None):
    """Normalized eigenfunction trajectory at an eigenvalue; (traj, gamma, xi).
    Raises NonSimpleError where Delta_22(lam_n) does not vanish against the
    magnitude of its own wedge."""
    C = fundamental_C(problem, lam_n, x_grid=[0.0, 1.0],
                      states=_ALL_COLUMNS + [_ENTRIES[2, 2][1]])
    delta22, _, state = _entry(C.ends, (2, 2))
    if abs(delta22) > ZERO_FLOOR * _minor_norm(state, lam_n):
        raise NonSimpleError(f"lambda={lam_n} is not a zero of Delta_22 "
                             f"(|Delta_22| = {abs(delta22):.2e})")
    got = _eigenfunctions(problem, [lam_n], [C], x_grid)[0]
    if isinstance(got, Exception):
        raise got
    return got


def classify_eigenvalue(point: SpectralPoint, delta43, delta33, scale) -> str:
    """Assign the case tag (I)-(IV) from (gamma, xi) and Delta_43, Delta_33
    at point.lam.

    gamma_n = y_n(0) = c3, so at gamma = 0 the eigenfunction is a multiple
    of C4 and Delta_33(lambda_n) = C4(1) vanishes with it: no test of
    Delta_33 tells case III from IV.  That is decided on Delta_43 = C3(1),
    III iff |Delta_43| is above POLE_FLOOR * scale, scale its magnitude (the
    weighted norm of C3(1), weyl._minor_norm), as for the pole test.  m43 =
    -Delta_43 / Delta_33 is formed only when |gamma| is clear of the floor,
    never in cases III and IV.
    """
    gamma, xi = point.gamma, point.xi
    if gamma is None:
        raise ValueError("point carries no gamma; normalize the eigenfunction first")
    ag = abs(gamma)
    if 0.1 * GAMMA_FLOOR <= ag <= 10 * GAMMA_FLOOR:
        return "indeterminate"
    if ag < 0.1 * GAMMA_FLOOR:
        return "III" if abs(delta43) > POLE_FLOOR * scale else "IV"
    m = -delta43 / delta33
    if abs(m - xi / gamma) <= MATCH_TOL * (1 + abs(m)):
        return "I"
    return "II"


def _tagged(z, gamma, xi):
    """The spectral point of zero z with data (gamma, xi) up to a common
    sign, tagged by classify_eigenvalue; in case I with beta_n = -gamma_n^2
    and beta_residual, |beta_n + gamma_n xi_n / m43| at the root.

    m43 = -Delta_43 / Delta_33 comes from the zero's C(1), each Delta read
    by weyl._entry.  By the Pluecker relation of the y row of C(1) and the
    wedges, Delta_22 Delta_31 = Delta_32 Delta_43 + Delta_42 Delta_33, so
    at the accepted lambda, with gamma and xi from the wedges, beta + gamma
    xi / m43 = -Delta_22 Delta_31 / (Delta_22' Delta_43): the Newton step
    not taken there, times C2(1) / C3(1).  That term is taken off, and the
    residual shows how far the wedges and C(1) disagree."""
    sgn = _sign_convention(gamma, xi)
    pt = SpectralPoint(lam=z.lam, gamma=sgn * gamma, xi=sgn * xi)
    delta31, delta43, delta33 = (complex(_entry(z.C.ends, jk)[0])
                                 for jk in ((3, 1), (4, 3), (3, 3)))
    pt.case_tag = classify_eigenvalue(pt, delta43, delta33,
                                      _minor_norm(_entry(z.C.ends, (4, 3))[2], z.lam))
    if pt.case_tag == "I":
        pt.beta = -pt.gamma ** 2
        off_root = _entry(z.C.ends, (2, 2))[0] * delta31 / z.ddelta
        pt.beta_residual = float(abs(pt.beta - (pt.gamma * pt.xi * delta33 - off_root) / delta43))
    return pt


def weight_numbers(problem: ProblemSpec, zeros) -> list:
    """Spectral points, each tagged by classify_eigenvalue.

    Every zero must come from a search for zeros of Delta_22 (else
    ValueError), with the C of its accepted Newton step (Zero.C), and be
    simple by that search's test (multiplicity_estimate 1, else
    NonSimpleError).  (gamma, xi) come from the wedges, gamma^2 = Delta_32
    / Delta_22' and xi = Delta_42 / (Delta_22' gamma), and C(1) gives
    Delta_33 = C4(1), Delta_43 = C3(1) and its magnitude for the case, each
    read from C by weyl._entry.  A point tagged I is normalizable where int
    y~^2 dx = y~(0)^2 Delta_22' / Delta_32, y~ from the null vector of
    _null_start, is above NORMALIZATION_FLOOR.  The identities hold in case
    I alone: every other zero is normalized, and tagged again, from one
    batched solve of its eigenfunction.
    """
    for z in zeros:
        if z.multiplicity_estimate != 1:
            raise NonSimpleError(f"eigenvalue {z.lam} is not simple")
        if z.selector != (2, 2) or z.C is None:
            raise ValueError(f"{z.lam} is no searched zero of Delta_22; take it from a search")
    points = []
    for z in zeros:
        delta32, delta42 = (complex(_entry(z.C.ends, jk)[0]) for jk in ((3, 2), (4, 2)))
        gamma = complex(np.sqrt(delta32 / z.ddelta))
        # gamma = 0 is not case I, and its xi is not read
        pt = _tagged(z, gamma, delta42 / (z.ddelta * gamma) if gamma else 0j)
        if pt.case_tag == "I" and abs(_null_start(z.C)[0] ** 2
                                      * z.ddelta / delta32) < NORMALIZATION_FLOOR:
            pt = SpectralPoint(lam=z.lam, norm_ok=False)
        points.append(pt)
    shot = [i for i, pt in enumerate(points) if pt.norm_ok and pt.case_tag != "I"]
    for i, got in zip(shot, _eigenfunctions(problem, [zeros[i].lam for i in shot],
                                            [zeros[i].C for i in shot], x_grid=[0.0, 1.0])):
        points[i] = (SpectralPoint(lam=zeros[i].lam, norm_ok=False)
                     if isinstance(got, NormalizationError) else _tagged(zeros[i], *got[1:]))
    return points
