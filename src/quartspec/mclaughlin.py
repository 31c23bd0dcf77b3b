"""Eigenfunctions and the spectral data (lambda_n, gamma_n, xi_n, beta_n).

An eigenfunction of the main problem is y = c3 C_3 + c4 C_4 where (c3, c4)
spans the null space of the 2x2 end-value matrix [[C3(1), C4(1)],
[C3'(1), C4'(1)]] at an eigenvalue.  It is normalized by int_0^1 y^2 dx = 1,
which fixes (gamma, xi) = (y(0), y'(0)) up to sign; a deterministic sign
convention (Re gamma > 0, ties broken by Im, falling back to xi) is used.
The eigenfunctions of a list of zeros are one batch: one solve of all
normalized trajectories.  weight_numbers takes the end values from the
C(1, lambda) that each searched zero carries from its accepted Newton step,
and trusts the search's simplicity test; eigenfunction, at a lambda from
its caller, checks that Delta_22 vanishes there, read from the wedge
C_3 ^ C_4 solved with C(1, lambda), free of the determinant's cancellation.

The case of each eigenvalue (I-IV, or indeterminate) is decided in one
place, weights.classify_eigenvalue, which weight_numbers calls for every
normalized point, reading Delta_33 = C4(1), Delta_43 = C3(1) and its
magnitude (see weyl) from the same end values.  Only in case I is the
weight number beta_n = -gamma_n^2; at a searched zero it is checked,
contour-free, by the identity Delta_32(lambda_n) = Delta_22'(lambda_n) gamma_n^2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .problem import ProblemSpec, boundary_form_matrix
from .propagator import fundamental_C, propagate
from .weyl import ZERO_FLOOR, _assemble, _magnitude

NORMALIZATION_FLOOR = 1e-8


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
    # |-Delta_32 / Delta_22' - beta| in case I, else None
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


def _eigenfunctions(problem: ProblemSpec, lams, As, x_grid=None) -> list:
    """eigenfunction at each of `lams`, given its end-value matrix A =
    [[C3(1), C4(1)], [C3'(1), C4'(1)]], as one solve of all normalized
    trajectories.  Per lambda ((xs, traj), gamma, xi), or
    NormalizationError for that lambda alone."""
    lams = np.asarray(lams, dtype=complex).ravel()
    if len(lams) == 0:
        return []
    Uinv = np.linalg.inv(boundary_form_matrix(problem))
    y0s = []
    for A in As:
        # smallest singular direction is robust when both entries nearly vanish
        c3, c4 = np.linalg.svd(A)[2][-1].conj()
        y0s.append(c3 * Uinv[:, 2] + c4 * Uinv[:, 3])
    res = propagate(problem, lams, "forward", np.column_stack(y0s), x_grid=x_grid,
                    quad_pairs=[(k, k) for k in range(len(lams))])
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
    Raises NonSimpleError where Delta_22(lam_n) does not vanish."""
    C = fundamental_C(problem, lam_n, x_grid=[0.0, 1.0], wedge=(3, 4))
    delta22 = -C.wedges[0, 0]
    if abs(delta22) > ZERO_FLOOR * _magnitude(C.end, lam_n, (2, 2)):
        raise NonSimpleError(f"lambda={lam_n} is not a zero of Delta_22 "
                             f"(|Delta_22| = {abs(delta22):.2e})")
    got = _eigenfunctions(problem, [lam_n], [C.end[0:2, 2:4]], x_grid)[0]
    if isinstance(got, Exception):
        raise got
    return got


def weight_numbers(problem: ProblemSpec, zeros) -> list:
    """Spectral points, each tagged by weights.classify_eigenvalue.

    Every zero must come from a search for zeros of Delta_22 (else
    ValueError), with the C(1, lambda) of its accepted Newton step, and be
    simple by that search's test (multiplicity_estimate 1, else
    NonSimpleError).  The eigenfunctions of all zeros are one batch: one
    solve of the normalized trajectories.  The end values give A, and
    Delta_33 = C4(1), Delta_43 = C3(1) and its magnitude for the case.  In
    case I, beta_n = -gamma_n^2, and |-Delta_32 / Delta_22' - beta_n|, from
    the jet and C(1) the zero carries, is recorded as beta_residual.
    """
    from . import weights as weights_mod  # deferred, avoids import cycle

    for z in zeros:
        if z.multiplicity_estimate != 1:
            raise NonSimpleError(f"eigenvalue {z.lam} is not simple")
        if z.end_values is None or z.selector != (2, 2):
            raise ValueError(f"{z.lam} is no searched zero of Delta_22; take it from a search")
    points = []
    for z, got in zip(zeros, _eigenfunctions(problem, [z.lam for z in zeros],
                                             [z.end_values[0:2, 2:4] for z in zeros],
                                             x_grid=[0.0, 1.0])):
        if isinstance(got, NormalizationError):
            points.append(SpectralPoint(lam=z.lam, norm_ok=False))
            continue
        _, gamma, xi = got
        pt = SpectralPoint(lam=z.lam, gamma=gamma, xi=xi)
        pt.case_tag = weights_mod.classify_eigenvalue(
            pt, *z.end_values[0, 2:4].tolist(), _magnitude(z.end_values, z.lam, (4, 3)))
        if pt.case_tag == "I":
            pt.beta = -gamma ** 2
            delta32 = _assemble(z.end_values, None, ((3, 2),))[(3, 2)].value
            pt.beta_residual = float(abs(-delta32 / z.ddelta - pt.beta))
        points.append(pt)
    return points
