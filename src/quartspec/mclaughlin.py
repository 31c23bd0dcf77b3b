"""Eigenfunctions and the spectral data (lambda_n, gamma_n, xi_n, beta_n).

An eigenfunction of the main problem is y = c3 C_3 + c4 C_4 where (c3, c4)
spans the null space of the 2x2 end-value matrix [[C3(1), C4(1)],
[C3'(1), C4'(1)]] at an eigenvalue.  It is normalized by int_0^1 y^2 dx = 1,
which fixes (gamma, xi) = (y(0), y'(0)) up to sign; a deterministic sign
convention (Re gamma > 0, ties broken by Im, falling back to xi) is used.
The eigenfunctions of a list of zeros are one batch: one solve of the C3, C4
end values at every zero, then one of all normalized trajectories.  A zero
found by the searches carries C(1, lambda) from its accepted Newton step,
so weight_numbers makes the second solve only (and the first for the zeros
built by hand).

The case of each eigenvalue (I-IV, or indeterminate) is decided in one
place, weights.classify_eigenvalue, which weight_numbers calls for every
normalized point, reading Delta_33 = C4(1) and Delta_43 = C3(1) from the
same end values.  Only in case I is the weight number
beta_n = -gamma_n^2; it is then cross-checked against the contour residue
of m_32 at lambda_n.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .problem import ProblemSpec, boundary_form_matrix
from .propagator import propagate
from .spectra import simplicity_check
from .weyl import _minors, delta_scale, is_delta_zero

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
    # |residue-extracted beta - (-gamma^2)|, recorded by weight_numbers
    beta_residual: float | None = None
    extras: dict = field(default_factory=dict, repr=False)


def _sign_convention(gamma, xi):
    """Scale factor +-1 making Re gamma > 0 (then Im gamma > 0, then xi)."""
    for v in (gamma, xi):
        if abs(v) == 0:
            continue
        if v.real != 0:
            return 1.0 if v.real > 0 else -1.0
        return 1.0 if v.imag > 0 else -1.0
    return 1.0


def _end_matrices(problem: ProblemSpec, lams) -> np.ndarray:
    """A = [[C3(1), C4(1)], [C3'(1), C4'(1)]] at each of `lams`, from one
    solve of C3 and C4 (none for an empty list); shape (len(lams), 2, 2)."""
    lams = np.asarray(lams, dtype=complex).ravel()
    n = len(lams)
    if n == 0:
        return np.empty((0, 2, 2), dtype=complex)
    Uinv = np.linalg.inv(boundary_form_matrix(problem, "left"))
    ends = propagate(problem, np.repeat(lams, 2), "forward", np.tile(Uinv[:, 2:4], n),
                     x_grid=[0.0, 1.0]).end
    return ends[0:2].reshape(2, n, 2).swapaxes(0, 1)


def _eigenfunctions(problem: ProblemSpec, lams, As, x_grid=None) -> list:
    """eigenfunction at each of `lams`, given its end-value matrix A (see
    _end_matrices), as one solve of all normalized trajectories.  Per lambda
    ((xs, traj), gamma, xi), or NormalizationError for that lambda alone;
    NonSimpleError is raised."""
    lams = np.asarray(lams, dtype=complex).ravel()
    if len(lams) == 0:
        return []
    Uinv = np.linalg.inv(boundary_form_matrix(problem, "left"))
    # det A = -Delta_22 (its rows are those of Delta_22, swapped)
    dets, _, floors = _minors(np.asarray(As))
    y0s = []
    for lam, A, d22, floor in zip(lams, As, np.abs(dets), floors):
        if not is_delta_zero(d22, delta_scale(problem, 2), floor):
            raise NonSimpleError(f"lambda={lam} is not a zero of Delta_22 "
                                 f"(|Delta_22| = {d22:.2e})")
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
    """Normalized eigenfunction trajectory at an eigenvalue; (traj, gamma, xi)."""
    got = _eigenfunctions(problem, [lam_n], _end_matrices(problem, [lam_n]), x_grid)[0]
    if isinstance(got, Exception):
        raise got
    return got


def weight_numbers(problem: ProblemSpec, zeros, residue_check=True) -> list:
    """Spectral points, each tagged by weights.classify_eigenvalue.

    Every zero must be simple.  The eigenfunctions of all zeros are one
    batch: one solve of the normalized trajectories, after one solve of the
    end values of the zeros that carry no C(1, lambda).  The end values give
    Delta_33 = C4(1) and Delta_43 = C3(1) for the case.  In case I, beta_n =
    -gamma_n^2, and the (3,2) entry of the order -1 Laurent coefficient of M
    is recorded beside it as an independent check.
    """
    from . import weights as weights_mod  # deferred, avoids import cycle

    scale2 = delta_scale(problem, 2)
    for z in zeros:
        if not simplicity_check(z, scale2):
            raise NonSimpleError(f"eigenvalue {z.lam} is not simple")
    # a searched zero carries C(1, lambda) from its accepted Newton step; the
    # hand-made ones share one solve of their end values
    solved = iter(_end_matrices(problem, [z.lam for z in zeros if z.end_values is None]))
    As = [next(solved) if z.end_values is None else z.end_values[0:2, 2:4] for z in zeros]
    points = []
    for z, A, got in zip(zeros, As, _eigenfunctions(problem, [z.lam for z in zeros], As,
                                                    x_grid=[0.0, 1.0])):
        if isinstance(got, NormalizationError):
            points.append(SpectralPoint(lam=z.lam, norm_ok=False))
            continue
        _, gamma, xi = got
        pt = SpectralPoint(lam=z.lam, gamma=gamma, xi=xi)
        pt.extras["delta33"] = complex(A[0, 1])
        pt.case_tag = weights_mod.classify_eigenvalue(
            pt, complex(A[0, 0]), pt.extras["delta33"], delta_scale(problem, 3))
        if pt.case_tag == "I":
            pt.beta = -gamma ** 2
            if residue_check:
                coeffs = weights_mod.laurent_coefficients(problem, z.lam, (-1,))
                res32 = coeffs[-1][2, 1]
                pt.beta_residual = abs(res32 - pt.beta)
                pt.extras["residue_beta"] = complex(res32)
        points.append(pt)
    return points
