"""Characteristic functions Delta_jk and the Weyl matrix M(lambda).

Delta_kk is the determinant of end-values of the C-columns k+1..4 (rows are
y^(j)(1) in descending order), and Delta_jk replaces column C_j by C_k.  The
entries of the unit lower-triangular Weyl matrix are

    m_jk = -Delta_jk / Delta_kk,   1 <= k < j <= 4.

Delta_31 and Delta_41 are evaluated both as 3x3 determinants and through the
backward solution S_4 (Delta_31 = -S_4(0), Delta_41 = -S_4'(0)); the S-route
value is reported, the determinant route is kept as a cross-check.  Only the
column S_4 is integrated (data e_4 at x=1), and only when Delta_31 or Delta_41
is asked for.  deltas_at propagates a list of lambda as one batch (U^{-1}
tiled once per lambda; tolerances / sqrt(N), see propagator); all_deltas is
the batch of one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .problem import ProblemSpec, boundary_form_matrix
from .propagator import fundamental_C, propagate

# column indices (1-based C labels) of each determinant, per index pair
_DELTA_COLS = {
    (1, 1): [2, 3, 4], (2, 1): [1, 3, 4], (3, 1): [2, 1, 4], (4, 1): [2, 3, 1],
    (2, 2): [3, 4], (3, 2): [2, 4], (4, 2): [3, 2],
    (3, 3): [4], (4, 3): [3],
}
# row indices into the end-value matrix (0 -> y, 1 -> y', 2 -> y'')
_DELTA_ROWS = {1: [2, 1, 0], 2: [1, 0], 3: [0]}

ALL_INDEX_PAIRS = tuple(_DELTA_COLS)

POLE_FLOOR = 1e-10
# a Delta value at most this fraction of its reference scale counts as zero
ZERO_FLOOR = 1e-5
# reference lambda grid for the relative scale of each Delta_kk
_SCALE_GRID = np.linspace(0.5, 30.0, 8)


class PoleError(ArithmeticError):
    """lambda is (numerically) a pole of the requested Weyl entries."""

    def __init__(self, k, lam, value):
        self.k = k
        self.lam = lam
        self.value = value
        super().__init__(f"Delta_{k}{k}({lam}) = {value:.3e} is below the pole floor")


@dataclass
class CharacteristicValue:
    jk: tuple
    value: complex
    dvalue: complex | None = None
    alt_value: complex | None = None   # determinant-route value, where two routes exist
    # floating-point floor of the determinant: eps times the total absolute
    # mass of its terms (the permanent of |entries|)
    fp_floor: float = 0.0


@dataclass
class WeylSample:
    lam: complex
    m: np.ndarray             # 4x4 unit lower-triangular
    deltas: dict              # (j, k) -> CharacteristicValue


def _abs_permanent(sub):
    """Permanent of |sub| (n <= 3): total mass of the determinant's terms.

    eps times this bounds the cancellation noise of the determinant; rows
    scale differently (y' carries an extra rho), so a max-entry bound would
    be off by powers of rho.
    """
    a = np.abs(sub)
    n = a.shape[0]
    if n == 1:
        return float(a[0, 0])
    if n == 2:
        return float(a[0, 0] * a[1, 1] + a[0, 1] * a[1, 0])
    return float(
        a[0, 0] * (a[1, 1] * a[2, 2] + a[1, 2] * a[2, 1])
        + a[0, 1] * (a[1, 0] * a[2, 2] + a[1, 2] * a[2, 0])
        + a[0, 2] * (a[1, 0] * a[2, 1] + a[1, 1] * a[2, 0]))


def _det_and_dlambda(sub, dsub):
    """Determinant and its lambda-derivative (Jacobi: sum over columns)."""
    val = complex(np.linalg.det(sub)) if sub.shape[0] > 1 else complex(sub[0, 0])
    if dsub is None:
        return val, None
    dval = 0.0 + 0.0j
    for c in range(sub.shape[1]):
        rep = sub.copy()
        rep[:, c] = dsub[:, c]
        dval += complex(np.linalg.det(rep)) if rep.shape[0] > 1 else complex(rep[0, 0])
    return val, dval


def deltas_at(problem: ProblemSpec, lams, pairs=ALL_INDEX_PAIRS,
              want_dlambda=False) -> list:
    """The characteristic values of `pairs` at each of `lams`, one dict per
    lambda keyed by pair: one batched propagation of C, plus one of S_4 when
    (3, 1) or (4, 1) is requested."""
    lams = np.asarray(lams, dtype=complex).ravel()
    n = len(lams)
    if n == 0:
        return []
    Uinv = np.linalg.inv(boundary_form_matrix(problem, "left"))
    C = propagate(problem, lams[0], "forward", np.tile(Uinv, n), want_dlambda=want_dlambda,
                  x_grid=[0.0, 1.0], lam_per_col=np.repeat(lams, 4))
    end = C.end.reshape(4, n, 4)   # rows y, y', y'', y^[3]; block i: C_1..C_4 at lams[i]
    dend = C.dlambda[-1].reshape(4, n, 4) if want_dlambda else None
    s_pairs = [jk for jk in ((3, 1), (4, 1)) if jk in pairs]
    if s_pairs:
        # better-conditioned route for Delta_31 and Delta_41 via S_4 at x=0
        S4 = propagate(problem, lams[0], "backward", np.tile([[0], [0], [0], [1]], n),
                       want_dlambda=want_dlambda, x_grid=[0.0, 1.0], lam_per_col=lams)
    eps = float(np.finfo(float).eps)
    out = []
    for i in range(n):
        d = {}
        for jk in pairs:
            ix = np.ix_(_DELTA_ROWS[jk[1]], [c - 1 for c in _DELTA_COLS[jk]])
            sub = end[:, i][ix]
            val, dval = _det_and_dlambda(sub, dend[:, i][ix] if want_dlambda else None)
            floor = eps * sub.shape[0] * _abs_permanent(sub)
            d[jk] = CharacteristicValue(jk, val, dval, fp_floor=floor)
        for jk in s_pairs:
            row = jk[0] - 3            # Delta_31 = -S_4(0), Delta_41 = -S_4'(0)
            s = S4.start[row, i]
            d[jk] = CharacteristicValue(jk, -complex(s),
                                        -complex(S4.dlambda[0][row, i]) if want_dlambda else None,
                                        alt_value=d[jk].value, fp_floor=eps * abs(s))
        out.append(d)
    return out


def all_deltas(problem: ProblemSpec, lam, want_dlambda=False,
               pairs=ALL_INDEX_PAIRS) -> dict:
    """The characteristic values of `pairs` at one lambda, keyed by pair."""
    return deltas_at(problem, [lam], pairs, want_dlambda)[0]


def is_delta_zero(value, scale, fp_floor) -> bool:
    """|value| within ZERO_FLOOR of the reference scale, or within 100 times
    the cancellation floor, where a true zero's residual sits at large lambda."""
    return abs(value) <= max(ZERO_FLOOR * scale, 100 * fp_floor)


def characteristic_delta(problem: ProblemSpec, lam, jk, want_dlambda=False) -> CharacteristicValue:
    jk = tuple(jk)
    if jk not in _DELTA_COLS:
        raise ValueError(f"no characteristic function with index pair {jk}")
    return all_deltas(problem, lam, want_dlambda=want_dlambda, pairs=(jk,))[jk]


def delta_scale(problem: ProblemSpec, k: int) -> float:
    """max |Delta_kk| over a reference grid, cached per problem; the first
    call fills k = 1, 2, 3 from one batched C-only sweep."""
    key = ("delta_scale", k)
    if key not in problem._cache:
        diag = ((1, 1), (2, 2), (3, 3))
        sweep = deltas_at(problem, _SCALE_GRID, pairs=diag)
        for kk, _ in diag:
            top = max(abs(d[(kk, kk)].value) for d in sweep)
            problem._cache[("delta_scale", kk)] = max(top, 1e-300)
    return problem._cache[key]


def weyl_matrix(problem: ProblemSpec, lam, want_dlambda=False,
                deltas=None) -> WeylSample:
    """Assemble M(lambda); raises PoleError when some needed Delta_kk vanishes."""
    if deltas is None:
        deltas = all_deltas(problem, lam, want_dlambda=want_dlambda)
    m = np.eye(4, dtype=complex)
    for (j, k), cv in deltas.items():
        if j == k:
            continue
        dkk = deltas[(k, k)].value
        if abs(dkk) < POLE_FLOOR * delta_scale(problem, k):
            raise PoleError(k, lam, abs(dkk))
        m[j - 1, k - 1] = -cv.value / dkk
    return WeylSample(lam=complex(lam), m=m, deltas=deltas)


def weyl_inverse(problem: ProblemSpec, lam, sample: WeylSample | None = None) -> np.ndarray:
    """Closed-form inverse of M built from its own entries.

    The inverse inherits the symmetry of the problem: its (2,1) entry is
    -m43, the (4,2) entry is m31, etc.  It must agree with the numerical
    inverse of M.
    """
    if sample is None:
        sample = weyl_matrix(problem, lam)
    m = sample.m
    m21, m31, m32 = m[1, 0], m[2, 0], m[2, 1]
    m41, m42, m43 = m[3, 0], m[3, 1], m[3, 2]
    return np.array([
        [1, 0, 0, 0],
        [-m43, 1, 0, 0],
        [m42, -m32, 1, 0],
        [-m41, m31, -m21, 1],
    ], dtype=complex)


def phi_matrix(problem: ProblemSpec, lam, x_grid=None):
    """Phi(x, lambda) = C(x, lambda) M(lambda) on a grid; (xs, values)."""
    sample = weyl_matrix(problem, lam)
    C = fundamental_C(problem, lam, x_grid=x_grid)
    return C.xs, C.values @ sample.m
