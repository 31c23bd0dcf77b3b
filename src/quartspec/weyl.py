"""Characteristic functions Delta_jk and the Weyl matrix M(lambda).

Delta_kk is the determinant of end-values of the C-columns k+1..4 (rows are
y^(j)(1) in descending order), and Delta_jk replaces column C_j by C_k.  The
entries of the unit lower-triangular Weyl matrix are

    m_jk = -Delta_jk / Delta_kk,   1 <= k < j <= 4.

The Lagrange bracket y^[3] z - y'' z' + y' z'' - y z^[3] is constant in x,
so S(0) = U^{-1} C(1)^{-1} = J^{-1} U^T C(1)^T J for any p, q, a, b, c: the
determinants Delta_31 = -S_4(0) and Delta_41 = -S_4'(0) are the entries
C_2(1) and -C_1(1), reported with the determinant as alt_value.  Delta_11
and Delta_21 stay determinants, lest m21 = m43 hold by construction.

deltas_at, characteristic_delta, weyl_matrix and phi_matrix take one lambda
or an array of them: each CharacteristicValue field has the shape of lambda
(numpy scalars for one), m has lambda.shape + (4, 4).  All come from the end
values of one forward fundamental_C solve per batch (phi_matrix's, on its
own x grid, has the same end values), and each Delta_jk is one stack of
minors: one determinant call for its value, k more for its jet, and its
floating-point floor from the stacked permanent of |entries|.  Whether a
Delta vanishes is judged against its _magnitude at the same lambda.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .problem import ProblemSpec
from .propagator import fundamental_C

# column indices (1-based C labels) of each determinant, per index pair
_DELTA_COLS = {
    (1, 1): [2, 3, 4], (2, 1): [1, 3, 4], (3, 1): [2, 1, 4], (4, 1): [2, 3, 1],
    (2, 2): [3, 4], (3, 2): [2, 4], (4, 2): [3, 2],
    (3, 3): [4], (4, 3): [3],
}
# row indices into the end-value matrix (0 -> y, 1 -> y', 2 -> y'')
_DELTA_ROWS = {1: [2, 1, 0], 2: [1, 0], 3: [0]}

ALL_INDEX_PAIRS = tuple(_DELTA_COLS)
_DIAG = ((1, 1), (2, 2), (3, 3))
# the pairs read as (sign, C column) of the y-row of C(1), by the bracket identity
_ENTRY_PAIRS = {(3, 1): (1, 2), (4, 1): (-1, 1)}

POLE_FLOOR = 1e-10
# a Delta value at most this fraction of its magnitude counts as zero
ZERO_FLOOR = 1e-5
# lambda grid of delta_scale
_SCALE_GRID = np.linspace(0.5, 30.0, 8)
_EPS = float(np.finfo(float).eps)


class PoleError(ArithmeticError):
    """lambda is (numerically) a pole of the requested Weyl entries."""

    def __init__(self, k, lam, value):
        self.k = k
        self.lam = lam
        self.value = value
        super().__init__(f"Delta_{k}{k}({lam}) = {value:.3e} is below the pole floor")


@dataclass
class CharacteristicValue:
    # each field has the shape of the lambda it was evaluated at
    jk: tuple
    value: complex
    dvalue: complex | None = None
    alt_value: complex | None = None   # determinant of Delta_31 and Delta_41
    # floating-point floor of the determinant: eps times the total absolute
    # mass of its terms (the permanent of |entries|)
    fp_floor: float = 0.0


@dataclass
class WeylSample:
    m: np.ndarray             # lam.shape + (4, 4), unit lower-triangular
    deltas: dict              # (j, k) -> CharacteristicValue


def _det(sub):
    """Determinants of a stack of minors (last two axes); a 1x1 minor is its
    entry, which np.linalg.det does not return bitwise."""
    return sub[..., 0, 0] if sub.shape[-1] == 1 else np.linalg.det(sub)


def _abs_permanent(sub):
    """Permanent of |sub| over the last two axes, by first-row expansion: the
    total mass of the determinant's terms.

    eps times this bounds the cancellation noise of the determinant; rows
    scale differently (y' carries an extra rho), so a max-entry bound would
    be off by powers of rho.
    """
    a = np.abs(sub)
    if a.shape[-1] == 1:
        return a[..., 0, 0]
    return sum(a[..., 0, j] * _abs_permanent(np.delete(a[..., 1:, :], j, axis=-1))
               for j in range(a.shape[-1]))


def _minors(sub, dsub=None):
    """(det, d/dlambda det, floating-point floor) of a stack of k x k minors.

    The lambda-derivative (None without dsub) is Jacobi's formula: the sum
    over columns c of the determinant with column c taken from dsub.
    """
    jet = None
    if dsub is not None:
        jet = 0
        for c in range(sub.shape[-1]):
            rep = sub.copy()
            rep[..., c] = dsub[..., c]
            jet = jet + _det(rep)
    return _det(sub), jet, _EPS * sub.shape[-1] * _abs_permanent(sub)


def _magnitude(end, lam, jk):
    """Largest |minor| of Delta_jk's columns of C(1) at lam over all row sets,
    weighted by rho^(Delta_jk's row orders - the minor's) as in the step norm:
    their compound-matrix norm (Allen & Bridges 2002), at least |Delta_jk|."""
    cols = [c - 1 for c in _DELTA_COLS[jk]]
    rows = np.array(list(combinations(range(4), len(cols))))
    rho = np.maximum(1.0, np.abs(np.asarray(lam)) ** 0.25)[..., None]
    weight = rho ** (sum(_DELTA_ROWS[jk[1]]) - rows.sum(axis=1))
    return np.max(np.abs(_det(end[..., cols][..., rows, :])) * weight, axis=-1)


def _assemble(end, dend=None, pairs=ALL_INDEX_PAIRS) -> dict:
    """The characteristic values of `pairs` from the end values of C and of
    their lambda-jet (None without), keyed by pair."""
    out = {}
    for jk in pairs:
        rows, cols = _DELTA_ROWS[jk[1]], [c - 1 for c in _DELTA_COLS[jk]]
        alt, sign = None, 1
        if jk in _ENTRY_PAIRS:
            alt = _det(end[..., rows, :][..., cols])
            sign, col = _ENTRY_PAIRS[jk]
            rows, cols = [0], [col - 1]
        sub, dsub = (a if a is None else sign * a[..., rows, :][..., cols] for a in (end, dend))
        val, jet, floor = _minors(sub, dsub)
        # [()] makes the fields of one lambda numpy scalars
        out[jk] = CharacteristicValue(jk, *(a if a is None else a[()]
                                            for a in (val, jet, alt, floor)))
    return out


def deltas_at(problem: ProblemSpec, lams, pairs=ALL_INDEX_PAIRS,
              want_dlambda=False) -> dict:
    """The characteristic values of `pairs` at `lams`, keyed by pair, each
    field of the shape of lams: one batched propagation of C, and each pair's
    minors as one stack.  An empty batch propagates nothing."""
    lams = np.asarray(lams, dtype=complex)
    if lams.size == 0:
        end = np.empty(lams.shape + (4, 4), dtype=complex)
        return _assemble(end, end if want_dlambda else None, pairs)
    C = fundamental_C(problem, lams, want_dlambda, x_grid=[0.0, 1.0])
    return _assemble(C.end, C.dlambda[-1] if want_dlambda else None, pairs)


def all_deltas(problem: ProblemSpec, lam, want_dlambda=False,
               pairs=ALL_INDEX_PAIRS) -> dict:
    """The characteristic values of `pairs` at one lambda, keyed by pair."""
    return deltas_at(problem, complex(lam), pairs, want_dlambda)


def is_delta_zero(value, magnitude, fp_floor) -> bool:
    """|value| within ZERO_FLOOR of its magnitude, or within 100 times the
    cancellation floor, where a true zero's residual sits at large lambda."""
    return abs(value) <= max(ZERO_FLOOR * magnitude, 100 * fp_floor)


def characteristic_delta(problem: ProblemSpec, lam, jk, want_dlambda=False) -> CharacteristicValue:
    jk = tuple(jk)
    if jk not in _DELTA_COLS:
        raise ValueError(f"no characteristic function with index pair {jk}")
    return deltas_at(problem, lam, (jk,), want_dlambda)[jk]


def delta_scale(problem: ProblemSpec, k: int) -> float:
    """max |Delta_kk| over a reference grid, cached per problem; the first
    call fills k = 1, 2, 3 from one batched C-only sweep.  No threshold reads
    it (see _magnitude); it stays while the benchmark's trace binds it."""
    key = ("delta_scale", k)
    if key not in problem._cache:
        sweep = deltas_at(problem, _SCALE_GRID, pairs=_DIAG)
        for kk, _ in _DIAG:
            v = sweep[(kk, kk)].value
            top = float(np.max(np.hypot(v.real, v.imag)))
            problem._cache[("delta_scale", kk)] = max(top, 1e-300)
    return problem._cache[key]


def _weyl_sample(lam, end) -> WeylSample:
    """M from C(1) at lam; a pole where Delta_kk < POLE_FLOOR * its magnitude."""
    lam, deltas = np.asarray(lam, dtype=complex), _assemble(end)
    diag = np.stack([np.ravel(deltas[kk].value) for kk in _DIAG])   # (3, N)
    size = np.hypot(diag.real, diag.imag)
    poles = size < POLE_FLOOR * np.stack([np.ravel(_magnitude(end, lam, kk)) for kk in _DIAG])
    if poles.any():
        i = np.argmax(poles.any(axis=0))
        k = np.argmax(poles[:, i])
        raise PoleError(k + 1, complex(lam.ravel()[i]), float(size[k, i]))
    m = np.broadcast_to(np.eye(4, dtype=complex), lam.shape + (4, 4)).copy()
    for (j, k), cv in deltas.items():
        if j != k:
            m[..., j - 1, k - 1] = -cv.value / deltas[(k, k)].value
    return WeylSample(m=m, deltas=deltas)


def weyl_matrix(problem: ProblemSpec, lam) -> WeylSample:
    """M at one lambda or a batch; raises PoleError at the first lambda where
    a needed Delta_kk vanishes (naming the smallest such k)."""
    lam = np.asarray(lam, dtype=complex)   # an empty batch propagates nothing
    return _weyl_sample(lam, np.empty(lam.shape + (4, 4), dtype=complex) if lam.size == 0
                        else fundamental_C(problem, lam, x_grid=[0.0, 1.0]).end)


def weyl_inverse(sample: WeylSample) -> np.ndarray:
    """Closed-form inverse of M built from the entries of a one-lambda sample.

    The inverse inherits the symmetry of the problem: its (2,1) entry is
    -m43, the (4,2) entry is m31, etc.  It must agree with the numerical
    inverse of M.
    """
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
    """Phi(x, lambda) = C(x, lambda) M(lambda) on a grid, at one lambda or a
    batch, M from the end values of the same C solve; (xs, values of shape
    (len(xs),) + lam.shape + (4, 4))."""
    C = fundamental_C(problem, lam, x_grid=x_grid)
    return C.xs, C.values @ _weyl_sample(lam, C.end).m
