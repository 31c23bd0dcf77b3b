"""Characteristic functions Delta_jk and the Weyl matrix M(lambda).

Delta_kk is the determinant of end-values of the C-columns k+1..4 (rows are
y^(j)(1) in descending order), and Delta_jk replaces column C_j by C_k.  The
entries of the unit lower-triangular Weyl matrix are

    m_jk = -Delta_jk / Delta_kk,   1 <= k < j <= 4.

Each Delta_jk is also row 0 of one state (_ENTRIES), free of the
determinant's cancellation: a Delta_j2 of the 2-wedge of its two columns,
any other of one C column at x = 1.  For the Delta_j1 that is the Lagrange
bracket, constant in x: S(0) = U^{-1} C(1)^{-1} = J^{-1} U^T C(1)^T J for
any p, q, a, b, c, so with det U = 1, Delta_31 = -S_4(0) = C_2(1), Delta_41
= -S_4'(0) = -C_1(1), Delta_11 = -C_4(1) and Delta_21 = -C_3(1).  Every
Delta and its jet is read so, by _entry alone from the ends of a
propagation (propagator.FundamentalMatrix.ends), none is a determinant:
deltas_at and the searches (see spectra) read wedges carried in the solve
of C, M reads C(1) and the wedges C3^C4, C2^C4 and C3^C2 formed from it at
x = 1 (_M_WEDGE), which keep the rounding of those 2 x 2 minors.  So in M
Delta_11 = -Delta_33 and Delta_21 = -Delta_43, and m21 = m43 holds bit for
bit.  A Delta vanishes against the weighted norm of its own state at the
same lambda (_minor_norm).

deltas_at, characteristic_delta, weyl_matrix and phi_matrix take one lambda
or an array of them, one forward fundamental_C solve per batch (phi_matrix's,
on its own x grid, has the same end values): each CharacteristicValue field
has the shape of lambda (numpy scalars for one), m has lambda.shape + (4, 4).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .problem import ProblemSpec
from .propagator import _ALL_COLUMNS, _wedges, fundamental_C

# (sign, C columns) of each Delta_jk as sign times row 0 of one state: of
# the column for one, of the 2-wedge of the two for two
_ENTRIES = {(1, 1): (-1, (4,)), (2, 1): (-1, (3,)), (3, 1): (1, (2,)), (4, 1): (-1, (1,)),
            (2, 2): (-1, (3, 4)), (3, 2): (-1, (2, 4)), (4, 2): (-1, (3, 2)),
            (3, 3): (1, (4,)), (4, 3): (1, (3,))}
ALL_INDEX_PAIRS = tuple(_ENTRIES)
_DIAG = ((1, 1), (2, 2), (3, 3))
# the 2-wedges of Delta_22, Delta_32 and Delta_42: M forms them at x = 1, a
# Delta_22 polish propagates them (spectra.Zero.C)
_M_WEDGE = [_ENTRIES[j, 2][1] for j in (2, 3, 4)]

POLE_FLOOR = 1e-10
# a Delta value at most this fraction of its magnitude counts as zero
ZERO_FLOOR = 1e-5


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
    value: complex
    dvalue: complex | None = None


@dataclass
class WeylSample:
    m: np.ndarray             # lam.shape + (4, 4), unit lower-triangular
    deltas: dict              # (j, k) -> CharacteristicValue


def _minor_norm(state, lam):
    """Largest |minor| of the k columns of a state at lam, its rows on the
    last axis in the order of combinations(range(4), k): a column's 4 rows
    (k = 1) or a 2-wedge's 6 (k = 2), each weighted by rho^(the row orders
    of a Delta_jk on k columns, rows k-1 .. 0, - the minor's) as in the step
    norm: their compound-matrix norm (Allen & Bridges 2002)."""
    rows = np.array(list(combinations(range(4), 1 if np.shape(state)[-1] == 4 else 2)))
    rho = np.maximum(1.0, np.abs(np.asarray(lam)) ** 0.25)[..., None]
    weight = rho ** (rows[0].sum() - rows.sum(axis=1))
    return np.max(np.abs(state) * weight, axis=-1)


def _entry(ends, jk):
    """(Delta_jk, its lambda-Taylor coefficients of order 1, 2, ... on a
    leading axis, its state: rows on the last axis) from the `ends` of a
    propagation, keyed by C columns: the state _ENTRIES gives, its row 0
    negated where the sign is -1 (not times -1, which can flip the sign of a
    zero imaginary part); the coefficients are those the jet run carries,
    an empty axis without a jet run, NaN where it does not reach the state."""
    sign, cols = _ENTRIES[jk]
    end = ends[cols]   # (orders,) + lambda's shape + (rows,)
    row0 = -end[..., 0] if sign < 0 else end[..., 0]
    return row0[0], row0[1:], end[0]


def deltas_at(problem: ProblemSpec, lams, pairs=ALL_INDEX_PAIRS,
              want_dlambda=False) -> dict:
    """The characteristic values of `pairs` at `lams`, keyed by pair, each
    field of the shape of lams: one batched propagation of C with the
    2-wedges of the Delta_j2 among `pairs`, and the jet of every state only
    with want_dlambda, each Delta_jk and its jet read by _entry, none a
    determinant.  A pair with no Delta_jk raises ValueError.  An empty batch,
    or no pair, propagates nothing."""
    for jk in pairs:
        if jk not in _ENTRIES:
            raise ValueError(f"no characteristic function with index pair {jk}")
    if not pairs:
        return {}
    wedges = [_ENTRIES[jk][1] for jk in pairs if jk[1] == 2]
    ends = fundamental_C(problem, lams, want_dlambda, x_grid=[0.0, 1.0],
                         states=_ALL_COLUMNS + wedges).ends
    read = {jk: _entry(ends, jk) for jk in pairs}
    # [()] makes the fields of one lambda numpy scalars
    return {jk: CharacteristicValue(value[()], jets[0][()] if want_dlambda else None)
            for jk, (value, jets, _) in read.items()}


def all_deltas(problem: ProblemSpec, lam, want_dlambda=False,
               pairs=ALL_INDEX_PAIRS) -> dict:
    """The characteristic values of `pairs` at one lambda, keyed by pair."""
    return deltas_at(problem, complex(lam), pairs, want_dlambda)


def characteristic_delta(problem: ProblemSpec, lam, jk, want_dlambda=False) -> CharacteristicValue:
    jk = tuple(jk)
    return deltas_at(problem, lam, (jk,), want_dlambda)[jk]


def delta_scale(problem: ProblemSpec, k: int) -> float:
    """max |Delta_kk| over 8 lambda in [0.5, 30], in one batch.  No threshold
    reads it (each judges a Delta against the _minor_norm of its own state);
    it stays while the benchmark's trace binds it."""
    v = deltas_at(problem, np.linspace(0.5, 30.0, 8), pairs=((k, k),))[(k, k)].value
    return max(float(np.max(np.hypot(v.real, v.imag))), 1e-300)


def _weyl_sample(lam, ends) -> WeylSample:
    """M at lam from the ends of a fundamental_C solve of C's columns, each
    Delta read by _entry from a column of C(1) or from the 2-wedges _M_WEDGE
    formed from them at x = 1; a pole where |Delta_kk| is below POLE_FLOOR
    times the _minor_norm of its own state."""
    lam = np.asarray(lam, dtype=complex)
    ends = {**ends, **{(j, k): _wedges(ends[j,], ends[k,]) for j, k in _M_WEDGE}}
    read = {jk: _entry(ends, jk) for jk in ALL_INDEX_PAIRS}
    # [()] makes the fields of one lambda numpy scalars
    deltas = {jk: CharacteristicValue(value[()]) for jk, (value, _, _) in read.items()}
    diag = np.stack([np.ravel(read[kk][0]) for kk in _DIAG])   # (3, N)
    size = np.hypot(diag.real, diag.imag)
    poles = size < POLE_FLOOR * np.stack([np.ravel(_minor_norm(read[kk][2], lam))
                                          for kk in _DIAG])
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
    lam = np.asarray(lam, dtype=complex)
    return _weyl_sample(lam, fundamental_C(problem, lam, x_grid=[0.0, 1.0]).ends)


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
    return C.xs, C.values @ _weyl_sample(lam, C.ends).m
