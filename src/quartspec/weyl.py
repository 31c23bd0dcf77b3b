"""Characteristic functions Delta_jk and the Weyl matrix M(lambda).

Delta_kk is the determinant of end-values of the C-columns k+1..4 (rows are
y^(j)(1) in descending order), and Delta_jk replaces column C_j by C_k.  The
entries of the unit lower-triangular Weyl matrix are

    m_jk = -Delta_jk / Delta_kk,   1 <= k < j <= 4.

Each Delta_jk is also row 0 of one propagated state (_ENTRIES), free of the
determinant's cancellation: a Delta_j2 of the 2-wedge of its two columns,
carried in the solve of C, any other of one C column at x = 1.  For the
Delta_j1 that is the Lagrange bracket, constant in x: S(0) = U^{-1} C(1)^{-1}
= J^{-1} U^T C(1)^T J for any p, q, a, b, c, so with det U = 1, Delta_31 =
-S_4(0) = C_2(1), Delta_41 = -S_4'(0) = -C_1(1), Delta_11 = -C_4(1) and
Delta_21 = -C_3(1).  deltas_at and the searches (see spectra) read every
Delta and its jet so (_entry).  Only M forms minors of C(1) (_MINOR), every
3 x 3 one in one determinant call and every 2 x 2 in one more: Delta_11 and
Delta_21 stay determinants there, lest m21 = m43 hold by construction, the
Delta_j2 since their wedges would cost a contour or grid batch about four
times its solve of C, and the determinants of Delta_31 and Delta_41 are its
alt_value.  A Delta vanishes against the weighted norm of its own state or
columns at the same lambda (_minor_norm).

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
from .propagator import fundamental_C

# (sign, C columns) of each Delta_jk as sign times row 0 of one propagated
# state: of the column for one, of the 2-wedge of the two for two
_ENTRIES = {(1, 1): (-1, (4,)), (2, 1): (-1, (3,)), (3, 1): (1, (2,)), (4, 1): (-1, (1,)),
            (2, 2): (-1, (3, 4)), (3, 2): (-1, (2, 4)), (4, 2): (-1, (3, 2)),
            (3, 3): (1, (4,)), (4, 3): (1, (3,))}
ALL_INDEX_PAIRS = tuple(_ENTRIES)
_DIAG = ((1, 1), (2, 2), (3, 3))
# each Delta_jk as a determinant, by flat index 4 * row + column into C(1):
# rows y^(3-k), ..., y', y and columns C_{k+1}, ..., C_4 with C_j replaced
# by C_k
_MINOR = {(j, k): 4 * np.arange(3 - k, -1, -1)[:, None]
          + [k - 1 if c == j else c - 1 for c in range(k + 1, 5)] for j, k in ALL_INDEX_PAIRS}


def _row_sets(jk):
    """Flat indices of the minors of Delta_jk's columns on every row set, in
    the order of combinations(range(4), size) (see _minor_norm)."""
    cols = _MINOR[jk][0] % 4
    return 4 * np.array(list(combinations(range(4), len(cols))))[..., None] + cols


# per k = 1, 2, the minors _weyl_sample factors in one determinant call:
# Delta_kk, ..., Delta_4k (for k = 1 the alt_value of Delta_31 and
# Delta_41), then Delta_kk's columns on every row set
_SAMPLED = {k: np.concatenate([[_MINOR[j, k] for j in range(k, 5)], _row_sets((k, k))])
            for k in (1, 2)}

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
    jk: tuple
    value: complex
    dvalue: complex | None = None
    alt_value: complex | None = None   # M's determinant of Delta_31 and Delta_41


@dataclass
class WeylSample:
    m: np.ndarray             # lam.shape + (4, 4), unit lower-triangular
    deltas: dict              # (j, k) -> CharacteristicValue


def _gather(a, index):
    """The entries of the 4 x 4 matrices a (last two axes) at flat `index`."""
    return a.reshape(a.shape[:-2] + (16,))[..., index]


def _minor_norm(minors, lam, k):
    """Largest |minor| of k columns at lam, the minors on the last axis in
    the order of combinations(range(4), k) of their rows (a column's rows
    for k = 1, a 2-wedge's for k = 2), each weighted by rho^(the row orders
    of a Delta_jk on k columns, rows k-1 .. 0, - the minor's) as in the step
    norm: their compound-matrix norm (Allen & Bridges 2002)."""
    rows = np.array(list(combinations(range(4), k)))
    rho = np.maximum(1.0, np.abs(np.asarray(lam)) ** 0.25)[..., None]
    weight = rho ** (rows[0].sum() - rows.sum(axis=1))
    return np.max(np.abs(minors) * weight, axis=-1)


def _entry(C, jk, wedge):
    """(Delta_jk, its lambda-Taylor coefficients of order 1, 2, ... on a
    leading axis, its state: rows on the last axis) at the end of C, a
    fundamental_C made with the `wedge` list: its 2-wedge or C column, as
    _ENTRIES gives, and its row 0, negated where the sign is -1 (not times
    -1, which can flip the sign of a zero imaginary part); the coefficients
    are those C's jet run carries, None where it carries none."""
    sign, cols = _ENTRIES[jk]
    if len(cols) == 2:
        w = C.wedges[:, :, wedge.index(cols)]   # (order, row) + lambda's shape
        state, jets = np.moveaxis(w[0], 0, -1), (w[1:, 0] if len(w) > 1 else None)
    else:
        state = C.end[..., cols[0] - 1]
        jets = None if C.dlambda is None else C.dlambda[-1][None, ..., 0, cols[0] - 1]
    if sign < 0:
        return -state[..., 0], None if jets is None else -jets, state
    return state[..., 0], jets, state


def deltas_at(problem: ProblemSpec, lams, pairs=ALL_INDEX_PAIRS,
              want_dlambda=False) -> dict:
    """The characteristic values of `pairs` at `lams`, keyed by pair, each
    field of the shape of lams: one batched propagation of C with the
    2-wedges of the Delta_j2 among `pairs`, and the jet of every state only
    with want_dlambda, each Delta_jk and its jet read by _entry, none a
    determinant.  An empty batch propagates nothing."""
    lams = np.asarray(lams, dtype=complex)
    if lams.size == 0:
        return {jk: CharacteristicValue(jk, np.empty(lams.shape, complex),
                                        np.empty(lams.shape, complex) if want_dlambda else None)
                for jk in pairs}
    wedge = [_ENTRIES[jk][1] for jk in pairs if jk[1] == 2] or None
    C = fundamental_C(problem, lams, want_dlambda, x_grid=[0.0, 1.0], wedge=wedge)
    read = {jk: _entry(C, jk, wedge) for jk in pairs}
    # [()] makes the fields of one lambda numpy scalars
    return {jk: CharacteristicValue(jk, value[()], jets[0][()] if want_dlambda else None)
            for jk, (value, jets, _) in read.items()}


def all_deltas(problem: ProblemSpec, lam, want_dlambda=False,
               pairs=ALL_INDEX_PAIRS) -> dict:
    """The characteristic values of `pairs` at one lambda, keyed by pair."""
    return deltas_at(problem, complex(lam), pairs, want_dlambda)


def characteristic_delta(problem: ProblemSpec, lam, jk, want_dlambda=False) -> CharacteristicValue:
    jk = tuple(jk)
    if jk not in _ENTRIES:
        raise ValueError(f"no characteristic function with index pair {jk}")
    return deltas_at(problem, lam, (jk,), want_dlambda)[jk]


def delta_scale(problem: ProblemSpec, k: int) -> float:
    """max |Delta_kk| over 8 lambda in [0.5, 30], in one batch.  No threshold
    reads it (each judges a Delta against the _minor_norm of its own state);
    it stays while the benchmark's trace binds it."""
    v = deltas_at(problem, np.linspace(0.5, 30.0, 8), pairs=((k, k),))[(k, k)].value
    return max(float(np.max(np.hypot(v.real, v.imag))), 1e-300)


def _weyl_sample(lam, end) -> WeylSample:
    """M from C(1) at lam; a pole where Delta_kk < POLE_FLOOR * its magnitude.
    Every 3 x 3 minor is factored in one determinant call, every 2 x 2 one
    in another (_SAMPLED); the 1 x 1 Delta are entries of C(1)."""
    lam = np.asarray(lam, dtype=complex)
    values, mags = {}, []
    for k, index in _SAMPLED.items():
        dets = np.linalg.det(_gather(end, index))
        values.update({(j, k): dets[..., j - k] for j in range(k, 5)})
        mags.append(_minor_norm(dets[..., 5 - k:], lam, 4 - k))
    mags.append(_minor_norm(end[..., 3], lam, 1))   # Delta_33's column C_4
    alts = {jk: values.pop(jk) for jk in ((3, 1), (4, 1))}
    for jk in ((3, 1), (4, 1), (3, 3), (4, 3)):
        sign, (col,) = _ENTRIES[jk]
        values[jk] = sign * end[..., 0, col - 1]
    # [()] makes the fields of one lambda numpy scalars
    deltas = {jk: CharacteristicValue(jk, values[jk][()], alt_value=alts[jk][()] if jk in alts
                                      else None) for jk in ALL_INDEX_PAIRS}
    diag = np.stack([np.ravel(deltas[kk].value) for kk in _DIAG])   # (3, N)
    size = np.hypot(diag.real, diag.imag)
    poles = size < POLE_FLOOR * np.stack([np.ravel(mag) for mag in mags])
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
