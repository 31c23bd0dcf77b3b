"""Integration of the first-order system Y' = (F(x) + Lambda) Y.

Columns of Y are quasi-state vectors (y, y', y'', y^[3]).  The coefficient
matrix is

    F(x) = [[0, 1, 0, 0],
            [0, 0, 1, 0],
            [0, p(x), 0, 1],
            [-q(x), 0, 0, 0]],

and Lambda has the single entry lambda at position (4, 1).  Since
trace(F + Lambda) = 0, the determinant of any fundamental matrix is
constant in x (Liouville-Ostrogradski); the observed drift is recorded.

Alongside the columns, one propagation can carry
- quadratures int_0^1 y_i y_j dx of column pairs;
- the 2-wedges u ^ v of column pairs at one lambda, under the additive
  compound of F + Lambda (Ng & Reid 1979; Allen & Bridges, Numer. Math. 92
  (2002)): 6 states, rows (y y')-, (y y'')-, (y y^[3])-, (y' y'')-,
  (y' y^[3])- and (y'' y^[3])-minors.  Row 0 is the minor u_0 v_1 - u_1 v_0
  without the cancellation of forming it from u(1) and v(1), whose entries
  grow like exp(|lambda|^(1/4));
- one jet run: the lambda-jets of a contiguous run of those states, from
  the variational system J' = (F + Lambda) J + E41 Y (for a wedge, under
  the compound of E41), and, where the run reaches on into its own first
  jets, their jets J2' = (F + Lambda) J2 + E41 J, the second
  lambda-Taylor coefficients (Jorba & Zou's jet transport, below): a
  Delta_22 polish carries the jets of its three wedges and the second of
  the first (see spectra).
An initial matrix of 6 rows is a set of such 2-wedges, propagated under
the compound alone, with their jet under want_dlambda: the state that a
search of a Delta_j2 reads (see spectra).

A propagation steps one block.  With wedges of column pairs, columns and
wedges are stacked block-diagonally on 10 rows, ordered so that the sources
and the targets of the lambda and jet terms are contiguous runs of rows;
each column carries its own lambda factor and jet factor, and the jets
follow the values in the order of the run, whose sources are so one slice
of the state's columns and its targets the columns after the values.  So
each step makes one series, one step bound and one advance call, and each
Taylor order one product per term, whatever the propagation carries.  A
column is zero in the other part's rows, which leaves its weighted norm,
and so the step sequence, as it is.  Without them the block is the initial
matrix's own rows: 4 of columns, or 6 of wedges.

The integrator is a Taylor series of order TAYLOR_ORDER (Jorba & Zou,
Experiment. Math. 14 (2005)).  p and q are polynomials on each mesh segment;
at each step start they are re-expanded, F = sum_i F_i t^i, and the
coefficients of the block follow from (k+1) Y_{k+1} = sum_i F_i Y_{k-i} +
lambda E Y_k.  The step is STEP_SAFETY times the largest h at which the last
two terms Y_k h^k of every column stay within ode_rel times the column's
norm plus ode_abs, where row r is weighted by rho^-r (rho = max(1,
|lambda|^(1/4)), r the order of the quasi-derivative, summed over a wedge
row's pair), so that y and y^[3] count alike.  Steps restart at each
breakpoint; output points inside a step and the quadratures over it come
from the same series.  A long step's leading terms are larger than the
state they move, and their rounding, unlike the truncation error, is not
the exact solution of a nearby problem: the cancellation in the 3 x 3
Delta_jk turns it into residuals of the structural identities of M (m21 =
m43).  So the state and those terms are summed in double-double arithmetic
(Knuth's TwoSum; Ogita, Rump & Oishi, SIAM J. Sci. Comput. 26 (2005)).

The arithmetic follows the data.  For a real problem (real p, q and
boundary constants) C(x, conj lambda) = conj C(x, lambda), so C is real on
the real axis: a propagation at real lambda of real initial data runs in
float64, and any complex lambda, coefficient or initial entry runs the
whole batch in complex128.  Callers see complex arrays either way, with
exactly zero imaginary part from the real kernel.  (weights._contour uses
the same symmetry off the axis.)  Real p and q make the series' matrix real
even where the state is complex, as at every contour node of a real
problem: the recursion is linear in the state, so one float64 product
steps its real and imaginary parts side by side, and only the lambda and
jet terms are complex products.

propagate takes lam as one value, or one per column.  fundamental_C and
fundamental_S take one lambda or a batch of N as one solve with one step
sequence (the 4 x 4 initial matrix tiled N times, each lambda repeated per
column of its tile); values and dlambda are (len(xs), 4, 4) or (len(xs), N,
4, 4), det_drift is the largest over the batch, and fundamental_C's wedges
of P column pairs are (orders, 6, P) or (orders, 6, P, N): the values, then
each order of jet that the run carries.  The backward direction
serves only fundamental_S: every Delta_jk comes from the end values of the
forward fundamental_C (see weyl).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import zip_longest

import numpy as np

from .problem import ProblemSpec, _sorted_unique, boundary_form_matrix

TAYLOR_ORDER = 20
STEP_SAFETY = 0.9
# terms of each step added to the state in double-double arithmetic
SUMMED_TERMS = 3
# the step bound's powers, one per row: 1/k for the orders k of its two terms
_BOUND_POWERS = 1.0 / np.array([[TAYLOR_ORDER - 1], [TAYLOR_ORDER]])
# wedge rows: the (a, b) minor u_a v_b - u_b v_a
_WEDGE_ROWS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


class PropagationError(RuntimeError):
    pass


def _matrix(n, entries):
    out = np.zeros((n, n))
    for rc in entries:
        out[rc] = 1.0
    return out


# A system X' = (K + p P + (q - lambda) Q) X on n rows, as (K, P, Q, powers);
# its lambda-jet solves J' = (K + p P + (q - lambda) Q) J - Q X, and row r is
# weighted by rho^-powers[r] in the step norm
_COLUMNS = (_matrix(4, [(0, 1), (1, 2), (2, 3)]), _matrix(4, [(2, 1)]),
            -_matrix(4, [(3, 0)]), np.arange(4.0))
# (u ^ v)_ab' = sum_c A_ac w_cb + A_bc w_ac, written out for A = F + Lambda
_WEDGE = (_matrix(6, [(0, 1), (1, 2), (1, 3), (2, 4), (3, 4), (4, 5)]),
          _matrix(6, [(1, 0), (5, 4)]), _matrix(6, [(4, 0), (5, 1)]),
          np.array([a + b for a, b in _WEDGE_ROWS], float))
# Both block-diagonally on 10 rows, C0 W01 W02 C1 C2 W03 W12 C3 W13 W23 (Ck the
# columns' y^[k], Wab the wedge rows): each keeps its own row order, and the
# -Q sources (C0, W01, W02) and targets (C3, W13, W23) are contiguous runs
_C_ROWS, _W_ROWS = [0, 3, 4, 7], [1, 2, 5, 6, 8, 9]


def _stack(columns, wedge):
    """A matrix (or powers vector) of the 10-row system from its two parts."""
    out = np.zeros((10,) * columns.ndim)
    out[np.ix_(*[_C_ROWS] * columns.ndim)] = columns
    out[np.ix_(*[_W_ROWS] * wedge.ndim)] = wedge
    return out


_STACKED = tuple(map(_stack, _COLUMNS, _WEDGE))
# -Q at a column's (target, source) run: the sign of its lambda and jet terms
_C_SIGN, _W_SIGN = -_COLUMNS[2][3, 0], -_WEDGE[2][4, 0]


def _shift(coeffs, delta):
    """Ascending coefficients of c(t + delta), for c with ascending `coeffs`."""
    a = list(coeffs)
    for i in range(len(a) - 1):
        for j in range(len(a) - 2, i - 1, -1):
            a[j] += delta * a[j + 1]
    return a


class _Block:
    """The states of a system over the columns it carries: the values, then
    one jet per column of the jet run `jet_cols`, a slice of the state's
    columns from a value column on, in its order.  A run that reaches past
    the values into the first jets also carries their jets, the next
    lambda-Taylor coefficients (J2' = A J2 + E J: half the second
    derivative).  signs[c] is -Q at (target, source) in value column c's own
    rows; src[s] is the value column that state column s is a jet of (or
    is), and order[s] its order."""

    def __init__(self, system, X0, lams, signs, jet_cols):
        self.system, self.cols, self.jet_cols = system, X0.shape[1], jet_cols
        src, order = list(range(self.cols)), [0] * self.cols
        for s in range(jet_cols.start, jet_cols.stop):
            src.append(src[s])
            order.append(order[s] + 1)
        self.src, self.order = np.array(src), np.array(order)
        self.state = np.concatenate([X0, np.zeros((len(X0), len(src) - self.cols), X0.dtype)],
                                    axis=1)
        self.low = np.zeros_like(self.state)   # the state is state + low
        self.plans = {}
        lams, signs = lams[self.src], signs[self.src]
        rho = np.maximum(1.0, np.abs(lams) ** 0.25)
        self.weights = rho[None, :] ** -system[3][:, None]
        # -Q is nonzero at (rows[i], cols[i]) alone, each a run of consecutive
        # indices: its products are row updates, by a factor per column
        rows, cols = np.nonzero(system[2])
        self.rows, self.qcols = slice(rows[0], rows[-1] + 1), slice(cols[0], cols[-1] + 1)
        self.jet_sign = signs[self.cols:]
        self.lam_sign = signs * lams

    def _plan(self, d):
        """The series buffer for polynomial degree d, which every step of that
        degree reuses (rows below d stay zero), per order k the views the
        recursion reads and writes: Y_{k+1} and the window Y_{k-d} .. Y_k,
        both also as float64 (a complex state's real and imaginary parts
        side by side), each row update's target, factor, source and
        temporary, and the division by k + 1; and the real basis of the
        step's matrix A_d, ..., A_1, A_0 side by side (A_i = p_i P + q_i Q,
        plus K in A_0), which is [p_d, q_d, ..., p_0, q_0, 1] @ basis,
        exactly: K, P and Q have disjoint supports."""
        n, m = self.state.shape
        rows, qcols, c = self.rows, self.qcols, self.cols
        T = np.zeros((TAYLOR_ORDER + 1 + d, n, m), self.state.dtype)
        lam_tmp = np.empty_like(T[0, rows])
        jet_tmp = np.empty_like(T[0, rows, c:])
        steps = []
        for k in range(TAYLOR_ORDER):
            Tk, nxt, window = T[k + d], T[k + d + 1], T[k:k + d + 1].reshape(-1, m)
            updates = [(nxt[rows], self.lam_sign, Tk[qcols], lam_tmp)]
            if m > c:
                updates.append((nxt[rows, c:], self.jet_sign, Tk[qcols, self.jet_cols],
                                jet_tmp))
            # a complex division by k + 1 is, bitwise, both parts times 1 / (k + 1)
            divide = ((np.true_divide, k + 1) if T.dtype == float else
                      (np.multiply, 1.0 / (k + 1)))
            steps.append((nxt, window, nxt.view(float), window.view(float), updates, divide))
        K, P, Q, _ = self.system
        basis = np.zeros((2 * d + 3, n, d + 1, n))
        for i in range(d + 1):
            basis[2 * i, :, i], basis[2 * i + 1, :, i] = P, Q
        basis[-1, :, d] = K
        self.plans[d] = T, steps, basis.reshape(2 * d + 3, -1)
        return self.plans[d]

    def series(self, pq):
        """The Taylor coefficients (TAYLOR_ORDER + 1, n, m) of the state at
        the step start, for the ascending coefficients (p_i, q_i) of p and q
        there."""
        d = len(pq) - 1
        T, steps, basis = self.plans.get(d) or self._plan(d)
        # A_d, ..., A_1, A_0 side by side, against the window Y_{k-d} .. Y_k;
        # a real A multiplies the float64 views: one real product over a
        # complex state's real and imaginary parts
        A = (np.append(np.ravel(pq[::-1]), 1.0) @ basis).reshape(len(self.state), -1)
        real = A.dtype == float
        T[d] = self.state
        for nxt, window, flat, flat_window, updates, (divide, by) in steps:
            if real:
                np.matmul(A, flat_window, out=flat)
            else:
                np.matmul(A, window, out=nxt)
            for target, factor, source, tmp in updates:
                target += np.multiply(factor, source, out=tmp)
            divide(flat, by, out=flat)
        return T[d:]

    def advance(self, T, powers):
        """The state at each step point whose powers t^0 .. t^TAYLOR_ORDER
        are the rows of `powers`; the last point becomes the state.  The
        state and the first SUMMED_TERMS terms are added in double-double
        arithmetic (TwoSum), the rest of the series in double."""
        s, low = self.state, self.low
        terms = [powers[:, k, None, None] * T[k] for k in range(1, SUMMED_TERMS + 1)]
        tail = T[SUMMED_TERMS + 1:]
        terms.append((powers[:, SUMMED_TERMS + 1:] @ tail.reshape(len(tail), -1))
                     .reshape((len(powers),) + s.shape))
        for u in terms:
            t = s + u
            z = t - s
            low = low + ((s - (t - z)) + (u - z))
            s = t
        at = s + low
        self.state, self.low = at[-1], low[-1] - (at[-1] - s[-1])
        return at

    def step_bound(self, T, rel, absolute):
        """Largest h at which the last two terms of every column are within
        tolerance."""
        # the weighted column norms of Y_0, Y_{order-1} and Y_order at once
        norms = np.max(np.abs(T[[0, TAYLOR_ORDER - 1, TAYLOR_ORDER]]) * self.weights, axis=1)
        tol = rel * norms[0] + absolute
        with np.errstate(divide="ignore"):
            return np.min((tol / norms[1:]) ** _BOUND_POWERS)


def _wedges(Y0, wi, wj):
    """The 2-wedges of the column pairs (wi, wj) of Y0, (6, pairs)."""
    return np.array([Y0[a, wi] * Y0[b, wj] - Y0[b, wi] * Y0[a, wj] for a, b in _WEDGE_ROWS],
                    Y0.dtype)


def _block(Y0, lams, wi, wj, want_dlambda):
    """The one _Block of a propagation of Y0 at lams with the wedges of its
    column pairs (wi, wj), and the rows of Y0 in it.  With such wedges it
    runs the stacked system on all ten rows, else Y0's own rows, on which
    the system is _COLUMNS (4 rows) or _WEDGE (6).  Its jet run is
    want_dlambda where that is a slice (see propagate), else the jets of
    every state with want_dlambda and none without."""
    ncols, nw = Y0.shape[1], len(wi)
    jets = (want_dlambda if isinstance(want_dlambda, slice) else
            slice(0 if want_dlambda else ncols + nw, ncols + nw))
    if not nw:
        system, sign = (_COLUMNS, _C_SIGN) if len(Y0) == 4 else (_WEDGE, _W_SIGN)
        return _Block(system, Y0, lams, np.full(ncols, sign), jets), slice(None)
    X0 = np.zeros((10, ncols + nw), Y0.dtype)
    X0[_C_ROWS, :ncols] = Y0
    X0[_W_ROWS, ncols:] = _wedges(Y0, wi, wj)
    return _Block(_STACKED, X0, np.append(lams, lams[wi]),
                  np.repeat([_C_SIGN, _W_SIGN], [ncols, nw]), jets), _C_ROWS


@dataclass
class FundamentalMatrix:
    """Trajectory of a 4 x k solution matrix over a grid of x values, or of
    a 4 x 4 one at each lambda of a batch."""

    xs: np.ndarray            # ascending grid, includes both endpoints
    # shape (len(xs), 4, k), or (len(xs), 6, k) for k 2-wedges, or
    # (len(xs), N, 4, 4)
    values: np.ndarray
    dlambda: np.ndarray | None = None   # same shape, entrywise d/dlambda
    quadratures: dict | None = None     # (i, j) -> int_0^1 y_i y_j dx
    # (orders, 6, pairs): the 2-wedges of column pairs where the propagation
    # ends, then their lambda-Taylor coefficients of each order the jet run
    # carries (NaN for a wedge it does not reach)
    wedges: np.ndarray | None = None
    # fundamental_C and fundamental_S only: max |det Y(x) - det Y(0)|, which
    # checks the integration only up to rho ~ 15; past it det Y cancels (its
    # columns grow like exp(rho)) and the field reads that rounding
    det_drift: float = 0.0

    @property
    def start(self):
        return self.values[0]

    @property
    def end(self):
        return self.values[-1]


def propagate(problem: ProblemSpec, lam, direction, init, want_dlambda=False,
              quad_pairs=None, wedge_pairs=None, x_grid=None) -> FundamentalMatrix:
    """Integrate the system for a 4 x k or 6 x k initial matrix.

    The system follows the rows of init: 4 rows are k columns, 6 rows are
    k 2-wedges (rows in the order of _WEDGE_ROWS), stepped under the
    compound; values, and with want_dlambda their jets in dlambda, have
    those rows.  lam is one spectral parameter for every column, or one per
    column (a lambda batch, or a Lagrange-identity check across two).
    direction 'forward' starts the init data at x=0, 'backward' at x=1.
    quad_pairs is a list of column index pairs (i, j); for each, the scalar
    int_0^1 y_i(x) y_j(x) dx is accumulated alongside the trajectory.
    wedge_pairs is a list of column index pairs at one lambda each; their
    2-wedges are returned in wedges, where the propagation ends.  Both read
    columns: a 6-row init with either raises ValueError.
    want_dlambda sets the jet run: True carries the jet of every state (the
    columns of init, then the wedges), False none.  A slice of those states
    carries the jets of the states from its start on, in order; where it
    runs past the last state it continues into the jets themselves, so that
    the first stop - (number of states) states of the run also carry their
    second lambda-Taylor coefficient (half the second derivative).  The
    wedges' coefficients are wedges[k], of order k, NaN where the run
    carries none.
    """
    Y0 = np.asarray(init, dtype=complex)
    if Y0.ndim == 1:
        Y0 = Y0.reshape(-1, 1)
    ncols = Y0.shape[1]
    lams = np.broadcast_to(np.asarray(lam, dtype=complex).ravel(), ncols)
    if not np.all(np.isfinite(lams)):
        raise PropagationError("non-finite lambda")
    real_pq = problem.p.is_real and problem.q.is_real
    real = problem.is_real and not np.any(lams.imag) and not np.any(Y0.imag)
    if real:
        Y0, lams = Y0.real, lams.real
    if direction not in ("forward", "backward"):
        raise ValueError(f"unknown direction {direction!r}")
    sign = 1.0 if direction == "forward" else -1.0
    if len(Y0) == 6 and (quad_pairs or wedge_pairs):
        raise ValueError("a 6-row init is a set of 2-wedges: no quadratures or wedges of "
                         "column pairs")

    quad_pairs = list(quad_pairs or [])
    qi, qj = np.array(quad_pairs, dtype=int).reshape(-1, 2).T
    wi, wj = np.array(wedge_pairs or [], dtype=int).reshape(-1, 2).T
    if np.any(lams[wi] != lams[wj]):
        raise ValueError("a wedge pairs columns at different lambda")
    block, crows = _block(Y0, lams, wi, wj, want_dlambda)
    rel, absolute = problem.tolerances.ode_rel, problem.tolerances.ode_abs
    hilbert = 1.0 / (np.arange(TAYLOR_ORDER + 1)[:, None] + np.arange(TAYLOR_ORDER + 1) + 1)
    quads = np.zeros(len(quad_pairs), Y0.dtype)

    breakpoints = problem.breakpoints
    grid = _sorted_unique(np.append(np.linspace(0.0, 1.0, 17) if x_grid is None else
                                    np.asarray(x_grid, float), breakpoints))
    nodes = breakpoints if direction == "forward" else breakpoints[::-1]
    min_step = 4 * np.finfo(float).eps   # relative to max(1, |x|)
    xs_out = [float(nodes[0])]
    states_out = [block.state]
    for x0, x1 in zip(nodes[:-1], nodes[1:]):
        x0, x1 = float(x0), float(x1)
        left, right = min(x0, x1), max(x0, x1)
        interior = grid[(grid > left + 1e-15) & (grid < right - 1e-15)]
        t_eval = np.append(interior[::int(sign)], x1)
        (p0, pc), (q0, qc) = problem.p.piece(left, right), problem.q.piece(left, right)
        if real_pq:
            pc, qc = [c.real for c in pc], [c.real for c in qc]
        x, done = x0, 0
        while done < len(t_eval):
            # an overflowing series leaves a step bound of 0 or nan, which raises
            with np.errstate(over="ignore", invalid="ignore"):
                T = block.series(list(zip_longest(_shift(pc, x - p0), _shift(qc, x - q0),
                                                  fillvalue=0)))
                h = STEP_SAFETY * block.step_bound(T, rel, absolute)
            if not h > min_step * max(1.0, abs(x)):
                raise PropagationError(f"no step possible at x={x} (step bound {h:.3e})")
            x_next = x1 if h >= abs(x1 - x) else x + sign * h
            reached = done + np.searchsorted(sign * t_eval[done:], sign * x_next, side="right")
            ts = np.append(t_eval[done:reached], x_next) - x
            powers = ts[:, None] ** np.arange(TAYLOR_ORDER + 1)
            states_out.extend(block.advance(T, powers)[:reached - done])
            xs_out.extend(t_eval[done:reached])
            if len(quad_pairs):   # row 0 is y with or without wedges
                hp = powers[-1][:, None]
                U, V = T[:, 0, qi] * hp, T[:, 0, qj] * hp
                quads += ts[-1] * np.sum(U * (hilbert @ V), axis=0)
            if not np.all(np.isfinite(block.state)):
                raise PropagationError(f"non-finite state at x={x_next}")
            x, done = x_next, reached

    xs_out = np.asarray(xs_out)
    order = np.argsort(xs_out)
    states_out = np.asarray(states_out, dtype=complex)[order][:, crows]
    quadratures = None
    if quad_pairs:
        quadratures = {pair: complex(sign * quads[k]) for k, pair in enumerate(quad_pairs)}
    wedges = None
    if len(wi):   # each wedge state's coefficient at its order and wedge
        of = block.src >= ncols
        wedges = np.full((block.order.max() + 1, 6, len(wi)), np.nan, complex)
        wedges[block.order[of], :, block.src[of] - ncols] = block.state[_W_ROWS][:, of].T
    return FundamentalMatrix(xs=xs_out[order], values=states_out[:, :, :ncols],
                             dlambda=states_out[:, :, block.cols:block.cols + ncols]
                             if block.jet_cols.start == 0 else None,
                             quadratures=quadratures, wedges=wedges)


def _fundamental(problem, lam, direction, init, want_dlambda, x_grid, wedge) -> FundamentalMatrix:
    """The 4 x 4 `init` propagated at one lambda or at each of a batch, in one
    solve; fields (len(xs),) + lam.shape + (4, 4), det_drift over the batch,
    and with `wedge`, a list of pairs of column labels (1-based), the wedges
    of those column pairs at each lambda with the jets the run carries,
    (orders, 6, len(wedge)) + lam.shape.  want_dlambda is a bool, or the jet
    run of one lambda as a slice of its states (4 columns, the wedges, then
    the jets in run order) that starts at a wedge: the batch stacks the
    wedges pair by pair, so it runs the same slice times the batch size."""
    lam = np.asarray(lam, dtype=complex)
    pairs = None if wedge is None else (np.subtract(wedge, 1)[:, None]
                                        + 4 * np.arange(lam.size)[:, None]).reshape(-1, 2).tolist()
    if isinstance(want_dlambda, slice):
        want_dlambda = slice(want_dlambda.start * lam.size, want_dlambda.stop * lam.size)
    res = propagate(problem, np.repeat(lam.ravel(), 4), direction, np.tile(init, lam.size),
                    want_dlambda=want_dlambda, wedge_pairs=pairs, x_grid=x_grid)

    def per_lambda(a):   # (len(xs), 4, 4N): row, then lambda-major columns
        return np.moveaxis(a.reshape(len(a), 4, *lam.shape, 4), 1, -2)

    values = per_lambda(res.values)
    with np.errstate(over="ignore", invalid="ignore"):   # C(1) overflows far out
        drift = np.max(np.abs(np.linalg.det(values) - np.linalg.det(init)))
    return FundamentalMatrix(xs=res.xs, values=values, det_drift=float(drift),
                             dlambda=None if res.dlambda is None else per_lambda(res.dlambda),
                             wedges=None if wedge is None else
                             res.wedges.reshape(len(res.wedges), 6, len(wedge), *lam.shape))


def fundamental_C(problem: ProblemSpec, lam, want_dlambda=False, x_grid=None,
                  wedge=None) -> FundamentalMatrix:
    """Solutions C_k with U_s(C_k) = delta_sk; initial matrix U^{-1} at x=0.
    wedge = [(j, k), ...] also carries each C_j ^ C_k, with the jets of the
    run want_dlambda sets (see _fundamental)."""
    U = boundary_form_matrix(problem)
    return _fundamental(problem, lam, "forward", np.linalg.inv(U), want_dlambda, x_grid, wedge)


def fundamental_S(problem: ProblemSpec, lam, x_grid=None) -> FundamentalMatrix:
    """Solutions S_k with V_s(S_k) = delta_sk; identity data at x=1."""
    return _fundamental(problem, lam, "backward", np.eye(4, dtype=complex), False, x_grid, None)
