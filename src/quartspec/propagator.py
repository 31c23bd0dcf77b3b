"""Integration of the first-order system Y' = (F(x) + Lambda) Y.

Columns of Y are quasi-state vectors (y, y', y'', y^[3]).  The coefficient
matrix is

    F(x) = [[0, 1, 0, 0],
            [0, 0, 1, 0],
            [0, p(x), 0, 1],
            [-q(x), 0, 0, 0]],

and Lambda has the single entry lambda at position (4, 1).  Since
trace(F + Lambda) = 0, the determinant of any fundamental matrix is
constant in x (Liouville-Ostrogradski), which `quartspec verify` checks.

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
the compound alone, with their jet under want_dlambda.

A propagation steps one block.  With wedges of column pairs, columns and
wedges are stacked block-diagonally on 10 rows, ordered so that the sources
and the targets of the lambda and jet terms are contiguous runs of rows;
each column carries its own lambda factor and jet factor, and the jets
follow the values in the order of the run, whose sources are so one slice
of the state's columns and its targets the columns after the values.  So
each step makes one step call (its series and bound) and one advance call,
and each Taylor order one product per term, whatever the block carries.  A
column is zero in the other part's rows, which leaves its weighted norm,
and so the step sequence, as it is.  Without them the block is the initial
matrix's own rows: 4 of columns, or 6 of wedges.

The integrator is a Taylor series, its order chosen per step with the step
(Jorba & Zou, Experiment. Math. 14 (2005)).  p and q are polynomials on each
mesh segment; at each step start they are re-expanded, F = sum_i F_i t^i,
and the coefficients of the block follow from (k+1) Y_{k+1} = sum_i F_i
Y_{k-i} + lambda E Y_k.  The step is STEP_SAFETY times the largest h at
which the last two terms Y_k h^k of every column stay within ode_rel times
the column's norm plus ode_abs, where row r is weighted by rho^-r (rho =
max(1, |lambda|^(1/4)), r the order of the quasi-derivative, summed over a
wedge row's pair), so that y and y^[3] count alike.  Steps restart at each
breakpoint; a step's order is the lowest in [8, ORDER_CAP] that reaches
the segment end, else TAYLOR_ORDER, the most where more overflows (see
_Block.step).  Output points inside a step and the quadratures over it
come from the same series: each point is the state plus one product of
its powers of t with the series' later terms.

The arithmetic follows the data.  For a real problem (real p, q and
boundary constants) C(x, conj lambda) = conj C(x, lambda), so C is real on
the real axis: a propagation at real lambda of real initial data runs in
float64, and any complex lambda, coefficient or initial entry runs the
whole batch in complex128.  Callers see complex arrays either way, with
exactly zero imaginary part from the real kernel.  (weights._contour uses
the same symmetry off the axis.)  A block steps in its state's dtype alone:
p and q are taken real only where the state is, and each Taylor order is
one matrix product, the row updates of the lambda and jet terms, and one
division by k + 1, all in that dtype (for a complex state, the product
with the float 1 / (k + 1) that numpy's complex division by a real forms).

propagate takes lam as one value, or one per column, and leaves one table
where it ends, ends (see FundamentalMatrix).  fundamental_C, the one door
to C's states, and fundamental_S take one lambda or a batch of N as one
solve with one step sequence, each state tiled N times, ends keyed by the
labels of weyl._ENTRIES.  fundamental_C propagates the states asked for:
C's columns with wedges of their pairs (M, deltas_at, a Delta_22 polish),
or the one state per lambda that a search of any other Delta reads, alone
(see spectra).  The backward direction serves only fundamental_S: every
Delta_jk is an entry of the ends of fundamental_C.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import zip_longest
from math import ceil, inf, log, nan

import numpy as np

from .problem import ProblemSpec, _sorted_unique, boundary_form_matrix

TAYLOR_ORDER = 20
# the orders that a step's order is chosen from (see _Block.step)
_ORDER_MIN, ORDER_CAP = 8, 28
STEP_SAFETY = 0.9
# the step bound's powers 1/k, k = 1 .. ORDER_CAP; the quadratures' 1 / (i + j + 1)
_BOUND_POWERS = 1.0 / np.arange(1, ORDER_CAP + 1)
_HILBERT = 1.0 / (np.arange(ORDER_CAP + 1)[:, None] + np.arange(ORDER_CAP + 1) + 1)
# wedge rows: the (a, b) minor u_a v_b - u_b v_a
_WEDGE_ROWS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
# the labels of C's four columns among the states of fundamental_C
_ALL_COLUMNS = [(1,), (2,), (3,), (4,)]


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
        self.src, self.order = _jet_run(self.cols, jet_cols)
        self.state = np.concatenate([X0, np.zeros((len(X0), len(self.src) - self.cols), X0.dtype)],
                                    axis=1)
        self.plans, self.margins = {}, None
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
        each row update's target, factor, source and temporary, and the
        division by k + 1 (see below); and the real basis of the
        step's matrix A_d, ..., A_1, A_0 side by side (A_i = p_i P + q_i Q,
        plus K in A_0), which is [p_d, q_d, ..., p_0, q_0, 1] @ basis,
        exactly: K, P and Q have disjoint supports."""
        n, m = self.state.shape
        rows, qcols, c = self.rows, self.qcols, self.cols
        T = np.zeros((ORDER_CAP + 1 + d, n, m), self.state.dtype)
        lam_tmp = np.empty_like(T[0, rows])
        jet_tmp = np.empty_like(T[0, rows, c:])
        # a complex state multiplies by the float 1 / (k + 1), the product that
        # numpy's complex division by a real forms in its slower complex loop
        complex_state = np.iscomplexobj(T)
        steps = []
        for k in range(ORDER_CAP):
            Tk, nxt, window = T[k + d], T[k + d + 1], T[k:k + d + 1].reshape(-1, m)
            updates = [(nxt[rows], self.lam_sign, Tk[qcols], lam_tmp)]
            if m > c:
                updates.append((nxt[rows, c:], self.jet_sign, Tk[qcols, self.jet_cols],
                                jet_tmp))
            steps.append((nxt, window, updates) + ((np.multiply, 1.0 / (k + 1)) if complex_state
                                                   else (np.true_divide, k + 1)))
        K, P, Q, _ = self.system
        basis = np.zeros((2 * d + 3, n, d + 1, n))
        for i in range(d + 1):
            basis[2 * i, :, i], basis[2 * i + 1, :, i] = P, Q
        basis[-1, :, d] = K
        self.plans[d] = T, steps, basis.reshape(2 * d + 3, -1)
        return self.plans[d]

    def _start(self, pq):
        """fill(k0, k1): orders k0 + 1 .. k1, in place, of the series of the
        state for the ascending coefficients (p_i, q_i) of p and q at the step
        start; returns orders 0 .. k1, or 0 .. TAYLOR_ORDER where those past
        it are not all finite."""
        d = len(pq) - 1
        T, steps, basis = self.plans.get(d) or self._plan(d)
        # A_d, ..., A_1, A_0 side by side, against the window Y_{k-d} .. Y_k
        A = (np.append(np.ravel(pq[::-1]), 1.0) @ basis).reshape(len(self.state), -1)
        T[d] = self.state

        def fill(k0, k1):
            for nxt, window, updates, scale, by in steps[k0:k1]:
                np.matmul(A, window, out=nxt)
                for target, factor, source, tmp in updates:
                    target += np.multiply(factor, source, out=tmp)
                scale(nxt, by, out=nxt)
            if k1 > TAYLOR_ORDER and not np.all(np.isfinite(T[d + TAYLOR_ORDER + 1:d + k1 + 1])):
                k1 = TAYLOR_ORDER
            return T[d:d + k1 + 1]
        return fill

    def series(self, pq):
        """The TAYLOR_ORDER + 1 Taylor coefficients of the state (_start)."""
        return self._start(pq)(0, TAYLOR_ORDER)

    def step(self, pq, span, rel, absolute):
        """The series of a step toward a point `span` away, and its length h,
        STEP_SAFETY times its bound, of the order that the last step's margins
        say reaches the point, else of TAYLOR_ORDER, continued in place to the
        order that its own margins say does where h falls short of span."""
        fill, reach = self._start(pq), span / STEP_SAFETY
        T = fill(0, self._order(reach) or TAYLOR_ORDER)
        h = self.step_bound(T, rel, absolute)
        if h < reach and (order := self._order(reach) or 0) >= len(T):
            T = fill(len(T) - 1, order)
            h = self.step_bound(T, rel, absolute)
        return T, STEP_SAFETY * h

    def _order(self, reach):
        """The lowest order k in [_ORDER_MIN, ORDER_CAP] whose bound exp(min(
        L_{k-1} / (k - 1), L_k / k)) reaches `reach`, or None, with the last
        bound's log-margins L_j = log min_c (tol_c / |Y_j|_c), j = K - 1 and
        K, extrapolated linearly in j: exact for a geometric decay of |Y_j|,
        short of a factorial one.  So a + j s >= 0 for j = k - 1 and k."""
        K, lo, hi = self.margins or (0, nan, nan)   # a non-finite one gives None
        a, s = K * lo - (K - 1) * hi, hi - lo - log(reach)
        if min(a + (_ORDER_MIN - 1) * s, a + _ORDER_MIN * s) >= 0.0:
            return _ORDER_MIN
        k = 1.0 - a / s if s > 0.0 else inf   # past _ORDER_MIN here
        return ceil(k) if k <= ORDER_CAP else None

    def advance(self, T, powers):
        """The state at each step point whose powers t^0 .. t^K are the rows
        of `powers`, K the order of the series T; the last point becomes the
        state.  The terms past the state are summed in one product, then
        added to the state, which so rounds once per point."""
        at = self.state + (powers[:, 1:] @ T[1:].reshape(len(T) - 1, -1)).reshape(
            (len(powers),) + self.state.shape)
        self.state = at[-1]
        return at

    def step_bound(self, T, rel, absolute):
        """Largest h at which the last two terms of every column of the
        series T are within tolerance; leaves their log-margins (_order)."""
        K = len(T) - 1
        # the weighted column norms of Y_0, Y_{K-1} and Y_K at once
        norms = np.max(np.abs(T[[0, K - 1, K]]) * self.weights, axis=1)
        tol = rel * norms[0] + absolute
        with np.errstate(divide="ignore"):
            ratios = np.min(tol / norms[1:], axis=1)
            self.margins = (K, *np.log(ratios).tolist())
        return np.min(ratios ** _BOUND_POWERS[K - 2:K])


def _jet_run(cols, jet_cols):
    """(src, order) of the state columns of `cols` values and the jet run
    `jet_cols` (see _Block)."""
    src, order = list(range(cols)), [0] * cols
    for s in range(jet_cols.start, jet_cols.stop):
        src.append(src[s])
        order.append(order[s] + 1)
    return np.array(src, dtype=int), np.array(order, dtype=int)


def _run(want_dlambda, states):
    """The jet run that propagate's want_dlambda sets over `states` state
    columns: the slice itself, every state for True, none for False."""
    return (want_dlambda if isinstance(want_dlambda, slice) else
            slice(0 if want_dlambda else states, states))


def _grid(problem, x_grid):
    """The x at which a propagation records its state, ascending: the
    breakpoints, and the points of x_grid (17 equispaced by default) inside
    [0, 1] more than 1e-15 from each."""
    nodes = problem.breakpoints
    grid = np.linspace(0.0, 1.0, 17) if x_grid is None else np.asarray(x_grid, float)
    apart = np.min(np.abs(grid[:, None] - nodes), axis=1) > 1e-15
    return _sorted_unique(np.append(grid[apart & (grid > nodes[0]) & (grid < nodes[-1])], nodes))


def _wedges(u, v):
    """The 2-wedges u ^ v, rows (_WEDGE_ROWS) on the last axis as u's and v's."""
    return np.stack([u[..., a] * v[..., b] - u[..., b] * v[..., a] for a, b in _WEDGE_ROWS], -1)


def _block(Y0, lams, wi, wj, want_dlambda):
    """The one _Block of a propagation of Y0 at lams with the wedges of its
    column pairs (wi, wj), and its rows in the order Y0's, then the wedges'.
    With such wedges it runs the stacked system on all ten rows, else Y0's
    own rows, on which the system is _COLUMNS (4 rows) or _WEDGE (6).  Its
    jet run is want_dlambda where that is a slice (see propagate), else the
    jets of every state with want_dlambda and none without."""
    ncols, nw = Y0.shape[1], len(wi)
    jets = _run(want_dlambda, ncols + nw)
    if not nw:
        system, sign = (_COLUMNS, _C_SIGN) if len(Y0) == 4 else (_WEDGE, _W_SIGN)
        return _Block(system, Y0, lams, np.full(ncols, sign), jets), slice(None)
    X0 = np.zeros((10, ncols + nw), Y0.dtype)
    X0[_C_ROWS, :ncols] = Y0
    X0[_W_ROWS, ncols:] = _wedges(Y0[:, wi].T, Y0[:, wj].T).T
    return _Block(_STACKED, X0, np.append(lams, lams[wi]),
                  np.repeat([_C_SIGN, _W_SIGN], [ncols, nw]), jets), _C_ROWS + _W_ROWS


@dataclass
class FundamentalMatrix:
    """Trajectory of k solutions or 2-wedges over a grid of x values, at one
    lambda or at each of a batch."""

    xs: np.ndarray            # ascending grid, includes both endpoints
    # shape (len(xs), rows, k), 4 rows or 6 of 2-wedges; or (len(xs), N, rows, k)
    values: np.ndarray
    # where the propagation ends, each state's value, then its lambda-Taylor
    # coefficient of each order the jet run carries (NaN for a state it does
    # not reach), complex: from propagate (orders, states, rows), the states
    # init's columns then the wedges of column pairs, a stacked state's rows
    # 0-3 those of a column and 4-9 those of a wedge; from fundamental_C and
    # fundamental_S a dict, (k,) -> column k and (j, k) -> the wedge of
    # columns j and k, each (orders,) + lam.shape + (rows,)
    ends: np.ndarray | dict
    quadratures: dict | None = None     # (i, j) -> int_0^1 y_i y_j dx

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
    compound; values have those rows.  lam is one lambda for every column,
    or one per column (a lambda batch, or a Lagrange-identity check across
    two).  direction 'forward' starts the init data at x=0, 'backward' at x=1.
    quad_pairs is a list of column index pairs (i, j); for each, the scalar
    int_0^1 y_i(x) y_j(x) dx is accumulated alongside the trajectory.
    wedge_pairs is a list of column index pairs at one lambda each; their
    2-wedges are states of ends alone, after init's columns.  Both read
    columns: a 6-row init with either raises ValueError.
    want_dlambda sets the jet run: True carries the jet of every state (the
    columns of init, then the wedges), False none.  A slice of those states
    carries the jets of the states from its start on, in order; where it
    runs past the last state it continues into the jets themselves, so that
    the first stop - (number of states) states of the run also carry their
    second lambda-Taylor coefficient (half the second derivative).  Each
    state's coefficient of order k is ends[k], NaN where the run carries
    none.
    """
    Y0 = np.asarray(init, dtype=complex)
    if Y0.ndim == 1:
        Y0 = Y0.reshape(-1, 1)
    ncols = Y0.shape[1]
    lams = np.broadcast_to(np.asarray(lam, dtype=complex).ravel(), ncols)
    if not np.all(np.isfinite(lams)):
        raise PropagationError("non-finite lambda")
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
    block, rows = _block(Y0, lams, wi, wj, want_dlambda)
    rel, absolute = problem.tolerances.ode_rel, problem.tolerances.ode_abs
    quads = np.zeros(len(quad_pairs), Y0.dtype)

    grid = _grid(problem, x_grid)
    nodes = problem.breakpoints if direction == "forward" else problem.breakpoints[::-1]
    min_step = 4 * np.finfo(float).eps   # relative to max(1, |x|)
    xs_out = [float(nodes[0])]
    states_out = [block.state]
    for x0, x1 in zip(nodes[:-1], nodes[1:]):
        x0, x1 = float(x0), float(x1)
        left, right = min(x0, x1), max(x0, x1)
        interior = grid[(grid > left) & (grid < right)]
        t_eval = np.append(interior[::int(sign)], x1)
        (p0, pc), (q0, qc) = problem.p.piece(left, right), problem.q.piece(left, right)
        if real:
            pc, qc = [c.real for c in pc], [c.real for c in qc]
        x, done = x0, 0
        while done < len(t_eval):
            # an overflowing series leaves a step bound of 0 or nan, which raises
            with np.errstate(over="ignore", invalid="ignore"):
                pq = list(zip_longest(_shift(pc, x - p0), _shift(qc, x - q0), fillvalue=0))
                T, h = block.step(pq, abs(x1 - x), rel, absolute)
            if not h > min_step * max(1.0, abs(x)):
                raise PropagationError(f"no step possible at x={x} (step bound {h:.3e})")
            x_next = x1 if h >= abs(x1 - x) else x + sign * h
            reached = done + np.searchsorted(sign * t_eval[done:], sign * x_next, side="right")
            ts = np.append(t_eval[done:reached], x_next) - x
            powers = ts[:, None] ** np.arange(len(T))
            states_out.extend(block.advance(T, powers)[:reached - done])
            xs_out.extend(t_eval[done:reached])
            if len(quad_pairs):   # row 0 is y with or without wedges
                hp = powers[-1][:, None]
                U, V = T[:, 0, qi] * hp, T[:, 0, qj] * hp
                quads += ts[-1] * np.sum(U * (_HILBERT[:len(T), :len(T)] @ V), axis=0)
            if not np.all(np.isfinite(block.state)):
                raise PropagationError(f"non-finite state at x={x_next}")
            x, done = x_next, reached

    xs_out = np.asarray(xs_out)
    order = np.argsort(xs_out)
    values = np.asarray(states_out, dtype=complex)[order][:, rows][:, :len(Y0), :ncols]
    quadratures = None
    if quad_pairs:
        quadratures = {pair: complex(sign * quads[k]) for k, pair in enumerate(quad_pairs)}
    # complex, as values are, also where the real kernel fills it
    ends = np.full((block.order.max() + 1, block.cols, len(block.state)), np.nan, complex)
    ends[block.order, block.src] = block.state[rows].T
    return FundamentalMatrix(xs=xs_out[order], values=values, ends=ends, quadratures=quadratures)


def _fundamental(problem, lam, direction, init, want_dlambda, x_grid, states) -> FundamentalMatrix:
    """The states (labels of weyl._ENTRIES) of the 4 x 4 `init` at one lambda
    or at each of a batch, in one solve, ends keyed by label.  Listed columns
    are stacked with the listed wedges of their pairs (ValueError for a wedge
    of an unlisted one), values (len(xs),) + lam.shape + (4, columns); with
    no column the wedges are stepped alone, values ... + (6, wedges).
    want_dlambda is a bool, or the jet run of one lambda as a slice of its
    states (columns, wedges, then jets in run order) from a wedge on, run
    times the batch size: the batch lays the wedges out pair by pair.  An
    empty batch propagates nothing: its fields have an empty lambda axis,
    and ends the orders one lambda's run would carry."""
    lam = np.asarray(lam, dtype=complex)
    cols, wedges = [s for s in states if len(s) == 1], [s for s in states if len(s) == 2]
    if cols and not {(k,) for w in wedges for k in w} <= set(cols):
        raise ValueError(f"a wedge of columns not among the listed {cols}")
    N, n = lam.size, len(cols or wedges)
    if cols:   # lambda-major columns, then their wedges pair-major
        pairs = (np.array([[cols.index((k,)) for k in w] for w in wedges], int).reshape(-1, 1, 2)
                 + n * np.arange(N)[:, None]).reshape(-1, 2).tolist()
        lams, Y0 = np.repeat(lam.ravel(), n), np.tile(init[:, np.subtract(cols, 1).ravel()], N)
    else:      # the wedges alone, pair-major
        (wi, wj), pairs, lams = np.subtract(wedges, 1).T, None, np.tile(lam.ravel(), n)
        Y0 = np.repeat(_wedges(init[:, wi].T, init[:, wj].T).T, N, axis=1)
    if not N:
        xs, count = _grid(problem, x_grid), len(states)
        orders = _jet_run(count, _run(want_dlambda, count))[1].max() + 1
        res = FundamentalMatrix(xs, np.empty((len(xs),) + Y0.shape, complex),
                                np.empty((orders, 0, 10), complex))
    else:
        if isinstance(want_dlambda, slice):
            want_dlambda = slice(want_dlambda.start * N, want_dlambda.stop * N)
        res = propagate(problem, lams, direction, Y0, want_dlambda=want_dlambda,
                        wedge_pairs=pairs, x_grid=x_grid)
    e, m = res.ends, len(cols) * N
    ends = dict(zip(cols, np.moveaxis(e[:, :m, :4].reshape(len(e), *lam.shape, len(cols), 4),
                                      -2, 0)))
    ends.update(zip(wedges, np.moveaxis(
        e[:, m:, -6:].reshape(len(e), len(wedges), *lam.shape, 6), 1, 0)))
    values = res.values.reshape(len(res.xs), len(Y0), *(lam.shape + (n,) if cols else
                                                        (n,) + lam.shape))
    return FundamentalMatrix(xs=res.xs, ends=ends, values=np.moveaxis(
        values, 1, -2) if cols else np.moveaxis(values, (1, 2), (-2, -1)))


def fundamental_C(problem: ProblemSpec, lam, want_dlambda=False, x_grid=None,
                  states=None) -> FundamentalMatrix:
    """Solutions C_k with U_s(C_k) = delta_sk; initial matrix U^{-1} at x=0.
    states lists labels of weyl._ENTRIES, (k,) for C_k and (j, k) for C_j ^
    C_k, None the four columns; ends holds each at x = 1 with the jets of
    the run want_dlambda sets (see _fundamental)."""
    return _fundamental(problem, lam, "forward", np.linalg.inv(boundary_form_matrix(problem)),
                        want_dlambda, x_grid, _ALL_COLUMNS if states is None else states)


def fundamental_S(problem: ProblemSpec, lam, x_grid=None) -> FundamentalMatrix:
    """Solutions S_k with V_s(S_k) = delta_sk; identity data at x=1."""
    return _fundamental(problem, lam, "backward", np.eye(4, dtype=complex), False, x_grid,
                        _ALL_COLUMNS)
