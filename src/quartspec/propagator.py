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

Lambda-derivatives are obtained by co-integrating the variational system
J' = (F + Lambda) J + E41 Y, and quadratures of the form int y_i y_j dx
by appending scalar states sharing the integrator's error control.

propagate takes lam as one value, or one per column.  fundamental_C and
fundamental_S take one lambda or a batch of N as one solve with one step
sequence (the 4 x 4 initial matrix tiled N times, each lambda repeated per
column of its tile); values and dlambda are (len(xs), 4, 4) or (len(xs), N,
4, 4), and det_drift is the largest over the batch.  DOP853 bounds the RMS
error of the whole state, so ode_rel and ode_abs are divided by sqrt(N);
rtol is then held at DOP853's floor of 100 eps (2.2e-14), which scipy would
otherwise apply itself with a UserWarning, so a batch with ode_rel / sqrt(N)
below it is integrated at the floor.  The backward direction serves only
fundamental_S: every Delta_jk comes from the end values of the forward
fundamental_C (see weyl).

One propagation is one DOP853 run stepped mesh segment by mesh segment (p
and q are polynomials on each): only the first segment probes for its
initial step, and each later one starts with the step the controller last
proposed, clipped to the segment length (Hairer, Norsett & Wanner, Solving
ODEs I, II.4).  Output points come from the dense output of the step that
passes them.  On a single segment this is the step sequence, and the
values, of one solve_ivp call.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy.integrate import DOP853

from .problem import ProblemSpec, boundary_form_matrix, horner


# scipy's floor for rtol, which it would apply itself with a UserWarning
RTOL_FLOOR = 100 * np.finfo(float).eps


class PropagationError(RuntimeError):
    pass


class _DOP853(DOP853):
    """DOP853 without the reference cycle of scipy's OdeSolver, whose fun and
    fun_vectorized close over the solver: a spent solver and its stage arrays
    are freed with its segment, not when cyclic gc next runs."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.fun = self.fun_vectorized = self._fun


@dataclass
class FundamentalMatrix:
    """Trajectory of a 4 x k solution matrix over a grid of x values, or of
    a 4 x 4 one at each lambda of a batch."""

    xs: np.ndarray            # ascending grid, includes both endpoints
    values: np.ndarray        # shape (len(xs), 4, k), or (len(xs), N, 4, 4)
    dlambda: np.ndarray | None = None   # same shape, entrywise d/dlambda
    quadratures: dict | None = None     # (i, j) -> int_0^1 y_i y_j dx
    det_drift: float = 0.0    # fundamental_C and fundamental_S only

    @property
    def start(self):
        return self.values[0]

    @property
    def end(self):
        return self.values[-1]


def propagate(problem: ProblemSpec, lam, direction="forward", init=None,
              want_dlambda=False, quad_pairs=None, x_grid=None) -> FundamentalMatrix:
    """Integrate the system for a 4 x k initial matrix.

    lam is one spectral parameter for every column, or one per column (a
    lambda batch, or a Lagrange-identity check across two).  direction
    'forward' starts the init data at x=0, 'backward' at x=1.  quad_pairs is
    a list of column index pairs (i, j); for each, the scalar
    int_0^1 y_i(x) y_j(x) dx is accumulated alongside the trajectory.
    """
    if init is None:
        init = np.eye(4, dtype=complex)
    Y0 = np.asarray(init, dtype=complex)
    if Y0.ndim == 1:
        Y0 = Y0.reshape(4, 1)
    ncols = Y0.shape[1]
    lams = np.broadcast_to(np.asarray(lam, dtype=complex).ravel(), ncols)
    if not np.all(np.isfinite(lams)):
        raise PropagationError("non-finite lambda")

    quad_pairs = list(quad_pairs or [])
    nq = len(quad_pairs)
    qi, qj = np.array(quad_pairs, dtype=int).reshape(nq, 2).T
    nz = 2 if want_dlambda else 1       # Y, and its lambda-jet J
    ny = 4 * ncols
    shrink = np.sqrt(len(np.unique(lams)))   # 1 for a single lambda
    rtol = max(problem.tolerances.ode_rel / shrink, RTOL_FLOOR)
    atol = problem.tolerances.ode_abs / shrink

    def rhs(pieces, x, state):   # pieces of p and q on the mesh segment
        p0, pc, q0, qc = pieces
        px, qx = horner(pc, x - p0), horner(qc, x - q0)
        Z = state[:nz * ny].reshape(nz, 4, ncols)
        out = np.empty_like(state)
        dZ = out[:nz * ny].reshape(nz, 4, ncols)
        dZ[:, 0] = Z[:, 1]
        dZ[:, 1] = Z[:, 2]
        dZ[:, 2] = px * Z[:, 1] + Z[:, 3]
        dZ[:, 3] = (lams - qx) * Z[:, 0]
        if want_dlambda:
            dZ[1, 3] += Z[0, 0]
        if nq:
            out[nz * ny:] = Z[0, 0, qi] * Z[0, 0, qj]
        return out

    state = np.concatenate([Y0.ravel(), np.zeros((nz - 1) * ny + nq, dtype=complex)])

    grid = np.union1d(np.linspace(0.0, 1.0, 17) if x_grid is None else
                      np.asarray(x_grid, float), problem.breakpoints)
    nodes = problem.breakpoints
    if direction == "backward":
        seg_order = range(len(nodes) - 2, -1, -1)
    elif direction == "forward":
        seg_order = range(len(nodes) - 1)
    else:
        raise ValueError(f"unknown direction {direction!r}")
    sign = 1.0 if direction == "forward" else -1.0

    xs_out = [nodes[0] if direction == "forward" else nodes[-1]]
    states_out = [state]
    # the controller's last proposal before a breakpoint clipped the step:
    # each segment after the first starts with it instead of a new probe
    h = None
    for si in seg_order:
        x0, x1 = float(nodes[si]), float(nodes[si + 1])
        if direction == "backward":
            x0, x1 = x1, x0
        interior = grid[(grid > min(x0, x1) + 1e-15) & (grid < max(x0, x1) - 1e-15)]
        t_eval = np.concatenate([interior[::int(sign)], [x1]])
        pieces = problem.p.piece(x0, x1) + problem.q.piece(x0, x1)
        solver = _DOP853(partial(rhs, pieces), x0, state, x1, rtol=rtol, atol=atol,
                         first_step=None if h is None else min(h, abs(x1 - x0)))
        done = 0
        while solver.status == "running":
            h = solver.h_abs
            message = solver.step()
            if solver.status == "failed":
                raise PropagationError(f"integration failed near x={solver.t}: {message}")
            reached = done + np.searchsorted(sign * t_eval[done:], sign * solver.t, side="right")
            if reached > done:
                xs_out.extend(t_eval[done:reached])
                states_out.extend(solver.dense_output()(t_eval[done:reached]).T)
                done = reached
        state = solver.y
        if not np.all(np.isfinite(state)):
            raise PropagationError(f"non-finite state at x={x1}")

    xs_out = np.asarray(xs_out)
    states_out = np.asarray(states_out)
    order = np.argsort(xs_out)
    xs_out = xs_out[order]
    states_out = states_out[order]

    values = states_out[:, :ny].reshape(-1, 4, ncols)
    dlam = states_out[:, ny:2 * ny].reshape(-1, 4, ncols) if want_dlambda else None
    quads = None
    if nq:
        qfinal = states_out[-1 if direction == "forward" else 0, -nq:]
        quads = {pair: complex(sign * qfinal[k]) for k, pair in enumerate(quad_pairs)}

    return FundamentalMatrix(xs=xs_out, values=values, dlambda=dlam, quadratures=quads)


def _fundamental(problem, lam, direction, init, want_dlambda, x_grid) -> FundamentalMatrix:
    """The 4 x 4 `init` propagated at one lambda or at each of a batch, in one
    solve; fields (len(xs),) + lam.shape + (4, 4), det_drift over the batch."""
    lam = np.asarray(lam, dtype=complex)
    res = propagate(problem, np.repeat(lam.ravel(), 4), direction, np.tile(init, lam.size),
                    want_dlambda=want_dlambda, x_grid=x_grid)

    def per_lambda(a):   # (len(xs), 4, 4N): row, then lambda-major columns
        return np.moveaxis(a.reshape(len(a), 4, *lam.shape, 4), 1, -2)

    values = per_lambda(res.values)
    drift = np.max(np.abs(np.linalg.det(values) - np.linalg.det(init)))
    return FundamentalMatrix(xs=res.xs, values=values, det_drift=float(drift),
                             dlambda=per_lambda(res.dlambda) if want_dlambda else None)


def fundamental_C(problem: ProblemSpec, lam, want_dlambda=False, x_grid=None) -> FundamentalMatrix:
    """Solutions C_k with U_s(C_k) = delta_sk; initial matrix U^{-1} at x=0."""
    U = boundary_form_matrix(problem, "left")
    return _fundamental(problem, lam, "forward", np.linalg.inv(U), want_dlambda, x_grid)


def fundamental_S(problem: ProblemSpec, lam, x_grid=None) -> FundamentalMatrix:
    """Solutions S_k with V_s(S_k) = delta_sk; identity data at x=1."""
    return _fundamental(problem, lam, "backward", np.eye(4, dtype=complex), False, x_grid)


def propagate_pair(problem: ProblemSpec, lam, mu, y0, z0):
    """Propagate y at lam and z at mu jointly; returns (y_traj, z_traj, int y z dx).

    The solutions are carried as columns of one augmented system so the
    cross quadrature shares the integrator's error control.
    """
    init = np.column_stack([np.asarray(y0, complex), np.asarray(z0, complex)])
    res = propagate(problem, [lam, mu], "forward", init, quad_pairs=[(0, 1)])
    return res.values[:, :, 0], res.values[:, :, 1], res.quadratures[(0, 1)]
