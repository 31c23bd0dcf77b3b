"""Zeros of the characteristic functions Delta_jk.

The zeros of Delta_jk are the eigenvalues of the boundary problem obtained
by pairing the left-end forms U_1..U_{k-1}, U_j with the right-end forms
V_1..V_{4-k}.  The zeros of Delta_22 are the eigenvalues of the main
problem; the zero sets of Delta_22, Delta_32, Delta_42 are the three
Barcilon spectra.

Real-axis search scans in rho = |lambda|^(1/4) (zeros are near-uniform in
rho), one batched solve per chunk.  The first chunk spans about one zero
spacing and each next one twice the last, so the first n zeros take about
log2(n) + 1 scan solves, and no chunk is solved once the brackets asked for
are in hand.  A Taylor step costs about the same whatever the width of its
batch, and a chunk takes the steps of its largest lambda, so a doubled
chunk costs about what one chunk at its far end costs.
Where a doubled chunk raises PropagationError (its far end past where the
wedge overflows), the scan goes back to chunks of the first size from that
chunk's start and stays there, so it fails only where one such chunk
fails.  A pair of
samples (a, b) in scan order opens a bracket where Delta changes sign, or
where Delta(a) is exactly 0; the brackets are polished with Newton in
lockstep (one batched solve of the variationally computed derivative per
iteration).  Every search propagates one state per lambda, the state its
Delta is an entry of (weyl._ENTRIES), alone: minus row 0 of the 2-wedge of
the selector's two C columns for a Delta_j2 (C3 ^ C4, C2 ^ C4, C3 ^ C2),
and +-row 0 of one C column at x = 1 for any other Delta.  The samples of
the real scan and of a winding ring come from _samples without the jet,
the polish from _samples with it.  A batch takes the steps of its largest
lambda, so a root moves with its batch within the integration tolerance: on
the beam a Delta_32 zero polished alone and in the batch of the first ten
differ by 2.5e-12 (rho ~ 10), 1.9e-11 (rho ~ 20) and 4.7e-11 (rho ~ 29),
relative, a Delta_22 zero by at most 5e-14.  Only a Delta_22 polish also
solves C(1) and the wedges of Delta_32 and Delta_42, stacked with its own,
with the jets of all three and the second jet of its own, for
weight_numbers and weights.weight_matrix_near.  A scan carries no jet.
simplicity_check judges a zero against the weighted
norm of its state.  No search forms a determinant, whose cancellation
once stopped the scan at rho ~ 33 and made the Delta_j1 searches lose or
invent zeros; each reaches until its state overflows (rho ~ 600 for a
wedge on the beam), where the propagation raises.
Newton starts at the root inside each bracket of the polynomial through
its two samples and up to four finite scan samples on each side (degree
<= 9), taken in s = sign(lambda) |lambda|^(1/4), the variable in which the
grid is uniform (through fewer samples where a neighbour is not yet solved
or not finite).  Delta is analytic in s, so the interpolant converges
geometrically in the number of samples: a Delta_22 start on the beam and
on random real problems lies within about 4e-14 of the root, relative.
Newton never leaves its bracket and accepts an evaluated iterate once the
Newton step computed there is below REFINE_TOL (1 + |lambda|), without
solving at lambda + step, so it accepts such a start at its first solve.
A start farther off takes a second solve: one with few solved neighbours
(at a chunk's last pair), or one that carries the scan chunk's own
integration error, as Delta_32 and Delta_42 starts past rho ~ 10 do (up
to 4e-10 off).  Complex search uses the argument principle
over rectangles, split while they hold more than one zero or hold one
and are longer than NEWTON_BOX_ASPECT times their width, and the same
Newton from the centre with a batch of one; find_zero_near runs it from
a given point and stops where an iterate would leave a disc around it,
raising LeftDiscError with that iterate.  Every Zero is made in _polish,
the one driver of Newton on Delta, with the end state of its accepted
evaluation, for a Delta_22 also C(1, lambda), the three wedge values
(Delta_22, Delta_32, Delta_42) there, their jets and Delta_22'', and the
result of its one
simplicity_check; weight_numbers trusts them all.  No search takes a
scale: each judges Delta against values at its own lambda.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from .problem import ProblemSpec, _sorted_unique, boundary_form_matrix
from .propagator import PropagationError, _wedges, fundamental_C, propagate
from .weyl import _ENTRIES, _entry, _minor_norm

SIMPLICITY_FLOOR = 1e-6
RHO_SCAN_STEP = 0.05
# grid points of the first batched scan solve, about one zero spacing (pi in
# rho); each next solve takes twice the last, and after a doubled solve that
# raises PropagationError the scan goes on in solves of this size
_SCAN_CHUNK = int(np.ceil(np.pi / RHO_SCAN_STEP))
# Newton accepts once a step is below this fraction of 1 + |lambda|
REFINE_TOL = 1e-12
NEWTON_MAX_ITER = 40
# boundary samples per rectangle side before the first winding-number doubling
WINDING_SIDE_SAMPLES = 32
# a rectangle holding one zero is split along its longer side until that side
# is at most this many times the shorter, before Newton starts at its centre
NEWTON_BOX_ASPECT = 2.0
# find_first_zeros scans up from here, just above lambda = 0
FIRST_ZEROS_START = 1e-6
# the selectors whose wedges a Delta_22 polish carries, in wedge_deltas order
_J2 = ((2, 2), (3, 2), (4, 2))
# its jet run per lambda (propagator._fundamental): the jets of the three
# wedges (states 4 to 6, after C's columns) and of the first of those jets,
# the second lambda-Taylor coefficient of Delta_22's wedge
_J2_RUN = slice(4, 8)


class SearchError(RuntimeError):
    pass


class LeftDiscError(SearchError):
    """find_zero_near: a Newton iterate left the disc; lam is that iterate."""

    def __init__(self, lam, lam0, radius):
        self.lam = lam
        super().__init__(f"Newton from {lam0} left the disc of radius {radius:.3e} "
                         f"at lambda={lam}")


@dataclass
class Zero:
    lam: complex
    selector: tuple
    multiplicity_estimate: int
    ddelta: complex
    # the state at x = 1 of the accepted Newton evaluation whose row 0 is
    # Delta up to sign: a C column (4 rows) or a 2-wedge (6 rows), _ENTRIES
    end_state: np.ndarray = field(repr=False, compare=False)
    # C(1, lambda) of that evaluation, (Delta_22, Delta_32, Delta_42) there
    # from its wedges, their jets, and Delta_22'' from the second jet of its
    # wedge; set by the polish of a Delta_22 only, and not carried by a copy
    end_values: np.ndarray | None = field(default=None, init=False, repr=False,
                                          compare=False)
    wedge_deltas: np.ndarray | None = field(default=None, init=False, repr=False,
                                            compare=False)
    wedge_dlambda: np.ndarray | None = field(default=None, init=False, repr=False,
                                             compare=False)
    d2delta: complex | None = field(default=None, init=False, repr=False, compare=False)


@dataclass
class BarcilonData:
    s12: list = field(default_factory=list)
    s13: list = field(default_factory=list)
    s23: list = field(default_factory=list)


def _newton(lam0, bracket=None, radius=None):
    """Safeguarded Newton; bracket (lo, hi, Re Delta(lo)) is kept if supplied.
    A coroutine: it yields each lambda to evaluate, receives (Delta, dDelta,
    *carried) there, and returns the best lambda with its evaluation,
    (lambda, Delta, dDelta, *carried).

    The step -Delta/dDelta is computed at each evaluated iterate and accepted
    when below REFINE_TOL (1 + |lambda|): lambda + step is not evaluated.  A
    step out of the bracket goes to its midpoint instead.  The search also
    stops where dDelta vanishes or |Delta| has not decreased for three
    iterates.  It returns the best iterate seen; without a bracket, only if
    |Delta| there is below 1e-6 |Delta(lam0)| or |Delta/dDelta| is below
    1e-9 (1 + |lambda|).  With a radius, an iterate outside |lambda - lam0|
    < radius raises LeftDiscError carrying it, before it is yielded.
    """
    lam = lam0 = complex(lam0)
    lo, hi, flo = bracket if bracket is not None else (None, None, None)
    best, stall = None, 0
    for _ in range(NEWTON_MAX_ITER):
        if radius is not None and not abs(lam - lam0) < radius:
            raise LeftDiscError(lam, lam0, radius)
        val, dval, *carried = yield lam
        if best is None:
            val0 = val
        if bracket is not None:
            # the scan's sign test: flo * Re Delta overflows far out (rho ~ 587)
            if flo < 0 < val.real or val.real < 0 < flo:
                hi = lam.real
            else:
                lo = lam.real
                flo = val.real
        if best is None or abs(val) < abs(best[1]):
            best = (lam, val, dval, *carried)
            stall = 0
        else:
            stall += 1
        if stall >= 3 or not abs(dval) > 1e-300:   # stalled, or no slope to step on
            break
        step = -val / dval
        if abs(step) < REFINE_TOL * (1 + abs(lam)):
            break
        lam = lam + step
        if bracket is not None and not (lo < lam.real < hi):
            lam = complex(0.5 * (lo + hi))
    lam, val, dval = best[:3]
    if bracket is None and abs(val) > 1e-6 * abs(val0):
        # residual alone may sit above the noise floor at large |lambda|;
        # accept anyway when the implied root error |Delta/Delta'| is tiny
        err = abs(val / dval) if dval != 0 else np.inf
        if err > 1e-9 * (1 + abs(lam)):
            raise SearchError(f"refinement stalled at lambda={lam}, "
                              f"|Delta| = {abs(val):.2e} vs {abs(val0):.2e} at the start")
    return best


def _jets(problem, selector, lams):
    """(Delta, dDelta, end state, C(1, lambda), wedge Taylor table) of the
    selected pair at each lambda, in one solve; if it fails, lambda by
    lambda, each PropagationError in its lambda's place.  For every
    selector but Delta_22 the solve is _samples' with the jet, one state per
    lambda, with no C(1) or table (None).  A Delta_22 polish solves C with
    the 2-wedges of the columns of Delta_22, Delta_32 and Delta_42 and the
    jet run _J2_RUN, which weight_numbers and weights.weight_matrix_near
    read: each Delta_j2 and its jets are read by weyl._entry, the table
    holds their lambda-Taylor coefficients (order, Delta_j2), of order 2
    for Delta_22 alone (NaN for the others), and the end state is the wedge
    of Delta_22."""
    try:
        if selector == (2, 2):
            wedge = [_ENTRIES[jk][1] for jk in _J2]
            C = fundamental_C(problem, lams, _J2_RUN, x_grid=[0.0, 1.0], wedge=wedge)
            reads = [_entry(C, jk, wedge) for jk in _J2]
            table = np.stack([np.concatenate([v[None], j]) for v, j, _ in reads], axis=-1)
            value, jets, state = reads[0]
            return list(zip(value.tolist(), jets[0].tolist(), state, C.end,
                            np.moveaxis(table, 1, 0)))
        value, jet, end = _samples(problem, selector, lams, jet=True)
        return list(zip(value.tolist(), jet.tolist(), end.T, [None] * len(lams),
                        [None] * len(lams)))
    except PropagationError as exc:
        if len(lams) == 1:
            return [exc]
        return [_jets(problem, selector, [lam])[0] for lam in lams]


def _polish(problem, selector, newtons):
    """Drive _newton coroutines in lockstep, one _jets batch per iteration
    over those still running; per coroutine the Zero it reaches (simple by
    simplicity_check), or the PropagationError or SearchError that ended
    it.  No other code makes a Zero."""
    out = [None] * len(newtons)
    todo = {i: next(g) for i, g in enumerate(newtons)}
    while todo:
        for i, jet in zip(list(todo), _jets(problem, selector, list(todo.values()))):
            try:
                if isinstance(jet, Exception):
                    raise jet
                todo[i] = newtons[i].send(jet)
            except StopIteration as stop:
                lam, _, dval, end_state, end, table = stop.value
                out[i] = z = Zero(lam=lam, selector=selector, multiplicity_estimate=1,
                                  ddelta=complex(dval), end_state=end_state)
                z.end_values = end
                if table is not None:
                    z.wedge_deltas, z.wedge_dlambda = table[0], table[1]
                    z.d2delta = complex(2 * table[2, 0])
                z.multiplicity_estimate = 1 if simplicity_check(z) else 2
                del todo[i]
            except (PropagationError, SearchError) as exc:
                out[i] = exc
                del todo[i]
    return out


def _samples(problem, selector, lams, jet):
    """Delta_selector at each of lams, its jet (None without `jet`) and the
    end state it is read from, (rows, len(lams)), in one solve of that one
    state per lambda, propagated alone: sign times row 0 of the 2-wedge of
    its two C columns (6 rows) or of its one C column (4 rows) at x = 1, as
    _ENTRIES gives.  Neither forms a determinant."""
    lams = np.asarray(lams, dtype=complex)
    sign, cols = _ENTRIES[selector]
    Uinv = np.linalg.inv(boundary_form_matrix(problem))
    i = np.subtract(cols, 1)
    init = Uinv[:, i] if len(i) == 1 else _wedges(Uinv, i[:1], i[1:])
    res = propagate(problem, lams, "forward", np.tile(init, lams.size), want_dlambda=jet,
                    x_grid=[0.0, 1.0])
    return sign * res.end[0], (sign * res.dlambda[-1, 0] if jet else None), res.end


def _scan_start(a, b, near):
    """Newton's start in the scan bracket between the samples a = (lambda,
    Delta) and b: the root in it of the polynomial through a, b and the
    finite samples of `near`, taken in s = sign(lambda) |lambda|^(1/4), the
    variable in which the scan grid is uniform, centred on the bracket.
    That is degree 9 through the ten nearest samples, four on each side of
    the bracket, and the secant of a and b in s with no finite neighbour; a
    itself when Delta(a) = 0.  The root is found by _newton inside the
    bracket, from that secant point."""
    (la, fa), (lb, fb) = a, b
    if fa == 0.0:
        return la
    pts = [a, b] + [p for p in near if np.isfinite(p[1])]
    s = [np.sign(lam) * abs(lam) ** 0.25 for lam, _ in pts]
    u = (np.array(s) - 0.5 * (s[0] + s[1])) / (s[1] - s[0])  # a at -1/2, b at 1/2
    coef = np.linalg.solve(np.vander(u), [f for _, f in pts])
    dcoef = np.polyder(coef)
    newton = _newton(fa / (fa - fb) - 0.5, bracket=(-0.5, 0.5, fa))
    x = next(newton)
    try:
        while True:
            x = newton.send((np.polyval(coef, x.real), np.polyval(dcoef, x.real)))
    except StopIteration as stop:
        u0 = stop.value[0].real
    s0 = 0.5 * (s[0] + s[1]) + u0 * (s[1] - s[0])
    return float(np.clip(np.sign(s0) * s0 ** 4, min(la, lb), max(la, lb)))


def find_real_zeros(problem: ProblemSpec, selector, region, max_count=100) -> list:
    """All real zeros of Delta_selector in region = (xmin, xmax), sorted ascending.

    The grid is scanned (up from xmin, or out from 0 if xmax <= 0) one chunk
    per solve, each twice the last, until there are brackets for max_count
    zeros; the first in scan order are polished in lockstep, each from the
    root of the interpolant through up to ten scan samples around it (one
    solve where that start is within REFINE_TOL), and dropped ones resume
    the scan.  Raises ValueError unless xmin < xmax."""
    xmin, xmax = region
    if not xmin < xmax:
        raise ValueError(f"empty window: xmin = {xmin!r} is not below xmax = {xmax!r}")
    if not problem.is_real:
        raise SearchError("Delta is not real on the real axis for this problem; "
                          "use find_complex_zeros")
    selector = tuple(selector)

    # scan positions uniform in rho = |lambda|^{1/4}, both signs of lambda
    lams = []
    if xmin < 0:
        r = np.arange(0.0, (-xmin) ** 0.25 + RHO_SCAN_STEP, RHO_SCAN_STEP)
        lams.extend((-(r ** 4))[::-1])
    if xmax > 0:
        r = np.arange(0.0, xmax ** 0.25 + RHO_SCAN_STEP, RHO_SCAN_STEP)
        lams.extend(r ** 4)
    lams = _sorted_unique(np.clip(lams, xmin, xmax))[:: -1 if xmax <= 0 else 1]

    def brackets():
        # a Newton coroutine per bracket in scan order; a chunk is solved only
        # when the caller asks past the brackets already met.  Each chunk is
        # twice the last, until one raises PropagationError: the scan then
        # goes back to _SCAN_CHUNK points from that chunk's start and stays
        # there, so it fails only where a chunk of _SCAN_CHUNK points fails
        # the previous chunk's last five samples, a bracket's first sample and
        # its four neighbours before it across the chunk boundary: no lambda twice
        tail = []
        start, size, grow = 0, _SCAN_CHUNK, 2
        while start < len(lams):
            chunk = lams[start:start + size]
            try:
                value = _samples(problem, selector, chunk, jet=False)[0]
            except PropagationError:
                if size == _SCAN_CHUNK:
                    raise
                size, grow = _SCAN_CHUNK, 1
                continue
            start, size = start + size, grow * size
            samples = tail + list(zip(chunk, value.real))
            for i in range(max(len(tail) - 1, 0), len(samples) - 1):
                (a, fa), (b, fb) = samples[i:i + 2]
                if not (np.isfinite(fa) and np.isfinite(fb)):
                    continue
                if fa == 0.0 or fa < 0 < fb or fb < 0 < fa:
                    # a root lies between a and b, or at a when fa = 0
                    near = samples[max(i - 4, 0):i] + samples[i + 2:i + 6]
                    yield _newton(_scan_start((a, fa), (b, fb), near),
                                  bracket=(a, b, fa) if a < b else (b, a, fb))
            tail = samples[-5:]

    # the brackets are disjoint and no iterate leaves its own: each root once
    zeros = []
    pending = brackets()
    while batch := list(islice(pending, max_count - len(zeros))):
        for z in _polish(problem, selector, batch):
            if isinstance(z, Zero):
                z.lam = complex(z.lam.real)
                zeros.append(z)
    # sorted: a window below 0 is scanned outward from 0
    return sorted(zeros, key=lambda z: z.lam.real)


def _winding_number(ring, re0, re1, im0, im1):
    """Winding of Delta along the rectangle boundary, by phase unwrapping.

    ring maps boundary points to Delta values.  The sampling is doubled until
    the unwrapped phase is step-wise safe (no single increment close to pi).
    A doubling samples only the new midpoints; the first value closes the loop.
    """
    corners = [complex(re0, im0), complex(re1, im0), complex(re1, im1), complex(re0, im1)]

    def boundary(n):
        # n per side, counter-clockwise; for n = 2^k bitwise the even points of boundary(2n)
        t = np.linspace(0, 1, n, endpoint=False)
        return np.concatenate([a + t * (b - a)
                               for a, b in zip(corners, corners[1:] + corners[:1])])

    n_per_side = WINDING_SIDE_SAMPLES
    vals = ring(boundary(n_per_side))
    while True:
        if np.any(vals == 0):
            raise SearchError("contour passes through a zero; perturb the rectangle")
        phases = np.unwrap(np.angle(np.append(vals, vals[0])))
        if np.max(np.abs(np.diff(phases))) < 2.5:
            return int(round((phases[-1] - phases[0]) / (2 * np.pi)))
        n_per_side *= 2
        if n_per_side > 4096:
            raise SearchError("winding number did not stabilize under sampling refinement")
        mids = ring(boundary(n_per_side)[1::2])
        vals = np.column_stack([vals, mids]).ravel()


def _ring_fun(problem, selector):
    """zs -> Delta_selector at zs; unseen points in one batch, memo per
    search, and no solve when every point is seen."""
    memo = {}

    def ring(zs):
        zs = zs.tolist()
        new = [z for z in dict.fromkeys(zs) if z not in memo]
        if new:
            memo.update(zip(new, _samples(problem, selector, new, jet=False)[0].tolist()))
        return np.array([memo[z] for z in zs])

    return ring


def find_complex_zeros(problem: ProblemSpec, selector, region, max_count=100) -> list:
    """Zeros in the rectangle region = (re0, re1, im0, im1), by the argument principle."""
    selector = tuple(selector)
    zeros = _complex_zeros(problem, selector, region, _ring_fun(problem, selector), 0)
    return zeros[:max_count]


def _complex_zeros(problem, selector, region, ring, depth):
    """All zeros in the rectangle `region`, subdividing while the winding is
    above 1, or is 1 in a rectangle longer than NEWTON_BOX_ASPECT times its
    width, so that Newton starts near the zero; ring is the search's memo
    of Delta on rectangle boundaries.  Depth 8 stops only the splits of a
    box above winding 1: its zero is taken as one of that multiplicity."""
    re0, re1, im0, im1 = region
    w = _winding_number(ring, re0, re1, im0, im1)
    if w == 0:
        return []
    wide, tall = re1 - re0, im1 - im0
    if (w == 1 and max(wide, tall) <= NEWTON_BOX_ASPECT * min(wide, tall)
            or w > 1 and depth >= 8):
        center = complex(0.5 * (re0 + re1), 0.5 * (im0 + im1))
        z, = _polish(problem, selector, [_newton(center)])
        if isinstance(z, Exception):
            raise z
        if w > 1:
            z.multiplicity_estimate = w
        return [z]
    # split the longer side, nudging the cut line to avoid landing on a zero
    zeros = []
    if wide >= tall:
        mid = 0.5 * (re0 + re1) + 1e-3 * (re1 - re0)
        boxes = [(re0, mid, im0, im1), (mid, re1, im0, im1)]
    else:
        mid = 0.5 * (im0 + im1) + 1e-3 * (im1 - im0)
        boxes = [(re0, re1, im0, mid), (re0, re1, mid, im1)]
    for box in boxes:
        zeros.extend(_complex_zeros(problem, selector, box, ring, depth + 1))
    if sum(z.multiplicity_estimate for z in zeros) != w:
        raise SearchError(f"winding count {w} does not match {len(zeros)} refined zeros")
    zeros.sort(key=lambda z: (z.lam.real, z.lam.imag))
    return zeros


def find_zero_near(problem: ProblemSpec, selector, lam0, radius) -> Zero:
    """The zero of Delta_selector that Newton from lam0 reaches with every
    iterate in |lambda - lam0| < radius.  Raises LeftDiscError with the
    first iterate outside (lam0 - Delta/Delta' after one solve if the first
    step leaves), or the PropagationError or SearchError that ends it inside."""
    z, = _polish(problem, tuple(selector), [_newton(lam0, radius=radius)])
    if isinstance(z, Exception):
        raise z
    return z


def simplicity_check(zero: Zero) -> bool:
    """True iff the zero is simple: |dDelta| (1 + |lambda|) strictly above
    SIMPLICITY_FLOOR times the magnitude of Delta at the zero, the weighted
    norm (weyl._minor_norm) of the state its Delta is an entry of, its
    end_state: a 2-wedge's rows are the exact 2 x 2 minors, and a column's
    row r is weighted by rho^-r."""
    mag = _minor_norm(zero.end_state, zero.lam, len(_ENTRIES[zero.selector][1]))
    return bool(abs(zero.ddelta) * (1 + abs(zero.lam)) > SIMPLICITY_FLOOR * mag)


def find_first_zeros(problem: ProblemSpec, selector, count) -> list:
    """First `count` real-axis zeros of Delta_selector above FIRST_ZEROS_START.

    One scan from FIRST_ZEROS_START to a cap, which stops at the count-th
    zero; it raises SearchError when the cap is reached with fewer zeros.
    """
    # the zeros are near-uniform in rho = lambda^{1/4} with spacing about pi,
    # so (pi (count+3))^4 bounds the scan; where the propagated states
    # overflow (rho ~ 600 on the beam) the propagation raises
    cap = (np.pi * (count + 3)) ** 4
    zeros = find_real_zeros(problem, selector, (FIRST_ZEROS_START, cap), max_count=count)
    if len(zeros) < count:
        raise SearchError(f"could not locate {count} zeros of Delta_{selector}")
    return zeros


def three_spectra(problem: ProblemSpec, count: int) -> BarcilonData:
    """Barcilon's three spectra: first `count` zeros of Delta_22/32/42."""
    return BarcilonData(
        s12=[z.lam for z in find_first_zeros(problem, (2, 2), count)],
        s13=[z.lam for z in find_first_zeros(problem, (3, 2), count)],
        s23=[z.lam for z in find_first_zeros(problem, (4, 2), count)],
    )
