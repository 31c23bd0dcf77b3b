"""Zeros of the characteristic functions Delta_jk.

The zeros of Delta_jk are the eigenvalues of the boundary problem obtained
by pairing the left-end forms U_1..U_{k-1}, U_j with the right-end forms
V_1..V_{4-k}.  The zeros of Delta_22 are the eigenvalues of the main
problem; the zero sets of Delta_22, Delta_32, Delta_42 are the three
Barcilon spectra.

Real-axis search scans in rho = |lambda|^(1/4) (zeros are near-uniform in
rho, about pi apart), one batched solve per chunk.  The first chunk spans
max_count + 1/4 zero spacings and five points more, and each next one
twice the last, so the first n zeros of Delta_22 take one scan solve (on
the beam, those of Delta_32 and Delta_42 too), and no chunk is solved once
the brackets asked for are in hand.  A Taylor
step costs about the same whatever the width of its batch, and a chunk
takes the steps of its largest lambda, so a wide chunk costs about what one
chunk at its far end costs.  Where a chunk raises PropagationError (its far
end past where the wedge overflows), the scan goes back to chunks of one
spacing (_SCAN_CHUNK points) from that chunk's start and stays there, so it
fails only where one such chunk fails.  A pair of samples (a, b) in scan
order opens a bracket where both are finite and Delta changes sign, or
Delta(a) is exactly 0: one array test over a solved chunk and the last five
samples before it; the brackets are polished with Newton in lockstep (one
batched solve of the variationally computed derivative per iteration).  Every
search solves, through fundamental_C, one state per lambda, the state its
Delta is an entry of (weyl._ENTRIES), alone: minus row 0 of the 2-wedge of
the selector's two C columns for a Delta_j2 (C3 ^ C4, C2 ^ C4, C3 ^ C2),
and +-row 0 of one C column at x = 1 for any other Delta.  The real scan
and a winding ring read it from _samples, the polish from _jets, with its
jet, each by weyl._entry.  A batch takes the steps of its largest lambda,
so a root moves with its batch within the integration tolerance: on
the beam a Delta_32 zero polished alone and in the batch of the first ten
differ by 2.5e-12 (rho ~ 10), 1.9e-11 (rho ~ 20) and 4.7e-11 (rho ~ 29),
relative, a Delta_22 zero by at most 5e-14.  Only a Delta_22 polish also
solves C and the wedges of Delta_32 and Delta_42 (weyl._M_WEDGE), stacked
with its own, with the jets of all three and the second jet of its own,
for weight_numbers and weights.weight_matrix_near.  A scan carries no jet.
No search forms a determinant, whose cancellation
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
the one driver of Newton on Delta, with the solve of its accepted
evaluation (Zero.C) and the result of its one simplicity_check, which
judges the zero against the weighted norm of the state in that C;
weight_numbers trusts them all.  No search takes a scale: each judges
Delta against values at its own lambda.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from math import isfinite

import numpy as np

from .problem import ProblemSpec, _sorted_unique, horner
from .propagator import _ALL_COLUMNS, FundamentalMatrix, PropagationError, fundamental_C
from .weyl import _ENTRIES, _M_WEDGE, _entry, _minor_norm

SIMPLICITY_FLOOR = 1e-6
RHO_SCAN_STEP = 0.05
# grid points of about one zero spacing (pi in rho); after a scan solve that
# raises PropagationError the scan goes on in solves of this size
_SCAN_CHUNK = int(np.ceil(np.pi / RHO_SCAN_STEP))
# the first scan solve takes (max_count + _SCAN_LEAD) _SCAN_CHUNK points and 5
# more, which from rho = 0 reach four neighbours past (max_count + _SCAN_LEAD) pi,
# each next one twice the last: on the beam the n-th zero of Delta_22,
# Delta_32 and Delta_42 lies near (n - 1/2) pi, (n + 1/4) pi and n pi in rho
_SCAN_LEAD = 0.25
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
# the jet run per lambda of a Delta_22 polish (propagator._fundamental):
# the jets of the wedges _M_WEDGE (states 4 to 6, after C's columns) and of
# the first of those jets, the second lambda-Taylor coefficient of Delta_22
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
    # the fundamental_C solve at x = 0 and 1 of the accepted Newton
    # evaluation (_jets), whose ends weyl._entry reads; not carried by a copy
    C: FundamentalMatrix | None = field(default=None, init=False, repr=False, compare=False)


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
    """(Delta, dDelta, C) of the selected pair at each lambda, C its one
    fundamental_C solve at that lambda; if it fails, lambda by lambda, each
    PropagationError in its lambda's place.  The solve is _samples' with the
    jet, but for Delta_22: C's columns and the wedges _M_WEDGE with the jet
    run _J2_RUN, read by weight_numbers and weights.weight_matrix_near."""
    states, run = ((_ALL_COLUMNS + _M_WEDGE, _J2_RUN) if selector == (2, 2)
                   else ([_ENTRIES[selector][1]], True))
    try:
        C = fundamental_C(problem, lams, run, x_grid=[0.0, 1.0], states=states)
        value, jets, _ = _entry(C.ends, selector)
        return [(v, dv, FundamentalMatrix(xs=C.xs, values=C.values[:, i],
                                          ends={c: e[:, i] for c, e in C.ends.items()}))
                for i, (v, dv) in enumerate(zip(value.tolist(), jets[0].tolist()))]
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
                lam, _, dval, C = stop.value
                out[i] = z = Zero(lam, selector, 1, complex(dval))
                z.C = C
                z.multiplicity_estimate = 1 if simplicity_check(z) else 2
                del todo[i]
            except (PropagationError, SearchError) as exc:
                out[i] = exc
                del todo[i]
    return out


def _samples(problem, selector, lams):
    """Delta_selector at each of lams, read by weyl._entry at x = 1 from one
    fundamental_C solve of the state it is an entry of per lambda, alone."""
    states = [_ENTRIES[selector][1]]
    return _entry(fundamental_C(problem, lams, x_grid=[0.0, 1.0], states=states).ends,
                  selector)[0]


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
    pts = [a, b] + [p for p in near if isfinite(p[1])]
    s = [np.sign(lam) * abs(lam) ** 0.25 for lam, _ in pts]
    u = (np.array(s) - 0.5 * (s[0] + s[1])) / (s[1] - s[0])  # a at -1/2, b at 1/2
    # ascending, for horner, which makes the multiply-adds of numpy's polyval in
    # their order, on Python numbers: one Newton iterate makes no numpy call
    coef = np.linalg.solve(np.vander(u), [f for _, f in pts])[::-1].tolist()
    dcoef = [k * c for k, c in enumerate(coef)][1:]
    newton = _newton(fa / (fa - fb) - 0.5, bracket=(-0.5, 0.5, fa))
    x = next(newton)
    try:
        while True:
            x = newton.send((horner(coef, x.real).real, horner(dcoef, x.real).real))
    except StopIteration as stop:
        u0 = stop.value[0].real
    s0 = 0.5 * (s[0] + s[1]) + u0 * (s[1] - s[0])
    return float(np.clip(np.sign(s0) * s0 ** 4, min(la, lb), max(la, lb)))


def find_real_zeros(problem: ProblemSpec, selector, region, max_count=100) -> list:
    """All real zeros of Delta_selector in region = (xmin, xmax), sorted ascending.

    The grid is scanned (up from xmin, or out from 0 if xmax <= 0) one chunk
    per solve, the first of max_count + _SCAN_LEAD zero spacings and each
    next twice the last, until there are brackets for max_count zeros; the
    first in scan order are polished in lockstep, each from the
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
        # when the caller asks past the brackets already met.  The first chunk
        # spans max_count + _SCAN_LEAD zero spacings and each next one twice
        # the last, until one raises PropagationError: the scan then goes
        # back to _SCAN_CHUNK points from that chunk's start and stays there,
        # so it fails only where a chunk of _SCAN_CHUNK points fails
        # the previous chunk's last five samples, a bracket's first sample and
        # its four neighbours before it across the chunk boundary: no lambda twice
        tail_lam = tail_f = np.empty(0)
        start, size, grow = 0, int(np.ceil((max_count + _SCAN_LEAD) * _SCAN_CHUNK)) + 5, 2
        while start < len(lams):
            chunk = lams[start:start + size]
            try:
                value = _samples(problem, selector, chunk)
            except PropagationError:
                if size == _SCAN_CHUNK:
                    raise
                size, grow = _SCAN_CHUNK, 1
                continue
            start, size = start + size, grow * size
            # the pairs (a, b) of the tail and the chunk, tested at once: a root
            # lies between a and b, or at a when fa = 0
            lam, f = np.append(tail_lam, chunk), np.append(tail_f, value.real)
            fa, fb = f[:-1], f[1:]
            opens = (np.isfinite(fa) & np.isfinite(fb)
                     & ((fa == 0.0) | (fa < 0) & (0 < fb) | (fb < 0) & (0 < fa)))
            first = max(len(tail_lam) - 1, 0)
            for i in (first + np.flatnonzero(opens[first:])).tolist():
                (a, b), (fa_i, fb_i) = lam[i:i + 2], f[i:i + 2]
                lo, hi = max(i - 4, 0), i + 6
                near = [*zip(lam[lo:i], f[lo:i]), *zip(lam[i + 2:hi], f[i + 2:hi])]
                yield _newton(_scan_start((a, fa_i), (b, fb_i), near),
                              bracket=(a, b, fa_i) if a < b else (b, a, fb_i))
            tail_lam, tail_f = lam[-5:], f[-5:]

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
            memo.update(zip(new, _samples(problem, selector, new).tolist()))
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
    norm (weyl._minor_norm) of the state its Delta is an entry of, read from
    its C by weyl._entry: a 2-wedge's rows are the exact 2 x 2 minors, and a
    column's row r is weighted by rho^-r.  ValueError for a zero without C."""
    if zero.C is None:
        raise ValueError("{} is no searched zero of Delta_{}{}; take it from a search".format(
            zero.lam, *zero.selector))
    mag = _minor_norm(_entry(zero.C.ends, zero.selector)[2], zero.lam)
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
