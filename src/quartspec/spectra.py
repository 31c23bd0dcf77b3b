"""Zeros of the characteristic functions Delta_jk.

The zeros of Delta_jk are the eigenvalues of the boundary problem obtained
by pairing the left-end forms U_1..U_{k-1}, U_j with the right-end forms
V_1..V_{4-k}.  The zeros of Delta_22 are the eigenvalues of the main
problem; the zero sets of Delta_22, Delta_32, Delta_42 are the three
Barcilon spectra.

Real-axis search scans in rho = |lambda|^(1/4) (zeros are near-uniform in
rho), one batched solve per chunk of about one zero spacing.  A pair of
samples (a, b) in scan order opens a bracket where Delta changes sign above
4 fp_floor, or where Delta(a) is exactly 0; the brackets are polished with
Newton in lockstep (one batched solve of the variationally computed
derivative per iteration).  The scan forms Delta as a determinant of C(1)
(see weyl); the polish of Delta_22, Delta_32 and Delta_42 reads the value
and its jet from the 2-wedge of the selector's two C columns instead, in
the same solve as C(1) (see propagator), so a polished root carries none
of the determinant's cancellation and does not move with its batch.
Newton starts at each bracket's secant (regula falsi) point, never leaves
its bracket, and accepts an evaluated iterate once the Newton step
computed there is below REFINE_TOL (1 + |lambda|), without solving at
lambda + step: a scan bracket takes three solves.  Complex search uses the
argument principle over rectangles with recursive subdivision, and the
same Newton with a batch of one; find_zero_near runs it from a given point
and stops where an iterate would leave a disc around it, raising
LeftDiscError with that iterate.  Every Zero is made in _polish, the one
driver of Newton, with C(1, lambda) of its accepted evaluation and the
result of its one simplicity_check, which weight_numbers trusts.  No
search takes a scale: each judges Delta against values at its own lambda.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice, pairwise

import numpy as np

from .problem import ProblemSpec
from .propagator import PropagationError, fundamental_C
from .weyl import _DELTA_COLS, _assemble, _magnitude, deltas_at

SIMPLICITY_FLOOR = 1e-6
RHO_SCAN_STEP = 0.05
# grid points per batched scan solve: about one zero spacing (pi in rho)
_SCAN_CHUNK = int(np.ceil(np.pi / RHO_SCAN_STEP))
# Newton accepts once a step is below this fraction of 1 + |lambda|
REFINE_TOL = 1e-12
NEWTON_MAX_ITER = 40
# boundary samples per rectangle side before the first winding-number doubling
WINDING_SIDE_SAMPLES = 32
# find_first_zeros scans up from here, just above lambda = 0
FIRST_ZEROS_START = 1e-6


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
    # C(1, lambda) of the accepted Newton evaluation
    end_values: np.ndarray = field(repr=False, compare=False)


@dataclass
class BarcilonData:
    s12: list = field(default_factory=list)
    s13: list = field(default_factory=list)
    s23: list = field(default_factory=list)


def _newton(lam0, bracket=None, radius=None):
    """Safeguarded Newton; bracket (lo, hi, Re Delta(lo)) is kept if supplied.
    A coroutine: it yields each lambda to evaluate, receives (Delta, dDelta,
    C(1, lambda)) there, and returns the best lambda with its evaluation,
    (lambda, Delta, dDelta, C(1, lambda)).

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
        val, dval, end = yield lam
        if best is None:
            val0 = val
        if bracket is not None:
            if flo * np.real(val) < 0:
                hi = lam.real
            else:
                lo = lam.real
                flo = np.real(val)
        if best is None or abs(val) < abs(best[1]):
            best = (lam, val, dval, end)
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
    lam, val, dval, end = best
    if bracket is None and abs(val) > 1e-6 * abs(val0):
        # residual alone may sit above the noise floor at large |lambda|;
        # accept anyway when the implied root error |Delta/Delta'| is tiny
        err = abs(val / dval) if dval != 0 else np.inf
        if err > 1e-9 * (1 + abs(lam)):
            raise SearchError(f"refinement stalled at lambda={lam}, "
                              f"|Delta| = {abs(val):.2e} vs {abs(val0):.2e} at the start")
    return lam, val, dval, end


def _jets(problem, selector, lams):
    """(Delta, dDelta, C(1, lambda)) of the selected pair at each lambda, in
    one solve; if it fails, lambda by lambda, each PropagationError in its
    lambda's place.  Delta_j2 and its jet are minus row 0 of the 2-wedge of
    its two C columns, integrated in the same solve as C."""
    try:
        if selector[1] == 2:
            C = fundamental_C(problem, lams, x_grid=[0.0, 1.0], wedge=_DELTA_COLS[selector])
            return list(zip((-C.wedges[0, 0]).tolist(), (-C.wedges[1, 0]).tolist(), C.end))
        C = fundamental_C(problem, lams, want_dlambda=True, x_grid=[0.0, 1.0])
        d = _assemble(C.end, C.dlambda[-1], (selector,))[selector]
        return list(zip(d.value.tolist(), d.dvalue.tolist(), C.end))
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
                lam, _, dval, end = stop.value
                out[i] = z = Zero(lam=lam, selector=selector, multiplicity_estimate=1,
                                  ddelta=complex(dval), end_values=end)
                z.multiplicity_estimate = 1 if simplicity_check(z) else 2
                del todo[i]
            except (PropagationError, SearchError) as exc:
                out[i] = exc
                del todo[i]
    return out


def find_real_zeros(problem: ProblemSpec, selector, region, max_count=100) -> list:
    """All real zeros of Delta_selector in region = (xmin, xmax), sorted ascending.

    The grid is scanned (up from xmin, or out from 0 if xmax <= 0) one chunk
    per solve until there are brackets for max_count zeros; the first in scan
    order are polished in lockstep, and dropped ones resume the scan."""
    if not problem.is_real:
        raise SearchError("Delta is not real on the real axis for this problem; "
                          "use find_complex_zeros")
    xmin, xmax = region
    selector = tuple(selector)

    # scan positions uniform in rho = |lambda|^{1/4}, both signs of lambda
    lams = []
    if xmin < 0:
        r = np.arange(0.0, (-xmin) ** 0.25 + RHO_SCAN_STEP, RHO_SCAN_STEP)
        lams.extend((-(r ** 4))[::-1])
    if xmax > 0:
        r = np.arange(0.0, xmax ** 0.25 + RHO_SCAN_STEP, RHO_SCAN_STEP)
        lams.extend(r ** 4)
    lams = np.unique(np.clip(np.asarray(lams), xmin, xmax))[:: -1 if xmax <= 0 else 1]

    def brackets():
        # a Newton coroutine per bracket in scan order; a chunk is solved only
        # when the caller asks past the brackets already met
        last = []       # the previous chunk's last sample: no lambda twice
        for start in range(0, len(lams), _SCAN_CHUNK):
            chunk = lams[start:start + _SCAN_CHUNK]
            d = deltas_at(problem, chunk, (selector,))[selector]
            samples = last + list(zip(chunk, d.value.real, d.fp_floor))
            last = samples[-1:]
            for (a, fa, floor_a), (b, fb, floor_b) in pairwise(samples):
                if not (np.isfinite(fa) and np.isfinite(fb)):
                    continue
                if max(abs(fa), abs(fb)) <= 4.0 * max(floor_a, floor_b):
                    # cancellation noise: at large |lambda| the determinant is the
                    # difference of entry products that dwarf its true value, and a
                    # sign change there carries no information about a root
                    continue
                if fa == 0.0 or fa * fb < 0:
                    # a root lies between a and b, or at a when fa = 0 (the
                    # secant point is then a); the best iterate is accepted even
                    # when cancellation noise keeps |Delta| above the residual floor
                    yield _newton(a - fa * (b - a) / (fb - fa), bracket=(
                        (a, b, fa) if a < b else (b, a, fb)))

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
    """zs -> Delta_selector at zs; unseen points in one batch, memo per search."""
    memo = {}

    def ring(zs):
        zs = zs.tolist()
        new = [z for z in dict.fromkeys(zs) if z not in memo]
        memo.update(zip(new, deltas_at(problem, new, (selector,))[selector].value.tolist()))
        return np.array([memo[z] for z in zs])

    return ring


def find_complex_zeros(problem: ProblemSpec, selector, region, max_count=100) -> list:
    """Zeros in the rectangle region = (re0, re1, im0, im1), by the argument principle."""
    selector = tuple(selector)
    zeros = _complex_zeros(problem, selector, region, _ring_fun(problem, selector), 0)
    return zeros[:max_count]


def _complex_zeros(problem, selector, region, ring, depth):
    """All zeros in the rectangle `region`, subdividing while the winding is
    above 1; ring is the search's memo of Delta on rectangle boundaries."""
    re0, re1, im0, im1 = region
    w = _winding_number(ring, re0, re1, im0, im1)
    if w == 0:
        return []
    if w == 1 or depth >= 8:
        center = complex(0.5 * (re0 + re1), 0.5 * (im0 + im1))
        z, = _polish(problem, selector, [_newton(center)])
        if isinstance(z, Exception):
            raise z
        if depth >= 8 and w > 1:
            z.multiplicity_estimate = w
        return [z]
    # split the longer side, nudging the cut line to avoid landing on a zero
    zeros = []
    if (re1 - re0) >= (im1 - im0):
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
    SIMPLICITY_FLOOR times the magnitude of Delta in the zero's own C(1)."""
    mag = _magnitude(zero.end_values, zero.lam, zero.selector)
    return bool(abs(zero.ddelta) * (1 + abs(zero.lam)) > SIMPLICITY_FLOOR * mag)


def find_first_zeros(problem: ProblemSpec, selector, count) -> list:
    """First `count` real-axis zeros of Delta_selector above FIRST_ZEROS_START.

    One scan from FIRST_ZEROS_START to a cap, which stops at the count-th
    zero; it raises SearchError when the cap is reached with fewer zeros.
    """
    # the zeros are near-uniform in rho = lambda^{1/4} with spacing about pi,
    # so (pi (count+3))^4 bounds the scan; past that the propagated entries
    # overflow and the scan would only produce NaNs
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
