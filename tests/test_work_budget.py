"""Work budgets: each costly quantity is computed once, and only when read.

The counts come from wrapping the module bindings that the layers call, so
they check how often the work is done, not how the values come out.
"""

import inspect
import json
import sys

import numpy as np
import pytest

from quartspec import (
    CoefficientField,
    ProblemSpec,
    all_deltas,
    beam_problem,
    characteristic_delta,
    find_complex_zeros,
    find_first_zeros,
    find_real_zeros,
    laurent_coefficients,
    save_problem,
    weight_numbers,
)
from quartspec import propagator, spectra, weights, weyl
from quartspec.cli import main
from quartspec.propagator import fundamental_C

from conftest import (
    beam_eigenvalue, clamped_free_s, delta_index, determinant_floor, make_random_problem,
    make_random_real_problem,
)


def _recording(monkeypatch, module, name):
    """Replace module.name by a wrapper; returns the list of its call arguments."""
    calls = []
    orig = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append((args, kwargs))
        return orig(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def _patch_bindings(monkeypatch, orig, wrapper):
    """Replace every binding of `orig` in the quartspec modules by `wrapper`
    (modules that did `from .weyl import deltas_at` hold their own)."""
    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("quartspec"):
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    monkeypatch.setattr(mod, attr, wrapper)


def _recording_samples(monkeypatch):
    """Flat list of the lambda that reach spectra._samples, the one source
    of the real scan's and the winding ring's Delta values."""
    lams = []
    orig = spectra._samples

    def wrapper(problem, selector, batch):
        lams.extend(complex(lam) for lam in np.ravel(batch))
        return orig(problem, selector, batch)

    monkeypatch.setattr(spectra, "_samples", wrapper)
    return lams


def _counting_propagations(monkeypatch):
    """(direction, number of columns) of every propagator.propagate call."""
    calls = []
    orig = propagator.propagate

    def wrapper(problem, lam, direction="forward", init=None, *args, **kwargs):
        shape = np.shape(init) if init is not None else (4, 4)
        calls.append((direction, 1 if len(shape) == 1 else shape[1]))
        return orig(problem, lam, direction, init, *args, **kwargs)

    _patch_bindings(monkeypatch, orig, wrapper)
    return calls


def test_laurent_samples_weyl_matrix_once_per_fine_node(beam, monkeypatch):
    # the N-node rule of the doubling check reuses the even nodes of the
    # 2N-node rule: one weyl_matrix call, over the N + 1 nodes with Im >= 0
    # for a real problem around a real centre (the rest are their mirrors'
    # conjugates), over all 2N distinct nodes for a complex problem
    calls = _recording(monkeypatch, weights, "weyl_matrix")
    batches = _recording_batches(monkeypatch)
    nodes = weights.CONTOUR_NODES
    for pb, lam0, count in ((beam, beam_eigenvalue(1), nodes + 1),
                            (make_random_problem(), 30.0, 2 * nodes)):
        calls.clear()
        batches.clear()
        coeffs = laurent_coefficients(pb, lam0, (-1, 0))
        assert set(coeffs) == {-1, 0}
        assert len(calls) == 1
        sampled = [complex(lam) for lam in np.ravel(calls[0][0][1])]
        assert len(sampled) == len(set(sampled)) == count
        # every node reaches the C solve once
        lams = [lam for batch, _ in batches for lam in batch]
        assert len(lams) == count
        assert set(lams) == set(sampled)


def test_no_delta_propagates_backward(beam, monkeypatch):
    # all nine Delta_jk, with or without the jet, come from one forward solve
    # of C with the wedges of the Delta_j2, each within the floor of its
    # determinant formed from the end values of C; Delta_22
    # alone is bitwise the solve of C with its one wedge
    lam = 7.3
    end = fundamental_C(beam, lam, x_grid=[0.0, 1.0]).end
    alone = -fundamental_C(beam, lam, x_grid=[0.0, 1.0],
                           states=[(1,), (2,), (3,), (4,), (3, 4)]).ends[3, 4][0, 0]
    calls = _counting_propagations(monkeypatch)
    for jet in (True, False):
        calls.clear()
        full = all_deltas(beam, lam, want_dlambda=jet)
        assert list(full) == list(weyl.ALL_INDEX_PAIRS)
        assert calls == [("forward", 4)]
        for jk, cv in full.items():
            rows, cols = delta_index(*jk)
            det = np.linalg.det(end[np.ix_(rows, cols)])
            assert abs(cv.value - det) <= 1e-10 * abs(det) + determinant_floor(end, jk), jk
    calls.clear()
    assert characteristic_delta(beam, lam, (2, 2)).value == alone
    assert calls == [("forward", 4)]


def _recording_batches(monkeypatch):
    """(lambda batch, jet) of every fundamental_C call: a search's with the
    one state of its Delta per lambda (its jet in a polish), a Delta_22
    polish's with C's columns and the jets of the wedges of Delta_j2's
    columns."""
    calls = []
    orig = propagator.fundamental_C

    def wrapper(problem, lams, want_dlambda=False, x_grid=None, states=None):
        calls.append(([complex(lam) for lam in np.ravel(lams)], bool(want_dlambda)))
        return orig(problem, lams, want_dlambda, x_grid, states)

    _patch_bindings(monkeypatch, orig, wrapper)
    return calls


def _recording_solves(monkeypatch):
    """(lambda batch, init rows, states per lambda, jet, wedge pairs) of
    every propagator.propagate call: 6 rows for an init of 2-wedges, 4 for
    columns; jet is want_dlambda, and wedge pairs the number of wedges of
    column pairs stacked with the columns."""
    calls = []
    orig = propagator.propagate
    signature = inspect.signature(orig)

    def wrapper(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        a = bound.arguments
        shape = np.shape(a["init"])
        rows, cols = shape if len(shape) == 2 else (shape[0], 1)
        lams = [complex(lam) for lam in dict.fromkeys(
            np.broadcast_to(np.ravel(a["lam"]), cols).tolist())]
        calls.append((lams, rows, cols // len(lams), bool(a["want_dlambda"]),
                      len(a["wedge_pairs"] or [])))
        return orig(*args, **kwargs)

    _patch_bindings(monkeypatch, orig, wrapper)
    return calls


def _scans(calls):
    """The lambda batches of the scan solves among _recording_solves' calls:
    no jet, and no wedge of column pairs."""
    return [lams for lams, _, _, jet, pairs in calls if not (jet or pairs)]


def _polishes(calls):
    """The lambda batches of the Newton solves: with a jet, or with the
    wedges of column pairs and their jets."""
    return [lams for lams, _, _, jet, pairs in calls if jet or pairs]


def test_first_zeros_scan_stops_at_last_bracket(beam, monkeypatch):
    calls = _recording_solves(monkeypatch)
    props = _counting_propagations(monkeypatch)
    zeros = find_first_zeros(beam, (2, 2), 3)
    lams = [lam for batch, *_ in calls for lam in batch]
    assert len(lams) == len(set(lams)), "a lambda was sampled twice"
    # the grid is uniform in rho (index i at rho = i step) and taken in chunks
    # of first, 2 first, 4 first, ... points, the first spanning 3 + 1/4 zero
    # spacings and 5 points; nothing past the end of the solve holding the
    # grid point that closes the bracket of the third zero is sampled
    rho3 = zeros[2].lam.real ** 0.25
    step = spectra.RHO_SCAN_STEP
    first = int(np.ceil((3 + spectra._SCAN_LEAD) * spectra._SCAN_CHUNK)) + 5
    closing = int(np.ceil(rho3 / step + 1e-9))
    ends = first * (2 ** np.arange(1, 12) - 1)     # one past each solve's last index
    last = ends[np.searchsorted(ends, closing, side="right")] - 1
    assert max(lam.real for lam in lams) <= (last * step) ** 4 * (1 + 1e-12)
    # one solve per chunk scanned, the 2-wedge of the two C columns of
    # Delta_22 at each lambda, then one lockstep Newton solve with its jet
    # run: every bracket's start, interpolated through up to ten scan
    # samples, is accepted at its first evaluation
    scans, newton = _scans(calls), _polishes(calls)
    assert [len(batch) for batch in scans[:-1]] == [first * 2 ** i for i in range(len(scans) - 1)]
    assert 0 < len(scans[-1]) <= first * 2 ** (len(scans) - 1)
    assert [len(batch) for batch in newton] == [3]
    assert [call[1:] for call in calls] == ([(6, 1, False, 0)] * len(scans)
                                            + [(4, 4, True, 3 * len(b)) for b in newton])
    assert props == ([("forward", len(batch)) for batch in scans]
                     + [("forward", 4 * len(batch)) for batch in newton])


def test_beam_count_thirty_scans_in_one_solve(beam, beam_zeros_30, monkeypatch):
    # the first chunk, 30 + 1/4 zero spacings (1906 points, to rho 95.25),
    # reaches past rho ~ 92.7, the thirtieth zero, in one solve of one 2-wedge
    # per lambda (doubling from one spacing took five, one per 63 points 30)
    calls = _recording_solves(monkeypatch)
    zeros = find_first_zeros(beam, (2, 2), 30)
    assert [z.lam for z in zeros] == [z.lam for z in beam_zeros_30]
    assert len(_scans(calls)) == 1


@pytest.mark.parametrize("count", [4, 5])
def test_doubled_chunk_that_overflows_falls_back(beam, monkeypatch, count):
    # the first chunk, count + 1/4 zero spacings and 5 points from rho0 (to
    # rho 591.6 and 591.75), raises PropagationError past a wall put at rho
    # 591; the scan goes back to 63-point chunks from its start and stays
    # there (a doubled chunk would raise again), and finds the zeros that
    # 63-point chunks find, the last below the wall.  The real wall moves
    # with the batch (rho 590.74 for 63 points, 591.50 for 268), and the
    # 63-point chunks from rho0 clear it
    rho0 = {4: 578.0, 5: 575.0}[count]
    chunks = []
    samples = spectra._samples

    def walled(problem, selector, lams):
        chunks.append(len(lams))
        if max(np.real(lams)) > 591.0 ** 4:
            raise propagator.PropagationError("past the wall")
        return samples(problem, selector, lams)

    monkeypatch.setattr(spectra, "_samples", walled)
    zeros = find_real_zeros(beam, (2, 2), (rho0 ** 4, 700.0 ** 4), max_count=count)
    assert [z.lam.real ** 0.25 / np.pi for z in zeros] == pytest.approx(
        [183.5, 184.5, 185.5, 186.5, 187.5][-count:], rel=1e-12)
    chunk = spectra._SCAN_CHUNK
    first = int(np.ceil((count + spectra._SCAN_LEAD) * chunk)) + 5
    assert chunks == [first] + [chunk] * count


@pytest.mark.parametrize("which, selector, solves", [("random", (2, 2), 1), ("beam", (3, 2), 1)],
                         ids=["random-22", "beam-32"])
def test_scan_polish_solve_count(beam, monkeypatch, which, selector, solves):
    # a random real problem's Delta_22 zeros and the beam's Delta_32 zeros
    # are accepted at their interpolated starts, one lockstep solve (the
    # third Delta_32 start, 2.5e-12 off the root when its samples came from
    # chunks of 63 and 126 points, took a second solve alone)
    pb = make_random_real_problem(11) if which == "random" else beam
    calls = _recording_solves(monkeypatch)
    find_first_zeros(pb, selector, 3)
    newton = _polishes(calls)
    assert len(newton) == solves
    assert len(newton[0]) == 3


# the Taylor orders of each search when every step took TAYLOR_ORDER terms
# (13, 26, 14, 43 and 19 steps of 20)
_SEARCH_ORDERS = {("beam", (2, 2), 3): 260, ("beam", (3, 2), 3): 520, ("beam", (4, 2), 3): 280,
                  ("beam", (2, 2), 10): 860, ("random", (2, 2), 3): 380}


@pytest.mark.parametrize("which, selector, count, budget", [
    ("beam", (2, 2), 3, 16), ("beam", (3, 2), 3, 34), ("beam", (4, 2), 3, 29),
    ("beam", (2, 2), 10, 74), ("random", (2, 2), 3, 24)])
def test_first_zeros_taylor_steps(beam, monkeypatch, which, selector, count, budget):
    # Taylor steps over every solve of the search, polish included, at most
    # those of a scan whose first chunk spans one zero spacing (budget); the
    # first chunk spans count + 1/4 spacings, and brackets the first three
    # Delta_22 zeros in one scan solve.  Their Taylor orders add up to at
    # most those of 20-term steps (_SEARCH_ORDERS): each step's order is
    # chosen to close its mesh segment where one up to ORDER_CAP does
    pb = make_random_real_problem(11) if which == "random" else beam
    steps = _recording(monkeypatch, propagator._Block, "advance")
    calls = _recording_solves(monkeypatch)
    assert len(find_first_zeros(pb, selector, count)) == count
    assert len(steps) <= budget
    assert sum(len(T) - 1 for (_, T, _), _ in steps) <= _SEARCH_ORDERS[which, selector, count]
    if selector == (2, 2) and count == 3:
        assert len(_scans(calls)) == 1


def test_beam_count_thirty_steps_past_the_segment_reach(beam, monkeypatch):
    # past rho ~ 12 no order up to ORDER_CAP closes the beam's one mesh
    # segment, and each step after a propagation's first takes ORDER_CAP
    # terms, not TAYLOR_ORDER: thirty Delta_22 zeros in at most 70 Taylor
    # steps and 1,900 orders (125 and 2,513 at TAYLOR_ORDER terms).  The
    # overflow wall stays where it was: ten zeros in (560^4, 590^4), and a
    # search of (575^4, 598^4) raises where its wedge overflows
    steps = _recording(monkeypatch, propagator._Block, "advance")
    assert len(find_first_zeros(beam, (2, 2), 30)) == 30
    assert len(steps) <= 70
    assert sum(len(T) - 1 for (_, T, _), _ in steps) <= 1900
    assert len(find_real_zeros(beam, (2, 2), (560.0 ** 4, 590.0 ** 4))) == 10
    with pytest.raises(propagator.PropagationError, match=r"no step possible at x=0\.99"):
        find_real_zeros(beam, (2, 2), (575.0 ** 4, 598.0 ** 4))


@pytest.mark.parametrize("rho", [8, 10, 12])
def test_one_taylor_step_per_mesh_segment(monkeypatch, rho):
    # at rho <= 12 each step of a 5-segment real problem closes its segment,
    # C's columns alone and with a wedge and the jets of all
    pb = make_random_real_problem(11)
    assert len(pb.breakpoints) == 6
    steps = _recording(monkeypatch, propagator._Block, "advance")
    for kwargs in ({}, {"states": propagator._ALL_COLUMNS + [(3, 4)], "want_dlambda": True}):
        steps.clear()
        fundamental_C(pb, [rho ** 4 / 2, rho ** 4], **kwargs)
        assert len(steps) == 5


def test_continued_step_closes_its_segment(monkeypatch):
    # a step continued in place whose bound still ends short of its segment
    # end is continued again, to the order its new margins give: the count-3
    # scan chunk of this seeded 5-segment real problem (the second of the
    # scan benchmark's problems at seed 59) takes one step per segment, where
    # one continuation alone left a short step after the first (23, 8, 24,
    # 24, 24, 24)
    rng = np.random.default_rng([59, 0])
    rng.uniform(size=12)
    p, q = rng.uniform(-0.5, 0.5, 6), rng.uniform(-0.5, 0.5, 6)
    pb = ProblemSpec(p=CoefficientField.from_samples(p), q=CoefficientField.from_samples(q))
    assert len(pb.breakpoints) == 6
    chunk = (spectra.RHO_SCAN_STEP * np.arange(210)) ** 4
    steps = _recording(monkeypatch, propagator._Block, "advance")
    spectra._samples(pb, (2, 2), np.maximum(chunk, spectra.FIRST_ZEROS_START))
    assert len(steps) == 5


def test_propagations_read_the_mesh_table(monkeypatch):
    # the pieces of p and q on each mesh segment are looked up once per
    # problem, for its mesh table, however many propagations run
    pb = make_random_real_problem(11)
    calls = _recording(monkeypatch, CoefficientField, "piece")
    solves = _counting_propagations(monkeypatch)
    assert len(find_first_zeros(pb, (2, 2), 3)) == 3
    assert len(solves) >= 2 and len(pb.mesh) == 5
    assert len(calls) == 2 * len(pb.mesh)
    # a backward propagation reads the same table, reversed: S_4(x, 0) =
    # (x - 1)^3 / 6 on the beam
    beam = beam_problem()
    res = propagator.fundamental_S(beam, 0.0, x_grid=np.linspace(0, 1, 5))
    assert len(calls) == 2 * len(pb.mesh) + 2
    assert np.allclose(res.values[:, 0, 3], (res.xs - 1) ** 3 / 6, rtol=0, atol=1e-10)


def test_classify_takes_a_step_per_segment_and_solve(monkeypatch, tmp_path, capsys):
    # classify --count 3 on a 5-segment real problem: one scan solve and one
    # polish solve, each about one Taylor step per mesh segment (20 steps of
    # 20 terms each when every step took TAYLOR_ORDER terms)
    path = str(tmp_path / "real.json")
    save_problem(make_random_real_problem(11), path)
    steps = _recording(monkeypatch, propagator._Block, "advance")
    assert main(["classify", "--problem", path, "--count", "3"]) == 0
    capsys.readouterr()
    assert len(steps) <= 12


@pytest.mark.parametrize("which, selector, counts", [
    ("beam", (3, 2), [1, 2, 3, 4]), ("random", (3, 2), [1, 2, 3]),
    ("beam", (2, 2), [1, 2, 3, 4]), ("beam", (4, 2), [1, 2, 3, 4])])
def test_first_zeros_take_one_scan_solve(beam, monkeypatch, which, selector, counts):
    # the first chunk ends five points past (count + 1/4) zero spacings from
    # rho = 0: past the count-th Delta_32 zero near (count + 1/4) pi in rho
    # and the four scan samples after it, so that it too takes one scan solve
    pb = make_random_real_problem(11) if which == "random" else beam
    calls = _recording_solves(monkeypatch)
    for count in counts:
        calls.clear()
        assert len(find_first_zeros(pb, selector, count)) == count
        assert len(_scans(calls)) == 1


def test_beam_count_ten_polish_takes_one_solve(beam, monkeypatch):
    # the wedge samples near rho ~ 30 carry no determinant's noise, so the
    # interpolated starts hold there too: one lockstep solve
    calls = _recording_solves(monkeypatch)
    find_first_zeros(beam, (2, 2), 10)
    assert [len(batch) for batch in _polishes(calls)] == [10]


@pytest.mark.parametrize("which", ["beam", "random"])
def test_count_thirty_polish_takes_one_solve(beam, monkeypatch, which):
    # thirty Delta_22 starts, each interpolated through the ten nearest scan
    # samples, all accepted at their first evaluation; on the beam each is
    # within 4.5e-14 of the closed-form root
    pb = make_random_real_problem(11) if which == "random" else beam
    calls = _recording_solves(monkeypatch)
    zeros = find_first_zeros(pb, (2, 2), 30)
    assert [len(batch) for batch in _polishes(calls)] == [30]
    if which == "beam":
        assert [z.lam.real for z in zeros] == pytest.approx(
            [beam_eigenvalue(n) for n in range(1, 31)], rel=4.5e-14, abs=0)


def test_weight_numbers_solves_once_for_searched_zeros(beam, beam_zeros, monkeypatch):
    # searched zeros carry C(1, lambda), Delta_22' and the wedges' Delta_32
    # and Delta_42 from the polish, which give gamma, xi, A, Delta_33,
    # Delta_43 and the beta check: in case I no solve at all
    calls = _counting_propagations(monkeypatch)
    for count in (1, len(beam_zeros)):
        calls.clear()
        pts = weight_numbers(beam, beam_zeros[:count])
        assert [pt.case_tag for pt in pts] == ["I"] * count
        assert all(pt.beta_residual is not None for pt in pts)
        assert calls == []


def test_weight_numbers_shoots_only_outside_case_one(monkeypatch):
    # lambda_1 of this beam is case III, where the wedge identities do not
    # hold: its eigenfunction alone is solved, one column, and lambda_2,
    # lambda_3 stay with the wedge data
    pb = beam_problem(a=2.88131904)
    zeros = find_first_zeros(pb, (2, 2), 3)
    calls = _counting_propagations(monkeypatch)
    pts = weight_numbers(pb, zeros)
    assert [pt.case_tag for pt in pts] == ["III", "I", "I"]
    assert calls == [("forward", 1)]


@pytest.mark.parametrize("selector", [(2, 2), (3, 2), (4, 2)])
def test_one_block_per_propagation(beam, monkeypatch, selector):
    # every propagation steps one block: each scan chunk one 6-row wedge
    # per lambda with no jet; a Delta_22 polish solve a stacked block, C
    # with the wedges of Delta_22, Delta_32 and Delta_42 per lambda, their
    # jets and the second jet of Delta_22's (11 states), and a Delta_32 or
    # Delta_42 polish solve its own wedge with its jet.  The
    # polish is one solve for each
    blocks = []
    block_init = propagator._Block.__init__

    def recording_init(self, *args):
        block_init(self, *args)
        blocks.append((len(calls), self.state.shape))

    monkeypatch.setattr(propagator._Block, "__init__", recording_init)
    calls = _recording_solves(monkeypatch)
    find_first_zeros(beam, selector, 3)
    assert [i for i, _ in blocks] == list(range(1, len(calls) + 1))
    shapes = [shape for _, shape in blocks]
    scans = [(len(lams), shape) for (lams, *_, jet, pairs), shape in zip(calls, shapes)
             if not (jet or pairs)]
    assert scans and all(shape == (6, n) for n, shape in scans)
    polish = [(call, shape) for call, shape in zip(calls, shapes) if call[3] or call[4]]
    assert len(scans) + len(polish) == len(calls)
    assert len(polish) == 1
    for (lams, rows, per, jet, pairs), shape in polish:
        n = len(lams)
        if selector == (2, 2):
            assert (rows, per, jet, pairs, shape) == (4, 4, True, 3 * n, (10, 11 * n))
        else:
            assert (rows, per, jet, pairs, shape) == (6, 1, True, 0, (6, 2 * n))


@pytest.mark.parametrize("selector", [(1, 1), (2, 1), (3, 1), (4, 1), (3, 3), (4, 3), (3, 2)])
def test_entry_scan_solves_one_column_per_lambda(beam, monkeypatch, selector):
    # a scan chunk of any Delta but a Delta_j2 propagates one C column per
    # lambda, with no jet and no wedge, and the polish the same column with
    # its jet: 1 column and 1 jet per lambda.  A Delta_32 does the same with
    # its one 2-wedge (zeros above 0 on the beam)
    rows, region = (6, (1e-6, 1e5)) if selector[1] == 2 else (4, (-1e5, -1e-6))
    calls = _recording_solves(monkeypatch)
    assert len(find_real_zeros(beam, selector, region, max_count=2)) == 2
    scans, polish = _scans(calls), _polishes(calls)
    assert scans and polish
    assert [call[1:] for call in calls] == ([(rows, 1, False, 0)] * len(scans)
                                            + [(rows, 1, True, 0)] * len(polish))


def test_failed_newton_lambda_drops_only_its_bracket(beam, monkeypatch):
    # the beam has three Delta_22 zeros below 5000; every jet solve that
    # holds a lambda near the second fails, and only that bracket is lost
    orig = propagator.fundamental_C

    def failing(problem, lams, want_dlambda=False, x_grid=None, states=None):
        if want_dlambda and any(400 < complex(lam).real < 600 for lam in np.ravel(lams)):
            raise propagator.PropagationError("injected")
        return orig(problem, lams, want_dlambda, x_grid, states)

    _patch_bindings(monkeypatch, orig, failing)
    zeros = find_real_zeros(beam, (2, 2), (0.0, 5000.0))
    assert [z.lam.real for z in zeros] == pytest.approx(
        [beam_eigenvalue(1), beam_eigenvalue(3)], rel=1e-10)


@pytest.mark.parametrize("selector, box, expected", [
    ((3, 3), (-150.0, -100.0, -5.0, 5.0), [-4 * clamped_free_s(1) ** 4]),
    # the top edge passes 0.05 from the zero: the sampling doubles to 256 per side
    ((3, 3), (-150.0, -100.0, -5.0, 0.05), [-4 * clamped_free_s(1) ** 4]),
    # two zeros: the subdivided rectangles share edges with their parent and sibling
    ((2, 2), (0.0, 600.0, -3.0, 3.0), [beam_eigenvalue(1), beam_eigenvalue(2)]),
], ids=["box0", "box1", "box2"])
def test_complex_search_samples_each_point_once(beam, monkeypatch, selector, box, expected):
    # winding-number refinement keeps the coarse samples, the loop is closed
    # with the first value, the Newton step reuses the corner value, and a
    # subdivision reuses the boundary points it shares
    lams = _recording_samples(monkeypatch)
    zeros = find_complex_zeros(beam, selector, box)
    assert len(lams) == len(set(lams)), "a lambda was sampled twice"
    assert len(zeros) == len(expected)
    for z, lam in zip(zeros, expected):
        assert z.lam == pytest.approx(lam, rel=1e-8)


def test_weight_matrix_is_one_propagation(beam, monkeypatch):
    # the contour in one batched C solve: the N + 1 nodes with Im >= 0 on a
    # real problem around a real centre, all 2N nodes around a complex
    # centre or on a complex problem
    calls = _counting_propagations(monkeypatch)
    nodes = weights.CONTOUR_NODES
    for pb, lam0, count in ((beam, beam_eigenvalue(1), nodes + 1),
                            (beam, beam_eigenvalue(1) + 0.5j, 2 * nodes),
                            (make_random_problem(), 30.0, 2 * nodes)):
        calls.clear()
        weights.weight_matrix(pb, lam0)
        assert calls == [("forward", 4 * count)]


def test_weyl_grid_is_one_propagation(beam_json, monkeypatch, capsys):
    calls = _counting_propagations(monkeypatch)
    code = main(["weyl", "--problem", beam_json, "--lambda-count", "40"])
    assert code == 0
    assert len(capsys.readouterr().out.splitlines()) == 41
    # the grid's C batch, whose end values also give each pole test's magnitude
    assert calls == [("forward", 4 * 40)]


@pytest.mark.parametrize("where, case, budget", [
    ("eigenvalue", "I", 2), ("case V", "V", 2), ("complex", "I", 2)])
def test_weights_budget(beam_json, tmp_path, monkeypatch, capsys, where, case, budget):
    # in case I the Newton jets from lambda0 alone (the first is the zero
    # test), whose wedges and their jets give N, with no contour; at a
    # case-V point the first step leaves the contour's disc: one jet, then
    # the contour
    path, lam = beam_json, complex(beam_eigenvalue(1))
    if where == "case V":
        lam = complex(-4 * clamped_free_s(1) ** 4)
    elif where == "complex":
        pb = make_random_problem(1)
        path = str(tmp_path / "cx1.json")
        save_problem(pb, path)
        lam = find_complex_zeros(pb, (2, 2), (300.0, 700.0, -5.0, 5.0))[0].lam
    calls = _counting_propagations(monkeypatch)
    assert main(["weights", "--problem", path, "--lambda0", f"{lam.real!r},{lam.imag!r}"]) == 0
    assert json.loads(capsys.readouterr().out)["case"] == case
    if case == "V":
        assert len(calls) == budget
    else:
        assert len(calls) <= budget
        assert all(cols == 4 for _, cols in calls)   # C of one lambda, never a contour


@pytest.mark.parametrize("jet, states", [(False, 7), (True, 14)])
def test_deltas_carry_wedge_jets_only_when_asked(beam, monkeypatch, jet, states):
    # all nine Delta at two lambda: per lambda the 4 columns of C and the 3
    # wedges of the Delta_j2, 16 + 18 rows, and the jet of each of those 7
    # states only with want_dlambda
    shapes = []
    block_init = propagator._Block.__init__

    def recording_init(self, *args):
        block_init(self, *args)
        shapes.append(self.state.shape)

    monkeypatch.setattr(propagator._Block, "__init__", recording_init)
    weyl.deltas_at(beam, [3.0, 7.3], want_dlambda=jet)
    assert shapes == [(10, 2 * states)]


def test_empty_delta_batch_makes_no_propagation(beam, monkeypatch):
    calls = _counting_propagations(monkeypatch)
    for jet in (False, True):
        d = weyl.deltas_at(beam, [], want_dlambda=jet)
        assert list(d) == list(weyl.ALL_INDEX_PAIRS)
        for cv in d.values():
            assert np.shape(cv.value) == (0,)
            assert (cv.dvalue is not None) == jet
            assert not jet or np.shape(cv.dvalue) == (0,)
    # no pair at two lambda: nothing to read, so no C is solved
    assert weyl.deltas_at(beam, [3.0, 7.3], pairs=()) == {}
    for selector in weyl.ALL_INDEX_PAIRS:
        assert np.shape(spectra._ring_fun(beam, selector)(np.array([], complex))) == (0,)
    # C, S and Phi of no lambda: the recorded grid, and ends with the
    # orders of one lambda's jet run (value, jet, second jet of the wedges)
    for C, orders in ((fundamental_C(beam, []), 1), (propagator.fundamental_S(beam, []), 1),
                      (fundamental_C(beam, [], True), 2),
                      (fundamental_C(beam, [], spectra._J2_RUN,
                                     states=propagator._ALL_COLUMNS + weyl._M_WEDGE), 3)):
        assert C.xs.tolist() == np.linspace(0.0, 1.0, 17).tolist()
        assert C.values.shape == (17, 0, 4, 4)
        assert {jk: end.shape for jk, end in C.ends.items()} == {
            jk: (orders, 0, {1: 4, 2: 6}[len(jk)]) for jk in C.ends}
    # the states of a search, each alone: a wedge's 6 rows, a column's 4
    for states, rows in (([(3, 4)], 6), ([(2, 4), (3, 2)], 6), ([(4,)], 4)):
        C = fundamental_C(beam, [], True, states=states)
        assert C.values.shape == (17, 0, rows, len(states))
        assert {jk: end.shape for jk, end in C.ends.items()} == {
            jk: (2, 0, rows) for jk in states}
    xs, phi = weyl.phi_matrix(beam, [], x_grid=[0.0, 0.5, 1.0])
    assert xs.tolist() == [0.0, 0.5, 1.0] and phi.shape == (3, 0, 4, 4)
    assert calls == []


def test_twin_weyl_budget(beam_json, monkeypatch, capsys):
    # per problem: one C solve for the 3 Weyl lambda, and one C solve on
    # Phi's x grid for its 10 lambda, which also gives M
    calls = _counting_propagations(monkeypatch)
    assert main(["twin", "--a", beam_json, "--b", beam_json, "--kind", "weyl"]) == 0
    per_problem = [("forward", 4 * 3), ("forward", 4 * 10)]
    assert sorted(calls) == sorted(2 * per_problem)
