"""Work budgets: each costly quantity is computed once, and only when read.

The counts come from wrapping the module bindings that the layers call, so
they check how often the work is done, not how the values come out.
"""

import json
import sys

import numpy as np
import pytest

from quartspec import (
    all_deltas,
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

from conftest import beam_eigenvalue, clamped_free_s, make_random_problem


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


def _recording_deltas(monkeypatch):
    """Flat list of the lambda that reach weyl.deltas_at, from all_deltas or
    from a batch."""
    lams = []
    orig = weyl.deltas_at

    def wrapper(problem, batch, *args, **kwargs):
        lams.extend(complex(lam) for lam in np.ravel(batch))
        return orig(problem, batch, *args, **kwargs)

    _patch_bindings(monkeypatch, orig, wrapper)
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
    # 2N-node rule: one weyl_matrix call over the 2N distinct nodes
    calls = _recording(monkeypatch, weights, "weyl_matrix")
    batches = _recording_batches(monkeypatch)
    nodes = beam.tolerances.contour_nodes
    coeffs = laurent_coefficients(beam, beam_eigenvalue(1), (-1, 0))
    assert set(coeffs) == {-1, 0}
    assert len(calls) == 1
    sampled = [complex(lam) for lam in np.ravel(calls[0][0][1])]
    assert len(sampled) == len(set(sampled)) == 2 * nodes
    # every node reaches the C solve once
    lams = [lam for batch, _ in batches for lam in batch]
    assert len(lams) == 2 * nodes
    assert set(lams) == set(sampled)


def test_no_delta_propagates_backward(beam, monkeypatch):
    # all nine Delta_jk, with or without the jet, come from one forward C
    # solve; Delta_31 and Delta_41 keep their determinants as alt_value, and
    # Delta_22 alone is bitwise the same solve
    lam = 7.3
    ends = {jet: fundamental_C(beam, lam, jet, x_grid=[0.0, 1.0]).end for jet in (True, False)}
    calls = _counting_propagations(monkeypatch)
    for jet, end in ends.items():
        calls.clear()
        full = all_deltas(beam, lam, want_dlambda=jet)
        assert list(full) == list(weyl.ALL_INDEX_PAIRS)
        assert calls == [("forward", 4)]
        for jk, cols in (((3, 1), [1, 0, 3]), ((4, 1), [1, 2, 0])):
            det = np.linalg.det(end[np.ix_([2, 1, 0], cols)])
            assert full[jk].alt_value == pytest.approx(det, rel=1e-12, abs=1e-300)
    calls.clear()
    assert characteristic_delta(beam, lam, (2, 2)).value == full[(2, 2)].value
    assert calls == [("forward", 4)]


def _recording_batches(monkeypatch):
    """(lambda batch, jet) of every fundamental_C call: the scan's through
    weyl.deltas_at, the Newton polish's directly, with the jet of C or of
    the wedge of Delta_j2's columns."""
    calls = []
    orig = propagator.fundamental_C

    def wrapper(problem, lams, want_dlambda=False, x_grid=None, wedge=None):
        calls.append(([complex(lam) for lam in np.ravel(lams)],
                      want_dlambda or wedge is not None))
        return orig(problem, lams, want_dlambda, x_grid, wedge)

    _patch_bindings(monkeypatch, orig, wrapper)
    return calls


def test_first_zeros_scan_stops_at_last_bracket(beam, monkeypatch):
    calls = _recording_batches(monkeypatch)
    props = _counting_propagations(monkeypatch)
    zeros = find_first_zeros(beam, (2, 2), 3)
    lams = [lam for batch, _ in calls for lam in batch]
    assert len(lams) == len(set(lams)), "a lambda was sampled twice"
    # the grid is uniform in rho and taken in chunks; nothing past the end
    # of the chunk holding the grid point that closes the bracket of the
    # third zero is sampled
    rho3 = zeros[2].lam.real ** 0.25
    step, chunk = spectra.RHO_SCAN_STEP, spectra._SCAN_CHUNK
    r_next = step * np.ceil(rho3 / step + 1e-9)
    assert max(lam.real for lam in lams) <= (r_next + chunk * step) ** 4 * (1 + 1e-12)
    # one solve per chunk scanned, then one per lockstep Newton iteration
    # over the brackets still open: all three enter the first, none re-enters,
    # and from the brackets' secant points the polish takes three at most
    scans = [batch for batch, jet in calls if not jet]
    newton = [batch for batch, jet in calls if jet]
    assert all(len(batch) == chunk for batch in scans[:-1])
    assert 0 < len(scans[-1]) <= chunk
    assert len(newton[0]) == 3
    assert len(newton) <= 3
    assert all(len(b) >= len(a) for a, b in zip(newton[1:], newton))
    assert [jet for _, jet in calls] == [False] * len(scans) + [True] * len(newton)
    assert len(props) == len(calls)


def test_weight_numbers_solves_once_for_searched_zeros(beam, beam_zeros, monkeypatch):
    # searched zeros carry C(1, lambda) and Delta_22' from the polish, which
    # give A, Delta_33, Delta_43 and the beta check: one solve of the
    # normalized trajectories
    calls = _counting_propagations(monkeypatch)
    for count in (1, len(beam_zeros)):
        calls.clear()
        pts = weight_numbers(beam, beam_zeros[:count])
        assert [pt.case_tag for pt in pts] == ["I"] * count
        assert all(pt.beta_residual is not None for pt in pts)
        assert calls == [("forward", count)]


def test_failed_newton_lambda_drops_only_its_bracket(beam, monkeypatch):
    # the beam has three Delta_22 zeros below 5000; every jet solve that
    # holds a lambda near the second fails, and only that bracket is lost
    orig = propagator.fundamental_C

    def failing(problem, lams, want_dlambda=False, x_grid=None, wedge=None):
        jet = want_dlambda or wedge is not None
        if jet and any(400 < complex(lam).real < 600 for lam in np.ravel(lams)):
            raise propagator.PropagationError("injected")
        return orig(problem, lams, want_dlambda, x_grid, wedge)

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
    lams = _recording_deltas(monkeypatch)
    zeros = find_complex_zeros(beam, selector, box)
    assert len(lams) == len(set(lams)), "a lambda was sampled twice"
    assert len(zeros) == len(expected)
    for z, lam in zip(zeros, expected):
        assert z.lam == pytest.approx(lam, rel=1e-8)


def test_weight_matrix_is_one_propagation(beam, monkeypatch):
    # all 2N contour nodes in one batched C solve
    calls = _counting_propagations(monkeypatch)
    weights.weight_matrix(beam, beam_eigenvalue(1))
    nodes = beam.tolerances.contour_nodes
    assert calls == [("forward", 4 * 2 * nodes)]


def test_weyl_grid_is_one_propagation(beam_json, monkeypatch, capsys):
    calls = _counting_propagations(monkeypatch)
    code = main(["weyl", "--problem", beam_json, "--lambda-count", "40"])
    assert code == 0
    assert len(capsys.readouterr().out.splitlines()) == 41
    # the grid's C batch, whose end values also give each pole test's magnitude
    assert calls == [("forward", 4 * 40)]


@pytest.mark.parametrize("where, case, budget", [
    ("eigenvalue", "I", 4), ("case V", "V", 2), ("complex", "I", 3)])
def test_weights_budget(beam_json, tmp_path, monkeypatch, capsys, where, case, budget):
    # the contour, the Newton jets from lambda0 (the first is the zero test)
    # and the eigenfunction; at a case-V point the first step leaves the
    # contour's disc: one jet and no eigenfunction
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


def test_empty_delta_batch_makes_no_propagation(beam, monkeypatch):
    calls = _counting_propagations(monkeypatch)
    for jet in (False, True):
        d = weyl.deltas_at(beam, [], want_dlambda=jet)
        assert list(d) == list(weyl.ALL_INDEX_PAIRS)
        for cv in d.values():
            assert np.shape(cv.value) == np.shape(cv.fp_floor) == (0,)
            assert (cv.dvalue is not None) == jet
    assert calls == []


def test_twin_weyl_budget(beam_json, monkeypatch, capsys):
    # per problem: one C solve for the 3 Weyl lambda, and one C solve on
    # Phi's x grid for its 10 lambda, which also gives M
    calls = _counting_propagations(monkeypatch)
    assert main(["twin", "--a", beam_json, "--b", beam_json, "--kind", "weyl"]) == 0
    per_problem = [("forward", 4 * 3), ("forward", 4 * 10)]
    assert sorted(calls) == sorted(2 * per_problem)
