"""Work budgets: each costly quantity is computed once, and only when read.

The counts come from wrapping the module bindings that the layers call, so
they check how often the work is done, not how the values come out.
"""

import numpy as np
import pytest

from quartspec import (
    SpectrumRequest,
    all_deltas,
    characteristic_delta,
    find_complex_zeros,
    find_first_zeros,
    laurent_coefficients,
)
from quartspec import spectra, weights, weyl
from quartspec.propagator import fundamental_C, fundamental_S

from conftest import beam_eigenvalue, clamped_free_s


def _recording(monkeypatch, module, name):
    """Replace module.name by a wrapper; returns the list of its call arguments."""
    calls = []
    orig = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append((args, kwargs))
        return orig(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_laurent_samples_weyl_matrix_once_per_fine_node(beam, monkeypatch):
    # the N-node rule of the doubling check reuses the even nodes of the 2N-node rule
    calls = _recording(monkeypatch, weights, "weyl_matrix")
    nodes = beam.tolerances.contour_nodes
    coeffs = laurent_coefficients(beam, beam_eigenvalue(1), (-1, 0))
    assert set(coeffs) == {-1, 0}
    assert len(calls) == 2 * nodes
    assert len({complex(args[1]) for args, _ in calls}) == 2 * nodes


def test_delta22_skips_backward_propagation(beam, monkeypatch):
    lam = 7.3
    full = all_deltas(beam, lam)
    S = fundamental_S(beam, lam, x_grid=[0.0, 1.0]).start
    end = fundamental_C(beam, lam, x_grid=[0.0, 1.0]).end
    # Delta_31 and Delta_41 report the S route; the determinant route is kept
    assert full[(3, 1)].value == -S[0, 3]
    assert full[(4, 1)].value == -S[1, 3]
    for jk, cols in (((3, 1), [1, 0, 3]), ((4, 1), [1, 2, 0])):
        det = np.linalg.det(end[np.ix_([2, 1, 0], cols)])
        assert full[jk].alt_value == pytest.approx(det, rel=1e-12, abs=1e-300)

    def no_s(*args, **kwargs):
        raise AssertionError("fundamental_S called for Delta_22")

    monkeypatch.setattr(weyl, "fundamental_S", no_s)
    assert characteristic_delta(beam, lam, (2, 2)).value == full[(2, 2)].value


def test_first_zeros_scan_stops_at_last_bracket(beam, monkeypatch):
    weyl.delta_scale(beam, 2)
    calls = _recording(monkeypatch, spectra, "all_deltas")
    zeros = find_first_zeros(beam, (2, 2), 3)
    lams = [complex(args[1]) for args, _ in calls]
    assert len(lams) == len(set(lams)), "a lambda was sampled twice"
    # the grid is uniform in rho; nothing past the grid point that closes
    # the bracket of the third zero is sampled
    rho3 = zeros[2].lam.real ** 0.25
    step = spectra.RHO_SCAN_STEP
    r_next = step * np.ceil(rho3 / step + 1e-9)
    assert max(lam.real for lam in lams) <= r_next ** 4 * (1 + 1e-12)


@pytest.mark.parametrize("box", [
    (-150.0, -100.0, -5.0, 5.0),
    # the top edge passes 0.05 from the zero: the sampling doubles to 256 per side
    (-150.0, -100.0, -5.0, 0.05),
])
def test_complex_search_samples_each_point_once(beam, monkeypatch, box):
    # winding-number refinement keeps the coarse samples, the loop is closed
    # with the first value, and the Newton step reuses the corner value
    weyl.delta_scale(beam, 3)
    calls = _recording(monkeypatch, spectra, "all_deltas")
    zeros = find_complex_zeros(beam, SpectrumRequest((3, 3), box))
    lams = [complex(args[1]) for args, _ in calls]
    assert len(lams) == len(set(lams)), "a lambda was sampled twice"
    assert len(zeros) == 1
    assert zeros[0].lam == pytest.approx(-4 * clamped_free_s(1) ** 4, rel=1e-8)
