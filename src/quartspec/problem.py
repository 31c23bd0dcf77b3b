"""Boundary value problem definition.

The operator under study is

    l(y) = y'''' - (p(x) y')' + q(x) y  on (0, 1),

with the quasi-derivative y^[3] = y''' - p y' and boundary forms

    U1(y) = y''(0) + a y'(0) - b y(0),
    U2(y) = y^[3](0) + b y'(0) + c y(0),
    U3(y) = y(0),  U4(y) = y'(0),
    Vs(y) = y^[s-1](1),  s = 1..4.

Coefficients p and q are piecewise polynomials on [0, 1] (sampled data is
converted to piecewise interpolants at load time).  All objects are treated
as immutable after validation.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np


class ProblemError(ValueError):
    """Invalid problem definition (overlapping segments, bad tolerances, ...)."""


# ---------------------------------------------------------------------------
# coefficient fields

def _not_a_knot_slopes(d):
    """Knot slopes s of the not-a-knot cubic spline on a uniform grid whose
    secant slopes are d, at least 3 of them (de Boor 1978).  The interior
    rows make y'' continuous, s[i-1] + 4 s[i] + s[i+1] = 3 (d[i-1] + d[i]);
    the first and last make y''' continuous across xs[1] and xs[-2],
    s[0] - s[2] = 2 (d[0] - d[1]), which plus the second row reads
    s[0] + 2 s[1] = (5 d[0] + d[1]) / 2 (mirrored at the end).  One
    tridiagonal sweep, O(n) memory."""
    d = d.tolist()
    n = len(d) + 1
    rhs = [(5 * d[0] + d[1]) / 2, *(3 * (a + b) for a, b in zip(d, d[1:])),
           (d[-2] + 5 * d[-1]) / 2]
    # the diagonal, and the entries right of it; left of it 1, and 2 in the last row
    diag, sup = [1.0] + [4.0] * (n - 2) + [1.0], [2.0] + [1.0] * (n - 2)
    for i in range(1, n):
        w = (1.0 if i < n - 1 else 2.0) / diag[i - 1]
        diag[i] -= w * sup[i - 1]
        rhs[i] -= w * rhs[i - 1]
    s = [rhs[-1] / diag[-1]]
    for i in range(n - 2, -1, -1):
        s.append((rhs[i] - sup[i] * s[-1]) / diag[i])
    return np.array(s[::-1], dtype=complex)


def _sorted_unique(values):
    """The unique floats of `values`, sorted, as numpy's unique returns them
    (equal neighbours dropped after one sort), without the import of
    numpy.ma (about 20 ms) that unique and union1d make at their first call
    in a process."""
    a = np.sort(np.ravel(values))
    keep = np.ones(len(a), bool)
    keep[1:] = a[1:] != a[:-1]
    return a[keep]


def horner(coeffs, t):
    """Polynomial with ascending coefficients `coeffs` at t."""
    acc = 0.0 + 0.0j
    for c in coeffs[::-1]:
        acc = acc * t + c
    return acc


class CoefficientField:
    """A piecewise-polynomial complex coefficient on [0, 1].

    Segments are (x0, x1, coeffs) with coeffs in ascending powers of the
    local variable (x - x0).  Breakpoints must be strictly increasing and
    cover exactly [0, 1].
    """

    def __init__(self, segments):
        segs = []
        for x0, x1, coeffs in segments:
            coeffs = np.atleast_1d(np.asarray(coeffs, dtype=complex))
            segs.append((float(x0), float(x1), coeffs))
        if not segs:
            raise ProblemError("coefficient field needs at least one segment")
        segs.sort(key=lambda s: s[0])
        if abs(segs[0][0]) > 1e-14 or abs(segs[-1][1] - 1.0) > 1e-14:
            raise ProblemError("segments must cover exactly [0, 1]")
        for x0, x1, _ in segs:
            if x1 <= x0:
                raise ProblemError(f"empty segment [{x0}, {x1}]")
        for (_, a1, _), (b0, _, _) in zip(segs[:-1], segs[1:]):
            if b0 - a1 > 1e-14:
                raise ProblemError(f"gap between segments on ({a1}, {b0})")
            if a1 - b0 > 1e-14:
                raise ProblemError(f"overlapping segments on ({b0}, {a1})")
        self.segments = tuple(segs)
        self.breakpoints = np.array([s[0] for s in segs] + [segs[-1][1]])

    @classmethod
    def zero(cls):
        return cls([(0.0, 1.0, [0.0])])

    @classmethod
    def constant(cls, value):
        return cls([(0.0, 1.0, [value])])

    @classmethod
    def from_samples(cls, values, interp=3):
        """Build a field from uniform samples on [0, 1].

        interp 0 gives piecewise-constant (cell-centred), 1 piecewise-linear,
        3 the not-a-knot cubic spline (piecewise-linear below 4 samples).
        """
        values = np.asarray(values, dtype=complex)
        n = values.size
        if interp == 0:
            if n == 1:
                return cls.constant(values[0])
            edges = np.linspace(0.0, 1.0, n + 1)
            return cls([(edges[i], edges[i + 1], [values[i]]) for i in range(n)])
        if n < 2:
            raise ProblemError("need at least 2 samples for interpolation order >= 1")
        xs = np.linspace(0.0, 1.0, n)
        if interp == 1:
            segs = []
            for i in range(n - 1):
                slope = (values[i + 1] - values[i]) / (xs[i + 1] - xs[i])
                segs.append((xs[i], xs[i + 1], [values[i], slope]))
            return cls(segs)
        if interp == 3:
            if n < 4:
                return cls.from_samples(values, interp=1)
            h = xs[1]
            d = np.diff(values) / h
            s = _not_a_knot_slopes(d)
            c2 = (3 * d - 2 * s[:-1] - s[1:]) / h
            c3 = (s[:-1] + s[1:] - 2 * d) / h ** 2
            return cls(zip(xs[:-1], xs[1:], np.column_stack([values[:-1], s[:-1], c2, c3])))
        raise ProblemError(f"unsupported interpolation order {interp}")

    def __call__(self, x):
        """Evaluate at scalar x in [0, 1]."""
        # breakpoints belong to the segment on their right (last point to the left)
        x0, coeffs = self.piece(x, x)
        return horner(coeffs, x - x0)

    def piece(self, x0, x1):
        """(origin, coeffs) of the segment containing [x0, x1], for `horner`."""
        idx = np.searchsorted(self.breakpoints, 0.5 * (x0 + x1), side="right") - 1
        idx = min(max(idx, 0), len(self.segments) - 1)
        origin, _, coeffs = self.segments[idx]
        return origin, tuple(complex(c) for c in coeffs)

    @cached_property
    def is_real(self):
        return all(np.all(c.imag == 0) for _, _, c in self.segments)

    @property
    def is_zero(self):
        return all(np.allclose(c, 0.0) for _, _, c in self.segments)

    def to_dict(self):
        return {
            "kind": "piecewise_poly",
            "segments": [
                {"x0": x0, "x1": x1, "coeffs": [[c.real, c.imag] for c in coeffs]}
                for x0, x1, coeffs in self.segments
            ],
        }

    @classmethod
    def from_dict(cls, obj):
        kind = obj.get("kind", "piecewise_poly")
        if kind == "piecewise_poly":
            return cls([
                (s["x0"], s["x1"], [complex(re, im) for re, im in s["coeffs"]])
                for s in obj["segments"]
            ])
        if kind == "samples":
            values = [complex(re, im) for re, im in obj["values"]]
            return cls.from_samples(values, interp=obj.get("interp", 3))
        raise ProblemError(f"unknown coefficient kind {kind!r}")


# ---------------------------------------------------------------------------
# problem spec

@dataclass(frozen=True)
class BoundaryParams:
    a: complex = 0.0
    b: complex = 0.0
    c: complex = 0.0


@dataclass(frozen=True)
class Tolerances:
    ode_rel: float = 1e-10
    ode_abs: float = 1e-12
    # nodes of the contour of M (weights.laurent_coefficients): it serves the
    # weight matrix of cases II-V, not case I, which comes from jets
    contour_nodes: int = 64


@dataclass(frozen=True, eq=False)
class ProblemSpec:
    p: CoefficientField
    q: CoefficientField
    boundary: BoundaryParams = BoundaryParams()
    tolerances: Tolerances = Tolerances()

    # is_real and breakpoints are fixed by the fields, so each is computed at
    # its first read and kept
    @cached_property
    def is_real(self):
        b = self.boundary
        return (self.p.is_real and self.q.is_real
                and abs(complex(b.a).imag) == 0.0
                and abs(complex(b.b).imag) == 0.0
                and abs(complex(b.c).imag) == 0.0)

    @cached_property
    def breakpoints(self):
        return _sorted_unique(np.concatenate([self.p.breakpoints, self.q.breakpoints]))


def validate_problem(raw: ProblemSpec) -> ProblemSpec:
    """Check all invariants; return the spec, or raise ProblemError."""
    for name in ("a", "b", "c"):
        v = complex(getattr(raw.boundary, name))
        if not np.isfinite(v.real) or not np.isfinite(v.imag):
            raise ProblemError(f"boundary constant {name} is not finite")
    tol = raw.tolerances
    for name in ("ode_rel", "ode_abs"):
        v = getattr(tol, name)
        if not (isinstance(v, numbers.Real) and v > 0):
            raise ProblemError(f"tolerance {name} must be a positive number")
    n = tol.contour_nodes
    if not isinstance(n, numbers.Integral) or n < 16 or (n & (n - 1)) != 0:
        raise ProblemError("contour_nodes must be an integer >= 16 and a power of two")
    for fname, fld in (("p", raw.p), ("q", raw.q)):
        for x0, x1, coeffs in fld.segments:
            # on a segment of width <= 1, |value| <= sum |c_k|
            if not np.isfinite(np.sum(np.abs(coeffs))):
                raise ProblemError(f"coefficient {fname} not finite on [{x0}, {x1}]")
    return raw


def beam_problem(a=0.0, b=0.0, c=0.0, **kwargs) -> ProblemSpec:
    """The zero-coefficient problem (Euler-Bernoulli beam when a=b=c=0)."""
    return validate_problem(ProblemSpec(
        p=CoefficientField.zero(), q=CoefficientField.zero(),
        boundary=BoundaryParams(a, b, c), **kwargs))


# ---------------------------------------------------------------------------
# boundary forms and the Lagrange bracket

def boundary_form_matrix(spec: ProblemSpec) -> np.ndarray:
    """Matrix of the left boundary forms acting on (y, y', y'', y^[3]):
    row k represents U_k.  The right-end forms V_s(y) = y^[s-1](1) have the
    identity matrix."""
    a, b, c = spec.boundary.a, spec.boundary.b, spec.boundary.c
    return np.array([
        [-b, a, 1, 0],
        [c, b, 0, 1],
        [1, 0, 0, 0],
        [0, 1, 0, 0],
    ], dtype=complex)


def lagrange_bracket(y, z) -> complex:
    """<y, z> = y^[3] z - y'' z' + y' z'' - y z^[3] of quasi-state vectors
    (y, y', y'', y^[3]), bilinear and antisymmetric."""
    y, z = np.asarray(y, dtype=complex), np.asarray(z, dtype=complex)
    return complex(y[3] * z[0] - y[2] * z[1] + y[1] * z[2] - y[0] * z[3])


# ---------------------------------------------------------------------------
# JSON interface

def problem_to_dict(spec: ProblemSpec) -> dict:
    b = spec.boundary
    tol = spec.tolerances
    return {
        "p": spec.p.to_dict(),
        "q": spec.q.to_dict(),
        "a": [complex(b.a).real, complex(b.a).imag],
        "b": [complex(b.b).real, complex(b.b).imag],
        "c": [complex(b.c).real, complex(b.c).imag],
        "tolerances": {
            "ode_rel": tol.ode_rel, "ode_abs": tol.ode_abs,
            "contour_nodes": tol.contour_nodes,
        },
    }


def problem_from_dict(obj: dict) -> ProblemSpec:
    """The validated problem of a JSON object; ProblemError for any malformed one."""
    def c(v):
        return complex(*v) if isinstance(v, (list, tuple)) and len(v) == 2 else complex(v)

    try:
        # the keys present, the defaults of Tolerances for the rest; keys no
        # longer in use (root_tol of older files) are ignored
        tol = obj.get("tolerances", {})
        spec = ProblemSpec(
            p=CoefficientField.from_dict(obj["p"]),
            q=CoefficientField.from_dict(obj["q"]),
            boundary=BoundaryParams(c(obj.get("a", 0)), c(obj.get("b", 0)), c(obj.get("c", 0))),
            tolerances=Tolerances(**{f.name: tol[f.name] for f in fields(Tolerances)
                                     if f.name in tol}),
        )
    except ProblemError:
        raise
    except (LookupError, TypeError, ValueError, AttributeError) as exc:
        raise ProblemError(f"malformed problem: {type(exc).__name__}: {exc}") from exc
    return validate_problem(spec)


def load_problem(path) -> ProblemSpec:
    with open(path) as fh:
        return problem_from_dict(json.load(fh))


def save_problem(spec: ProblemSpec, path):
    with open(path, "w") as fh:
        json.dump(problem_to_dict(spec), fh, indent=2)
