"""Seeded inputs and job lists of the three workloads.

A job is one `quartspec` CLI invocation on a problem file, plus the check
that its output must pass.  Problems are written in the package's JSON
format without importing the package; real ones use the "samples" kind
with cubic interpolation, like the test suite's random problems.

Each workload is a fixed pass of jobs; only the coefficient values change
with the seed, so runs with different seeds do the same kind of work.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import oracle

# scan: the beam and three real problems, two with 5 cubic segments (so the
# median job is one of a like pair) and one with 7
SCAN_SAMPLES = (6, 6, 8)
SCAN_COUNT = 3
# residue: lambda_1 and lambda_2 of the beam and of a 5-segment real problem,
# and lambda_1 of a second one, so that three jobs of similar cost (beam
# lambda_2, real lambda_1) sit around the median
RESIDUE_SAMPLES = 6
RESIDUE_PLAN = (("real-0", 1), ("beam", 1), ("real-0", 2), ("beam", 2), ("real-1", 1))
# grid: complex problems with 5, 7 and 9 segments on a real lambda grid from
# -3000 to 12^4 (rho = |lambda|^(1/4) from 7.4 to 12).  Further out on the
# negative side the identity checks fail or nearly fail in quartspec 0.1.0:
# next to the pole of m43 near -3654 (the beam's -4 s^4 with tan s = -tanh s)
# m21 = m43 holds only to 8e-9 for some seeds, and past rho = 11 the
# cancellation in Delta_11 breaks the 1e-8 threshold of `quartspec verify`
# (3e-8 to 7e-8 at lambda = -12^4).
GRID_SAMPLES = (6, 8, 10)
GRID_RANGE = (-3000.0, 12.0 ** 4)
GRID_COUNT = 40

WORKLOADS = ("scan", "residue", "grid")


@dataclass
class Job:
    label: str
    argv: list
    check: Callable[[str], float]   # output text -> worst error; raises CheckError


def _pair(z):
    z = complex(z)
    return [z.real, z.imag]


def _samples(values):
    return {"kind": "samples", "interp": 3, "values": [_pair(v) for v in values]}


def _problem(p, q, a=0.0, b=0.0, c=0.0):
    return {"p": _samples(p), "q": _samples(q),
            "a": _pair(a), "b": _pair(b), "c": _pair(c)}


_ZERO_FIELD = {"kind": "piecewise_poly",
               "segments": [{"x0": 0.0, "x1": 1.0, "coeffs": [[0.0, 0.0]]}]}
BEAM = {"p": _ZERO_FIELD, "q": _ZERO_FIELD, "a": [0.0, 0.0], "b": [0.0, 0.0], "c": [0.0, 0.0]}


def _real(rng, n):
    return rng.uniform(-0.5, 0.5, n), rng.uniform(-0.5, 0.5, n)


def _complex(rng, n):
    return (rng.uniform(-0.5, 0.5, n) + 1j * rng.uniform(-0.5, 0.5, n),
            rng.uniform(-0.5, 0.5, n) + 1j * rng.uniform(-0.5, 0.5, n))


def _boundary(rng):
    """One complex boundary constant with modulus in [0.1, 0.4]."""
    return rng.uniform(0.1, 0.4) * np.exp(2j * np.pi * rng.uniform())


class Inputs:
    """Writes problem files under `workdir` and caches real references."""

    def __init__(self, workdir: Path, cache: Path):
        self.workdir = workdir
        self.cache = cache
        self.files = []

    def write(self, name, problem):
        path = self.workdir / f"{name}.json"
        path.write_text(json.dumps(problem, indent=2) + "\n")
        self.files.append(str(path))
        return str(path)

    def real_reference(self, p, q, count):
        """Reference (lambda, gamma, xi) per mode, cached by input content."""
        key = json.dumps([list(map(float, p)), list(map(float, q)), count])
        path = self.cache / f"real-{hashlib.sha256(key.encode()).hexdigest()[:20]}.json"
        if path.exists():
            return [tuple(r) for r in json.loads(path.read_text())]
        ref = [tuple(map(float, r)) for r in oracle.RealReference(p, q).eigen(count)]
        path.write_text(json.dumps(ref))
        return ref


def _classify_job(label, path, ref):
    return Job(label, ["classify", "--problem", path, "--count", str(SCAN_COUNT)],
               lambda out: oracle.check_classify(out, ref))


def _weights_job(label, path, lam, gamma):
    return Job(label, ["weights", "--problem", path, "--lambda0", repr(lam)],
               lambda out: oracle.check_weights(out, gamma))


def _grid_job(label, path):
    lams = np.linspace(*GRID_RANGE, GRID_COUNT)
    argv = ["weyl", "--problem", path, "--format", "csv",
            "--lambda-min", repr(GRID_RANGE[0]), "--lambda-max", repr(GRID_RANGE[1]),
            "--lambda-count", str(GRID_COUNT)]
    return Job(label, argv, lambda out: oracle.check_grid(out, lams))


def build(workload: str, seed: int, inputs: Inputs) -> list:
    """The workload's pass of jobs for this seed."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "scan":
        beam = inputs.write("beam", BEAM)
        jobs = []
        for i, n in enumerate(SCAN_SAMPLES):
            p, q = _real(rng, n)
            path = inputs.write(f"real{n}-{i}", _problem(p, q))
            jobs.append(_classify_job(f"classify real{n}-{i}", path,
                                      inputs.real_reference(p, q, SCAN_COUNT)))
        jobs.insert(1, _classify_job("classify beam", beam,
                                     oracle.beam_reference(SCAN_COUNT)))
        return jobs
    if workload == "residue":
        problems = {"beam": (inputs.write("beam", BEAM), oracle.beam_reference(2))}
        for name in ("real-0", "real-1"):
            p, q = _real(rng, RESIDUE_SAMPLES)
            problems[name] = (inputs.write(f"{name}-{RESIDUE_SAMPLES}", _problem(p, q)),
                              inputs.real_reference(p, q, 2))
        jobs = []
        for name, n in RESIDUE_PLAN:
            path, ref = problems[name]
            lam, gamma, _ = ref[n - 1]
            jobs.append(_weights_job(f"weights {name} lambda_{n}", path, lam, gamma))
        return jobs
    if workload == "grid":
        jobs = []
        for n in GRID_SAMPLES:
            p, q = _complex(rng, n)
            a, b, c = _boundary(rng), _boundary(rng), _boundary(rng)
            path = inputs.write(f"complex{n}", _problem(p, q, a, b, c))
            jobs.append(_grid_job(f"weyl complex{n}", path))
        return jobs
    raise ValueError(f"unknown workload {workload!r}")
