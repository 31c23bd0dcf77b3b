"""Benchmark of the quartspec command line, run in-process.

    python3 perfbench/run.py --workload {scan,residue,grid} --seed N \
        --seconds S --trace {0,1}

Run from anywhere; the package is imported from `src/` next to this
directory.  Each job is one `quartspec.cli.main(argv)` call on a problem
file generated from the seed, so the CLI parses and validates the file, and
pays per-problem caches such as `delta_scale`, on every job, as a CLI user
does.  The loop is closed, with one client and no think time; it runs
whole passes over the workload's jobs, starting another pass only while it
fits in S seconds (at least one pass).  BLAS threads are pinned to 1 and
QS_THREADS is unset.  Every output is checked against an oracle from
`oracle.py` outside the timed region.

--trace 0 prints the end-to-end metrics; their times are scaled to a
reference host speed measured by bursts of a fixed computation before and
after each job (`HostSpeed`), with the raw wall times printed beside them.
--trace 1 runs each job twice, untraced and then traced, and prints
per-job means of the per-layer metrics from spans recorded around the
package's public functions (`tracing.py`); the spans go to
`perfbench/out/<workload>-seed<N>/`.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.
"""

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("QS_THREADS", None)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_REPEATS = 3
# a fresh interpreter: import the package and its CLI, load the problems
SETUP_CODE = ("import sys, quartspec, quartspec.cli\n"
              "from quartspec.problem import load_problem\n"
              "for path in sys.argv[1:]:\n"
              "    load_problem(path)\n")
# errors below this are reported as 16 digits
ERROR_FLOOR = 1e-16
# time of one HostSpeed burst at the reference host speed: a 2.1 GHz Xeon VM
# with 2 vCPUs at low load
REFERENCE_BURST_S = 0.125
BURST_CALLS = 8


def parse_args():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args()


class HostSpeed:
    """Bursts of a fixed computation around each timed measurement.

    A burst is BURST_CALLS reference integrations of a fixed real problem:
    scipy's DOP853 with a Python right-hand side, the kind of work that
    dominates a job, without any quartspec code.  On a shared host the speed
    of such work drifts by up to 1.7x within minutes.  A wall time measured
    between two bursts is scaled by REFERENCE_BURST_S over their mean.
    """

    def __init__(self):
        import numpy as np

        import oracle

        self._ref = oracle.RealReference(np.linspace(-0.3, 0.4, 6), np.linspace(0.2, -0.5, 6))
        self._ref.delta22(500.0)   # first-call set-up stays out of the bursts
        self.bursts = []
        self.burst()

    def burst(self):
        t0 = perf_counter()
        for _ in range(BURST_CALLS):
            self._ref.delta22(500.0)
        self.bursts.append(perf_counter() - t0)

    def scaled(self, seconds):
        """`seconds` measured since the last burst, at the reference speed."""
        before = self.bursts[-1]
        self.burst()
        return seconds * REFERENCE_BURST_S / (0.5 * (before + self.bursts[-1]))


def measure_setup(files):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_CODE, *files], env=env,
                   check=True, timeout=120)
    return perf_counter() - t0


def run_job(cli, job):
    """(seconds, error message or None, worst checked error or None)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = perf_counter()
        try:
            rc = cli.main(job.argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # an escaped exception is a failed job
            rc = f"{type(exc).__name__}: {exc}"
        seconds = perf_counter() - t0
    if rc != 0:
        return seconds, f"exit {rc}: {err.getvalue().strip()[-300:]}", None
    try:
        return seconds, None, job.check(out.getvalue())
    except Exception as exc:  # malformed output fails the check like a wrong value
        return seconds, f"check: {type(exc).__name__}: {exc}", None


def closed_loop(seconds, one_pass):
    """Whole passes while the next one is expected to fit; returns the count."""
    t_start = perf_counter()
    passes = 0
    while True:
        t0 = perf_counter()
        one_pass()
        passes += 1
        now = perf_counter()
        if (now - t_start) + (now - t0) > seconds:
            return passes


def pass_tail(times, per_pass):
    """The slowest job of each pass, median over passes.

    A run has 4 to about 12 jobs, too few for a percentile above the median
    with 10 jobs beyond it; the maximum of a fixed job set keeps its meaning
    when a faster program fits more passes into the run.
    """
    return statistics.median(max(times[i:i + per_pass])
                             for i in range(0, len(times), per_pass))


def context_line(np, scipy):
    threads = " ".join(f"{v}={os.environ[v]}" for v in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"))
    return (f"# python {platform.python_version()} ({sys.executable}), numpy {np.__version__}, "
            f"scipy {scipy.__version__}, nproc {len(os.sched_getaffinity(0))}, {threads}, "
            f"QS_THREADS unset; closed loop, 1 client, no think time")


def record(results, label, seconds, error, worst):
    results.append({"job": label, "seconds": seconds, "error": error, "worst": worst})
    if error:
        print(f"FAIL {label}: {error}")


def accuracy_digits(results):
    checked = [r["worst"] for r in results if r["worst"] is not None]
    return -math.log10(max(max(checked), ERROR_FLOOR)) if checked else 0.0


def end_to_end(args, jobs, cli, results, files):
    """Set-up and timed whole passes over the jobs; the end-to-end metrics.

    Times are wall times scaled to the reference host speed (HostSpeed);
    the raw values are printed beside them.
    """
    speed = HostSpeed()
    setup_raw, setup = [], []
    for _ in range(SETUP_REPEATS):
        setup_raw.append(measure_setup(files))
        setup.append(speed.scaled(setup_raw[-1]))

    def one_pass():
        for job in jobs:
            outcome = run_job(cli, job)
            record(results, job.label, *outcome)
            results[-1]["scaled"] = speed.scaled(outcome[0])

    passes = closed_loop(args.seconds, one_pass)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    raw = [r["seconds"] for r in results]
    times = [r["scaled"] for r in results]
    print(f"# {args.workload}: {len(times)} jobs in {passes} passes; job_tail_s is the "
          f"median over passes of the slowest of {len(jobs)} jobs (p100 of each pass)")
    print(f"# host speed: median burst {statistics.median(speed.bursts):.4f} s of "
          f"{len(speed.bursts)} ({min(speed.bursts):.4f}-{max(speed.bursts):.4f}), "
          f"reference {REFERENCE_BURST_S} s; raw job_p50_s {statistics.median(raw):.4f}, "
          f"job_tail_s {pass_tail(raw, len(jobs)):.4f}, setup_s {statistics.median(setup_raw):.4f}")
    return {
        "job_p50_s": (statistics.median(times), "s"),
        "job_tail_s": (pass_tail(times, len(jobs)), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "ok_frac": (sum(1 for r in results if not r["error"]) / len(results), "ratio"),
        "accuracy_digits": (accuracy_digits(results), "digits"),
    }


def per_layer(args, jobs, cli, results, outdir):
    """Each job untraced, then traced; per-layer means per traced job."""
    import tracing

    tracer = tracing.Tracer()
    plain, traced, labels, coef = [], [], {}, {}

    def one_pass():
        for job in jobs:
            seconds, error, worst = run_job(cli, job)
            plain.append(seconds)
            record(results, job.label, seconds, error, worst)
            job_id = len(labels)
            labels[job_id] = job.label
            tracer.job = job_id
            before = tracer.coef_evals
            tracer.install()
            try:
                seconds, error, worst = run_job(cli, job)
            finally:
                tracer.uninstall()
            coef[job_id] = tracer.coef_evals - before
            traced.append(seconds)
            record(results, job.label + " (traced)", seconds, error, worst)

    passes = closed_loop(args.seconds, one_pass)
    tracer.write(outdir / "spans.jsonl", labels)
    n = len(labels)
    spans = tracer.spans
    for job_id in range(len(jobs)):
        c = tracing.job_counts(spans, {job_id})
        print(f"# {labels[job_id]}: {traced[job_id]:.3f} s traced, "
              f"{c['propagator.propagations']} propagations, "
              f"{c['weyl.delta_evals']} delta evals ({c['weyl.delta_distinct_lambda']} distinct "
              f"lambda, {c['weyl.delta_distinct']} distinct (lambda, jet)), "
              f"{c['weyl.m_evals']} M evals, {coef[job_id]} coefficient evals")
    counts = tracing.job_counts(spans)
    selfs = tracing.self_times(spans)
    per_job = {k: v / n for k, v in counts.items()}
    print(f"# {args.workload}: {n} traced jobs in {passes} passes; spans in {outdir}")
    return {
        "propagator.self_s": (selfs["propagator"] / n, "s/job"),
        "propagator.propagations": (per_job["propagator.propagations"], "count/job"),
        "propagator.columns": (per_job["propagator.columns"], "count/job"),
        "problem.coef_evals": (sum(coef.values()) / n, "count/job"),
        "weyl.self_s": (selfs["weyl"] / n, "s/job"),
        "weyl.delta_evals": (per_job["weyl.delta_evals"], "count/job"),
        "weyl.delta_jet_evals": (per_job["weyl.delta_jet_evals"], "count/job"),
        "weyl.m_evals": (per_job["weyl.m_evals"], "count/job"),
        "weyl.scale_delta_evals": (per_job["weyl.scale_delta_evals"], "count/job"),
        "weyl.delta_unique_ratio": (
            counts["weyl.delta_distinct"] / max(counts["weyl.delta_evals"], 1), "ratio"),
        "weyl.pole_errors": (per_job["weyl.pole_errors"], "count/job"),
        "spectra.self_s": (selfs["spectra"] / n, "s/job"),
        "spectra.windows": (
            counts["spectra.windows_total"] / counts["spectra.first_zeros_calls"]
            if counts["spectra.first_zeros_calls"] else 0.0, "count/call"),
        "spectra.delta_evals": (per_job["spectra.delta_evals"], "count/job"),
        "spectra.zeros": (per_job["spectra.zeros"], "count/job"),
        "weights.self_s": (selfs["weights"] / n, "s/job"),
        "weights.contour_m_evals": (per_job["weights.contour_m_evals"], "count/job"),
        "weights.laurent_errors": (per_job["weights.laurent_errors"], "count/job"),
        "mclaughlin.self_s": (selfs["mclaughlin"] / n, "s/job"),
        "mclaughlin.eigenfunctions": (per_job["mclaughlin.eigenfunctions"], "count/job"),
        "cli.self_s": (selfs["cli"] / n, "s/job"),
        "trace.overhead_frac": (
            statistics.median(traced) / statistics.median(plain) - 1.0, "ratio"),
    }


def main():
    args = parse_args()
    if not (SRC / "quartspec" / "__init__.py").is_file():
        print(f"error: package source not found at {SRC}/quartspec", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import numpy as np
    import scipy

    import workloads
    from quartspec import cli

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    outdir = HERE / "out" / f"{args.workload}-seed{args.seed}"
    cache = HERE / "out" / "cache"
    outdir.mkdir(parents=True, exist_ok=True)
    cache.mkdir(parents=True, exist_ok=True)
    inputs = workloads.Inputs(outdir, cache)
    jobs = workloads.build(args.workload, args.seed, inputs)

    # untimed warm-up of lazily initialised numpy/scipy paths
    run_job(cli, workloads.Job("warm-up", ["weyl", "--problem", inputs.files[0],
                                           "--lambda-count", "2"], lambda out: 0.0))
    print(context_line(np, scipy))

    results = []
    if args.trace:
        metrics = per_layer(args, jobs, cli, results, outdir)
    else:
        metrics = end_to_end(args, jobs, cli, results, inputs.files)
    failed = sum(1 for r in results if r["error"])

    result = {
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (outdir / f"result-trace{args.trace}.json").write_text(
        json.dumps(dict(result, jobs=results), indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
