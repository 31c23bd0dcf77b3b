"""Checks of the benchmark itself.

    python3 perfbench/selfcheck.py spread [--workload scan] --seeds 1-10 --seconds 20
        runs each workload (all three by default) once per seed, prints
        every end-to-end metric with its unit, and per metric the median
        and the quartile spread (Q3 - Q1) / median of the runs;
    python3 perfbench/selfcheck.py determinism --seed 1 --seconds 1
        runs every workload traced twice with the same seed and fails unless
        every count metric (unit count/job, count/call or ratio, except
        trace.overhead_frac) repeats exactly and no job failed.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent


def run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def seeds(text):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def spread(args):
    for w in [args.workload] if args.workload else WORKLOADS:
        values = {}
        for seed in seeds(args.seeds):
            res = run(w, seed, args.seconds, 0)
            print(f"{w} seed {seed}: correct={res['correct']} "
                  f"failed={res['failed']}/{res['attempted']} "
                  + " ".join(f"{k}={m['value']:.4g} {m['unit']}"
                             for k, m in res["metrics"].items()), flush=True)
            for k, m in res["metrics"].items():
                values.setdefault(k, []).append(m["value"])
        if len(next(iter(values.values()))) < 2:
            continue
        for k, v in values.items():
            q1, med, q3 = statistics.quantiles(v, n=4)
            print(f"{w} {k}: median {med:.5g}, spread {(q3 - q1) / med:.4f}", flush=True)


def determinism(args):
    bad = 0
    for w in WORKLOADS:
        a, b = (run(w, args.seed, args.seconds, 1) for _ in range(2))
        differ = [k for k, m in a["metrics"].items()
                  if not (m["unit"].startswith("s") or k == "trace.overhead_frac")
                  and m["value"] != b["metrics"][k]["value"]]
        for k in differ:
            print(f"{w} {k}: {a['metrics'][k]['value']} != {b['metrics'][k]['value']}")
        print(f"{w}: counts {'DIFFER' if differ else 'repeat'}, "
              f"failed jobs {a['failed']} and {b['failed']}", flush=True)
        bad += len(differ) + a["failed"] + b["failed"]
    return 1 if bad else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("spread")
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=float, default=20)
    p = sub.add_parser("determinism")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=1)
    args = ap.parse_args()
    return spread(args) if args.cmd == "spread" else determinism(args)


if __name__ == "__main__":
    sys.exit(main())
