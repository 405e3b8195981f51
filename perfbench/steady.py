#!/usr/bin/env python3
"""Steadiness mode of the repository benchmark.

Runs one workload N times with seeds 1..N for BENCHMARK.json's run_seconds
and prints, for every metric, the median, the first and third quartiles and
the spread (q3 - q1) / |median|.  Quartiles follow
statistics.quantiles(values, n=4).  An end-to-end metric whose spread
exceeds its bound in BENCHMARK.json is flagged and the script exits 1; one
above a third of its bound is marked.

The last line of standard output is a JSON object of the medians.  Given
the saved output of an earlier set with --against, the script also flags
every end-to-end metric whose median got worse than that set's by more than
its bound.

Run from the repository root:

    python3 perfbench/steady.py --workload host-open --runs 10 > set1.txt
    python3 perfbench/steady.py --workload host-open --runs 10 --against set1.txt
    python3 perfbench/steady.py --workload fleet-paging --runs 5 --trace 1
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds, trace):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", trace]
    done = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"seed {seed}: benchmark exited {done.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"seed {seed}: {result['failed']} of {result['attempted']} failed")
    return result["metrics"]


def worse_by(median, earlier, better):
    """How much worse `median` is than `earlier`, as a share of `earlier`."""
    change = (median - earlier) / abs(earlier) if earlier else 0.0
    return change if better == "lower" else -change


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--against", help="saved output of an earlier set")
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2 to form quartiles")

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    end_to_end = {m["name"]: m for m in bench["end_to_end"]}
    earlier = {}
    if args.against:
        with open(args.against) as f:
            earlier = json.loads(f.read().strip().splitlines()[-1])

    values, units = {}, {}
    for seed in range(1, args.runs + 1):
        for name, metric in run_once(bench["command"], args.workload, seed,
                                     bench["run_seconds"], args.trace).items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
        print(f"# run {seed}/{args.runs} done", file=sys.stderr)

    flagged = []
    medians = {}
    print(f"{'metric':32} {'unit':6} {'median':>14} {'q1':>14} {'q3':>14} "
          f"{'spread':>8} {'bound':>6} {'drift':>8}")
    for name, vals in values.items():
        median = medians[name] = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / abs(median) if median else 0.0
        metric = end_to_end.get(name)
        bound = metric["bound"] if metric else None
        drift = worse_by(median, earlier[name], metric["better"]) \
            if metric and name in earlier else None
        notes, bad = [], False
        if bound is not None and spread > bound:
            notes.append("SPREAD EXCEEDS BOUND")
            bad = True
        elif bound is not None and spread > bound / 3:
            notes.append("spread above bound/3")
        if drift is not None and drift > bound:
            notes.append("WORSE THAN EARLIER SET BY MORE THAN BOUND")
            bad = True
        if bad:
            flagged.append(name)
        print(f"{name:32} {units[name]:6} {median:14.6g} {q1:14.6g} {q3:14.6g} "
              f"{spread:8.4f} {'' if bound is None else bound:>6} "
              f"{'' if drift is None else f'{drift:+.4f}':>8} {' '.join(notes)}")
    print(json.dumps(medians))
    if flagged:
        print(f"# unsteady: {', '.join(flagged)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
