#!/usr/bin/env python3
"""Compare two result sets of the end-to-end benchmark, or calibrate it.

A result set is a JSON file {"runs": [{"workload": W, "seed": N,
"result": {...}}, ...]} holding the last line of each untraced run.

  compare.py --calibrate N [--out SET.json] [--first-seed S] [--workloads ...]
      Runs every workload N times (seeds S, S+1, ...) through run.py and
      prints each end-to-end metric's median, quartiles and spread (the
      quartile distance as a share of the median) beside its bound.
      --out saves the runs as a result set.

  compare.py BASE.json NEW.json
      For each end-to-end metric x workload, reports
        unresolved  a side's spread exceeds the metric's bound, so the runs
                    cannot tell, whatever the medians say; except that it is
                    agree when every NEW run is better than every BASE run,
                    and regress when every NEW run is worse and NEW's median
                    is worse by more than the bound;
        agree       otherwise, when NEW's median is not worse than BASE's by
                    more than the bound;
        regress     otherwise.
      Exits 1 if anything regressed or is unresolved.

Bounds, units and directions come from BENCHMARK.json; run from the
repository root.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def spread(values):
    """Quartile distance over the median, as the acceptance check takes it."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else float("inf")


def by_metric(result_set):
    """{(workload, metric): [values]} over a set's runs."""
    out = {}
    for run in result_set["runs"]:
        for name, m in run["result"]["metrics"].items():
            out.setdefault((run["workload"], name), []).append(m["value"])
    return out


def calibrate(spec, n, first_seed, workloads, out_path):
    runs = []
    command = spec["command"]
    for workload in workloads:
        for seed in range(first_seed, first_seed + n):
            start = time.time()
            proc = subprocess.run(
                command + ["--workload", workload, "--seed", str(seed),
                           "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                stdout=subprocess.PIPE, universal_newlines=True)
            last = proc.stdout.rstrip("\n").split("\n")[-1]
            if proc.returncode != 0:
                sys.exit("compare.py: %s seed %d failed: %s" % (workload, seed,
                                                                last))
            runs.append({"workload": workload, "seed": seed,
                         "result": json.loads(last)})
            print("%s seed %d done in %.1f s" % (workload, seed,
                                                 time.time() - start),
                  file=sys.stderr)
    result_set = {"runs": runs}
    if out_path:
        with open(out_path, "w") as f:
            json.dump(result_set, f, indent=1)
            f.write("\n")
    values = by_metric(result_set)
    print("%-12s %-26s %12s %12s %12s %8s %6s" % (
        "workload", "metric", "q1", "median", "q3", "spread", "bound"))
    for workload in workloads:
        for m in spec["end_to_end"]:
            v = values.get((workload, m["name"]), [])
            if len(v) < 2:
                continue
            q1, med, q3 = statistics.quantiles(v, n=4)
            print("%-12s %-26s %12.6g %12.6g %12.6g %8.4f %6.3f" % (
                workload, m["name"], q1, statistics.median(v), q3, spread(v),
                m["bound"]))


def compare(spec, base_path, new_path):
    with open(base_path) as f:
        base = by_metric(json.load(f))
    with open(new_path) as f:
        new = by_metric(json.load(f))
    workloads = [w["name"] for w in spec["workloads"]]
    bad = 0
    print("%-12s %-26s %12s %12s %8s %6s  %s" % (
        "workload", "metric", "base", "new", "worse", "bound", "verdict"))
    for workload in workloads:
        for m in spec["end_to_end"]:
            a = base.get((workload, m["name"]))
            b = new.get((workload, m["name"]))
            if not a or not b:
                continue
            ma, mb = statistics.median(a), statistics.median(b)
            sign = 1 if m["better"] == "lower" else -1
            worse = sign * (mb - ma) / ma if ma else 0.0
            all_worse = min(sign * x for x in b) > max(sign * x for x in a)
            all_better = max(sign * x for x in b) < min(sign * x for x in a)
            if max(spread(a), spread(b)) > m["bound"]:
                if all_better:
                    verdict = "agree"
                elif all_worse and worse > m["bound"]:
                    verdict = "regress"
                else:
                    verdict = "unresolved"
            else:
                verdict = "agree" if worse <= m["bound"] else "regress"
            bad += verdict != "agree"
            print("%-12s %-26s %12.6g %12.6g %+8.4f %6.3f  %s" % (
                workload, m["name"], ma, mb, worse, m["bound"], verdict))
    return 1 if bad else 0


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("sets", nargs="*", help="BASE.json NEW.json")
    parser.add_argument("--calibrate", type=int, metavar="N")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", nargs="+")
    parser.add_argument("--out")
    args = parser.parse_args()
    spec = load_spec()
    if args.calibrate:
        workloads = args.workloads or [w["name"] for w in spec["workloads"]]
        calibrate(spec, args.calibrate, args.first_seed, workloads, args.out)
        return 0
    if len(args.sets) != 2:
        parser.error("give two result sets, or --calibrate N")
    return compare(spec, args.sets[0], args.sets[1])


if __name__ == "__main__":
    sys.exit(main())
