#!/usr/bin/env python3
"""Build Spade's end-to-end benchmark and run one workload.

Run from the repository root:

  python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1

The first call configures and builds bench_e2e (Release) into .bench_build,
or into $CARGO_TARGET_DIR when that is set; later calls rebuild only what
changed. The binary's output is passed through, so the last line printed is
the run's JSON result. The metric names and units in it are checked against
BENCHMARK.json. A traced run also leaves its spans in
<build dir>/traces/<workload>-<seed>.json.

Exit status: the benchmark's (0 = every output correct), or 1 when the build
fails, the run times out, or the result does not match BENCHMARK.json.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    """Configure (once) and build bench_e2e; build output goes to stderr."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            fail("cmake configure failed")
    compile_cmd = ["cmake", "--build", build_dir, "--target", "bench_e2e",
                   "-j", str(os.cpu_count() or 1)]
    if subprocess.run(compile_cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "bench_e2e")


def check_result(line, trace):
    """The last line must be the result object with BENCHMARK.json's metrics."""
    try:
        result = json.loads(line)
    except ValueError:
        fail("last line is not a JSON result: " + line)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("result keys are " + ", ".join(sorted(result)))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in spec}
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if result["correct"] and got != want:
        fail("metrics differ from BENCHMARK.json: want %s, got %s" % (want, got))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    binary = build(build_dir)

    # Relative, so the paths the serve workloads put in request lines hold
    # no spaces from the checkout's location.
    workdir = os.path.relpath(os.path.join(
        build_dir, "work", "%s-%d" % (args.workload, os.getpid())))
    os.makedirs(workdir)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--workdir", workdir]
    if args.trace:
        traces = os.path.join(build_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-json", os.path.join(
            traces, "%s-%d.json" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE,
                              universal_newlines=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (args.workload, RUN_TIMEOUT_S))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode not in (0, 1) or not lines[-1].startswith("{"):
        sys.stdout.write(proc.stdout)
        fail("bench_e2e exited with status %d" % proc.returncode)
    check_result(lines[-1], args.trace)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
