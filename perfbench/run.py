#!/usr/bin/env python3
"""Builds the cleanse benchmark from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload taxa_fd_batch --seed 1 \
        --seconds 10 --trace 0

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench)
and its output to stderr, so the last line of standard output is the
benchmark's JSON result. --trace 1 also writes the recorded spans to
<build dir>/traces/<workload>-seed<seed>.json. See perfbench/README.md.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["taxa_fd_batch", "taxb_dc_batch", "taxa_stream", "customer_dedup_udf"]
# One run measures --seconds plus set-up and checks; a hung run is killed.
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    return 2


def run_quiet(cmd):
    """Runs a build step with its output on stderr; returns its exit code."""
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    build_root = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, build_root, "perfbench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        if run_quiet(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"]) != 0:
            return None, build_dir
    jobs = str(min(os.cpu_count() or 1, 8))
    if run_quiet(["cmake", "--build", build_dir, "-j", jobs]) != 0:
        return None, build_dir
    return os.path.join(build_dir, "cleanse_bench"), build_dir


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    # Any BD_* variable changes the program under test (threads, kernels,
    # morsels, faults, stream defaults, recorders, profiler).
    bd_vars = sorted(k for k in os.environ if k.startswith("BD_"))
    if bd_vars:
        return fail("refusing to run with " + ", ".join(bd_vars) + " set")
    if not os.path.isdir(os.path.join(ROOT, "src")):
        return fail("no src/ directory next to perfbench/; nothing to build")
    if args.seconds <= 0:
        return fail("--seconds must be positive")

    binary, build_dir = build()
    if binary is None or not os.path.exists(binary):
        return fail("build failed")

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        trace_dir = os.path.join(build_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            trace_dir, "%s-seed%d.json" % (args.workload, args.seed))]
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        return fail("run exceeded %d s and was stopped" % RUN_TIMEOUT_S)
    except BaseException:
        proc.kill()
        proc.wait()
        raise


if __name__ == "__main__":
    sys.exit(main())
