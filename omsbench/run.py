#!/usr/bin/env python3
"""Builds and runs the OMS benchmark from the root of a checkout.

    python3 omsbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Configures and builds omsbench/CMakeLists.txt (the library from src/ plus
the benchmark binary) into $CARGO_TARGET_DIR, or .bench_build when unset,
then runs one workload in its own process. The binary's last stdout line
-- {"correct", "attempted", "failed", "metrics"} -- is printed as this
script's last line. Build logs and the run's details go to stderr; traced
runs leave a Chrome trace and a self-time table in .bench_out/. Exits
non-zero, printing no result, when the build or the run fails.
"""
import argparse
import fcntl
import os
import shutil
import subprocess
import sys

WORKLOADS = ("batch_open", "imc_search", "serve_short_streams",
             "grow_and_search")
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configures (once) and builds the benchmark; True on success."""
    here = os.path.dirname(os.path.abspath(__file__))
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", here, "-B", build_dir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", build_dir, "-j4",
                      "--target", "omsbench"])
        for cmd in steps:
            if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
                return False
    return True


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not build(build_dir):
        print("omsbench: build failed", file=sys.stderr)
        return 1

    cmd = [os.path.join(build_dir, "omsbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        shutil.rmtree(".bench_tmp", ignore_errors=True)
        print("omsbench: run timed out", file=sys.stderr)
        return 1
    lines = out.strip().splitlines()
    if proc.returncode != 0:
        # A crashed or killed run cannot remove its own artifacts.
        shutil.rmtree(".bench_tmp", ignore_errors=True)
    if proc.returncode != 0 or not lines:
        print("omsbench: run failed (exit %d)" % proc.returncode,
              file=sys.stderr)
        return 1
    print(lines[-1], flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
