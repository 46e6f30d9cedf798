#!/usr/bin/env python3
"""Builds and runs the equihist benchmark for one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of an equihist checkout. The first run configures and
builds perfbench/ (and, through it, the library) in Release with tests off,
into $CARGO_TARGET_DIR when set and .bench_build otherwise; later runs only
rebuild what changed. After each build the Distribution self-test runs.

The last line of standard output is the result object
{"correct", "attempted", "failed", "metrics"}; the line before it records
the host and configuration. Build logs and diagnostics go to standard
error. The exit code is 0 only when the run completed and every checked
answer was right.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("serve_inproc", "rebuild_cvb")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
RUN_TIMEOUT_S = 170


def build_dir():
    path = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return path if path.is_absolute() else ROOT / path


def build(out):
    """Configures (once) and builds the benchmark; raises on failure."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (
        ROOT / "src" / "CMakeLists.txt"
    ).is_file():
        raise RuntimeError(f"{ROOT} is not an equihist checkout: no sources to build")
    out.mkdir(parents=True, exist_ok=True)
    logs = {"stdout": sys.stderr, "stderr": sys.stderr}
    if not (out / "CMakeCache.txt").is_file():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(out),
             "-DCMAKE_BUILD_TYPE=Release", "-DEQUIHIST_BUILD_TESTS=OFF"],
            check=True, **logs)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(out), "-j", jobs], check=True, **logs)
    subprocess.run([str(out / "perfbench_distribution_test")], check=True, **logs)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    out = build_dir()
    try:
        build(out)
    except (OSError, RuntimeError, subprocess.CalledProcessError) as error:
        print(f"perfbench: build failed: {error}", file=sys.stderr)
        return 2

    # A relative scratch path keeps the unix socket path short.
    scratch = os.path.relpath(out, ROOT)
    command = [str(out / "perfbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", args.trace, "--scratch", scratch]
    try:
        run = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                             text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: no result within {RUN_TIMEOUT_S}s", file=sys.stderr)
        return 3

    lines = run.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        if set(result) != RESULT_KEYS:
            raise ValueError(f"result keys {sorted(result)}")
    except (IndexError, ValueError) as error:
        print(f"perfbench: malformed output ({error}); exit {run.returncode}",
              file=sys.stderr)
        return run.returncode or 4
    for line in lines[:-1]:
        print(line)
    print(lines[-1])
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
