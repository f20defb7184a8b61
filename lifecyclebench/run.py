#!/usr/bin/env python3
"""Build and run the warehouse lifecycle benchmark.

    python3 lifecyclebench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 lifecyclebench/run.py --selftest

Run from the repository root (any working directory works; paths are
resolved from this file). The first call configures and builds the
benchmark and the mvdesign library from source into .bench_build/
(or $CARGO_TARGET_DIR when set); later calls only rebuild what changed.

The benchmark runs the program as a user gets it: every MVD_* variable is
removed from its environment, so engine, thread count and refresh mode
are the program's defaults. Its last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics; a copy goes
to .bench_build/results/, and traced runs leave their span log in
.bench_build/traces/.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper-serve", "star-refresh", "design-wide")
# A run takes well under a minute; anything near this is a hang.
RUN_TIMEOUT_S = 170


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build(out_dir):
    """Configures once, then builds the benchmark target. Returns the binary."""
    cmake_dir = os.path.join(out_dir, "lifecyclebench")
    log = sys.stderr
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", cmake_dir, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=log, stderr=log)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(
        ["cmake", "--build", cmake_dir, "--target", "lifecycle_bench", "-j", jobs],
        check=True, stdout=log, stderr=log)
    return os.path.join(cmake_dir, "lifecycle_bench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="run only the oracle's self-test")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    out_dir = build_dir()
    try:
        binary = build(out_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1

    env = {k: v for k, v in os.environ.items() if not k.startswith("MVD_")}
    if args.selftest:
        cmd = [binary, "--selftest"]
    else:
        cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            traces = os.path.join(out_dir, "traces")
            os.makedirs(traces, exist_ok=True)
            cmd += ["--trace-dir", traces]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: benchmark exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode != 0:
        return proc.returncode

    lines = proc.stdout.strip().splitlines()
    if not args.selftest and lines:
        results = os.path.join(out_dir, "results")
        os.makedirs(results, exist_ok=True)
        name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
        with open(os.path.join(results, name), "w") as f:
            f.write(lines[-1] + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
