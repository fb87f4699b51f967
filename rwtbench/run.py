#!/usr/bin/env python3
"""Build the benchmark and the rwt daemon from source, then run one workload.

    python3 rwtbench/run.py --workload corpus|sweep|serve --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout. Build output goes to stderr; the last
line of stdout is the result object printed by rwtbench/main.exe. The exit
code is nonzero, with no result printed, when the build or the run fails.
"""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build")


def option(args, name):
    i = args.index(name) if name in args else -1
    return args[i + 1] if 0 <= i < len(args) - 1 else None


def main():
    build = subprocess.run(
        ["dune", "build", "--root", ROOT, "--build-dir", BUILD_DIR,
         "--cache=disabled", "./rwtbench/main.exe", "./bin/rwt.exe"],
        cwd=ROOT, stdout=sys.stderr)
    if build.returncode != 0:
        sys.exit(build.returncode)
    exe = os.path.join(BUILD_DIR, "default", "rwtbench", "main.exe")
    env = dict(os.environ, RWT_WORKERS="1")
    args = sys.argv[1:]
    if option(args, "--workload") == "serve" and option(args, "--trace") != "1":
        # The closed loop hands every request between the load generator
        # and the daemon's domains. Spread over the two virtual CPUs of the
        # reference host, consecutive runs swung between 950 and 2800
        # requests/s; on one CPU they stayed within a few percent. The
        # traced mode stays unpinned, since it measures the two-worker pool.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.exit(subprocess.run([exe] + args, cwd=ROOT, env=env).returncode)


if __name__ == "__main__":
    main()
