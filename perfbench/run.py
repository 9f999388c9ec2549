#!/usr/bin/env python3
"""Build and run the repo benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> \\
        --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Builds perfbench/ (which pulls in ../src) into .bench_build/perfbench
at the repo root, then runs the benchmark binary with the same
arguments. Its standard output passes through unchanged; its last line
is the JSON result. Build output goes to standard error. The exit code
is the binary's: 0 only when every output check passed.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("figure", "fleet", "campaign", "record_replay")
# Knobs that select execution engines or the pool width; the benchmark
# runs each workload at the defaults and fixes the width itself.
CLEARED_ENV = ("HIPSTR_TRACE", "HIPSTR_JIT", "HIPSTR_JOBS",
               "HIPSTR_BENCH_SMOKE")


def build():
    """Configure (once) and build; returns False on failure."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    configured = any(os.path.exists(os.path.join(BUILD, f))
                     for f in ("build.ninja", "Makefile"))
    if not configured:
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", BUILD] + gen)
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        p = subprocess.run(cmd, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True)
        if p.returncode != 0:
            sys.stderr.write(p.stdout[-4000:])
            sys.stderr.write("perfbench: build failed: %s\n"
                             % " ".join(cmd))
            return False
    return True


def run_child(cmd, env):
    """Run @cmd to completion, passing stdout through; terminate it if
    this process is asked to stop."""
    child = subprocess.Popen(cmd, env=env)

    def stop(signum, _frame):
        child.terminate()
        try:
            child.wait(timeout=10)
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    rc = child.wait()
    return rc if rc >= 0 else 128 - rc


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="run the benchmark's own tests and exit")
    args = ap.parse_args()
    if not args.selftest and args.workload is None:
        ap.error("--workload is required")
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    if not build():
        return 1
    env = {k: v for k, v in os.environ.items() if k not in CLEARED_ENV}
    sys.stdout.flush()
    if args.selftest:
        return run_child([os.path.join(BUILD, "perfbench_selftest")], env)

    scratch = os.path.join(BUILD, "run")
    os.makedirs(scratch, exist_ok=True)
    cmd = [os.path.join(BUILD, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--scratch", scratch]
    return run_child(cmd, env)


if __name__ == "__main__":
    sys.exit(main())
