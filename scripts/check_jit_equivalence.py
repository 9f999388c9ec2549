#!/usr/bin/env python3
"""Byte-equality gate for the trace tier's determinism contract.

Runs each bench harness twice in smoke mode — HIPSTR_JIT=0 and
HIPSTR_JIT=1 — in separate scratch directories and requires the
deterministic BENCH_<name>.json files to be byte-identical. Compiled
traces fold the same translate-time counter deltas at the same block
boundaries as the plain block loop that runs everything under
HIPSTR_JIT=0, so nothing in the deterministic summary may move when
the trace tier switches.

Usage: check_jit_equivalence.py <bench-binary> [<bench-binary>...]

Exit codes: 0 ok, 1 divergence or harness failure.
"""

import os
import subprocess
import sys
import tempfile
from pathlib import Path


def run_bench(binary, jit, scratch):
    env = dict(os.environ)
    env["HIPSTR_BENCH_SMOKE"] = "1"
    env["HIPSTR_JIT"] = jit
    r = subprocess.run(
        [binary],
        cwd=scratch,
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
    )
    if r.returncode != 0:
        print(f"FAIL {Path(binary).name} (HIPSTR_JIT={jit}): "
              f"exit {r.returncode}")
        sys.stderr.buffer.write(r.stderr[-2000:])
        return None
    files = sorted(Path(scratch).glob("BENCH_*.json"))
    det = [f for f in files if not f.stem.endswith("_host")]
    if not det:
        print(f"FAIL {Path(binary).name}: produced no deterministic "
              f"BENCH json")
        return None
    return {f.name: f.read_bytes() for f in det}


def main(argv):
    if len(argv) < 2:
        print(__doc__)
        return 2
    failures = 0
    for binary in argv[1:]:
        with tempfile.TemporaryDirectory() as off_dir, \
                tempfile.TemporaryDirectory() as on_dir:
            off = run_bench(binary, "0", off_dir)
            on = run_bench(binary, "1", on_dir)
        if off is None or on is None:
            failures += 1
            continue
        if set(off) != set(on):
            print(f"FAIL {Path(binary).name}: file sets differ: "
                  f"{sorted(off)} vs {sorted(on)}")
            failures += 1
            continue
        for name in sorted(off):
            if off[name] != on[name]:
                print(f"FAIL {name}: deterministic JSON differs "
                      f"between HIPSTR_JIT=0 and HIPSTR_JIT=1")
                failures += 1
            else:
                print(f"ok {name}: byte-identical across "
                      f"HIPSTR_JIT=0/1 ({len(off[name])} bytes)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
