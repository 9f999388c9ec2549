#!/usr/bin/env python3
"""Keep and check the golden copies of the deterministic bench files.

The deterministic BENCH_<name>.json files (not the _host.json
companions) are the repo's determinism oracle: a refactor or a
performance change must leave every one of them byte-identical. The
smoke-mode copies checked in under tests/fixtures/bench_golden/ pin
them across changes.

  python3 scripts/update_bench_golden.py --check BENCH_DIR [GOLDEN_DIR]
      Byte-compare every deterministic BENCH_*.json in BENCH_DIR
      (typically build/bench after the bench_smoke tier) with its
      golden copy. On a mismatch, print the first differing metric
      with both values. A file with no golden copy fails; a golden
      file whose harness did not run is listed, not failed. The
      bench_golden ctest runs this mode.

  python3 scripts/update_bench_golden.py BENCH_DIR [GOLDEN_DIR]
      Re-baseline: copy every deterministic smoke-mode file from
      BENCH_DIR over its golden copy (a retired harness's golden file
      is removed by hand). Only for a change that means to move a
      figure; say which files moved and why in CHANGES.md.

GOLDEN_DIR defaults to tests/fixtures/bench_golden in this checkout.

Exit codes: 0 ok, 1 mismatch or malformed input, 77 when BENCH_DIR
holds no deterministic BENCH_*.json (ctest SKIP_RETURN_CODE, so a tree
that never ran the benches skips instead of failing).
"""

import json
import shutil
import sys
from pathlib import Path

DEFAULT_GOLDEN = (Path(__file__).resolve().parent.parent / "tests" /
                  "fixtures" / "bench_golden")


def deterministic_files(directory):
    return {
        p.name: p
        for p in sorted(directory.glob("BENCH_*.json"))
        if not p.name.endswith("_host.json")
    }


def first_difference(got, want):
    """Name the first differing metric (or top-level key) of two
    parsed bench files, with both values."""
    got_m = got.get("metrics", {})
    want_m = want.get("metrics", {})
    for name in sorted(set(got_m) | set(want_m)):
        g = got_m.get(name, "<missing>")
        w = want_m.get(name, "<missing>")
        if g != w:
            return f"metric {name}: got {g!r}, golden {w!r}"
    for key in sorted(set(got) | set(want)):
        if key != "metrics" and got.get(key) != want.get(key):
            return (f"key {key!r}: got {got.get(key)!r}, "
                    f"golden {want.get(key)!r}")
    return "formatting differs (same parsed content)"


def check(bench_dir, golden_dir):
    produced = deterministic_files(bench_dir)
    if not produced:
        print(f"no deterministic BENCH_*.json in {bench_dir}; skipping")
        return 77
    golden = deterministic_files(golden_dir)
    errors = []
    # A harness that did not run (or failed, which its own
    # bench_smoke test reports) leaves nothing to compare.
    for name in sorted(set(golden) - set(produced)):
        print(f"bench_golden: {name} not produced; not checked")
    for name in sorted(set(produced) - set(golden)):
        errors.append(f"{name}: no golden copy; add one with "
                      f"scripts/update_bench_golden.py")
    for name in sorted(set(produced) & set(golden)):
        got = produced[name].read_bytes()
        want = golden[name].read_bytes()
        if got == want:
            continue
        try:
            why = first_difference(json.loads(got), json.loads(want))
        except json.JSONDecodeError as e:
            why = f"unparseable: {e}"
        errors.append(f"{name}: {why}")
    for e in errors:
        print(f"bench_golden: {e}")
    if errors:
        return 1
    checked = len(set(produced) & set(golden))
    print(f"bench_golden: {checked} files byte-identical")
    return 0


def update(bench_dir, golden_dir):
    produced = deterministic_files(bench_dir)
    if not produced:
        print(f"no deterministic BENCH_*.json in {bench_dir}")
        return 77
    for name, path in produced.items():
        if json.loads(path.read_bytes()).get("smoke") is not True:
            print(f"{name} was not produced in smoke mode; run the "
                  f"bench_smoke tier (HIPSTR_BENCH_SMOKE=1) first")
            return 1
    golden_dir.mkdir(parents=True, exist_ok=True)
    golden = deterministic_files(golden_dir)
    for name, path in produced.items():
        old = golden[name].read_bytes() if name in golden else None
        if old != path.read_bytes():
            shutil.copyfile(path, golden_dir / name)
            print(f"{'updated' if old is not None else 'added'} {name}")
    return 0


def main(argv):
    args = [a for a in argv if a != "--check"]
    if len(args) not in (1, 2) or any(a.startswith("-") for a in args):
        print(__doc__, file=sys.stderr)
        return 1
    bench_dir = Path(args[0])
    golden_dir = Path(args[1]) if len(args) == 2 else DEFAULT_GOLDEN
    if "--check" in argv:
        return check(bench_dir, golden_dir)
    return update(bench_dir, golden_dir)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
