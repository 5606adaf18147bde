#!/usr/bin/env python3
"""Checks that every committed file under `results/` is what the code at
this commit prints.

GENERATORS maps each committed file to the bench-binary command that
writes it. With no flag the script prints that table; regenerate a file
by running its command from the repository root.

  --check   reruns every generator except the slow ones (`figure4 --full`,
            about 4 minutes on 2 vCPUs) and compares each output with the
            committed file: text byte for byte, JSON point by point on
            `(point, system) -> cycles` (wall times, rates, byte counts
            and provenance are host-dependent and not compared).
  --all     with --check, also reruns the slow generators.

Exits 1 and prints every mismatch if any file differs.

Usage: python3 scripts/results.py [--check [--all]]
"""

import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# (committed file, binary, arguments, slow). A JSON file's generator
# writes it through `--json OUT`; a text file's generator prints it on
# stdout.
GENERATORS = [
    ("tables.txt", "tables", [], False),
    ("figure3_full.txt", "figure3", ["--full", "--jobs", "2"], False),
    ("figure4_full.txt", "figure4", ["--full", "--jobs", "2"], True),
    ("ablations.txt", "ablations", ["--jobs", "2"], False),
    ("BENCH_figure3.json", "figure3",
     ["--scale", "64", "--nodes", "8", "--jobs", "1", "--repeat", "3"], False),
    ("BENCH_figure4.json", "figure4",
     ["--scale", "64", "--nodes", "8", "--jobs", "1", "--repeat", "3"], False),
    ("BENCH_ablations.json", "ablations",
     ["--scale", "64", "--nodes", "8", "--jobs", "1", "--repeat", "3"], False),
    ("BENCH_figure3_64_mesh.json", "figure3",
     ["--nodes", "64", "--topology", "mesh", "--apps", "em3d", "--scale", "64", "--jobs", "1"],
     False),
    ("BENCH_figure3_256_mesh.json", "figure3",
     ["--nodes", "256", "--topology", "mesh", "--apps", "em3d", "--scale", "64", "--jobs", "1"],
     False),
    ("BENCH_figure3_1024_mesh.json", "figure3",
     ["--nodes", "1024", "--topology", "mesh", "--apps", "em3d", "--scale", "64", "--jobs", "1"],
     False),
    ("BENCH_kv_8.json", "kv_bench", ["--nodes", "8", "--jobs", "1", "--repeat", "3"], False),
    ("BENCH_kv_32.json", "kv_bench", ["--nodes", "32", "--jobs", "1", "--repeat", "3"], False),
    ("BENCH_kv_64_mesh.json", "kv_bench",
     ["--nodes", "64", "--topology", "mesh", "--jobs", "1"], False),
]


def command(name, binary, args):
    """The generator's command line, writing JSON to `results/NAME`."""
    cmd = ["cargo", "run", "--release", "-q", "-p", "tt-bench", "--bin", binary, "--"] + args
    if name.endswith(".json"):
        cmd += ["--json", os.path.join("results", name)]
    return cmd


def cycles(path):
    """`(point, system) -> cycles` of a JSON report."""
    with open(path) as f:
        return {(p["point"], p["system"]): p["cycles"] for p in json.load(f)["points"]}


def check(name, binary, args, scratch):
    """Reruns one generator into `scratch`; returns a list of mismatches."""
    committed = os.path.join(ROOT, "results", name)
    fresh = os.path.join(scratch, name)
    cmd = command(name, binary, args)
    if name.endswith(".json"):
        cmd[-1] = fresh
        subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL,
                       stderr=subprocess.DEVNULL)
        new, old = cycles(fresh), cycles(committed)
        return [f"{name} {key}: cycles {new.get(key)} vs committed {old.get(key)}"
                for key in sorted(set(new) | set(old), key=str)
                if new.get(key) != old.get(key)]
    with open(fresh, "wb") as out:
        subprocess.run(cmd, cwd=ROOT, check=True, stdout=out, stderr=subprocess.DEVNULL)
    with open(fresh, "rb") as f, open(committed, "rb") as g:
        if f.read() == g.read():
            return []
    diff = subprocess.run(["diff", committed, fresh], capture_output=True, text=True).stdout
    return [f"{name} differs from the committed file:\n{diff}"]


def main(argv):
    flags = set(argv)
    if flags - {"--check", "--all"} or ("--all" in flags and "--check" not in flags):
        print(__doc__.strip(), file=sys.stderr)
        return 2
    if "--check" not in flags:
        for name, binary, args, _ in GENERATORS:
            print(f"results/{name}: {' '.join(command(name, binary, args))}")
        return 0
    failures = []
    with tempfile.TemporaryDirectory() as scratch:
        for name, binary, args, slow in GENERATORS:
            if slow and "--all" not in flags:
                print(f"    skip  results/{name} (slow; --all reruns it)")
                continue
            bad = check(name, binary, args, scratch)
            print(f"    {'FAIL' if bad else 'ok':4}  results/{name}")
            failures += bad
    for line in failures:
        print(f"FAIL: {line}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
