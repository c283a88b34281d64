#!/usr/bin/env python3
"""Golden gate for the paper-figure benches (Figures 6-9).

Each figure bench prints a deterministic table computed from charged
virtual cycles and modeled memory, never from wall time, so its stdout must
stay byte-identical across host-only changes. This script runs each bench
from a build directory and diffs its stdout against the golden checked in
under bench/golden/.

Usage:
    python3 scripts/check_fig_goldens.py [BUILD_DIR]            # default: build
    python3 scripts/check_fig_goldens.py [BUILD_DIR] --update   # rewrite goldens

Exits nonzero, printing a unified diff per mismatching figure, when any
output differs or a bench binary is missing. Prints each bench's wall time.
"""

import difflib
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_DIR = ROOT / "bench" / "golden"
BENCHES = [
    "bench_fig6_memory",
    "bench_fig7_throughput",
    "bench_fig8_latency",
    "bench_fig9_label_costs",
]


def main(argv):
    args = [a for a in argv[1:] if a != "--update"]
    update = len(args) != len(argv) - 1
    build = (Path(args[0]) if args else ROOT / "build").resolve()
    failed = False
    for name in BENCHES:
        binary = build / name
        golden = GOLDEN_DIR / (name + ".txt")
        if not binary.is_file():
            print(f"check_fig_goldens: {binary} not built", file=sys.stderr)
            failed = True
            continue
        start = time.monotonic()
        run = subprocess.run([str(binary)], cwd=str(build), stdout=subprocess.PIPE)
        seconds = time.monotonic() - start
        if run.returncode != 0:
            print(f"check_fig_goldens: {name} exited {run.returncode}", file=sys.stderr)
            failed = True
            continue
        actual = run.stdout.decode()
        if update:
            golden.write_text(actual)
            print(f"check_fig_goldens: {name}: golden written ({seconds:.1f} s)")
            continue
        expected = golden.read_text() if golden.is_file() else ""
        if actual == expected:
            print(f"check_fig_goldens: {name}: identical ({seconds:.1f} s)")
            continue
        failed = True
        print(f"check_fig_goldens: {name}: stdout differs from {golden.relative_to(ROOT)}",
              file=sys.stderr)
        sys.stderr.writelines(difflib.unified_diff(
            expected.splitlines(keepends=True), actual.splitlines(keepends=True),
            fromfile="golden", tofile=name))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
