#!/usr/bin/env python3
"""Builds and runs the okbench benchmark from the root of a source tree.

    python3 okbench/run.py --workload <echo_hot|login_5k|notes_durable> \
        --seed <n> --seconds <s> --trace <0|1>
    python3 okbench/run.py --test      # the benchmark's own tests

The benchmark is a CMake package of its own (okbench/CMakeLists.txt) that
compiles the simulator from ../src. It is configured and built on first use
under $CARGO_TARGET_DIR (default .bench_build) and rebuilt incrementally
after that. Build output goes to stderr; the okbench binary prints its
human-readable table to stderr and the result as one JSON line on stdout.
"""

import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("echo_hot", "login_5k", "notes_durable")


def build_dir() -> Path:
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "okbench"


def child_env(out: Path) -> dict:
    """The environment for child processes: temporary files stay in the build tree."""
    tmp = out / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    return dict(os.environ, TMPDIR=str(tmp), TEST_TMPDIR=str(tmp) + "/")


def build(out: Path) -> bool:
    if not (ROOT / "src" / "okws" / "okws_world.h").is_file():
        print("okbench: no simulator sources under %s/src" % ROOT, file=sys.stderr)
        return False
    env = child_env(out)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (out / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(ROOT / "okbench"), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env).returncode != 0:
            return False
    cmd = ["cmake", "--build", str(out), "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env).returncode == 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--test", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()
    if not args.test and args.workload is None:
        parser.error("--workload is required")

    out = build_dir()
    if not build(out):
        print("okbench: build failed", file=sys.stderr)
        return 2
    if args.test:
        test = out / "okbench_test"
        if not test.is_file():
            print("okbench: GoogleTest not found; tests not built", file=sys.stderr)
            return 2
        return subprocess.run([str(test)], cwd=str(out), env=child_env(out)).returncode
    cmd = [str(out / "okbench"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", str(out / "out")]
    return subprocess.run(cmd, env=child_env(out)).returncode


if __name__ == "__main__":
    sys.exit(main())
