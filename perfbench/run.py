#!/usr/bin/env python3
"""Builds and runs the cachegraph benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Builds the library and the benchmark from source (Release, the
repository's default CMake options) under $CARGO_TARGET_DIR/perfbench,
default .bench_build/perfbench, then runs one workload. The last line of
standard output is the JSON result. Build output goes to standard error.
A run that fails its oracle, or cannot build, exits non-zero without a
result line.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170  # a run must end within 180 s


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def child_env():
    """Keeps compiler and program temporaries inside the checkout."""
    tmp = os.path.join(build_dir(), "tmp")
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp)


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        sys.exit("perfbench: no cachegraph sources next to the benchmark; nothing to build")
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "--build", out, "-j", jobs, "--target", target]]
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=child_env())
        if done.returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    return os.path.join(out, target)


def run(cmd):
    """Runs cmd from the repository root; stdout passes straight through."""
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env())
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 124


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", default="1")
    ap.add_argument("--seconds", default="10")
    ap.add_argument("--trace", default="0", choices=["0", "1"])
    ap.add_argument("--selftest", action="store_true")
    a = ap.parse_args()
    if a.selftest:
        return run([build("perfbench_selftest")])
    if not a.workload:
        ap.error("--workload is required")
    binary = build("perfbench")
    sys.stdout.flush()
    return run([binary, "--workload", a.workload, "--seed", a.seed, "--seconds", a.seconds,
                "--trace", a.trace, "--out", os.path.join(ROOT, ".bench_out")])


if __name__ == "__main__":
    sys.exit(main())
