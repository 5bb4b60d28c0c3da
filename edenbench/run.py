#!/usr/bin/env python3
"""Builds the Eden benchmark from source and runs one workload.

    python3 edenbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The build goes to $CARGO_TARGET_DIR (relative
to the root) or .bench_build, as a Release build of edenbench/CMakeLists.txt,
and is incremental across runs. Build output goes to stderr; stdout carries
only the benchmark's report line and, last, its result JSON. The exit code is
the benchmark's: 0 only when every output check passed.
"""

import argparse
import hashlib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "edenbench")


def build(out_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "edenbench"), "-B", out_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out_dir, "--target", "edenbench", "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            return False
    return True


def git_sha():
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10, check=False)
    except OSError:
        return "none"
    sha = done.stdout.strip()
    return sha if done.returncode == 0 and sha else "none"


def source_digest():
    """SHA-256 over the simulator and benchmark sources, so results stay
    attributable to a tree even outside a git checkout."""
    digest = hashlib.sha256()
    for top in ("src", "edenbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    out_dir = build_dir()
    try:
        built = build(out_dir)
    except subprocess.TimeoutExpired:
        built = False
    binary = os.path.join(out_dir, "edenbench")
    if not built or not os.path.exists(binary):
        print("edenbench: build failed", file=sys.stderr)
        return 3

    spans_dir = os.path.join(out_dir, "spans")
    os.makedirs(spans_dir, exist_ok=True)
    spans_out = os.path.join(
        spans_dir, "%s-seed%d-trace%s.json" % (args.workload, args.seed, args.trace))
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--git-sha", git_sha(), "--source-digest", source_digest(),
           "--spans-out", spans_out]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S,
                              check=False)
    except subprocess.TimeoutExpired:
        print("edenbench: run timed out", file=sys.stderr)
        return 4
    sys.stdout.write(done.stdout.decode())
    sys.stdout.flush()
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
