#!/usr/bin/env python3
"""Build the heteroprio library and the benchmark driver, then run one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload dag-file --seed 1 --seconds 20 --trace 0

The build goes to .bench_build/perfbench (Release); inputs, span dumps and
the exact-count ledger go to .bench_build/perfbench-run. Build output goes to
stderr; stdout ends with the driver's JSON result line. `--selftest` runs the
benchmark's own tests instead.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORK_DIR = os.path.join(ROOT, ".bench_build", "perfbench-run")
LIBRARY_SRC = os.path.join(ROOT, "src")
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def source_digest():
    """SHA-256 over the library sources and the benchmark's own files."""
    digest = hashlib.sha256()
    for top in (LIBRARY_SRC, HERE):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".cpp", ".hpp", ".txt", ".py")):
                    path = os.path.join(dirpath, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        digest.update(f.read())
    return digest.hexdigest()[:16]


def git_commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and not args.workload:
        fail("--workload is required")
    if not os.path.isfile(os.path.join(LIBRARY_SRC, "CMakeLists.txt")):
        fail("library sources not found at " + LIBRARY_SRC)

    build()
    if args.selftest:
        sys.exit(subprocess.run([os.path.join(BUILD_DIR, "perfbench_selftest")])
                 .returncode)

    cmd = [os.path.join(BUILD_DIR, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--workdir", WORK_DIR,
           "--source-digest", source_digest(), "--git-commit", git_commit()]
    try:
        code = subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        fail("workload did not finish within %d s" % RUN_TIMEOUT_S, 4)
    sys.exit(code)


if __name__ == "__main__":
    main()
