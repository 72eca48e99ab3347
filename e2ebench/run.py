#!/usr/bin/env python3
"""Build and run the end-to-end benchmark.

    python3 e2ebench/run.py [--threads T] --workload W --seed N --seconds S --trace 0|1
    python3 e2ebench/run.py --self-check

Run from anywhere inside a checkout: the script builds e2ebench/ (which
compiles the repository's src/ alongside it) into .bench_build/ at the
checkout root, then runs the benchmark binary with the remaining
arguments. Build output goes to stderr; the binary's last stdout line is
the JSON result. Exits non-zero, printing no result, when the build or
the run fails.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "e2ebench")
BINARY = os.path.join(BUILD_DIR, "l2l_e2ebench")


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    cmd = ["cmake", "--build", BUILD_DIR, "--target", "l2l_e2ebench",
           "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def main(argv):
    # --threads pins the worker count (L2L_THREADS); never above the cores.
    threads = 2
    args = []
    i = 0
    while i < len(argv):
        if argv[i] == "--threads" and i + 1 < len(argv):
            threads = int(argv[i + 1])
            i += 2
            continue
        args.append(argv[i])
        i += 1
    threads = max(1, min(threads, os.cpu_count() or 1))

    if not build():
        print("e2ebench: build failed", file=sys.stderr)
        return 1
    env = dict(os.environ)
    for var in ("L2L_OBS", "L2L_CACHE", "L2L_CACHE_DIR"):
        env.pop(var, None)
    env["L2L_THREADS"] = str(threads)
    cmd = [BINARY, "--work-dir", os.path.join(BUILD_ROOT, "run")] + args
    return subprocess.run(cmd, env=env).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
