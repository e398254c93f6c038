#!/usr/bin/env python3
"""Builds the benchmark driver from this checkout and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. The driver is built with CMake under
.bench_build/perfbench (the repository's libraries from src/ plus the files
in perfbench/); heap files, indexes and the traced run's span dump go under
.perfbench_work/. The driver's last stdout line is one JSON object with the
keys correct, attempted, failed and metrics; this script prints it only when
the build and the run both succeeded, and exits non-zero otherwise.
"""

import fcntl
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
WORK_DIR = os.path.join(ROOT, ".perfbench_work")
DRIVER = os.path.join(BUILD_DIR, "perfbench_driver")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    """Configures once and builds incrementally; serialized by a file lock."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no src/ next to perfbench/; run from a full checkout")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    os.makedirs(BUILD_DIR, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(BUILD_ROOT, "perfbench.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs,
                      "--target", "perfbench_driver"])
        for step in steps:
            proc = subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                                  stderr=sys.stderr)
            if proc.returncode != 0:
                fail("build step failed: " + " ".join(step))


def seconds_arg(argv):
    for i, arg in enumerate(argv[:-1]):
        if arg == "--seconds":
            try:
                return float(argv[i + 1])
            except ValueError:
                return None
    return None


def main():
    argv = sys.argv[1:]
    seconds = seconds_arg(argv)
    if seconds is None or not 0 < seconds <= 60:
        fail("--seconds must be given, between 0 and 60")
    build()

    # The program reads PBSM_* knobs (kernel, node layout, scale) from the
    # environment; the benchmark measures its defaults.
    env = {k: v for k, v in os.environ.items() if not k.startswith("PBSM_")}
    tmp = os.path.join(WORK_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env["TMPDIR"] = tmp
    start = time.monotonic()
    try:
        proc = subprocess.run([DRIVER, "--workdir", WORK_DIR] + argv,
                              cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=seconds + 110)
    except subprocess.TimeoutExpired:
        fail("driver timed out after %.0f s" % (time.monotonic() - start))
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        fail("driver exited with code %d" % proc.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        sys.stderr.write(proc.stdout)
        fail("driver printed no result line")
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
