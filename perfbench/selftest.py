#!/usr/bin/env python3
"""Tiny-scale self-test of the benchmark.

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json it runs perfbench/run.py at a small
fraction of the data scale for one second and checks that

  * a timed run (--trace 0) reports correct, zero failed operations, and
    exactly the end_to_end metrics with their units;
  * a traced run (--trace 1) reports exactly the per_layer metrics with
    their units;
  * a run whose reference digests are perturbed (--perturb-reference 1)
    counts failed operations and reports correct = false.

Exits non-zero on the first workload that breaks any of these.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace, perturb):
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", str(trace), "--scale-factor", "0.05",
           "--perturb-reference", str(perturb)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    if proc.returncode != 0:
        raise AssertionError("%s exited with %d" % (" ".join(cmd),
                                                     proc.returncode))
    return json.loads(proc.stdout.strip().split("\n")[-1])


def check_metrics(result, expected, label):
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in expected}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(n for n in set(got) & set(want) if got[n] != want[n])
        raise AssertionError("%s: missing %s, unexpected %s, wrong unit %s"
                             % (label, missing, extra, wrong))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for w in spec["workloads"]:
        name = w["name"]
        timed = run(name, 0, 0)
        if not timed["correct"] or timed["failed"] != 0:
            raise AssertionError("%s: %d of %d operations failed"
                                 % (name, timed["failed"],
                                    timed["attempted"]))
        check_metrics(timed, spec["end_to_end"], name + " --trace 0")
        traced = run(name, 1, 0)
        check_metrics(traced, spec["per_layer"], name + " --trace 1")
        perturbed = run(name, 0, 1)
        if perturbed["correct"] or perturbed["failed"] == 0:
            raise AssertionError("%s: perturbed reference not counted as "
                                 "failed operations" % name)
        print("ok  %-18s %5d ops, %d failed with a perturbed reference"
              % (name, timed["attempted"], perturbed["failed"]))
    print("selftest passed")


if __name__ == "__main__":
    try:
        main()
    except AssertionError as e:
        print("selftest FAILED: %s" % e, file=sys.stderr)
        sys.exit(1)
