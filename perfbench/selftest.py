#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/selftest.py

Run from the root of a checkout.  For every workload, at smoke size:
  * an untraced and a traced run finish with correct=true and no failed op;
  * the printed metric names and units equal BENCHMARK.json's;
  * the deterministic metrics repeat exactly at a fixed seed;
  * the traced run, which checks its own span tree (each child inside its
    parent and in the same op, self times non-negative, one root span per
    op), is correct, and its span file holds more than one op.
Finally the benchmark, copied alone into an empty directory, must exit
non-zero without printing a result.  Exits 1 on the first failed check.
"""

import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
DETERMINISTIC = ["mapped_cells", "sim_cycles_geomean", "energy_pj_geomean",
                 "context_words_geomean"]
SEED = 3


def check(cond, what):
    if not cond:
        print("selftest: FAILED: " + what, file=sys.stderr)
        sys.exit(1)


def run(workload, trace, cwd=ROOT):
    cmd = SPEC["command"] + ["--workload", workload, "--seed", str(SEED),
                             "--seconds", "1", "--trace", str(trace), "--smoke"]
    p = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                       timeout=600)
    return p


def result(workload, trace):
    p = run(workload, trace)
    check(p.returncode == 0,
          f"{workload} --trace {trace} exited {p.returncode}: {p.stderr[-2000:]}")
    last = json.loads(p.stdout.strip().splitlines()[-1])
    check(set(last) == {"correct", "attempted", "failed", "metrics"},
          f"{workload}: result keys {sorted(last)}")
    check(last["correct"] is True and last["failed"] == 0
          and last["attempted"] >= 1, f"{workload}: {last}")
    declared = SPEC["end_to_end"] if trace == 0 else SPEC["per_layer"]
    check({m["name"]: m["unit"] for m in declared}
          == {k: v["unit"] for k, v in last["metrics"].items()},
          f"{workload} --trace {trace}: metric names or units differ from "
          "BENCHMARK.json")
    return last["metrics"]


def check_trace(workload):
    """The traced run checks its own span tree (correct=true above); this
    only makes sure the tree it checked holds more than one op."""
    path = os.path.join(ROOT, ".perfbench", f"trace-{workload}-{SEED}.tsv")
    ops = {line.split("\t")[2] for line in open(path).read().splitlines()[1:]}
    check(len(ops) > 1, f"{workload}: the trace holds no ops")


def check_alone():
    """The benchmark without the repository must fail without a result."""
    scratch = os.path.join(ROOT, ".perfbench", "alone")
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(scratch)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), scratch)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(scratch, path))
    p = run(SPEC["workloads"][0]["name"], 0, cwd=scratch)
    shutil.rmtree(scratch, ignore_errors=True)
    check(p.returncode != 0, "the benchmark succeeded without the repository")
    check('"correct"' not in p.stdout, "a result was printed without the "
          "repository")


def main():
    for w in SPEC["workloads"]:
        name = w["name"]
        first = result(name, 0)
        again = result(name, 0)
        for m in DETERMINISTIC:
            check(first[m]["value"] == again[m]["value"],
                  f"{name}: {m} changed between runs at seed {SEED}")
        result(name, 1)
        check_trace(name)
        print(f"selftest: {name} ok")
    check_alone()
    print("selftest: OK")


if __name__ == "__main__":
    main()
