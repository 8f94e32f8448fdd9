#!/usr/bin/env python3
"""Build the CGRA tool-chain benchmark from source and run it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  NAME is beam_grid, exact_grid,
sim_campaign, serve_mix, or all.  The repository is built with dune into
its own _build directory (dune's shared cache is disabled, so nothing
outside the checkout is read or written); run-time files go to
.perfbench/.  The last line of standard output is the benchmark's JSON
result; build output goes to standard error.  See perfbench/README.md.
"""

import os
import subprocess
import sys

TARGETS = ["perfbench/main.exe", "bin/cgra_mapd.exe"]


def main(argv):
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not os.path.isfile(os.path.join(root, "dune-project")):
        print("perfbench: no dune-project next to perfbench/; the benchmark "
              "builds the repository it sits in", file=sys.stderr)
        return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", root, "--display", "quiet"] + TARGETS,
        cwd=root, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    exe = os.path.join(root, "_build", "default", "perfbench", "main.exe")
    daemon = os.path.join(root, "_build", "default", "bin", "cgra_mapd.exe")
    # A relative --out keeps the daemon's socket path short.
    return subprocess.run(
        [exe] + argv + ["--daemon", daemon, "--out", ".perfbench"],
        cwd=root, env=env).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
