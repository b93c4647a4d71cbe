#!/usr/bin/env python3
"""Build the OASIS end-to-end benchmark from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload invoke_zipf --seed 1 --seconds 10 --trace 0

The benchmark executable (perfbench/main.ml) is built with dune against the
libraries under lib/. Its standard output is passed through unchanged; the
last line is the JSON result, which is also written under perfbench/out/.
The exit code is the executable's, or non-zero if the build fails.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("session_churn", "invoke_zipf", "revocation_storm")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    # The benchmark links the repository's own libraries; without them there
    # is nothing to measure.
    if not (os.path.isfile(os.path.join(ROOT, "dune-project"))
            and os.path.isdir(os.path.join(ROOT, "lib"))):
        print("perfbench: run from a checkout of the repository (dune-project and lib/ not found)",
              file=sys.stderr)
        return 2

    # Keep dune's build cache inside the checkout's _build directory.
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ROOT, "./perfbench/main.exe"],
        cwd=ROOT, env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode

    out_dir = os.path.join(ROOT, "perfbench", "out")
    os.makedirs(out_dir, exist_ok=True)
    out = os.path.join(out_dir, "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
    # Traced runs open the runtime's event ring; it lives (and is removed at
    # exit) in the output directory.
    env["OCAML_RUNTIME_EVENTS_DIR"] = out_dir
    sys.stdout.flush()
    run = subprocess.run(
        [os.path.join(ROOT, "_build", "default", "perfbench", "main.exe"),
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", out],
        cwd=ROOT, env=env)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
