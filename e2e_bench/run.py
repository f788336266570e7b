#!/usr/bin/env python3
"""Builds and runs the incsr end-to-end benchmark (see README.md here).

Run from the root of a checkout:

  python3 e2e_bench/run.py --workload ingest|serve|sparse_churn \\
      --seed N --seconds S --trace 0|1
  python3 e2e_bench/run.py --smoke       # every workload, briefly, both modes
  python3 e2e_bench/run.py --selfcheck   # percentile + self-time self-check

The first call configures and builds the library and the benchmark from
source into .bench_build/e2e_bench (build log on stderr); later calls only
rebuild what changed. The benchmark's last stdout line is its JSON result.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "e2e_bench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "e2e_bench")
WORKLOADS = ("ingest", "serve", "sparse_churn")
RUN_TIMEOUT_S = 170


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "service", "simrank_service.h")):
        sys.exit("e2e_bench: no incsr sources under %s/src; run from a checkout" % ROOT)
    jobs = str(os.cpu_count() or 1)
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs],
                   check=True, stdout=sys.stderr)


def run(args, capture=False):
    """Runs the benchmark binary from the checkout root; returns (code, stdout)."""
    proc = subprocess.run([os.path.join(BUILD_DIR, "incsr_e2e")] + args,
                          cwd=ROOT, timeout=RUN_TIMEOUT_S, text=True,
                          stdout=subprocess.PIPE if capture else None)
    return proc.returncode, proc.stdout


def smoke():
    """Every workload for a second on shrunken inputs, untraced and traced."""
    ok = True
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            code, out = run(["--workload", workload, "--seed", "1",
                             "--seconds", "1", "--trace", trace, "--smoke"],
                            capture=True)
            result = json.loads(out.strip().splitlines()[-1])
            passed = code == 0 and result["correct"] and result["metrics"]
            ok = ok and passed
            print("smoke %-12s trace=%s: %s (%d metrics)" % (
                workload, trace, "ok" if passed else "FAILED",
                len(result["metrics"])))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--selfcheck", action="store_true")
    opts = parser.parse_args()
    if not (opts.workload or opts.smoke or opts.selfcheck):
        parser.error("one of --workload, --smoke, --selfcheck is required")

    try:
        build()
    except (subprocess.CalledProcessError, OSError) as err:
        sys.exit("e2e_bench: build failed: %s" % err)
    os.makedirs(os.path.join(ROOT, ".bench_build"), exist_ok=True)
    try:
        if opts.selfcheck:
            return subprocess.run([os.path.join(BUILD_DIR, "e2e_selfcheck")],
                                  cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
        if opts.smoke:
            return smoke()
        code, _ = run(["--workload", opts.workload, "--seed", str(opts.seed),
                       "--seconds", str(opts.seconds), "--trace", opts.trace])
        return code
    except subprocess.TimeoutExpired:
        sys.exit("e2e_bench: benchmark exceeded %d s" % RUN_TIMEOUT_S)


if __name__ == "__main__":
    sys.exit(main())
