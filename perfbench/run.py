#!/usr/bin/env python3
"""End-to-end benchmark of the Triad reproduction (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Builds the program and the perfbench binary from source (Release, into
$CARGO_TARGET_DIR or .bench_build), then runs one workload. The binary's
last stdout line is the result object. Scratch output goes to .bench_out/.
"""

import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serve_honest", "serve_forged", "sim_longrun", "sim_observed",
             "campaign_fminus")
RUN_TIMEOUT_S = 170


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    """Configures (once) and builds; returns the perfbench binary's path or None."""
    out = build_dir()
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-G", "Ninja",
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", str(os.cpu_count() or 1)])
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            sys.stderr.write("run.py: build step failed: %s\n" % " ".join(step))
            return None
    return os.path.join(out, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="show every correctness check failing on a "
                             "corrupted input")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    binary = build()
    if binary is None:
        return 1
    if args.selftest:
        return subprocess.run([binary, "selftest"], timeout=RUN_TIMEOUT_S).returncode

    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    command = [binary, args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--out", out_dir, "--bin", os.path.dirname(binary)]
    # Own process group: a run that hangs is killed together with the
    # daemons it started.
    bench_proc = subprocess.Popen(command, start_new_session=True)
    try:
        return bench_proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(bench_proc.pid, signal.SIGKILL)
        bench_proc.wait()
        sys.stderr.write("run.py: %s did not finish in %d s\n"
                         % (args.workload, RUN_TIMEOUT_S))
        return 1


if __name__ == "__main__":
    sys.exit(main())
