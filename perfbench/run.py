#!/usr/bin/env python3
"""Build and run the pcsim benchmark driver (perfbench/pcbench.cc).

Usage, from the repository root:

    python3 perfbench/run.py --workload fig7|kvserve256 \
        --seed N --seconds S --trace 0|1

The driver is built from source, in Release, into .bench_build/ under
the repository root on the first run; later runs rebuild incrementally.
Build output goes to stderr. The driver's report goes to stdout, and
its last line is the JSON result. Exits non-zero, without a result,
when the build or the run fails.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("fig7", "kvserve256")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def run_group(cmd, timeout, **kwargs):
    """Run cmd in its own process group; kill the whole group and wait
    for it on timeout, so no compiler or worker outlives the call."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return proc.returncode, out


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("perfbench: no pcsim sources under %s/src" % ROOT)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B",
                      str(BUILD), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    for cmd in steps:
        code, _ = run_group(cmd, max(1, deadline - time.monotonic()),
                            stdout=sys.stderr)
        if code != 0:
            sys.exit("perfbench: build step failed: %s" % " ".join(cmd))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    build()
    cmd = [str(BUILD / "pcbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--root", str(ROOT)]
    code, out = run_group(cmd, RUN_TIMEOUT_S, stdout=subprocess.PIPE,
                          text=True)
    lines = out.rstrip("\n").split("\n")
    if code != 0:
        sys.stderr.write(out)
        sys.exit("perfbench: driver exited with %d" % code)
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.exit("perfbench: malformed result line")
    sys.stdout.write(out)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
