#!/usr/bin/env python3
"""Build the benchmark from the checkout's sources and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR, or
.bench_build when it is unset; its log goes to stderr. The last line of
stdout is the perfbench result (see perfbench/README.md). Exits non-zero,
without a result, when the build or the run fails.
"""

import ctypes
import os
import subprocess
import sys

ADDR_NO_RANDOMIZE = 0x0040000  # personality(2) flag
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "-j", jobs,
         "--target", "perfbench", "jetty_cli"],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            return False
    return True


def main():
    os.chdir(ROOT)
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or
                             ".bench_build")
    if not build(build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    sys.stdout.flush()
    # Run with address-space randomization off, so heap and code layout,
    # and with them cache and branch-predictor aliasing, are the same in
    # every run.
    libc = ctypes.CDLL(None, use_errno=True)
    libc.personality(libc.personality(0xFFFFFFFF) | ADDR_NO_RANDOMIZE)
    binary = os.path.join(build_dir, "perfbench")
    os.execv(binary, [binary] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
