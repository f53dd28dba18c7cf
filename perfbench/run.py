#!/usr/bin/env python3
"""Build and run the repository benchmark from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/main.exe with dune (the first run in a fresh checkout
compiles the whole library), then runs it with the same arguments. The
benchmark's last line of standard output is one JSON result object; see
BENCHMARK.json for the workloads and metrics. Exits non-zero, without a
result, if the checkout does not hold the sources to build.
"""

import os
import subprocess
import sys

BUILD_TIMEOUT_S = 880
RUN_TIMEOUT_S = 170
EXE = os.path.join("_build", "default", "perfbench", "main.exe")


def run(cmd, timeout, **kwargs):
    proc = subprocess.Popen(cmd, **kwargs)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"perfbench: {cmd[0]} exceeded {timeout} s", file=sys.stderr)
        return 124


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("perfbench: run from the root of a repository checkout "
              "(no dune-project or lib/ here)", file=sys.stderr)
        return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    code = run(["dune", "build", "--root", ".", "--display", "quiet",
                "./perfbench/main.exe"],
               BUILD_TIMEOUT_S, env=env, stdout=sys.stderr)
    if code != 0:
        print(f"perfbench: build failed ({code})", file=sys.stderr)
        return code or 1
    return run([EXE] + sys.argv[1:], RUN_TIMEOUT_S)


if __name__ == "__main__":
    sys.exit(main())
