#!/usr/bin/env python3
"""Build casbench (and the casc it serves with) from source, then run it.

Run from the root of a checkout:

    python3 casbench/run.py --workload drf-dpor --seed 1 --seconds 15 --trace 0
    python3 casbench/run.py compare runs-a/ runs-b/

Build output goes to stderr, so the last line on stdout is casbench's
result. The dune cache is disabled: the build reads and writes only
inside the checkout. casbench runs pinned to one core.
"""

import os
import subprocess
import sys

TARGETS = ["./casbench/casbench.exe", "./bin/casc.exe"]
EXE = os.path.join("_build", "default", "casbench", "casbench.exe")


def main() -> int:
    missing = [p for p in ("dune-project", "lib", "bin") if not os.path.exists(p)]
    if missing:
        print(
            "casbench: %s not found; run from the root of a full checkout"
            % ", ".join(missing),
            file=sys.stderr,
        )
        return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet", *TARGETS],
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        print("casbench: build failed", file=sys.stderr)
        return build.returncode
    # One core for casbench and the cascd daemon it starts (affinity is
    # inherited): a request's round trip is then two context switches on
    # that core, not two wake-ups of an idle core, whose latency on a
    # shared VM follows the host's load rather than the program.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    return subprocess.run([EXE, *sys.argv[1:]], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
