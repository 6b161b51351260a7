#!/usr/bin/env python3
"""Build the perfbench Go program from source and run it.

Run from the root of a checkout:

    python3 perfbench/run.py --workload batch --seed 1 --seconds 25 --trace 0

Every argument is passed to the benchmark (see perfbench/README.md).
The Go build cache, temporary files and the binary stay inside the
checkout, under .bench_build/, and the build never reaches the
network. If the build fails, for example because the program's
sources are missing, the script exits nonzero without printing a
result.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")


def main():
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOMODCACHE=os.path.join(BUILD, "gomodcache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOTMPDIR=tmp,
        TMPDIR=tmp,
        GOPROXY="off",
        GOTOOLCHAIN="local",
        GOWORK="off",
        CGO_ENABLED="0",
        PPROF_TMPDIR=tmp,
    )
    binary = os.path.join(BUILD, "perfbench")
    build = subprocess.run(
        ["go", "build", "-o", binary, "."],
        cwd=os.path.join(ROOT, "perfbench"),
        env=env,
        stdout=sys.stderr,
        timeout=840,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    return subprocess.run([binary] + sys.argv[1:], cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
