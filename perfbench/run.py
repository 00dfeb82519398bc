#!/usr/bin/env python3
"""Build and run the epoch-pipeline benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload paper-tt-64k --seed 1 --seconds 20 --trace 0

The benchmark is a Go module of its own (perfbench/go.mod) that builds
against the repository's packages. Build outputs, the Go build cache and
span files all go under .bench_build/ in the current directory. The
benchmark's exit code is passed through; a failed build exits non-zero
without printing a result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    build = os.path.abspath(".bench_build")
    os.makedirs(build, exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOMODCACHE=os.path.join(build, "gomodcache"),
        GOPATH=os.path.join(build, "gopath"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOFLAGS="-buildvcs=false",
        GOPROXY="off",
        GOTOOLCHAIN="local",
        GOWORK="off",
        CGO_ENABLED="0",
    )
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(
        ["go", "build", "-o", binary, "."],
        cwd=HERE,
        env=env,
        stdout=sys.stderr,
    )
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return built.returncode or 1
    sys.stdout.flush()
    return subprocess.run([binary] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
