#!/usr/bin/env python3
"""Build the benchmark from source, then run one workload.

    python3 perfbench/run.py --workload solve-batch|serve-procs|sim-sweep \
        --seed N --seconds S --trace 0|1

Run from the repository root. Builds the `mf-served` daemon and the
`subsolve_worker` binary from the repository's own manifest, and
`perfbench` from its own, both release and offline, into
$CARGO_TARGET_DIR (default `.bench_build`), then runs the workload. The
last line of standard output is the JSON result. Cargo's output goes to
standard error.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    env = dict(os.environ)
    target = os.path.abspath(env.get("CARGO_TARGET_DIR") or ".bench_build")
    env["CARGO_TARGET_DIR"] = target
    build = ["cargo", "build", "--release", "--offline", "--quiet"]
    for args in (
        # The program, exactly as the repository builds it.
        ["-p", "serve", "-p", "renovation", "--bins"],
        ["--manifest-path", os.path.join(HERE, "Cargo.toml")],
    ):
        built = subprocess.run(build + args, cwd=ROOT, env=env, stdout=sys.stderr)
        if built.returncode != 0:
            print("perfbench: build failed", file=sys.stderr)
            return built.returncode or 1
    exe = os.path.join(target, "release", "perfbench")
    return subprocess.run([exe] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
