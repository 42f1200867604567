#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload batch|stream|serve|query_cli \
        --seed N --seconds S --trace 0|1

The build is `cargo build --release --offline` of the `perfbench` package
(its own workspace, with path dependencies on the repository's crates)
into `$CARGO_TARGET_DIR`, or `perfbench/target` when that is unset. The
last line of standard output is the result JSON object; everything the
build prints goes to standard error. The exit code is non-zero, with no
result printed, when the build or the run fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def capture(cmd):
    try:
        return subprocess.run(
            cmd, capture_output=True, text=True, check=True, timeout=30
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main():
    target = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    )
    env = dict(os.environ)
    env["CARGO_TARGET_DIR"] = target
    # A cargo home of the build's own keeps the build off the user's cargo
    # configuration and caches; every dependency is an in-tree path crate.
    env["CARGO_HOME"] = os.path.join(target, "cargo-home")
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
        ],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 3

    env["PERFBENCH_RUSTC"] = capture(["rustc", "-V"])
    if os.path.isdir(os.path.join(ROOT, ".git")):
        env["PERFBENCH_GIT_REV"] = capture(["git", "-C", ROOT, "rev-parse", "HEAD"])
    else:
        env["PERFBENCH_GIT_REV"] = "none (not a git checkout)"

    binary = os.path.join(target, "release", "perfbench")
    proc = subprocess.Popen([binary] + sys.argv[1:], env=env)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: run timed out", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
