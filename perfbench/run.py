#!/usr/bin/env python3
"""Builds the daemon and the benchmark from source, then runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. Build output goes to $CARGO_TARGET_DIR
(default `.bench_build`); the benchmark's own scratch files (daemon log,
port files, span dumps) go to `<target dir>/perfbench-out`. The last line
of stdout is the result object printed by the `perfbench` binary.
"""

import os
import subprocess
import sys

WORKLOADS = ("cold_mix", "host_sweep", "hot_hits", "figure_batch")


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def parse(argv):
    opts = {}
    it = iter(argv)
    for flag in it:
        if not flag.startswith("--"):
            fail(f"unexpected argument `{flag}`")
        value = next(it, None)
        if value is None:
            fail(f"flag `{flag}` needs a value")
        opts[flag[2:]] = value
    for key in ("workload", "seed", "seconds", "trace"):
        if key not in opts:
            fail(f"missing --{key}")
    if opts["workload"] not in WORKLOADS:
        fail(f"unknown workload `{opts['workload']}` (want one of {', '.join(WORKLOADS)})")
    return opts


def main():
    opts = parse(sys.argv[1:])
    root = os.getcwd()
    for needed in ("Cargo.toml", "crates/server/Cargo.toml", "perfbench/Cargo.toml"):
        if not os.path.isfile(os.path.join(root, needed)):
            fail(f"`{needed}` not found: run from the root of a source checkout", 1)

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = (
        ["cargo", "build", "--release", "--offline", "--quiet", "-p", "gem5prof-served"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", "perfbench/Cargo.toml"],
    )
    for cmd in builds:
        # Cargo's progress goes to stderr; stdout stays the result channel.
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            fail(f"build failed: {' '.join(cmd)}", 1)

    release = os.path.join(target, "release")
    cmd = [
        os.path.join(release, "perfbench"),
        "--workload", opts["workload"],
        "--seed", opts["seed"],
        "--seconds", opts["seconds"],
        "--trace", opts["trace"],
        "--daemon", os.path.join(release, "gem5prof-served"),
        "--out", os.path.join(target, "perfbench-out"),
    ]
    sys.exit(subprocess.run(cmd, env=env).returncode)


if __name__ == "__main__":
    main()
