#!/usr/bin/env python3
"""Entry point of the aqo benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload serve-cold --seed 1 --seconds 20 --trace 0

It builds the `aqo` binary from the repository's own workspace and the
harness (`perfbench/harness`, a package with a workspace of its own) into
`$CARGO_TARGET_DIR` (default `.bench_build`), then runs the harness. Build
output goes to stderr; the last line of stdout is the result object.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("serve-cold", "serve-hot", "gap-certify")


def stamp(seed):
    """Provenance of a result: cores, compiler, profile, commit, seed."""
    try:
        rustc = subprocess.run(["rustc", "-V"], capture_output=True, text=True).stdout.strip()
    except OSError:
        rustc = "unknown"
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"], capture_output=True, text=True
        ).stdout.strip()
    except OSError:
        commit = ""
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return (
        f"nproc={nproc} rustc=[{rustc}] profile=release "
        f"commit={commit or 'unknown (not a git checkout)'} seed={seed}"
    )


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--data", default="perfbench/data", help="directory of the reference files")
    args = parser.parse_args()

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = (
        ["cargo", "build", "--release", "--offline", "-p", "aqo-bench", "--bin", "aqo"],
        ["cargo", "build", "--release", "--offline", "--manifest-path", "perfbench/harness/Cargo.toml"],
    )
    for cmd in builds:
        # Keep stdout for the result: build chatter goes to stderr.
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            print(f"run.py: build failed: {' '.join(cmd)}", file=sys.stderr)
            return 1

    run_stamp = stamp(args.seed)
    # Pin the harness and the server it spawns to one CPU. A closed-loop
    # hand-off between client and server is then a local context switch,
    # not a cross-CPU wake-up; on a shared VM such a wake-up waits for the
    # hypervisor and swamps sub-millisecond round trips.
    if hasattr(os, "sched_setaffinity"):
        cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
        run_stamp += f" pinned_cpu={cpu}"
    harness = os.path.join(target, "release", "aqo-perfbench")
    cmd = [
        harness, "run",
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--aqo", os.path.join(target, "release", "aqo"),
        "--data", args.data,
        "--stamp", run_stamp,
    ]
    return subprocess.run(cmd, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
