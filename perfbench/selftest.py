#!/usr/bin/env python3
"""Quick self-test of the benchmark harness.

Run from the repository root:

    python3 perfbench/selftest.py

It checks, in a few minutes:
1. the harness's unit tests pass (`cargo test` in perfbench/harness);
2. every workload run.py offers (BENCHMARK.json declares a subset of
   them), in a short end-to-end run and in a traced run, prints every
   metric BENCHMARK.json declares, by name and with its unit, with
   error_rate 0;
3. two traced runs of one seed report identical aqo_obs counters;
4. a corrupted reference answer is counted as a failed op.

Exits 0 when all checks pass, 1 otherwise.
"""

import json
import os
import shutil
import subprocess
import sys

from run import WORKLOADS

SEED = 7
SECONDS = 2


def run(workload, trace, data="perfbench/data", seed=SEED):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", str(trace), "--data", data]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"FAIL: {' '.join(cmd)} exited {proc.returncode}\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    failures = []

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    test = subprocess.run(
        ["cargo", "test", "--release", "--offline", "-q", "--manifest-path", "perfbench/harness/Cargo.toml"],
        env=dict(os.environ, CARGO_TARGET_DIR=target),
    )
    if test.returncode != 0:
        failures.append("harness unit tests failed")

    for w in WORKLOADS:
        for trace, declared in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            lines, result = run(w, trace)
            print(f"== {w} --trace {trace}: attempted={result['attempted']} failed={result['failed']}")
            for note in lines[:-1]:
                if note.startswith(("error_rate", "latency_p99", "first failure")):
                    print("   " + note)
            metrics = result["metrics"]
            for m in declared:
                got = metrics.get(m["name"])
                if got is None:
                    failures.append(f"{w} trace={trace}: missing metric {m['name']}")
                    continue
                if got["unit"] != m["unit"]:
                    failures.append(f"{w} trace={trace}: {m['name']} unit {got['unit']} != {m['unit']}")
                print(f"   {m['name']:<38} {got['value']:>16.6f} {got['unit']}")
            extra = set(metrics) - {m["name"] for m in declared}
            if extra:
                failures.append(f"{w} trace={trace}: undeclared metrics {sorted(extra)}")
            if result["failed"] != 0 or not result["correct"]:
                failures.append(f"{w} trace={trace}: error_rate is not 0")

    counters = []
    for _ in range(2):
        lines, _ = run("serve-hot", 1)
        counters.append(next(l for l in lines if l.startswith("obs_counters")))
    if counters[0] != counters[1]:
        failures.append(f"aqo_obs counters differ between traced runs:\n  {counters[0]}\n  {counters[1]}")
    else:
        print(f"== traced runs repeat their counters exactly: {counters[0][:100]}...")

    corrupt = ".bench_out/corrupt-data"
    shutil.rmtree(corrupt, ignore_errors=True)
    shutil.copytree("perfbench/data", corrupt)
    path = os.path.join(corrupt, "serve_cold.ref")
    with open(path) as f:
        body = f.read().splitlines()
    i = next(i for i, l in enumerate(body) if l.startswith("cost "))
    body[i] = body[i] + "1"
    with open(path, "w") as f:
        f.write("\n".join(body) + "\n")
    _, result = run("serve-cold", 0, data=corrupt)
    if result["failed"] == 0 or result["correct"]:
        failures.append("a corrupted reference answer was not counted as a failed op")
    else:
        print(f"== corrupted reference: failed={result['failed']} of {result['attempted']}, correct=false")
    shutil.rmtree(corrupt, ignore_errors=True)

    if failures:
        print("\nFAILED:\n  " + "\n  ".join(failures))
        return 1
    print("\nselftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
