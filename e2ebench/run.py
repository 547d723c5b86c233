#!/usr/bin/env python3
"""End-to-end benchmark of the daydream library and CLI (see README.md).

    python3 e2ebench/run.py --workload cold-predict --seed 1 --seconds 30 --trace 0
    python3 e2ebench/run.py --selftest

Builds the benchmark package (e2ebench/CMakeLists.txt) into .bench_build/,
generates the workload's inputs from the seed, runs the workload in a child
process and prints a host record, the answer checks and every metric. The
last line of stdout is one JSON object: {"correct", "attempted", "failed",
"metrics"}. --trace 0 reports the end-to-end metrics of BENCHMARK.json,
--trace 1 the per-layer metrics of a separate, stage-decomposed run.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path(__file__).resolve().parent
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build():
    """Configures (once) and builds the harness and the daydream CLI."""
    out = build_dir()
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = []
    if not ((out / "Makefile").exists() or (out / "build.ninja").exists()):
        steps.append(["cmake", "-S", str(PACKAGE), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", jobs, "--target", "e2ebench",
                  "e2ebench_selftest"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("build failed:", " ".join(step))
            return False
    return True


def host_record(hardware_concurrency):
    cache = {}
    cache_path = build_dir() / "CMakeCache.txt"
    for line in cache_path.read_text().splitlines():
        if ":" in line and "=" in line and not line.startswith(("//", "#")):
            key, value = line.split("=", 1)
            cache[key.split(":")[0]] = value
    compiler = cache.get("CMAKE_CXX_COMPILER", "?")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True, text=True,
                                 timeout=10).stdout.splitlines()[0]
    except (OSError, IndexError, subprocess.SubprocessError):
        version = compiler
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10).stdout.split()
        in_checkout = len(top) == 2 and Path(top[0]).resolve() == ROOT
        commit = top[1] if in_checkout else "unknown (not a git checkout)"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown (no git)"
    cpu = "?"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    build_type = cache.get("CMAKE_BUILD_TYPE", "")
    return {
        "host": platform.node(),
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "hardware_concurrency": hardware_concurrency,
        "compiler": version,
        "build_type": build_type or "(none)",
        "release_build": build_type == "Release",
        "git_commit": commit,
    }


def run_child(argv):
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.stderr:
        log(proc.stderr.rstrip())
    return proc


def selftest():
    if not build():
        return 1
    return subprocess.run([str(build_dir() / "e2ebench_selftest")]).returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=["cold-predict", "warm-serve", "sweep"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the seeded-plan self-test")
    args = parser.parse_args()
    if args.selftest:
        return selftest()
    if args.workload is None:
        parser.error("--workload is required")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if not build():
        return 1
    out = build_dir()
    harness = str(out / "e2ebench")
    work = out / "work" / args.workload
    spans = out / "spans" / f"{args.workload}.jsonl"
    spans.parent.mkdir(parents=True, exist_ok=True)

    # Set-up, part 1: generate the inputs (traces in every format, ground
    # truth), repeated for a median.
    generate_s = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        start = time.monotonic()
        proc = run_child([harness, "setup", "--workload", args.workload, "--seed",
                          str(args.seed), "--dir", str(work)])
        generate_s.append(time.monotonic() - start)
        if proc.returncode != 0:
            log("set-up failed")
            return 1

    # The workload, in its own process (its peak RSS is the work's alone).
    proc = run_child([harness, "run", "--workload", args.workload, "--seed", str(args.seed),
                      "--dir", str(work), "--seconds", str(args.seconds), "--trace",
                      str(args.trace), "--daydream", str(out / "daydream" / "daydream"),
                      "--spans", str(spans)])
    shutil.rmtree(work, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"workload run failed (exit {proc.returncode})")
        return 1
    record = json.loads(lines[-1])

    # Set-up, part 2: the in-process preparation (daemon start and session
    # opens, or the session load) before the first timed operation.
    setup_s = statistics.median(generate_s) + statistics.median(record["prep_s"])
    e2e = dict(record["e2e"], setup_s=setup_s)
    attempted, failed = record["attempted"], record["failed"]

    host = host_record(record["notes"].get("hardware_concurrency"))
    print(f"== e2ebench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print("host:", json.dumps(host))
    if not host["release_build"]:
        print(f"WARNING: build type is {host['build_type']}, not Release: timings are not "
              "comparable")
    for key, value in sorted(record["notes"].items()):
        print(f"note {key}: {value}")
    if record["accuracy"]:
        print("accuracy vs ground truth = synthetic executor (src/runtime), not hardware:")
        print(f"  {'model':<14}{'what-if':<22}{'predicted_ms':>14}{'truth_ms':>12}{'err_pct':>9}")
        for row in record["accuracy"]:
            print(f"  {row['model']:<14}{row['what_if']:<22}{row['predicted_ms']:>14.3f}"
                  f"{row['ground_truth_ms']:>12.3f}{row['err_pct']:>9.3f}")
    print(f"failed_frac: {failed / max(attempted, 1):.6f} ({failed} of {attempted} operations)")
    for error in record["errors"][:20]:
        print("  FAILED:", error)
    print(f"set-up: generate {[round(s, 4) for s in generate_s]} s, "
          f"prepare {[round(s, 4) for s in record['prep_s']]} s")
    if args.trace:
        print(f"spans written to {spans}")

    samples = record["samples"]
    if args.trace:
        wanted, values = spec["per_layer"], record["layers"]
        listed = {m["name"] for m in wanted}
        for name in sorted(set(values) - listed):
            print(f"  (extra) {name} = {values[name]:.6g}  n={samples.get(name, '-')}")
    else:
        wanted, values = spec["end_to_end"], e2e
    metrics = {}
    for m in wanted:
        value = float(values.get(m["name"], 0.0))
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        n = samples.get(m["name"], samples.get(m["name"].rsplit(".", 1)[0]))
        if m["name"].startswith("latency_ms"):
            n = samples.get("latency_ms")
        print(f"  {m['name']:<40} {value:>16.6f} {m['unit']:<8} n={n if n is not None else '-'}")

    correct = failed == 0 and attempted > 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
