#!/usr/bin/env python3
"""Repository benchmark: StackTrack on kv_update, kv_read and list_traverse.

Builds the load generator (perfbench/CMakeLists.txt) into $CARGO_TARGET_DIR, or
.bench_build at the repository root, runs one measurement, prints every metric by name
with its unit, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports BENCHMARK.json's end_to_end metrics, --trace 1 its per_layer ones.
Run it from the repository root:

    python3 perfbench/run.py --workload kv_update --seed 1 --seconds 10 --trace 0

perfbench/README.md describes the workloads, the metrics and their measured spread.
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("kv_update", "kv_read", "list_traverse")
# Variables that would change what is measured: the STM engine, the split predictor
# and its warm table, the HTM backend, the scheme and trace arming. The benchmark
# always measures the default configuration, so it removes them from the load
# generator's environment and reports each one it ignored.
PINNED_ENV = ("ST_STM", "ST_PREDICTOR", "ST_PREDICTOR_WARM", "ST_HTM", "ST_SCHEME",
              "ST_TRACE_ARM")
# Time a run may take beyond --seconds: set-ups, warm-up, unit costs and drain.
RUN_SLACK_S = 100


def log(message):
    print(message, file=sys.stderr, flush=True)


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if not 1 <= args.seconds <= 60:
        parser.error("--seconds must be between 1 and 60")
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must fit in 64 unsigned bits")
    return args


def build():
    """Configures the build once, brings it up to date, returns the binary's path."""
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench", "-j", "3"],
                   check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unavailable (not a git checkout)"
    result = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                            capture_output=True, text=True, check=False)
    return result.stdout.strip() or "unavailable"


def source_digest():
    """Short sha256 of the measured sources; names the code where git cannot."""
    digest = hashlib.sha256()
    for top in ("src", os.path.join("bench", "workload"), "perfbench"):
        for directory, subdirs, files in os.walk(os.path.join(ROOT, top)):
            subdirs.sort()
            for name in sorted(files):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def main():
    args = parse_args()
    if not (os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt"))
            and os.path.isfile(os.path.join(ROOT, "bench", "workload", "generator.cc"))):
        log("perfbench: the repository sources (src/, bench/workload/) are missing")
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        wanted = json.load(handle)["per_layer" if args.trace else "end_to_end"]

    env = dict(os.environ)
    ignored = [f"{name}={env.pop(name)}" for name in PINNED_ENV if name in env]
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as error:
        log(f"perfbench: build failed: {error}")
        return 1

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    # A crashed or hung load generator counts every attempted operation as failed; the
    # count is unknown then, so the record claims one.
    lost = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    try:
        run = subprocess.run(command, env=env, stdout=subprocess.PIPE, text=True,
                             timeout=args.seconds + RUN_SLACK_S, check=False)
    except subprocess.TimeoutExpired:
        log("perfbench: the load generator hung and was stopped")
        print(json.dumps(lost))
        return 1
    lines = run.stdout.splitlines()
    if run.returncode != 0 or not lines:
        log(f"perfbench: the load generator exited with status {run.returncode}")
        print(json.dumps(lost))
        return 1
    result = json.loads(lines[-1])

    measured = result["layers" if args.trace else "e2e"]
    metrics, missing = {}, []
    for entry in wanted:
        value = measured.get(entry["name"])
        if isinstance(value, (int, float)) and math.isfinite(value):
            metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
        else:
            missing.append(entry["name"])
    attempted, failed = result["attempted"], result["failed"]

    print(f"# perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print(f"# host: cpus={os.cpu_count()} commit={commit()} sources={source_digest()}")
    print("# system: " + " ".join(f"{key}={value}"
                                  for key, value in result["config"].items()))
    print("# ignored environment: " + (", ".join(ignored) if ignored else "none"))
    for name, metric in metrics.items():
        print(f"{name:<30} {metric['value']:>14.6g} {metric['unit']}")
    for name in missing:
        print(f"{name:<30} {'missing':>14}")
    print(f"{'failed_op_ratio':<30} {failed / max(attempted, 1):>14.6g} fraction "
          f"({failed} of {attempted} operations)")
    for key, value in result["detail"].items():
        print(f"  {key:<28} {value}")
    for failure in result["failures"]:
        print(f"# FAILED: {failure}")
    print(json.dumps({"correct": failed == 0 and not missing, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
