#!/usr/bin/env python3
"""Builds the jstream benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source tree. The first run configures and builds
perfbench/ (which compiles the library from ../src) into
.bench_build/perfbench; later runs only rebuild what changed. --trace 0 runs
the untraced end-to-end program, --trace 1 the traced per-layer program.

Standard output ends with one JSON line holding exactly "correct",
"attempted", "failed" and "metrics"; the line before it holds the host and
build description. The full record, with per-run details, is written to
.bench_build/perfbench/results/. Build output goes to standard error.
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
PROGRAMS = {0: "jstream_perfbench", 1: "jstream_perfbench_trace"}
RESULT_KEYS = ("correct", "attempted", "failed", "metrics")
# The program's own limit is --seconds plus its validation pass and last
# round; this bound only stops a hung run inside the 180 s a run may take.
RUN_TIMEOUT_S = 170


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def check_result(result, metric_specs):
    """Returns a list of schema errors of a program's result object."""
    errors = []
    for key in RESULT_KEYS:
        if key not in result:
            errors.append("missing key %r" % key)
    if errors:
        return errors
    if not isinstance(result["correct"], bool):
        errors.append("correct is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool):
            errors.append("%s is not a whole number" % key)
    if not errors and not 0 <= result["failed"] <= result["attempted"]:
        errors.append("failed is outside [0, attempted]")
    if not errors and result["attempted"] < 1:
        errors.append("attempted is below 1")
    metrics = result["metrics"]
    expected = {m["name"]: m["unit"] for m in metric_specs}
    if set(metrics) != set(expected):
        missing = sorted(set(expected) - set(metrics))
        extra = sorted(set(metrics) - set(expected))
        errors.append("metrics differ from BENCHMARK.json: missing %s, extra %s" % (missing, extra))
    for name, metric in metrics.items():
        if set(metric) != {"value", "unit"}:
            errors.append("%s: keys %s" % (name, sorted(metric)))
            continue
        value = metric["value"]
        if not isinstance(value, (int, float)) or isinstance(value, bool) or not math.isfinite(value):
            errors.append("%s: value %r is not a finite number" % (name, value))
        if name in expected and metric["unit"] != expected[name]:
            errors.append("%s: unit %r, expected %r" % (name, metric["unit"], expected[name]))
    return errors


def source_digest():
    """SHA-256 over the library and benchmark sources, for trees without git."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def git_commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def build(target):
    jobs = str(os.cpu_count() or 1)
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target", target, "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(BUILD_DIR, target)


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("run.py: no library sources at %s/src" % ROOT, file=sys.stderr)
        return 2
    spec = load_spec()
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print("run.py: unknown workload %r" % args.workload, file=sys.stderr)
        return 2

    try:
        program = build(PROGRAMS[args.trace])
    except (OSError, subprocess.CalledProcessError) as e:
        print("run.py: build failed: %s" % e, file=sys.stderr)
        return 1

    os.makedirs(os.path.join(BUILD_DIR, "results"), exist_ok=True)
    stem = os.path.join(BUILD_DIR, "results",
                        "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace))
    command = [program, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds)]
    if args.trace:
        command += ["--spans", os.path.join(BUILD_DIR, "spans-%s.csv" % args.workload)]
    try:
        run = subprocess.run(command, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: %s timed out" % PROGRAMS[args.trace], file=sys.stderr)
        return 1
    sys.stderr.write(run.stderr)
    lines = run.stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, ValueError):
        print("run.py: %s printed no result (exit %d)" % (PROGRAMS[args.trace], run.returncode),
              file=sys.stderr)
        return 1

    metric_specs = spec["per_layer"] if args.trace else spec["end_to_end"]
    errors = check_result(record, metric_specs)
    if errors:
        print("run.py: malformed result: %s" % "; ".join(errors), file=sys.stderr)
        return 1

    environment = dict(record.get("environment", {}))
    environment["git_commit"] = git_commit()
    environment["source_sha256"] = source_digest()
    record["environment"] = environment
    with open(stem + ".json", "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
    for error in record.get("errors", []):
        print("run.py: %s" % error, file=sys.stderr)

    print(json.dumps({"environment": environment}, sort_keys=True))
    print(json.dumps({key: record[key] for key in RESULT_KEYS}))
    return 0 if record["correct"] and run.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
