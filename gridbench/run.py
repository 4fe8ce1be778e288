#!/usr/bin/env python3
"""Builds the grid benchmark from source and runs one workload.

Run from the root of a checkout:

    python3 gridbench/run.py --workload small-tasks --seed 1 --seconds 10 --trace 0

The build goes to $CARGO_TARGET_DIR/gridbench when that variable is set
(relative paths are taken from the checkout root), else to
.bench_build/gridbench. Build output goes to stderr; stdout carries the
benchmark's report, whose last line is one JSON object. `--workload all`
runs every workload in turn and ends with one combined JSON line.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("small-tasks", "large-tasks", "verify-heavy")
# What the digest covers: everything the benchmark binary is built from.
SOURCE_PATHS = ("CMakeLists.txt", "src", os.path.basename(HERE))


def work_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base)


def build():
    """Configures (once) and builds the benchmark; returns the binary."""
    for required in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, required)):
            sys.exit(f"gridbench: {required} missing at {ROOT}; "
                     "run from a full checkout")
    build_dir = os.path.join(work_dir(), "gridbench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "--target", "gridbench",
                    "-j", str(os.cpu_count() or 1)],
                   check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "gridbench")


def revision():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "none"


def source_digest():
    digest = hashlib.sha256()
    files = []
    for path in SOURCE_PATHS:
        full = os.path.join(ROOT, path)
        if os.path.isfile(full):
            files.append(path)
        for parent, dirs, names in os.walk(full):
            dirs[:] = [d for d in dirs if not d.startswith(".")]
            files += [os.path.relpath(os.path.join(parent, n), ROOT)
                      for n in names if not n.endswith(".pyc")]
    for path in sorted(files):
        digest.update(path.encode() + b"\0")
        with open(os.path.join(ROOT, path), "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()


def run_one(binary, args, workload, meta):
    """Runs one workload; returns (exit code, stdout lines, parsed result).

    The result is None when the run printed no JSON line."""
    command = [binary, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", work_dir(), "--revision", meta[0],
               "--source-digest", meta[1]]
    if args.waves:
        command += ["--waves", str(args.waves)]
    proc = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    result = None
    if proc.returncode in (0, 1) and lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
    return proc.returncode, lines, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--waves", type=int, default=0,
                        help="measure exactly this many waves (tests)")
    args = parser.parse_args()

    binary = build()
    meta = (revision(), source_digest())
    if args.workload != "all":
        code, lines, _ = run_one(binary, args, args.workload, meta)
        print("\n".join(lines), flush=True)
        return code

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for workload in WORKLOADS:
        code, lines, result = run_one(binary, args, workload, meta)
        print("\n".join(lines[:-1] if result else lines), flush=True)
        if result is None:
            return code or 1
        status = status or code
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined), flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
