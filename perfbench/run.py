#!/usr/bin/env python3
"""Runs one workload of the rwl benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [fixed settings, as in BENCHMARK.json]

Run from the repository root.  Builds perfbench/ (which compiles the
library from src/) into $CARGO_TARGET_DIR (default .bench_build), runs
rwlbench, echoes its report, and prints as the last line the result object
BENCHMARK.json describes: with --trace 0 its end_to_end metrics, with
--trace 1 its per_layer metrics.  Exits non-zero, printing no result, when
the build, the run or any check of the run's own output fails.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
BENCH = ROOT / "perfbench"
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    if not (build_dir / "CMakeCache.txt").exists():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = subprocess.run(
            ["cmake", "-S", str(BENCH), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=Release", *generator],
            stdout=sys.stderr, stderr=sys.stderr)
        if configure.returncode != 0:
            fail("configure failed")
    jobs = str(os.cpu_count() or 1)
    compiled = subprocess.run(
        ["cmake", "--build", str(build_dir), "-j", jobs],
        stdout=sys.stderr, stderr=sys.stderr)
    if compiled.returncode != 0:
        fail("build failed")
    return build_dir / "rwlbench"


def revision():
    """The git commit when there is one, else a digest of the sources."""
    try:
        if not (ROOT / ".git").exists():
            raise OSError("not a git checkout")
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
        if head.returncode == 0:
            return head.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for path in sorted(p for d in ("src", "perfbench") for p in
                       (ROOT / d).rglob("*") if p.is_file()):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return "tree-" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True)
    parser.add_argument("--seconds", required=True)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    passthrough = ["clients", "workers", "rate"]
    for name in passthrough:
        parser.add_argument("--" + name)
    args = parser.parse_args()

    if not (ROOT / "src").is_dir():
        fail("no src/ to build: run from the repository root")
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = contract["per_layer" if args.trace == "1" else "end_to_end"]

    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    binary = build(build_dir / "perfbench")
    command = [str(binary), "--workload", args.workload, "--seed", args.seed,
               "--seconds", args.seconds, "--trace", args.trace,
               "--scratch", str(build_dir / "perfbench-run"),
               "--commit", revision()]
    for name in passthrough:
        value = getattr(args, name)
        if value is not None:
            command += ["--" + name, value]
    try:
        run = subprocess.run(command, capture_output=True, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"rwlbench ran longer than {RUN_TIMEOUT_S}s")
    sys.stderr.write(run.stderr)
    if run.returncode != 0:
        for line in run.stdout.splitlines():
            if not line.startswith("RESULT "):
                print(line)
        fail(f"rwlbench exited with {run.returncode}")

    result = None
    for line in run.stdout.splitlines():
        if line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
        else:
            print(line)
    if result is None:
        fail("rwlbench printed no result")
    measured = result["layers" if args.trace == "1" else "end_to_end"]
    metrics = {}
    for metric in wanted:
        value = measured.get(metric["name"])
        if value is None or value["unit"] != metric["unit"]:
            fail(f"metric {metric['name']} was not measured in "
                 f"{metric['unit']}")
        metrics[metric["name"]] = value
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
